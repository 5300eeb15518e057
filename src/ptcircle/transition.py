"""Symmetry-breaking transitions: coalescence couplings and the complex
eigenvalue branches beyond them.

Each s-interval (nu*pi, (nu+1)*pi) holds two real roots of its factor for
every coupling Z below a critical coupling Z_nu: the two points where the
real-root curve Z(s) = 2*s*t(s), with t*sinh t = |s*sin s|, crosses height
Z.  Z_nu is the maximum of that curve, where the pair merges; past it the
pair continues as a complex-conjugate pair.  The merge is a quadratic fold of
the factor along the constraint curve: F = 0 and dF/ds = 0 simultaneously.

The complex branches are parametrized hyperbolically.  With

    s = K*sinh(alpha),  t = K*cosh(alpha),  p = K*sinh(beta),  q = K*cosh(beta),
    K = sqrt(2Z / (sinh 2*alpha + sinh 2*beta)),

the two wavenumbers are k = s - i*t and l = p - i*q, the real part of the
energy is K**2, and the imaginary part is

    eps = (K**2 / 2) * (sinh 2*beta - sinh 2*alpha).

An eigenvalue pair is real exactly when alpha = beta (eps = 0); swapping
alpha and beta flips the sign of eps (the conjugate partner).

Sign conventions: this module works with E = t**2 - s**2 internally (the
hyperbolic parametrization makes that the natural reading) while the
real-spectrum scan uses E = s**2 - t**2 with the roles of s and t swapped.
Only (alpha, beta, K, ReE, eps) cross the module boundary; the bridge from a
scanned real eigenvalue is alpha = asinh(t_scan / sqrt(E)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, JacobianSingularError, NotAFoldError
from .secular import (
    SecularBranch,
    constraint_factor,
    constraint_factor_derivatives,
    t_sinh_t,  # unused here; the traced benchmark counts calls through it (perfbench/spans.py)
    validate_coupling,
)

__all__ = [
    "BrokenParams",
    "ComplexEnergy",
    "CriticalPoint",
    "broken_secular",
    "solve_broken",
    "find_double_root",
    "critical_sequence",
    "continue_in_Z",
    "solve_above_fold",
    "broken_params_from_real_point",
    "fold_unfolding_seed",
    "DIRICHLET_FIRST_CRITICAL",
    "DIRICHLET_SECOND_CRITICAL",
]

# Critical couplings of the companion hard-wall model, recorded for the
# boundary-condition comparison only; nothing here recomputes them.
DIRICHLET_FIRST_CRITICAL = (4.4748, 4.4754)
DIRICHLET_SECOND_CRITICAL = (12.80154, 12.80156)

_FOLD_RESIDUAL = 1e-10
_MIN_CURVATURE = 1e-4


@dataclass(frozen=True)
class BrokenParams:
    """Hyperbolic parameters (alpha, beta, K) of one complex eigenvalue pair."""

    alpha: float
    beta: float
    K: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and self.beta > 0.0 and self.K > 0.0):
            raise ValueError("alpha, beta and K must all be positive")

    @classmethod
    def bind(cls, alpha: float, beta: float, Z: float) -> "BrokenParams":
        """Construct with K fixed by the coupling, K = sqrt(2Z/(sinh 2a + sinh 2b))."""
        validate_coupling(Z)
        alpha, beta = float(alpha), float(beta)
        K = math.sqrt(2.0 * Z / (math.sinh(2.0 * alpha) + math.sinh(2.0 * beta)))
        return cls(alpha=alpha, beta=beta, K=K)

    def energy(self) -> "ComplexEnergy":
        K2 = self.K * self.K
        eps = 0.5 * K2 * (math.sinh(2.0 * self.beta) - math.sinh(2.0 * self.alpha))
        return ComplexEnergy(re_E=K2, eps=eps)

    def swapped(self) -> "BrokenParams":
        """Conjugate partner: alpha and beta exchanged (eps -> -eps)."""
        return BrokenParams(alpha=self.beta, beta=self.alpha, K=self.K)


@dataclass(frozen=True)
class ComplexEnergy:
    """Real part and imaginary part (eps) of one member of a conjugate pair."""

    re_E: float
    eps: float


@dataclass(frozen=True)
class CriticalPoint:
    """A coalescence event: order nu, coupling, double-root location, energy."""

    nu: int
    Z_crit: float
    s_merge: float
    E_merge: float
    branch: SecularBranch


def _wavenumbers(params: BrokenParams) -> tuple[complex, complex]:
    """k = s - i*t and l* = p + i*q from the hyperbolic parameters."""
    K = params.K
    k = complex(K * math.sinh(params.alpha), -K * math.cosh(params.alpha))
    l_star = complex(K * math.sinh(params.beta), K * math.cosh(params.beta))
    return k, l_star


def broken_secular(params: BrokenParams, Z: float) -> complex:
    """Complex secular residual

        2k*(1 - cosh k * cosh l*) - ((k**2 + l***2)/l*) * sinh k * sinh l*

    with k and l* built from (alpha, beta, K).  Zero at physical solutions,
    broken or unbroken.
    """
    validate_coupling(Z)
    k, ls = _wavenumbers(params)
    return 2.0 * k * (1.0 - cmath.cosh(k) * cmath.cosh(ls)) - (
        (k * k + ls * ls) / ls
    ) * cmath.sinh(k) * cmath.sinh(ls)


def broken_secular_symmetric(params: BrokenParams, Z: float) -> complex:
    """Secular residual multiplied by l*, symmetric in (k, l*).

    Swapping alpha and beta conjugates this form exactly,
    S(beta, alpha) = conj(S(alpha, beta)); the plain residual picks up the
    extra factor |l*/k| under the swap, so the symmetric form is the one to
    use for pointwise conjugation checks.  Zero sets coincide (l* never
    vanishes for positive parameters).
    """
    _, l_star = _wavenumbers(params)
    return l_star * broken_secular(params, Z)


def _residual_scale(params: BrokenParams) -> float:
    """Magnitude of the largest secular term, used to scale residual tests."""
    k, ls = _wavenumbers(params)
    terms = (
        abs(2.0 * k),
        abs(2.0 * k * cmath.cosh(k) * cmath.cosh(ls)),
        abs((k * k + ls * ls) / ls * cmath.sinh(k) * cmath.sinh(ls)),
    )
    return max(1.0, *terms)


def solve_broken(
    Z: float, init: BrokenParams, tol: float = 1e-12, max_steps: int = 100
) -> tuple[BrokenParams, ComplexEnergy]:
    """Damped two-variable Newton for (alpha, beta) at fixed Z.

    The real and imaginary parts of the secular residual are driven to zero
    with a forward-difference-free central Jacobian (relative step 1e-7) and
    step halving until the residual decreases.  Terminates when the residual,
    scaled by the largest secular term, drops below ``tol``.  An iterate whose
    hyperbolic terms overflow raises ConvergenceError.
    """
    validate_coupling(Z)
    if Z <= 0.0:
        raise ValueError("broken-regime solves require Z > 0")

    def resid(x: np.ndarray) -> np.ndarray:
        try:
            r = broken_secular(BrokenParams.bind(x[0], x[1], Z), Z)
        except OverflowError as exc:
            raise ConvergenceError(
                f"broken solve overflowed at alpha={x[0]}, beta={x[1]}, Z={Z}"
            ) from exc
        return np.array([r.real, r.imag])

    x = np.array([init.alpha, init.beta], dtype=float)
    g = resid(x)
    for _ in range(max_steps):
        params = BrokenParams.bind(x[0], x[1], Z)
        scale = _residual_scale(params)
        if np.hypot(g[0], g[1]) <= tol * scale:
            return params, params.energy()
        J = np.empty((2, 2))
        for j in range(2):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp = x.copy()
            xm = x.copy()
            xp[j] += h
            xm[j] -= h
            J[:, j] = (resid(xp) - resid(xm)) / (2.0 * h)
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError as exc:
            raise JacobianSingularError(
                f"singular Jacobian at alpha={x[0]}, beta={x[1]}, Z={Z}; "
                "seed from the fold unfolding instead"
            ) from exc
        accepted = False
        lam = 1.0
        for _ in range(40):
            trial = x + lam * step
            if trial[0] > 0.0 and trial[1] > 0.0:
                g_trial = resid(trial)
                if np.hypot(g_trial[0], g_trial[1]) < np.hypot(g[0], g[1]):
                    x, g = trial, g_trial
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            break
    params = BrokenParams.bind(x[0], x[1], Z)
    if np.hypot(g[0], g[1]) <= tol * _residual_scale(params):
        return params, params.energy()
    raise ConvergenceError(
        f"broken solve stalled at Z={Z} with residual {np.hypot(g[0], g[1]):.3e}"
    )


def broken_params_from_real_point(s: float, t: float, Z: float) -> BrokenParams:
    """Bridge a scanned real eigenvalue (scan variables, E = s**2 - t**2 > 0)
    to the hyperbolic form: alpha = beta = asinh(t / sqrt(E))."""
    E = s * s - t * t
    if E <= 0.0:
        raise ValueError("bridge requires a positive real energy")
    alpha = math.asinh(t / math.sqrt(E))
    return BrokenParams.bind(alpha, alpha, Z)


# ---------------------------------------------------------------------------
# folds


def _branch_for_interval(nu: int) -> SecularBranch:
    """Factor owning the pair in s-interval (nu*pi, (nu+1)*pi): the sign of
    s*sin s there selects it."""
    return SecularBranch.FACTOR_MINUS if nu % 2 == 0 else SecularBranch.FACTOR_PLUS


def _fold_state(s: float, Z: float, branch: SecularBranch) -> tuple[float, ...]:
    """(F, F_s, F_ss, F_Z, F_sZ) of the branch factor at (s, Z)."""
    return (constraint_factor(s, Z, branch), *constraint_factor_derivatives(s, Z, branch))


def find_double_root(
    Z_guess: float, s_guess: float, branch: SecularBranch
) -> CriticalPoint:
    """Polish a fold of the factor along the constraint curve.

    Newton on the pair {F(s; Z) = 0, F_s(s; Z) = 0} with the closed-form
    Jacobian [[F_s, F_Z], [F_ss, F_sZ]] of ``constraint_factor_derivatives``.
    The converged point is certified as a quadratic fold: both residuals at or
    below 1e-10 and |F_ss| bounded away from zero, otherwise NotAFoldError.
    ``critical_sequence`` seeds it with the grid peak of the real-root curve.
    """
    s, Z = float(s_guess), float(Z_guess)
    for _ in range(100):
        F, F_s, F_ss, F_Z, F_sZ = _fold_state(s, Z, branch)
        if max(abs(F), abs(F_s)) < 1e-13:
            break
        try:
            step = np.linalg.solve(np.array([[F_s, F_Z], [F_ss, F_sZ]]), [-F, -F_s])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"fold Newton singular near s={s}, Z={Z}") from exc
        lam = 1.0
        norm0 = math.hypot(F, F_s)
        for _ in range(30):
            s_try, Z_try = s + lam * step[0], Z + lam * step[1]
            if s_try > 0.0 and Z_try > 0.0:
                if math.hypot(*_fold_state(s_try, Z_try, branch)[:2]) < norm0:
                    s, Z = s_try, Z_try
                    break
            lam *= 0.5
        else:
            break
    s, Z = float(s), float(Z)
    F, F_s, curvature, _, _ = _fold_state(s, Z, branch)
    if abs(F) > _FOLD_RESIDUAL or abs(F_s) > _FOLD_RESIDUAL:
        raise ConvergenceError(
            f"fold polish stalled at |F|={abs(F):.2e}, |F_s|={abs(F_s):.2e} (s={s}, Z={Z})"
        )
    if abs(curvature) < _MIN_CURVATURE:
        raise NotAFoldError(
            f"vanishing curvature {curvature:.2e} at s={s}, Z={Z}: not a quadratic fold"
        )
    t = Z / (2.0 * s)
    nu = int(math.floor(s / math.pi))
    return CriticalPoint(nu=nu, Z_crit=Z, s_merge=s, E_merge=s * s - t * t, branch=branch)


def _interval_fold(nu: int) -> CriticalPoint:
    """Coalescence of the root pair in s-interval (nu*pi, (nu+1)*pi).

    For the interval's branch, c(s) = -sin_term_sign*s*sin s = |s*sin s| is
    positive inside the interval, and a root at coupling Z is a point where
    t*sinh t = c(s) with t = Z/(2s).  Solving for t gives the real-root curve
    Z(s) = 2*s*t(s): the pair at Z is where the curve crosses height Z, and
    the pair merges at the curve's maximum.

    t(s) comes from a vectorized Newton started at t = sqrt(c), which lies
    right of the root (t*sinh t >= t**2), so on this convex increasing
    function the iterates decrease monotonically.  The maximum over the 63
    interior nodes of a 65-node grid seeds ``find_double_root``, whose
    certificate is the only acceptance test.
    """
    branch = _branch_for_interval(nu)
    s = np.linspace(nu * math.pi, (nu + 1) * math.pi, 65)[1:-1]
    c = -branch.sin_term_sign * s * np.sin(s)
    t = np.sqrt(c)
    for _ in range(100):
        step = (t * np.sinh(t) - c) / (np.sinh(t) + t * np.cosh(t))
        t -= step
        if np.all(step <= 1e-15 * t):
            break
    Z = 2.0 * s * t
    i = int(np.argmax(Z))
    return find_double_root(float(Z[i]), float(s[i]), branch)


def critical_sequence(count: int) -> list[CriticalPoint]:
    """First ``count`` critical couplings, strictly increasing in Z.

    Z_nu is the maximum of the real-root curve Z(s) over the interval
    (nu*pi, (nu+1)*pi), located on a grid and polished by
    ``find_double_root``.  Guarded to count <= 16, the range the tests pin.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > 16:
        raise ValueError("count capped at 16")
    folds = [_interval_fold(nu) for nu in range(count)]
    folds.sort(key=lambda c: c.Z_crit)
    return folds


def fold_unfolding_seed(fold: CriticalPoint, Z: float) -> BrokenParams:
    """Square-root unfolding seed for the broken branch just above a fold.

    The real pair continues to complex s = s* +/- i*a_s*sqrt(Z - Z_crit) with
    a_s = sqrt(|2*F_Z / F_ss|), the fold's Z-slope and curvature taken in
    closed form; translated to the hyperbolic parameters this puts alpha and
    beta at alpha* -/+ delta with

        delta = eps_est / (2*E* * cosh(2*alpha*)).
    """
    if Z <= fold.Z_crit:
        raise ValueError(f"unfolding seed needs Z above the fold ({fold.Z_crit})")
    s0, Z0 = fold.s_merge, fold.Z_crit
    _, F_ss, F_Z, _ = constraint_factor_derivatives(s0, Z0, fold.branch)
    a_s = math.sqrt(abs(2.0 * F_Z / F_ss))
    t0 = Z0 / (2.0 * s0)
    dE_ds = 2.0 * s0 + 2.0 * t0 * t0 / s0
    eps_est = a_s * dE_ds * math.sqrt(Z - Z0)
    E0 = fold.E_merge
    alpha0 = math.asinh(t0 / math.sqrt(E0))
    delta = eps_est / (2.0 * E0 * math.cosh(2.0 * alpha0))
    return BrokenParams.bind(alpha0 - delta, alpha0 + delta, Z)


def continue_in_Z(
    Z_from: float,
    Z_to: float,
    steps: int,
    start: BrokenParams,
) -> list[tuple[float, BrokenParams, ComplexEnergy]]:
    """Continuation of a broken branch over a linear Z grid.

    Each grid point is solved with the previous solution as seed; the first
    point re-solves at Z_from from ``start``.  Solver failures propagate with
    the failing Z attached.  Along the tabulated ranges |eps| grows with Z
    away from the fold; that is an empirical observation, not a contract this
    function enforces.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    grid = np.linspace(Z_from, Z_to, steps + 1) if Z_from != Z_to else np.array([Z_from])
    path: list[tuple[float, BrokenParams, ComplexEnergy]] = []
    seed = start
    for Zg in grid:
        try:
            params, energy = solve_broken(float(Zg), seed)
        except ConvergenceError as exc:
            raise ConvergenceError(f"continuation failed at Z={float(Zg)}: {exc}") from exc
        path.append((float(Zg), params, energy))
        seed = params
    return path


def solve_above_fold(fold: CriticalPoint, Z: float) -> tuple[BrokenParams, ComplexEnergy]:
    """Broken-branch solution of the fold's pair at Z above the fold.

    Solved from the unfolding seed at Z_crit + min(1e-3, (Z - Z_crit)/2), then
    continued to Z over 16 equal steps.  Z at or below the fold raises
    ValueError from ``fold_unfolding_seed``.
    """
    near = fold.Z_crit + min(1e-3, 0.5 * (Z - fold.Z_crit))
    params, energy = solve_broken(near, fold_unfolding_seed(fold, near))
    if Z != near:
        _, params, energy = continue_in_Z(near, Z, 16, params)[-1]
    return params, energy


def real_pair_near_fold(Z: float, fold: CriticalPoint) -> list[BrokenParams]:
    """The two still-real solutions of the fold's interval at Z at or below
    the fold, in hyperbolic (alpha = beta) form, ordered by increasing alpha.

    Below the fold the factor is negative at s_merge (F_Z > 0 there) and
    positive at both interval ends, so each root is one ``brentq`` on either
    side of s_merge.  Within rounding of the fold, where the factor at
    s_merge is not negative, the pair has merged and the merged state is
    returned twice.
    """
    if Z > fold.Z_crit:
        raise ValueError("real pair exists only at or below the fold coupling")
    nu, branch, s0 = fold.nu, fold.branch, fold.s_merge
    if constraint_factor(s0, Z, branch) >= 0.0:
        roots = [s0, s0]
    else:
        lo = nu * math.pi + 1e-9 if nu > 0 else min(math.pi / 256, 0.1 * math.sqrt(0.5 * Z))
        hi = (nu + 1) * math.pi - 1e-9
        roots = [
            brentq(constraint_factor, lo, s0, args=(Z, branch), xtol=1e-14),
            brentq(constraint_factor, s0, hi, args=(Z, branch), xtol=1e-14),
        ]
    out = [broken_params_from_real_point(s, Z / (2.0 * s), Z) for s in roots]
    out.sort(key=lambda p: p.alpha)
    return out
