"""Symmetry-breaking transitions: coalescence couplings and the complex
eigenvalue branches beyond them.

As the coupling Z grows, the two real roots living in each s-interval
(nu*pi, (nu+1)*pi) of their factor drift together and merge at a critical
coupling Z_nu; past it they continue as a complex-conjugate pair.  The merge
is a quadratic fold of the factor along the constraint curve: F = 0 and
dF/ds = 0 simultaneously.

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

from .errors import (
    ConvergenceError,
    JacobianSingularError,
    NotAFoldError,
    TrackingLossError,
)
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
    "broken_params_from_real_point",
    "fold_unfolding_seed",
    "DIRICHLET_FIRST_CRITICAL",
    "DIRICHLET_SECOND_CRITICAL",
]

# Critical couplings of the companion hard-wall model, recorded for the
# boundary-condition comparison only; nothing here recomputes them.
DIRICHLET_FIRST_CRITICAL = (4.4748, 4.4754)
DIRICHLET_SECOND_CRITICAL = (12.80154, 12.80156)

_MERGE_GAP = 0.1          # pair gap in s that triggers fold polishing
_CAUTION_GAP = 0.35       # pair gap below which the Z step is halved
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


def _pair_in_interval(Z: float, nu: int, branch: SecularBranch) -> list[float]:
    """Roots of the branch factor inside (nu*pi, (nu+1)*pi) at this Z.

    The factor is positive at both interval ends and dips negative between the
    pair.  A grid scan finds well-separated roots; when the pair is too close
    for the grid (near a fold) the dip minimum is the root of F_s on the grid
    bracket around the smallest sample, and the two roots are bracketed on its
    flanks.  No sign change of F_s on that bracket means no dip, so no roots.
    """
    lo = nu * math.pi + 1e-9 if nu > 0 else min(math.pi / 256, 0.1 * math.sqrt(0.5 * Z))
    hi = (nu + 1) * math.pi - 1e-9
    grid = np.linspace(lo, hi, 513)
    vals = [constraint_factor(float(s), Z, branch) for s in grid]
    roots = []
    for i in range(len(grid) - 1):
        if (vals[i] < 0.0) != (vals[i + 1] < 0.0):
            roots.append(
                brentq(constraint_factor, float(grid[i]), float(grid[i + 1]),
                       args=(Z, branch), xtol=1e-14)
            )
    if len(roots) >= 2:
        return roots
    if not roots:
        i_min = int(np.argmin(vals))
        left = float(grid[max(i_min - 1, 0)])
        right = float(grid[min(i_min + 1, len(grid) - 1)])

        def slope(x: float) -> float:
            return constraint_factor_derivatives(x, Z, branch)[0]

        if slope(left) < 0.0 < slope(right):
            s_dip = brentq(slope, left, right, xtol=1e-14)
            if constraint_factor(s_dip, Z, branch) < 0.0:
                roots = [
                    brentq(constraint_factor, left, s_dip, args=(Z, branch), xtol=1e-14),
                    brentq(constraint_factor, s_dip, right, args=(Z, branch), xtol=1e-14),
                ]
    return sorted(roots)


def _track_interval_fold(nu: int, Z_start: float) -> CriticalPoint:
    """March the interval's root pair upward in Z until it nearly collides,
    then polish.  The step is halved whenever the pair gap closes below the
    caution threshold, and on any overshoot where the pair vanishes."""
    branch = _branch_for_interval(nu)
    Z = Z_start
    step = 2.0
    roots = _pair_in_interval(Z, nu, branch)
    while len(roots) < 2:
        # start point is already past this interval's birth range; back off
        Z *= 0.5
        roots = _pair_in_interval(Z, nu, branch)
        if Z < 1e-6:
            raise TrackingLossError(f"no initial pair found in interval {nu}")
    while True:
        gap = roots[-1] - roots[0]
        if gap < _MERGE_GAP:
            return find_double_root(Z, 0.5 * (roots[0] + roots[-1]), branch)
        Z_next = Z + step
        roots_next = _pair_in_interval(Z_next, nu, branch)
        if len(roots_next) >= 2:
            if roots_next[-1] - roots_next[0] < _CAUTION_GAP:
                step = max(step * 0.5, 1e-7)
            Z, roots = Z_next, roots_next
            continue
        # overshot the fold: shrink the step and retry from the last good Z
        step *= 0.5
        if step < 1e-7:
            raise TrackingLossError(
                f"pair in interval {nu} vanished near Z={Z_next} without a detected fold"
            )


def critical_sequence(count: int) -> list[CriticalPoint]:
    """First ``count`` critical couplings, strictly increasing in Z.

    Each s-interval's root pair is tracked upward in Z with adaptive steps
    and its collision polished by ``find_double_root``.  Guarded to
    count <= 16; the tracker is unvalidated beyond that range.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > 16:
        raise ValueError("count capped at 16")
    folds: list[CriticalPoint] = []
    Z_start = 0.5
    for nu in range(count):
        fold = _track_interval_fold(nu, Z_start)
        folds.append(fold)
        Z_start = fold.Z_crit  # the next interval's pair is still real here
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


def real_pair_near_fold(Z: float, fold: CriticalPoint) -> list[BrokenParams]:
    """The still-real solutions of the fold's interval at Z below the fold,
    in hyperbolic (alpha = beta) form, ordered by increasing alpha."""
    if Z > fold.Z_crit:
        raise ValueError("real pair exists only at or below the fold coupling")
    roots = _pair_in_interval(Z, fold.nu, fold.branch)
    out = []
    for s in roots:
        t = Z / (2.0 * s)
        out.append(broken_params_from_real_point(s, t, Z))
    out.sort(key=lambda p: p.alpha)
    return out
