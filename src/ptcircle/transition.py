"""Symmetry-breaking transitions: coalescence couplings and the complex
eigenvalue branches beyond them.

Each s-interval (nu*pi, (nu+1)*pi) holds two real roots of its factor for
every coupling Z below a critical coupling Z_nu: the two points where the
real-root curve Z(s) = 2*s*t(s), with t*sinh t = |s*sin s|, crosses height
Z.  Z_nu is the maximum of that curve, where the pair merges; past it the
pair continues as a complex-conjugate pair.  The merge is a quadratic fold of
the factor along the constraint curve: F = 0 and dF/ds = 0 simultaneously.

The complex pairs are the analytic continuation of the real roots: complex
roots s of the same holomorphic factor F(s; Z) = t*sinh t +/- s*sin s with
t = Z/(2s), at energy E = s**2 - t**2.  They are solved that way, with the
kernel of ``secular``.  Across the module boundary a pair is given in the
hyperbolic form (alpha, beta, K),

    ReE = K**2,  eps = Im E = (K**2 / 2) * (sinh 2*beta - sinh 2*alpha),
    sinh 2*alpha = (Z - eps) / K**2,  sinh 2*beta = (Z + eps) / K**2,

which exists for ReE > 0 and |eps| < Z.  An eigenvalue pair is real exactly
when alpha = beta (eps = 0); swapping alpha and beta flips the sign of eps
(the conjugate partner).  A root is accepted by the factor's rule that
accepts real roots, ``secular._root_accepted``, and only then put in that
form.  ``broken_secular``, the secular condition in that form with
k = K*(sinh alpha - i*cosh alpha) and l* = K*(sinh beta + i*cosh beta), is
an independent check for the tests and ``verify``.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotAFoldError
from .secular import (
    SecularBranch,
    _factor_pair,
    _factor_state,
    _new,
    _reject_arrays,
    _root_accepted,
    constraint_factor,
    t_sinh_t,  # unused here; the traced benchmark counts calls through it (perfbench/spans.py)
    validate_coupling,
)
from .spectrum import refine_root

__all__ = [
    "BrokenParams",
    "ComplexEnergy",
    "CriticalPoint",
    "broken_secular",
    "solve_broken",
    "find_double_root",
    "interval_fold",
    "critical_sequence",
    "continue_in_Z",
    "solve_above_fold",
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
_MAX_ROOT_MOVE = math.pi / 4  # largest predicted move of s per step, see _step


def _require_positive(alpha: float, beta: float, K: float) -> None:
    if not (alpha > 0.0 and beta > 0.0 and K > 0.0):
        raise ValueError("alpha, beta and K must all be positive")


@dataclass(frozen=True)
class BrokenParams:
    """Hyperbolic parameters (alpha, beta, K) of one complex eigenvalue pair."""

    alpha: float
    beta: float
    K: float

    def __post_init__(self) -> None:
        _reject_arrays(self)
        _require_positive(self.alpha, self.beta, self.K)

    @classmethod
    def _trusted(cls, alpha: float, beta: float, K: float) -> "BrokenParams":
        """BrokenParams(alpha=alpha, beta=beta, K=K) from floats, with the positivity
        check only, its instance dict filled key by key as ``SpectralPoint._at_root``
        fills a point's."""
        _require_positive(alpha, beta, K)
        params = _new(cls)
        fields = params.__dict__
        fields["alpha"] = alpha
        fields["beta"] = beta
        fields["K"] = K
        return params

    @classmethod
    def bind(cls, alpha: float, beta: float, Z: float) -> "BrokenParams":
        """Construct with K fixed by the coupling, K = sqrt(2Z/(sinh 2a + sinh 2b))."""
        validate_coupling(Z)
        alpha, beta = float(alpha), float(beta)
        K = math.sqrt(2.0 * Z / (math.sinh(2.0 * alpha) + math.sinh(2.0 * beta)))
        return cls(alpha=alpha, beta=beta, K=K)

    def energy(self) -> "ComplexEnergy":
        """The pair member's energy, its instance dict filled key by key as
        ``SpectralPoint._at_root`` fills a point's: K**2 and the eps of floats
        are floats, so ``ComplexEnergy``'s array check has nothing to find."""
        K2 = self.K * self.K
        energy = _new(ComplexEnergy)
        fields = energy.__dict__
        fields["re_E"] = K2
        fields["eps"] = 0.5 * K2 * (math.sinh(2.0 * self.beta) - math.sinh(2.0 * self.alpha))
        return energy

    def swapped(self) -> "BrokenParams":
        """Conjugate partner: alpha and beta exchanged (eps -> -eps)."""
        return BrokenParams(alpha=self.beta, beta=self.alpha, K=self.K)


@dataclass(frozen=True)
class ComplexEnergy:
    """Real part and imaginary part (eps) of one member of a conjugate pair.
    The public constructor raises TypeError for an ndarray in a field."""

    re_E: float
    eps: float

    def __post_init__(self) -> None:
        _reject_arrays(self)


@dataclass(frozen=True)
class CriticalPoint:
    """A coalescence event: order nu, coupling, double-root location, energy.

    The public constructor raises TypeError for a branch that is not a
    ``SecularBranch`` and for an ndarray in any field, which would leave the
    record unhashable (``solve_above_fold`` looks folds up in a dict).
    ``interval_fold`` builds each fold once per process.  Hash, equality,
    pickling and copying are the frozen dataclass's own."""

    nu: int
    Z_crit: float
    s_merge: float
    E_merge: float
    branch: SecularBranch

    def __post_init__(self) -> None:
        if not isinstance(self.branch, SecularBranch):
            raise TypeError(f"branch must be a SecularBranch, got {self.branch!r}")
        _reject_arrays(self)


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


def _params_from_energy(E: complex, Z: float) -> BrokenParams:
    """Hyperbolic form of the energy E = ReE + i*eps at coupling Z:
    alpha, beta = asinh((Z -/+ eps)/ReE)/2 and K = sqrt(ReE).  Raises
    ValueError unless |eps| < Z and ReE > 16 ulps of |E|, which keeps out the
    k = 0 state E = i*Z, where rounding leaves ReE of about |E|*1e-16."""
    re_E, eps = E.real, E.imag
    if not (re_E > 16.0 * math.ulp(abs(E)) and abs(eps) < Z):
        raise ValueError(f"E={E} has no hyperbolic form at Z={Z}: needs ReE > 16 ulp(|E|), |eps| < Z")
    return BrokenParams._trusted(
        0.5 * math.asinh((Z - eps) / re_E), 0.5 * math.asinh((Z + eps) / re_E), math.sqrt(re_E)
    )


def _same_signs(a: complex, b: complex) -> bool:
    """The components of a and b have the same signs, those of zeros included:
    with a == b, a and b are the same complex double."""
    return (math.copysign(1.0, a.real) == math.copysign(1.0, b.real)
            and math.copysign(1.0, a.imag) == math.copysign(1.0, b.imag))


def _newton(s: complex, Z: float, branch: SecularBranch) -> tuple[complex, complex]:
    """Damped Newton on the factor at fixed Z, s -= lam*F/F_s with lam halved
    until |F| decreases, until the step falls to rounding or no step decreases
    |F| (a trial that rounds back to s ends the search at once).  Each point
    is evaluated once, by ``_factor_pair``: Newton reads only F and F_s.
    Returns the last accepted s and its F.  A non-finite factor at the start
    raises ConvergenceError."""
    F, F_s = _factor_pair(s, Z, branch)
    if not cmath.isfinite(F):
        raise ConvergenceError(f"factor overflows at s={s}, Z={Z}")
    size = abs(F)
    for _ in range(100):
        step = F / F_s
        if abs(step) <= 1e-15 * abs(s):
            break
        lam = 1.0
        for _ in range(40):
            trial = s - lam * step
            if trial == s and _same_signs(trial, s):
                # the step rounds away, and so does every shorter one: each
                # later trial would be s again, with the same |F|
                return s, F
            trial_F, trial_F_s = _factor_pair(trial, Z, branch)
            trial_size = abs(trial_F)
            if trial_size < size:
                s, F, F_s, size = trial, trial_F, trial_F_s, trial_size
                break
            lam *= 0.5
        else:
            break
    return s, F


def _certified(
    s: complex, Z: float, branch: SecularBranch, F: complex
) -> tuple[BrokenParams, ComplexEnergy]:
    """The root s, with its factor value F at (s, Z), accepted by the
    package's one root rule on the factor, then mapped through
    E = s**2 - t**2 to (alpha, beta, K).  The mapping raises ValueError at
    the k = 0 state E = i*Z (s**2 = i*Z/2), a root of FACTOR_PLUS at every Z
    but no eigenvalue (``_params_from_energy``).  Both results are built
    field by field after those checks, with the public path's floats."""
    residual = abs(F)
    if not _root_accepted(residual, s, Z, branch):
        raise ConvergenceError(f"broken solve stalled at Z={Z} with residual {residual:.3e}")
    t = Z / (2.0 * s)
    params = _params_from_energy(s * s - t * t, Z)
    return params, params.energy()


def _seeded_root(Z: float, init: BrokenParams) -> tuple[complex, complex, SecularBranch]:
    """``init`` as s = sqrt((E + sqrt(E**2 + Z**2))/2) with E = K**2 + i*eps,
    solved by ``_newton`` on the factor with the smaller |F| there: the root,
    its F and the branch.  A caller that steps from the root evaluates its
    ``_factor_state`` itself."""
    E0 = init.energy()
    E = complex(E0.re_E, E0.eps)
    s = cmath.sqrt(0.5 * (E + cmath.sqrt(E * E + Z * Z)))
    branch = min(SecularBranch, key=lambda b: abs(constraint_factor(s, Z, b)))
    return (*_newton(s, Z, branch), branch)


def solve_broken(Z: float, init: BrokenParams) -> tuple[BrokenParams, ComplexEnergy]:
    """Complex root s of the constraint factor at fixed Z, seeded by ``init``
    (``_seeded_root``) and accepted by the root rule (``_certified``).  Z <= 0
    raises ValueError; an overflowing iterate, a rejected root and a root with
    no hyperbolic form, such as E = i*Z, raise ConvergenceError."""
    if not validate_coupling(Z) > 0.0:
        raise ValueError("broken-regime solves require Z > 0")
    try:
        s, F, branch = _seeded_root(Z, init)
        return _certified(s, Z, branch, F)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise ConvergenceError(f"broken solve failed at Z={Z}: {exc}") from exc


# ---------------------------------------------------------------------------
# folds


def _branch_for_interval(nu: int) -> SecularBranch:
    """Factor owning the pair in s-interval (nu*pi, (nu+1)*pi): the sign of
    s*sin s there selects it."""
    return SecularBranch.FACTOR_MINUS if nu % 2 == 0 else SecularBranch.FACTOR_PLUS


def find_double_root(
    Z_guess: float, s_guess: float, branch: SecularBranch
) -> CriticalPoint:
    """Polish a fold of the factor along the constraint curve.

    Newton on the pair {F(s; Z) = 0, F_s(s; Z) = 0} with the closed-form
    Jacobian [[F_s, F_Z], [F_ss, F_sZ]] of ``secular._factor_state``, whose
    line search reads (F, F_s) alone (``secular._factor_pair``).  Each
    step solves that 2x2 system in floats by LU with partial pivoting, the
    elimination of LAPACK's dgesv without a LAPACK call: a step agrees with
    ``np.linalg.solve``'s to a few units of rounding (LAPACK's kernels may
    fuse a multiply-add), the 16 folds of ``critical_sequence`` are the
    same to the bit, and a zero pivot raises ConvergenceError, as dgesv's
    singular matrix did.  The converged point is certified as a quadratic
    fold: both residuals at or below 1e-10, otherwise ConvergenceError, and
    |F_ss| at least 1e-4, otherwise NotAFoldError.  A non-finite residual or
    curvature fails the certificate.  ``interval_fold`` seeds it with the
    grid peak of the real-root curve.
    """
    s, Z = float(s_guess), float(Z_guess)
    for _ in range(100):
        F, F_s, F_ss, F_Z, F_sZ = _factor_state(s, Z, branch)
        if max(abs(F), abs(F_s)) < 1e-13:
            break
        # [[F_s, F_Z], [F_ss, F_sZ]] @ step = (-F, -F_s): as in dgesv, the row
        # with the larger |first entry| pivots, the first row on a tie
        (a, b, r), (c, d, q) = (F_s, F_Z, -F), (F_ss, F_sZ, -F_s)
        if abs(c) > abs(a):
            (a, b, r), (c, d, q) = (c, d, q), (a, b, r)
        if a == 0.0:
            raise ConvergenceError(f"fold Newton singular near s={s}, Z={Z}")
        m = c / a
        u = d - m * b
        if u == 0.0:
            raise ConvergenceError(f"fold Newton singular near s={s}, Z={Z}")
        step_Z = (q - m * r) / u
        step_s = (r - b * step_Z) / a
        lam = 1.0
        norm0 = math.hypot(F, F_s)
        for _ in range(30):
            s_try, Z_try = s + lam * step_s, Z + lam * step_Z
            if s_try > 0.0 and Z_try > 0.0:
                if math.hypot(*_factor_pair(s_try, Z_try, branch)) < norm0:
                    s, Z = s_try, Z_try
                    break
            lam *= 0.5
        else:
            break
    s, Z = float(s), float(Z)
    F, F_s, curvature, _, _ = _factor_state(s, Z, branch)
    if not (abs(F) <= _FOLD_RESIDUAL and abs(F_s) <= _FOLD_RESIDUAL):  # NaN fails too
        raise ConvergenceError(
            f"fold polish stalled at |F|={abs(F):.2e}, |F_s|={abs(F_s):.2e} (s={s}, Z={Z})"
        )
    if not abs(curvature) >= _MIN_CURVATURE:
        raise NotAFoldError(
            f"vanishing curvature {curvature:.2e} at s={s}, Z={Z}: not a quadratic fold"
        )
    t = Z / (2.0 * s)
    nu = int(math.floor(s / math.pi))
    return CriticalPoint(nu=nu, Z_crit=Z, s_merge=s, E_merge=s * s - t * t, branch=branch)


@functools.cache
def interval_fold(nu: int) -> CriticalPoint:
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
    certificate is the only acceptance test.  ``critical_sequence`` is this
    fold for nu = 0, 1, ...

    nu must be a non-negative integer (``int``, ``numpy.int64`` or ``bool``:
    anything ``operator.index`` accepts), otherwise ValueError.  Each fold is
    polished once per process and cached per nu; the CriticalPoint is frozen,
    so every caller shares it.  A call that raises caches nothing.
    """
    try:
        nu = operator.index(nu)
    except TypeError:
        raise ValueError(f"interval index must be an integer, got {nu!r}") from None
    if nu < 0:
        raise ValueError(f"interval index must be non-negative, got {nu}")
    branch = _branch_for_interval(nu)
    s = np.linspace(nu * math.pi, (nu + 1) * math.pi, 65)[1:-1]
    c = -branch.sin_term_sign * s * np.sin(s)
    t = np.sqrt(c)
    for _ in range(100):
        sh = np.sinh(t)
        step = (t * sh - c) / (sh + t * np.cosh(t))
        t -= step
        if np.all(step <= 1e-15 * t):
            break
    Z = 2.0 * s * t
    i = int(np.argmax(Z))
    return find_double_root(float(Z[i]), float(s[i]), branch)


def critical_sequence(count: int) -> list[CriticalPoint]:
    """First ``count`` critical couplings, strictly increasing in Z.

    Z_nu is ``interval_fold(nu)``, the maximum of the real-root curve Z(s)
    over the interval (nu*pi, (nu+1)*pi), so the folds are polished once per
    process; each call returns a new list.  Guarded to count <= 16, the range
    the tests pin.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > 16:
        raise ValueError("count capped at 16")
    folds = [interval_fold(nu) for nu in range(count)]
    folds.sort(key=lambda c: c.Z_crit)
    return folds


def fold_unfolding_seed(fold: CriticalPoint, Z: float) -> BrokenParams:
    """Square-root unfolding seed for the broken branch just above a fold.

    The real pair continues to the complex root s = s* + i*a_s*sqrt(Z - Z_crit)
    with a_s = sqrt(|2*F_Z / F_ss|), the fold's Z-slope and curvature taken in
    closed form; the seed is that s in hyperbolic form, on the eps > 0 member.
    """
    if Z <= fold.Z_crit:
        raise ValueError(f"unfolding seed needs Z above the fold ({fold.Z_crit})")
    _, _, F_ss, F_Z, _ = _factor_state(fold.s_merge, fold.Z_crit, fold.branch)
    s = complex(fold.s_merge, math.sqrt(abs(2.0 * F_Z / F_ss) * (Z - fold.Z_crit)))
    t = Z / (2.0 * s)
    return _params_from_energy(s * s - t * t, Z)


# Each fold's broken pair as one path of the tracker from Z_crit + 1e-3, grown
# as calls walk past its end (see solve_above_fold): the fold maps to its nodes
# (Z, s, _factor_state at s) in ascending Z, its branch and the sign of Im s.
_CHAINS: dict[CriticalPoint, tuple[list, SecularBranch, float]] = {}


def _step(Z: float, s: complex, state: tuple[complex, ...], Z_to: float, branch: SecularBranch,
          side: float) -> tuple[float, complex, complex]:
    """One step of the root s at Z, whose ``_factor_state`` is ``state``,
    toward Z_to along the Davidenko ODE ds/dZ = -F_Z/F_s, Euler predictor and
    ``_newton`` corrector: the next Z, its root and its F.  A caller that
    steps on from there evaluates the root's ``_factor_state``; the last
    step to a target needs only F.  The prediction moves by half of
    min(|Im s|, |F_s/F_ss|), at most pi/4, cut at Z_to: |Im s| is half the
    distance to the conjugate root, |F_s/F_ss|, equal to it at a fold, keeps
    the step off neighbouring roots elsewhere, and the cap keeps it below
    the root spacing (pi in Re s along one factor, about 1.6 between
    neighbouring pairs at large Z), so s stays on its own pair.  A root whose
    Im s leaves ``side``, or a step too short to move Z, raises
    ConvergenceError."""
    _, F_s, F_ss, F_Z, _ = state
    slope = -F_Z / F_s
    h = min(0.5 * abs(s.imag), 0.5 * abs(F_s / F_ss), _MAX_ROOT_MOVE) / abs(slope)
    Z_next = Z_to if h >= abs(Z_to - Z) else Z + math.copysign(h, Z_to - Z)
    if Z_next == Z:
        raise ConvergenceError("step too short to move Z")
    s, F = _newton(s + (Z_next - Z) * slope, Z_next, branch)
    if s.imag * side <= 0.0:
        raise ConvergenceError(f"root crossed the real axis to s={s}")
    return Z_next, s, F


def continue_in_Z(
    Z_from: float,
    Z_to: float,
    steps: int,
    start: BrokenParams,
) -> list[tuple[float, BrokenParams, ComplexEnergy]]:
    """A broken branch at the points of a linear Z grid from Z_from to Z_to.

    ``start`` is solved at Z_from as in ``solve_broken`` and followed by
    ``_step``s, each cut at the next grid point; only grid points are
    certified.  A failing step raises ConvergenceError with the Z reached.
    That |eps| grows with Z away from the fold is observed, not enforced.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    Z_from, Z_to = validate_coupling(Z_from), validate_coupling(Z_to)
    if not (Z_from > 0.0 and Z_to > 0.0):
        raise ValueError("broken-regime solves require Z > 0")
    grid = np.linspace(Z_from, Z_to, steps + 1).tolist() if Z_from != Z_to else [Z_from]
    path: list[tuple[float, BrokenParams, ComplexEnergy]] = []
    Z = Z_from
    try:
        s, F, branch = _seeded_root(Z, start)
        side = math.copysign(1.0, s.imag)
        for Zg in grid:
            while Z != Zg:
                Z, s, F = _step(Z, s, _factor_state(s, Z, branch), Zg, branch, side)
            path.append((Zg, *_certified(s, Zg, branch, F)))
    except (ConvergenceError, OverflowError, ZeroDivisionError, ValueError) as exc:
        raise ConvergenceError(f"continuation failed at Z={Z}: {exc}") from exc
    return path


def solve_above_fold(fold: CriticalPoint, Z: float) -> tuple[BrokenParams, ComplexEnergy]:
    """Broken-branch solution of the fold's pair at Z above the fold.

    The unfolding seed at Z_crit + 1e-3, or at Z_crit + (Z - Z_crit)/2 for
    Z at or below that, solved and certified there, is followed to Z by
    ``_step``s, as ``continue_in_Z`` follows it over one interval, and the
    root at Z is certified.  Z at or below the fold raises ValueError from
    ``fold_unfolding_seed``.

    Only the target cuts a step, so from one start every step short of Z is
    fixed, and every call of a fold above Z_crit + 1e-3 starts there: the
    pair's path is one chain of nodes.  It is kept per process in
    ``_CHAINS``, grown by the free steps of calls that walk past its end,
    each node with the ``_factor_state`` of its root, which the next step
    reads.  A call steps from the last node below Z, so a call within
    the chain evaluates the factor only in its last step, and there only F
    and F_s (``_factor_pair``), at its Newton trials.  A step raises Z by a
    factor of at most 1.41 on every chain up to the overflow, so Z minus that
    node's Z is exact and a walk from the start would not have cut a step
    before that node: the answer and the error text are those of the walk.
    A raising step or start is never kept.  A call within 1e-3 of the fold
    starts at its own point and keeps nothing.
    """
    start = fold.Z_crit + 1e-3
    kept = not Z <= start  # NaN too, for validate_coupling to reject
    near = start if kept else fold.Z_crit + 0.5 * (Z - fold.Z_crit)
    chain = _CHAINS.get(fold) if kept else None
    init = fold_unfolding_seed(fold, near) if chain is None else None
    Z = validate_coupling(Z)
    Z_at = near
    try:
        if chain is None:
            s, F, branch = _seeded_root(near, init)
            _certified(s, near, branch, F)
            chain = ([(near, s, _factor_state(s, near, branch))], branch, math.copysign(1.0, s.imag))
            if kept:
                _CHAINS[fold] = chain
        nodes, branch, side = chain
        below = bisect.bisect_left(nodes, Z, lo=1, key=operator.itemgetter(0)) - 1
        Z_at, s, state = nodes[below]
        F = state[0]
        while Z_at != Z:
            Z_at, s, F = _step(Z_at, s, state, Z, branch, side)
            if Z_at != Z:  # a free step, so past the end of the chain
                state = _factor_state(s, Z_at, branch)
                nodes.append((Z_at, s, state))
        return _certified(s, Z, branch, F)
    except (ConvergenceError, OverflowError, ZeroDivisionError, ValueError) as exc:
        raise ConvergenceError(f"continuation failed at Z={Z_at}: {exc}") from exc


def real_pair_near_fold(Z: float, fold: CriticalPoint) -> list[BrokenParams]:
    """The two still-real solutions of the fold's interval at Z at or below
    the fold, in hyperbolic (alpha = beta) form, ordered by increasing alpha.

    Below the fold the factor is negative at s_merge (F_Z > 0 there) and
    positive just outside both interval ends, where t*sinh t and the
    sign-flipped s*sin s are both positive, so each root is one ``refine_root``
    on either side of s_merge, accepted by the package's root rule.
    Within rounding of the fold, where the factor at s_merge is not negative,
    the pair has merged and the merged state is returned twice.  Z <= 0
    raises ValueError.

    Small-Z limit: for the nu = 0 fold, Z <= 1e-10 raises ValueError ("no
    hyperbolic form").  The lower root there is the n = 0 level, with
    s ~ t ~ sqrt(Z/2) and energy about Z**2/12, and s*s - t*t cancels to
    zero or below in double precision, so the pair has no hyperbolic form.
    Z = 1e-9 still gives the pair; the folds with nu > 0 are not affected.
    """
    if not 0.0 < Z <= fold.Z_crit:
        raise ValueError("real pair near a fold needs 0 < Z <= the fold coupling")
    nu, branch, s0 = fold.nu, fold.branch, fold.s_merge
    if constraint_factor(s0, Z, branch) >= 0.0:
        roots = [s0, s0]
    else:
        lo = nu * math.pi - 1e-9 if nu > 0 else min(math.pi / 256, 0.1 * math.sqrt(0.5 * Z))
        hi = (nu + 1) * math.pi + 1e-9
        roots = [refine_root(b, Z, branch).s for b in ((lo, s0), (s0, hi))]
    out = []
    for s in roots:
        t = Z / (2.0 * s)
        out.append(_params_from_energy(s * s - t * t, Z))
    return sorted(out, key=lambda p: p.alpha)
