"""Secular (quantization) functions for a particle on a circle of half-width 1
in the purely imaginary step potential i*Z*sign(x).

The eigenvalue condition is a transcendental equation in the wavenumber
k = t + i*s, where the real eigenvalue, the coupling and the split parts are
tied together by

    E = s**2 - t**2,        2*s*t = Z.

Three equivalent closed forms of the condition are provided:

* ``secular_t``      -- t-representation, with an oscillatory cos(Z/t) term;
* ``secular_s``      -- s-representation, with an exponential exp(Z/s) term;
* ``secular_factor`` -- the factored form  (t*sinh t + s*sin s)(t*sinh t - s*sin s),
  one factor per branch.

On the constraint curve t = Z/(2s) one factor is a function F(s; Z) of the
scan variable and the coupling.  ``constraint_factor`` evaluates it alone,
and ``_factor_state`` evaluates it together with its closed-form partial
derivatives at one point, the one place their formulas are written
(``constraint_factor_derivatives`` returns its partials).  Every root scan,
fold polish, unfolding seed and broken-pair solve goes through these, the
last at complex s.  There are two exceptions, both for speed.  The Brent
refinement of a scan bracket (``spectrum._brent``) writes the float
operations of the scalar ``factor_value`` inline, and the grid pass of a
scan (``spectrum._grid_factors``) forms both factors from one t*sinh t and
one s*sin s array.  Tests pin both to the bit against this module's
factor.

The factored form is the numerically canonical one: it is entire in both
variables, free of removable singularities, and is what all root finding in
this package uses.  The two unfactored forms are kept for cross-validation
and for figure emission; they refuse the t = 0 / s = 0 edges where their
extra terms oscillate or blow up.

``secular_t``, ``secular_s`` and ``factor_value`` also take ndarrays, one
point per entry, as the identity sweeps of ``verify`` need them, and
``secular_t`` takes a t row against a Z column, the sign map of figure 2.
Each writes its expression once for both paths: the scalar path with
``math``, the array path with numpy's ufuncs.  numpy's exp, expm1, sinh and
cos may differ from ``math`` in the last bit, so an entry agrees with the
scalar call to a few units of rounding, not to the bit.  The curve of
figure 1, whose bytes are pinned, comes from the scalar kernel.  The signs
of figure 2, pinned too, come from numpy's ufuncs; they equal the scalar
call's wherever |value| exceeds its rounding bound, as the tests check, so
only a rounding-sized cell could print another sign on another numpy.  An
array raises the scalar call's error, that of its first failing entry,
wherever one would.

All functions are pure and operate in double precision.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SecularBranch",
    "ExactParams",
    "SpectralPoint",
    "validate_coupling",
    "secular_t",
    "secular_s",
    "secular_factor",
    "factor_value",
    "constraint_factor",
    "constraint_factor_derivatives",
    "representation_identity_residual",
    "energy_of",
    "t_sinh_t",
]

# t*sinh t is taken as +inf above these bounds, where exp would overflow: on
# |t| for a real t (the exp(2t) terms), on |Re t| for a complex t (cmath, ~710).
_SINH_CLAMP = 350.0
_COMPLEX_SINH_CLAMP = 700.0

# The two constants of the root rule ``_root_accepted``.
_ROOT_RESIDUAL_FLOOR = 1e-12
_ROOT_ROUNDING_UNITS = 16.0

# Instance construction past the frozen dataclasses' checks, for
# ``SpectralPoint._at_root`` and the broken pairs of ``transition``.
_new = object.__new__
_setattr = object.__setattr__


def validate_coupling(Z: float) -> float:
    """Check that a coupling is finite and non-negative, and return it."""
    if not math.isfinite(Z):
        raise ValueError(f"coupling must be finite, got {Z!r}")
    if Z < 0.0:
        raise ValueError(f"coupling must be non-negative, got {Z!r}")
    return float(Z)


class SecularBranch(enum.Enum):
    """Which factor of the factored secular equation a root annihilates."""

    FACTOR_PLUS = "plus"    # t*sinh t + s*sin s = 0
    FACTOR_MINUS = "minus"  # t*sinh t - s*sin s = 0

    def __init__(self, value: str) -> None:
        # Sign of the s*sin s term inside the factor.  A member attribute, not
        # a property: every factor evaluation reads it, and a property that
        # looks a member up on the enum class took about a third of a real
        # constraint_factor call (Python 3.11).
        self.sin_term_sign = 1 if value == "plus" else -1

    @property
    def series_sign(self) -> int:
        """Sign sigma in the branch equation t*sinh t = sigma*(-1)^n*(n*pi+rho)*sin(rho).

        +1 for FACTOR_MINUS, -1 for FACTOR_PLUS; this fixes the leading
        perturbation coefficient sigma*(-1)^n/(n*pi).
        """
        return -self.sin_term_sign


@dataclass(frozen=True)
class ExactParams:
    """Split wavenumber k = t + i*s of a real-spectrum state.

    ``t`` and ``s`` are finite non-negative floats; when the parameters are
    bound to a coupling Z they satisfy 2*s*t = Z to construction accuracy.
    """

    t: float
    s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and math.isfinite(self.s)):
            raise ValueError("parameters must be finite")
        if self.t < 0.0 or self.s < 0.0:
            raise ValueError(f"parameters must be non-negative, got t={self.t}, s={self.s}")

    @classmethod
    def on_constraint(cls, s: float, Z: float) -> "ExactParams":
        """Parameters on the constraint curve t = Z/(2s) at height s."""
        if s <= 0.0:
            raise ValueError("s must be positive to bind t = Z/(2s)")
        return cls(t=Z / (2.0 * s), s=s)

    def constraint_residual(self, Z: float) -> float:
        """|2*s*t - Z|, zero (to rounding) iff bound to the coupling Z."""
        return abs(2.0 * self.s * self.t - Z)


@dataclass(frozen=True)
class SpectralPoint:
    """One real eigenvalue: coupling, branch, level label, parameters, energy.

    The public constructor checks every invariant: a finite non-negative
    residual accepted by the root rule ``_root_accepted``, 2*s*t = Z to
    rounding and E == s**2 - t**2 as computed.  ``spectrum.refine_root``
    builds its points through ``_at_root`` instead, which holds them by
    construction.
    """

    Z: float
    branch: SecularBranch
    n: int
    params: ExactParams
    E: float
    residual: float

    def __post_init__(self) -> None:
        if self.residual < 0.0 or not math.isfinite(self.residual):
            raise ValueError("residual must be finite and non-negative")
        if not _root_accepted(self.residual, self.params.s, self.Z, self.branch):
            raise ValueError(
                f"factor residual {self.residual:.3e} exceeds the rounding bound at s={self.params.s}"
            )
        constraint_bound = max(1e-12, 4.0 * sys.float_info.epsilon * self.Z)
        if self.params.constraint_residual(self.Z) > constraint_bound:
            raise ValueError("parameters violate 2*s*t = Z beyond rounding")
        if self.E != self.params.s**2 - self.params.t**2:
            raise ValueError("energy must equal s**2 - t**2 exactly as computed")

    @classmethod
    def _at_root(
        cls, Z: float, branch: SecularBranch, s: float, residual: float
    ) -> "SpectralPoint":
        """The point at a root s of ``branch`` that the caller has accepted,
        built without the checks of the public constructors.

        It derives t = Z/(2s), n = round(s/pi) and E = s**2 - t**2 itself,
        with the float operations the public path uses, so the fields, ``==``
        and ``hash`` equal those of ``SpectralPoint(...)`` built from
        ``ExactParams(t=Z/(2s), s=s)``.  The caller guarantees the rest:
        Z passed ``validate_coupling``, s is finite and positive (it lies in
        a bracket 0 < s_lo < s_hi < inf), and ``_root_accepted(residual, s,
        Z, branch)`` holds.  That rule rejects a non-finite residual, and F
        is +inf wherever |t| > 350, so t is finite and non-negative too.
        Then 2*s*t = Z to rounding (2s is exact, t one rounding of Z/(2s)),
        and every check of ``__post_init__`` and ``ExactParams.__post_init__``
        would pass.  The instances are frozen like any other.
        """
        # field by field, as the dataclass __init__ sets them: this keeps the
        # instances' shared-key attribute storage, which a whole new __dict__
        # would double
        t = Z / (2.0 * s)
        params = _new(ExactParams)
        _setattr(params, "t", t)
        _setattr(params, "s", s)
        point = _new(cls)
        _setattr(point, "Z", Z)
        _setattr(point, "branch", branch)
        _setattr(point, "n", round(s / math.pi))
        _setattr(point, "params", params)
        _setattr(point, "E", s**2 - t**2)
        _setattr(point, "residual", residual)
        return point


def t_sinh_t(t: float | complex) -> float | complex:
    """t*sinh(t), clamped to +inf where exp would overflow.  Even in t; a real
    t is clamped on |t| > 350, a complex t (``numpy.complex128`` included) is
    evaluated with ``cmath`` and clamped on |Re t| > 700."""
    if not isinstance(t, float) and isinstance(t, complex):  # float first, see factor_value
        return math.inf if abs(t.real) > _COMPLEX_SINH_CLAMP else t * cmath.sinh(t)
    return math.inf if abs(t) > _SINH_CLAMP else t * math.sinh(t)


def _t_sinh_t_array(t: np.ndarray) -> np.ndarray:
    """``t_sinh_t`` elementwise on an ndarray of real t, with numpy's sinh.
    The clamped entries never reach sinh, so no overflow warning is raised."""
    big = np.abs(t) > _SINH_CLAMP
    t = np.where(big, 0.0, t)
    return np.where(big, math.inf, t * np.sinh(t))


def _raise_first(bad: np.ndarray, kernel: Callable, x: np.ndarray, Z: float | np.ndarray) -> None:
    """Raise the error of the scalar ``kernel`` at the first entry of x that
    meets a flagged cell of ``bad``, the broadcast of (x, Z).

    Its shape ends in x's shape, so each entry of x meets one Z (Z a scalar
    or of x's shape) or a column of Z (a grid).  The smallest and then the
    largest of those Z are checked as couplings, as the kernels check
    theirs, and the kernel is called at the largest; for one Z that is the
    scalar call's error at that point."""
    if bad.any():
        i = int(bad.reshape(-1, x.size).any(axis=0).argmax())
        z = np.broadcast_to(Z, bad.shape).reshape(-1, x.size)[:, i]
        validate_coupling(float(z.min(initial=0.0)))
        kernel(float(x.flat[i]), validate_coupling(float(z.max(initial=0.0))))


def _t_form(t, Z, exp, expm1, cos):
    em = expm1(2.0 * t)
    return 4.0 * exp(-2.0 * t) * em * em * t * t + (2.0 * Z * Z / (t * t)) * (cos(Z / t) - 1.0)


def secular_t(t: float | np.ndarray, Z: float | np.ndarray) -> float | np.ndarray:
    """t-representation of the secular determinant,

        4*exp(-2t)*(exp(2t) - 1)**2 * t**2 + (2*Z**2/t**2)*(cos(Z/t) - 1).

    Requires t > 0 with t*t nonzero in double precision: at the edge the
    second term has an essential oscillation for Z > 0.  For large t the
    first term dominates and the value grows exponentially; above t = 350 it
    is +inf.  Z/t must not overflow.

    An ndarray t takes a scalar Z or an ndarray Z that broadcasts against
    it (one Z per t, as in the identity sweeps, or a Z column against a t
    row, the sign map of figure 2), and gives the value at every entry of
    the broadcast, with numpy's exp, expm1 and cos.  The ValueError of a
    scalar call is raised whenever one entry would raise it: a negative or
    non-finite Z, t <= 0, t*t == 0, or (for t <= 350) a Z/t that overflows.
    On a grid it is the error of the first failing column, that of the
    scalar call at its largest Z after its smallest and largest Z are
    checked as couplings (``_raise_first``).  Overflow in 2*Z**2/t**2 and
    the NaN of inf*0 pass without a numpy warning, as they do in ``math``.
    """
    if isinstance(t, np.ndarray):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            big = t > _SINH_CLAMP
            bad = (~np.isfinite(Z) | (Z < 0.0) | (t <= 0.0) | (t * t == 0.0)
                   | (~big & ~np.isfinite(Z / t)))
            _raise_first(bad, secular_t, t, Z)
            # the clamped entries never reach expm1, which overflows past 355
            return np.where(big, math.inf,
                            _t_form(np.where(big, 1.0, t), Z, np.exp, np.expm1, np.cos))
    z = validate_coupling(Z)
    if t <= 0.0:
        raise ValueError(f"secular_t requires t > 0, got {t!r}")
    if t * t == 0.0:
        raise ValueError(f"secular_t requires t*t > 0, but it underflows at t={t!r}")
    if t > _SINH_CLAMP:
        return math.inf
    if not math.isfinite(z / t):
        raise ValueError(f"secular_t requires a finite Z/t, but it overflows at t={t!r}, Z={z!r}")
    return _t_form(t, Z, math.exp, math.expm1, math.cos)


def _s_form(s, Z, u, exp, expm1, cos):
    em = expm1(u)
    first = 8.0 * s * s * (cos(2.0 * s) - 1.0)
    second = exp(-u) * em * em * Z * Z / (s * s)
    return first + second


def secular_s(s: float | np.ndarray, Z: float | np.ndarray) -> float | np.ndarray:
    """s-representation of the secular determinant,

        8*s**2*(cos(2s) - 1) + exp(-Z/s)*(exp(Z/s) - 1)**2 * Z**2/s**2.

    Requires s > 0.  At Z = 0 it reduces to 8*s**2*(cos 2s - 1), whose zeros
    are the circle spectrum s = n*pi.  Where Z/s > 700 it is +inf.

    An ndarray s, with a scalar Z or Z of the same shape, gives one point per
    entry, with numpy's exp, expm1 and cos, and the error of a scalar call is
    raised whenever one entry would raise it (a negative or non-finite Z,
    s <= 0, an infinite 2s, or, at Z/s <= 700, the ZeroDivisionError of an
    s*s that underflows).
    """
    if isinstance(s, np.ndarray):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = Z / s
            big = u > 2.0 * _SINH_CLAMP
            _raise_first(~np.isfinite(Z) | (Z < 0.0) | (s <= 0.0)
                         | (~big & (np.isinf(2.0 * s) | (s * s == 0.0))), secular_s, s, Z)
            return np.where(big, math.inf, _s_form(s, Z, np.where(big, 0.0, u),
                                                   np.exp, np.expm1, np.cos))
    validate_coupling(Z)
    if s <= 0.0:
        raise ValueError(f"secular_s requires s > 0, got {s!r}")
    u = Z / s
    if u > 2.0 * _SINH_CLAMP:
        return math.inf
    return _s_form(s, Z, u, math.exp, math.expm1, math.cos)


def factor_value(
    t: float | complex | np.ndarray, s: float | complex | np.ndarray, branch: SecularBranch
) -> float | complex | np.ndarray:
    """Factor t*sinh t +/- s*sin s evaluated at raw (t, s).

    Total in both arguments (the t = 0 and s = 0 edges are the continuous
    extension, value 0 for the hyperbolic/oscillatory terms respectively).
    The type of s selects the arithmetic: a complex s (``numpy.complex128``
    included) gives the holomorphic continuation with ``cmath``, an ndarray
    of real s (with t of the same shape) is evaluated elementwise with numpy,
    and anything else is a real scalar for ``math``.
    """
    # isinstance is cheap when it holds and slow when it fails, so a float
    # (numpy.float64 included) is told apart first, by one passing test
    if not isinstance(s, float):
        if isinstance(s, complex):
            return t_sinh_t(t) + branch.sin_term_sign * s * cmath.sin(s)
        if isinstance(s, np.ndarray):
            return _t_sinh_t_array(t) + branch.sin_term_sign * s * np.sin(s)
    return t_sinh_t(t) + branch.sin_term_sign * s * math.sin(s)


def constraint_factor(
    s: float | complex | np.ndarray, Z: float, branch: SecularBranch
) -> float | complex | np.ndarray:
    """Factor F(s; Z) = t*sinh t +/- s*sin s on the constraint curve t = Z/(2s),
    holomorphic in s.  A ``numpy.complex128`` s is taken as the equal builtin
    complex, so both give the same bits.  An ndarray of real s gives the
    factor at every entry in one numpy pass, as a root scan needs it."""
    if not isinstance(s, float) and isinstance(s, complex):  # float first, see factor_value
        s = complex(s)  # numpy's complex division rounds differently from Python's
    return factor_value(Z / (2.0 * s), s, branch)


def _factor_state(
    s: float | complex, Z: float, branch: SecularBranch
) -> tuple[float | complex, ...]:
    """(F, F_s, F_ss, F_Z, F_sZ) of ``constraint_factor`` at one point, with
    sin s, cos s, sinh t and cosh t each computed once.

    F takes the float operations of ``constraint_factor`` and the partials
    those of the formulas in ``constraint_factor_derivatives``, in the same
    order, so each equals its separate evaluation to the bit.  A real s is
    evaluated with ``math``, a complex s with ``cmath`` (a
    ``numpy.complex128`` as the equal builtin complex).  Past the clamp of
    ``t_sinh_t`` (|t| > 350 for a real s, |Re t| > 700 for a complex s) F is
    +inf plus the s*sin s term, as ``constraint_factor`` gives it, and the
    partials are (-inf, +inf, +inf, -inf).  This is the one home of the
    derivative formulas; the continuation and the fold polish carry the
    state from point to point instead of evaluating a point twice.
    """
    sign = branch.sin_term_sign
    if not isinstance(s, float) and isinstance(s, complex):  # float first, see factor_value
        s = complex(s)  # numpy's complex division rounds differently from Python's
        two_s = 2.0 * s
        t = Z / two_s
        if abs(t.real) > _COMPLEX_SINH_CLAMP:
            return math.inf + sign * s * cmath.sin(s), -math.inf, math.inf, math.inf, -math.inf
        sh, ch, sin_s, cos_s = cmath.sinh(t), cmath.cosh(t), cmath.sin(s), cmath.cos(s)
    else:
        two_s = 2.0 * s
        t = Z / two_s
        if abs(t) > _SINH_CLAMP:
            return math.inf + sign * s * math.sin(s), -math.inf, math.inf, math.inf, -math.inf
        sh, ch, sin_s, cos_s = math.sinh(t), math.cosh(t), math.sin(s), math.cos(s)
    # a product that the formulas below share is formed once: the same
    # operation on the same operands, so the same bits
    t_sh = t * sh
    g1 = sh + t * ch
    g2 = 2.0 * ch + t_sh
    t_g2 = t * g2
    F = t_sh + sign * s * sin_s
    F_s = -(t / s) * g1 + sign * (sin_s + s * cos_s)
    F_ss = (t / (s * s)) * (2.0 * g1 + t_g2) + sign * (2.0 * cos_s - s * sin_s)
    F_Z = g1 / two_s
    F_sZ = -(g1 + t_g2) / (two_s * s)
    return F, F_s, F_ss, F_Z, F_sZ


def constraint_factor_derivatives(
    s: float | complex, Z: float, branch: SecularBranch
) -> tuple[float | complex, ...]:
    """Closed-form partials (F_s, F_ss, F_Z, F_sZ) of ``constraint_factor``.

    With g(t) = t*sinh t, dt/ds = -t/s and dt/dZ = 1/(2s):

        F_s  = -(t/s)*g'(t) + sign*(sin s + s*cos s)
        F_ss = (t/s**2)*(2*g'(t) + t*g''(t)) + sign*(2*cos s - s*sin s)
        F_Z  = g'(t) / (2s)
        F_sZ = -(g'(t) + t*g''(t)) / (2*s**2)

    where g' = sinh t + t*cosh t and g'' = 2*cosh t + t*sinh t.  Clamped like
    ``t_sinh_t`` (|t| > 350 for a real s, |Re t| > 700 for a complex s), where
    the signed infinities (-inf, +inf, +inf, -inf) are returned.  A complex s
    is evaluated with ``cmath``, a ``numpy.complex128`` as the equal builtin
    complex, like in ``constraint_factor``.  The formulas are written once,
    in ``_factor_state``.
    """
    return _factor_state(s, Z, branch)[1:]


def _root_accepted(residual: float, s: float | complex, Z: float, branch: SecularBranch) -> bool:
    """The one acceptance test for a root s of the constraint factor, a real
    root of the spectrum or a complex root of a broken pair.

    A backward-error test: the factor residual |F(s)| must be at most 1e-12,
    or at most 16 units of |s*F_s(s)|*eps, the residual that rounding s to a
    double makes at a simple root.  The second bound grows like |s|**2*eps on
    the s*sin s term, so the test holds at every s; F_s is evaluated only when
    the floor is exceeded.
    """
    if residual <= _ROOT_RESIDUAL_FLOOR:
        return True
    if not math.isfinite(residual):
        return False
    F_s = _factor_state(s, Z, branch)[1]
    return residual <= _ROOT_ROUNDING_UNITS * sys.float_info.epsilon * abs(s * F_s)


def secular_factor(params: ExactParams, branch: SecularBranch) -> float:
    """Factored secular form at the given parameters; the canonical root form.
    ``factor_value`` takes ndarrays of points instead."""
    return factor_value(params.t, params.s, branch)


def energy_of(params: ExactParams) -> float:
    """Real energy E = s**2 - t**2 induced by the split wavenumber."""
    return params.s**2 - params.t**2


def representation_identity_residual(t: float, Z: float) -> float:
    """Relative defect of the factorization identity at (t, s = Z/(2t)),

        | secular_t(t, Z) - 16*F_plus*F_minus | / max(1, |secular_t(t, Z)|).

    The algebra behind it: exp(-2t)*(exp(2t)-1)**2 = 4*sinh(t)**2 and
    Z/t = 2s turn the t-representation into 16*(t sinh t + s sin s)
    *(t sinh t - s sin s).  Stays below 1e-9 for t in [1e-3, 20],
    Z in [0, 100].
    """
    if t <= 0.0:
        raise ValueError(f"identity residual requires t > 0, got {t!r}")
    lhs = secular_t(t, Z)
    s = Z / (2.0 * t)
    fp = factor_value(t, s, SecularBranch.FACTOR_PLUS)
    fm = factor_value(t, s, SecularBranch.FACTOR_MINUS)
    rhs = 16.0 * fp * fm
    if math.isinf(lhs) and math.isinf(rhs):
        return 0.0
    return abs(lhs - rhs) / max(1.0, abs(lhs))
