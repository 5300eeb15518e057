"""Secular (quantization) functions for a particle on a circle of half-width 1
in the purely imaginary step potential i*Z*sign(x).

The eigenvalue condition is a transcendental equation in the wavenumber
k = t + i*s, where the real eigenvalue, the coupling and the split parts are
tied together by

    E = s**2 - t**2,        2*s*t = Z.

Three equivalent closed forms of the condition are provided:

* ``secular_t``      -- t-representation, with an oscillatory cos(Z/t) term;
* ``secular_s``      -- s-representation, with an exponential exp(Z/s) term;
* ``factor_value``   -- the factored form  (t*sinh t + s*sin s)(t*sinh t - s*sin s),
  one factor per branch, at raw (t, s).

On the constraint curve t = Z/(2s) one factor is a function F(s; Z) of the
scan variable and the coupling.  ``constraint_factor`` evaluates it alone,
``_factor_pair`` with its first derivative F_s, and ``_factor_state`` with
all four closed-form partial derivatives, the one place the formulas of the
other three are written; the last two share their sines and cosines
(``_factor_terms``) and give F and F_s with the same bits.  Every root
scan, fold polish, unfolding seed and broken-pair solve goes through these,
the last at complex s, with two exceptions for speed: the Brent refinement
of a scan bracket (``spectrum._brent``) writes the float operations of the
scalar ``factor_value`` inline, and a scan's grid pass
(``spectrum._grid_factors``) forms both factors, as the two rows of one
array, from one t*sinh t array and the s*sin s of the process's grid
record, clamping t*sinh t on the prefix of the grid where t > 350.  Tests pin both to the bit against this
module's factor.

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
    "SpectralPoint",
    "validate_coupling",
    "secular_t",
    "secular_s",
    "factor_value",
    "constraint_factor",
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
# ``SpectralPoint._at_root`` and the broken pairs of ``transition``, which
# then fill the instance dict key by key.
_new = object.__new__
_PI = math.pi


def validate_coupling(Z: float) -> float:
    """Check that a coupling is finite and non-negative, and return it."""
    if not math.isfinite(Z):
        raise ValueError(f"coupling must be finite, got {Z!r}")
    if Z < 0.0:
        raise ValueError(f"coupling must be non-negative, got {Z!r}")
    return float(Z)


def _reject_arrays(record) -> None:
    """TypeError for an ndarray in a field of the record: a 0-d array passes
    every value check of a float field but leaves the record unhashable."""
    for name, value in vars(record).items():
        if isinstance(value, np.ndarray):
            raise TypeError(f"{name} must be a scalar, got an ndarray")


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
class SpectralPoint:
    """One real eigenvalue: coupling, branch, level label, the split
    wavenumber k = t + i*s, energy and factor residual.

    The public constructor checks every invariant: a ``SecularBranch``, no
    ndarray in any field (``TypeError`` for either), a valid coupling Z
    (``validate_coupling``), finite non-negative floats s and t, the label
    n == round(s/pi), a finite non-negative residual accepted by the root
    rule ``_root_accepted``, 2*s*t = Z to rounding and E == s**2 - t**2 as
    computed.  ``spectrum.refine_root`` builds its points through
    ``_at_root`` instead, which holds them by construction.
    """

    Z: float
    branch: SecularBranch
    n: int
    s: float
    t: float
    E: float
    residual: float

    def __post_init__(self) -> None:
        if not isinstance(self.branch, SecularBranch):
            raise TypeError(f"branch must be a SecularBranch, got {self.branch!r}")
        _reject_arrays(self)
        validate_coupling(self.Z)
        if not (math.isfinite(self.s) and math.isfinite(self.t)):
            raise ValueError(f"s and t must be finite, got s={self.s}, t={self.t}")
        if self.s < 0.0 or self.t < 0.0:
            raise ValueError(f"s and t must be non-negative, got s={self.s}, t={self.t}")
        if self.n != round(self.s / math.pi):
            raise ValueError(f"label n={self.n} is not round(s/pi) at s={self.s}")
        if self.residual < 0.0 or not math.isfinite(self.residual):
            raise ValueError("residual must be finite and non-negative")
        if not _root_accepted(self.residual, self.s, self.Z, self.branch):
            raise ValueError(
                f"factor residual {self.residual:.3e} exceeds the rounding bound at s={self.s}"
            )
        constraint_bound = max(1e-12, 4.0 * sys.float_info.epsilon * self.Z)
        if abs(2.0 * self.s * self.t - self.Z) > constraint_bound:
            raise ValueError("s and t violate 2*s*t = Z beyond rounding")
        if self.E != self.s**2 - self.t**2:
            raise ValueError("energy must equal s**2 - t**2 exactly as computed")

    @classmethod
    def _at_root(
        cls, Z: float, branch: SecularBranch, s: float, residual: float
    ) -> "SpectralPoint":
        """The point at a root s of ``branch`` that the caller has accepted,
        built without the checks of the public constructor.

        It derives n = round(s/pi), t = Z/(2s) and E = s**2 - t**2 itself,
        with the float operations the public path uses, so the fields, ``==``
        and ``hash`` equal those of ``SpectralPoint(...)`` built from the
        same (Z, branch, s, residual).  The caller guarantees the rest:
        Z, s and residual are floats and branch a member (no type checks),
        Z passed ``validate_coupling``, s is finite and positive (it lies in
        a bracket 0 < s_lo < s_hi < inf), and ``_root_accepted(residual, s,
        Z, branch)`` holds.  That rule rejects a non-finite residual, and F
        is +inf wherever |t| > 350, so t is finite and non-negative too.
        Then 2*s*t = Z to rounding (2s is exact, t one rounding of Z/(2s)),
        and every check of ``__post_init__`` would pass.  The instances are
        frozen like any other.
        """
        # key by key into the instance dict, in field order as the dataclass
        # __init__ sets them: about half the time of one object.__setattr__
        # call per field.  The dict keeps the class's shared keys, but its
        # values are stored apart from the object, about 64 B more a point
        t = Z / (2.0 * s)
        point = _new(cls)
        fields = point.__dict__
        fields["Z"] = Z
        fields["branch"] = branch
        fields["n"] = round(s / _PI)
        fields["s"] = s
        fields["t"] = t
        fields["E"] = s**2 - t**2
        fields["residual"] = residual
        return point


def t_sinh_t(t: float | complex) -> float | complex:
    """t*sinh(t), clamped to +inf where exp would overflow.  Even in t; a real
    t is clamped on |t| > 350, a complex t (``numpy.complex128`` included) is
    evaluated with ``cmath`` and clamped on |Re t| > 700."""
    if not isinstance(t, float) and isinstance(t, complex):  # float first, see factor_value
        return math.inf if abs(t.real) > _COMPLEX_SINH_CLAMP else t * cmath.sinh(t)
    return math.inf if abs(t) > _SINH_CLAMP else t * math.sinh(t)


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
            # t_sinh_t elementwise: the clamped entries never reach sinh, so
            # no overflow warning is raised
            big = np.abs(t) > _SINH_CLAMP
            t = np.where(big, 0.0, t)
            return np.where(big, math.inf, t * np.sinh(t)) + branch.sin_term_sign * s * np.sin(s)
    return t_sinh_t(t) + branch.sin_term_sign * s * math.sin(s)


def constraint_factor(
    s: float | complex | np.ndarray, Z: float, branch: SecularBranch
) -> float | complex | np.ndarray:
    """Factor F(s; Z) = t*sinh t +/- s*sin s on the constraint curve t = Z/(2s),
    holomorphic in s.  A ``numpy.complex128`` s is taken as the equal builtin
    complex, so both give the same bits.  An ndarray of real s gives the
    factor at every entry in one numpy pass, the reference to which the
    tests pin each row of a scan's ``spectrum._grid_factors`` bit for bit."""
    if not isinstance(s, float) and isinstance(s, complex):  # float first, see factor_value
        s = complex(s)  # numpy's complex division rounds differently from Python's
    return factor_value(Z / (2.0 * s), s, branch)


def _factor_terms(s: float | complex, Z: float) -> tuple:
    """(s, t, sinh t, cosh t, sin s, cos s) at one point of the constraint
    curve t = Z/(2s), with ``math`` for a real s and ``cmath`` for a complex
    s (a ``numpy.complex128`` taken as the equal builtin complex, which is
    the s returned).  Past the clamp of ``t_sinh_t`` (|t| > 350 for a real
    s, |Re t| > 700 for a complex s) sinh t, cosh t and cos s are None."""
    if not isinstance(s, float) and isinstance(s, complex):  # float first, see factor_value
        s = complex(s)  # numpy's complex division rounds differently from Python's
        t = Z / (2.0 * s)
        if abs(t.real) > _COMPLEX_SINH_CLAMP:
            return s, t, None, None, cmath.sin(s), None
        return s, t, cmath.sinh(t), cmath.cosh(t), cmath.sin(s), cmath.cos(s)
    t = Z / (2.0 * s)
    if abs(t) > _SINH_CLAMP:
        return s, t, None, None, math.sin(s), None
    return s, t, math.sinh(t), math.cosh(t), math.sin(s), math.cos(s)


def _factor_pair(s: float | complex, Z: float, branch: SecularBranch) -> tuple:
    """(F, F_s) of ``constraint_factor`` at one point: the first two values
    of ``_factor_state``, with its float operations and so its bits, at
    about two thirds of its cost.  Newton trials, their line searches and
    the root rule read only these two."""
    sign = branch.sin_term_sign
    s, t, sh, ch, sin_s, cos_s = _factor_terms(s, Z)
    if sh is None:
        return math.inf + sign * s * sin_s, -math.inf
    return t * sh + sign * s * sin_s, -(t / s) * (sh + t * ch) + sign * (sin_s + s * cos_s)


def _factor_state(
    s: float | complex, Z: float, branch: SecularBranch
) -> tuple[float | complex, ...]:
    """(F, F_s, F_ss, F_Z, F_sZ) of ``constraint_factor`` at one point, with
    sin s, cos s, sinh t and cosh t each computed once (``_factor_terms``).

    With g(t) = t*sinh t, dt/ds = -t/s and dt/dZ = 1/(2s), the partials are

        F_s  = -(t/s)*g'(t) + sign*(sin s + s*cos s)
        F_ss = (t/s**2)*(2*g'(t) + t*g''(t)) + sign*(2*cos s - s*sin s)
        F_Z  = g'(t) / (2s)
        F_sZ = -(g'(t) + t*g''(t)) / (2*s**2)

    where g' = sinh t + t*cosh t and g'' = 2*cosh t + t*sinh t.  F takes the
    float operations of ``constraint_factor``, so it equals that call to the
    bit, and (F, F_s) are the bits of ``_factor_pair``.  A real s is
    evaluated with ``math``, a complex s with ``cmath`` (a ``numpy.complex128``
    as the equal builtin complex).  Past the clamp of
    ``t_sinh_t`` (|t| > 350 for a real s, |Re t| > 700 for a complex s) F is
    +inf plus the s*sin s term, as ``constraint_factor`` gives it, and the
    partials are (-inf, +inf, +inf, -inf).  This is the one home of the
    formulas of F_ss, F_Z and F_sZ.  It is evaluated where they are read: at
    each fold polish step, and once at each root from which the broken-pair
    tracker takes a step; its Newton trials take ``_factor_pair``.
    """
    sign = branch.sin_term_sign
    s, t, sh, ch, sin_s, cos_s = _factor_terms(s, Z)
    if sh is None:
        return math.inf + sign * s * sin_s, -math.inf, math.inf, math.inf, -math.inf
    # a product that the formulas below share is formed once: the same
    # operation on the same operands, so the same bits
    two_s = 2.0 * s
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
    F_s = _factor_pair(s, Z, branch)[1]
    return residual <= _ROOT_ROUNDING_UNITS * sys.float_info.epsilon * abs(s * F_s)
