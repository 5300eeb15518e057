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
scan variable and the coupling.  ``constraint_factor`` evaluates it and
``constraint_factor_derivatives`` gives its closed-form partial derivatives;
every root scan, fold polish, unfolding seed and broken-pair solve goes
through these two, the last at complex s.  The one exception is the Brent
refinement of a scan bracket (``spectrum._brent``), which writes the float
operations of the scalar ``factor_value`` inline for speed; tests pin its
roots and residuals to the bit against this module's factor.

The factored form is the numerically canonical one: it is entire in both
variables, free of removable singularities, and is what all root finding in
this package uses.  The two unfactored forms are kept for cross-validation
and for figure emission; they refuse the t = 0 / s = 0 edges where their
extra terms oscillate or blow up.

All functions are pure and operate in double precision.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass

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

# Hyperbolics above this argument would overflow the intermediate exp(2t)
# expressions; beyond it only sign and scale matter and +inf is returned.
_SINH_CLAMP = 350.0

# The two constants of the real-root rule ``_real_root_accepted``.
_ROOT_RESIDUAL_FLOOR = 1e-12
_ROOT_ROUNDING_UNITS = 16.0


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

    ``t`` and ``s`` are non-negative; when the parameters are bound to a
    coupling Z they satisfy 2*s*t = Z to construction accuracy.
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
    """One real eigenvalue: coupling, branch, level label, parameters, energy."""

    Z: float
    branch: SecularBranch
    n: int
    params: ExactParams
    E: float
    residual: float

    def __post_init__(self) -> None:
        if self.residual < 0.0 or not math.isfinite(self.residual):
            raise ValueError("residual must be finite and non-negative")
        if not _real_root_accepted(self.residual, self.params.s, self.Z, self.branch):
            raise ValueError(
                f"factor residual {self.residual:.3e} exceeds the rounding bound at s={self.params.s}"
            )
        constraint_bound = max(1e-12, 4.0 * sys.float_info.epsilon * self.Z)
        if self.params.constraint_residual(self.Z) > constraint_bound:
            raise ValueError("parameters violate 2*s*t = Z beyond rounding")
        if self.E != self.params.s**2 - self.params.t**2:
            raise ValueError("energy must equal s**2 - t**2 exactly as computed")


def t_sinh_t(t: float | complex) -> float | complex:
    """t*sinh(t), clamped to +inf where exp would overflow.  Even in t; a
    complex t (``numpy.complex128`` included) is evaluated with ``cmath`` and
    clamped on |t|."""
    if abs(t) > _SINH_CLAMP:
        return math.inf
    if not isinstance(t, float) and isinstance(t, complex):  # float first, see factor_value
        return t * cmath.sinh(t)
    return t * math.sinh(t)


def _t_sinh_t_array(t: np.ndarray) -> np.ndarray:
    """``t_sinh_t`` elementwise on an ndarray of real t.  The clamped entries
    never reach ``sinh``, so no overflow warning is raised."""
    big = np.abs(t) > _SINH_CLAMP
    t = np.where(big, 0.0, t)
    return np.where(big, math.inf, t * np.sinh(t))


def secular_t(t: float, Z: float) -> float:
    """t-representation of the secular determinant,

        4*exp(-2t)*(exp(2t) - 1)**2 * t**2 + (2*Z**2/t**2)*(cos(Z/t) - 1).

    Requires t > 0 with t*t nonzero in double precision: at the edge the
    second term has an essential oscillation for Z > 0.  For large t the
    first term dominates and the value grows exponentially.
    """
    validate_coupling(Z)
    if t <= 0.0:
        raise ValueError(f"secular_t requires t > 0, got {t!r}")
    if t * t == 0.0:
        raise ValueError(f"secular_t requires t*t > 0, but it underflows at t={t!r}")
    if t > _SINH_CLAMP:
        return math.inf
    em = math.expm1(2.0 * t)
    first = 4.0 * math.exp(-2.0 * t) * em * em * t * t
    second = (2.0 * Z * Z / (t * t)) * (math.cos(Z / t) - 1.0)
    return first + second


def secular_s(s: float, Z: float) -> float:
    """s-representation of the secular determinant,

        8*s**2*(cos(2s) - 1) + exp(-Z/s)*(exp(Z/s) - 1)**2 * Z**2/s**2.

    Requires s > 0.  At Z = 0 it reduces to 8*s**2*(cos 2s - 1), whose zeros
    are the circle spectrum s = n*pi.
    """
    validate_coupling(Z)
    if s <= 0.0:
        raise ValueError(f"secular_s requires s > 0, got {s!r}")
    u = Z / s
    if u > 2.0 * _SINH_CLAMP:
        return math.inf
    em = math.expm1(u)
    first = 8.0 * s * s * (math.cos(2.0 * s) - 1.0)
    second = math.exp(-u) * em * em * Z * Z / (s * s)
    return first + second


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
    ``t_sinh_t``: above |t| = 350 the hyperbolic part dominates and the signed
    infinities (-inf, +inf, +inf, -inf) are returned.  A complex s is
    evaluated with ``cmath``, a ``numpy.complex128`` as the equal builtin
    complex, like in ``constraint_factor``.
    """
    if not isinstance(s, float) and isinstance(s, complex):  # float first, see factor_value
        s, m = complex(s), cmath
    else:
        m = math
    t = Z / (2.0 * s)
    if abs(t) > _SINH_CLAMP:
        return -math.inf, math.inf, math.inf, -math.inf
    sh, ch, sin_s, cos_s = m.sinh(t), m.cosh(t), m.sin(s), m.cos(s)
    sign = branch.sin_term_sign
    g1 = sh + t * ch
    g2 = 2.0 * ch + t * sh
    F_s = -(t / s) * g1 + sign * (sin_s + s * cos_s)
    F_ss = (t / (s * s)) * (2.0 * g1 + t * g2) + sign * (2.0 * cos_s - s * sin_s)
    F_Z = g1 / (2.0 * s)
    F_sZ = -(g1 + t * g2) / (2.0 * s * s)
    return F_s, F_ss, F_Z, F_sZ


def _real_root_accepted(residual: float, s: float, Z: float, branch: SecularBranch) -> bool:
    """The one acceptance test for a real root s of the constraint factor.

    A backward-error test: the factor residual |F(s)| must be at most 1e-12,
    or at most 16 units of |s*F_s(s)|*eps, the residual that rounding s to a
    double makes at a simple root.  The second bound grows like s**2*eps on
    the s*sin s term, so the test holds at every s; F_s is evaluated only when
    the floor is exceeded.
    """
    if residual <= _ROOT_RESIDUAL_FLOOR:
        return True
    if not math.isfinite(residual):
        return False
    F_s = constraint_factor_derivatives(s, Z, branch)[0]
    return residual <= _ROOT_ROUNDING_UNITS * sys.float_info.epsilon * abs(s * F_s)


def secular_factor(params: ExactParams, branch: SecularBranch) -> float:
    """Factored secular form at the given parameters; the canonical root form."""
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
