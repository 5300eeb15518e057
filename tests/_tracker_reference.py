"""The broken-pair tracker as it was before the factor state was carried
from point to point: verbatim copies of ``constraint_factor_derivatives``
(the partials on their own, since folded into ``_factor_state``),
``_root_accepted``, ``_newton``, ``_certified``, ``_seeded_root``,
``continue_in_Z``, ``fold_unfolding_seed`` and ``solve_above_fold``, in which
every Newton trial evaluates the factor and every step its partials again.

The tests hold the package to these bit for bit: ``_factor_state`` and its
partials against ``ref_constraint_factor_derivatives``, and the tracker's
answers and error texts against ``ref_solve_above_fold`` and
``ref_continue_in_Z``.  Only ``constraint_factor`` (the F-only path, which
did not change) and the hyperbolic map are taken from the package.

``ref_interval_fold`` and ``ref_find_double_root`` are the fold polish as it
was while each Newton step came from ``np.linalg.solve``, with the seed's
Newton taking sinh t twice per iteration; the tests hold every fold of
``critical_sequence`` to them bit for bit.
"""

import cmath
import math
import sys

import numpy as np

from ptcircle.errors import ConvergenceError, NotAFoldError
from ptcircle.secular import (
    _COMPLEX_SINH_CLAMP,
    _ROOT_RESIDUAL_FLOOR,
    _ROOT_ROUNDING_UNITS,
    _SINH_CLAMP,
    SecularBranch,
    _factor_state,
    constraint_factor,
    validate_coupling,
)
from ptcircle.transition import (
    _FOLD_RESIDUAL,
    _MAX_ROOT_MOVE,
    _MIN_CURVATURE,
    CriticalPoint,
    _branch_for_interval,
    _params_from_energy,
)


def ref_constraint_factor_derivatives(s, Z, branch):
    if not isinstance(s, float) and isinstance(s, complex):  # float first, see factor_value
        s, m = complex(s), cmath
    else:
        m = math
    t = Z / (2.0 * s)
    if (abs(t.real) > _COMPLEX_SINH_CLAMP) if m is cmath else (abs(t) > _SINH_CLAMP):
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


def ref_root_accepted(residual, s, Z, branch):
    if residual <= _ROOT_RESIDUAL_FLOOR:
        return True
    if not math.isfinite(residual):
        return False
    F_s = ref_constraint_factor_derivatives(s, Z, branch)[0]
    return residual <= _ROOT_ROUNDING_UNITS * sys.float_info.epsilon * abs(s * F_s)


def ref_newton(s, Z, branch):
    F = constraint_factor(s, Z, branch)
    if not cmath.isfinite(F):
        raise ConvergenceError(f"factor overflows at s={s}, Z={Z}")
    for _ in range(100):
        step = F / ref_constraint_factor_derivatives(s, Z, branch)[0]
        if abs(step) <= 1e-15 * abs(s):
            break
        lam = 1.0
        for _ in range(40):
            trial = s - lam * step
            F_trial = constraint_factor(trial, Z, branch)
            if abs(F_trial) < abs(F):
                s, F = trial, F_trial
                break
            lam *= 0.5
        else:
            break
    return s


def ref_certified(s, Z, branch):
    residual = abs(constraint_factor(s, Z, branch))
    if not ref_root_accepted(residual, s, Z, branch):
        raise ConvergenceError(f"broken solve stalled at Z={Z} with residual {residual:.3e}")
    t = Z / (2.0 * s)
    params = _params_from_energy(s * s - t * t, Z)
    return params, params.energy()


def ref_seeded_root(Z, init):
    E0 = init.energy()
    E = complex(E0.re_E, E0.eps)
    s = cmath.sqrt(0.5 * (E + cmath.sqrt(E * E + Z * Z)))
    branch = min(SecularBranch, key=lambda b: abs(constraint_factor(s, Z, b)))
    return ref_newton(s, Z, branch), branch


def ref_continue_in_Z(Z_from, Z_to, steps, start):
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not (validate_coupling(Z_from) > 0.0 and validate_coupling(Z_to) > 0.0):
        raise ValueError("broken-regime solves require Z > 0")
    grid = np.linspace(Z_from, Z_to, steps + 1) if Z_from != Z_to else np.array([Z_from])
    path = []
    Z = float(Z_from)
    try:
        s, branch = ref_seeded_root(Z, start)
        side = math.copysign(1.0, s.imag)
        for Zg in map(float, grid):
            while Z != Zg:
                F_s, F_ss, F_Z, _ = ref_constraint_factor_derivatives(s, Z, branch)
                slope = -F_Z / F_s
                h = min(0.5 * abs(s.imag), 0.5 * abs(F_s / F_ss), _MAX_ROOT_MOVE) / abs(slope)
                Z_next = Zg if h >= abs(Zg - Z) else Z + math.copysign(h, Zg - Z)
                if Z_next == Z:
                    raise ConvergenceError("step too short to move Z")
                s = ref_newton(s + (Z_next - Z) * slope, Z_next, branch)
                if s.imag * side <= 0.0:
                    raise ConvergenceError(f"root crossed the real axis to s={s}")
                Z = Z_next
            path.append((Zg, *ref_certified(s, Zg, branch)))
    except (ConvergenceError, OverflowError, ZeroDivisionError, ValueError) as exc:
        raise ConvergenceError(f"continuation failed at Z={Z}: {exc}") from exc
    return path


def ref_fold_unfolding_seed(fold, Z):
    if Z <= fold.Z_crit:
        raise ValueError(f"unfolding seed needs Z above the fold ({fold.Z_crit})")
    _, F_ss, F_Z, _ = ref_constraint_factor_derivatives(fold.s_merge, fold.Z_crit, fold.branch)
    s = complex(fold.s_merge, math.sqrt(abs(2.0 * F_Z / F_ss) * (Z - fold.Z_crit)))
    t = Z / (2.0 * s)
    return _params_from_energy(s * s - t * t, Z)


def ref_solve_above_fold(fold, Z):
    near = fold.Z_crit + 1e-3 if Z > fold.Z_crit + 1e-3 else fold.Z_crit + 0.5 * (Z - fold.Z_crit)
    _, params, energy = ref_continue_in_Z(near, Z, 1, ref_fold_unfolding_seed(fold, near))[-1]
    return params, energy


def ref_find_double_root(Z_guess, s_guess, branch):
    s, Z = float(s_guess), float(Z_guess)
    for _ in range(100):
        F, F_s, F_ss, F_Z, F_sZ = _factor_state(s, Z, branch)
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
                if math.hypot(*_factor_state(s_try, Z_try, branch)[:2]) < norm0:
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


def ref_interval_fold(nu):
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
    return ref_find_double_root(float(Z[i]), float(s[i]), branch)
