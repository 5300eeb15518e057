"""First-principles verification of the closed-form secular equations.

Instead of trusting the factored quantization condition, this module builds
the 4x4 matching matrix of the boundary-value problem directly from the
piecewise ansatz and the periodic boundary conditions

    psi1(1) = psi2(-1),  psi1'(1) = psi2'(-1),
    psi1(0) = psi2(0),   psi1'(0) = psi2'(0),

and works with its determinant, null space and pointwise residuals.  An
energy E is accepted exactly when the matrix is rank deficient; the zero set
of the determinant is the arbiter for every closed form in the package (the
two differ by a nonvanishing analytic prefactor that is never relied upon).

Wavenumbers: on (0, 1) the potential is +iZ so the basis solves
psi'' = kR**2 psi with kR = sqrt(-E + iZ) (principal branch); on (-1, 0) the
potential is -iZ and kL = sqrt(-E - iZ).  For real E this makes kL the
conjugate of kR.  Real E uses the exponential basis

    psi1 = A1 e^{kR x} + A2 e^{-kR x},   psi2 = B1 e^{kL (x+1)} + B2 e^{-kL (x+1)},

complex E the hyperbolic one

    psi1 = A1 sinh kR(1-x) + A2 cosh kR(1-x),
    psi2 = B1 sinh kL(1+x) + B2 cosh kL(1+x).

The two bases span the same solution space, so the determinant zero sets
agree where both apply.

``boundary_matrices`` builds W for a whole array of real energies at once,
as the determinant sweep of ``verify`` needs it.  It takes each square root
and exponential from ``cmath`` entry by entry and forms the rest in numpy
with the float operations of Python's complex arithmetic, so each matrix has
the bits of ``boundary_matrix``.

The determinant is numpy's LU determinant of W as built.  Rank and null
vector come from the singular value decomposition of W with each row divided
by its largest modulus.  The rows mix entries of size e^{+-Re k} with O(1)
ones; unscaled, the singular-value ratio is set by the large rows, and
energies off an eigenvalue pass the rank test.  The null vector is the right
singular vector of the smallest singular value, which stays accurate when two
singular values are small at once (near-degenerate doublets).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotAnEigenvalueError
from .secular import _each, validate_coupling

__all__ = [
    "Regime",
    "WaveSolution",
    "ResidualReport",
    "boundary_matrix",
    "boundary_matrices",
    "boundary_determinant",
    "determinant_scale",
    "nullspace_solution",
    "residual_check",
    "pt_symmetry_check",
    "evaluate_wavefunction",
]

_RANK_TOL = 1e-8
# The two basis functions of a side differ by O(|k|): e^{kx} and e^{-kx} tend
# to 1, sinh k(1-x) to 0.  Their near-dependence gives a singular value of
# about |k|/2 of the largest one, which passes the rank test as a spurious
# null direction from |k| of about 2e-8 down; k = 0 (E = Z = 0) makes two
# columns equal.  Below this bound the basis cannot resolve the null space.
_DEGENERATE_K = 4.0 * _RANK_TOL


class Regime(enum.Enum):
    EXACT = "exact"
    BROKEN = "broken"


@dataclass(frozen=True)
class WaveSolution:
    """Amplitudes of the piecewise ansatz, normalized to max modulus 1."""

    A1: complex
    A2: complex
    B1: complex
    B2: complex
    k_right: complex
    k_left: complex
    regime: Regime
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if max(abs(self.A1), abs(self.A2), abs(self.B1), abs(self.B2)) == 0.0:
            raise ValueError("amplitudes must not all vanish")


@dataclass(frozen=True)
class ResidualReport:
    ode_residual: float            # 5-point finite differences, per smooth piece
    ode_residual_analytic: float   # using the exact second derivative of the ansatz
    bc_residuals: tuple[float, float, float, float]
    det_modulus: float


def _wavenumbers(E: complex, Z: float) -> tuple[complex, complex]:
    kR = cmath.sqrt(-E + 1j * Z)
    kL = cmath.sqrt(-E - 1j * Z)
    return kR, kL


def _regime_of(E: complex) -> Regime:
    return Regime.EXACT if complex(E).imag == 0.0 else Regime.BROKEN


def boundary_matrix(E: complex, Z: float) -> list[list[complex]]:
    """Matching matrix W; columns (A1, A2, B1, B2), rows the four conditions.

    Real E: exponential basis.  Complex E: hyperbolic basis.  W is singular
    exactly at eigenvalues.
    """
    validate_coupling(Z)
    E = complex(E)
    kR, kL = _wavenumbers(E, Z)
    if _regime_of(E) is Regime.EXACT:
        ekR, emkR = cmath.exp(kR), cmath.exp(-kR)
        ekL, emkL = cmath.exp(kL), cmath.exp(-kL)
        return [
            [ekR, emkR, -1.0, -1.0],
            [kR * ekR, -kR * emkR, -kL, kL],
            [1.0, 1.0, -ekL, -emkL],
            [kR, -kR, -kL * ekL, kL * emkL],
        ]
    sh_r, ch_r = cmath.sinh(kR), cmath.cosh(kR)
    sh_l, ch_l = cmath.sinh(kL), cmath.cosh(kL)
    return [
        [0.0, 1.0, 0.0, -1.0],
        [-kR, 0.0, -kL, 0.0],
        [sh_r, ch_r, -sh_l, -ch_l],
        [-kR * ch_r, -kR * sh_r, -kL * ch_l, -kL * sh_l],
    ]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a*b over complex ndarrays with the float operations of Python's complex
    product, each rounded on its own (numpy's complex multiply may fuse them)."""
    out = np.empty(a.shape, complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def boundary_matrices(E: np.ndarray, Z: float) -> np.ndarray:
    """The matching matrices W of a 1-D ndarray of real energies, stacked:
    shape (len(E), 4, 4), entry i the bits of
    ``np.array(boundary_matrix(E[i], Z), dtype=complex)``.

    The wavenumbers and exponentials are taken from ``cmath`` entry by entry;
    negations, sums and the products of the exponential basis are formed in
    numpy with the float operations of Python's complex arithmetic.
    """
    validate_coupling(Z)
    jz = 1j * Z  # as boundary_matrix forms it, for the signs of its zeros
    # -E for complex(E) is (-E, -0.0)
    arg_r = np.empty(E.shape, complex)
    arg_r.real, arg_r.imag = -E + jz.real, -0.0 + jz.imag
    arg_l = np.empty(E.shape, complex)
    arg_l.real, arg_l.imag = -E - jz.real, -0.0 - jz.imag
    sqrt, exp = _each(cmath.sqrt, complex), _each(cmath.exp, complex)
    kR, kL = sqrt(arg_r), sqrt(arg_l)
    ekR, emkR = exp(kR), exp(-kR)
    ekL, emkL = exp(kL), exp(-kL)
    rows = (
        (ekR, emkR, -1.0, -1.0),
        (_product(kR, ekR), _product(-kR, emkR), -kL, kL),
        (1.0, 1.0, -ekL, -emkL),
        (kR, -kR, _product(-kL, ekL), _product(kL, emkL)),
    )
    W = np.empty(E.shape + (4, 4), complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            W[:, i, j] = entry
    return W


def determinant_scale(W: list[list[complex]]) -> float:
    """Hadamard-type magnitude of the matrix: product of row max-norms."""
    scale = 1.0
    for row in W:
        scale *= max(abs(x) for x in row)
    return scale


def boundary_determinant(E: complex, Z: float) -> complex:
    """Determinant of the matching matrix (numpy's LU determinant)."""
    return complex(np.linalg.det(np.array(boundary_matrix(E, Z), dtype=complex)))


def nullspace_solution(E: complex, Z: float, require_singular: bool = True) -> WaveSolution:
    """Amplitudes of the (near-)null vector at an eigenvalue.

    Rank is decided by the singular-value ratio of the row-scaled matrix,
    sigma_i/sigma_1 <= 1e-8; the energy is rejected with NotAnEigenvalueError
    when no singular value passes it.  For a multiplicity-2 null space (the
    uncoupled circle doublets) one basis vector is returned and the
    multiplicity reported on the solution.  Where a wavenumber is 0 or
    nearly so (|E -+ iZ| at most 1.6e-15) the basis cannot tell its two
    functions of a side apart and a ValueError is raised rather
    than a spurious multiplicity returned.

    ``require_singular=False`` skips the rejection and returns the direction
    belonging to the smallest singular value; useful for probing how the
    residuals of a deliberately wrong energy blow up.
    """
    E = complex(E)
    kR, kL = _wavenumbers(E, Z)
    k_min = min(abs(kR), abs(kL))
    if k_min <= _DEGENERATE_K:
        raise ValueError(
            f"the oracle's basis is degenerate at E={E}, Z={Z}: wavenumber |k| = {k_min:.2e} "
            f"<= {_DEGENERATE_K:.0e} makes the two basis functions of a side numerically dependent"
        )
    W = np.array(boundary_matrix(E, Z), dtype=complex)
    row_max = np.abs(W).max(axis=1, keepdims=True)
    _, sigma, Vh = np.linalg.svd(W / np.where(row_max > 0.0, row_max, 1.0))
    ratios = sigma / sigma[0]
    multiplicity = int(np.count_nonzero(ratios <= _RANK_TOL))
    if multiplicity == 0:
        if require_singular:
            raise NotAnEigenvalueError(
                f"matrix is numerically non-singular at E={E}, Z={Z} "
                f"(singular-value ratio {ratios[-1]:.2e})"
            )
        multiplicity = 1
    v = Vh[-1].conj()
    A1, A2, B1, B2 = (v / v[np.argmax(np.abs(v))]).tolist()
    return WaveSolution(A1, A2, B1, B2, kR, kL, _regime_of(E), multiplicity)


def evaluate_wavefunction(sol: WaveSolution, x: np.ndarray) -> np.ndarray:
    """psi on a grid over [-1, 1], piecewise per the solution's regime."""
    x = np.asarray(x, dtype=float)
    psi = np.empty(x.shape, dtype=complex)
    right = x >= 0.0
    psi[right] = _piece_values(sol, "right", x[right])[0]
    psi[~right] = _piece_values(sol, "left", x[~right])[0]
    return psi


def _piece_values(sol: WaveSolution, side: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, psi', psi'') of one smooth piece from the closed forms."""
    if side == "right":
        k = sol.k_right
        if sol.regime is Regime.EXACT:
            up = sol.A1 * np.exp(k * x)
            dn = sol.A2 * np.exp(-k * x)
            return up + dn, k * up - k * dn, k * k * (up + dn)
        arg = 1.0 - x
        sh, ch = np.sinh(k * arg), np.cosh(k * arg)
        psi = sol.A1 * sh + sol.A2 * ch
        dpsi = -k * (sol.A1 * ch + sol.A2 * sh)
        return psi, dpsi, k * k * psi
    k = sol.k_left
    if sol.regime is Regime.EXACT:
        up = sol.B1 * np.exp(k * (x + 1.0))
        dn = sol.B2 * np.exp(-k * (x + 1.0))
        return up + dn, k * up - k * dn, k * k * (up + dn)
    arg = 1.0 + x
    sh, ch = np.sinh(k * arg), np.cosh(k * arg)
    psi = sol.B1 * sh + sol.B2 * ch
    dpsi = k * (sol.B1 * ch + sol.B2 * sh)
    return psi, dpsi, k * k * psi


def residual_check(sol: WaveSolution, E: complex, Z: float, grid_n: int = 256) -> ResidualReport:
    """Pointwise residuals of the eigenpair.

    The analytic channel uses the exact second derivative of the ansatz, so it
    is zero up to rounding whenever the wavenumbers encode the eigenvalue; the
    finite-difference channel (5-point stencil per smooth piece) is a separate
    sanity check whose truncation error scales as grid_n**-4.  Boundary
    residuals are the four matching conditions from the closed forms,
    normalized by max |psi|.
    """
    if grid_n < 64:
        raise ValueError(f"grid_n must be at least 64, got {grid_n}")
    E = complex(E)
    validate_coupling(Z)

    ode_fd = 0.0
    ode_an = 0.0
    peak = 0.0
    for side, (lo, hi), pot in (("right", (0.0, 1.0), 1j * Z), ("left", (-1.0, 0.0), -1j * Z)):
        x = np.linspace(lo, hi, grid_n)
        h = x[1] - x[0]
        psi, _, d2_exact = _piece_values(sol, side, x)
        peak = max(peak, float(np.max(np.abs(psi))))
        res_an = np.abs(-d2_exact + pot * psi - E * psi)
        ode_an = max(ode_an, float(np.max(res_an)))
        d2_fd = (
            -psi[:-4] + 16.0 * psi[1:-3] - 30.0 * psi[2:-2] + 16.0 * psi[3:-1] - psi[4:]
        ) / (12.0 * h * h)
        inner = psi[2:-2]
        res_fd = np.abs(-d2_fd + pot * inner - E * inner)
        ode_fd = max(ode_fd, float(np.max(res_fd)))

    x1 = np.array([1.0])
    x0 = np.array([0.0])
    xm1 = np.array([-1.0])
    p1_1, d1_1, _ = _piece_values(sol, "right", x1)
    p1_0, d1_0, _ = _piece_values(sol, "right", x0)
    p2_m1, d2_m1, _ = _piece_values(sol, "left", xm1)
    p2_0, d2_0, _ = _piece_values(sol, "left", x0)
    bc = (
        float(abs(p1_1[0] - p2_m1[0])) / peak,
        float(abs(d1_1[0] - d2_m1[0])) / peak,
        float(abs(p1_0[0] - p2_0[0])) / peak,
        float(abs(d1_0[0] - d2_0[0])) / peak,
    )
    det = boundary_determinant(E, Z)
    return ResidualReport(
        ode_residual=ode_fd / peak,
        ode_residual_analytic=ode_an / peak,
        bc_residuals=bc,
        det_modulus=abs(det),
    )


def _fminbound(func: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """(x, func(x)) at a local minimum of func on [lo, hi]: Brent's bounded
    minimizer, golden-section steps safeguarding parabolic ones (Brent 1973,
    ch. 5), with absolute tolerance 1e-5 in x and at most 500 evaluations.

    A port of scipy's ``_minimize_scalar_bounded`` with the same float and
    numpy operations in the same order, so it returns the x and value of
    ``scipy.optimize.minimize_scalar(func, bounds=(lo, hi),
    method="bounded")`` to the bit, after the same evaluations.  A bound that
    is not finite raises ValueError, as in scipy.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):  # a NaN wave function's phase
        raise ValueError(f"bounds must be finite, got ({lo}, {hi})")
    xatol, maxfun = 1e-5, 500
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def pt_symmetry_check(sol: WaveSolution, Z: float, grid_n: int = 256) -> float:
    """Best-phase mismatch between psi(-x)* and psi(x),

        min over |lambda| = 1 of  max_x |psi(-x)* - lambda psi(x)| / max |psi|.

    Tiny for unbroken eigenfunctions; order one in the broken regime where
    conjugation-parity maps a pair member to its partner.  The phase is the
    best of 64 around the least-squares one, polished over +-pi/32 by
    ``_fminbound``, which gives the bits of scipy's bounded
    ``minimize_scalar``.
    """
    x = np.linspace(-1.0, 1.0, grid_n)
    psi = evaluate_wavefunction(sol, x)
    psi_pt = np.conj(psi[::-1])
    peak = float(np.max(np.abs(psi)))

    def mismatch(theta: float) -> float:
        lam = cmath.exp(1j * theta)
        return float(np.max(np.abs(psi_pt - lam * psi))) / peak

    # least-squares phase is a near-optimal start; polish by Brent's bounded
    # minimizer
    overlap = complex(np.vdot(psi, psi_pt))
    theta0 = cmath.phase(overlap) if overlap != 0.0 else 0.0
    thetas = [theta0 + 2.0 * math.pi * j / 64.0 for j in range(64)]
    theta_best = min(thetas, key=mismatch)
    window = (theta_best - math.pi / 32.0, theta_best + math.pi / 32.0)
    _, polished = _fminbound(mismatch, *window)
    return min(float(polished), mismatch(theta_best))
