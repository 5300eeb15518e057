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
as the determinant sweep of ``verify`` needs it, at one coupling or at an
array of couplings that broadcasts against the energies, as the batched
refinement of the determinant roots needs it.  It takes each square root
and exponential from ``cmath`` entry by entry and forms the rest in numpy
with the float operations of Python's complex arithmetic, so each matrix has
the bits of ``boundary_matrix``.

``nullspace_solutions`` and ``residual_checks`` certify many energies in one
stacked pass: the matrices of ``boundary_matrix`` as one stack, decomposed
by one batched SVD for the null vectors and one batched LU for the
determinants, and each piece's residual grids as (solutions x grid_n)
arrays, in blocks of about ``_BLOCK_CELLS`` cells.  ``nullspace_solution``
and ``residual_check`` are their one-entry calls, and every product with a
solution's amplitude or wavenumber is formed as with that Python number
alone, so an entry has the same bits alone or in a stack.

The determinant is numpy's LU determinant of W as built.  Rank and null
vector come from the singular value decomposition of W with each row divided
by its largest modulus.  The rows mix entries of size e^{+-Re k} with O(1)
ones; unscaled, the singular-value ratio is set by the large rows, and
energies off an eigenvalue pass the rank test.  The null vector is the right
singular vector of the smallest singular value, which stays accurate when two
singular values are small at once (near-degenerate doublets).

``pt_symmetry_check`` compares psi(-x)* with psi(x) at the least-squares
phase only: for a PT-symmetric state that phase is exact, and no phase
brings a broken state below its modulus asymmetry, so no search is needed.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from typing import Sequence

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
    "nullspace_solutions",
    "residual_check",
    "residual_checks",
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
# The stacked residual grids run in blocks of about this many cells: 64 KiB
# per complex temporary, below the allocator's 128 KiB threshold for mapping
# fresh memory, above which every temporary is mapped and faulted in anew (on
# a 2-core x86 VM 41 residual checks in one block took about 1.2x the time of
# three blocks)
_BLOCK_CELLS = 4096


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


def boundary_matrices(E: np.ndarray, Z: float | np.ndarray) -> np.ndarray:
    """The matching matrices W of an ndarray of real energies, stacked: shape
    E.shape + (4, 4), entry i the bits of ``np.array(boundary_matrix(E[i],
    Z), dtype=complex)``.  Z is a coupling or an ndarray of couplings that
    broadcasts against E (one per energy, as the batched determinant roots
    of ``verify`` need), and then the shape is that of the broadcast; the
    first coupling that fails ``validate_coupling`` raises its error.

    The wavenumbers and exponentials are taken from ``cmath`` entry by entry;
    negations, sums and the products of the exponential basis are formed in
    numpy with the float operations of Python's complex arithmetic.
    """
    Z = np.asarray(Z, dtype=float)
    bad = ~(np.isfinite(Z) & (Z >= 0.0))
    if bad.any():
        validate_coupling(float(Z.flat[bad.argmax()]))
    # i*Z as boundary_matrix forms it, by Python's complex arithmetic, for the
    # signs of its zeros; -E for complex(E) is (-E, -0.0)
    jz = _each((1j).__mul__, complex)(Z)
    shape = np.broadcast_shapes(E.shape, Z.shape)
    arg_r = np.empty(shape, complex)
    arg_r.real, arg_r.imag = -E + jz.real, -0.0 + jz.imag
    arg_l = np.empty(shape, complex)
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
    W = np.empty(shape + (4, 4), complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            W[..., i, j] = entry
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

    This is the one-entry call of ``nullspace_solutions``.
    """
    return nullspace_solutions([E], [Z], require_singular)[0]


def nullspace_solutions(E: Sequence[complex], Z: Sequence[float],
                        require_singular: bool = True) -> list[WaveSolution]:
    """``nullspace_solution`` at each energy of E with the coupling of Z at
    the same place, in one stacked pass: the matrices of ``boundary_matrix``
    as one stack and one batched SVD of its row-scaled matrices.  Each
    solution has the bits the scalar call gives.

    E and Z of different lengths raise ValueError first.  Otherwise the error
    raised is that of the first entry that fails, as a loop of scalar calls
    raises it, except that a matrix with a NaN entry raises numpy's
    LinAlgError from the SVD before any entry's rank test.
    """
    if len(E) != len(Z):
        raise ValueError(f"{len(E)} energies but {len(Z)} couplings")
    E = [complex(e) for e in E]
    wavenumbers, matrices, failure = [], [], None
    for e, z in zip(E, Z):  # up to the first entry that fails
        kR, kL = _wavenumbers(e, z)
        wavenumbers.append((kR, kL))
        k_min = min(abs(kR), abs(kL))
        if k_min <= _DEGENERATE_K:
            failure = ValueError(
                f"the oracle's basis is degenerate at E={e}, Z={z}: wavenumber |k| = {k_min:.2e} "
                f"<= {_DEGENERATE_K:.0e} makes the two basis functions of a side numerically dependent"
            )
            break
        try:
            matrices.append(boundary_matrix(e, z))
        except (ValueError, OverflowError) as exc:  # a bad coupling, or cmath's
            failure = exc
            break
    W = np.array(matrices, dtype=complex).reshape(-1, 4, 4)
    row_max = np.abs(W).max(axis=-1, keepdims=True)
    _, sigma, Vh = np.linalg.svd(W / np.where(row_max > 0.0, row_max, 1.0))
    ratios = sigma / sigma[:, :1]
    multiplicity = np.count_nonzero(ratios <= _RANK_TOL, axis=-1)
    if require_singular and not multiplicity.all():
        i = int(multiplicity.argmin())
        raise NotAnEigenvalueError(
            f"matrix is numerically non-singular at E={E[i]}, Z={Z[i]} "
            f"(singular-value ratio {ratios[i, -1]:.2e})"
        )
    if failure is not None:
        raise failure
    v = Vh[:, -1].conj()
    pivot = v[np.arange(len(v)), np.abs(v).argmax(axis=-1)]
    amplitudes = (v / pivot[:, None]).tolist()
    return [
        WaveSolution(*a, kR, kL, _regime_of(e), m or 1)
        for a, (kR, kL), e, m in zip(amplitudes, wavenumbers, E, multiplicity.tolist())
    ]


def evaluate_wavefunction(sol: WaveSolution, x: np.ndarray) -> np.ndarray:
    """psi on a grid over [-1, 1], piecewise per the solution's regime."""
    x = np.asarray(x, dtype=float)
    psi = np.empty(x.shape, dtype=complex)
    right = x >= 0.0
    psi[right] = _piece_values(sol, "right", x[right])[0]
    psi[~right] = _piece_values(sol, "left", x[~right])[0]
    return psi


def _piece_values(sol: WaveSolution, side: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, psi', psi'') of one smooth piece from the closed forms: the
    one-solution call of ``_stacked_piece_values``."""
    return tuple(values[0] for values in _stacked_piece_values(*_stack_solutions([sol]), side, x))


def _stack_solutions(sols: Sequence[WaveSolution]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The amplitudes (A1, A2, B1, B2) and wavenumbers (k_right, k_left) of
    each solution as rows, and which rows are in the exponential basis."""
    amps = np.array([(s.A1, s.A2, s.B1, s.B2) for s in sols], dtype=complex).reshape(-1, 4)
    k = np.array([(s.k_right, s.k_left) for s in sols], dtype=complex).reshape(-1, 2)
    exact = np.array([s.regime is Regime.EXACT for s in sols], dtype=bool)
    return amps, k, exact


def _stacked_piece_values(amps: np.ndarray, k: np.ndarray, exact: np.ndarray, side: str,
                          x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, psi', psi'') of one smooth piece from the closed forms, each of
    shape (solutions, points): one row per solution of ``_stack_solutions``,
    at the points x.  Every product with a solution's amplitude or
    wavenumber is formed as with that Python complex alone."""
    right = side == "right"
    amps, k = (amps[:, :2], k[:, :1]) if right else (amps[:, 2:], k[:, 1:])
    if exact.all() or not exact.any():  # all rows in one basis
        return _basis_values(amps, k, bool(exact.all()), right, x)
    values = tuple(np.empty((len(k), x.size), complex) for _ in range(3))
    for exponential, at in ((True, exact), (False, ~exact)):
        for out, rows in zip(values, _basis_values(amps[at], k[at], exponential, right, x)):
            out[at] = rows
    return values


def _basis_values(amps: np.ndarray, k: np.ndarray, exponential: bool, right: bool,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_stacked_piece_values`` of rows all in the exponential basis or all
    in the hyperbolic one."""
    c1, c2 = amps[:, :1], amps[:, 1:]
    if exponential:
        arg = x if right else x + 1.0
        up = c1 * np.exp(k * arg)
        dn = c2 * np.exp(-k * arg)
        psi = up + dn
        dpsi = k * up - k * dn
    else:
        arg = 1.0 - x if right else 1.0 + x
        sh, ch = np.sinh(k * arg), np.cosh(k * arg)
        psi = c1 * sh + c2 * ch
        dpsi = (-k if right else k) * (c1 * ch + c2 * sh)
    kk = np.array([kv * kv for kv in k.ravel().tolist()], dtype=complex).reshape(k.shape)
    return psi, dpsi, kk * psi


def residual_check(sol: WaveSolution, E: complex, Z: float, grid_n: int = 256) -> ResidualReport:
    """Pointwise residuals of the eigenpair.

    The analytic channel uses the exact second derivative of the ansatz, so it
    is zero up to rounding whenever the wavenumbers encode the eigenvalue; the
    finite-difference channel (5-point stencil per smooth piece) is a separate
    sanity check whose truncation error scales as grid_n**-4.  Boundary
    residuals are the four matching conditions from the closed forms,
    normalized by max |psi|; their values at x = -1, 0 and 1 are the end
    points of the two grids, which ``linspace`` gives exactly.

    This is the one-entry call of ``residual_checks``.
    """
    return residual_checks([sol], [E], [Z], grid_n)[0]


def residual_checks(sols: Sequence[WaveSolution], E: Sequence[complex], Z: Sequence[float],
                    grid_n: int = 256) -> list[ResidualReport]:
    """``residual_check`` of each solution at the energy and coupling at the
    same place in E and Z, stacked: each piece's grids as (solutions x
    grid_n) arrays in blocks of about ``_BLOCK_CELLS`` cells, and the
    matrices of ``boundary_matrix`` as one stack per block for the
    determinants.  Each report has the bits of the scalar call.  Inputs of
    different lengths raise ValueError, and then the first coupling that
    fails ``validate_coupling`` raises its error, before any is checked."""
    if not len(sols) == len(E) == len(Z):
        raise ValueError(f"{len(sols)} solutions, {len(E)} energies and {len(Z)} couplings")
    if grid_n < 64:
        raise ValueError(f"grid_n must be at least 64, got {grid_n}")
    sols, E, Z = list(sols), [complex(e) for e in E], list(Z)
    for z in Z:
        validate_coupling(z)
    step = max(1, _BLOCK_CELLS // grid_n)
    reports = []
    for i in range(0, len(sols), step):
        reports += _residual_block(sols[i:i + step], E[i:i + step], Z[i:i + step], grid_n)
    return reports


def _residual_block(sols: list[WaveSolution], E: list[complex], Z: list[float],
                    grid_n: int) -> list[ResidualReport]:
    stack = _stack_solutions(sols)
    e = np.array(E, dtype=complex)[:, None]
    potentials = np.array([(1j * z, -1j * z) for z in Z], dtype=complex)

    maxima = []  # per side: max |psi|, the analytic and the 5-point residual
    ends = []  # (psi, psi') at both ends of each piece
    for side, (lo, hi), pot in (("right", (0.0, 1.0), potentials[:, :1]),
                                ("left", (-1.0, 0.0), potentials[:, 1:])):
        x = np.linspace(lo, hi, grid_n)
        h = x[1] - x[0]
        psi, dpsi, d2_exact = _stacked_piece_values(*stack, side, x)
        ends.append(((psi[:, 0], dpsi[:, 0]), (psi[:, -1], dpsi[:, -1])))
        res_an = np.abs(-d2_exact + pot * psi - e * psi)
        d2_fd = (
            -psi[:, :-4] + 16.0 * psi[:, 1:-3] - 30.0 * psi[:, 2:-2] + 16.0 * psi[:, 3:-1]
            - psi[:, 4:]
        ) / (12.0 * h * h)
        inner = psi[:, 2:-2]
        res_fd = np.abs(-d2_fd + pot * inner - e * inner)
        maxima.append([np.abs(psi).max(axis=1), res_an.max(axis=1), res_fd.max(axis=1)])

    ((p1_0, d1_0), (p1_1, d1_1)), ((p2_m1, d2_m1), (p2_0, d2_0)) = ends
    gaps = np.array([p1_1 - p2_m1, d1_1 - d2_m1, p1_0 - p2_0, d1_0 - d2_0]).T
    bc = np.hypot(gaps.real, gaps.imag)  # abs() of each
    dets = np.linalg.det(np.array([boundary_matrix(*ez) for ez in zip(E, Z)], dtype=complex))
    reports = []
    # each side's maximum joined by Python's max and divided by Python's
    # division, with their NaN and zero-division rules
    for (peaks, an, fd), bc_i, det in zip(np.array(maxima).T.tolist(), bc.tolist(), dets.tolist()):
        peak = max(max(0.0, peaks[0]), peaks[1])
        reports.append(ResidualReport(
            ode_residual=max(max(0.0, fd[0]), fd[1]) / peak,
            ode_residual_analytic=max(max(0.0, an[0]), an[1]) / peak,
            bc_residuals=tuple(b / peak for b in bc_i),
            det_modulus=abs(det),
        ))
    return reports


def pt_symmetry_check(sol: WaveSolution, Z: float, grid_n: int = 256) -> float:
    """Mismatch between psi(-x)* and psi(x) at the least-squares phase,

        max_x |psi(-x)* - lambda psi(x)| / max |psi|,
        lambda = exp(i arg <psi, psi(-x)*>)  (1 for a zero overlap).

    Rounding-sized for unbroken eigenfunctions, for which psi(-x)* = lambda
    psi(x); in the broken regime at least max_x ||psi(-x)| - |psi(x)|| /
    max |psi|, the mismatch's lower bound at every phase.  A vanishing psi
    raises ZeroDivisionError, and a NaN amplitude gives NaN.
    """
    x = np.linspace(-1.0, 1.0, grid_n)
    psi = evaluate_wavefunction(sol, x)
    psi_pt = np.conj(psi[::-1])
    lam = cmath.exp(1j * cmath.phase(complex(np.vdot(psi, psi_pt))))  # phase(0) = 0
    return float(np.max(np.abs(psi_pt - lam * psi))) / float(np.max(np.abs(psi)))
