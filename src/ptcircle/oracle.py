"""First-principles verification of the closed-form secular equations.

Instead of trusting the factored quantization condition, this module builds
the 4x4 matching matrix of the boundary-value problem directly from the
piecewise ansatz and the periodic boundary conditions

    psi1(1) = psi2(-1),  psi1'(1) = psi2'(-1),
    psi1(0) = psi2(0),   psi1'(0) = psi2'(0),

and works with its determinant, null space and residuals.  An
energy E is accepted exactly when the matrix is rank deficient; the zero set
of the determinant is the arbiter for every closed form in the package (the
two differ by a nonvanishing analytic prefactor that is never relied upon).

Wavenumbers: on (0, 1) the potential is +iZ so the basis solves
psi'' = kR**2 psi with kR = sqrt(-E + iZ) (principal branch, Re kR >= 0); on
(-1, 0) the potential is -iZ and kL = sqrt(-E - iZ).  For real E this makes
kL the conjugate of kR.  Every energy, real or complex, uses the one basis

    psi1 = A1 e^{kR (x-1)} + A2 e^{-kR x},   psi2 = B1 e^{kL x} + B2 e^{-kL (x+1)},

Each exponential is 1 at one end of its piece and, as Re k >= 0, has modulus
at most 1 on the whole piece, however large |Im E| or Z.  W is a column
rescaling of the matrix of the basis e^{+-kR x}, e^{+-kL (x+1)}, by e^{-kR}
and e^{-kL}; for real E their product is e^{-2 Re kR} > 0, so the real part
of the determinant on the real axis keeps its sign and zero set.

``boundary_matrices`` builds W for a whole array of real energies at once,
as the determinant sweep of ``verify`` needs it, at one coupling or at an
array of couplings that broadcasts against the energies, as the batched
refinement of the determinant roots needs it.  It takes kR from numpy's
square root and kL as its conjugate, so its entries agree with those of
``boundary_matrix`` to a few units of rounding, not to the bit.  The
null vectors, and the residuals and measures formed from them, come from
``boundary_matrix``.

``nullspace_solutions`` finds the null vectors of many energies in one
stacked pass: the matrices of ``boundary_matrix`` as one stack, decomposed by
one batched SVD.  ``nullspace_solution`` is its one-entry call, and each
entry has the same bits alone or in a stack.

The determinant is numpy's LU determinant of W as built.  Rank and null
vector come from the singular value decomposition of W with each row divided
by its largest modulus.  The derivative rows carry the factor |k| that the
value rows lack; unscaled, the singular-value ratio is set by the large rows,
and energies off an eigenvalue pass the rank test.  The null vector is the
right singular vector of the smallest singular value, which stays accurate
when two singular values are small at once (near-degenerate doublets).

The checks of a solution integrate in closed form.  On each piece, with
u = x on (0, 1) and u = x + 1 on (-1, 0), psi and psi(-x) are
a e^{k(u-1)} + b e^{-k u}, and the integral of the product of two such
terms is a sum of multiples of (1 - e^{-z})/z with Re z >= 0 (1 at z = 0).
So ``residual_check`` and ``pt_symmetry_check`` normalize by ||psi||_2 and
``pt_norm`` by its square, all formed from the amplitudes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotAnEigenvalueError
from .secular import validate_coupling

__all__ = [
    "WaveSolution",
    "ResidualReport",
    "boundary_matrix",
    "boundary_matrices",
    "boundary_determinant",
    "determinant_scale",
    "nullspace_solution",
    "nullspace_solutions",
    "residual_check",
    "pt_symmetry_check",
    "pt_norm",
]

_RANK_TOL = 1e-8
# The two basis functions of a side differ by O(|k|): both tend to 1 as k
# goes to 0.  Their near-dependence gives a singular value of about |k|/2 of
# the largest one, which passes the rank test as a spurious null direction
# from |k| of about 2e-8 down; k = 0 (E = Z = 0) makes two columns equal.
# Below this bound the basis cannot resolve the null space.
_DEGENERATE_K = 4.0 * _RANK_TOL


@dataclass(frozen=True)
class WaveSolution:
    """Amplitudes (A1, A2, B1, B2) of the piecewise ansatz of the module
    docstring, normalized to max modulus 1, and its wavenumbers."""

    A1: complex
    A2: complex
    B1: complex
    B2: complex
    k_right: complex
    k_left: complex
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if max(abs(self.A1), abs(self.A2), abs(self.B1), abs(self.B2)) == 0.0:
            raise ValueError("amplitudes must not all vanish")


@dataclass(frozen=True)
class ResidualReport:
    ode_residual_analytic: float   # max over the pieces of |k^2 + E - V|
    bc_residuals: tuple[float, float, float, float]  # |W a| / ||psi||_2, per row


def _wavenumbers(E: complex, Z: float) -> tuple[complex, complex]:
    kR = cmath.sqrt(-E + 1j * Z)
    kL = cmath.sqrt(-E - 1j * Z)
    return kR, kL


def boundary_matrix(E: complex, Z: float) -> list[list[complex]]:
    """Matching matrix W; columns (A1, A2, B1, B2), rows the four conditions.

    One basis at every energy, with eR = e^{-kR} and eL = e^{-kL} of modulus
    at most 1.  W is singular exactly at eigenvalues.
    """
    validate_coupling(Z)
    kR, kL = _wavenumbers(complex(E), Z)
    eR, eL = cmath.exp(-kR), cmath.exp(-kL)
    return [
        [1.0, eR, -eL, -1.0],
        [kR, -kR * eR, -kL * eL, kL],
        [eR, 1.0, -1.0, -eL],
        [kR * eR, -kR, -kL, kL * eL],
    ]


def boundary_matrices(E: np.ndarray, Z: float | np.ndarray) -> np.ndarray:
    """The matching matrices W of an ndarray of real energies, stacked: shape
    E.shape + (4, 4), entry i ``np.array(boundary_matrix(E[i], Z),
    dtype=complex)`` to rounding.  Z is a coupling or an ndarray of
    couplings that broadcasts against E (one per energy, as the batched
    determinant roots of ``verify`` need), and then the shape is that of the
    broadcast; the first coupling that fails ``validate_coupling`` raises
    its error.

    kR = sqrt(-E + iZ) and e^{-kR} come from numpy; for real E, kL and
    e^{-kL} are their conjugates.
    """
    # + 0.0 turns a coupling -0.0 into 0.0, so that kR = +i sqrt(E) at Z = 0,
    # as ``boundary_matrix`` has it
    Z = np.asarray(Z, dtype=float) + 0.0
    bad = ~(np.isfinite(Z) & (Z >= 0.0))
    if bad.any():
        validate_coupling(float(Z.flat[bad.argmax()]))
    shape = np.broadcast_shapes(E.shape, Z.shape)
    arg = np.empty(shape, complex)
    arg.real, arg.imag = -E, Z
    kR = np.sqrt(arg)
    eR = np.exp(-kR)
    kL, eL = kR.conj(), eR.conj()
    rows = (
        (1.0, eR, -eL, -1.0),
        (kR, -kR * eR, -kL * eL, kL),
        (eR, 1.0, -1.0, -eL),
        (kR * eR, -kR, -kL, kL * eL),
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


def nullspace_solution(E: complex, Z: float) -> WaveSolution:
    """Amplitudes of the (near-)null vector at an eigenvalue.

    Rank is decided by the singular-value ratio of the row-scaled matrix,
    sigma_i/sigma_1 <= 1e-8; the energy is rejected with NotAnEigenvalueError
    when no singular value passes it.  For a multiplicity-2 null space (the
    uncoupled circle doublets) one basis vector is returned and the
    multiplicity reported on the solution.  Where a wavenumber is 0 or
    nearly so (|E -+ iZ| at most 1.6e-15) the basis cannot tell its two
    functions of a side apart and a ValueError is raised rather
    than a spurious multiplicity returned.

    This is the one-entry call of ``nullspace_solutions``.
    """
    return nullspace_solutions([E], [Z])[0]


def nullspace_solutions(E: Sequence[complex], Z: Sequence[float]) -> list[WaveSolution]:
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
    if not multiplicity.all():
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
        WaveSolution(*a, kR, kL, m)
        for a, (kR, kL), m in zip(amplitudes, wavenumbers, multiplicity.tolist())
    ]


def _decay(z: complex) -> complex:
    """(1 - e^{-z})/z, the integral of e^{-z u} over u in [0, 1], for
    Re z >= 0; 1, the length of the interval, at z = 0."""
    if not z:
        return 1.0
    x, y = -z.real, -z.imag
    half = math.sin(0.5 * y)
    # e^{-z} - 1 from expm1 (which cmath lacks), so no digits cancel at small |z|
    em1 = complex(math.expm1(x) * math.cos(y) - 2.0 * half * half, math.exp(x) * math.sin(y))
    return -em1 / z


def _term_inner(f: tuple, h: tuple) -> complex:
    """The integral over u in [0, 1] of f conj(h), for f = a e^{p(u-1)} +
    b e^{-p u} and h = c e^{q(u-1)} + d e^{-q u} given as (a, b, p) and
    (c, d, q), with Re p, Re q >= 0."""
    (a, b, p), (c, d, q) = f, h
    c, d, q = c.conjugate(), d.conjugate(), q.conjugate()
    # e^{p(u-1)} e^{q(u-1)} and e^{-p u} e^{-q u} integrate to _decay(p + q),
    # e^{p(u-1)} e^{-q u} and e^{-p u} e^{q(u-1)} to (e^{-q} - e^{-p})/(p - q),
    # formed about the exponent of smaller real part so that no term grows
    lo, hi = (p, q) if p.real <= q.real else (q, p)
    same, cross = _decay(p + q), cmath.exp(-lo) * _decay(hi - lo)
    return (a * c + b * d) * same + (a * d + b * c) * cross


def _inner(f: tuple, h: tuple) -> complex:
    """The integral over [-1, 1] of f conj(h), for functions given as their
    (right, left) pieces, each a tuple of terms of ``_term_inner``."""
    return sum(_term_inner(s, t) for fs, hs in zip(f, h) for s in fs for t in hs)


def _norm(f: tuple) -> float:
    # abs: a sum that rounds below zero is a rounding-sized norm
    return math.sqrt(abs(_inner(f, f).real))


def _psi_and_mirror(sol: WaveSolution) -> tuple[tuple, tuple]:
    """psi and psi(-x) as (right, left) pieces of one term each, with the
    amplitudes divided by their largest modulus: the measures do not depend
    on scale, and amplitudes of about 1e308 would overflow their sums.  NaN
    for every amplitude and wavenumber where a NaN or infinite one, or
    Re k < 0, which no principal root has, leaves the closed forms
    undefined, so that every measure of the solution is NaN."""
    amps = (sol.A1, sol.A2, sol.B1, sol.B2)
    kR, kL = sol.k_right, sol.k_left
    if all(map(cmath.isfinite, (*amps, kR, kL))) and kR.real >= 0.0 and kL.real >= 0.0:
        peak = max(map(abs, amps))
        A1, A2, B1, B2 = (a / peak for a in amps)
    else:
        A1 = A2 = B1 = B2 = kR = kL = complex(math.nan, math.nan)
    return (((A1, A2, kR),), ((B1, B2, kL),)), (((B2, B1, kL),), ((A2, A1, kR),))


def residual_check(sol: WaveSolution, E: complex, Z: float) -> ResidualReport:
    """Residuals of the eigenpair: the four matching gaps |W a| of the
    amplitudes a = (A1, A2, B1, B2), W = ``boundary_matrix(E, Z)``, divided
    by ||psi||_2, and, as psi'' = k^2 psi on each piece, max |k^2 + E - V|
    over the pieces.  A coupling that fails ``validate_coupling`` raises its
    error; a NaN amplitude or wavenumber, or Re k < 0, gives NaN fields, and
    a vanishing psi raises ZeroDivisionError."""
    W = boundary_matrix(E, Z)
    psi = (((A1, A2, kR),), ((B1, B2, kL),)) = _psi_and_mirror(sol)[0]
    E = complex(E)
    ode = max(abs(kR * kR + E - 1j * Z), abs(kL * kL + E + 1j * Z))
    norm = _norm(psi)
    return ResidualReport(ode, tuple(abs(w1 * A1 + w2 * A2 + w3 * B1 + w4 * B2) / norm
                                     for w1, w2, w3, w4 in W))


def pt_symmetry_check(sol: WaveSolution) -> float:
    """Mismatch between conj psi(-x) and psi at the least-squares phase,

        ||conj psi(-x) - lambda psi||_2 / ||psi||_2,
        lambda = the phase of <conj psi(-x), psi>  (1 for a zero overlap),

    at most sqrt 2, as ||conj psi(-x)|| = ||psi|| and the least-squares phase
    makes Re(conj lambda <conj psi(-x), psi>) = |<conj psi(-x), psi>| >= 0.
    Rounding-sized for unbroken eigenfunctions, for which
    conj psi(-x) = lambda psi; in the broken regime at least
    || |psi(-x)| - |psi| ||_2 / ||psi||_2, the mismatch's lower bound at
    every phase.  A vanishing psi raises ZeroDivisionError; a NaN amplitude
    or wavenumber, or Re k < 0, gives NaN.
    """
    psi, mirror = _psi_and_mirror(sol)
    pt = tuple(((a.conjugate(), b.conjugate(), k.conjugate()),) for ((a, b, k),) in mirror)
    overlap = _inner(pt, psi)
    lam = overlap / abs(overlap) if overlap else 1.0
    # where the wavenumbers agree, as conj kL == kR does bit for bit for real
    # E, the mismatch is one term of amplitude differences: the rounding of
    # ||u||^2 + ||v||^2 - 2 Re <u, v> would be about 1e-8, the bound itself
    mismatch = tuple(((a - lam * c, b - lam * d, p),) if p == q
                     else ((a, b, p), (-lam * c, -lam * d, q))
                     for ((a, b, p),), ((c, d, q),) in zip(pt, psi))
    return _norm(mismatch) / _norm(psi)


def pt_norm(sol: WaveSolution) -> complex:
    """The PT-norm of psi, the integral of conj psi(-x) psi(x) over [-1, 1]
    divided by ||psi||_2^2: real for every psi, as parity is Hermitian, up
    to a rounding-sized imaginary part, with a sign that does not depend on
    psi's phase.  Below a fold the two merging real levels have opposite
    signs, and the norm vanishes at the fold.  NaN and ZeroDivisionError as
    for ``pt_symmetry_check``."""
    psi, mirror = _psi_and_mirror(sol)
    return _inner(psi, mirror) / _norm(psi) ** 2
