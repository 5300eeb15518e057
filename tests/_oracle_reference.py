"""References for the oracle, independent of its closed-form integrals.

``ref_nullspace_solution`` is the per-root path as it was before the stacked
core, a verbatim copy of ``nullspace_solution`` working on one energy at a
time; the tests hold ``nullspace_solutions`` and its one-entry call to it bit
for bit.  The scalar matrix ``boundary_matrix`` is taken from the package.

``determinant_scale``, the product of the row max-norms of a matrix, is the
scale of its determinant's rounding in the tests' tolerances.

``ref_piece_values`` evaluates psi and its derivatives pointwise from the
closed forms of the oracle's one basis, and ``ref_integral`` integrates a
function of such values by mpmath's quadrature: the references for the
norms, overlaps and PT mismatch that the oracle forms in closed form.
"""

import mpmath
import numpy as np

from ptcircle.errors import NotAnEigenvalueError
from ptcircle.oracle import (
    _DEGENERATE_K,
    _RANK_TOL,
    WaveSolution,
    _wavenumbers,
    boundary_matrix,
)


def determinant_scale(W: list[list[complex]]) -> float:
    """Hadamard-type magnitude of the matrix: product of row max-norms."""
    scale = 1.0
    for row in W:
        scale *= max(abs(x) for x in row)
    return scale


def ref_nullspace_solution(E: complex, Z: float, require_singular: bool = True) -> WaveSolution:
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
    return WaveSolution(A1, A2, B1, B2, kR, kL, multiplicity)


def ref_piece_values(sol: WaveSolution, side: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, psi', psi'') of one smooth piece from the closed forms
    A1 e^{kR (x-1)} + A2 e^{-kR x} on the right and B1 e^{kL x} +
    B2 e^{-kL (x+1)} on the left."""
    if side == "right":
        k = sol.k_right
        up = sol.A1 * np.exp(k * (x - 1.0))
        dn = sol.A2 * np.exp(-k * x)
    else:
        k = sol.k_left
        up = sol.B1 * np.exp(k * x)
        dn = sol.B2 * np.exp(-k * (x + 1.0))
    return up + dn, k * up - k * dn, k * k * (up + dn)


def ref_wavefunction(sol: WaveSolution, x: np.ndarray) -> np.ndarray:
    """psi at the points x of [-1, 1], from ``ref_piece_values``."""
    psi = np.empty(x.shape, dtype=complex)
    right = x >= 0.0
    psi[right] = ref_piece_values(sol, "right", x[right])[0]
    psi[~right] = ref_piece_values(sol, "left", x[~right])[0]
    return psi


def ref_psi(sol: WaveSolution, x: float) -> complex:
    """psi at one point x of [-1, 1]."""
    return complex(ref_wavefunction(sol, np.array([x]))[0])


def ref_integral(f) -> complex:
    """The integral over [-1, 1] of f, a complex function of a float, by
    mpmath's tanh-sinh quadrature on subintervals whose ends, where its nodes
    cluster, are the matching points and the ends of the boundary layers
    beside them (about 1/140 wide for a broken pair at Z_nu + 1e4).  It
    works at double precision, that of f, whatever mpmath's global precision
    (``_mp_reference`` sets 40 digits)."""
    with mpmath.workdps(15):
        return complex(mpmath.quad(lambda x: f(float(x)), [-1, -0.9, -0.1, 0, 0.1, 0.9, 1]))
