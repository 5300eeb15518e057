"""The oracle's per-root path as it was before its stacked core: verbatim
copies of ``nullspace_solution``, ``_piece_values`` and
``residual_check``, each working on one energy or one solution at a time.

The tests hold ``nullspace_solutions``, ``residual_checks`` and their
one-entry calls to these bit for bit.  The scalar matrix
``boundary_matrix`` and ``boundary_determinant``, which did not change, are
taken from the package.
"""

import numpy as np

from ptcircle.errors import NotAnEigenvalueError
from ptcircle.oracle import (
    _DEGENERATE_K,
    _RANK_TOL,
    Regime,
    ResidualReport,
    WaveSolution,
    _regime_of,
    _wavenumbers,
    boundary_determinant,
    boundary_matrix,
)
from ptcircle.secular import validate_coupling


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
    return WaveSolution(A1, A2, B1, B2, kR, kL, _regime_of(E), multiplicity)


def ref_piece_values(sol: WaveSolution, side: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def ref_residual_check(sol: WaveSolution, E: complex, Z: float, grid_n: int = 256) -> ResidualReport:
    """Pointwise residuals of the eigenpair.

    The analytic channel uses the exact second derivative of the ansatz, so it
    is zero up to rounding whenever the wavenumbers encode the eigenvalue; the
    finite-difference channel (5-point stencil per smooth piece) is a separate
    sanity check whose truncation error scales as grid_n**-4.  Boundary
    residuals are the four matching conditions from the closed forms,
    normalized by max |psi|; their values at x = -1, 0 and 1 are the end
    points of the two grids, which ``linspace`` gives exactly.
    """
    if grid_n < 64:
        raise ValueError(f"grid_n must be at least 64, got {grid_n}")
    E = complex(E)
    validate_coupling(Z)

    ode_fd = 0.0
    ode_an = 0.0
    peak = 0.0
    ends = []  # (psi, psi') at both ends of each piece
    for side, (lo, hi), pot in (("right", (0.0, 1.0), 1j * Z), ("left", (-1.0, 0.0), -1j * Z)):
        x = np.linspace(lo, hi, grid_n)
        h = x[1] - x[0]
        psi, dpsi, d2_exact = ref_piece_values(sol, side, x)
        ends.append(((psi[0], dpsi[0]), (psi[-1], dpsi[-1])))
        peak = max(peak, float(np.max(np.abs(psi))))
        res_an = np.abs(-d2_exact + pot * psi - E * psi)
        ode_an = max(ode_an, float(np.max(res_an)))
        d2_fd = (
            -psi[:-4] + 16.0 * psi[1:-3] - 30.0 * psi[2:-2] + 16.0 * psi[3:-1] - psi[4:]
        ) / (12.0 * h * h)
        inner = psi[2:-2]
        res_fd = np.abs(-d2_fd + pot * inner - E * inner)
        ode_fd = max(ode_fd, float(np.max(res_fd)))

    ((p1_0, d1_0), (p1_1, d1_1)), ((p2_m1, d2_m1), (p2_0, d2_0)) = ends
    bc = (
        float(abs(p1_1 - p2_m1)) / peak,
        float(abs(d1_1 - d2_m1)) / peak,
        float(abs(p1_0 - p2_0)) / peak,
        float(abs(d1_0 - d2_0)) / peak,
    )
    det = boundary_determinant(E, Z)
    return ResidualReport(
        ode_residual=ode_fd / peak,
        ode_residual_analytic=ode_an / peak,
        bc_residuals=bc,
        det_modulus=abs(det),
    )
