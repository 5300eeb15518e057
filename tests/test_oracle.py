import cmath
import dataclasses
import math

import numpy as np
import pytest

from ptcircle import oracle
from ptcircle.errors import NotAnEigenvalueError
from ptcircle.oracle import (
    Regime,
    WaveSolution,
    boundary_determinant,
    boundary_matrices,
    boundary_matrix,
    determinant_scale,
    evaluate_wavefunction,
    nullspace_solution,
    pt_symmetry_check,
    residual_check,
)
from ptcircle.spectrum import SpectrumRequest, scan_roots
from ptcircle.transition import BrokenParams, solve_above_fold, solve_broken

from _oracle_reference import (
    ref_nullspace_solution,
    ref_piece_values,
    ref_residual_check,
)

PI2 = math.pi**2


class TestBoundaryMatrix:
    def test_singular_at_circle_eigenvalue(self):
        W = boundary_matrix(PI2, 0.0)
        assert abs(boundary_determinant(PI2, 0.0)) <= 1e-12 * determinant_scale(W)

    def test_regular_at_non_eigenvalue(self):
        W = boundary_matrix(5.0, 0.0)
        assert abs(boundary_determinant(5.0, 0.0)) > 1e-3 * determinant_scale(W)

    def test_singular_at_scanned_roots(self):
        pts = scan_roots(SpectrumRequest(Z=5.0, s_max=3.5 * math.pi))
        for p in pts:
            W = boundary_matrix(p.E, 5.0)
            assert abs(boundary_determinant(p.E, 5.0)) <= 1e-8 * determinant_scale(W)

    def test_determinant_against_numpy(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            E = complex(rng.uniform(-10, 90), rng.uniform(-3, 3))
            if rng.uniform() < 0.5:
                E = complex(E.real, 0.0)
            Z = rng.uniform(0, 20)
            ours = boundary_determinant(E, Z)
            ref = complex(np.linalg.det(np.array(boundary_matrix(E, Z), dtype=complex)))
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9 * determinant_scale(boundary_matrix(E, Z)))

    def test_branch_choice_invariance(self):
        # flipping the principal square root swaps basis columns pairwise,
        # an even permutation: the determinant is unchanged
        for E, Z in ((9.0, 3.0), (30.0, 5.0), (2.0, 0.5)):
            kR = cmath.sqrt(complex(-E, Z))
            kL = cmath.sqrt(complex(-E, -Z))
            def W_of(kR, kL):
                ekR, emkR = cmath.exp(kR), cmath.exp(-kR)
                ekL, emkL = cmath.exp(kL), cmath.exp(-kL)
                return np.array([
                    [ekR, emkR, -1.0, -1.0],
                    [kR * ekR, -kR * emkR, -kL, kL],
                    [1.0, 1.0, -ekL, -emkL],
                    [kR, -kR, -kL * ekL, kL * emkL],
                ])
            d1 = complex(np.linalg.det(W_of(kR, kL)))
            d2 = complex(np.linalg.det(W_of(-kR, -kL)))
            assert d1 == pytest.approx(d2, rel=1e-10)

    def test_real_axis_determinant_is_real(self):
        for Z in (0.5, 3.0, 6.0):
            for E in np.linspace(0.5, 100.0, 37):
                d = boundary_determinant(float(E), Z)
                assert abs(d.imag) <= 1e-12 * max(1.0, abs(d))

    def test_conjugation_symmetry_magnitude(self):
        for E in (complex(3.0, 2.0), complex(10.0, -0.5), complex(5.062183, -2.056102)):
            for Z in (2.0, 6.0):
                d1 = boundary_determinant(E, Z)
                d2 = boundary_determinant(E.conjugate(), Z)
                assert abs(d2) == pytest.approx(abs(d1), rel=1e-9)


class TestBoundaryMatrices:
    """The stacked matrices of real energies must hold, entry by entry, the
    bytes of the per-energy ``boundary_matrix``."""

    @pytest.mark.parametrize("Z", [0.0, -0.0, 1e-8, 0.5, 3.0, 5.0, 10.0, 17.0, 25.0])
    def test_bytes_of_each_matrix(self, Z):
        s = np.arange(math.pi / 128, 4.6 * math.pi, math.pi / 128)  # the verify sweep
        E = np.concatenate([s**2 - (Z / (2.0 * s)) ** 2,
                            [0.0, -0.0, 1e-300, -1e-300, PI2, -1.0, -1e3, 1e4, 5e-324]])
        W = boundary_matrices(E, Z)
        assert W.shape == (E.size, 4, 4)
        for E_i, W_i in zip(E.tolist(), W):
            assert W_i.tobytes() == np.array(boundary_matrix(E_i, Z), dtype=complex).tobytes(), E_i

    @pytest.mark.parametrize("Z", [-1.0, math.nan, math.inf])
    def test_bad_coupling_raises(self, Z):
        with pytest.raises(ValueError, match="coupling"):
            boundary_matrices(np.array([1.0]), Z)
        # in an array of couplings, the error of the first bad one
        with pytest.raises(ValueError) as info:
            boundary_matrices(np.array([1.0, 2.0, 3.0]), np.array([0.5, Z, -2.0]))
        with pytest.raises(ValueError) as scalar:
            boundary_matrix(2.0, Z)
        assert str(info.value) == str(scalar.value)

    def test_couplings_broadcast_against_energies(self):
        # one coupling per energy, as the batched determinant roots use it,
        # and a column of couplings against a row of energies
        rng = np.random.default_rng(17)
        E = np.concatenate([rng.uniform(-50.0, 400.0, 200), [0.0, -0.0, PI2, 1e-300]])
        Z = rng.choice([0.0, -0.0, 1e-8, 0.5, 3.0, 17.0, 25.0], E.size)
        W = boundary_matrices(E, Z)
        assert W.shape == (E.size, 4, 4)
        for E_i, Z_i, W_i in zip(E.tolist(), Z.tolist(), W):
            assert W_i.tobytes() == np.array(boundary_matrix(E_i, Z_i), complex).tobytes()
        grid = boundary_matrices(E[:7], np.array([[0.5], [-0.0], [3.0]]))
        assert grid.shape == (3, 7, 4, 4)
        for Z_j, row in zip((0.5, -0.0, 3.0), grid):
            assert row.tobytes() == boundary_matrices(E[:7], Z_j).tobytes()


def reference_residual_check(sol, E, Z, grid_n=256):
    """``oracle.residual_check`` as it was before it read the boundary values
    off its own grids: the four matching conditions from eight one-point
    ``_piece_values`` calls."""
    if grid_n < 64:
        raise ValueError(f"grid_n must be at least 64, got {grid_n}")
    E = complex(E)
    oracle.validate_coupling(Z)

    ode_fd = 0.0
    ode_an = 0.0
    peak = 0.0
    for side, (lo, hi), pot in (("right", (0.0, 1.0), 1j * Z), ("left", (-1.0, 0.0), -1j * Z)):
        x = np.linspace(lo, hi, grid_n)
        h = x[1] - x[0]
        psi, _, d2_exact = oracle._piece_values(sol, side, x)
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
    p1_1, d1_1, _ = oracle._piece_values(sol, "right", x1)
    p1_0, d1_0, _ = oracle._piece_values(sol, "right", x0)
    p2_m1, d2_m1, _ = oracle._piece_values(sol, "left", xm1)
    p2_0, d2_0, _ = oracle._piece_values(sol, "left", x0)
    bc = (
        float(abs(p1_1[0] - p2_m1[0])) / peak,
        float(abs(d1_1[0] - d2_m1[0])) / peak,
        float(abs(p1_0[0] - p2_0[0])) / peak,
        float(abs(d1_0[0] - d2_0[0])) / peak,
    )
    det = boundary_determinant(E, Z)
    return oracle.ResidualReport(
        ode_residual=ode_fd / peak,
        ode_residual_analytic=ode_an / peak,
        bc_residuals=bc,
        det_modulus=abs(det),
    )


def report_bytes(report):
    """Every field of a ResidualReport by the bytes of its doubles."""
    return np.array([report.ode_residual, report.ode_residual_analytic,
                     *report.bc_residuals, report.det_modulus]).tobytes()


class TestResidualCheckIsTheEarlierOne:
    """The boundary values come from the ends of the 256-point grids; every
    field of the report must keep the bytes of the version that evaluated
    them at one point each."""

    @pytest.mark.parametrize("Z", [0.0, 1e-3, 0.5, 3.0, 5.0, 10.0, 17.0])
    def test_real_spectrum(self, Z):
        cases = [(p.E, Z) for p in scan_roots(SpectrumRequest(Z=Z, s_max=30.0))]
        cases += [(E, Z) for E in (5.0, 40.0)]  # off the spectrum
        for E, Z in cases:
            sol = nullspace_solution(E, Z, require_singular=False)
            for grid_n in (64, 256, 1000):
                got = residual_check(sol, E, Z, grid_n)
                assert report_bytes(got) == report_bytes(
                    reference_residual_check(sol, E, Z, grid_n)), (E, Z, grid_n)

    @pytest.mark.parametrize("pair, Z", [(0, 6.0), (1, 20.0), (2, 40.0), (3, 100.0), (3, 500.0)])
    def test_broken_pairs(self, pair, Z):
        from ptcircle.transition import interval_fold

        _, energy = solve_above_fold(interval_fold(pair), Z)
        for sign in (+1.0, -1.0):
            E = complex(energy.re_E, sign * energy.eps)
            sol = nullspace_solution(E, Z)
            got = residual_check(sol, E, Z)
            assert got.bc_residuals == reference_residual_check(sol, E, Z).bc_residuals
            assert report_bytes(got) == report_bytes(reference_residual_check(sol, E, Z))


class TestPrefactorObservation:
    def test_closed_form_ratio_is_finite_and_nonvanishing(self):
        # the determinant and the closed t-form differ by an analytic
        # prefactor that is never relied upon; observed and logged here,
        # deliberately not pinned to a value
        from ptcircle.secular import secular_t

        ratios = []
        for t in (0.4, 0.8, 1.5, 2.5):
            Z = 5.0
            s = Z / (2.0 * t)
            E = s * s - t * t
            d = boundary_determinant(E, Z)
            v = secular_t(t, Z)
            if abs(v) > 1e-9:
                ratios.append(abs(d) / abs(v))
        print("observed |det W| / |closed t-form| ratios:", ratios)
        assert all(math.isfinite(r) and r > 0.0 for r in ratios)


class TestDeterminantSweep:
    def test_hermitian_eigenvalue_pattern(self):
        assert abs(boundary_determinant(4 * PI2, 0.0)) <= 1e-10 * determinant_scale(
            boundary_matrix(4 * PI2, 0.0)
        )
        assert abs(boundary_determinant(2 * PI2, 0.0)) > 1e-3 * determinant_scale(
            boundary_matrix(2 * PI2, 0.0)
        )

    def test_zero_pattern_matches_scan_at_z3(self):
        Z = 3.0
        pts = scan_roots(SpectrumRequest(Z=Z, s_max=3.6 * math.pi))
        s_grid = np.arange(math.pi / 128, 3.6 * math.pi, math.pi / 128)
        lo = 0.1 * math.sqrt(0.5 * Z)
        extra = []
        v = float(s_grid[0])
        while v > lo:
            v /= 1.25
            extra.append(v)
        s_grid = np.concatenate([np.array(extra[::-1]), s_grid])
        energies = s_grid**2 - (Z / (2.0 * s_grid)) ** 2
        vals = np.array([boundary_determinant(float(E), Z).real for E in energies])
        sign_changes = int(np.sum((vals[:-1] < 0) != (vals[1:] < 0)))
        assert sign_changes == len(pts)
        from scipy.optimize import brentq

        det_re = lambda E: boundary_determinant(E, Z).real
        roots = []
        for i in range(len(energies) - 1):
            if (vals[i] < 0) != (vals[i + 1] < 0):
                roots.append(brentq(det_re, float(energies[i]), float(energies[i + 1]), xtol=1e-12))
        for r, p in zip(sorted(roots), pts):
            assert r == pytest.approx(p.E, abs=1e-8)


class TestNullspace:
    def test_doublet_multiplicity_at_zero_coupling(self):
        for n in (1, 2, 3):
            sol = nullspace_solution((n * math.pi) ** 2, 0.0)
            assert sol.multiplicity == 2
            assert sol.regime is Regime.EXACT

    def test_lifted_degeneracy(self):
        pts = scan_roots(SpectrumRequest(Z=1.0, s_max=2.0 * math.pi))
        target = [p for p in pts if p.n == 1]
        for p in target:
            sol = nullspace_solution(p.E, 1.0)
            assert sol.multiplicity == 1

    def test_not_an_eigenvalue(self):
        with pytest.raises(NotAnEigenvalueError):
            nullspace_solution(10.0, 1.0)

    @pytest.mark.parametrize("E, Z", [(0.0, 0.0), (1e-30, 0.0), (-1e-300, 0.0), (0.0, 1e-20)])
    def test_degenerate_basis_is_refused(self, E, Z):
        # the constant ground state at E = Z = 0 is simple, but there the two
        # exponentials of a side coincide and the rank test used to count 3
        # (2 just beside it); the basis cannot resolve it, so it is refused
        with pytest.raises(ValueError, match="basis is degenerate"):
            nullspace_solution(E, Z)
        with pytest.raises(ValueError, match="basis is degenerate"):
            nullspace_solution(E, Z, require_singular=False)

    def test_smallest_resolved_wavenumber_ground_state(self):
        # Z = 1e-14 puts |k| at 1e-7, above the degeneracy bound: the ground
        # state is found, and it is simple
        Z = 1e-14
        ground = scan_roots(SpectrumRequest(Z=Z, s_max=4.0))[0]
        assert nullspace_solution(ground.E, Z).multiplicity == 1

    def test_normalization(self):
        sol = nullspace_solution(PI2, 0.0)
        assert max(abs(sol.A1), abs(sol.A2), abs(sol.B1), abs(sol.B2)) == pytest.approx(1.0)

    def test_null_vector_annihilated_by_matrix(self):
        pts = scan_roots(SpectrumRequest(Z=2.0, s_max=2.5 * math.pi))
        for p in pts:
            sol = nullspace_solution(p.E, 2.0)
            W = np.array(boundary_matrix(p.E, 2.0), dtype=complex)
            v = np.array([sol.A1, sol.A2, sol.B1, sol.B2])
            assert float(np.max(np.abs(W @ v))) <= 1e-9 * determinant_scale(
                boundary_matrix(p.E, 2.0)
            )


    @pytest.mark.parametrize("Z", [1e-3, 0.1, 0.5, 1.0, 2.5, 5.0])
    def test_every_scanned_root_is_certified(self, Z):
        # near-degenerate doublets included: the null vector of the smallest
        # singular value satisfies the matching conditions to rounding
        pts = scan_roots(SpectrumRequest(Z=Z, s_max=128.0))
        assert len(pts) >= 80
        for p in pts:
            report = residual_check(nullspace_solution(p.E, Z), p.E, Z)
            assert max(report.bc_residuals) <= 1e-8, p

    @pytest.mark.parametrize("Z", [0.5, 2.5, 20.0, 80.0])
    def test_rank_test_rejects_nearby_energies(self, Z):
        # guards the power of the rank test: a relative shift of 1e-6 off a
        # root must leave the row-scaled matrix non-singular at 1e-8
        for p in scan_roots(SpectrumRequest(Z=Z, s_max=128.0)):
            for factor in (1.0 - 1e-6, 1.0 + 1e-6):
                with pytest.raises(NotAnEigenvalueError):
                    nullspace_solution(p.E * factor, Z)


class TestResidualCheck:
    def exact_mode_solution(self):
        # psi = e^{i pi x}: amplitudes (1, 0, 0, -1) with k = i pi
        return WaveSolution(
            A1=1.0, A2=0.0, B1=0.0, B2=-1.0,
            k_right=1j * math.pi, k_left=-1j * math.pi, regime=Regime.EXACT,
        )

    def test_exact_circle_eigenpair(self):
        report = residual_check(self.exact_mode_solution(), PI2, 0.0)
        assert report.ode_residual_analytic <= 1e-12
        assert max(report.bc_residuals) <= 1e-12
        assert report.ode_residual <= 1e-7  # finite-difference truncation floor

    def test_scanned_root(self):
        pts = scan_roots(SpectrumRequest(Z=5.0, s_max=3.0 * math.pi))
        for p in pts[:4]:
            sol = nullspace_solution(p.E, 5.0)
            report = residual_check(sol, p.E, 5.0)
            assert max(report.bc_residuals) <= 1e-8
            assert report.ode_residual_analytic <= 1e-12

    def test_perturbed_energy_detected(self):
        pts = scan_roots(SpectrumRequest(Z=5.0, s_max=2.0 * math.pi))
        E_bad = pts[0].E + 1e-3
        sol = nullspace_solution(E_bad, 5.0, require_singular=False)
        report = residual_check(sol, E_bad, 5.0)
        assert max(report.bc_residuals) >= 1e-5

    def test_fd_residual_fourth_order(self):
        sol = self.exact_mode_solution()
        grids = (64, 128, 256, 512)
        res = [residual_check(sol, PI2, 0.0, grid_n=g).ode_residual for g in grids]
        slope = np.polyfit([math.log(g) for g in grids], [math.log(r) for r in res], 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.5)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            residual_check(self.exact_mode_solution(), PI2, 0.0, grid_n=32)


class TestPTSymmetry:
    def test_cosine_mode_is_symmetric(self):
        sol = WaveSolution(
            A1=1.0, A2=1.0, B1=-1.0, B2=-1.0,
            k_right=1j * math.pi, k_left=-1j * math.pi, regime=Regime.EXACT,
        )
        assert pt_symmetry_check(sol, 0.0) <= 1e-12

    def test_unbroken_eigenfunctions(self):
        pts = scan_roots(SpectrumRequest(Z=2.0, s_max=3.5 * math.pi))
        for p in pts:
            sol = nullspace_solution(p.E, 2.0)
            assert pt_symmetry_check(sol, 2.0) <= 1e-8

    def test_broken_pair_asymmetric(self):
        params, energy = solve_broken(6.0, BrokenParams.bind(0.358129, 0.622216, 6.0))
        E = complex(energy.re_E, -energy.eps)
        sol = nullspace_solution(E, 6.0)
        assert sol.regime is Regime.BROKEN
        assert pt_symmetry_check(sol, 6.0) >= 0.1

    def test_pt_swaps_broken_partners(self):
        # conjugation-parity maps the eps eigenfunction onto the -eps partner
        params, energy = solve_broken(6.0, BrokenParams.bind(0.358129, 0.622216, 6.0))
        sol_minus = nullspace_solution(complex(energy.re_E, -energy.eps), 6.0)
        sol_plus = nullspace_solution(complex(energy.re_E, +energy.eps), 6.0)
        x = np.linspace(-1.0, 1.0, 257)
        psi_m = evaluate_wavefunction(sol_minus, x)
        psi_p = evaluate_wavefunction(sol_plus, x)
        pt_of_m = np.conj(psi_m[::-1])
        # project out the best phase and compare shapes
        lam = np.vdot(psi_p, pt_of_m) / np.vdot(psi_p, psi_p)
        dev = np.max(np.abs(pt_of_m - lam * psi_p)) / np.max(np.abs(psi_p))
        assert dev <= 1e-6


class TestBrokenOracle:
    def test_complex_pair_is_singular(self):
        params, energy = solve_broken(6.0, BrokenParams.bind(0.358129, 0.622216, 6.0))
        for sign in (+1.0, -1.0):
            E = complex(energy.re_E, sign * energy.eps)
            W = boundary_matrix(E, 6.0)
            assert abs(boundary_determinant(E, 6.0)) <= 1e-10 * determinant_scale(W)
            sol = nullspace_solution(E, 6.0)
            report = residual_check(sol, E, 6.0)
            assert max(report.bc_residuals) <= 1e-8
            assert report.ode_residual_analytic <= 1e-12

    def test_every_pair_is_certified(self, sixteen_folds):
        # both members of each pair, from the near-fold solve to 9.5 past it
        for fold in sixteen_folds:
            for dZ in (1e-3, 0.3, 4.0, 9.5):
                Z = fold.Z_crit + dZ
                _, energy = solve_above_fold(fold, Z)
                for sign in (+1.0, -1.0):
                    E = complex(energy.re_E, sign * energy.eps)
                    sol = nullspace_solution(E, Z)
                    report = residual_check(sol, E, Z)
                    assert max(report.bc_residuals) <= 1e-8, (fold.nu, dZ, sign)


# ---------------------------------------------------------------------------
# the stacked core against the per-root path it replaced

ZERO_SET_Z = (0.5, 3.0, 5.0, 10.0, 17.0)  # the full zero-set check's couplings


def roots_at(couplings, s_max=4.6 * math.pi):
    """The scanned roots of each coupling as (energies, couplings) lists."""
    energies, zs = [], []
    for Z in couplings:
        pts = scan_roots(SpectrumRequest(Z=Z, s_max=s_max))
        energies += [p.E for p in pts]
        zs += [Z] * len(pts)
    return energies, zs


def broken_members():
    """Both members of broken pairs 0-3, with their couplings."""
    from ptcircle.transition import interval_fold

    energies, zs = [], []
    for pair, Z in ((0, 6.0), (1, 20.0), (2, 40.0), (3, 100.0)):
        _, energy = solve_above_fold(interval_fold(pair), Z)
        for sign in (+1.0, -1.0):
            energies.append(complex(energy.re_E, sign * energy.eps))
            zs.append(Z)
    return energies, zs


def solution_bytes(sol):
    """Every field of a WaveSolution: amplitudes and wavenumbers by the bytes
    of their doubles, then regime and multiplicity."""
    values = [sol.A1, sol.A2, sol.B1, sol.B2, sol.k_right, sol.k_left]
    return np.array(values, dtype=complex).tobytes(), sol.regime, sol.multiplicity


def outcome(f, *args):
    """What f(*args) gives, or the type and text of the error it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def stacked_solutions(energies, zs, require_singular=True):
    return [solution_bytes(s) for s in
            oracle.nullspace_solutions(energies, zs, require_singular)]


def looped_solutions(energies, zs, require_singular=True):
    return [solution_bytes(ref_nullspace_solution(E, Z, require_singular))
            for E, Z in zip(energies, zs)]


def stacked_reports(energies, zs, grid_n=256):
    sols = oracle.nullspace_solutions(energies, zs, require_singular=False)
    return [report_bytes(r) for r in oracle.residual_checks(sols, energies, zs, grid_n)]


def looped_reports(energies, zs, grid_n=256):
    reports = []
    for E, Z in zip(energies, zs):
        sol = ref_nullspace_solution(E, Z, require_singular=False)
        reports.append(report_bytes(ref_residual_check(sol, E, Z, grid_n)))
    return reports


class TestStackedCoreIsThePerRootPath:
    """``nullspace_solutions`` and ``residual_checks`` must give each entry
    the bytes of the per-root ``nullspace_solution`` and ``residual_check``
    they replaced, and raise the error a loop of them raised first."""

    @pytest.mark.parametrize("block_cells", [None, 1, 3000, 1 << 30])
    def test_zero_set_roots(self, monkeypatch, block_cells):
        # in blocks of 16 roots, and of one root, 11 roots or all 41 at once
        if block_cells is not None:
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", block_cells)
        energies, zs = roots_at(ZERO_SET_Z)
        assert len(energies) == 41
        expected = looped_solutions(energies, zs)
        assert stacked_solutions(energies, zs) == expected
        assert [solution_bytes(nullspace_solution(E, Z)) for E, Z in zip(energies, zs)] == expected
        sols = oracle.nullspace_solutions(energies, zs)
        expected = [report_bytes(ref_residual_check(s, E, Z)) for s, E, Z in zip(sols, energies, zs)]
        got = oracle.residual_checks(sols, energies, zs)
        assert [report_bytes(r) for r in got] == expected
        assert [report_bytes(residual_check(s, E, Z))
                for s, E, Z in zip(sols, energies, zs)] == expected

    @pytest.mark.parametrize("Z", ZERO_SET_Z)
    def test_each_coupling_alone(self, Z):
        energies, zs = roots_at((Z,))
        assert stacked_solutions(energies, zs) == looped_solutions(energies, zs)
        assert stacked_reports(energies, zs) == looped_reports(energies, zs)

    @pytest.mark.parametrize("Z", [0.0, 1e-8, 1e-3])
    def test_near_degenerate_doublets(self, Z):
        energies, zs = roots_at((Z,), s_max=6.0 * math.pi)
        if Z == 0.0:  # E = 0 is refused there (see the degenerate case below)
            energies, zs = energies[1:], zs[1:]
        sols = oracle.nullspace_solutions(energies, zs)
        assert sum(s.multiplicity == 2 for s in sols) >= 8
        assert stacked_solutions(energies, zs) == looped_solutions(energies, zs)
        assert stacked_reports(energies, zs) == looped_reports(energies, zs)

    def test_broken_energies_alone_and_among_real_ones(self):
        energies, zs = broken_members()
        assert stacked_solutions(energies, zs) == looped_solutions(energies, zs)
        assert stacked_reports(energies, zs) == looped_reports(energies, zs)
        real_e, real_z = roots_at((3.0, 6.0))
        mixed_e = real_e[:3] + energies[:2] + real_e[3:] + energies[2:]
        mixed_z = real_z[:3] + zs[:2] + real_z[3:] + zs[2:]
        assert stacked_solutions(mixed_e, mixed_z) == looped_solutions(mixed_e, mixed_z)
        assert stacked_reports(mixed_e, mixed_z) == looped_reports(mixed_e, mixed_z)

    def test_off_spectrum_energies_without_the_rank_test(self):
        energies = [5.0, 40.0, -3.0, complex(3.0, 2.0), complex(10.0, -0.5), complex(7.0, -0.0)]
        zs = [0.0, 3.0, 17.0, 2.0, 6.0, 2.5]
        expected = looped_solutions(energies, zs, require_singular=False)
        assert stacked_solutions(energies, zs, require_singular=False) == expected
        assert stacked_reports(energies, zs) == looped_reports(energies, zs)

    @pytest.mark.parametrize("grid_n", [64, 255, 257, 1000])
    def test_grid_sizes(self, grid_n):
        energies, zs = roots_at((0.5, 10.0))
        b_e, b_z = broken_members()
        energies, zs = energies + b_e, zs + b_z
        assert stacked_reports(energies, zs, grid_n) == looped_reports(energies, zs, grid_n)

    def test_piece_values_row_by_row(self):
        # each stacked row against the one-solution closed forms, mixed regimes
        energies, zs = roots_at((0.5, 17.0))
        b_e, b_z = broken_members()
        sols = oracle.nullspace_solutions(energies + b_e, zs + b_z)
        sols.append(WaveSolution(A1=1.0, A2=0.0, B1=0.0, B2=-1.0, k_right=1j * math.pi,
                                 k_left=-1j * math.pi, regime=Regime.EXACT))
        stack = oracle._stack_solutions(sols)
        for side in ("right", "left"):
            for x in (np.linspace(0.0, 1.0, 257) - (side == "left"), np.array([0.5]), np.array([])):
                values = np.array(oracle._stacked_piece_values(*stack, side, x))
                for sol, rows in zip(sols, values.transpose(1, 0, 2)):
                    expected = ref_piece_values(sol, side, x)
                    assert rows.tobytes() == np.array(expected).tobytes(), (sol, side, x.size)

    def test_stacked_svd_and_determinant_are_each_matrix_alone(self):
        energies, zs = roots_at(ZERO_SET_Z)
        b_e, b_z = broken_members()
        W = np.array([boundary_matrix(E, Z) for E, Z in zip(energies + b_e, zs + b_z)], complex)
        row_max = np.abs(W).max(axis=-1, keepdims=True)
        scaled = W / np.where(row_max > 0.0, row_max, 1.0)
        _, sigma, Vh = np.linalg.svd(scaled)
        dets = np.linalg.det(W)
        for i, (E, Z) in enumerate(zip(energies + b_e, zs + b_z)):
            W_i = np.array(boundary_matrix(E, Z), dtype=complex)
            m = np.abs(W_i).max(axis=1, keepdims=True)
            _, s_i, Vh_i = np.linalg.svd(W_i / np.where(m > 0.0, m, 1.0))
            assert sigma[i].tobytes() == s_i.tobytes() and Vh[i].tobytes() == Vh_i.tobytes()
            assert dets[i] == boundary_determinant(E, Z)

    @pytest.mark.parametrize("energies, zs", [
        ([PI2, 10.0, 4 * PI2], [0.0, 1.0, 0.0]),             # not an eigenvalue
        ([PI2, 0.0, 10.0], [0.0, 0.0, 1.0]),                 # degenerate basis first
        ([PI2, 10.0, 0.0], [0.0, 1.0, 0.0]),                 # not an eigenvalue first
        ([PI2, 4 * PI2, 1e-300], [0.0, 0.0, 0.0]),           # degenerate basis last
        ([PI2, 5.0, 10.0], [0.0, -1.0, 1.0]),                # bad coupling first
        ([PI2, 10.0, 5.0], [0.0, 1.0, math.nan]),            # not an eigenvalue first
        ([0.0, 5.0], [-1e-20, 1.0]),                         # degenerate before the coupling
        ([PI2, 5.0], [0.0, math.inf]),
        ([PI2, 10.0, -1e7], [0.0, 1.0, 1.0]),               # not an eigenvalue, then overflow
        ([PI2, -1e7, 10.0], [0.0, 1.0, 1.0]),               # overflow first
        ([PI2, math.inf, 10.0], [0.0, 1.0, 1.0]),           # cmath's domain error first
        ([], []),
    ])
    def test_first_failing_entry_raises_the_loop_error(self, energies, zs):
        for require_singular in (True, False):
            assert outcome(stacked_solutions, energies, zs, require_singular) == outcome(
                looped_solutions, energies, zs, require_singular)
        assert outcome(stacked_reports, energies, zs) == outcome(looped_reports, energies, zs)

    def test_errors_of_residual_checks(self):
        sol = nullspace_solution(PI2, 0.0)
        for grid_n, zs in ((63, [0.0, 0.0]), (256, [0.0, -1.0]), (256, [math.nan, -1.0])):
            got = outcome(oracle.residual_checks, [sol, sol], [PI2, PI2], zs, grid_n)
            assert got == outcome(lambda: [ref_residual_check(sol, PI2, Z, grid_n) for Z in zs])
            assert isinstance(got[0], type) and issubclass(got[0], ValueError)
        assert oracle.residual_checks([], [], []) == []

    def test_mismatched_lengths_raise_before_any_work(self, monkeypatch):
        # zip would certify the shorter prefix; a bad coupling, a short grid
        # or an entry that is no eigenvalue must not be reached first
        sol = nullspace_solution(PI2, 0.0)

        def no_work(*args):
            raise AssertionError("an entry was looked at")

        monkeypatch.setattr(oracle, "boundary_matrix", no_work)
        monkeypatch.setattr(oracle, "validate_coupling", no_work)
        for energies, zs in (([PI2, 4 * PI2], [0.0]), ([PI2], [0.0, math.nan]), ([], [0.0])):
            with pytest.raises(ValueError, match=f"{len(energies)} energies but {len(zs)} couplings"):
                oracle.nullspace_solutions(energies, zs)
        for sols, energies, zs in (([sol], [PI2, 5.0], [0.0, 0.0]), ([sol, sol], [PI2], [-1.0]),
                                   ([sol], [PI2], [0.0, 0.0]), ([], [PI2], [])):
            with pytest.raises(ValueError, match=f"{len(sols)} solutions, {len(energies)} "
                               f"energies and {len(zs)} couplings"):
                oracle.residual_checks(sols, energies, zs, grid_n=32)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_and_vanishing_solutions(self):
        # NaN and overflowing amplitudes give the loop's NaN and inf fields;
        # a wave function that vanishes on both grids the loop's zero division
        sols = [
            WaveSolution(math.nan, 1.0, 0.0, -1.0, 1j * math.pi, -1j * math.pi, Regime.EXACT),
            WaveSolution(1e308, 1e308, -1e308, -1e308, 1j * math.pi, -1j * math.pi, Regime.EXACT),
            WaveSolution(math.inf, 0.5, 0.2, -1.0, 1 + 2j, 1 - 2j, Regime.BROKEN),
            WaveSolution(1.0, 0.5, 0.2, -1.0, complex(math.nan, 2.0), 1 - 2j, Regime.EXACT),
            WaveSolution(1.0, 1.0, 1.0, 1.0, 800 + 2j, 1 - 2j, Regime.EXACT),
        ]
        energies, zs = [PI2, 10.0, complex(3.0, 1.0), 5.0, 2.0], [0.0, 2.0, 2.0, 0.5, 1.0]
        got = oracle.residual_checks(sols, energies, zs)
        for sol, E, Z, report in zip(sols, energies, zs, got):
            assert report_bytes(report) == report_bytes(ref_residual_check(sol, E, Z))
        vanishing = WaveSolution(1.0, -1.0, 1.0, -1.0, 0j, 0j, Regime.EXACT)
        expected = outcome(ref_residual_check, vanishing, 0.0, 0.0)
        assert expected[0] is ZeroDivisionError
        assert outcome(oracle.residual_checks, sols + [vanishing], energies + [0.0], zs + [0.0]) \
            == expected


def pt_states():
    """(solution, Z) of every state the pt-symmetry tests and verify's
    check look at, and the unbroken states up to s = 6*pi at five couplings."""
    states = [(WaveSolution(A1=1.0, A2=1.0, B1=-1.0, B2=-1.0, k_right=1j * math.pi,
                            k_left=-1j * math.pi, regime=Regime.EXACT), 0.0)]
    for Z in (0.0, 0.5, 2.0, 3.0, 5.0):
        energies, zs = roots_at((Z,), s_max=6.0 * math.pi)
        if Z == 0.0:
            energies, zs = energies[1:], zs[1:]  # the refused E = 0
        states += [(s, Z) for s in oracle.nullspace_solutions(energies, zs)]
    for a, b in ((0.358129, 0.622216), (0.36, 0.62)):  # TestPTSymmetry's and verify's
        _, energy = solve_broken(6.0, BrokenParams.bind(a, b, 6.0))
        for sign in (+1.0, -1.0):
            states.append((nullspace_solution(complex(energy.re_E, sign * energy.eps), 6.0), 6.0))
    return states


def modulus_asymmetry(sol, grid_n=256):
    """max_x ||psi(-x)| - |psi(x)|| / max |psi|: for every |lambda| = 1,
    |psi(-x)* - lambda psi(x)| >= ||psi(-x)| - |psi(x)||, so this bounds the
    mismatch at any phase from below."""
    psi = evaluate_wavefunction(sol, np.linspace(-1.0, 1.0, grid_n))
    return float(np.max(np.abs(np.abs(psi[::-1]) - np.abs(psi)))) / float(np.max(np.abs(psi)))


class TestPTAtLeastSquaresPhase:
    """The mismatch at the least-squares phase is rounding-sized on every
    PT-symmetric state and never below the phase-free bound on a broken one."""

    def test_symmetric_and_broken_states(self):
        states = pt_states()
        symmetric = [(s, Z) for s, Z in states if s.regime is Regime.EXACT and s.multiplicity == 1]
        broken = [s for s, _ in states if s.regime is Regime.BROKEN]
        assert len(symmetric) >= 49 and len(broken) == 4
        for sol, Z in symmetric:
            assert pt_symmetry_check(sol, Z) <= 1e-8, (sol, Z)
        for sol in broken:
            assert 0.1 <= modulus_asymmetry(sol) <= pt_symmetry_check(sol, 6.0)

    @pytest.mark.parametrize("grid_n", [64, 255, 257, 1000])
    def test_bounds_hold_on_other_grids(self, grid_n):
        # |psi(-x)* - lambda psi(x)| <= 2 max |psi| for any unit lambda; the
        # modulus bound holds up to rounding, which is its size on symmetric
        # states
        for sol, Z in pt_states():
            value = pt_symmetry_check(sol, Z, grid_n)
            assert modulus_asymmetry(sol, grid_n) <= value + 1e-15 and value <= 2.0, (sol, Z)
            if sol.regime is Regime.BROKEN:
                assert 0.1 <= modulus_asymmetry(sol, grid_n) <= value
            elif sol.multiplicity == 1:
                assert value <= 1e-8, (sol, Z)

    def test_value_is_the_mismatch_at_the_least_squares_phase(self):
        x = np.linspace(-1.0, 1.0, 256)
        for sol, Z in pt_states():
            psi = evaluate_wavefunction(sol, x)
            psi_pt = np.conj(psi[::-1])
            overlap = complex(np.vdot(psi, psi_pt))
            lam = overlap / abs(overlap)
            expected = float(np.max(np.abs(psi_pt - lam * psi))) / float(np.max(np.abs(psi)))
            assert pt_symmetry_check(sol, Z) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_broken_value_is_near_the_best_phase(self):
        # no phase does better than the modulus bound, and the least-squares
        # phase lands within a few percent of the best of a fine scan
        x = np.linspace(-1.0, 1.0, 256)
        lams = np.exp(2j * math.pi * np.arange(3600) / 3600)[:, None]
        for sol, Z in pt_states():
            if sol.regime is not Regime.BROKEN:
                continue
            psi = evaluate_wavefunction(sol, x)
            best = float(np.min(np.max(np.abs(np.conj(psi[::-1]) - lams * psi), axis=1)))
            best /= float(np.max(np.abs(psi)))
            value = pt_symmetry_check(sol, Z)
            assert modulus_asymmetry(sol) <= best * (1 + 1e-12)
            assert best <= value <= 1.1 * best

    def test_global_phase_and_scale_leave_the_value(self):
        c = 3.7 * cmath.exp(0.9j)
        for sol, Z in pt_states():
            scaled = dataclasses.replace(sol, A1=c * sol.A1, A2=c * sol.A2,
                                         B1=c * sol.B1, B2=c * sol.B2)
            assert pt_symmetry_check(scaled, Z) == pytest.approx(
                pt_symmetry_check(sol, Z), rel=1e-9, abs=1e-12), (sol, Z)

    def test_broken_partners_have_the_same_mismatch(self):
        # conjugation-parity swaps the partners, so each is as far from
        # symmetric as the other
        for a, b in ((0.358129, 0.622216), (0.36, 0.62)):
            _, energy = solve_broken(6.0, BrokenParams.bind(a, b, 6.0))
            minus, plus = (nullspace_solution(complex(energy.re_E, sign * energy.eps), 6.0)
                           for sign in (-1.0, 1.0))
            assert pt_symmetry_check(plus, 6.0) == pytest.approx(
                pt_symmetry_check(minus, 6.0), rel=1e-9)

    def test_zero_overlap_takes_the_unit_phase(self):
        # the products of the overlap underflow to 0, and lambda = 1 is the
        # cosine mode's own phase
        tiny = WaveSolution(1e-300, 1e-300, -1e-300, -1e-300, 1j * math.pi, -1j * math.pi,
                            Regime.EXACT)
        psi = evaluate_wavefunction(tiny, np.linspace(-1.0, 1.0, 256))
        assert complex(np.vdot(psi, np.conj(psi[::-1]))) == 0.0
        assert pt_symmetry_check(tiny, 0.0) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sol", [
        WaveSolution(math.nan, 1.0, -1.0, -1.0, 1j * math.pi, -1j * math.pi, Regime.EXACT),
        WaveSolution(1.0, 1.0, -1.0, math.nan, 1j * math.pi, -1j * math.pi, Regime.EXACT),
        WaveSolution(1.0, 0.5, 0.2, -1.0, complex(math.nan, 2.0), 1 - 2j, Regime.EXACT),
        # psi overflows to inf, and inf - inf or inf * 0 is NaN
        WaveSolution(1e308, 1e308, -1e308, -1e308, 1j * math.pi, -1j * math.pi, Regime.EXACT),
        WaveSolution(math.inf, 0.5, 0.2, -1.0, 1 + 2j, 1 - 2j, Regime.BROKEN),
        WaveSolution(1.0, 1.0, 1.0, 1.0, 800 + 2j, 1 - 2j, Regime.EXACT),
    ])
    def test_non_finite_wave_functions_give_nan(self, sol):
        # a NaN measurement, which verify's _worst keeps and its bound fails
        for grid_n in (256, 257):
            assert math.isnan(pt_symmetry_check(sol, 2.0, grid_n))

    def test_vanishing_wave_function_raises(self):
        vanishing = WaveSolution(1.0, -1.0, 1.0, -1.0, 0j, 0j, Regime.EXACT)
        with pytest.raises(ZeroDivisionError):
            pt_symmetry_check(vanishing, 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sol", [
        # real, up to about 1.4e308: the overlap overflows, psi does not
        WaveSolution(0.5e308, 0.1e308, -0.5e308, -0.1e308, 1 + 0j, 1 + 0j, Regime.EXACT),
        WaveSolution(0.6e308, 0.1e308, 0.6e308, 0.1e308, 1 + 0j, 1 + 0j, Regime.EXACT),
    ])
    def test_overflowing_overlap_stays_within_the_bounds(self, sol):
        # |psi(-x)* - lambda psi(x)| <= 2 max |psi| for any unit lambda
        for grid_n in (256, 257):
            value = pt_symmetry_check(sol, 2.0, grid_n)
            assert modulus_asymmetry(sol, grid_n) <= value <= 2.0
