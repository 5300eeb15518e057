import cmath
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from ptcircle import oracle, verify
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

from test_spectrum import recorded, same_bits

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


def assert_fminbound_is_scipy(func, lo, hi):
    f_ours, ours = recorded(func)
    f_ref, ref = recorded(func)
    x, fun = oracle._fminbound(f_ours, lo, hi)
    res = minimize_scalar(f_ref, bounds=(lo, hi), method="bounded")
    assert same_bits(x, res.x) and same_bits(fun, res.fun), (lo, hi, x, res.x, fun, res.fun)
    assert ours == ref, (lo, hi)
    assert len(ours) == res.nfev


class TestFminboundIsScipyBounded:
    """``oracle._fminbound`` is scipy's ``_minimize_scalar_bounded``: the same
    evaluations and the same x and minimum to the bit."""

    def test_mismatch_of_every_checked_state(self, monkeypatch):
        # the states of verify's pt-symmetry check and of TestPTSymmetry
        calls = []
        fminbound = oracle._fminbound

        def recording(func, lo, hi):
            calls.append((func, lo, hi))
            return fminbound(func, lo, hi)

        monkeypatch.setattr(oracle, "_fminbound", recording)
        assert verify._pt_symmetry().passed
        cosine = WaveSolution(
            A1=1.0, A2=1.0, B1=-1.0, B2=-1.0,
            k_right=1j * math.pi, k_left=-1j * math.pi, regime=Regime.EXACT,
        )
        pt_symmetry_check(cosine, 0.0)
        _, energy = solve_broken(6.0, BrokenParams.bind(0.358129, 0.622216, 6.0))
        pt_symmetry_check(nullspace_solution(complex(energy.re_E, -energy.eps), 6.0), 6.0)
        monkeypatch.undo()
        assert len(calls) == len(scan_roots(SpectrumRequest(Z=2.0, s_max=3.5 * math.pi))) + 3
        for func, lo, hi in calls:
            assert_fminbound_is_scipy(func, lo, hi)

    @pytest.mark.parametrize(
        "func, lo, hi",
        [
            (lambda x: (x - 0.3) ** 2, 0.0, 1.0),              # inside
            (lambda x: math.cos(x), 2.0, 4.0),                 # inside, at pi
            (lambda x: abs(x - 1.0 / 3.0), -1.0, 2.0),         # a kink inside
            (lambda x: x**4 - x, -2.0, 3.0),                   # inside, flat
            (lambda x: x, 0.0, 1.0),                           # at the lower end
            (lambda x: -math.exp(x), -1.0, 0.5),               # at the upper end
            (lambda x: 1.0, -1.0, 1.0),                        # constant
            (lambda x: math.sin(40.0 * x) + 0.1 * x, 0.0, 0.3),  # several minima
        ],
    )
    def test_analytic_functions(self, func, lo, hi):
        assert_fminbound_is_scipy(func, lo, hi)

    def test_nan_wave_function_raises(self):
        # its phase window is NaN, which scipy's bounded minimizer refused too
        sol = WaveSolution(
            A1=math.nan, A2=1.0, B1=-1.0, B2=-1.0,
            k_right=1j * math.pi, k_left=-1j * math.pi, regime=Regime.EXACT,
        )
        with pytest.raises(ValueError, match="finite"):
            pt_symmetry_check(sol, 0.0)


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
