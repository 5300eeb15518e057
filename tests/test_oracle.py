import cmath
import dataclasses
import math

import numpy as np
import pytest

from ptcircle import oracle
from ptcircle.errors import NotAnEigenvalueError
from ptcircle.oracle import (
    WaveSolution,
    boundary_determinant,
    boundary_matrices,
    boundary_matrix,
    nullspace_solution,
    pt_norm,
    pt_symmetry_check,
    residual_check,
)
from ptcircle.spectrum import SpectrumRequest, scan_roots
from ptcircle.transition import BrokenParams, solve_above_fold, solve_broken

from _oracle_reference import (
    determinant_scale,
    ref_integral,
    ref_nullspace_solution,
    ref_psi,
    ref_wavefunction,
)

PI2 = math.pi**2

# a NaN amplitude or wavenumber, an infinite amplitude, or Re k < 0, which no
# principal root has: the closed forms are undefined, and each measure is NaN
NON_FINITE_SOLUTIONS = [
    WaveSolution(math.nan, 1.0, 1.0, -1.0, 1j * math.pi, -1j * math.pi),
    WaveSolution(-1.0, 1.0, 1.0, math.nan, 1j * math.pi, -1j * math.pi),
    WaveSolution(1.0, 0.5, 0.2, -1.0, complex(math.nan, 2.0), 1 - 2j),
    WaveSolution(math.inf, 0.5, 0.2, -1.0, 1 + 2j, 1 - 2j),
    WaveSolution(1.0, 1.0, 1.0, 1.0, -800 + 2j, 1 - 2j),
    WaveSolution(1.0, 1.0, 1.0, 1.0, 1 + 2j, -1e-300 + 0j),
]


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
        # flipping the square roots swaps the two basis functions of each
        # side, each scaled by e^{kR} or e^{kL}: an even permutation, so the
        # determinant only gains the factor e^{2 (kR + kL)}
        for E, Z in ((9.0, 3.0), (30.0, 5.0), (2.0, 0.5), (complex(5.0, 2.0), 6.0)):
            kR = cmath.sqrt(-E + 1j * Z)
            kL = cmath.sqrt(-E - 1j * Z)
            def W_of(kR, kL):
                eR, eL = cmath.exp(-kR), cmath.exp(-kL)
                return np.array([
                    [1.0, eR, -eL, -1.0],
                    [kR, -kR * eR, -kL * eL, kL],
                    [eR, 1.0, -1.0, -eL],
                    [kR * eR, -kR, -kL, kL * eL],
                ])
            assert W_of(kR, kL).tobytes() == np.array(boundary_matrix(E, Z), complex).tobytes()
            d1 = complex(np.linalg.det(W_of(kR, kL)))
            d2 = complex(np.linalg.det(W_of(-kR, -kL)))
            assert d2 == pytest.approx(cmath.exp(2.0 * (kR + kL)) * d1, rel=1e-10)

    def test_column_rescaling_of_the_two_sided_exponential_basis(self):
        # W is the matrix of the basis e^{+-kR x}, e^{+-kL (x+1)} with the
        # columns of A1 and B1 scaled by e^{-kR} and e^{-kL}; on the real
        # axis their product is positive, so Re det keeps its sign
        for E, Z in ((9.0, 3.0), (30.0, 5.0), (2.0, 0.5), (-4.0, 1.0), (complex(5.0, 2.0), 6.0)):
            kR = cmath.sqrt(-E + 1j * Z)
            kL = cmath.sqrt(-E - 1j * Z)
            ekR, emkR, ekL, emkL = (cmath.exp(v) for v in (kR, -kR, kL, -kL))
            two_sided = np.array([
                [ekR, emkR, -1.0, -1.0],
                [kR * ekR, -kR * emkR, -kL, kL],
                [1.0, 1.0, -ekL, -emkL],
                [kR, -kR, -kL * ekL, kL * emkL],
            ])
            scaled = two_sided * np.array([emkR, 1.0, emkL, 1.0])
            np.testing.assert_allclose(np.array(boundary_matrix(E, Z)), scaled, rtol=1e-14, atol=0.0)
            factor = emkR * emkL
            if complex(E).imag == 0.0:
                assert factor.imag == 0.0 and factor.real > 0.0

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


def assert_matrices_close(W, E, Z):
    """Each stacked matrix within 4 units of rounding of max(1, |entry|) of
    ``boundary_matrix`` at its energy and coupling, entry by entry."""
    E, Z = np.broadcast_arrays(E, Z)
    assert W.shape == E.shape + (4, 4)
    pairs = zip(E.ravel().tolist(), Z.ravel().tolist())
    expected = np.array([boundary_matrix(e, z) for e, z in pairs], dtype=complex).reshape(W.shape)
    bound = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(W - expected) <= bound)


class TestBoundaryMatrices:
    """The stacked matrices of real energies must hold, entry by entry, those
    of the per-energy ``boundary_matrix`` to rounding."""

    @pytest.mark.parametrize("Z", [0.0, -0.0, 1e-8, 0.5, 3.0, 5.0, 10.0, 17.0, 25.0])
    def test_each_matrix_to_rounding(self, Z):
        s = np.arange(math.pi / 128, 4.6 * math.pi, math.pi / 128)  # the verify sweep
        E = np.concatenate([s**2 - (Z / (2.0 * s)) ** 2,
                            [0.0, -0.0, 1e-300, -1e-300, PI2, -1.0, -1e3, 1e4, 5e-324]])
        assert_matrices_close(boundary_matrices(E, Z), E, Z)

    @pytest.mark.parametrize("Z", [0.0, -0.0])
    def test_uncoupled_left_wavenumber_is_the_conjugate(self, Z):
        # E < 0 at Z = 0: kR = sqrt(-E) real and kL its conjugate, with the
        # sign of zero the scalar builder gives it; E > 0: kL = -i sqrt(E)
        E = np.array([-1e-300, -0.25, -1.0, -PI2, -1e3, 0.25, PI2])
        W = boundary_matrices(E, Z)
        kR, kL = W[:, 1, 0], W[:, 1, 3]
        assert kL.tobytes() == kR.conj().tobytes()
        negative = E < 0.0
        assert np.all(kR[negative].imag == 0.0) and np.all(kR[negative].real > 0.0)
        assert kL[~negative].tolist() == [-1j * math.sqrt(e) for e in E[~negative].tolist()]
        for e, k_left in zip(E.tolist(), kL.tolist()):
            assert cmath.isclose(k_left, boundary_matrix(e, Z)[1][3], rel_tol=4e-16)
        assert_matrices_close(W, E, Z)

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
        assert_matrices_close(boundary_matrices(E, Z), E, Z)
        column = np.array([[0.5], [-0.0], [3.0]])
        grid = boundary_matrices(E[:7], column)
        assert grid.shape == (3, 7, 4, 4)
        assert_matrices_close(grid, E[:7], column)


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
        # psi = e^{i pi x}: A1 e^{i pi (x-1)} and B2 e^{i pi (x+1)}, so
        # amplitudes (-1, 0, 0, -1) with kR = i pi, kL = -i pi
        return WaveSolution(
            A1=-1.0, A2=0.0, B1=0.0, B2=-1.0, k_right=1j * math.pi, k_left=-1j * math.pi,
        )

    def test_exact_circle_eigenpair(self):
        report = residual_check(self.exact_mode_solution(), PI2, 0.0)
        assert report.ode_residual_analytic <= 1e-12
        assert max(report.bc_residuals) <= 1e-12

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
        sol = ref_nullspace_solution(E_bad, 5.0, require_singular=False)
        report = residual_check(sol, E_bad, 5.0)
        assert max(report.bc_residuals) >= 1e-5
        # the wavenumbers of the right root checked at the wrong energy
        report = residual_check(nullspace_solution(pts[0].E, 5.0), E_bad, 5.0)
        assert report.ode_residual_analytic == pytest.approx(1e-3, rel=1e-6)

    def test_gaps_are_the_boundary_matrix_times_the_amplitudes(self):
        # |W a| at the exact ends over ||psi||_2, whatever the amplitudes'
        # scale; the norm against mpmath's quadrature of psi
        cases = [(p.E, 5.0) for p in scan_roots(SpectrumRequest(Z=5.0, s_max=12.0))]
        cases += list(zip(*broken_members()))[:2] + [(E, 40.0) for E in (3.0, complex(20.0, 5.0))]
        for E, Z in cases:
            sol = ref_nullspace_solution(E, Z, require_singular=False)
            a = np.array([sol.A1, sol.A2, sol.B1, sol.B2])
            gaps = np.abs(np.array(boundary_matrix(E, Z), dtype=complex) @ a)
            norm = math.sqrt(ref_integral(lambda x: abs(ref_psi(sol, x)) ** 2).real)
            report = residual_check(sol, E, Z)
            # at a root the gaps are rounding-sized, and so is their spread
            np.testing.assert_allclose(report.bc_residuals, gaps / norm, rtol=1e-9, atol=1e-13)
            c = 2.5e307 * cmath.exp(0.3j)
            scaled = dataclasses.replace(sol, A1=c * sol.A1, A2=c * sol.A2, B1=c * sol.B1,
                                         B2=c * sol.B2)
            np.testing.assert_allclose(residual_check(scaled, E, Z).bc_residuals,
                                       report.bc_residuals, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("sol", NON_FINITE_SOLUTIONS)
    def test_non_finite_wave_functions_give_nan(self, sol):
        report = residual_check(sol, 5.0, 2.0)
        assert all(math.isnan(v) for v in (report.ode_residual_analytic, *report.bc_residuals))

    def test_vanishing_wave_function_raises(self):
        with pytest.raises(ZeroDivisionError):
            residual_check(WaveSolution(1.0, -1.0, 1.0, -1.0, 0j, 0j), 0.0, 0.0)

    @pytest.mark.parametrize("Z", [-1.0, math.nan, math.inf])
    def test_bad_coupling_raises(self, Z):
        with pytest.raises(ValueError, match="coupling"):
            residual_check(self.exact_mode_solution(), PI2, Z)


class TestPTSymmetry:
    def test_cosine_mode_is_symmetric(self):
        # psi = 2 cos(pi x) = -e^{i pi (x-1)} + e^{-i pi x} on the right
        sol = WaveSolution(
            A1=-1.0, A2=1.0, B1=1.0, B2=-1.0, k_right=1j * math.pi, k_left=-1j * math.pi,
        )
        assert pt_symmetry_check(sol) <= 1e-12

    def test_unbroken_eigenfunctions(self):
        pts = scan_roots(SpectrumRequest(Z=2.0, s_max=3.5 * math.pi))
        for p in pts:
            sol = nullspace_solution(p.E, 2.0)
            assert pt_symmetry_check(sol) <= 1e-8

    @pytest.mark.parametrize("Z", [2.5, 20.0, 80.0])
    def test_unbroken_up_to_s128(self, Z):
        # the mismatch of a symmetric state is formed from amplitude
        # differences, so it stays rounding-sized up to large s
        pts = scan_roots(SpectrumRequest(Z=Z, s_max=128.0))
        sols = oracle.nullspace_solutions([p.E for p in pts], [Z] * len(pts))
        assert len(sols) >= 70 and all(sol.multiplicity == 1 for sol in sols)
        for sol in sols:
            assert pt_symmetry_check(sol) <= 1e-8, sol
            assert abs(pt_norm(sol).imag) <= 1e-14, sol

    @pytest.mark.parametrize("Z", [0.5, 2.0, 10.0, 40.0])
    def test_real_root_amplitudes_are_pt_images(self, Z):
        # psi(-x)* on (0, 1) is conj(B2) e^{kR (x-1)} + conj(B1) e^{-kR x},
        # as conj(kL) = kR on the real axis: PT symmetry, psi(-x)* = lambda
        # psi(x), reads (conj B2, conj B1) = lambda (A1, A2) with |lambda| = 1
        pts = scan_roots(SpectrumRequest(Z=Z, s_max=40.0))
        simple = [s for s in oracle.nullspace_solutions([p.E for p in pts], [Z] * len(pts))
                  if s.multiplicity == 1]
        assert len(simple) >= 10
        for sol in simple:
            assert sol.k_left == sol.k_right.conjugate()
            lam = (sol.B2.conjugate() / sol.A1 if abs(sol.A1) >= abs(sol.A2)
                   else sol.B1.conjugate() / sol.A2)
            assert abs(abs(lam) - 1.0) <= 1e-8, sol
            assert abs(sol.B2.conjugate() - lam * sol.A1) <= 1e-8, sol
            assert abs(sol.B1.conjugate() - lam * sol.A2) <= 1e-8, sol

    def test_broken_pair_asymmetric(self):
        params, energy = solve_broken(6.0, BrokenParams.bind(0.358129, 0.622216, 6.0))
        E = complex(energy.re_E, -energy.eps)
        sol = nullspace_solution(E, 6.0)
        assert pt_symmetry_check(sol) >= 0.1

    def test_pt_swaps_broken_partners(self):
        # conjugation-parity maps the eps eigenfunction onto the -eps partner
        params, energy = solve_broken(6.0, BrokenParams.bind(0.358129, 0.622216, 6.0))
        sol_minus = nullspace_solution(complex(energy.re_E, -energy.eps), 6.0)
        sol_plus = nullspace_solution(complex(energy.re_E, +energy.eps), 6.0)
        x = np.linspace(-1.0, 1.0, 257)
        psi_m = ref_wavefunction(sol_minus, x)
        psi_p = ref_wavefunction(sol_plus, x)
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
        # both members of each pair, from the near-fold solve to 10^4 past it
        for fold in sixteen_folds:
            for dZ in (1e-3, 0.3, 4.0, 9.5, 60.0, 1e3, 1e4):
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
    of their doubles, then the multiplicity."""
    values = [sol.A1, sol.A2, sol.B1, sol.B2, sol.k_right, sol.k_left]
    return np.array(values, dtype=complex).tobytes(), sol.multiplicity


def outcome(f, *args):
    """What f(*args) gives, or the type and text of the error it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def stacked_solutions(energies, zs):
    return [solution_bytes(s) for s in oracle.nullspace_solutions(energies, zs)]


def looped_solutions(energies, zs):
    return [solution_bytes(ref_nullspace_solution(E, Z)) for E, Z in zip(energies, zs)]


class TestStackedCoreIsThePerRootPath:
    """``nullspace_solutions`` must give each entry the bytes of the per-root
    ``nullspace_solution`` it replaced, and raise the error a loop of them
    raised first."""

    def test_zero_set_roots(self):
        energies, zs = roots_at(ZERO_SET_Z)
        assert len(energies) == 41
        expected = looped_solutions(energies, zs)
        assert stacked_solutions(energies, zs) == expected
        assert [solution_bytes(nullspace_solution(E, Z)) for E, Z in zip(energies, zs)] == expected

    @pytest.mark.parametrize("Z", ZERO_SET_Z)
    def test_each_coupling_alone(self, Z):
        energies, zs = roots_at((Z,))
        assert stacked_solutions(energies, zs) == looped_solutions(energies, zs)

    @pytest.mark.parametrize("Z", [0.0, 1e-8, 1e-3])
    def test_near_degenerate_doublets(self, Z):
        energies, zs = roots_at((Z,), s_max=6.0 * math.pi)
        if Z == 0.0:  # E = 0 is refused there (see the degenerate case below)
            energies, zs = energies[1:], zs[1:]
        sols = oracle.nullspace_solutions(energies, zs)
        assert sum(s.multiplicity == 2 for s in sols) >= 8
        assert stacked_solutions(energies, zs) == looped_solutions(energies, zs)

    def test_broken_energies_alone_and_among_real_ones(self):
        energies, zs = broken_members()
        assert stacked_solutions(energies, zs) == looped_solutions(energies, zs)
        real_e, real_z = roots_at((3.0, 6.0))
        mixed_e = real_e[:3] + energies[:2] + real_e[3:] + energies[2:]
        mixed_z = real_z[:3] + zs[:2] + real_z[3:] + zs[2:]
        assert stacked_solutions(mixed_e, mixed_z) == looped_solutions(mixed_e, mixed_z)

    @pytest.mark.parametrize("E, Z", [
        (5.0, 0.0), (40.0, 3.0), (-3.0, 17.0),
        (complex(3.0, 2.0), 2.0), (complex(10.0, -0.5), 6.0), (complex(7.0, -0.0), 2.5),
    ])
    def test_off_spectrum_energy_is_refused_as_the_loop_refuses_it(self, E, Z):
        # the rank test is always on: alone, as the one-entry call and after
        # real roots, an energy off the spectrum raises the loop's error
        want = outcome(looped_solutions, [E], [Z])
        assert want[0] is NotAnEigenvalueError
        assert outcome(stacked_solutions, [E], [Z]) == want
        assert outcome(nullspace_solution, E, Z) == want
        real_e, real_z = roots_at((3.0,))
        assert outcome(stacked_solutions, real_e + [E], real_z + [Z]) == want

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
        assert outcome(stacked_solutions, energies, zs) == outcome(looped_solutions, energies, zs)

    def test_mismatched_lengths_raise_before_any_work(self, monkeypatch):
        # zip would certify the shorter prefix; a bad coupling or an entry
        # that is no eigenvalue must not be reached first
        def no_work(*args):
            raise AssertionError("an entry was looked at")

        monkeypatch.setattr(oracle, "boundary_matrix", no_work)
        monkeypatch.setattr(oracle, "validate_coupling", no_work)
        for energies, zs in (([PI2, 4 * PI2], [0.0]), ([PI2], [0.0, math.nan]), ([], [0.0])):
            with pytest.raises(ValueError, match=f"{len(energies)} energies but {len(zs)} couplings"):
                oracle.nullspace_solutions(energies, zs)


def pt_states():
    """(solution, broken) of every state the pt-symmetry tests and verify's
    check look at, and the unbroken states up to s = 6*pi at five couplings;
    broken is True for the four members of complex pairs."""
    states = [(WaveSolution(A1=-1.0, A2=1.0, B1=1.0, B2=-1.0, k_right=1j * math.pi,
                            k_left=-1j * math.pi), False)]
    for Z in (0.0, 0.5, 2.0, 3.0, 5.0):
        energies, zs = roots_at((Z,), s_max=6.0 * math.pi)
        if Z == 0.0:
            energies, zs = energies[1:], zs[1:]  # the refused E = 0
        states += [(s, False) for s in oracle.nullspace_solutions(energies, zs)]
    for a, b in ((0.358129, 0.622216), (0.36, 0.62)):  # TestPTSymmetry's and verify's
        _, energy = solve_broken(6.0, BrokenParams.bind(a, b, 6.0))
        for sign in (+1.0, -1.0):
            states.append((nullspace_solution(complex(energy.re_E, sign * energy.eps), 6.0), True))
    return states


def unit_scaled(sol):
    """sol with its amplitudes divided by their largest modulus, which the
    pointwise evaluator needs at amplitudes of about 1e308."""
    peak = max(abs(sol.A1), abs(sol.A2), abs(sol.B1), abs(sol.B2))
    return dataclasses.replace(sol, A1=sol.A1 / peak, A2=sol.A2 / peak, B1=sol.B1 / peak,
                               B2=sol.B2 / peak)


def reference_norm(sol):
    """||psi||_2 by quadrature of the pointwise psi."""
    return math.sqrt(ref_integral(lambda x: abs(ref_psi(sol, x)) ** 2).real)


def reference_overlap(sol):
    """<conj psi(-x), psi>, the integral of conj psi(-x) conj psi(x), by
    quadrature."""
    return ref_integral(lambda x: (ref_psi(sol, -x) * ref_psi(sol, x)).conjugate())


def reference_mismatch(sol, lam):
    """||conj psi(-x) - lam psi||_2 / ||psi||_2 by quadrature."""
    def gap(x):
        return abs(ref_psi(sol, -x).conjugate() - lam * ref_psi(sol, x)) ** 2
    return math.sqrt(ref_integral(gap).real) / reference_norm(sol)


def modulus_asymmetry(sol):
    """|| |psi(-x)| - |psi(x)| ||_2 / ||psi||_2 by quadrature: for every
    |lambda| = 1, |psi(-x)* - lambda psi(x)| >= ||psi(-x)| - |psi(x)||
    pointwise, so this bounds the mismatch at any phase from below."""
    sol = unit_scaled(sol)
    gap = ref_integral(lambda x: (abs(ref_psi(sol, -x)) - abs(ref_psi(sol, x))) ** 2).real
    return math.sqrt(gap) / reference_norm(sol)


class TestPTAtLeastSquaresPhase:
    """The mismatch at the least-squares phase is rounding-sized on every
    PT-symmetric state and never below the phase-free bound on a broken one."""

    def test_symmetric_and_broken_states(self):
        states = pt_states()
        symmetric = [s for s, broken in states if not broken and s.multiplicity == 1]
        broken = [s for s, broken in states if broken]
        assert len(symmetric) >= 49 and len(broken) == 4
        for sol in symmetric:
            assert pt_symmetry_check(sol) <= 1e-8, sol
        for sol in broken:
            assert 0.1 <= modulus_asymmetry(sol) <= pt_symmetry_check(sol)

    def test_no_phase_does_better(self):
        # in L2 the least-squares phase is the best one: the reference
        # mismatch grows when the phase is turned either way
        for sol in [sol for sol, broken in pt_states() if broken]:
            overlap = reference_overlap(sol)
            lam = overlap / abs(overlap)
            value = pt_symmetry_check(sol)
            assert value == pytest.approx(reference_mismatch(sol, lam), rel=1e-9)
            for turn in (0.05, -0.05, 0.5 * math.pi, math.pi):
                assert reference_mismatch(sol, lam * cmath.exp(1j * turn)) > value

    def test_global_phase_and_scale_leave_the_value(self):
        c = 3.7 * cmath.exp(0.9j)
        for sol, _ in pt_states():
            scaled = dataclasses.replace(sol, A1=c * sol.A1, A2=c * sol.A2,
                                         B1=c * sol.B1, B2=c * sol.B2)
            assert pt_symmetry_check(scaled) == pytest.approx(
                pt_symmetry_check(sol), rel=1e-9, abs=1e-12), sol

    def test_broken_partners_have_the_same_mismatch(self):
        # conjugation-parity swaps the partners, so each is as far from
        # symmetric as the other
        for a, b in ((0.358129, 0.622216), (0.36, 0.62)):
            _, energy = solve_broken(6.0, BrokenParams.bind(a, b, 6.0))
            minus, plus = (nullspace_solution(complex(energy.re_E, sign * energy.eps), 6.0)
                           for sign in (-1.0, 1.0))
            assert pt_symmetry_check(plus) == pytest.approx(pt_symmetry_check(minus), rel=1e-9)

    def test_zero_overlap_takes_the_unit_phase(self):
        # with A1 = A2 and B1 = -B2 both Gram weights of each piece have the
        # coefficient 0, so the overlap is exactly 0 whatever the wavenumbers;
        # every phase then gives ||psi_pt||^2 + ||psi||^2 = 2 ||psi||^2
        sol = WaveSolution(1.0, 1.0, 1.0, -1.0, 1j * math.pi, -1j * math.pi)
        assert reference_overlap(sol) == pytest.approx(0.0, abs=1e-12)
        assert pt_symmetry_check(sol) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("sol", NON_FINITE_SOLUTIONS)
    def test_non_finite_wave_functions_give_nan(self, sol):
        # a NaN measurement, which verify's _worst keeps and its bound fails
        assert math.isnan(pt_symmetry_check(sol))
        assert cmath.isnan(pt_norm(sol))

    def test_vanishing_wave_function_raises(self):
        vanishing = WaveSolution(1.0, -1.0, 1.0, -1.0, 0j, 0j)
        with pytest.raises(ZeroDivisionError):
            pt_symmetry_check(vanishing)
        with pytest.raises(ZeroDivisionError):
            pt_norm(vanishing)

    @pytest.mark.parametrize("sol", [
        # real, up to about 1.4e308: unscaled, the overlap would overflow
        WaveSolution(0.5e308 * math.e, 0.1e308, -0.5e308 * math.e, -0.1e308, 1 + 0j, 1 + 0j),
        WaveSolution(0.6e308 * math.e, 0.1e308, 0.6e308 * math.e, 0.1e308, 1 + 0j, 1 + 0j),
        # the cosine mode, symmetric at any scale
        WaveSolution(-1e308, 1e308, 1e308, -1e308, 1j * math.pi, -1j * math.pi),
        WaveSolution(-1e-300, 1e-300, 1e-300, -1e-300, 1j * math.pi, -1j * math.pi),
    ])
    def test_extreme_amplitudes_stay_within_the_bounds(self, sol):
        # ||psi_pt - lambda psi||^2 = 2 ||psi||^2 - 2 |<psi_pt, psi>| at the
        # least-squares phase, so the value is at most sqrt 2
        value = pt_symmetry_check(sol)
        assert value == pytest.approx(pt_symmetry_check(unit_scaled(sol)), rel=1e-12, abs=1e-15)
        assert modulus_asymmetry(sol) <= value + 1e-12
        assert value <= math.sqrt(2.0) * (1.0 + 1e-12)
        assert pt_norm(sol) == pytest.approx(pt_norm(unit_scaled(sol)), rel=1e-12, abs=1e-15)


def closed_form_states():
    """(solution, broken) of a real root, both members of the Z = 6 pair and
    of pair 3 at Z_3 + 1e4, the circle's exact mode e^{i pi x} at Z = 0,
    where a Gram exponent is exactly 0, the ground state at Z = 1e-12, where
    Re k is about 7e-7, and an asymmetric state whose wavenumbers differ in
    real part by 799, where e^{799} would overflow."""
    from ptcircle.transition import interval_fold

    E = scan_roots(SpectrumRequest(Z=5.0, s_max=20.0))[3].E
    ground = scan_roots(SpectrumRequest(Z=1e-12, s_max=4.0))[0].E
    states = [pytest.param(nullspace_solution(E, 5.0), False, id="real root"),
              pytest.param(WaveSolution(-1.0, 0.0, 0.0, -1.0, 1j * math.pi, -1j * math.pi),
                           False, id="e^{i pi x}"),
              pytest.param(nullspace_solution(ground, 1e-12), False, id="ground at Z=1e-12"),
              pytest.param(WaveSolution(1.0, 0.5j, -0.3, 1.0, 1 + 2j, 800 - 2j), True,
                           id="Re kL - Re kR = 799")]
    fold = interval_fold(3)
    for Z, energy in ((6.0, solve_broken(6.0, BrokenParams.bind(0.358129, 0.622216, 6.0))[1]),
                      (fold.Z_crit + 1e4, solve_above_fold(fold, fold.Z_crit + 1e4)[1])):
        states += [pytest.param(nullspace_solution(complex(energy.re_E, sign * energy.eps), Z),
                                True, id=f"Z={Z:.6g}, sign {sign:+.0f}") for sign in (1.0, -1.0)]
    return states


class TestClosedFormsAgainstQuadrature:
    """The oracle's closed-form norm, overlaps and PT mismatch against
    mpmath's quadrature of the pointwise evaluator of the tests."""

    @pytest.mark.parametrize("sol, broken", closed_form_states())
    def test_norm_overlap_and_mismatch(self, sol, broken):
        psi, mirror = oracle._psi_and_mirror(sol)
        peak = max(abs(sol.A1), abs(sol.A2), abs(sol.B1), abs(sol.B2))
        norm = reference_norm(sol)
        assert oracle._norm(psi) * peak == pytest.approx(norm, rel=1e-12)
        pt = tuple(((a.conjugate(), b.conjugate(), k.conjugate()),) for ((a, b, k),) in mirror)
        overlap = reference_overlap(sol)
        assert oracle._inner(pt, psi) * peak**2 == pytest.approx(overlap, rel=1e-12, abs=1e-14)
        parity = ref_integral(lambda x: ref_psi(sol, -x).conjugate() * ref_psi(sol, x))
        assert pt_norm(sol) == pytest.approx(parity / norm**2, rel=1e-12, abs=1e-14)
        expected = reference_mismatch(sol, overlap / abs(overlap))
        value = pt_symmetry_check(sol)
        if broken:
            assert value == pytest.approx(expected, rel=1e-9)
        else:  # both rounding-sized
            assert value <= 1e-12 and expected <= 1e-12

    def test_mismatch_tends_to_sqrt2_far_above_the_folds(self, sixteen_folds):
        # far above its fold each member lives on one half of the circle and
        # its PT image on the other, so their overlap tends to 0
        for fold in sixteen_folds:
            Z = fold.Z_crit + 1e4
            _, energy = solve_above_fold(fold, Z)
            for sign in (+1.0, -1.0):
                value = pt_symmetry_check(nullspace_solution(complex(energy.re_E, sign * energy.eps), Z))
                assert 1.40 <= value <= math.sqrt(2.0), (fold.nu, sign)


class TestPTNorm:
    @pytest.mark.parametrize("delta", [1e-4, 1e-6])
    def test_merging_levels_have_opposite_signs(self, delta):
        # below Z_0 the pair's PT-norms are -+0.591 sqrt(Z_0 - Z), the upper
        # level negative: the fold is a collision of opposite PT-norms
        from ptcircle.transition import interval_fold, real_pair_near_fold

        fold = interval_fold(0)
        Z = fold.Z_crit - delta
        energies = sorted(p.energy().re_E for p in real_pair_near_fold(Z, fold))
        lower, upper = (pt_norm(nullspace_solution(E, Z)) for E in energies)
        assert lower.real > 0.0 > upper.real
        for value in (lower, upper):
            assert abs(abs(value.real) / math.sqrt(delta) - 0.5910) <= 1e-3
            assert abs(value.imag) <= 1e-15

    @pytest.mark.parametrize("nu", range(5))
    def test_vanishes_at_each_fold(self, nu):
        # the merged state at Z_nu is PT-symmetric and self-orthogonal: the
        # exceptional point where the two PT-norms meet at 0
        from ptcircle.transition import interval_fold

        fold = interval_fold(nu)
        s = fold.s_merge
        t = fold.Z_crit / (2.0 * s)
        sol = nullspace_solution(s * s - t * t, fold.Z_crit)
        assert pt_symmetry_check(sol) <= 1e-8
        assert abs(pt_norm(sol)) <= 1e-12

    def test_real_and_independent_of_phase_and_scale(self):
        rng = np.random.default_rng(5)
        sols = [sol for sol, _ in pt_states()]
        for _ in range(50):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            k = rng.uniform(0.0, 30.0, 2) + 1j * rng.uniform(-30.0, 30.0, 2)
            sols.append(WaveSolution(*a.tolist(), *k.tolist()))
        c = 3.7 * cmath.exp(0.9j)
        for sol in sols:
            value = pt_norm(sol)
            # |<psi, psi(-x)>| <= ||psi||^2, and the parity operator is Hermitian
            assert abs(value.imag) <= 1e-14 and abs(value.real) <= 1.0 + 1e-14, sol
            scaled = dataclasses.replace(sol, A1=c * sol.A1, A2=c * sol.A2,
                                         B1=c * sol.B1, B2=c * sol.B2)
            assert pt_norm(scaled) == pytest.approx(value, rel=1e-12, abs=1e-14), sol
