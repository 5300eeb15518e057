import math

import numpy as np
import pytest

from ptcircle.errors import FitConditioningError
from ptcircle.secular import SecularBranch
from ptcircle.spectrum import (
    fit_series_numeric,
    perturbative_energy,
    quartic_coefficient_printed_variant,
    series_coefficients,
)

from _mp_reference import (
    mp_reference_energy,
    mp_series_coefficients,
    mp_truncated_energy,
)

MINUS = SecularBranch.FACTOR_MINUS
PLUS = SecularBranch.FACTOR_PLUS
BRANCHES = (MINUS, PLUS)


def closed_c2(n, branch):
    return branch.series_sign * (-1) ** n / (n * math.pi)


def closed_c4(n, branch):
    a = n * math.pi
    return branch.series_sign * (-1) ** n / (6.0 * a) - 1.0 / a**3


def closed_c6(n, branch):
    a = n * math.pi
    sp = branch.series_sign * (-1) ** n
    return sp / (120.0 * a) + sp / (6.0 * a**3) - 1.0 / (3.0 * a**3) + 2.0 * sp / a**5


class TestRecursion:
    def test_leading_coefficient_closed_form(self):
        assert series_coefficients(1, MINUS, 2).coeffs[0] == pytest.approx(
            -0.31830988618379067, rel=1e-15
        )
        assert series_coefficients(2, PLUS, 2).coeffs[0] == pytest.approx(
            -0.15915494309189534, rel=1e-15
        )
        for n in range(1, 5):
            for branch in BRANCHES:
                got = series_coefficients(n, branch, 2).coeffs[0]
                assert got == pytest.approx(closed_c2(n, branch), rel=1e-15)

    def test_quartic_coefficient(self):
        assert series_coefficients(1, MINUS, 4).coeffs[1] == pytest.approx(
            -0.085303182130497934, rel=1e-14
        )
        for n in range(1, 5):
            for branch in BRANCHES:
                got = series_coefficients(n, branch, 4).coeffs[1]
                assert got == pytest.approx(closed_c4(n, branch), rel=1e-13)

    def test_sextic_coefficient(self):
        for n in range(1, 4):
            for branch in BRANCHES:
                got = series_coefficients(n, branch, 6).coeffs[2]
                assert got == pytest.approx(closed_c6(n, branch), rel=1e-13)

    def test_matches_extended_precision_twin(self):
        for n in (1, 2, 3, 4):
            for branch in BRANCHES:
                got = series_coefficients(n, branch, 8).coeffs
                ref = mp_series_coefficients(n, branch, 8)
                for g, r in zip(got, ref):
                    assert g == pytest.approx(float(r), rel=1e-12)

    def test_branch_symmetry_of_leading_order(self):
        for n in range(1, 7):
            c_minus = series_coefficients(n, MINUS, 2).coeffs[0]
            c_plus = series_coefficients(n, PLUS, 2).coeffs[0]
            assert c_plus == -c_minus

    def test_printed_variant_differs_from_recursion(self):
        # the tabulated quartic variant omits a 1/6 factor; the recursion and
        # the numeric fit below agree with each other, not with it
        assert quartic_coefficient_printed_variant(1, MINUS) == pytest.approx(
            -0.35056142061699016, rel=1e-14
        )
        derived = series_coefficients(1, MINUS, 4).coeffs[1]
        assert abs(derived - quartic_coefficient_printed_variant(1, MINUS)) > 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            series_coefficients(0, MINUS, 4)
        with pytest.raises(ValueError):
            series_coefficients(1, MINUS, 3)
        with pytest.raises(ValueError):
            series_coefficients(1, MINUS, 22)


class TestNumericFit:
    TS = np.linspace(0.05, 0.2, 24)

    def test_fit_is_the_arbiter_for_the_quartic_term(self):
        fitted = fit_series_numeric(1, MINUS, self.TS, 4)
        assert fitted.coeffs[0] == pytest.approx(-0.318310, abs=1e-6)
        assert fitted.coeffs[1] == pytest.approx(-0.085300, abs=5e-6)
        # rules out the printed variant by three orders of magnitude
        assert abs(fitted.coeffs[1] - quartic_coefficient_printed_variant(1, MINUS)) > 0.26

    def test_sign_flip_across_branches(self):
        fitted = fit_series_numeric(1, PLUS, self.TS, 2)
        assert fitted.coeffs[0] == pytest.approx(+0.318310, abs=1e-6)

    def test_level_three_leading(self):
        fitted = fit_series_numeric(3, MINUS, self.TS, 2)
        assert fitted.coeffs[0] == pytest.approx(-1.0 / (3.0 * math.pi), rel=1e-6)

    def test_agreement_through_quartic_all_levels(self):
        for n in (1, 2, 3):
            for branch in BRANCHES:
                derived = series_coefficients(n, branch, 4)
                fitted = fit_series_numeric(n, branch, self.TS, 4)
                for c_d, c_f in zip(derived.coeffs, fitted.coeffs):
                    assert c_f == pytest.approx(c_d, rel=1e-6)

    def test_higher_orders_within_fit_resolution(self):
        # double-precision fit resolution degrades with the order; the pinned
        # bounds reflect what the conditioning analysis allows
        for branch in BRANCHES:
            derived = series_coefficients(1, branch, 8)
            fitted = fit_series_numeric(1, branch, self.TS, 8)
            assert fitted.coeffs[2] == pytest.approx(derived.coeffs[2], rel=1e-4)
            assert fitted.coeffs[3] == pytest.approx(derived.coeffs[3], rel=2e-2)

    def test_degenerate_samples(self):
        with pytest.raises(FitConditioningError):
            fit_series_numeric(1, MINUS, [0.1, 0.1, 0.1, 0.1], 4)
        with pytest.raises(FitConditioningError):
            fit_series_numeric(1, MINUS, [0.05, 0.1], 4)
        with pytest.raises(ValueError):
            fit_series_numeric(1, MINUS, [0.1, 0.5, 0.15, 0.18], 4)
        # a NaN sample fails both bounds of the range, and the range test
        for ts in ([0.1, math.nan, 0.15, 0.18], [0.1, 0.05, 0.15, -0.0], [math.nan] * 4):
            with pytest.raises(ValueError, match=r"t samples must lie in \(0, 0.2\]"):
                fit_series_numeric(1, MINUS, ts, 4)


class TestPerturbativeEnergy:
    def test_convergence_to_scan_extended_precision(self):
        coeffs = series_coefficients(1, MINUS, 6).coeffs
        e_ser, _ = mp_truncated_energy(1, MINUS, 0.2, coeffs)
        e_ref = mp_reference_energy(1, MINUS, 0.2)
        assert abs(float(e_ser - e_ref)) <= 1e-10

    def test_convergence_order_slopes(self):
        # |E_series(2M) - E_ref| ~ t^(2M+2); measured on the mp twin so the
        # double rounding floor of the shipped coefficients cannot mask the
        # slope at small couplings
        for n in (1, 2, 3):
            for branch in BRANCHES:
                for M in (1, 2, 3):
                    coeffs = mp_series_coefficients(n, branch, 2 * M)
                    zs = np.geomspace(0.05, 0.4, 6)
                    logs = []
                    for Z in zs:
                        e_ser, t_ser = mp_truncated_energy(n, branch, float(Z), coeffs)
                        e_ref = mp_reference_energy(n, branch, float(Z))
                        err = abs(float(e_ser - e_ref))
                        logs.append((math.log(float(t_ser)), math.log(err)))
                    slope = np.polyfit([x for x, _ in logs], [y for _, y in logs], 1)[0]
                    assert slope == pytest.approx(2 * M + 2, abs=0.3), (n, branch, M)

    def test_error_bounded_with_stable_constant(self):
        # err <= C t^(2M+2) with C stable across the sweep
        for n in (1, 2, 3, 4):
            for branch in BRANCHES:
                for M in (1, 2):
                    coeffs = mp_series_coefficients(n, branch, 2 * M)
                    cs = []
                    for Z in (0.05, 0.1, 0.2, 0.4):
                        e_ser, t_ser = mp_truncated_energy(n, branch, Z, coeffs)
                        e_ref = mp_reference_energy(n, branch, Z)
                        err = abs(float(e_ser - e_ref))
                        cs.append(err / float(t_ser) ** (2 * M + 2))
                    assert max(cs) / min(cs) < 3.0, (n, branch, M)

    def test_shipped_double_pipeline_slope_for_ground_doublet(self):
        # the all-double path resolves the slope cleanly for M <= 2 at n = 1;
        # at M = 3 the truncation error dips under the double rounding floor
        # for small couplings, so that case lives in the mp-twin test above
        for branch in BRANCHES:
            for M in (1, 2):
                xs, ys = [], []
                for Z in (0.1, 0.2, 0.4):
                    e_d = perturbative_energy(1, branch, Z, 2 * M)
                    e_ref = mp_reference_energy(1, branch, Z)
                    t = Z / (2.0 * math.pi)
                    xs.append(math.log(t))
                    ys.append(math.log(abs(e_d - float(e_ref))))
                slope = np.polyfit(xs, ys, 1)[0]
                assert slope == pytest.approx(2 * M + 2, abs=0.3), (branch, M)
