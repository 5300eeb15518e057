import cmath
import math
import struct
import sys

import mpmath as mp
import numpy as np
import pytest

from _mp_reference import mp_constraint_factor
from _tracker_reference import ref_constraint_factor_derivatives
from ptcircle.secular import (
    SecularBranch,
    SpectralPoint,
    _factor_pair,
    _factor_state,
    constraint_factor,
    factor_value,
    secular_s,
    secular_t,
    t_sinh_t,
)
from ptcircle.spectrum import SpectrumRequest, _scan_grid, refine_root
from ptcircle.transition import BrokenParams, ComplexEnergy, CriticalPoint

MINUS = SecularBranch.FACTOR_MINUS
PLUS = SecularBranch.FACTOR_PLUS


class TestSecularT:
    def test_zero_coupling_closed_form(self):
        # 4 e^-2 (e^2 - 1)^2 = 16 sinh(1)^2
        assert secular_t(1.0, 0.0) == pytest.approx(22.097565528669052, rel=1e-14)
        assert secular_t(1.0, 0.0) == pytest.approx(16.0 * math.sinh(1.0) ** 2, rel=1e-14)

    def test_value_at_t3_z5(self):
        # first term 144 sinh(3)^2 ~ 1.445e4 dominates the second ~ -6.09
        assert secular_t(3.0, 5.0) == pytest.approx(14445.4384477723, rel=1e-12)
        assert secular_t(3.0, 5.0) > 0.0

    def test_vanishes_at_scanned_roots(self):
        from ptcircle.spectrum import SpectrumRequest, scan_roots

        pts = scan_roots(SpectrumRequest(Z=5.0, s_max=4.0 * math.pi))
        for p in pts:
            t = p.t
            scale = 4.0 * math.exp(-2.0 * t) * math.expm1(2.0 * t) ** 2 * t * t
            assert abs(secular_t(t, 5.0)) <= 1e-9 * scale

    def test_domain_error(self):
        with pytest.raises(ValueError):
            secular_t(0.0, 1.0)
        with pytest.raises(ValueError):
            secular_t(-1.0, 0.0)

    def test_positive_at_large_t(self):
        for Z in (0.0, 1.0, 30.0, 100.0):
            for t in (10.0, 50.0, 200.0, 400.0):
                assert secular_t(t, Z) > 0.0
        rng = np.random.default_rng(5)
        for _ in range(2000):
            t = rng.uniform(10.0, 349.0)
            Z = rng.uniform(0.0, 100.0)
            assert secular_t(t, Z) > 0.0


EPS = sys.float_info.epsilon


def t_form_scale(t, Z):
    """The magnitude of the terms of the t form, 4e^{-2t}(e^{2t}-1)^2 t^2 + 4Z^2/t^2."""
    t, Z = np.asarray(t, dtype=float), np.asarray(Z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return 4.0 * np.exp(-2.0 * t) * np.expm1(2.0 * t) ** 2 * t * t + 4.0 * Z * Z / (t * t)


def s_form_scale(s, Z):
    """The magnitude of the terms of the s form, 16s^2 + e^{-Z/s}(e^{Z/s}-1)^2 Z^2/s^2."""
    s, Z = np.asarray(s, dtype=float), np.asarray(Z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = Z / s
        return 16.0 * s * s + np.exp(-u) * np.expm1(u) ** 2 * Z * Z / (s * s)


def assert_close(got, expected, scale):
    """Each entry of got within 16*eps*scale of the scalar value expected,
    and equal to it (NaN to NaN) where that is not finite."""
    got, expected = np.asarray(got), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    bound = np.broadcast_to(16.0 * EPS * scale, expected.shape)
    finite = np.isfinite(expected)
    assert np.array_equal(got[~finite], expected[~finite], equal_nan=True)
    assert np.all(np.abs(got[finite] - expected[finite]) <= bound[finite])


def _scalar_or_error(t, Z):
    try:
        return secular_t(t, Z)
    except ValueError:
        return ValueError


def _column_error(t, zs):
    """The error of the column of scalar calls at t over the couplings zs, as
    the sign map raises it: None if every call passes, else the type and
    text of the call at the largest Z (Z/t overflows first there)."""
    if all(_scalar_or_error(t, Z) is not ValueError for Z in zs):
        return None
    return _outcome(secular_t, t, max(zs))


class TestSecularTOnGrid:
    """A t row against a Z column must give, at each cell, the scalar call's
    value within 16 units of rounding of the terms, the same sign wherever
    the value exceeds that bound (the sign map of figure 2), and raise where
    some scalar call raises: the error of the first failing column."""

    GRID = np.array([0.0, 1e-300, 0.5, 5.0, 20.0, 200.0, 1e4, 1e6, 1e154, 1e155, 1e200,
                     1e300, 1.7e306])
    T = [1e-161, 1e-10, 1e-3, 0.01, 0.05, 0.3, 1.0, 7.0, 20.0, 340.0, 349.0, 349.9, 350.0,
         350.5, 400.0, 1e300]

    @pytest.mark.parametrize("t", T)
    @pytest.mark.parametrize("grid", [GRID, GRID[:8], GRID[:1], np.linspace(0.0, 200.0, 301)])
    def test_matches_scalar_at_every_entry(self, t, grid):
        expected = [_scalar_or_error(t, Z) for Z in grid.tolist()]
        if ValueError in expected:
            with pytest.raises(ValueError) as info:
                secular_t(np.array([t]), grid[:, None])
            assert (ValueError, str(info.value)) == _column_error(t, grid.tolist())
            return
        got = secular_t(np.array([t]), grid[:, None])
        assert got.shape == (grid.size, 1)
        self.assert_cells(got, np.array(expected)[:, None], np.array([t]), grid[:, None])

    @staticmethod
    def assert_cells(got, expected, t, Z):
        scale = t_form_scale(t, Z)
        assert_close(got, expected, scale)
        # the printed sign of figure 2, wherever rounding cannot flip it
        with np.errstate(invalid="ignore"):
            clear = np.abs(expected) > 16.0 * EPS * scale
        assert np.array_equal(np.sign(got[clear]), np.sign(expected[clear]))

    @pytest.mark.parametrize("grid", [GRID, GRID[:8], np.linspace(0.0, 200.0, 301)])
    def test_whole_grid_matches_scalar_at_every_cell(self, grid):
        # every column that passes, above t = 350 and NaN cells included
        ts = [t for t in self.T if _column_error(t, grid.tolist()) is None]
        got = secular_t(np.array(ts), grid[:, None])
        assert got.shape == (grid.size, len(ts))
        expected = np.array([[secular_t(t, Z) for t in ts] for Z in grid.tolist()])
        self.assert_cells(got, expected, np.array(ts), grid[:, None])
        if grid is self.GRID:
            assert {t for t in ts if t > 350.0} and np.isnan(got).any()

    @pytest.mark.parametrize("ts", [
        [1.0, 1e-170, 1e-3, 400.0],   # t*t underflows before Z/t overflows
        [1.0, 1e-3, 1e-170, 400.0],   # Z/t overflows before t*t underflows
        [0.3, 1e-161, -1.0, 1e-3],    # t <= 0 after a column that passes
        [7.0, 1e-10, 1e-161, 1e-3],
    ])
    def test_first_failing_column_raises(self, ts):
        zs = self.GRID.tolist()
        failing = [e for e in (_column_error(t, zs) for t in ts) if e is not None]
        assert len(failing) >= 2 and failing[0] != failing[1]
        with pytest.raises(ValueError) as info:
            secular_t(np.array(ts), self.GRID[:, None])
        assert (ValueError, str(info.value)) == failing[0]

    def test_covers_every_regime(self):
        # the parametrization above reaches each branch of the scalar rule
        column = self.GRID[:, None]
        assert secular_t(np.array([400.0]), column).ravel().tolist() == [math.inf] * len(self.GRID)
        assert np.isnan(secular_t(np.array([349.0]), column)).any()
        assert secular_t(np.array([0.3]), np.array([[0.0]]))[0, 0] == secular_t(0.3, 0.0) > 0.0
        assert _scalar_or_error(1e-3, 1.7e306) is ValueError  # Z/t overflows
        assert _scalar_or_error(1e-161, 0.0) is not ValueError  # t*t is subnormal, not 0

    @pytest.mark.parametrize("t", [0.0, -1.0, 1e-170])
    def test_bad_t_raises(self, t):
        with pytest.raises(ValueError) as info:
            secular_t(np.array([1.0, t]), np.array([[1.0], [2.0]]))
        assert (ValueError, str(info.value)) == _outcome(secular_t, t, 2.0)

    @pytest.mark.parametrize("bad", [-1.0, -0.5e-300, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("t", [1.0, 400.0])
    def test_bad_coupling_raises(self, t, bad):
        with pytest.raises(ValueError) as info:
            secular_t(t, bad)
        # in a column, the scalar call's error at that coupling
        with pytest.raises(ValueError) as in_column:
            secular_t(np.array([t, 2.0]), np.array([[1.0], [bad], [2.0]]))
        assert str(in_column.value) == str(info.value)

    def test_negative_zero_is_a_coupling(self):
        assert secular_t(np.array([1.0]), np.array([[-0.0]])).tolist() == [[secular_t(1.0, -0.0)]]


def _outcome(kernel, *args):
    """The scalar call's value, or the type and text of its error."""
    try:
        return kernel(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _failed(outcome):
    return isinstance(outcome, tuple)


class TestArrayKernels:
    """An ndarray of points must give, entry by entry, the scalar call's value
    within 16 units of rounding of the terms of the form, and raise the
    scalar call's error at the first entry where one would."""

    T = [1e-161, 1e-10, 1e-3, 0.05, 1.0, 20.0, 349.0, 349.9, 350.0, 350.5, 354.9, 355.0,
         400.0, 1e300, math.inf, 0.0, -0.0, -1.0, 1e-170, math.nan]
    S = [1e-300, 1e-170, 1e-10, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e300, 9e307, math.inf, 0.0, -1.0,
         math.nan]
    Z = [0.0, -0.0, 1e-300, 0.5, 5.0, 100.0, 699.9, 700.0, 700.1, 1e4, 1e154, 1e155, 1e300,
         1.7e306, -1.0, math.nan, math.inf]

    def assert_entrywise(self, kernel, scale, x, Z):
        """Every passing pair as one array, and each failing pair put into it."""
        expected = [_outcome(kernel, a, b) for a, b in zip(x, Z)]
        ok = [i for i, e in enumerate(expected) if not _failed(e)]
        x_ok, Z_ok = np.array([x[i] for i in ok]), np.array([Z[i] for i in ok])
        assert_close(kernel(x_ok, Z_ok), [expected[i] for i in ok], scale(x_ok, Z_ok))
        failing = [i for i, e in enumerate(expected) if _failed(e)]
        for i in failing:
            # second from the end, after every passing entry but one
            xs = [x[j] for j in ok[:-1]] + [x[i], x[ok[-1]]]
            zs = [Z[j] for j in ok[:-1]] + [Z[i], Z[ok[-1]]]
            with pytest.raises(expected[i][0]) as info:
                kernel(np.array(xs), np.array(zs))
            assert str(info.value) == expected[i][1]
        # two failing entries: the first one's error
        for i, j in zip(failing, failing[1:]):
            with pytest.raises(expected[i][0]) as info:
                kernel(np.array([x[ok[0]], x[i], x[j]]), np.array([Z[ok[0]], Z[i], Z[j]]))
            assert str(info.value) == expected[i][1]
        return expected

    def test_t_form(self):
        t, Z = (v.ravel().tolist() for v in np.meshgrid(self.T, self.Z))
        expected = self.assert_entrywise(secular_t, t_form_scale, t, Z)
        # every regime of the scalar rule is reached
        values = [e for e in expected if not _failed(e)]
        assert {math.inf, -math.inf, 0.0} <= set(values) and any(map(math.isnan, values))
        assert {e[1].split(",")[0] for e in expected if _failed(e)} >= {
            "coupling must be non-negative", "coupling must be finite",
            "secular_t requires t > 0", "secular_t requires t*t > 0",
            "secular_t requires a finite Z/t"}
        # either side of the clamp, where the unclamped value is NaN
        assert math.isnan(secular_t(349.9, 1e300)) and secular_t(350.5, 1e300) == math.inf

    def test_s_form(self):
        s, Z = (v.ravel().tolist() for v in np.meshgrid(self.S, self.Z))
        # u = Z/s either side of 700
        s += [1.0, 1.0, 0.1, 0.1, 1e-170]
        Z += [700.0, 700.0000000000001, 70.0, 70.00000000000001, 7e-168]
        expected = self.assert_entrywise(secular_s, s_form_scale, s, Z)
        values = [e for e in expected if not _failed(e)]
        assert {math.inf, 0.0} <= set(values) and any(map(math.isnan, values))
        assert {e[0] for e in expected if _failed(e)} == {ValueError, ZeroDivisionError}
        assert "math domain error" in {e[1] for e in expected if _failed(e)}  # cos(inf)

    def test_scalar_coupling(self):
        t = np.array([1e-3, 0.05, 1.0, 349.0, 400.0])
        for Z in (0.0, 5.0, 1e300):
            assert_close(secular_t(t, Z), [secular_t(x, Z) for x in t.tolist()],
                         t_form_scale(t, Z))
            assert_close(secular_s(t, Z), [secular_s(x, Z) for x in t.tolist()],
                         s_form_scale(t, Z))
        with pytest.raises(ValueError, match="coupling must be non-negative"):
            secular_t(t, -1.0)

    @pytest.mark.parametrize("branch", [PLUS, MINUS])
    def test_factor(self, branch):
        values = [0.0, 1e-300, 1e-3, 0.5, math.pi, 20.0, 349.9, 350.0, 350.5, 1e3, 1e300]
        t, s = (v.ravel() for v in np.meshgrid(values, values))
        got = factor_value(t, s, branch)
        expected = [factor_value(a, b, branch) for a, b in zip(t.tolist(), s.tolist())]
        with np.errstate(over="ignore"):
            scale = np.abs(t * np.sinh(t)) + np.abs(s)
        assert_close(got, expected, scale)
        assert math.inf in expected


class TestSecularS:
    def test_circle_eigenvalue(self):
        assert secular_s(math.pi, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_value(self):
        assert secular_s(math.pi / 2.0, 0.0) == pytest.approx(-39.478417604357434, rel=1e-14)
        assert secular_s(math.pi / 2.0, 0.0) == pytest.approx(-4.0 * math.pi**2, rel=1e-14)

    def test_vanishes_at_scanned_roots(self):
        from ptcircle.spectrum import SpectrumRequest, scan_roots

        pts = scan_roots(SpectrumRequest(Z=0.1, s_max=7.0))
        for p in pts:
            s = p.s
            local = 8.0 * s * s * 2.0 + abs(p.t * math.sinh(p.t)) * 16.0 + 1.0
            assert abs(secular_s(s, 0.1)) <= 1e-9 * local

    def test_domain_error(self):
        with pytest.raises(ValueError):
            secular_s(0.0, 1.0)
        with pytest.raises(ValueError):
            secular_s(-2.0, 0.5)


class TestFactor:
    def test_hermitian_root(self):
        assert factor_value(0.0, math.pi, MINUS) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_edge_value(self):
        assert factor_value(0.0, math.pi / 2.0, MINUS) == pytest.approx(
            -math.pi / 2.0, rel=1e-15
        )

    def test_generic_value(self):
        assert factor_value(1.0, 1.0, PLUS) == pytest.approx(
            2.016672178451698, rel=1e-15
        )

    def test_parity_in_t(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = rng.uniform(0.0, 5.0)
            s = rng.uniform(0.0, 20.0)
            for branch in (PLUS, MINUS):
                assert factor_value(t, s, branch) == factor_value(-t, s, branch)

    def test_overflow_guard(self):
        assert factor_value(800.0, 1.0, MINUS) == math.inf


class TestConstraintKernel:
    # (s, Z): t = 0.1, t ~ 0.81, t = 200 (exact in binary), the first fold (s_merge, Z_0)
    POINTS = [(2.0, 0.4), (4.3, 7.0), (0.0625, 25.0), (2.50380392309, 5.54230970041)]
    ORDERS = [(1, 0), (2, 0), (0, 1), (1, 1)]  # F_s, F_ss, F_Z, F_sZ

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    @pytest.mark.parametrize("s, Z", POINTS)
    def test_factor_is_factor_value_on_the_curve(self, branch, s, Z):
        assert constraint_factor(s, Z, branch) == factor_value(Z / (2.0 * s), s, branch)

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    @pytest.mark.parametrize("s, Z", POINTS)
    def test_derivatives_match_mpmath(self, branch, s, Z):
        at = (mp.mpf(s), mp.mpf(Z))
        got = _factor_state(s, Z, branch)[1:]
        for value, order in zip(got, self.ORDERS):
            ref = mp.diff(lambda x, z: mp_constraint_factor(x, z, branch), at, order)
            # scale: the two terms' own derivatives (they cancel at a fold)
            hyp = mp.diff(lambda x, z: (z / (2 * x)) * mp.sinh(z / (2 * x)), at, order)
            osc = mp.diff(lambda x, z: x * mp.sin(x), at, order)
            scale = max(1.0, float(abs(hyp) + abs(osc)))
            assert abs(value - float(ref)) <= 1e-13 * scale, (order, value, ref)

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    @pytest.mark.parametrize("Z", [0.0, 1e-8, 2.5, 80.0, 1e4])
    def test_array_path_matches_scalar_on_scan_grid(self, branch, Z):
        # Z = 1e4 puts t above the clamp for s < 14.3
        grid = _scan_grid(Z, 200.0).s
        got = constraint_factor(grid, Z, branch)
        want = np.array([constraint_factor(float(s), Z, branch) for s in grid])
        assert got.shape == grid.shape
        assert np.array_equal(np.sign(got), np.sign(want))
        clamped = np.isinf(want)
        assert np.array_equal(got[clamped], want[clamped])
        assert not np.any(np.isinf(got[~clamped]))
        s = grid[~clamped]
        t = Z / (2.0 * s)
        scale = np.abs(t * np.sinh(t)) + np.abs(s * np.sin(s))
        eps = np.finfo(float).eps
        assert np.all(np.abs(got[~clamped] - want[~clamped]) <= 4.0 * eps * scale)

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    @pytest.mark.parametrize("s, Z", [(3.5, 7.0), (0.0625, 25.0), (130.1, 2.0)])
    def test_one_entry_array_is_the_scalar(self, branch, s, Z):
        # np.sinh may differ from math.sinh in the last bit: the bound of the
        # many-entry test above
        got = constraint_factor(np.array([s]), Z, branch)
        assert got.shape == (1,)
        t = Z / (2.0 * s)
        scale = abs(t * math.sinh(t)) + abs(s * math.sin(s))
        assert abs(got[0] - constraint_factor(s, Z, branch)) <= 4.0 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    @pytest.mark.parametrize("z, Z", [(3.5 + 0.3j, 7.0), (2.5 - 1.2j, 5.6), (40.0 + 3.0j, 300.0)])
    def test_numpy_complex_is_the_builtin_complex(self, branch, z, Z):
        # math.sin used to take a numpy.complex128 as its real part, with
        # only a ComplexWarning (an error under this suite's filterwarnings):
        # at 3.5+0.3j, Z = 7 the minus factor came back 2.383+0.006j, not
        # 2.338+0.880j
        np_z = np.complex128(z)
        assert complex(constraint_factor(np_z, Z, branch)) == constraint_factor(z, Z, branch)
        assert [complex(v) for v in _factor_state(np_z, Z, branch)[1:]] == list(
            _factor_state(z, Z, branch)[1:])
        assert complex(t_sinh_t(np_z)) == t_sinh_t(z)
        mp_value = complex(mp_constraint_factor(mp.mpc(z), mp.mpf(Z), branch))
        assert abs(constraint_factor(np_z, Z, branch) - mp_value) <= 1e-12 * abs(mp_value)

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    def test_clamped_like_t_sinh_t(self, branch):
        # t = 500 lies above the clamp at 350
        assert constraint_factor(0.01, 10.0, branch) == math.inf
        assert _factor_state(0.01, 10.0, branch)[1:] == (
            -math.inf, math.inf, math.inf, -math.inf
        )

    def test_complex_t_is_clamped_on_its_real_part(self):
        # |t| = 400 used to pass the clamp at 350 and give inf; the value is
        # -400*sin(400)
        got = t_sinh_t(400j)
        ref = complex(mp.mpc(0, 400) * mp.sinh(mp.mpc(0, 400)))
        assert abs(got - ref) <= 1e-13 * abs(ref)
        assert got.real == pytest.approx(340.3677438556706, rel=1e-13)
        for t in (701.0 + 1.0j, -701.0 + 3.0j, np.complex128(800.0 - 5.0j)):
            assert t_sinh_t(t) == math.inf
        assert math.isfinite(abs(t_sinh_t(699.0 + 3.0j)))

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    def test_complex_derivatives_past_the_real_clamp(self, branch):
        # t = Z/(2s) = 357.14*(1 - 1j): |t| = 505 > 350, Re t < 700
        s, Z = 0.7 + 0.7j, 1000.0
        derivatives = _factor_state(s, Z, branch)[1:]
        assert all(cmath.isfinite(v) for v in derivatives)
        ref = complex(mp_constraint_factor(mp.mpc(s), mp.mpf(Z), branch))
        assert abs(constraint_factor(s, Z, branch) - ref) <= 1e-12 * abs(ref)
        # Re t = 714 lies above the complex clamp
        assert _factor_state(0.7 + 0.0j, Z, branch)[1:] == (
            -math.inf, math.inf, math.inf, -math.inf
        )
        assert constraint_factor(0.7 + 0.0j, Z, branch) == math.inf



def _bits(value):
    """Type and bit pattern, so that NaNs and signed zeros compare too."""
    parts = (value.real, value.imag) if isinstance(value, complex) else (value,)
    return type(value), tuple(struct.pack("<d", v) for v in parts)


class TestFactorState:
    """``_factor_state`` against ``constraint_factor`` and the partials as
    they were computed before the state was shared (``_tracker_reference``),
    and ``_factor_pair`` against the state's first two values, bit for bit."""

    REAL = [0.3, 2.50380392309, 4.3, 17.0, 130.1]
    COMPLEX = [3.5 + 0.3j, 2.5 - 1.2j, 40.0 + 3.0j, 0.7 + 0.7j, 9.8 + 0.004j]
    COUPLINGS = [1e-8, 0.4, 7.0, 300.0]

    @staticmethod
    def _assert_state(s, Z, branch):
        state = _factor_state(s, Z, branch)
        assert len(state) == 5
        assert _bits(state[0]) == _bits(constraint_factor(s, Z, branch))
        want = ref_constraint_factor_derivatives(s, Z, branch)
        assert [_bits(v) for v in state[1:]] == [_bits(v) for v in want]
        assert [_bits(v) for v in _factor_pair(s, Z, branch)] == [_bits(v) for v in state[:2]]

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize("Z", COUPLINGS)
    def test_real_s(self, branch, kind, Z):
        for s in self.REAL:
            self._assert_state(kind(s), Z, branch)

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    @pytest.mark.parametrize("kind", [complex, np.complex128])
    @pytest.mark.parametrize("Z", COUPLINGS + [1e4])
    def test_complex_s(self, branch, kind, Z):
        for s in self.COMPLEX:
            self._assert_state(kind(s), Z, branch)

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    def test_numpy_complex_is_the_builtin_complex(self, branch):
        for s in self.COMPLEX:
            got = _factor_state(np.complex128(s), 300.0, branch)
            assert [_bits(complex(v)) for v in got] == [
                _bits(v) for v in _factor_state(s, 300.0, branch)
            ]

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    def test_real_clamp_below_and_above(self, branch):
        # s = 0.5 makes t = Z exactly
        below, above = 350.0, math.nextafter(350.0, math.inf)
        for Z in (below, above):
            self._assert_state(0.5, Z, branch)
        assert math.isfinite(_factor_state(0.5, below, branch)[0])
        F, *partials = _factor_state(0.5, above, branch)
        assert F == math.inf
        assert tuple(partials) == (-math.inf, math.inf, math.inf, -math.inf)

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    @pytest.mark.parametrize("imag", [0.0, 1e-3])
    def test_complex_clamp_below_and_above(self, branch, imag):
        s = complex(0.5, imag)
        below = 700.0 if imag == 0.0 else 700.0 * (1.0 + 4e-6)
        above = math.nextafter(below, math.inf) if imag == 0.0 else 700.0 * (1.0 + 5e-6)
        assert abs((below / (2.0 * s)).real) <= 700.0 < abs((above / (2.0 * s)).real)
        for Z in (below, above):
            self._assert_state(s, Z, branch)
            self._assert_state(np.complex128(s), Z, branch)
        assert cmath.isfinite(_factor_state(s, below, branch)[0])
        F, *partials = _factor_state(s, above, branch)
        assert F.real == math.inf
        assert tuple(partials) == (-math.inf, math.inf, math.inf, -math.inf)

    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    def test_nan_s(self, branch):
        for s in (math.nan, np.float64(math.nan), complex(math.nan, 1.0), complex(2.0, math.nan)):
            self._assert_state(s, 7.0, branch)


class TestEnergy:
    def test_hermitian_level(self):
        # at Z = 0 the level n = 1 has t = 0, so E = s**2 = pi**2
        p = refine_root((3.0, 3.3), 0.0, MINUS)
        assert p.t == 0.0
        assert p.E == pytest.approx(math.pi**2, rel=1e-15)


def identity_residual(t, Z):
    """Relative defect of secular_t = 16*F_plus*F_minus at (t, s = Z/(2t)),
    from the scalar ``math`` kernels; verify's sweep runs the numpy ones."""
    lhs = secular_t(t, Z)
    s = Z / (2.0 * t)
    return abs(lhs - 16.0 * factor_value(t, s, PLUS) * factor_value(t, s, MINUS)) / max(1.0, abs(lhs))


class TestRepresentationIdentity:
    def test_zero_coupling(self):
        assert identity_residual(1.0, 0.0) <= 1e-12

    def test_spot_values(self):
        assert identity_residual(0.5, 5.0) <= 1e-9
        assert identity_residual(2.0, 17.9) <= 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            identity_residual(0.0, 1.0)

    def test_sweep_10k_points(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(10_000):
            t = rng.uniform(1e-3, 20.0)
            Z = rng.uniform(0.0, 100.0)
            worst = max(worst, identity_residual(t, Z))
        assert worst <= 1e-9

    def test_s_identity_sweep_10k_points(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(10_000):
            t = rng.uniform(1e-3, 20.0)
            Z = rng.uniform(1e-12, 100.0)
            s = Z / (2.0 * t)
            lhs = secular_s(s, Z)
            rhs = 16.0 * factor_value(t, s, PLUS) * factor_value(t, s, MINUS)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        assert worst <= 1e-9


class TestHermitianZeroSet:
    def test_zero_set_is_exactly_n_pi(self):
        # single roots of the minus factor at t = 0; bracket every sign change
        S = 20.0
        grid = np.arange(1e-3, S, math.pi / 64.0)
        vals = [factor_value(0.0, float(s), MINUS) for s in grid]
        roots = []
        from scipy.optimize import brentq

        for i in range(len(grid) - 1):
            if (vals[i] < 0) != (vals[i + 1] < 0):
                roots.append(
                    brentq(lambda s: factor_value(0.0, s, MINUS), grid[i], grid[i + 1], xtol=1e-14)
                )
        expected = [n * math.pi for n in range(1, int(S / math.pi) + 1)]
        assert len(roots) == len(expected)
        for r, e in zip(sorted(roots), expected):
            assert r == pytest.approx(e, abs=1e-12)

    def test_unfactored_form_touches_zero_without_sign_change(self):
        eps = 1e-3
        for n in (1, 2, 3):
            s = n * math.pi
            assert secular_s(s, 0.0) == pytest.approx(0.0, abs=1e-9)
            assert secular_s(s - eps, 0.0) < 0.0
            assert secular_s(s + eps, 0.0) < 0.0


def good_point(**fields) -> dict:
    """The fields of a valid point (s = 2, Z = 6, so t = 1.5 and n = 1),
    with ``fields`` put in their place."""
    return {**dict(Z=6.0, branch=MINUS, n=1, s=2.0, t=1.5, E=2.0**2 - 1.5**2, residual=0.0),
            **fields}


class TestTypes:
    def test_spectral_point_invariants(self):
        SpectralPoint(**good_point())
        with pytest.raises(ValueError):
            SpectralPoint(**good_point(residual=1e-9))  # above the real-root rule's 1e-12 floor
        with pytest.raises(ValueError):
            SpectralPoint(**good_point(Z=5.0))  # violates 2st = Z

    @pytest.mark.parametrize("t, s", [(-0.1, 1.0), (1.0, -0.1), (math.nan, 1.0),
                                      (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_spectral_point_rejects_s_and_t(self, t, s):
        with pytest.raises(ValueError, match="s and t must be"):
            SpectralPoint(**good_point(n=0, s=s, t=t))

    @pytest.mark.parametrize("t, s", [(np.array([1.0, 2.0]), np.array([1.0, 1.0])),
                                      (np.array([1.0, 2.0]), 1.0), (1.0, np.array([1.0, 2.0]))])
    def test_spectral_point_takes_floats_only(self, t, s):
        # no array mode: arrays go to factor_value, secular_t and secular_s
        with pytest.raises(TypeError):
            SpectralPoint(**good_point(n=0, s=s, t=t))

    @pytest.mark.parametrize("field, value", [
        ("residual", -1e-20), ("residual", math.nan), ("residual", math.inf),
        ("residual", 1e-9),  # above the root rule at this (s, Z)
        ("Z", 6.0 + 1e-9),  # violates 2st = Z
        ("E", math.nextafter(2.0**2 - 1.5**2, math.inf)),  # not s**2 - t**2 as computed
        ("Z", math.nan), ("Z", math.inf), ("Z", -1.0),  # not a coupling
        ("n", 0), ("n", 2),  # not round(s/pi) = 1
    ])
    def test_spectral_point_rejects(self, field, value):
        # the checked constructor stays strict; only refine_root's own points
        # (SpectralPoint._at_root) skip the checks they hold by construction
        SpectralPoint(**good_point())
        with pytest.raises(ValueError):
            SpectralPoint(**good_point(**{field: value}))

    def test_constraint_bound_is_relative_to_rounding(self):
        # at Z = 1e4 rounding t = Z/(2s) leaves |2st - Z| above 1e-12 (here 1.8e-12)
        s = 127.0 / 7.0
        t = 1e4 / (2.0 * s)
        assert abs(2.0 * s * t - 1e4) > 1e-12
        SpectralPoint(Z=1e4, branch=MINUS, n=6, s=s, t=t, E=s**2 - t**2, residual=0.0)
        off = t * (1.0 + 1e-14)  # |2st - Z| ~ 1e-10
        with pytest.raises(ValueError, match="2\\*s\\*t = Z"):
            SpectralPoint(Z=1e4, branch=MINUS, n=6, s=s, t=off, E=s**2 - off**2, residual=0.0)

    def test_coupling_validation(self):
        from ptcircle.secular import validate_coupling

        with pytest.raises(ValueError):
            validate_coupling(-1.0)
        with pytest.raises(ValueError):
            validate_coupling(math.inf)
        assert validate_coupling(3.5) == 3.5


# a valid instance's fields for each checked record constructor
RECORDS = {
    SpectralPoint: good_point(),
    BrokenParams: dict(alpha=0.3, beta=0.4, K=1.2),
    SpectrumRequest: dict(Z=2.0, s_max=12.0),
    CriticalPoint: dict(nu=0, Z_crit=5.54, s_merge=2.0, E_merge=3.0, branch=MINUS),
    ComplexEnergy: dict(re_E=1.0, eps=2.0),
}
SCALAR_FIELDS = [(cls, name) for cls, fields in RECORDS.items() for name in fields
                 if name != "branch"]


def _field_id(case):
    return f"{case[0].__name__}.{case[1]}"


class TestRecordFieldTypes:
    """The checked constructors take scalars only, so that every record they
    accept can be hashed, and ``SpectralPoint`` and ``CriticalPoint`` a
    ``SecularBranch`` only."""

    @pytest.mark.parametrize("case", SCALAR_FIELDS, ids=_field_id)
    @pytest.mark.parametrize("shape", [(), (1,)], ids=["0-d", "1-entry"])
    def test_array_field_is_a_type_error(self, case, shape):
        cls, name = case
        fields = RECORDS[cls]
        with pytest.raises(TypeError, match=f"^{name} must be a scalar"):
            cls(**{**fields, name: np.full(shape, fields[name])})

    @pytest.mark.parametrize("case", SCALAR_FIELDS, ids=_field_id)
    def test_numpy_scalar_field_is_accepted_and_hashes(self, case):
        cls, name = case
        fields = RECORDS[cls]
        kind = np.int64 if isinstance(fields[name], int) else np.float64
        record = cls(**{**fields, name: kind(fields[name])})
        assert record == cls(**fields)
        assert hash(record) == hash(cls(**fields))

    @pytest.mark.parametrize("branch", ["minus", "plus", None, 1, -1])
    @pytest.mark.parametrize("residual", [0.0, 1e-9])
    def test_branch_must_be_a_member(self, branch, residual):
        # residual 1e-9 lies above the root rule's floor, where the rule reads
        # the branch's sign: an AttributeError before the type check
        with pytest.raises(TypeError, match="branch must be a SecularBranch"):
            SpectralPoint(**good_point(branch=branch, residual=residual))

    @pytest.mark.parametrize("branch", ["minus", "plus", None, 1, -1, np.array(1)])
    def test_critical_point_branch_must_be_a_member(self, branch):
        with pytest.raises(TypeError, match="branch must be a SecularBranch"):
            CriticalPoint(**{**RECORDS[CriticalPoint], "branch": branch})

    @pytest.mark.parametrize("kind", [np.float64, np.array], ids=["float64", "0-d"])
    def test_refined_point_has_a_float_coupling(self, kind):
        # refine_root builds its point unchecked, from the validated float Z
        point = refine_root((3.0, 3.3), kind(0.5), MINUS)
        assert type(point.Z) is float
        assert point == refine_root((3.0, 3.3), 0.5, MINUS)
        assert hash(point) == hash(refine_root((3.0, 3.3), 0.5, MINUS))
