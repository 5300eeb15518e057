import dataclasses
import itertools
import math
import struct

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from ptcircle import spectrum, verify
from ptcircle.errors import ConvergenceError, NoSignChangeError
from ptcircle.oracle import (
    boundary_determinant,
    boundary_matrix,
    determinant_scale,
    nullspace_solution,
    residual_check,
)
from ptcircle.secular import (
    ExactParams,
    SecularBranch,
    SpectralPoint,
    constraint_factor,
    factor_value,
)
from ptcircle.spectrum import SpectrumRequest, _scan_grid, refine_root, scan_roots

from _mp_reference import mp_constraint_factor, mp_ground_energy

MINUS = SecularBranch.FACTOR_MINUS
PLUS = SecularBranch.FACTOR_PLUS


def brute_force_roots(Z: float, s_max: float, ds: float = 1e-4) -> list[tuple[float, str]]:
    """Independent oracle: dense-grid sign scan of both factors."""
    out = []
    for branch in (MINUS, PLUS):
        def f(s):
            return factor_value(Z / (2.0 * s), s, branch)

        grid = np.arange(ds, s_max + ds / 2.0, ds)
        vals = np.array([f(float(s)) for s in grid])
        for i in range(len(grid) - 1):
            if (vals[i] < 0) != (vals[i + 1] < 0):
                out.append((brentq(f, grid[i], grid[i + 1], xtol=1e-13), branch.value))
    out.sort()
    return out


class TestScanRoots:
    def test_hermitian_circle_spectrum(self):
        pts = scan_roots(SpectrumRequest(Z=0.0, s_max=10.0))
        energies = sorted({round(p.E, 9) for p in pts})
        assert energies == pytest.approx(
            [math.pi**2, 4 * math.pi**2, 9 * math.pi**2], rel=1e-9
        )
        # both factors vanish at t = 0, so each level appears once per branch
        for n in (1, 2, 3):
            assert sum(1 for p in pts if p.n == n) == 2

    def test_small_coupling_doublets_against_brute_force(self):
        pts = scan_roots(SpectrumRequest(Z=0.1, s_max=7.0))
        assert len(pts) == 5
        ref = brute_force_roots(0.1, 7.0)
        assert len(ref) == 5
        for p, (s_ref, branch_ref) in zip(sorted(pts, key=lambda q: q.params.s), ref):
            assert p.params.s == pytest.approx(s_ref, abs=1e-10)
            assert p.branch.value == branch_ref
        # descendant of the constant mode: s ~ t ~ sqrt(Z/2), E near zero
        low = min(pts, key=lambda p: p.E)
        assert low.params.s == pytest.approx(math.sqrt(0.05), abs=0.01)
        assert low.params.t == pytest.approx(math.sqrt(0.05), abs=0.01)
        assert 0.0 < low.E < 0.01
        # doublets split symmetrically to leading order around (n pi)^2
        for n in (1, 2):
            pair = [p for p in pts if p.n == n]
            assert len(pair) == 2
            mid = sum(p.E for p in pair) / 2.0
            assert mid == pytest.approx((n * math.pi) ** 2, abs=5e-4)

    def test_merged_pair_absent_above_first_breakdown(self):
        pts = scan_roots(SpectrumRequest(Z=5.55, s_max=4.0))
        assert len(pts) == 1
        assert pts[0].branch is PLUS
        assert pts[0].params.s > math.pi

    def test_doublet_count_below_breakdown(self):
        for Z in (0.5, 2.0, 5.0):
            for N in (1, 2, 3, 4, 5, 6):
                pts = scan_roots(SpectrumRequest(Z=Z, s_max=(N + 0.5) * math.pi))
                assert len(pts) == 2 * N + 1, (Z, N)

    def test_sorted_by_energy_and_residuals(self):
        pts = scan_roots(SpectrumRequest(Z=2.0, s_max=12.0))
        energies = [p.E for p in pts]
        assert energies == sorted(energies)
        for p in pts:
            assert p.residual <= 1e-12
            assert p.params.constraint_residual(p.Z) <= 1e-12

    def test_empty_result_is_legal(self):
        # above the first breakdown with a ceiling below the surviving roots
        pts = scan_roots(SpectrumRequest(Z=5.6, s_max=3.2))
        assert pts == []

    def test_subnormal_coupling_scans_like_zero(self):
        # 0.5*Z underflows to 0, so no geometric extension below the first
        # node can reach its lower end
        def key(Z):
            return [(p.n, p.branch, p.params.s, p.E)
                    for p in scan_roots(SpectrumRequest(Z=Z, s_max=4.0))]

        assert key(5e-324) == key(0.0)

    def test_residual_certification_through_boundary_determinant(self):
        pts = scan_roots(SpectrumRequest(Z=5.0, s_max=3.6 * math.pi))
        for p in pts:
            W = boundary_matrix(p.E, p.Z)
            det = boundary_determinant(p.E, p.Z)
            assert abs(det) <= 1e-8 * determinant_scale(W)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumRequest(Z=-1.0, s_max=10.0)
        with pytest.raises(ValueError):
            SpectrumRequest(Z=1.0, s_max=2.0)
        with pytest.raises(ValueError):
            SpectrumRequest(Z=1.0, s_max=math.inf)
        with pytest.raises(ValueError):
            SpectrumRequest(Z=1.0, s_max=math.nan)


class TestArraySignScan:
    """``scan_roots`` finds its brackets in one numpy pass per branch; it must
    return exactly the roots of a node-by-node scalar scan of the same grid."""

    @staticmethod
    def scalar_scan(Z: float, s_max: float) -> list[tuple[float, str]]:
        grid = _scan_grid(Z, s_max)
        out = []
        for branch in (MINUS, PLUS):
            vals = [constraint_factor(float(s), Z, branch) for s in grid]
            for i in range(len(grid) - 1):
                a, b = vals[i], vals[i + 1]
                if a == 0.0 or (a < 0.0) != (b < 0.0):
                    p = refine_root((float(grid[i]), float(grid[i + 1])), Z, branch)
                    out.append((p.params.s, branch.value))
        return sorted(out)

    def test_seeded_draws_match_scalar_scan(self):
        rng = np.random.default_rng(20260611)
        for k in range(200):
            Z = (0.0, 10.0 ** rng.uniform(-8.0, math.log10(3e3)), rng.uniform(0.0, 80.0))[k % 3]
            s_max = rng.uniform(math.pi, 48.0)
            got = sorted((p.params.s, p.branch.value)
                         for p in scan_roots(SpectrumRequest(Z=Z, s_max=s_max)))
            assert got == self.scalar_scan(Z, s_max), (Z, s_max)


class TestLargeScanCeiling:
    """Scans far past s = 128.8, where rounding s alone leaves |F| above 1e-12."""

    @pytest.fixture(scope="class")
    def deep_scan(self):
        return scan_roots(SpectrumRequest(Z=2.0, s_max=1e4))

    def test_branch_counts_match_numpy_sign_count(self, deep_scan):
        Z, s_max, ds = 2.0, 1e4, math.pi / 256
        s = ds * np.arange(1, math.floor(s_max / ds) + 1)
        s = np.append(s[s < s_max], s_max)
        t = Z / (2.0 * s)
        for branch in (MINUS, PLUS):
            f = t * np.sinh(t) + branch.sin_term_sign * s * np.sin(s)
            expected = int(np.count_nonzero(np.signbit(f[:-1]) != np.signbit(f[1:])))
            assert expected > 3000
            assert sum(1 for p in deep_scan if p.branch is branch) == expected

    def test_implied_s_error_is_rounding(self, deep_scan):
        eps = np.finfo(float).eps
        for p in deep_scan[::200]:
            s = mp.mpf(p.params.s)
            F = mp_constraint_factor(s, 2.0, p.branch)
            F_s = mp.diff(lambda x: mp_constraint_factor(x, 2.0, p.branch), s)
            assert abs(F / F_s) <= 4.0 * eps * p.params.s, p

    @pytest.mark.parametrize("Z", [20.0, 2.5])
    def test_oracle_certifies_roots_near_s200(self, Z):
        # Z = 20 keeps the doublets split; at Z = 2.5 the two members of each
        # doublet near s = 200 lie so close that two singular values of the
        # boundary matrix are small, and the null vector must still be exact
        pts = [p for p in scan_roots(SpectrumRequest(Z=Z, s_max=200.0)) if p.params.s > 190.0]
        assert len(pts) >= 4
        for p in pts:
            report = residual_check(nullspace_solution(p.E, Z), p.E, Z)
            assert max(report.bc_residuals) <= 1e-8, p


class TestRefineRoot:
    def test_hermitian_level(self):
        p = refine_root((3.0, 3.3), 0.0, MINUS)
        assert p.params.s == pytest.approx(math.pi, abs=1e-12)
        assert p.n == 1

    def test_leading_order_offset(self):
        Z = 0.1
        p = refine_root((3.0, 3.3), Z, MINUS)
        t = Z / (2.0 * math.pi)
        rho_leading = -t * t / math.pi
        assert p.params.s - math.pi == pytest.approx(rho_leading, rel=5e-3)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            refine_root((1.0, 1.5), 0.0, MINUS)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            refine_root((2.0, 1.0), 0.0, MINUS)

    @pytest.mark.parametrize(
        "bracket", [(1.0, math.inf), (1.0, math.nan), (math.nan, 2.0), (-math.inf, 2.0)]
    )
    def test_non_finite_bracket_is_named(self, bracket):
        with pytest.raises(ValueError, match=r"bracket must be finite .* got \("):
            refine_root(bracket, 1.0, MINUS)

    def test_iteration_limit_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="exceeded 1 iterations"):
            refine_root((3.0, 3.3), 0.1, MINUS)

    def test_nan_factor_raises(self):
        # no validated input reaches it: F is NaN only at a NaN coupling
        with pytest.raises(ValueError, match="NaN"):
            spectrum._brent(1.0, 2.0, math.nan, -1)


def seeded_scan_brackets():
    """(Z, s_max, s_lo, s_hi, branch) of every bracket that the scans of 400
    seeded (Z, s_max) draws refine; Z = 0 and 5e-324 included."""
    rng = np.random.default_rng(20261018)
    for k in range(400):
        Z = (0.0, 5e-324, 10.0 ** rng.uniform(-8.0, math.log10(3e3)),
             rng.uniform(0.0, 80.0))[k % 4]
        s_max = math.exp(rng.uniform(math.log(math.pi), math.log(300.0)))
        grid = _scan_grid(Z, s_max)
        for branch in (MINUS, PLUS):
            vals = constraint_factor(grid, Z, branch)
            a, b = vals[:-1], vals[1:]
            for i in np.flatnonzero((a == 0.0) | ((a < 0.0) != (b < 0.0))).tolist():
                yield Z, s_max, float(grid[i]), float(grid[i + 1]), branch


class TestBrentIsScipyBrentq:
    """``refine_root`` runs Brent in-module on an inline copy of the factor.
    Root and residual must be those of ``scipy.optimize.brentq`` on
    ``constraint_factor`` (through ``secular.factor_value``) to the bit, which
    pins both the algorithm and the inline factor."""

    def test_seeded_scan_brackets(self):
        eps = np.finfo(float).eps
        brackets = 0
        for Z, s_max, lo, hi, branch in seeded_scan_brackets():
            p = refine_root((lo, hi), Z, branch)
            s = brentq(constraint_factor, lo, hi, args=(Z, branch),
                       xtol=1e-15, rtol=4.0 * eps, maxiter=200)
            assert p.params.s == s, (Z, s_max, lo, hi, branch)
            assert p.residual == abs(constraint_factor(s, Z, branch)), (Z, s_max, lo, hi)
            brackets += 1
        assert brackets > 12000


def recorded(f):
    """f, and the list of the arguments it is called with."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


def same_bits(x: float, y: float) -> bool:
    return struct.pack("<d", x) == struct.pack("<d", y)


def smooth_cases():
    """(f, a, b, xtol, rtol) for seeded smooth functions with a root in [a, b]:
    polynomials, transcendental and flat ones, and ends whose value is
    exactly 0.0 or -0.0."""
    rng = np.random.default_rng(20261018)
    eps = np.finfo(float).eps
    tols = ((2e-12, 4.0 * eps), (1e-15, 4.0 * eps), (1e-16, 4.0 * eps), (1e-12, 1e-14), (1e-6, 1e-9))
    for k in range(300):
        r = float(rng.uniform(-5.0, 5.0))
        a = r - float(rng.uniform(1e-3, 4.0))
        b = r + float(rng.uniform(1e-3, 4.0))
        c = float(rng.uniform(0.1, 3.0))
        f = (
            lambda x, r=r, c=c: c * (x - r),
            lambda x, r=r, c=c: (x - r) ** 3 + c * (x - r),
            lambda x, r=r: math.tanh(4.0 * (x - r)),
            lambda x, r=r: math.exp(x - r) - 1.0,
            lambda x, r=r, c=c: math.sin(c * (x - r)) if abs(c * (x - r)) < 1.5 else c * (x - r),
            lambda x, r=r: (x - r) ** 5,
            lambda x, r=r: np.float64(math.atan(x - r)),  # a numpy double, taken as a double
            lambda x, r=r: -math.expm1(-(x - r) ** 3),
        )[k % 8]
        yield (f, a, b, *tols[k % len(tols)])
    # an end whose value is exactly 0.0 or -0.0 is returned as the root
    yield (lambda x: x - 1.0, 1.0, 3.0, 2e-12, 4.0 * eps)
    yield (lambda x: x - 3.0, 1.0, 3.0, 2e-12, 4.0 * eps)
    yield (lambda x: -0.0 if x == 1.0 else x - 1.0, 1.0, 3.0, 2e-12, 4.0 * eps)
    yield (lambda x: -0.0 if x == 3.0 else x - 2.5, 1.0, 3.0, 2e-12, 4.0 * eps)
    yield (lambda x: math.sin(x), -0.0, 1.0, 2e-12, 4.0 * eps)


def scipy_brentq(f, a, b, xtol, rtol, maxiter=100):
    return brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)


def batched(fs):
    """The batch function of the scalar functions fs, one per bracket, and
    the list of the points each bracket is evaluated at, in order."""
    seen = [[] for _ in fs]

    def f(x, k):
        assert x.dtype == float and x.shape == k.shape
        values = []
        for xi, ki in zip(x.tolist(), k.tolist()):
            seen[ki].append(xi)
            values.append(fs[ki](xi))
        return np.array(values, dtype=float)

    return f, seen


def scipy_outcome(f, a, b, xtol, rtol, maxiter=100):
    """scipy's root, or the exception it raised, and its evaluation points."""
    g, xs = recorded(f)
    try:
        return scipy_brentq(g, a, b, xtol, rtol, maxiter), xs
    except (ValueError, RuntimeError) as exc:
        return exc, xs


def package_error_text(exc, xs, maxiter):
    """The text ``_brentq`` raises where scipy raised exc after evaluating
    f at xs: scipy's error, worded as the package words it, at the same x."""
    text = str(exc)
    if isinstance(exc, RuntimeError):
        assert text == f"Failed to converge after {maxiter} iterations."
        return f"failed to converge after {maxiter} iterations, value is {xs[-1]}"
    if "NaN" in text:
        assert text == f"The function value at x={xs[-1]} is NaN; solver cannot continue."
        return f"the function value at x={xs[-1]} is NaN; solver cannot continue"
    assert text == "f(a) and f(b) must have different signs"
    return text


class TestBrentqIsScipyBrentq:
    """``spectrum._brentq`` runs scipy's ``brentq.c`` on every bracket of a
    batch: the same evaluations per bracket, the same root to the bit, and
    the same exception types, alone and in a batch."""

    def assert_batch(self, cases, maxiter=100):
        """Run cases (f, a, b) of one tolerance pair as one batch; each
        bracket is evaluated where scipy evaluates it.  Returns scipy's
        outcomes; the batch returns their roots, or raises the error of the
        first failing bracket."""
        fs, brackets, (xtol, rtol) = [c[0] for c in cases], [c[1:3] for c in cases], cases[0][3:]
        expected = [scipy_outcome(f, a, b, xtol, rtol, maxiter) for f, (a, b) in zip(fs, brackets)]
        f, seen = batched(fs)
        failing = [i for i, (root, _) in enumerate(expected) if isinstance(root, Exception)]
        if failing:
            # every bracket, failing or not, runs to its end in lockstep
            exc, xs = expected[failing[0]]
            with pytest.raises(type(exc)) as info:
                spectrum._brentq(f, brackets, xtol, rtol, maxiter)
            assert str(info.value) == package_error_text(exc, xs, maxiter)
            for got, (_, xs) in zip(seen, expected):
                assert got == xs
            return expected
        roots = spectrum._brentq(f, brackets, xtol, rtol, maxiter)
        assert len(roots) == len(cases)
        for got, (want, xs), evaluated in zip(roots, expected, seen):
            assert same_bits(got, want) and type(got) is float, (got, want)
            assert evaluated == xs
        return expected

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    def test_series_fit_brackets(self, n, branch):
        # the t grid of verify's series check and of tests/test_series.py, and
        # a denser one, through the bracket and tolerances of _rhos_at
        a = n * math.pi
        ts = sorted({*np.linspace(0.05, 0.2, 24).tolist(), *np.linspace(1e-3, 0.2, 97).tolist()})
        fs = [lambda s, t=t: factor_value(t, s, branch) for t in ts]
        expected = self.assert_batch([(f, a - 0.4, a + 0.4, 1e-16, 4.0 * np.finfo(float).eps)
                                      for f in fs])
        rhos = spectrum._rhos_at(n, branch, np.array(ts))
        assert rhos.tobytes() == np.array([root - a for root, _ in expected]).tobytes()

    @pytest.mark.parametrize("z_values", [(0.5,), (3.0,), (5.0,), (10.0,), (17.0,),
                                          (0.5, 3.0, 5.0, 10.0, 17.0)])
    def test_determinant_brackets(self, z_values):
        cases = []
        for Z in z_values:
            energies, vals = verify._det_sweep(Z, 4.6 * math.pi)
            brackets = np.flatnonzero((vals[:-1] < 0.0) != (vals[1:] < 0.0)).tolist()
            assert brackets
            cases += [(lambda E, Z=Z: boundary_determinant(E, Z).real,
                       float(energies[i]), float(energies[i + 1]), 1e-12, 1e-14)
                      for i in brackets]
        self.assert_batch(cases)

    def test_seeded_smooth_functions_alone(self):
        outcomes = [self.assert_batch([case])[0][0] for case in smooth_cases()]
        # the triple and fifth-order roots run out of iterations at the
        # tighter tolerances, so both outcomes are compared
        failed = [type(root) for root in outcomes if isinstance(root, Exception)]
        assert set(failed) == {RuntimeError} and 0 < len(failed) < 0.25 * len(outcomes)

    def test_seeded_smooth_functions_batched(self):
        by_tols = {}
        for f, a, b, xtol, rtol in smooth_cases():
            by_tols.setdefault((xtol, rtol), []).append((f, a, b, xtol, rtol))
        for cases in by_tols.values():
            converging = [c for c in cases
                          if not isinstance(scipy_outcome(*c)[0], Exception)]
            self.assert_batch(converging)
            self.assert_batch(cases)  # raises for the first bracket that runs out

    def test_mixed_batch(self):
        eps = np.finfo(float).eps
        cases = [
            (lambda x: math.tanh(4.0 * (x - 0.3)), -2.0, 3.0),
            (lambda x: x - 1.0, 1.0, 3.0),          # the lower end's value is 0
            (lambda x: 2.0 * (x - 1.5), 1.0, 2.0),  # the first step lands on the root
            (lambda x: (x - 0.7) ** 3 + 0.1 * (x - 0.7), -4.0, 1.0),
            (lambda x: math.exp(x - 2.0) - 1.0, 0.0, 5.0),
            (lambda x: -0.0 if x == 3.0 else x - 2.5, 1.0, 3.0),  # an upper end's -0.0
        ]
        outcomes = self.assert_batch([(f, a, b, 2e-12, 4.0 * eps) for f, a, b in cases])
        assert all(isinstance(root, float) for root, _ in outcomes)
        f, seen = batched([c[0] for c in cases])
        roots = spectrum._brentq(f, [c[1:] for c in cases], 2e-12, 4.0 * eps)
        assert roots[1] == 1.0 and len(seen[1]) == 2
        assert roots[2] == 1.5 and len(seen[2]) == 3 and cases[2][0](seen[2][-1]) == 0.0
        assert same_bits(roots[5], 3.0) and len(seen[5]) == 2
        assert len({len(xs) for xs in seen}) >= 4  # different iteration counts

    def test_empty_batch(self):
        assert spectrum._brentq(batched([])[0], [], 1e-12, 1e-12) == []

    def test_iterations_run_out(self):
        with pytest.raises(RuntimeError, match="converge"):
            spectrum._brentq(batched([lambda x: x**3 - 0.3])[0], [(0.0, 5.0)], 1e-15, 1e-15, 3)
        self.assert_batch([(lambda x: x**3 - 0.3, 0.0, 5.0, 1e-15, 1e-15)], maxiter=3)

    @pytest.mark.parametrize("impl", ["ours", "scipy"])
    def test_same_sign_ends(self, impl):
        f, a, b = (lambda x: x * x + 1.0), -1.0, 2.0
        with pytest.raises(ValueError, match="different signs"):
            if impl == "ours":
                spectrum._brentq(batched([f])[0], [(a, b)], 2e-12, 1e-12)
            else:
                scipy_brentq(f, a, b, 2e-12, 1e-12)

    @staticmethod
    def nan_inside(x):
        return math.nan if x <= -1.0 or x >= 2.0 or 0.3 < x < 0.5 else x - 0.4

    @pytest.mark.parametrize("impl", ["ours", "scipy"])
    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 2.0), (0.0, 1.0)])
    def test_nan_value(self, impl, a, b):
        # NaN at the lower end, at the upper end, or at the first step inside
        with pytest.raises(ValueError, match="NaN"):
            if impl == "ours":
                spectrum._brentq(batched([self.nan_inside])[0], [(a, b)], 2e-12, 1e-12)
            else:
                scipy_brentq(self.nan_inside, a, b, 2e-12, 1e-12)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(5))))
    def test_first_failing_bracket_in_input_order(self, order):
        # same-sign ends, a NaN inside, iterations that run out, and two
        # brackets that converge, in every order: the batch raises what
        # the first failing bracket raises alone
        cases = [
            (lambda x: x - 0.4, 0.0, 1.0),
            (lambda x: x * x + 1.0, -1.0, 2.0),
            (self.nan_inside, 0.0, 1.0),
            (lambda x: x**3 - 0.3, 0.0, 5.0),
            (lambda x: 2.0 * (x - 1.5), 1.0, 2.0),
        ]
        batch = [(*cases[i], 1e-15, 1e-15) for i in order]
        outcomes = [root for root, _ in self.assert_batch(batch, maxiter=4)]
        kinds = sorted(type(root).__name__ if isinstance(root, Exception) else "root"
                       for root in outcomes)
        assert kinds == ["RuntimeError", "ValueError", "ValueError", "root", "root"]


def public_point(Z: float, branch: SecularBranch, s: float, residual: float) -> SpectralPoint:
    """A root's point built through the public, fully checked constructors,
    as ``refine_root`` built it before ``SpectralPoint._at_root``."""
    params = ExactParams(t=Z / (2.0 * s), s=s)
    return SpectralPoint(
        Z=Z,
        branch=branch,
        n=round(s / math.pi),
        params=params,
        E=params.s**2 - params.t**2,
        residual=residual,
    )


def field_bits(p: SpectralPoint) -> list[tuple[type, object]]:
    """Every field of a point with its type; floats by their bits (hex)."""
    values = (p.Z, p.branch, p.n, p.params.t, p.params.s, p.E, p.residual)
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


class TestCertifiedConstruction:
    """``refine_root`` builds its point by ``SpectralPoint._at_root``, which
    skips the public constructors' checks; the point must be the one the
    public constructors give, and still a frozen, checkable value."""

    def test_seeded_scan_brackets_match_public_construction(self):
        brackets = 0
        for Z, s_max, lo, hi, branch in seeded_scan_brackets():
            p = refine_root((lo, hi), Z, branch)
            s, f = spectrum._brent(lo, hi, Z, branch.sin_term_sign)
            ref = public_point(Z, branch, s, abs(f))
            assert field_bits(p) == field_bits(ref), (Z, s_max, lo, hi, branch)
            assert p == ref and hash(p) == hash(ref)
            assert dataclasses.replace(p) == p  # re-runs SpectralPoint's checks
            assert dataclasses.replace(p.params) == p.params  # and ExactParams'
            with pytest.raises(dataclasses.FrozenInstanceError):
                p.E = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                p.params.s = 1.0
            brackets += 1
        assert brackets > 12000


GRID_COUPLINGS = (0.0, 5e-324, 1e-8, 2.5, 80.0, 1e4)


def reference_scan(Z: float, s_max: float) -> list[SpectralPoint]:
    """``scan_roots`` as built before the one-pass grid, the certified
    constructor and the sort on E alone: one ``constraint_factor`` pass per
    branch and publicly constructed points sorted by (E, branch name)."""
    grid = _scan_grid(Z, s_max)
    nodes = grid.tolist()
    points = []
    for branch in (MINUS, PLUS):
        vals = constraint_factor(grid, Z, branch)
        a, b = vals[:-1], vals[1:]
        for i in np.flatnonzero((a == 0.0) | ((a < 0.0) != (b < 0.0))).tolist():
            s, f = spectrum._brent(nodes[i], nodes[i + 1], Z, branch.sin_term_sign)
            points.append(public_point(Z, branch, s, abs(f)))
    points.sort(key=lambda p: (p.E, p.branch.value))
    return points


class TestGridFactors:
    """The scan forms both factors from one t*sinh t and one s*sin s array."""

    @pytest.mark.parametrize("Z", GRID_COUPLINGS)
    @pytest.mark.parametrize("s_max", [math.pi, 40.0, 2000.0])
    def test_one_pass_is_constraint_factor_bit_for_bit(self, Z, s_max):
        grid = _scan_grid(Z, s_max)
        factors = spectrum._grid_factors(grid, Z)
        assert [branch for branch, _ in factors] == [MINUS, PLUS]
        for branch, vals in factors:
            ref = constraint_factor(grid, Z, branch)
            assert vals.dtype == ref.dtype and vals.tobytes() == ref.tobytes(), branch
        if Z >= 80.0:  # t = Z/(2s) > 350 at the low end of the grid
            assert np.isposinf(factors[0][1][0])
            assert np.isposinf(factors[1][1][0])

    @pytest.mark.parametrize("Z", GRID_COUPLINGS)
    @pytest.mark.parametrize("s_max", [math.pi, 40.0, 2000.0])
    def test_scan_returns_the_reference_points(self, Z, s_max):
        got = scan_roots(SpectrumRequest(Z=Z, s_max=s_max))
        ref = reference_scan(Z, s_max)
        assert [field_bits(p) for p in got] == [field_bits(p) for p in ref]


@pytest.mark.xfail(
    strict=True,
    reason="the n = 0 level at small Z: E = s**2 - t**2 is about Z**2/12 with "
    "condition about 24/Z in s, and Brent's absolute xtol leaves s more than an ulp off",
)
def test_ground_level_energy_at_small_coupling():
    Z = 1e-6
    p = next(p for p in scan_roots(SpectrumRequest(Z=Z, s_max=4.0)) if p.n == 0)
    assert p.branch is MINUS
    E = mp_ground_energy(Z)
    assert abs((p.E - E) / E) <= 1e-9


class TestConcurrencyDeterminism:
    def test_partitioned_scan_matches_single_scan(self):
        # grid partitioning must not change the merged result
        full = scan_roots(SpectrumRequest(Z=2.0, s_max=12.0))
        lo = scan_roots(SpectrumRequest(Z=2.0, s_max=6.0))
        hi_all = scan_roots(SpectrumRequest(Z=2.0, s_max=12.0))
        hi = [p for p in hi_all if p.params.s > 6.0]
        merged = sorted(lo + hi, key=lambda p: (p.E, p.branch.value))
        assert len(merged) == len(full)
        for a, b in zip(merged, full):
            assert a.params.s == pytest.approx(b.params.s, abs=2e-12)
            assert a.branch is b.branch


class TestPerturbativeEnergyBasics:
    def test_zero_coupling(self):
        from ptcircle.spectrum import perturbative_energy

        for order in (2, 4, 6):
            assert perturbative_energy(1, MINUS, 0.0, order) == pytest.approx(
                math.pi**2, rel=1e-15
            )

    def test_against_scanned_root(self):
        from ptcircle.spectrum import perturbative_energy

        pts = scan_roots(SpectrumRequest(Z=0.2, s_max=2.0 * math.pi))
        e_minus = perturbative_energy(1, MINUS, 0.2, 6)
        e_plus = perturbative_energy(1, PLUS, 0.2, 6)
        scanned = sorted(p.E for p in pts if p.n == 1)
        assert e_minus == pytest.approx(scanned[0], abs=1e-10)
        assert e_plus == pytest.approx(scanned[1], abs=1e-10)

    def test_doublet_splitting_order(self):
        from ptcircle.spectrum import perturbative_energy

        # splitting E+ - E- ~ 4 t^2 at leading order (n = 1): quadratic in Z
        splits = []
        for Z in (0.05, 0.1, 0.2):
            d = perturbative_energy(1, PLUS, Z, 2) - perturbative_energy(1, MINUS, Z, 2)
            splits.append(d)
        assert splits[1] / splits[0] == pytest.approx(4.0, rel=5e-3)
        assert splits[2] / splits[1] == pytest.approx(4.0, rel=2e-2)
