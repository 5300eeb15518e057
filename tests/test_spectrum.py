import dataclasses
import hashlib
import itertools
import math
import struct
import sys
import types
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from ptcircle import spectrum
from ptcircle.errors import ConvergenceError, NoSignChangeError
from ptcircle.oracle import (
    boundary_determinant,
    boundary_matrix,
    nullspace_solution,
    residual_check,
)
from ptcircle.secular import (
    SecularBranch,
    SpectralPoint,
    _reject_arrays,
    constraint_factor,
    factor_value,
    validate_coupling,
)
from ptcircle.spectrum import SpectrumRequest, _scan_grid, refine_root, scan_roots

from _mp_reference import mp_constraint_factor, mp_ground_energy
from _oracle_reference import determinant_scale

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
        for p, (s_ref, branch_ref) in zip(sorted(pts, key=lambda q: q.s), ref):
            assert p.s == pytest.approx(s_ref, abs=1e-10)
            assert p.branch.value == branch_ref
        # descendant of the constant mode: s ~ t ~ sqrt(Z/2), E near zero
        low = min(pts, key=lambda p: p.E)
        assert low.s == pytest.approx(math.sqrt(0.05), abs=0.01)
        assert low.t == pytest.approx(math.sqrt(0.05), abs=0.01)
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
        assert pts[0].s > math.pi

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
            assert abs(2.0 * p.s * p.t - p.Z) <= 1e-12

    def test_empty_result_is_legal(self):
        # above the first breakdown with a ceiling below the surviving roots
        pts = scan_roots(SpectrumRequest(Z=5.6, s_max=3.2))
        assert pts == []

    def test_subnormal_coupling_scans_like_zero(self):
        # 0.5*Z underflows to 0, so no geometric extension below the first
        # node can reach its lower end
        def key(Z):
            return [(p.n, p.branch, p.s, p.E)
                    for p in scan_roots(SpectrumRequest(Z=Z, s_max=4.0))]

        assert key(5e-324) == key(0.0)

    def test_residual_certification_through_boundary_determinant(self):
        pts = scan_roots(SpectrumRequest(Z=5.0, s_max=3.6 * math.pi))
        for p in pts:
            W = boundary_matrix(p.E, p.Z)
            det = boundary_determinant(p.E, p.Z)
            assert abs(det) <= 1e-8 * determinant_scale(W)

    def test_every_point_is_refined_through_the_module_binding(self, monkeypatch):
        # the benchmark's trace wraps spectrum.refine_root, so the scan must
        # look it up in the module, once per point it returns
        brackets = []
        real = spectrum.refine_root

        def counting(bracket, Z, branch):
            brackets.append((bracket, branch))
            return real(bracket, Z, branch)

        monkeypatch.setattr(spectrum, "refine_root", counting)
        counts = []
        for Z, s_max in ((0.0, 10.0), (2.0, 40.0), (60.0, 128.0), (1e6, 4.0)):
            brackets.clear()
            points = scan_roots(SpectrumRequest(Z=Z, s_max=s_max))
            assert len(brackets) == len(points), (Z, s_max)
            assert sorted(p.branch.value for p in points) == sorted(b.value for _, b in brackets)
            counts.append(len(points))
        assert min(counts[:3]) > 0 and counts[3] == 0  # Z = 1e6 clamps every node

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
        grid = _scan_grid(Z, s_max).s
        out = []
        for branch in (MINUS, PLUS):
            vals = [constraint_factor(float(s), Z, branch) for s in grid]
            for i in range(len(grid) - 1):
                a, b = vals[i], vals[i + 1]
                if a == 0.0 or (a < 0.0) != (b < 0.0):
                    p = refine_root((float(grid[i]), float(grid[i + 1])), Z, branch)
                    out.append((p.s, branch.value))
        return sorted(out)

    def test_seeded_draws_match_scalar_scan(self):
        rng = np.random.default_rng(20260611)
        for k in range(200):
            Z = (0.0, 10.0 ** rng.uniform(-8.0, math.log10(3e3)), rng.uniform(0.0, 80.0))[k % 3]
            s_max = rng.uniform(math.pi, 48.0)
            got = sorted((p.s, p.branch.value)
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
            s = mp.mpf(p.s)
            F = mp_constraint_factor(s, 2.0, p.branch)
            F_s = mp.diff(lambda x: mp_constraint_factor(x, 2.0, p.branch), s)
            assert abs(F / F_s) <= 4.0 * eps * p.s, p

    @pytest.mark.parametrize("Z", [20.0, 2.5])
    def test_oracle_certifies_roots_near_s200(self, Z):
        # Z = 20 keeps the doublets split; at Z = 2.5 the two members of each
        # doublet near s = 200 lie so close that two singular values of the
        # boundary matrix are small, and the null vector must still be exact
        pts = [p for p in scan_roots(SpectrumRequest(Z=Z, s_max=200.0)) if p.s > 190.0]
        assert len(pts) >= 4
        for p in pts:
            report = residual_check(nullspace_solution(p.E, Z), p.E, Z)
            assert max(report.bc_residuals) <= 1e-8, p


class TestRefineRoot:
    def test_hermitian_level(self):
        p = refine_root((3.0, 3.3), 0.0, MINUS)
        assert p.s == pytest.approx(math.pi, abs=1e-12)
        assert p.n == 1

    def test_leading_order_offset(self):
        Z = 0.1
        p = refine_root((3.0, 3.3), Z, MINUS)
        t = Z / (2.0 * math.pi)
        rho_leading = -t * t / math.pi
        assert p.s - math.pi == pytest.approx(rho_leading, rel=5e-3)

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


class FloatSubclass(float):
    pass


def outcome(call):
    """("value", what the call returns), or the type and text of its error."""
    try:
        return "value", call()
    except Exception as exc:
        return type(exc), str(exc)


def checked_request(Z, s_max) -> None:
    """The checks ``SpectrumRequest`` made on every input before it let two
    floats in range through without them."""
    _reject_arrays(types.SimpleNamespace(Z=Z, s_max=s_max))
    validate_coupling(Z)
    if not math.isfinite(s_max):
        raise ValueError(f"s_max must be finite, got {s_max}")
    if s_max < math.pi:
        raise ValueError(f"s_max must be at least pi, got {s_max}")


def kind_id(value) -> str:
    return f"{type(value).__name__}:{value!r}"


class TestFloatFastPaths:
    """``SpectrumRequest`` and ``refine_root`` skip their checks for a
    coupling (and ceiling) given as a float in range; any other input takes
    the checks, with the values and errors it had before."""

    Z_INPUTS = [2.0, 2, True, False, np.float64(2.0), FloatSubclass(2.0), 0.0, -0.0,
                FloatSubclass(-0.0), np.float64(-0.0), -1.0, -5e-324, math.nan, math.inf,
                -math.inf, np.float64(math.nan), FloatSubclass(math.inf), np.array(2.0),
                np.array(-1.0)]
    S_MAX_INPUTS = [40.0, 40, True, np.float64(40.0), FloatSubclass(40.0), math.pi, 3.0, -0.0,
                    -1.0, math.nan, math.inf, -math.inf, np.float64(math.inf),
                    FloatSubclass(math.nan), np.array(40.0), np.array(1.0)]

    @pytest.mark.parametrize("Z", Z_INPUTS, ids=kind_id)
    def test_request_checks_and_scan(self, Z):
        for s_max in self.S_MAX_INPUTS:
            expected = outcome(lambda: checked_request(Z, s_max))
            got = outcome(lambda: SpectrumRequest(Z=Z, s_max=s_max))
            if expected[0] != "value":
                assert got == expected, kind_id(s_max)
                continue
            req = got[1]
            assert req.Z is Z and req.s_max is s_max  # the fields are kept as given
            ref = scan_roots(SpectrumRequest(Z=float(Z), s_max=float(s_max)))
            points = scan_roots(req)
            assert [field_bits(p) for p in points] == [field_bits(p) for p in ref], kind_id(s_max)

    @pytest.mark.parametrize("Z", Z_INPUTS, ids=kind_id)
    def test_refine_root_checks_and_points(self, Z):
        expected = outcome(lambda: validate_coupling(Z))
        if expected[0] != "value":
            assert outcome(lambda: refine_root((3.0, 3.3), Z, MINUS)) == expected
            return
        brackets = [(lo, hi, branch) for *_, lo, hi, branch in scan_brackets(float(Z), 12.0)]
        assert len(brackets) >= 6
        for lo, hi, branch in brackets:
            p = refine_root((lo, hi), Z, branch)
            assert field_bits(p) == field_bits(refine_root((lo, hi), float(Z), branch))
            assert type(p.Z) is float


def scan_brackets(Z: float, s_max: float):
    """(Z, s_max, s_lo, s_hi, branch) of every bracket that the scan of
    (Z, s_max) refines."""
    grid = _scan_grid(Z, s_max).s
    for branch in (MINUS, PLUS):
        vals = constraint_factor(grid, Z, branch)
        a, b = vals[:-1], vals[1:]
        for i in np.flatnonzero((a == 0.0) | ((a < 0.0) != (b < 0.0))).tolist():
            yield Z, s_max, float(grid[i]), float(grid[i + 1]), branch


def seeded_scan_brackets():
    """The brackets of the scans of 400 seeded (Z, s_max) draws
    (``scan_brackets``); Z = 0 and 5e-324 included."""
    rng = np.random.default_rng(20261018)
    for k in range(400):
        Z = (0.0, 5e-324, 10.0 ** rng.uniform(-8.0, math.log10(3e3)),
             rng.uniform(0.0, 80.0))[k % 4]
        s_max = math.exp(rng.uniform(math.log(math.pi), math.log(300.0)))
        yield from scan_brackets(Z, s_max)


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
            assert p.s == s, (Z, s_max, lo, hi, branch)
            assert p.residual == abs(constraint_factor(s, Z, branch)), (Z, s_max, lo, hi)
            brackets += 1
        assert brackets > 12000

    def test_large_s_brackets(self):
        # every bracket of the scan at Z = 2 up to s = 10^4: from s of a few
        # hundred on, residuals exceed the root rule's floor of 1e-12, and the
        # rule's rounding bound accepts them
        eps = np.finfo(float).eps
        above_floor = 0
        for Z, s_max, lo, hi, branch in scan_brackets(2.0, 1e4):
            p = refine_root((lo, hi), Z, branch)
            s = brentq(constraint_factor, lo, hi, args=(Z, branch),
                       xtol=1e-15, rtol=4.0 * eps, maxiter=200)
            assert p.s == s, (lo, hi, branch)
            assert p.residual == abs(constraint_factor(s, Z, branch)), (lo, hi, branch)
            above_floor += p.residual > 1e-12
        assert above_floor > 1000

    @pytest.mark.parametrize("Z, s_far", [(80.0, 40.0), (1e6, 1.2e5)])
    def test_brackets_from_the_clamped_prefix(self, Z, s_far):
        # the scan at s_max = 4 finds no bracket at Z = 1e6, where t = Z/(2s)
        # exceeds 350 on every node; brackets from those clamped nodes, where
        # F is +inf, to nodes further out where F < 0 start Brent on an
        # infinite end value, as scipy starts on constraint_factor's
        eps = np.finfo(float).eps
        grid = _scan_grid(Z, 4.0).s
        clamped = grid[Z / (2.0 * grid) > 350.0]
        assert clamped.size and (Z < 1e6 or not list(scan_brackets(Z, 4.0)))
        far = _scan_grid(Z, s_far).s
        for branch in (MINUS, PLUS):
            negative = far[constraint_factor(far, Z, branch) < 0.0]
            assert negative.size
            for lo in clamped[:: max(1, clamped.size // 4)].tolist():
                for hi in negative[:: max(1, negative.size // 4)].tolist():
                    s, f = spectrum._brent(lo, hi, Z, branch.sin_term_sign)
                    ref = brentq(constraint_factor, lo, hi, args=(Z, branch),
                                 xtol=1e-15, rtol=4.0 * eps, maxiter=200)
                    assert same_bits(s, ref), (lo, hi, branch)
                    assert same_bits(f, constraint_factor(ref, Z, branch)), (lo, hi, branch)


def recorded(f):
    """f, and the list of the arguments it is called with."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


def same_bits(x: float, y: float) -> bool:
    return struct.pack("<d", x) == struct.pack("<d", y)


class TestSeriesSamples:
    """``_rhos_at`` solves the series fit's samples by Newton's method on
    numpy arrays.  Its roots are pinned by accuracy, not by bits: numpy's
    sin may differ from math.sin in the last bit on another CPU."""

    # the t grid of verify's series check and of tests/test_series.py, and a denser one
    TS = sorted({*np.linspace(0.05, 0.2, 24).tolist(), *np.linspace(1e-3, 0.2, 97).tolist()})

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("branch", [MINUS, PLUS])
    def test_series_fit_brackets(self, n, branch):
        # each root within an ulp of scipy's brentq on the bracket n*pi +- 0.4;
        # s and n*pi are within a factor of 2, so rho = s - n*pi is exact and
        # n*pi + rho gives s back
        a, eps = n * math.pi, np.finfo(float).eps
        rhos = spectrum._rhos_at(n, branch, np.array(self.TS))
        for t, rho in zip(self.TS, rhos.tolist()):
            ref = brentq(lambda s: factor_value(t, s, branch), a - 0.4, a + 0.4,
                         xtol=1e-16, rtol=4.0 * eps, maxiter=100)
            assert abs((a + rho) - ref) <= math.ulp(ref), (t, rho, ref - a)

    @pytest.mark.parametrize("n, branch, t", [
        (1, MINUS, 1e-3), (1, PLUS, 0.2), (2, MINUS, 0.05), (3, PLUS, 0.137), (8, MINUS, 0.2),
    ])
    def test_within_two_ulp_of_the_mpmath_root(self, n, branch, t):
        s = n * math.pi + spectrum._rhos_at(n, branch, np.array([t])).item(0)
        tt = mp.mpf(t)  # the double t, exactly
        root = mp.findroot(lambda x: tt * mp.sinh(tt) + branch.sin_term_sign * x * mp.sin(x),
                           mp.mpf(s))
        assert abs(mp.mpf(s) - root) <= 2 * math.ulp(s), (s, root)

    def test_no_convergence_raises(self):
        # a NaN sample never meets the step test
        with pytest.raises(ConvergenceError, match="series samples did not converge"):
            spectrum._rhos_at(1, MINUS, np.array([0.1, math.nan]))


def public_point(Z: float, branch: SecularBranch, s: float, residual: float) -> SpectralPoint:
    """A root's point built through the public, fully checked constructor,
    as ``refine_root`` built it before ``SpectralPoint._at_root``."""
    t = Z / (2.0 * s)
    return SpectralPoint(
        Z=Z,
        branch=branch,
        n=round(s / math.pi),
        s=s,
        t=t,
        E=s**2 - t**2,
        residual=residual,
    )


def field_bits(p: SpectralPoint) -> list[tuple[str, type, object]]:
    """Every field of a point with its name and type; floats by their bits (hex)."""
    values = [(f.name, getattr(p, f.name)) for f in dataclasses.fields(p)]
    return [(name, type(v), v.hex() if isinstance(v, float) else v) for name, v in values]


class TestCertifiedConstruction:
    """``refine_root`` builds its point by ``SpectralPoint._at_root``, which
    skips the public constructor's checks; the point must be the one the
    public constructor gives, and still a frozen, checkable value."""

    def test_seeded_scan_brackets_match_public_construction(self):
        brackets = 0
        for Z, s_max, lo, hi, branch in seeded_scan_brackets():
            p = refine_root((lo, hi), Z, branch)
            s, f = spectrum._brent(lo, hi, Z, branch.sin_term_sign)
            ref = public_point(Z, branch, s, abs(f))
            assert field_bits(p) == field_bits(ref), (Z, s_max, lo, hi, branch)
            assert p == ref and hash(p) == hash(ref) and repr(p) == repr(ref)
            assert dataclasses.replace(p) == p  # re-runs SpectralPoint's checks
            with pytest.raises(dataclasses.FrozenInstanceError):
                p.E = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                p.s = 1.0
            brackets += 1
        assert brackets > 12000


GRID_COUPLINGS = (0.0, 5e-324, 1e-8, 2.5, 80.0, 1e4)


def reference_scan(Z: float, s_max: float) -> list[SpectralPoint]:
    """``scan_roots`` as built before the one-pass grid, the certified
    constructor and the sort on E alone: one ``constraint_factor`` pass per
    branch and publicly constructed points sorted by (E, branch name)."""
    grid = _scan_grid(Z, s_max).s
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


def old_bracket_rule(row: np.ndarray) -> np.ndarray:
    """The bracket test of one factor's row as the scan made it before the
    two rows shared one test."""
    a, b = row[:-1], row[1:]
    return (a == 0.0) | ((a < 0.0) != (b < 0.0))


def old_scan_grid(Z: float, s_max: float) -> np.ndarray:
    """``_scan_grid`` as it was before it dropped only the last node."""
    step = math.pi / 64.0
    base = np.arange(step, s_max + 0.5 * step, step)
    base = base[base <= s_max]
    if Z > 0.0:
        lo = 0.125 * math.sqrt(0.5 * Z)
        if 0.0 < lo < step:
            down = [step]
            while down[-1] > lo:
                down.append(down[-1] / 1.25)
            base = np.concatenate([np.array(down[:0:-1]), base])
    return base


class TestGridFactors:
    """The scan forms both factors, the rows of one array, from one t*sinh t
    and one s*sin s array."""

    @pytest.mark.parametrize("Z", GRID_COUPLINGS)
    @pytest.mark.parametrize("s_max", [math.pi, 40.0, 2000.0])
    def test_one_pass_is_constraint_factor_bit_for_bit(self, Z, s_max):
        columns = _scan_grid(Z, s_max)
        grid = columns.s
        factors = spectrum._grid_factors(columns, Z)
        assert factors.shape == (2, grid.size) and spectrum._ROW_BRANCHES == (MINUS, PLUS)
        for branch, vals in zip(spectrum._ROW_BRANCHES, factors):
            ref = constraint_factor(grid, Z, branch)
            assert vals.dtype == ref.dtype and vals.tobytes() == ref.tobytes(), branch
        if Z >= 80.0:  # t = Z/(2s) > 350 at the low end of the grid
            assert np.isposinf(factors[:, 0]).all()

    @pytest.mark.parametrize("Z, s_max, clamped", [
        (1.0, 40.0, "none"), (80.0, 40.0, "part"), (1e6, 4.0, "all"),
    ])
    def test_clamped_prefix(self, Z, s_max, clamped):
        columns = _scan_grid(Z, s_max)
        grid = columns.s
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors = spectrum._grid_factors(columns, Z)
            refs = [constraint_factor(grid, Z, branch) for branch in spectrum._ROW_BRANCHES]
            points = scan_roots(SpectrumRequest(Z=Z, s_max=s_max))
        k = np.count_nonzero(Z / (2.0 * grid) > 350.0)
        assert {"none": k == 0, "part": 0 < k < grid.size, "all": k == grid.size}[clamped]
        assert np.isposinf(factors[:, :k]).all() and np.isfinite(factors[:, k:]).all()
        for vals, ref in zip(factors, refs):
            assert vals.tobytes() == ref.tobytes()
        assert [field_bits(p) for p in points] == [field_bits(p) for p in reference_scan(Z, s_max)]
        assert (points == []) == (clamped == "all")

    @pytest.mark.parametrize("Z", [1.8e307, 1e308, sys.float_info.max])
    @pytest.mark.parametrize("s_max", [4.0, 2e4])
    def test_overflowing_t_is_clamped_without_a_warning(self, Z, s_max):
        # from Z of about 1.77e307 on, Z/(2s) passes the float maximum at the
        # first node, below the grid record's cap and past it; the clamp makes
        # every such node +inf, and pytest turns any warning into an error
        assert Z / (2.0 * math.pi / 64.0) == math.inf
        assert scan_roots(SpectrumRequest(Z=Z, s_max=s_max)) == []

    ROWS = [
        [0.0, 1.0, -1.0, 2.0, 3.0],         # +0.0 at the first node
        [-0.0, -1.0, 2.0, -3.0, 4.0],       # -0.0 first, sign changes in adjacent cells
        [1.0, 0.0, 2.0, -0.0, -1.0],        # zeros at interior nodes
        [1.0, -1.0, 2.0, 5.0, 0.0],         # +0.0 at the last node
        [-1.0, 2.0, -2.0, 3.0, -0.0],       # -0.0 at the last node
        [math.inf, math.inf, 3.0, -1.0, 2.0],  # a +inf prefix
        [math.inf] * 5,
        [1.0, 2.0, 3.0, 4.0, 5.0],
        [-1.0, -2.0, -3.0, -4.0, -5.0],
    ]

    @pytest.mark.parametrize("minus, plus", itertools.product(range(len(ROWS)), repeat=2))
    def test_sign_change_cells_is_the_old_rule(self, minus, plus):
        # the pairs include row 0 ending negative or at +-0.0 before a row 1
        # that starts positive or at +-0.0, where the cell joining the two
        # rows in F.ravel() would be a bracket if it were not cleared
        F = np.array([self.ROWS[minus], self.ROWS[plus]])
        n = F.shape[1]
        cells = spectrum._sign_change_cells(F)
        assert all(type(j) is int for j in cells) and n - 1 not in cells
        assert [divmod(j, n) for j in cells] == [
            (row, i) for row in (0, 1) for i in np.flatnonzero(old_bracket_rule(F[row])).tolist()
        ]

    def test_scan_grid_is_the_old_mask(self):
        step = math.pi / 64.0
        nodes = np.arange(step, 400.0, step)
        for k in range(63, nodes.size, 37):
            node = float(nodes[k])
            for s_max in (math.nextafter(node, 0.0), node, math.nextafter(node, math.inf)):
                if s_max < math.pi:
                    continue
                for Z in (0.0, 1e-4, 80.0):
                    assert _scan_grid(Z, s_max).s.tobytes() == old_scan_grid(Z, s_max).tobytes()

    @pytest.mark.parametrize("Z", GRID_COUPLINGS)
    @pytest.mark.parametrize("s_max", [math.pi, 40.0, 2000.0])
    def test_scan_returns_the_reference_points(self, Z, s_max):
        got = scan_roots(SpectrumRequest(Z=Z, s_max=s_max))
        ref = reference_scan(Z, s_max)
        assert [field_bits(p) for p in got] == [field_bits(p) for p in ref]


def scan_digest(count: int) -> str:
    """sha256 of every field of every point of ``count`` seeded scans: Z = 0,
    1e-300 and 5e-324, log-uniform over [1e-8, 1e7] and uniform over [2.5,
    80], s_max log-uniform over [pi, 300], every 50th over [300, 2000]."""
    rng = np.random.default_rng(20261020)
    digest = hashlib.sha256()
    for k in range(count):
        Z = (0.0, 1e-300, 5e-324, 10.0 ** rng.uniform(-8.0, 7.0), rng.uniform(2.5, 80.0))[k % 5]
        lo, hi = (300.0, 2000.0) if k % 50 == 49 else (math.pi, 300.0)
        s_max = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        for p in scan_roots(SpectrumRequest(Z=Z, s_max=s_max)):
            digest.update(repr(field_bits(p)).encode() + b"\n")
        digest.update(b"\n")
    return digest.hexdigest()


# scan_digest(3000) of the scans that formed their nodes, 2*s and s*sin s
# anew in each call, and whose Brent took |s| in its tolerance and tested t
# against -350 too
SCAN_DIGEST = "feef2beaff62d13d38a250c857820fb77e4f0bca024df7ed77793e40d91f6f9d"


@pytest.fixture
def empty_record(monkeypatch):
    """A process whose scans have built no grid record yet; the record is
    put back after the test."""
    monkeypatch.setattr(spectrum, "_record", (-math.inf, spectrum._Grid(*[np.empty(0)] * 3)))


class TestGridRecord:
    """The uniform nodes, 2*s and s*sin s depend on no coupling: one
    read-only record per process holds them up to the largest s_max scanned
    (at most ``_GRID_CAP``), and a scan reads its first n entries as views."""

    @staticmethod
    def node_s_maxes() -> list[float]:
        """s_max on about 200 nodes from pi to the cap and one ulp either side
        of each, the cap itself, and s_max past it."""
        nodes = old_scan_grid(0.0, spectrum._GRID_CAP)
        past = old_scan_grid(0.0, 1.02e4)
        picks = np.unique(np.geomspace(63, nodes.size - 1, 200).round().astype(int))
        out = [spectrum._GRID_CAP, 1.02e4]
        for node in [*nodes[picks].tolist(), float(past[nodes.size])]:
            out += [math.nextafter(node, 0.0), node, math.nextafter(node, math.inf)]
        return [s_max for s_max in out if s_max >= math.pi]

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_record_is_the_trimmed_arange(self, empty_record, order):
        s_maxes = sorted(self.node_s_maxes(), reverse=order == "descending")
        if order == "shuffled":
            np.random.default_rng(20261020).shuffle(s_maxes)
        builds = 0
        for s_max in s_maxes:
            record = spectrum._record
            grid = _scan_grid(0.0, s_max)
            ref = old_scan_grid(0.0, s_max)
            assert grid.s.tobytes() == ref.tobytes(), s_max
            assert grid.two_s.tobytes() == (2.0 * ref).tobytes(), s_max
            assert grid.s_sin_s.tobytes() == (ref * np.sin(ref)).tobytes(), s_max
            top, columns = spectrum._record
            if s_max <= spectrum._GRID_CAP:
                assert all(np.shares_memory(a, b) for a, b in zip(grid, columns)), s_max
            builds += spectrum._record is not record
            # the record is rebuilt only for an s_max past its own, and up to the cap
            assert (spectrum._record is not record) == (record[0] < min(s_max, spectrum._GRID_CAP))
            assert top == max(record[0], min(s_max, spectrum._GRID_CAP))
        assert columns.s.size == 203718 and columns.s.tobytes() == old_scan_grid(0.0, 1e4).tobytes()
        assert builds > 1 if order != "descending" else builds == 1

    def test_record_refuses_writes(self):
        scan_roots(SpectrumRequest(Z=2.5, s_max=40.0))
        for column in (*spectrum._record[1], *_scan_grid(2.5, 40.0)):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    @pytest.mark.parametrize("Z", [0.0, 5e-324, 1e-8, 0.2, 2.5, 80.0, 1e6])
    def test_factors_on_record_prefixes(self, Z):
        # 1e-8 and 0.2 join geometric nodes below pi/64 to the views; 80 and
        # 1e6 clamp t*sinh t on a prefix of the nodes, 1e6 on all below s = 1428
        _scan_grid(0.0, 2000.0)
        nodes = old_scan_grid(0.0, 2000.0)
        for k in (63, 64, 200, 1000, 9000, 29000, nodes.size - 1):
            node = float(nodes[k])
            for s_max in (math.nextafter(node, 0.0), node, math.nextafter(node, math.inf)):
                columns = _scan_grid(Z, s_max)
                grid = columns.s
                assert grid.tobytes() == old_scan_grid(Z, s_max).tobytes()
                assert (grid[0] < nodes[0]) == (Z in (1e-8, 0.2))
                factors = spectrum._grid_factors(columns, Z)
                for branch, vals in zip(spectrum._ROW_BRANCHES, factors):
                    ref = constraint_factor(grid, Z, branch)
                    assert vals.tobytes() == ref.tobytes(), (s_max, branch)
                assert np.isposinf(factors[:, 0]).all() == (Z >= 80.0)

    def test_seeded_scans_keep_their_bits(self, empty_record):
        assert scan_digest(3000) == SCAN_DIGEST


class TestBrentOnItsDomain:
    """``_brent`` takes brackets with 0 < s_lo < s_hi and Z >= 0 only, where
    every iterate stays in the bracket, so it tests t against +350 alone and
    takes s for |s| in its tolerance; its roots are still scipy's."""

    @pytest.mark.parametrize("s_lo", [1e-300, 5e-324])
    @pytest.mark.parametrize("Z", [0.0, 1e-8, 2.5, 80.0])
    def test_brackets_from_near_zero(self, s_lo, Z):
        # F is +inf at s_lo for Z > 0 (t overflows the clamp) and 0.0 at Z = 0
        eps = np.finfo(float).eps
        runs = 0
        for branch in (MINUS, PLUS):
            f_lo = constraint_factor(s_lo, Z, branch)
            for hi in old_scan_grid(0.0, 40.0)[::16].tolist():
                f_hi = constraint_factor(hi, Z, branch)
                if f_lo != 0.0 and f_hi != 0.0 and (f_lo < 0.0) == (f_hi < 0.0):
                    continue
                s, f = spectrum._brent(s_lo, hi, Z, branch.sin_term_sign)
                ref = brentq(constraint_factor, s_lo, hi, args=(Z, branch),
                             xtol=1e-15, rtol=4.0 * eps, maxiter=200)
                assert same_bits(s, ref), (hi, branch)
                assert same_bits(f, constraint_factor(ref, Z, branch)), (hi, branch)
                runs += 1
        assert runs >= 10

    @pytest.mark.parametrize("Z", [0.0, 2.5, 80.0])
    def test_brackets_that_end_in_delta_steps(self, Z):
        # a bracket a few tolerances wide about a root: the interpolation
        # steps there fall below delta = (xtol + rtol*s)/2, and Brent steps by
        # delta toward the far end, the step its tolerance sets directly
        eps = np.finfo(float).eps
        delta_runs = 0
        for p in scan_roots(SpectrumRequest(Z=Z, s_max=300.0))[::3]:
            for k in (2.0, 5.0, 40.0):
                w = k * (1e-15 + 4.0 * eps * p.s)
                lo, hi = p.s - w, p.s + 0.7 * w
                factor = (lambda x, branch=p.branch: constraint_factor(x, Z, branch))
                f_lo, f_hi = factor(lo), factor(hi)
                if (f_lo < 0.0) == (f_hi < 0.0):
                    continue
                g, xs = recorded(factor)
                ref = brentq(g, lo, hi, xtol=1e-15, rtol=4.0 * eps, maxiter=200)
                s, f = spectrum._brent(lo, hi, Z, p.branch.sin_term_sign)
                assert same_bits(s, ref) and same_bits(f, factor(ref)), (p, k)
                delta_runs += any(x in (y + d, y - d) for i, x in enumerate(xs) for y in xs[:i]
                                  for d in [(1e-15 + 4.0 * eps * y) * 0.5])
        assert delta_runs >= 100


@pytest.mark.xfail(
    strict=True,
    reason="the n = 0 level at small Z: E = s**2 - t**2 is about Z**2/12 with "
    "condition about 24/Z in s, Brent's absolute xtol leaves s more than an ulp off, and "
    "from Z of about 1e-12 down the 1e-12 floor on |F| accepts an s far from the root",
)
@pytest.mark.parametrize("Z", [
    1e-6,    # relative error 2.2e-7
    1e-12,   # E is 301 times Z**2/12
    1e-16,   # E < 0
    1e-300,  # E = -5.67e-302, s/t - 1 = -5.5e-2; the 1e-12 root floor accepts it
])
def test_ground_level_energy_at_small_coupling(Z):
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
        hi = [p for p in hi_all if p.s > 6.0]
        merged = sorted(lo + hi, key=lambda p: (p.E, p.branch.value))
        assert len(merged) == len(full)
        for a, b in zip(merged, full):
            assert a.s == pytest.approx(b.s, abs=2e-12)
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
