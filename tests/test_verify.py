"""The array paths of the verify sweeps against the per-point calls they
stand for.

The identity sweeps make one array call per kernel, and the determinant sweep
stacks its matrices; each value must agree with the scalar call at its point
to a few units of rounding, far below the checks' bounds, and the determinant
roots with those of a per-energy ``boundary_determinant`` refined by
``scipy.optimize.brentq``.
"""

import dataclasses
import math
import re
import types

import numpy as np
import pytest
from scipy.optimize import brentq

from ptcircle import oracle, secular, spectrum, transition, verify

EPS = np.finfo(float).eps


@pytest.mark.parametrize("n_points", [2000, 10_000])
@pytest.mark.parametrize("s_form", [False, True])
def test_identity_sweep_matches_per_point_calls(monkeypatch, n_points, s_form):
    name = "secular_s" if s_form else "secular_t"
    kernel = getattr(secular, name)
    calls = {name: [], "factor_value": []}

    def recorder(key, f):
        def record(*args):
            calls[key].append((args, f(*args)))
            return calls[key][-1][1]
        return record

    residuals = []
    real_residuals = verify._identity_residuals

    def keep_residuals(*args):
        residuals.append(real_residuals(*args))
        return residuals[-1]

    factor = secular.factor_value
    monkeypatch.setattr(secular, name, recorder(name, kernel))
    monkeypatch.setattr(secular, "factor_value", recorder("factor_value", factor))
    monkeypatch.setattr(verify, "_identity_residuals", keep_residuals)
    result = verify._identity_sweep(n_points, s_form)

    # the points: the R2 sequence of the plastic number at k = 1..n (t form)
    # or n+1..2n (s form), scaled to the box, with Z = 0 left out
    g = 1.324717957244746
    k = np.arange(1, n_points + 1) + (n_points if s_form else 0)
    t = 1e-3 + (20.0 - 1e-3) * ((0.5 + k / g) % 1.0)
    Z = 100.0 * ((0.5 + k / g**2) % 1.0)
    t, Z = t[Z != 0.0], Z[Z != 0.0]
    s = Z / (2.0 * t)
    # one array call per kernel at those points, each value the scalar call's
    # within 16 units of rounding of the terms of its form
    [((x, z), lhs)] = calls[name]
    assert x.tolist() == (s if s_form else t).tolist() and z.tolist() == Z.tolist()
    lhs_scalar = np.array([kernel(a, b) for a, b in zip(x.tolist(), Z.tolist())])
    if s_form:
        scale = 16.0 * s * s + np.exp(-2.0 * t) * np.expm1(2.0 * t) ** 2 * Z * Z / (s * s)
    else:
        scale = 4.0 * np.exp(-2.0 * t) * np.expm1(2.0 * t) ** 2 * t * t + 4.0 * Z * Z / (t * t)
    assert np.all(np.abs(lhs - lhs_scalar) <= 16.0 * EPS * scale)
    branches = (secular.SecularBranch.FACTOR_PLUS, secular.SecularBranch.FACTOR_MINUS)
    assert [args[2] for args, _ in calls["factor_value"]] == list(branches)
    factor_scale = np.abs(t * np.sinh(t)) + s
    factors, factors_scalar = [], []
    for (ts, ss, branch), values in calls["factor_value"]:
        assert ts.tolist() == t.tolist() and ss.tolist() == s.tolist()
        expected = [factor(a, b, branch) for a, b in zip(t.tolist(), s.tolist())]
        assert np.all(np.abs(values - expected) <= 16.0 * EPS * factor_scale)
        factors.append(values)
        factors_scalar.append(np.array(expected))
    fp, fm = factors
    # verify's residual at every point is the defect of those very values
    [residual] = residuals
    assert residual.tobytes() == (
        np.abs(lhs - 16.0 * fp * fm) / np.maximum(1.0, np.abs(lhs))).tobytes()
    # and, at every point, the scalar calls' defect up to their differences:
    # 16 eps of scale from the kernel, 16*16 eps of factor_scale times each
    # factor from the product, and the rounding of the defect itself
    fp_scalar, fm_scalar = factors_scalar
    residual_scalar = (np.abs(lhs_scalar - 16.0 * fp_scalar * fm_scalar)
                       / np.maximum(1.0, np.abs(lhs_scalar)))
    bound = (64.0 * EPS * (scale + 16.0 * factor_scale * (np.abs(fp) + np.abs(fm)))
             / np.maximum(1.0, np.abs(lhs)))
    assert np.all(np.abs(residual - residual_scalar) <= bound)
    # the detail reports the largest residual at those points
    worst = residual.max()
    assert result.detail == f"max relative residual {worst:.3e} over {t.size} points"
    assert result.passed and worst <= 1e-9


def test_identity_points_cover_the_box():
    # 2000 points of each form leave no cell of a 10 x 10 partition of
    # t in [1e-3, 20), Z in [0, 100) empty, and the two forms share no point
    points = []
    for s_form in (False, True):
        t, Z = verify._identity_points(2000, s_form)
        i = np.floor((t - 1e-3) / (20.0 - 1e-3) * 10.0).astype(int)
        j = np.floor(Z / 10.0).astype(int)
        assert set(zip(i.tolist(), j.tolist())) == {(a, b) for a in range(10) for b in range(10)}
        points.append(set(zip(t.tolist(), Z.tolist())))
    assert not points[0] & points[1]


def reference_det_roots(Z, s_max):
    """The determinant sweep with one ``boundary_determinant`` per energy."""
    s_grid = np.arange(math.pi / 128, s_max, math.pi / 128)
    if Z > 0:
        lo = 0.1 * math.sqrt(0.5 * Z)
        if lo < s_grid[0]:
            extra = []
            v = s_grid[0]
            while v > lo:
                v /= 1.25
                extra.append(v)
            s_grid = np.concatenate([np.array(extra[::-1]), s_grid])
    energies = s_grid**2 - (Z / (2.0 * s_grid)) ** 2

    def det_re(E):
        return oracle.boundary_determinant(E, Z).real

    vals = np.array([det_re(float(E)) for E in energies])
    roots = []
    for i in range(len(energies) - 1):
        if (vals[i] < 0.0) != (vals[i + 1] < 0.0):
            roots.append(
                brentq(det_re, float(energies[i]), float(energies[i + 1]), xtol=1e-12, rtol=1e-14)
            )
    return energies, vals, sorted(roots)


def assert_roots_close(got, expected):
    """Equal in count per coupling, and each root within 1e-14 relative."""
    assert [len(roots) for roots in got] == [len(roots) for roots in expected]
    for roots, reference in zip(got, expected):
        assert np.all(np.abs(np.array(roots) - reference) <= 1e-14 * np.abs(reference))


@pytest.mark.parametrize("Z", [0.0, 0.5, 3.0, 5.0, 10.0, 17.0])
def test_det_sweep_is_the_per_energy_determinant(Z):
    s_max = 4.6 * math.pi  # as in the zero-set-equivalence check
    energies, vals, roots = reference_det_roots(Z, s_max)
    got_energies, got_vals = verify._det_sweep(Z, s_max)
    assert got_energies.tolist() == energies.tolist()
    # each value within 1e-13 of its matrix's scale, and of the same sign, so
    # that the sweep brackets the same roots
    scale = [oracle.determinant_scale(oracle.boundary_matrix(E, Z)) for E in energies.tolist()]
    assert np.all(np.abs(got_vals - vals) <= 1e-13 * np.array(scale))
    assert np.array_equal(got_vals < 0.0, vals < 0.0)
    assert_roots_close(verify._det_roots((Z,), s_max), [roots])


def test_det_roots_of_all_couplings_refined_together():
    # the couplings of the full zero-set check in one batch: each coupling's
    # roots are those of its own per-energy reference
    z_values = (0.5, 3.0, 5.0, 10.0, 17.0)
    s_max = 4.6 * math.pi
    expected = [reference_det_roots(Z, s_max)[2] for Z in z_values]
    got = verify._det_roots(z_values, s_max)
    assert sum(map(len, got)) == 41
    assert_roots_close(got, expected)
    assert verify._det_roots((), s_max) == []


@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
def test_det_roots_nan_determinant_raises():
    # a NaN value inside a bracket stops the batch with the scalar loop's error
    real = oracle.boundary_matrices

    def nan_at_second_coupling(E, Z):
        W = real(E, Z)
        if np.ndim(Z):  # in the refinement, not in the sweep
            W[Z == 3.0] = np.nan
        return W

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "boundary_matrices", nan_at_second_coupling)
        with pytest.raises(ValueError, match="is NaN; solver cannot continue"):
            verify._det_roots((0.5, 3.0), 4.6 * math.pi)


# ---------------------------------------------------------------------------
# a measured value that comes back NaN fails its check


def nan_every_7th(kernel):
    def patched(x, Z):
        values = kernel(x, Z)
        return np.where(np.arange(values.size) % 7 == 3, np.nan, values)
    return patched


def nan_on_call(f, call):
    """f, with its value on the call-th call (from 1) replaced by NaN."""
    calls = []

    def patched(*args):
        calls.append(args)
        value = f(*args)
        return math.nan if len(calls) == call else value
    return patched


def _inject_identity(mp, s_form):
    name = "secular_s" if s_form else "secular_t"
    mp.setattr(secular, name, nan_every_7th(getattr(secular, name)))
    return verify._identity_sweep(2000, s_form)


def _inject_hermitian(mp):
    real = spectrum.scan_roots
    mp.setattr(spectrum, "scan_roots",
               lambda req: real(req) + [types.SimpleNamespace(E=math.nan)])
    return verify._hermitian_limit()


def _inject_series(mp):
    real = spectrum.fit_series_numeric

    def fit(*args):
        c = real(*args)
        return dataclasses.replace(c, coeffs=(c.coeffs[0], math.nan))
    mp.setattr(spectrum, "fit_series_numeric", fit)
    return verify._series_vs_fit((1,))


def _inject_zero_set(mp):
    real = oracle.residual_check

    def check(*args):
        report = real(*args)
        return dataclasses.replace(report, bc_residuals=(*report.bc_residuals[:3], math.nan))
    mp.setattr(oracle, "residual_check", check)
    return verify._zero_set_equivalence((3.0,))


def _inject_folds(mp):
    folds = transition.critical_sequence(2)
    mp.setattr(secular, "constraint_factor", lambda *args: math.nan)
    return verify._fold_certificates(folds)


def _inject_table(mp):
    real = verify._solve_table_row

    def row(*args):
        params, energy = real(*args)
        return types.SimpleNamespace(alpha=params.alpha, beta=math.nan), energy
    mp.setattr(verify, "_solve_table_row", row)
    return verify._table_goldens(True, transition.critical_sequence(2))


def _inject_dirichlet(mp):
    return verify._dirichlet_comparison([types.SimpleNamespace(Z_crit=math.nan)])


def _inject_pt(mp):
    mp.setattr(oracle, "pt_symmetry_check", nan_on_call(oracle.pt_symmetry_check, 2))
    return verify._pt_symmetry()


def _inject_perturbative(mp):
    mp.setattr(spectrum, "perturbative_energy", nan_on_call(spectrum.perturbative_energy, 3))
    return verify._perturbative_vs_scan()


def _inject_pairing(mp):
    mp.setattr(transition, "broken_secular_symmetric",
               nan_on_call(transition.broken_secular_symmetric, 4))
    return verify._conjugate_pairing()


def _inject_exact_broken(mp):
    real = transition.real_pair_near_fold
    nan_member = types.SimpleNamespace(energy=lambda: types.SimpleNamespace(re_E=math.nan))
    mp.setattr(transition, "real_pair_near_fold", lambda *args: real(*args) + [nan_member])
    return verify._exact_broken_consistency(transition.critical_sequence(1))


@pytest.mark.parametrize("check, inject", [
    ("factorization-identity", lambda mp: _inject_identity(mp, False)),
    ("s-representation-identity", lambda mp: _inject_identity(mp, True)),
    ("hermitian-limit", _inject_hermitian),
    ("series-vs-fit", _inject_series),
    ("zero-set-equivalence", _inject_zero_set),
    ("fold-certificates", _inject_folds),
    ("table-goldens", _inject_table),
    ("periodic-vs-dirichlet", _inject_dirichlet),
    ("pt-symmetry", _inject_pt),
    ("perturbative-vs-scan", _inject_perturbative),
    ("conjugate-pairing", _inject_pairing),
    ("exact-broken-consistency", _inject_exact_broken),
])
def test_nan_measurement_fails_its_check(monkeypatch, check, inject):
    result = inject(monkeypatch)
    assert result.name == check
    assert not result.passed, result.detail


def test_every_check_has_a_nan_injection():
    names = {r.name for r in verify.run_checks(verify.FULL)}
    injected = {args[0] for args in test_nan_measurement_fails_its_check.pytestmark[0].args[1]}
    assert names == injected


def test_zero_set_certifies_every_scanned_root(monkeypatch):
    # one stacked null-space call over the scanned roots of every coupling in
    # order, then one residual check per root
    z_values = (0.5, 3.0, 5.0, 10.0, 17.0)
    calls = {"nullspace_solutions": [], "residual_check": []}

    def recording(name):
        real = getattr(oracle, name)

        def record(*args):
            calls[name].append(args)
            return real(*args)
        return record

    for name in calls:
        monkeypatch.setattr(oracle, name, recording(name))
    assert verify._zero_set_equivalence(z_values).passed
    energies, couplings = [], []
    for Z in z_values:
        pts = spectrum.scan_roots(spectrum.SpectrumRequest(Z=Z, s_max=4.6 * math.pi))
        energies += [p.E for p in pts]
        couplings += [Z] * len(pts)
    assert len(energies) == 41
    [(E, Z)] = calls["nullspace_solutions"]
    assert (list(E), list(Z)) == (energies, couplings)
    sols = oracle.nullspace_solutions(energies, couplings)
    assert calls["residual_check"] == list(zip(sols, energies, couplings))


def test_pt_symmetry_line():
    # rounding-sized on the unbroken states, order one on the broken pair
    result = verify._pt_symmetry()
    unbroken = re.fullmatch(r"unbroken max (\S+) \(Z=2\), broken 0\.387 \(Z=6\)", result.detail)
    assert result.passed and unbroken is not None, result.detail
    assert float(unbroken.group(1)) <= 1e-8
