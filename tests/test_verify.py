"""The fast paths of the verify sweeps against the per-point loops they replaced.

Each reference below is the earlier loop, kept verbatim as the oracle: the
identity sweep drew each point with two scalar ``rng.uniform`` calls and
called the scalar kernels per point, and the determinant sweep called
``boundary_determinant`` once per energy.  Equality is exact, so ``verify``
prints the same digits.
"""

import dataclasses
import functools
import math
import re
import types

import numpy as np
import pytest
from scipy.optimize import brentq

from ptcircle import oracle, secular, spectrum, transition, verify


def reference_identity_sweep(n_points, s_form):
    """Kernel arguments and (worst, used) of the per-point draw loop."""
    rng = np.random.default_rng(verify._SEED + 1 if s_form else verify._SEED)
    args = []
    worst = 0.0
    used = 0
    for _ in range(n_points):
        t = rng.uniform(1e-3, 20.0)
        Z = rng.uniform(0.0, 100.0)
        if Z == 0.0:
            continue
        s = Z / (2.0 * t)
        lhs = secular.secular_s(s, Z) if s_form else secular.secular_t(t, Z)
        args.append((s, Z) if s_form else (t, Z))
        params = secular.ExactParams(t=t, s=s)
        fp = secular.secular_factor(params, secular.SecularBranch.FACTOR_PLUS)
        fm = secular.secular_factor(params, secular.SecularBranch.FACTOR_MINUS)
        worst = max(worst, abs(lhs - 16.0 * fp * fm) / max(1.0, abs(lhs)))
        used += 1
    return args, worst, used


@pytest.mark.parametrize("n_points", [2000, 10_000])
@pytest.mark.parametrize("s_form", [False, True])
def test_identity_sweep_matches_per_point_draws(monkeypatch, n_points, s_form):
    name = "secular_s" if s_form else "secular_t"
    kernel = getattr(secular, name)
    factor = secular.secular_factor
    outputs = {name: [], "secular_factor": []}

    def recorder(key, f):
        def record(*args):
            outputs[key].append(f(*args))
            return outputs[key][-1]
        return record

    # the reference's per-point values, as its scalar calls return them
    monkeypatch.setattr(secular, name, recorder(name, kernel))
    monkeypatch.setattr(secular, "secular_factor", recorder("secular_factor", factor))
    expected_args, worst, used = reference_identity_sweep(n_points, s_form)
    lhs, fp, fm = outputs[name], outputs["secular_factor"][0::2], outputs["secular_factor"][1::2]
    expected = [abs(v - 16.0 * p * m) / max(1.0, abs(v)) for v, p, m in zip(lhs, fp, fm)]
    assert functools.reduce(max, expected, 0.0) == worst

    seen = []
    residuals = []
    real_residuals = verify._identity_residuals

    def recording(*args):
        seen.append(args)
        return kernel(*args)

    def keep_residuals(*args):
        residuals.append(real_residuals(*args))
        return residuals[-1]

    monkeypatch.setattr(secular, name, recording)
    monkeypatch.setattr(secular, "secular_factor", factor)
    monkeypatch.setattr(verify, "_identity_residuals", keep_residuals)
    result = verify._identity_sweep(n_points, s_form)
    # one array call, with the reference's points in its order, bit for bit
    assert len(seen) == 1
    assert np.column_stack(seen[0]).tobytes() == np.array(expected_args).tobytes()
    # and the reference's residual at every point, bit for bit
    assert residuals[0].tobytes() == np.array(expected).tobytes()
    assert used == residuals[0].size
    assert result.detail == f"max relative residual {worst:.3e} over {used} points"
    assert result.passed == (worst <= 1e-9)


def test_uniform_map_matches_generator_uniform():
    rng = np.random.default_rng(7)
    expected = [rng.uniform(-3.0, 11.0) for _ in range(5000)]
    u = np.random.default_rng(7).random(5000)
    assert verify._uniform(u, -3.0, 11.0).tolist() == expected


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


@pytest.mark.parametrize("Z", [0.0, 0.5, 3.0, 5.0, 10.0, 17.0])
def test_det_sweep_is_the_per_energy_determinant(Z):
    s_max = 4.6 * math.pi  # as in the zero-set-equivalence check
    energies, vals, roots = reference_det_roots(Z, s_max)
    got_energies, got_vals = verify._det_sweep(Z, s_max)
    assert got_energies.tolist() == energies.tolist()
    assert got_vals.tolist() == vals.tolist()
    assert verify._det_roots((Z,), s_max) == [roots]


def test_det_roots_of_all_couplings_refined_together():
    # the couplings of the full zero-set check in one batch: each coupling's
    # roots are those of its own per-energy reference
    z_values = (0.5, 3.0, 5.0, 10.0, 17.0)
    s_max = 4.6 * math.pi
    expected = [reference_det_roots(Z, s_max)[2] for Z in z_values]
    assert verify._det_roots(z_values, s_max) == expected
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
    real = oracle.residual_checks

    def checks(*args):
        return [dataclasses.replace(report, bc_residuals=(*report.bc_residuals[:3], math.nan))
                for report in real(*args)]
    mp.setattr(oracle, "residual_checks", checks)
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
    # one stacked call each, over the scanned roots of every coupling in order
    z_values = (0.5, 3.0, 5.0, 10.0, 17.0)
    calls = {"nullspace_solutions": [], "residual_checks": []}

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
    [(sols, E, Z)] = calls["residual_checks"]
    assert (len(sols), list(E), list(Z)) == (41, energies, couplings)


def test_pt_symmetry_line():
    # rounding-sized on the unbroken states, order one on the broken pair
    result = verify._pt_symmetry()
    unbroken = re.fullmatch(r"unbroken max (\S+) \(Z=2\), broken 0\.359 \(Z=6\)", result.detail)
    assert result.passed and unbroken is not None, result.detail
    assert float(unbroken.group(1)) <= 1e-8
