"""The fast paths of the verify sweeps against the per-point loops they replaced.

Each reference below is the earlier loop, kept verbatim as the oracle: the
identity sweep drew each point with two scalar ``rng.uniform`` calls and
called the scalar kernels per point, and the determinant sweep called
``boundary_determinant`` once per energy.  Equality is exact, so ``verify``
prints the same digits.
"""

import functools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ptcircle import oracle, secular, verify


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
    assert verify._uniform(u, -3.0, 11.0) == expected


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
    assert verify._det_roots(Z, s_max) == roots
