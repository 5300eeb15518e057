"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere loosened.
"""

import math
import time

import numpy as np

from ptcircle.cli import main
from ptcircle.oracle import nullspace_solution, pt_symmetry_check
from ptcircle.secular import SecularBranch, secular_s, secular_t, factor_value
from ptcircle.spectrum import (
    SpectrumRequest,
    fit_series_numeric,
    scan_roots,
    series_coefficients,
)
from ptcircle import transition, verify as verify_mod

from _mp_reference import (
    mp_reference_energy,
    mp_series_coefficients,
    mp_truncated_energy,
)

MINUS = SecularBranch.FACTOR_MINUS
PLUS = SecularBranch.FACTOR_PLUS


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


class TestAcceptance:
    def test_criterion_1_critical_sequence(self, capsys):
        start = time.monotonic()
        code = main(["critical", "--count", "5"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith(("#", "nu"))]
        zs = [float(r[1]) for r in rows]
        ok = (
            5.542309 < zs[0] < 5.542310
            and 17.90123 < zs[1] < 17.90124
            and abs(zs[2] - 33.54495) <= 1e-3
            and 51.20617 - 1e-4 <= zs[3] <= 51.20618 + 1e-4
            and 70.3093 < zs[4] < 70.3095
            and elapsed <= 30.0
        )
        with capsys.disabled():
            _report(1, ok, f"Z_crit = {['%.7f' % z for z in zs]}, runtime {elapsed:.2f} s")

    def test_criterion_2_table_goldens(self, capsys, five_folds):
        worst_ab = 0.0
        worst_ree = 0.0
        reported = []
        for Z, a_p, b_p, ree_p, pair, pinned in verify_mod.TABLE_ROWS:
            params, energy = verify_mod._solve_table_row(Z, a_p, five_folds[pair])
            d_ab = max(abs(params.alpha - a_p), abs(params.beta - b_p))
            d_ree = abs(energy.re_E - ree_p) / ree_p
            if pinned:
                worst_ab = max(worst_ab, d_ab)
                worst_ree = max(worst_ree, d_ree)
                if Z in (5.542309, 17.90123):
                    # breakdown-point rows: alpha = beta as well
                    worst_ab = max(worst_ab, abs(params.alpha - params.beta))
            else:
                reported.append(f"Z={Z}: d_ab={d_ab:.2e}, d_ReE_rel={d_ree:.2e}")
        ok = worst_ab <= 1e-5 and worst_ree <= 1e-4
        with capsys.disabled():
            _report(
                2,
                ok,
                f"pinned rows max |d alpha,beta| = {worst_ab:.2e} (tol 1e-5), "
                f"max rel |d ReE| = {worst_ree:.2e} (tol 1e-4); "
                f"near-breakdown rows reported, excluded: {'; '.join(reported)}",
            )

    def test_criterion_3_hermitian_limit(self, capsys):
        pts = scan_roots(SpectrumRequest(Z=1e-8, s_max=5.6 * math.pi))
        worst = max(
            min(abs(p.E - (n * math.pi) ** 2) for p in pts) for n in range(1, 6)
        )
        ok = worst <= 1e-6
        with capsys.disabled():
            _report(3, ok, f"max |E - (n pi)^2| = {worst:.2e} for n = 1..5 at Z = 1e-8 (tol 1e-6)")

    def test_criterion_4_perturbation_series(self, capsys):
        # (a) leading coefficient exactly sigma*(-1)^n/(n pi)
        worst_lead = 0.0
        for n in (1, 2, 3):
            for branch in (MINUS, PLUS):
                lead = branch.series_sign * (-1) ** n / (n * math.pi)
                got = series_coefficients(n, branch, 2).coeffs[0]
                worst_lead = max(worst_lead, abs(got - lead) / abs(lead))
        # (b) derived vs numeric fit through t^4, 1e-6 relative
        ts = np.linspace(0.05, 0.2, 24)
        worst_fit = 0.0
        for n in (1, 2, 3):
            for branch in (MINUS, PLUS):
                derived = series_coefficients(n, branch, 4)
                fitted = fit_series_numeric(n, branch, ts, 4)
                for c_d, c_f in zip(derived.coeffs, fitted.coeffs):
                    worst_fit = max(worst_fit, abs(c_d - c_f) / abs(c_d))
        # (c) convergence-order slopes 2M+2 over Z in [0.05, 0.4]
        worst_slope_dev = 0.0
        for n in (1, 2, 3):
            for branch in (MINUS, PLUS):
                for M in (1, 2, 3):
                    coeffs = mp_series_coefficients(n, branch, 2 * M)
                    xs, ys = [], []
                    for Z in np.geomspace(0.05, 0.4, 6):
                        e_ser, t_ser = mp_truncated_energy(n, branch, float(Z), coeffs)
                        e_ref = mp_reference_energy(n, branch, float(Z))
                        xs.append(math.log(float(t_ser)))
                        ys.append(math.log(abs(float(e_ser - e_ref))))
                    slope = np.polyfit(xs, ys, 1)[0]
                    worst_slope_dev = max(worst_slope_dev, abs(slope - (2 * M + 2)))
        ok = worst_lead <= 1e-14 and worst_fit <= 1e-6 and worst_slope_dev <= 0.3
        with capsys.disabled():
            _report(
                4,
                ok,
                f"leading coeff dev {worst_lead:.1e}, fit dev through t^4 {worst_fit:.2e} "
                f"(tol 1e-6), worst slope deviation {worst_slope_dev:.3f} (tol 0.3)",
            )

    def test_criterion_5_representation_equivalence(self, capsys):
        rng = np.random.default_rng(1234)
        worst_t = 0.0
        worst_s = 0.0
        for _ in range(10_000):
            t = rng.uniform(1e-3, 20.0)
            Z = rng.uniform(0.0, 100.0)
            s = Z / (2.0 * t)
            prod = 16.0 * factor_value(t, s, PLUS) * factor_value(t, s, MINUS)
            lhs_t = secular_t(t, Z)
            worst_t = max(worst_t, abs(lhs_t - prod) / max(1.0, abs(lhs_t)))
            if Z > 0.0:
                lhs_s = secular_s(s, Z)
                worst_s = max(worst_s, abs(lhs_s - prod) / max(1.0, abs(lhs_s)))
        ok = worst_t <= 1e-9 and worst_s <= 1e-9
        with capsys.disabled():
            _report(
                5,
                ok,
                f"t-form residual {worst_t:.2e}, s-form residual {worst_s:.2e} "
                f"over 10^4 points (tol 1e-9)",
            )

    def test_criterion_6_oracle_zero_set(self, capsys):
        result = verify_mod._zero_set_equivalence((0.5, 3.0, 5.0, 10.0, 17.0))
        with capsys.disabled():
            _report(6, result.passed, result.detail + " (tol 1e-8)")

    def test_criterion_7_symmetry_breaking(self, capsys, five_folds):
        fold = five_folds[0]
        # unbroken eigenfunctions at Z = 2
        worst_unbroken = 0.0
        for p in scan_roots(SpectrumRequest(Z=2.0, s_max=3.5 * math.pi)):
            sol = nullspace_solution(p.E, 2.0)
            worst_unbroken = max(worst_unbroken, pt_symmetry_check(sol))
        # broken pair at Z = 6
        params, energy = transition.solve_broken(
            6.0, transition.BrokenParams.bind(0.358129, 0.622216, 6.0)
        )
        broken_dev = pt_symmetry_check(
            nullspace_solution(complex(energy.re_E, -energy.eps), 6.0)
        )
        # eps = 0 below the fold: the solver finds a real (alpha = beta) pair
        Z_below = fold.Z_crit - 1e-3
        a0 = verify_mod.fold_alpha(fold)
        p_below, e_below = transition.solve_broken(
            Z_below, transition.BrokenParams.bind(0.999 * a0, 1.001 * a0, Z_below)
        )
        eps_below = abs(e_below.eps)
        # eps strictly positive along the continued branch on (Z0, 6.5]
        Z_start = fold.Z_crit + 1e-4
        start, _ = transition.solve_broken(Z_start, transition.fold_unfolding_seed(fold, Z_start))
        path = transition.continue_in_Z(Z_start, 6.5, 24, start)
        eps_path = [e.eps for _, _, e in path]
        ok = (
            worst_unbroken <= 1e-8
            and broken_dev >= 0.1
            and eps_below <= 1e-8
            and all(e > 0.0 for e in eps_path)
        )
        with capsys.disabled():
            _report(
                7,
                ok,
                f"unbroken max deviation {worst_unbroken:.2e} (tol 1e-8), broken deviation "
                f"{broken_dev:.3f} (>= 0.1), |eps| below fold {eps_below:.2e}, "
                f"eps > 0 at all {len(eps_path)} continuation points up to Z = 6.5",
            )

    def test_criterion_8_periodic_vs_dirichlet(self, capsys, five_folds):
        z0 = five_folds[0].Z_crit
        ok = z0 > 4.475
        with capsys.disabled():
            _report(
                8,
                ok,
                f"computed Z_0 = {z0:.6f} exceeds the pinned hard-wall constant 4.475",
            )
