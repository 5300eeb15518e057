import cmath
import copy
import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _tracker_reference
from _mp_reference import mp_broken_branch
from _tracker_reference import (
    ref_continue_in_Z,
    ref_find_double_root,
    ref_fold_unfolding_seed,
    ref_interval_fold,
    ref_solve_above_fold,
)
from ptcircle import cli, secular, transition
from ptcircle.errors import ConvergenceError, SolverError
from ptcircle.oracle import nullspace_solution, residual_check
from ptcircle.secular import SecularBranch
from ptcircle.spectrum import SpectrumRequest, scan_roots
from ptcircle.transition import (
    DIRICHLET_FIRST_CRITICAL,
    DIRICHLET_SECOND_CRITICAL,
    BrokenParams,
    ComplexEnergy,
    _params_from_energy,
    broken_secular,
    broken_secular_symmetric,
    continue_in_Z,
    critical_sequence,
    find_double_root,
    fold_unfolding_seed,
    interval_fold,
    real_pair_near_fold,
    solve_above_fold,
    solve_broken,
)

MINUS = SecularBranch.FACTOR_MINUS
PLUS = SecularBranch.FACTOR_PLUS

# pinned target intervals for the first five coalescence couplings
INTERVALS = [
    (5.542309, 5.542310),
    (17.90123, 17.90124),
    (33.54495 - 1e-3, 33.54495 + 1e-3),
    (51.20617 - 1e-4, 51.20618 + 1e-4),
    (70.3093, 70.3095),
]

# Z_5..Z_15 as printed at full precision by `critical --count 16`
LATER_FOLDS = [
    90.53374575200517, 111.67602684500113, 133.59598623984684, 156.19105178940822,
    179.38289298023932, 203.1097032644785, 227.32144685098245, 251.97677189307885,
    277.0409184788997, 302.48425026543293, 328.28119323426256,
]

# reference rows (Z, alpha, beta, ReE) away from the breakdowns
GOLDEN_ROWS = [
    (5.55, 0.457619, 0.492438, 5.044371),
    (6.0, 0.358129, 0.622216, 5.062183),
    (6.5, 0.318347, 0.693565, 5.083353),
    (17.95, 0.308679, 0.344308, 25.61228),
    (19.0, 0.253831, 0.422062, 25.71469),
]


class TestBrokenSecular:
    def test_residual_at_first_fold_parameters(self):
        p = BrokenParams.bind(0.474944, 0.474944, 5.542309)
        scale = max(1.0, abs(2.0 * complex(p.K * math.sinh(p.alpha), -p.K * math.cosh(p.alpha))))
        assert abs(broken_secular(p, 5.542309)) <= 1e-6 * 100.0 * scale

    def test_residual_at_tabulated_broken_row(self):
        p = BrokenParams.bind(0.358129, 0.622216, 6.0)
        assert abs(broken_secular(p, 6.0)) <= 1e-5

    def test_reduces_to_exact_regime_quantization(self):
        pts = scan_roots(SpectrumRequest(Z=3.0, s_max=2.5 * math.pi))
        for p in pts:
            if p.E <= 0.0:
                continue
            bp = _params_from_energy(p.s * p.s - p.t * p.t, 3.0)
            assert abs(broken_secular(bp, 3.0)) <= 1e-8

    def test_k_formula(self):
        p = BrokenParams.bind(0.3, 0.7, 6.0)
        expect = math.sqrt(2.0 * 6.0 / (math.sinh(0.6) + math.sinh(1.4)))
        assert p.K == pytest.approx(expect, rel=1e-15)

    def test_conjugate_pairing(self):
        for alpha, beta, Z in ((0.35, 0.62, 6.0), (0.31, 0.35, 17.95), (0.2, 0.9, 8.0)):
            p = BrokenParams.bind(alpha, beta, Z)
            q = p.swapped()
            assert q.energy().eps == -p.energy().eps
            assert q.energy().re_E == p.energy().re_E
            s1 = broken_secular_symmetric(p, Z)
            s2 = broken_secular_symmetric(q, Z)
            assert abs(s1 - s2.conjugate()) <= 1e-12 * max(1.0, abs(s1))


class TestSolveBroken:
    def test_golden_rows(self):
        for Z, a_ref, b_ref, ree_ref in GOLDEN_ROWS:
            params, energy = solve_broken(Z, BrokenParams.bind(a_ref, b_ref, Z))
            assert params.alpha == pytest.approx(a_ref, abs=1e-5)
            assert params.beta == pytest.approx(b_ref, abs=1e-5)
            assert energy.re_E == pytest.approx(ree_ref, rel=1e-4)

    def test_imaginary_part_regression_z6(self):
        # eps = (K^2/2)(sinh 2b - sinh 2a) at the Z = 6 solution, frozen from
        # an extended-precision Newton run
        _, energy = solve_broken(6.0, BrokenParams.bind(0.358129, 0.622216, 6.0))
        assert energy.eps == pytest.approx(2.05610244312266, rel=1e-9)
        assert energy.re_E == pytest.approx(5.06218341032729, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_broken(0.0, BrokenParams.bind(0.3, 0.4, 1.0))
        with pytest.raises(ValueError):
            BrokenParams(alpha=-0.1, beta=0.2, K=1.0)


class TestTrustedConstruction:
    """``BrokenParams._trusted`` and ``BrokenParams.energy`` fill their
    results' instance dicts key by key; each must equal, hash and print as
    the public constructor's result, and ``_trusted`` raise what it raises."""

    VALUES = [(0.3, 0.4, 1.2), (5e-324, 1e-300, 2.0), (0.0, 0.4, 1.2), (0.3, -0.0, 1.2),
              (0.3, 0.4, 0.0), (-1.0, 0.4, 1.2), (math.nan, 0.4, 1.2), (0.3, 0.4, math.inf)]

    @staticmethod
    def _built(call, *args):
        try:
            result = call(*args)
        except ValueError as exc:
            return str(exc)
        return [float.hex(v) for v in vars(result).values()], list(vars(result)), hash(result), repr(result)

    def test_trusted_is_the_public_constructor(self):
        for alpha, beta, K in self.VALUES:
            public = self._built(lambda *v: BrokenParams(alpha=v[0], beta=v[1], K=v[2]), alpha, beta, K)
            assert self._built(BrokenParams._trusted, alpha, beta, K) == public, (alpha, beta, K)

    def test_energy_is_the_public_constructor(self):
        params = BrokenParams(alpha=0.3, beta=0.4, K=1.2)
        K2 = params.K * params.K
        eps = 0.5 * K2 * (math.sinh(2.0 * params.beta) - math.sinh(2.0 * params.alpha))
        assert self._built(params.energy) == self._built(ComplexEnergy, K2, eps)

    def test_underflowing_alpha_raises(self):
        # (Z - eps)/ReE underflows to 0: no positive alpha
        with pytest.raises(ValueError, match="must all be positive"):
            transition._params_from_energy(complex(1e308, 1.0 - 2.0**-53), 1.0)

    def test_results_are_frozen(self):
        params = BrokenParams._trusted(0.3, 0.4, 1.2)
        for instance, field in ((params, "alpha"), (params.energy(), "eps")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, field, 1.0)


class TestFindDoubleRoot:
    def test_first_fold(self):
        fold = find_double_root(5.5, 2.5, MINUS)
        assert INTERVALS[0][0] < fold.Z_crit < INTERVALS[0][1]
        assert fold.E_merge == pytest.approx(5.0440768, abs=1e-6)

    def test_second_fold(self):
        fold = find_double_root(17.9, 5.1, PLUS)
        assert INTERVALS[1][0] < fold.Z_crit < INTERVALS[1][1]

    def test_fold_certificate(self):
        from ptcircle.secular import _factor_state
        from ptcircle.secular import constraint_factor as F

        fold = find_double_root(5.5, 2.5, MINUS)
        assert abs(F(fold.s_merge, fold.Z_crit, fold.branch)) <= 1e-10
        F_s = _factor_state(fold.s_merge, fold.Z_crit, fold.branch)[1]
        assert abs(F_s) <= 1e-10
        h = 1e-5
        curv = (
            F(fold.s_merge + h, fold.Z_crit, fold.branch)
            - 2.0 * F(fold.s_merge, fold.Z_crit, fold.branch)
            + F(fold.s_merge - h, fold.Z_crit, fold.branch)
        ) / h**2
        assert abs(curv) >= 1e-4

    def test_non_convergence_error(self):
        with pytest.raises(SolverError):
            find_double_root(1e6, 2.5, MINUS)

    @pytest.mark.parametrize("Z, s", [(math.nan, 6.3), (5.5, math.nan), (math.inf, 6.3)])
    def test_non_finite_guess_fails_the_certificate(self, Z, s):
        # a NaN residual used to pass both comparisons and came back as a fold
        with pytest.raises(ConvergenceError):
            find_double_root(Z, s, PLUS)

    @staticmethod
    def _bits(fold):
        return fold.nu, fold.branch, fold.Z_crit.hex(), fold.s_merge.hex(), fold.E_merge.hex()

    # every fold as ``critical --count 16`` gave it before the fold polish's
    # line search took ``_factor_pair``: (nu, Z_crit, s_merge, E_merge)
    FOLD_BITS = [
        (0, "0x1.62b533bee4b10p+2", "0x1.407ca59ea4e22p+1", "0x1.42d227585ed17p+2"),
        (1, "0x1.1e6b74c57b5c4p+4", "0x1.5538e75d20eeep+2", "0x1.99b8c88326fffp+4"),
        (2, "0x1.0c5c0f0e24a68p+5", "0x1.09f68df592d74p+3", "0x1.0406398390454p+6"),
        (3, "0x1.99a640273f2e3p+5", "0x1.6b735ef039267p+3", "0x1.eface8f913c9dp+6"),
        (4, "0x1.193cc970cf917p+6", "0x1.ce00a81acc6a3p+3", "0x1.9507908b18b48p+7"),
        (5, "0x1.6a228e3f14f6fp+6", "0x1.18930328e66cdp+4", "0x1.2cd80d4eca09dp+8"),
        (6, "0x1.beb4406199fdep+6", "0x1.4a540e0cf88d7p+4", "0x1.a2ec32bbda8a6p+8"),
        (7, "0x1.0b31251bc2043p+7", "0x1.7c33568c16085p+4", "0x1.1660c24f269d3p+9"),
        (8, "0x1.3861d18a46b38p+7", "0x1.ae27698abc5e3p+4", "0x1.652c22ccacf88p+9"),
        (9, "0x1.66c40a8c77fddp+7", "0x1.e02a6364e68d9p+4", "0x1.bdd82a827c696p+9"),
        (10, "0x1.96382b06ba664p+7", "0x1.091c3481098e1p+5", "0x1.10325bc02ab2bp+10"),
        (11, "0x1.c6a494ae80be6p+7", "0x1.22276cb9142aep+5", "0x1.4668d197c3fedp+10"),
        (12, "0x1.f7f41b7210da0p+7", "0x1.3b35ed20b6d48p+5", "0x1.818f63ce35613p+10"),
        (13, "0x1.150a79a228ad3p+8", "0x1.544709a7811fdp+5", "0x1.c1a600c0b1b41p+10"),
        (14, "0x1.2e7bf7d34d1d2p+8", "0x1.6d5a42720d9a3p+5", "0x1.03564c3a62c39p+11"),
        (15, "0x1.4847fc47a103bp+8", "0x1.866f367d912e8p+5", "0x1.28518e4dd812ap+11"),
    ]

    def test_sixteen_folds_keep_their_bits(self, sixteen_folds):
        assert [(fold.nu, fold.Z_crit.hex(), fold.s_merge.hex(), fold.E_merge.hex())
                for fold in sixteen_folds] == self.FOLD_BITS

    def test_folds_are_those_of_the_lapack_polish(self, sixteen_folds):
        # the float 2x2 step gives every fold of the polish that stepped by
        # np.linalg.solve, to the bit, and so does the seed's Newton
        assert [self._bits(fold) for fold in sixteen_folds] == [
            self._bits(ref_interval_fold(nu)) for nu in range(16)]

    # [[F_s, F_Z], [F_ss, F_sZ]] with a zero first column, and with rows that
    # leave a zero second pivot after the row swap
    @pytest.mark.parametrize("state", [(1.0, 0.0, -0.0, 1.0, 1.0), (1.0, 1.0, 2.0, 1.0, 2.0)])
    def test_zero_pivot_raises(self, monkeypatch, state):
        for module in (transition, _tracker_reference):
            monkeypatch.setattr(module, "_factor_state", lambda s, Z, branch: state)
        for polish in (find_double_root, ref_find_double_root):
            with pytest.raises(ConvergenceError, match="fold Newton singular near s=2.5, Z=5.5"):
                polish(5.5, 2.5, MINUS)

    def test_sixteen_folds_without_lapack_solve(self, sixteen_folds):
        # in a new process, where no fold is cached yet
        code = ("import numpy as np\n"
                "def refuse(*args, **kwargs): raise AssertionError('np.linalg.solve called')\n"
                "np.linalg.solve = refuse\n"
                "from ptcircle import transition\n"
                "for f in transition.critical_sequence(16):\n"
                "    print(f.Z_crit.hex(), f.s_merge.hex(), f.E_merge.hex())\n")
        src = str(Path(transition.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split("\n")[:-1] == [
            f"{f.Z_crit.hex()} {f.s_merge.hex()} {f.E_merge.hex()}" for f in sixteen_folds]


class TestCriticalSequence:
    def test_first_five_in_pinned_intervals(self, five_folds):
        assert len(five_folds) == 5
        for fold, (lo, hi) in zip(five_folds, INTERVALS):
            assert lo <= fold.Z_crit <= hi, fold

    def test_strictly_increasing(self, five_folds):
        zs = [f.Z_crit for f in five_folds]
        assert zs == sorted(zs)
        assert all(b > a for a, b in zip(zs, zs[1:]))

    def test_first_spacing(self, five_folds):
        # difference of the two pinned interval midpoints
        assert five_folds[1].Z_crit - five_folds[0].Z_crit == pytest.approx(
            12.3589255, abs=2e-6
        )

    def test_alternating_branches(self, five_folds):
        expected = [MINUS, PLUS, MINUS, PLUS, MINUS]
        assert [f.branch for f in five_folds] == expected

    def test_count_one(self):
        folds = critical_sequence(1)
        assert len(folds) == 1
        assert folds[0].Z_crit == pytest.approx(5.5423095, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_sequence(0)
        with pytest.raises(ValueError):
            critical_sequence(17)

    def test_later_folds_pinned(self, sixteen_folds):
        for fold, z_ref in zip(sixteen_folds[5:], LATER_FOLDS):
            assert fold.Z_crit == pytest.approx(z_ref, rel=1e-12)
        assert [f.nu for f in sixteen_folds] == list(range(16))

    def test_interval_fold_is_the_sequence_entry(self, sixteen_folds):
        # broken --pair p polishes fold p alone
        for nu in (0, 7, 15):
            assert interval_fold(nu) == sixteen_folds[nu]

    def test_interval_fold_is_cached(self):
        assert interval_fold(3) is interval_fold(3)
        assert interval_fold(np.int64(1)) == interval_fold(True) == interval_fold(1)

    @pytest.mark.parametrize("field, value", [("Z_crit", np.array(5.54)), ("branch", "minus")])
    def test_a_fold_with_a_bad_field_is_a_type_error(self, field, value):
        # an array field used to be accepted and solve_above_fold then raised
        # "unhashable type" from its chain lookup; a str branch an AttributeError
        # (every field of every record: test_secular.TestRecordFieldTypes)
        with pytest.raises(TypeError, match=f"^{field} must be"):
            dataclasses.replace(interval_fold(0), **{field: value})

    def test_interval_fold_rejects_a_non_integral_index(self):
        # 1.5 used to return a fold labelled nu=2 with Z_crit=nan
        size = interval_fold.cache_info().currsize
        for _ in range(2):
            for nu in (1.5, 2.0, -1):
                with pytest.raises(ValueError):
                    interval_fold(nu)
        assert interval_fold.cache_info().currsize == size

    def test_sequence_after_broken_and_a_mutated_result(self, capsys):
        from ptcircle.cli import main

        assert main(["broken", "--Z", "20", "--pair", "1"]) == 0
        capsys.readouterr()
        folds = critical_sequence(16)
        folds.reverse()
        folds.pop()
        again = critical_sequence(16)
        assert [f.Z_crit for f in again[5:]] == pytest.approx(LATER_FOLDS, rel=1e-12)
        for fold, (lo, hi) in zip(again, INTERVALS):
            assert lo <= fold.Z_crit <= hi
        assert [f.nu for f in again] == list(range(16))

    @staticmethod
    def _sign_count(Z, nu, nodes=4096):
        # independent of the package kernel: the branch factor
        # t*sinh t -/+ s*sin s written out in numpy on interior nodes
        s = np.linspace(nu * math.pi, (nu + 1) * math.pi, nodes + 2)[1:-1]
        t = Z / (2.0 * s)
        sin_sign = 1.0 if nu % 2 else -1.0
        with np.errstate(over="ignore"):  # t*sinh t overflows as s -> 0 for nu = 0
            F = t * np.sinh(t) + sin_sign * s * np.sin(s)
        return int(np.count_nonzero(np.signbit(F[1:]) != np.signbit(F[:-1])))

    def test_sign_count_brackets_every_fold(self, sixteen_folds):
        # two roots just below each coupling and none just above: the fold is
        # the global maximum of the real-root curve, not a local one
        for fold in sixteen_folds:
            assert self._sign_count(fold.Z_crit * (1 - 1e-4), fold.nu) == 2, fold
            assert self._sign_count(fold.Z_crit * (1 + 1e-4), fold.nu) == 0, fold

    def test_dirichlet_comparison_constants(self, five_folds):
        # periodic boundary conditions raise the breakdown couplings over the
        # hard-wall values; recorded constants, not recomputed
        assert five_folds[0].Z_crit > DIRICHLET_FIRST_CRITICAL[1]
        assert five_folds[1].Z_crit > DIRICHLET_SECOND_CRITICAL[1]


class TestUnfoldingAndContinuation:
    def test_seed_converges_just_above_fold(self, first_two_folds):
        fold = first_two_folds[0]
        for dz in (1e-6, 1e-4, 1e-2):
            Z = fold.Z_crit + dz
            params, energy = solve_broken(Z, fold_unfolding_seed(fold, Z))
            assert params.beta > params.alpha
            assert energy.eps > 0.0

    def test_continuation_to_z65(self, first_two_folds):
        fold = first_two_folds[0]
        Z0 = fold.Z_crit + 1e-3
        start, _ = solve_broken(Z0, fold_unfolding_seed(fold, Z0))
        path = continue_in_Z(5.55, 6.5, 20, solve_broken(5.55, start)[0])
        z_end, params, energy = path[-1]
        assert z_end == 6.5
        assert params.alpha == pytest.approx(0.318347, abs=1e-5)
        assert params.beta == pytest.approx(0.693565, abs=1e-5)
        assert energy.re_E == pytest.approx(5.083353, rel=1e-4)

    def test_continuation_pair_one(self, first_two_folds):
        fold = first_two_folds[1]
        Z0 = fold.Z_crit + 1e-3
        start, _ = solve_broken(Z0, fold_unfolding_seed(fold, Z0))
        seed = solve_broken(17.95, start)[0]
        path = continue_in_Z(17.95, 19.0, 20, seed)
        _, params, _ = path[-1]
        assert params.alpha == pytest.approx(0.253831, abs=1e-5)
        assert params.beta == pytest.approx(0.422062, abs=1e-5)

    def test_degenerate_path(self):
        params, energy = solve_broken(6.0, BrokenParams.bind(0.358129, 0.622216, 6.0))
        path = continue_in_Z(6.0, 6.0, 5, params)
        assert len(path) == 1
        assert path[0][1].alpha == pytest.approx(params.alpha, abs=1e-12)

    def test_eps_grows_away_from_fold(self, first_two_folds):
        fold = first_two_folds[0]
        Z0 = fold.Z_crit + 1e-4
        start, _ = solve_broken(Z0, fold_unfolding_seed(fold, Z0))
        path = continue_in_Z(Z0, 6.5, 20, start)
        eps = [e.eps for _, _, e in path]
        assert all(b > a for a, b in zip(eps, eps[1:]))
        assert all(e > 0.0 for e in eps)


def _equal_step_branch(fold, dZ_targets, h_abs=0.05, h_rel=0.05):
    """Broken branch by a chain of fixed-Z solves, each seeded by the last,
    with Z steps of at most h_abs and h_rel*dZ, from dZ = 5e-4."""
    Z = fold.Z_crit + 5e-4
    params, energy = solve_broken(Z, fold_unfolding_seed(fold, Z))
    out = []
    for dZ in dZ_targets:
        target = fold.Z_crit + dZ
        while Z < target:
            Z = min(target, Z + min(h_abs, h_rel * (Z - fold.Z_crit)))
            params, energy = solve_broken(Z, params)
        out.append(complex(energy.re_E, energy.eps))
    return out


class TestBranchTracking:
    def test_pair_zero_stays_on_the_upper_member(self):
        # the conjugate member, eps = -40.85, is an eigenvalue too
        _, energy = solve_above_fold(interval_fold(0), 42.8)
        assert energy.eps == pytest.approx(40.8518467913, rel=1e-10)
        for sign in (+1.0, -1.0):
            E = complex(energy.re_E, sign * energy.eps)
            report = residual_check(nullspace_solution(E, 42.8), E, 42.8)
            assert max(report.bc_residuals) <= 1e-8

    def test_pair_zero_far_above_the_fold(self):
        # 40-digit small-step continuation value, and both members certified
        # by the oracle
        _, energy = solve_above_fold(interval_fold(0), 1000.0)
        E = complex(energy.re_E, energy.eps)
        assert abs(E - complex(9.248070109, 999.432019671)) <= 1e-8 * abs(E)
        for member in (E, E.conjugate()):
            report = residual_check(nullspace_solution(member, 1000.0), member, 1000.0)
            assert max(report.bc_residuals) <= 1e-8, member

    @pytest.mark.parametrize("nu, E_ref", [
        (1, complex(38.6893920679, 9999.23354414)),
        (3, complex(154.760396687, 9996.93108013)),
    ])
    def test_far_branches_keep_their_pair(self, nu, E_ref):
        # 40-digit small-step continuation values at Z = 1e4; steps bounded
        # by |Im s| alone land pair 1 on pair 3's branch here
        _, energy = solve_above_fold(interval_fold(nu), 1e4)
        assert energy.re_E == pytest.approx(E_ref.real, rel=1e-9)
        assert energy.eps == pytest.approx(E_ref.imag, rel=1e-9)
        for sign in (+1.0, -1.0):
            E = complex(energy.re_E, sign * energy.eps)
            report = residual_check(nullspace_solution(E, 1e4), E, 1e4)
            assert max(report.bc_residuals) <= 1e-8, E

    @pytest.mark.parametrize("nu", [0, 1, 7, 15])
    def test_matches_an_equal_step_chain(self, sixteen_folds, nu):
        fold = next(f for f in sixteen_folds if f.nu == nu)
        targets = (10.0, 37.24, 60.0)
        for dZ, ref in zip(targets, _equal_step_branch(fold, targets)):
            _, energy = solve_above_fold(fold, fold.Z_crit + dZ)
            assert abs(complex(energy.re_E, energy.eps) - ref) <= 1e-8 * abs(ref), dZ

    def test_continuing_into_the_fold_raises(self):
        params, _ = solve_broken(6.0, BrokenParams.bind(0.358129, 0.622216, 6.0))
        with pytest.raises(ConvergenceError):
            continue_in_Z(6.0, 5.0, 4, params)


# E = ReE + i*eps of pairs 0, 1, 3 and 15 far above their folds, computed once
# by ``_mp_reference.mp_broken_branch``: a 40-digit continuation from each fold
# whose Euler steps move s by at most 0.05, each corrected by Newton.  Neither
# halving that cap nor a second, separately written continuation changed any
# of the 20 digits kept here.
LARGE_Z_REFERENCE = {
    (0, 2e5): complex("9.8254672437099701514+199999.95615681119498j"),
    (0, 1e6): complex("9.8498652871198830029+999999.9803199136333j"),
    (1, 2e5): complex("39.301871104716401398+199999.82462506708624j"),
    (1, 1e6): complex("39.399461341357539685+999999.92127945972297j"),
    (3, 2e5): complex("157.20751850269032039+199999.29846543083907j"),
    (3, 1e6): complex("157.59784845158209737+999999.68511472203019j"),
    (15, 2e5): complex("2515.3312339383411524+199988.76432907545698j"),
    (15, 1e6): complex("2521.5665633516390682+999994.96083870617018j"),
}


class TestLargeCoupling:
    @pytest.mark.parametrize("nu, Z", sorted(LARGE_Z_REFERENCE))
    def test_matches_the_mp_continuation(self, nu, Z):
        # ReE = Re(s**2 - t**2) cancels down from |E| ~ Z, so it is checked
        # to rounding of |E|, not of itself
        _, energy = solve_above_fold(interval_fold(nu), Z)
        ref = LARGE_Z_REFERENCE[nu, Z]
        assert abs(complex(energy.re_E, energy.eps) - ref) <= 1e-13 * abs(ref)

    def test_mp_continuation_reproduces_the_solver_near_a_fold(self):
        # the helper behind LARGE_Z_REFERENCE, on a path short enough to run
        (_, E), = mp_broken_branch(interval_fold(0), [100]).values()
        _, energy = solve_above_fold(interval_fold(0), 100.0)
        assert abs(complex(energy.re_E, energy.eps) - complex(E)) <= 1e-13 * abs(complex(E))

    @pytest.mark.parametrize("nu", range(16))
    def test_matches_the_mp_continuation_just_above_the_chain_start(self, sixteen_folds, nu):
        # targets within 2e-3 of the fold step from the chain's start at
        # Z_crit + 1e-3, to rounding of |E| like the targets far above it
        fold = sixteen_folds[nu]
        targets = [fold.Z_crit + dZ for dZ in (1.05e-3, 1.5e-3, 1.95e-3)]
        for Z, (_, E) in zip(targets, mp_broken_branch(fold, targets).values()):
            _, energy = solve_above_fold(fold, Z)
            ref = complex(E)
            assert abs(complex(energy.re_E, energy.eps) - ref) <= 1e-14 * abs(ref), Z

    def test_pair_zero_does_not_jump_to_pair_two(self):
        # steps bounded by min(|Im s|, |F_s/F_ss|)/2 alone moved s by 8-27 from
        # Z ~ 5e3 on, where the pairs lie about 1.6 apart in Re s: pair 0
        # landed on pair 2's branch near Z = 1.43e5 and gave ReE = 88.43 here
        _, energy = solve_above_fold(interval_fold(0), 2e5)
        assert energy.re_E == pytest.approx(9.8255, abs=1e-4)

    def test_answers_do_not_depend_on_the_step_cap(self, monkeypatch, cold_tracker):
        before = [solve_above_fold(interval_fold(nu), 2e5)[1] for nu in (0, 7)]
        monkeypatch.setattr(transition, "_MAX_ROOT_MOVE", math.pi / 16)
        cold_tracker()  # the kept chains were walked with the other cap
        after = [solve_above_fold(interval_fold(nu), 2e5)[1] for nu in (0, 7)]
        for a, b in zip(before, after):
            E = complex(a.re_E, a.eps)
            assert abs(complex(b.re_E, b.eps) - E) <= 1e-13 * abs(E)

    @pytest.mark.parametrize("Z", [1e4, 1e6])
    def test_every_pair_in_its_band_and_in_order(self, Z):
        re_E = [solve_above_fold(interval_fold(nu), Z)[1].re_E for nu in range(16)]
        for nu, value in enumerate(re_E):
            assert ((nu + 0.5) * math.pi) ** 2 < value < ((nu + 1) * math.pi) ** 2, nu
        assert all(b > a for a, b in zip(re_E, re_E[1:]))

    @pytest.mark.parametrize("Z", [20.0, 100.0, 1e4, 33387.16008733851, 1e6])
    @pytest.mark.parametrize("K2", [1e-3, 1e-6])
    def test_k_zero_state_is_never_returned(self, Z, K2):
        # E = i*Z (k = 0, s**2 = i*Z/2) is a root of FACTOR_PLUS at every Z
        # but no eigenvalue, and seeds next to it converge to it.  At
        # Z = 33387.16008733851 rounding leaves it ReE = +1.8e-12 and eps < Z,
        # which a plain ReE > 0 test let through
        eps = Z * (1.0 - 1e-9)
        seed = BrokenParams(
            alpha=0.5 * math.asinh((Z - eps) / K2),
            beta=0.5 * math.asinh((Z + eps) / K2),
            K=math.sqrt(K2),
        )
        with pytest.raises(ConvergenceError, match="no hyperbolic form"):
            solve_broken(Z, seed)


def _bits(value):
    """Type and bits of a float or complex, signed zeros apart."""
    parts = (value.real, value.imag) if isinstance(value, complex) else (value,)
    return type(value), tuple(float(v).hex() for v in parts)


def _hex(Z, params, energy):
    values = (Z, params.alpha, params.beta, params.K, energy.re_E, energy.eps)
    return tuple(float(v).hex() for v in values)


def _answer(call, *args):
    """The bits of a tracker answer (a path or one point), or its error type
    and text."""
    try:
        result = call(*args)
    except ConvergenceError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, list):
        return [_hex(*point) for point in result]
    return _hex(args[-1], *result)


class TestSharedFactorState:
    """The tracker carries each point's ``_factor_state`` instead of
    evaluating the point again; its answers and error texts must stay those
    of the tracker that evaluated twice (``_tracker_reference``), bit for
    bit."""

    DZ = [1e-6, 1e-4, 1e-2, 0.3, 1.0, 7.5, 60.0, 1e3, 3e4, 1e6]

    def test_solve_above_fold_matches_the_reference(self, sixteen_folds):
        for fold in sixteen_folds:
            for dZ in self.DZ:
                Z = fold.Z_crit + dZ
                want = _answer(ref_solve_above_fold, fold, Z)
                assert _answer(solve_above_fold, fold, Z) == want, (fold.nu, dZ)

    def test_error_text_past_the_overflow_matches_the_reference(self, sixteen_folds):
        # every pair's Re t passes 700 from about Z = 1.96e6 on
        for fold in sixteen_folds:
            got = _answer(solve_above_fold, fold, 2.5e6)
            assert got[0] == "ConvergenceError" and "factor overflows" in got[1]
            assert got == _answer(ref_solve_above_fold, fold, 2.5e6)

    @pytest.mark.parametrize("steps", [2, 3, 7, 20])
    def test_multi_step_paths_match_the_reference(self, sixteen_folds, steps):
        for fold in (sixteen_folds[0], sixteen_folds[7], sixteen_folds[15]):
            near = fold.Z_crit + 1e-3
            for Z_to in (fold.Z_crit + 0.5, fold.Z_crit + 40.0, fold.Z_crit + 2e3):
                args = (near, Z_to, steps, ref_fold_unfolding_seed(fold, near))
                got = _answer(continue_in_Z, *args)
                assert got == _answer(ref_continue_in_Z, *args)
                assert len(got) == steps + 1

    def test_downward_and_degenerate_paths_match_the_reference(self, sixteen_folds):
        fold = sixteen_folds[2]
        start = ref_fold_unfolding_seed(fold, fold.Z_crit + 30.0)
        for Z_to, steps in ((fold.Z_crit + 1.0, 4), (fold.Z_crit + 30.0, 3)):
            args = (fold.Z_crit + 30.0, Z_to, steps, start)
            assert _answer(continue_in_Z, *args) == _answer(ref_continue_in_Z, *args)

    def test_every_two_value_evaluation_is_the_state_s_first_two(self, monkeypatch, cold_tracker,
                                                                 sixteen_folds):
        # the Newton trials of chains grown from empty, of a near-fold start,
        # of a multi-step path and of a fold polish's line search (real s)
        seen = []
        real = transition._factor_pair

        def recording(s, Z, branch):
            value = real(s, Z, branch)
            seen.append((s, Z, branch, value))
            return value

        monkeypatch.setattr(transition, "_factor_pair", recording)
        for fold in sixteen_folds:
            for dZ in (1e-4, 0.3, 60.0, 1e3):
                solve_above_fold(fold, fold.Z_crit + dZ)
        fold = sixteen_folds[4]
        continue_in_Z(fold.Z_crit + 1e-3, fold.Z_crit + 40.0, 7,
                      ref_fold_unfolding_seed(fold, fold.Z_crit + 1e-3))
        find_double_root(5.5, 2.5, MINUS)
        assert {type(s) for s, *_ in seen} == {float, complex}
        assert len(seen) > 1000
        for s, Z, branch, value in seen:
            want = secular._factor_state(s, Z, branch)[:2]
            assert [_bits(v) for v in value] == [_bits(v) for v in want], (s, Z)

    def test_answers_without_the_separate_derivatives(self, sixteen_folds):
        # the tracker takes F_s, F_ss and F_Z from the state of each point;
        # the package has no other evaluation of the partials
        assert not hasattr(secular, "constraint_factor_derivatives")
        cases = [(fold, fold.Z_crit + dZ) for fold in sixteen_folds[::3] for dZ in (1e-3, 2.0, 1e4)]
        want = [_answer(ref_solve_above_fold, fold, Z) for fold, Z in cases]
        assert [_answer(solve_above_fold, fold, Z) for fold, Z in cases] == want
        assert not hasattr(transition, "_fold_state")


@pytest.fixture
def cold_tracker():
    """Empties the tracker's kept chains, as they are in a new process, now
    and after the test; the test may call it to empty them again."""
    transition._CHAINS.clear()
    yield transition._CHAINS.clear
    transition._CHAINS.clear()


def _newton_without_round_back(s, Z, branch, wasted):
    """``transition._newton`` as it was before it stopped at a trial that
    rounds back to s: it halves on, 40 times at most.  ``wasted`` counts the
    evaluations at trials with the bits of s."""
    F, F_s = transition._factor_pair(s, Z, branch)
    if not cmath.isfinite(F):
        raise ConvergenceError(f"factor overflows at s={s}, Z={Z}")
    size = abs(F)
    for _ in range(100):
        step = F / F_s
        if abs(step) <= 1e-15 * abs(s):
            break
        lam = 1.0
        for _ in range(40):
            trial = s - lam * step
            wasted[0] += (trial.real.hex(), trial.imag.hex()) == (s.real.hex(), s.imag.hex())
            trial_F, trial_F_s = transition._factor_pair(trial, Z, branch)
            trial_size = abs(trial_F)
            if trial_size < size:
                s, F, F_s, size = trial, trial_F, trial_F_s, trial_size
                break
            lam *= 0.5
        else:
            break
    return s, F


class TestNewtonRoundBack:
    """``_newton`` stops at the first halving trial with the bits of s: every
    later trial would be s again.  The answers keep their bits and only the
    evaluations at those trials go."""

    @pytest.mark.parametrize("pair, dZ", [(0, 1e-3), (0, 0.3), (0, 10.0)])
    def test_replayed_broken_op_skips_the_round_back_trials(self, monkeypatch, capsys,
                                                            cold_tracker, sixteen_folds, pair, dZ):
        argv = ["broken", "--Z", repr(sixteen_folds[pair].Z_crit + dZ), "--pair", str(pair),
                "--format", "json"]
        calls = [0]
        real = transition._factor_pair

        def counting(*args):
            calls[0] += 1
            return real(*args)

        def replay():  # with no chain kept, so the op walks its whole path
            cold_tracker()
            calls[0] = 0
            assert cli.main(argv) == 0
            return capsys.readouterr().out, calls[0]

        monkeypatch.setattr(transition, "_factor_pair", counting)
        replay()  # the process builds its parser and the pair's fold once
        out, count = replay()
        wasted = [0]
        monkeypatch.setattr(transition, "_newton",
                            lambda s, Z, branch: _newton_without_round_back(s, Z, branch, wasted))
        ref_out, ref_count = replay()
        assert out == ref_out
        assert wasted[0] > 0
        assert count == ref_count - wasted[0]


class TestTrackerMemo:
    """The tracker keeps each fold's path as a chain of nodes and steps from
    the last node below the target (``solve_above_fold``); answers and error
    texts stay those of the tracker that walks from the start, in any order
    of calls."""

    PAIRS = (0, 7, 15)
    DZ = (1e-4, 1.5e-3, 2e-3, 0.01, 0.3, 1.0, 7.5, 60.0, 1e3)

    @pytest.fixture(scope="class")
    def wanted(self, sixteen_folds):
        folds = {nu: sixteen_folds[nu] for nu in self.PAIRS}
        return {(nu, dZ): _answer(ref_solve_above_fold, fold, fold.Z_crit + dZ)
                for nu, fold in folds.items() for dZ in self.DZ}

    @staticmethod
    def _orders():
        ascending = [(nu, dZ) for nu in TestTrackerMemo.PAIRS for dZ in TestTrackerMemo.DZ]
        interleaved = [(nu, dZ) for dZ in TestTrackerMemo.DZ for nu in TestTrackerMemo.PAIRS]
        shuffled = list(ascending)
        random.Random(25).shuffle(shuffled)
        repeated = [case for case in shuffled[:9] for _ in range(2)] + shuffled
        return {"ascending": ascending, "descending": ascending[::-1], "shuffled": shuffled,
                "interleaved": interleaved, "repeated": repeated}

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "interleaved",
                                       "repeated"])
    def test_answers_match_the_reference_in_any_order(self, cold_tracker, sixteen_folds,
                                                      wanted, order):
        for nu, dZ in self._orders()[order]:
            fold = sixteen_folds[nu]
            assert _answer(solve_above_fold, fold, fold.Z_crit + dZ) == wanted[nu, dZ], (nu, dZ)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled", "interleaved",
                                       "repeated"])
    def test_targets_at_the_chain_start_in_any_order(self, cold_tracker, sixteen_folds, wanted,
                                                     order):
        # the chain's start itself takes a one-off start, the next float above
        # it and dZ = 1.999e-3 step from the chain; they come before each call
        # of the order, so they meet the pair's chain cold, short and long
        edges = {}
        for nu in self.PAIRS:
            fold = sixteen_folds[nu]
            start = fold.Z_crit + 1e-3
            for Z in (start, math.nextafter(start, math.inf), fold.Z_crit + 1.999e-3):
                edges.setdefault(nu, []).append((Z, _answer(ref_solve_above_fold, fold, Z)))
        for nu, dZ in self._orders()[order]:
            fold = sixteen_folds[nu]
            for Z, want in edges[nu]:
                assert _answer(solve_above_fold, fold, Z) == want, (nu, Z)
            assert _answer(solve_above_fold, fold, fold.Z_crit + dZ) == wanted[nu, dZ], (nu, dZ)

    def test_a_fold_seeds_its_chain_once(self, monkeypatch, cold_tracker, sixteen_folds):
        # every target above Z_crit + 1e-3 steps from the one chain, which the
        # first of them seeds at that start; a target at or below the start
        # seeds its own, halfway to the fold, and keeps nothing
        fold = sixteen_folds[0]
        start = fold.Z_crit + 1e-3
        seeds = []
        real = transition.fold_unfolding_seed

        def seed(fold, Z):
            seeds.append(Z)
            return real(fold, Z)

        monkeypatch.setattr(transition, "fold_unfolding_seed", seed)
        for dZ in (1.5e-3, 5e-3, 1.05e-3, 60.0):
            solve_above_fold(fold, fold.Z_crit + dZ)
        assert seeds == [start]
        near = []
        for Z in (start, fold.Z_crit + 1e-4):
            solve_above_fold(fold, Z)
            near.append(fold.Z_crit + 0.5 * (Z - fold.Z_crit))
        assert seeds == [start, *near]
        assert list(transition._CHAINS) == [fold]
        assert transition._CHAINS[fold][0][0][0] == start

    def test_error_text_on_the_first_and_the_second_call(self, cold_tracker, sixteen_folds):
        fold = sixteen_folds[0]
        want = _answer(ref_solve_above_fold, fold, 2e6)
        assert want[0] == "ConvergenceError" and "factor overflows" in want[1]
        assert [_answer(solve_above_fold, fold, 2e6) for _ in range(2)] == [want, want]

    @pytest.mark.parametrize("pair, above_fold, walked, targets", [
        (7, True, 60.0, (60.0, 7.5, 0.3, 60.0, 1.0)),
        (0, False, 1e6, (1e3, 1e4, 1e5, 1e6, 999999.5, 1e4)),
    ])
    def test_warm_call_evaluates_only_its_last_step(self, monkeypatch, cold_tracker, sixteen_folds,
                                                    pair, above_fold, walked, targets):
        fold = sixteen_folds[pair]
        base = fold.Z_crit if above_fold else 0.0
        calls, states, steps = [0], [0], []
        real_pair, real_state, real_step = (transition._factor_pair, transition._factor_state,
                                            transition._step)

        def counting_pair(*args):
            calls[0] += 1
            return real_pair(*args)

        def counting_state(*args):
            calls[0] += 1
            states[0] += 1
            return real_state(*args)

        def step(Z, s, state, Z_to, branch, side):  # the Z each step reaches, its evaluations
            before = calls[0]
            result = real_step(Z, s, state, Z_to, branch, side)
            steps.append((result[0], calls[0] - before))
            return result

        monkeypatch.setattr(transition, "_factor_pair", counting_pair)
        monkeypatch.setattr(transition, "_factor_state", counting_state)
        monkeypatch.setattr(transition, "_step", step)
        solve_above_fold(fold, base + walked)
        assert len(steps) > 10
        # whole states: the unfolding seed's fold, the chain's start and the
        # root of each free step, all but the last step, once each
        assert states[0] == 2 + len(steps) - 1
        for target in targets:
            Z = base + target
            calls[0], states[0], steps[:] = 0, 0, []
            solve_above_fold(fold, Z)
            # its Newton trials, and no full state
            assert len(steps) == 1 and steps[0] == (Z, calls[0]) and calls[0] > 0, target
            assert states[0] == 0, target

    def test_chain_invariants(self, cold_tracker, sixteen_folds):
        fold = sixteen_folds[15]
        for Z in np.geomspace(fold.Z_crit + 1.0, 1.9e6, 12).tolist():
            solve_above_fold(fold, Z)
        nodes, branch, side = transition._CHAINS[fold]
        Zs = [node[0] for node in nodes]
        assert Zs[0] == fold.Z_crit + 1e-3
        # rising, and by less than a factor 2, so a target's distance to the
        # node below it is exact (solve_above_fold)
        assert all(a < b < 2.0 * a for a, b in zip(Zs, Zs[1:]))
        assert Zs[-1] < 1.9e6
        assert 1200 <= len(nodes) <= 1300  # the start and 1255 free steps when first measured
        assert branch is fold.branch and side == 1.0
        assert _answer(solve_above_fold, fold, 1.9e6) == _answer(ref_solve_above_fold, fold, 1.9e6)

    def test_kept_nodes_hold_the_state_of_their_root(self, cold_tracker, sixteen_folds):
        # regrown from empty, each node's state is _factor_state at its own
        # (s, Z), which its free step's Newton never evaluated whole
        for fold in sixteen_folds:
            for dZ in (0.3, 60.0, 1e3):
                solve_above_fold(fold, fold.Z_crit + dZ)
            nodes, branch, _ = transition._CHAINS[fold]
            assert len(nodes) > 20
            for Z, s, state in nodes:
                want = secular._factor_state(s, Z, branch)
                assert [_bits(v) for v in state] == [_bits(v) for v in want], (fold.nu, Z)

    @pytest.mark.parametrize("pair", [0, 7, 15])
    def test_targets_on_and_next_to_a_kept_node(self, cold_tracker, sixteen_folds, pair):
        # the bisection's boundary: a target equal to a node's Z steps from
        # the node below it, one ulp above from the node itself
        fold = sixteen_folds[pair]
        solve_above_fold(fold, fold.Z_crit + 1e3)
        nodes = transition._CHAINS[fold][0]
        for i in (1, 2, len(nodes) // 3, len(nodes) - 2, len(nodes) - 1):
            Z_node = nodes[i][0]
            for Z in (math.nextafter(Z_node, 0.0), Z_node, math.nextafter(Z_node, math.inf)):
                assert _answer(solve_above_fold, fold, Z) == _answer(ref_solve_above_fold, fold, Z)

    def test_equal_fold_built_apart_reaches_the_same_chain(self, cold_tracker, sixteen_folds):
        # the constructor computes the fold's hash once; an equal fold built
        # on its own hashes alike, the dataclass hash, and finds the chain
        # that the first one grew
        fold = sixteen_folds[7]
        twin = dataclasses.replace(fold)
        fields = tuple(getattr(fold, f.name) for f in dataclasses.fields(fold))
        assert twin is not fold and twin == fold
        assert hash(twin) == hash(fold) == hash(fields)
        solve_above_fold(fold, fold.Z_crit + 60.0)
        nodes = transition._CHAINS[fold][0]
        size = len(nodes)
        assert transition._CHAINS.get(twin) is transition._CHAINS[fold]
        Z = fold.Z_crit + 7.5
        assert _answer(solve_above_fold, twin, Z) == _answer(ref_solve_above_fold, fold, Z)
        assert list(transition._CHAINS) == [fold] and len(nodes) == size
        other = dataclasses.replace(fold, Z_crit=math.nextafter(fold.Z_crit, math.inf))
        assert other != fold and other not in transition._CHAINS

    def test_pickled_fold_hashes_in_a_new_process(self, sixteen_folds):
        # the branch hashes by its name, and a str hash differs between
        # processes, so an unpickled fold must hash as built there
        fold = sixteen_folds[3]
        data = pickle.dumps(fold)
        assert pickle.loads(data) == fold and hash(pickle.loads(data)) == hash(fold)
        assert copy.copy(fold) == fold and hash(copy.deepcopy(fold)) == hash(fold)
        code = ("import pickle, sys\n"
                "f = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
                "sys.exit(hash(f) != hash((f.nu, f.Z_crit, f.s_merge, f.E_merge, f.branch)))")
        src = str(Path(transition.__file__).resolve().parents[1])
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-c", code, data.hex()], capture_output=True,
                                  text=True, env=env, check=False)
            assert (proc.returncode, proc.stderr) == (0, ""), seed


class TestExactBrokenConsistency:
    def test_near_fold_real_pair(self, first_two_folds):
        fold = first_two_folds[0]
        Z = fold.Z_crit - 1e-3
        pair = real_pair_near_fold(Z, fold)
        assert len(pair) == 2
        # alpha = beta on both members, K^2 equals the scanned energies
        pts = scan_roots(SpectrumRequest(Z=Z, s_max=math.pi))
        scanned = sorted(p.E for p in pts)
        k2s = sorted(p.energy().re_E for p in pair)
        for k2, e in zip(k2s, scanned):
            assert k2 == pytest.approx(e, rel=1e-10)

    def test_solver_lands_on_real_solution_below_fold(self, first_two_folds):
        from ptcircle.verify import fold_alpha

        fold = first_two_folds[0]
        Z = fold.Z_crit - 1e-3
        a0 = fold_alpha(fold)
        params, energy = solve_broken(Z, BrokenParams.bind(0.999 * a0, 1.001 * a0, Z))
        assert abs(params.alpha - params.beta) <= 1e-4
        pair = real_pair_near_fold(Z, fold)
        closest = min(abs(energy.re_E - p.energy().re_E) / p.energy().re_E for p in pair)
        assert closest <= 1e-5

    def test_fold_row_members_match_reference(self, first_two_folds):
        # the reference table rows at the interval-left couplings are one
        # member of the still-real pair, alpha = beta
        pair = real_pair_near_fold(5.542309, first_two_folds[0])
        alphas = [p.alpha for p in pair]
        assert min(abs(a - 0.474944) for a in alphas) <= 1e-5
        rees = [p.energy().re_E for p in pair]
        assert min(abs(r - 5.041586) for r in rees) / 5.041586 <= 1e-4

        pair1 = real_pair_near_fold(17.90123, first_two_folds[1])
        alphas1 = [p.alpha for p in pair1]
        assert min(abs(a - 0.325829) for a in alphas1) <= 1e-5
        rees1 = [p.energy().re_E for p in pair1]
        assert min(abs(r - 25.61820) for r in rees1) / 25.61820 <= 1e-4

    def test_pair_at_the_fold_is_the_merged_state(self, sixteen_folds):
        from ptcircle.verify import fold_alpha

        first = sixteen_folds[0]
        cases = [(f, f.Z_crit) for f in sixteen_folds] + [(first, first.Z_crit * (1 - 1e-15))]
        for fold, Z in cases:
            pair = real_pair_near_fold(Z, fold)
            assert len(pair) == 2, (fold, Z)
            for p in pair:
                assert abs(p.alpha - fold_alpha(fold)) <= 1e-6

    @pytest.mark.parametrize("Z, nu", [(1e-3, 3), (1e-6, 15), (1e-3, 15), (1e-9, 13)])
    def test_real_pair_at_small_coupling(self, sixteen_folds, Z, nu):
        # both roots lie within rounding of an interval end, so a bracket
        # that ends inside the interval misses them; fl(13*pi) > 13*pi
        from ptcircle.secular import constraint_factor

        fold = sixteen_folds[nu]
        pair = real_pair_near_fold(Z, fold)
        assert len(pair) == 2
        for p in pair:
            E = p.energy().re_E
            s = math.sqrt(0.5 * (E + math.hypot(E, Z)))
            assert nu * math.pi <= s <= (nu + 1) * math.pi
            assert abs(constraint_factor(s, Z, fold.branch)) <= 1e-12

    @pytest.mark.parametrize("Z", [1e-10, 1e-12])
    def test_real_pair_small_coupling_limit_of_the_first_fold(self, sixteen_folds, Z):
        # the n = 0 level's E = s*s - t*t, about Z**2/12, cancels to zero or
        # below: the documented limit
        with pytest.raises(ValueError, match="no hyperbolic form"):
            real_pair_near_fold(Z, sixteen_folds[0])

    def test_real_pair_at_the_first_fold_down_to_1e_9(self, sixteen_folds):
        pair = real_pair_near_fold(1e-9, sixteen_folds[0])
        assert len(pair) == 2
        assert [p.alpha == p.beta for p in pair] == [True, True]
        assert pair[0].energy().re_E == pytest.approx(math.pi**2, rel=1e-12)
        # about Z**2/12; the n = 0 level's E is off by about 1e-4 relative
        # here, the known small-Z loss of digits
        assert pair[1].energy().re_E == pytest.approx(1e-18 / 12.0, rel=1e-3)

    def test_real_pair_rejects_non_positive_coupling(self, sixteen_folds):
        for Z, nu in ((0.0, 0), (0.0, 3), (-1.0, 1)):
            with pytest.raises(ValueError):
                real_pair_near_fold(Z, sixteen_folds[nu])
