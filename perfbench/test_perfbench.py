"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(name):
    def ops(seed):
        rng = random.Random(seed)
        workload = workloads.make(name)
        return [workload.make_pass(rng) for _ in range(3)]

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_reported_metrics_match_spec(trace, key):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "spectrum-low", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {metric["name"]: metric["unit"] for metric in SPEC[key]}


@pytest.mark.parametrize("name", workloads.WORKLOADS[:3])
def test_generated_ops_avoid_known_defects(name):
    workload, rng = workloads.make(name), random.Random(3)
    for op in (op for _ in range(4) for op in workload.make_pass(rng)):
        if name == "broken-sweep":
            dZ = op["Z"] - workload.reference.Z_p[op["pair"]]
            assert workloads.DZ_RANGE[0] <= dZ <= workloads.DZ_RANGE[1]
        else:
            assert workloads.Z_RANGE[0] <= op["Z"] <= workloads.Z_RANGE[1]
            assert op["s_max"] <= workloads.S_MAX_DEEP
            assert workloads.resolvable(op["Z"], op["s_max"])


def test_gate_flags_wrong_branch():
    # The program returns pair 1's answer here (ReE 25.8); pair 0's branch has ReE 5.95.
    sweep = workloads.BrokenSweep()
    outcome = sweep.run({"pair": 0, "Z": 20.0})
    assert outcome.units == 0
    assert outcome.failure.startswith("wrong-branch")
    assert 20.0 - sweep.reference.Z_p[0] > workloads.DZ_RANGE[1]


def test_gate_passes_right_branch():
    assert workloads.BrokenSweep().run({"pair": 0, "Z": 6.0}).failure == ""


def test_check_flags_wrong_answer_in_range():
    sweep = workloads.BrokenSweep()
    op = {"pair": 2, "Z": sweep.reference.Z_p[2] + 5.0}
    right = sweep.reference.at(op["pair"], op["Z"])
    failure = workloads.check_broken(sweep.reference, op["pair"], op["Z"], 1.01 * right.real,
                                     right.imag)
    assert failure.startswith("wrong-branch")
    assert sweep.outcome(op, 0.1, 0.1, 1, failure).units == 0


def test_gate_flags_stalled_scan():
    outcome = workloads.make("spectrum-deep").run({"Z": 2.0, "s_max": 200.0, "pick": 0})
    assert outcome.units == 0
    assert outcome.failure.startswith("ConvergenceError")


def test_gate_passes_low_scan():
    outcome = workloads.make("spectrum-low").run({"Z": 2.0, "s_max": 12.0, "pick": 0})
    assert outcome.failure == "" and outcome.units > 0


def test_gate_flags_root_past_last_grid_node():
    # The minus root at s = 6.27 lies between the program's last grid node 2*pi and s_max.
    Z, s_max = 0.25544933985623075, 6.295577377661246
    outcome = workloads.make("spectrum-low").run({"Z": Z, "s_max": s_max, "pick": 0})
    assert outcome.failure.startswith("count") and not workloads.resolvable(Z, s_max)


def test_gate_flags_root_pair_in_one_grid_cell():
    # Just below the fold at Z = 51.206 two plus roots lie in one cell of the program's grid.
    Z, s_max = 51.20372748539226, 14.989007837873961
    outcome = workloads.make("spectrum-low").run({"Z": Z, "s_max": s_max, "pick": 0})
    assert outcome.failure.startswith("count") and not workloads.resolvable(Z, s_max)


@pytest.mark.parametrize("edit", [lambda p: p[:3] + p[4:], lambda p: p[:4] + p[3:]],
                         ids=["dropped", "duplicated"])
def test_scan_check_flags_dropped_or_duplicated_root(edit):
    Z, s_max = 2.0, 12.0
    points = workloads.ptcircle.scan_roots(workloads.ptcircle.SpectrumRequest(Z=Z, s_max=s_max))
    assert workloads.check_roots(points, Z, s_max, 0) == ""
    assert workloads.check_roots(edit(points), Z, s_max, 0).split(":")[0] in ("count", "order")


def test_tracing_a_binding_the_program_lost_aborts(monkeypatch):
    monkeypatch.delattr(workloads.ptcircle.spectrum, "refine_root")
    with pytest.raises(AttributeError):
        with spans.Tracer().installed():
            pass


@pytest.mark.parametrize("pair, Z, re_E", [(0, 6.0, 5.062183), (0, 6.5, 5.083353),
                                           (1, 17.95, 25.61228), (1, 19.0, 25.71469)])
def test_reference_matches_table_goldens(pair, Z, re_E):
    assert workloads.BranchReference().at(pair, Z).real == pytest.approx(re_E, rel=1e-6)


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = workloads.cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("label, argv", workloads.README_COMMANDS)
def test_cli_checks_pass_recorded_outputs(label, argv):
    code, stdout = _stdout(argv)
    assert workloads.check_command(label, code, stdout, workloads.CliSession().golden) == ""


def test_cli_checks_flag_suspect_pinned_row():
    code, stdout = _stdout(["table1"])
    stdout = stdout.replace(",ok,pinned", ",SUSPECT,pinned", 1)
    assert workloads.check_command("table1", code, stdout, {}).startswith("table1")


def test_altered_fig1_output_fails():
    session = workloads.CliSession()
    code, stdout = _stdout(["fig", "--which", "1"])
    failure = workloads.check_command("fig1", code, stdout.replace("0", "1", 1), session.golden)
    assert failure.startswith("bytes")
    assert session.outcome({"label": "fig1"}, 0.1, 0.1, 1, failure).units == 0
