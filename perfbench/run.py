"""ptcircle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src and
nowhere else.  Workloads: spectrum-low, spectrum-deep, broken-sweep,
cli-session (see README.md).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it records the environment.  Both, and the spans of a traced run, are
also written under perfbench/out/.
"""

import os

# Pinned before numpy is imported, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
RSS_PASSES = 4   # peak memory is read after this many passes (see run_untraced)


def import_probe() -> tuple[float, float]:
    """Time to import ptcircle and ptcircle.cli in a fresh interpreter, and
    the calibration loop time around it."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], capture_output=True,
                          text=True, timeout=120, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"import probe failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    return result["import_s"], result["import_loop_s"]


def git_sha() -> str:
    """HEAD's commit, with "-dirty" when the worktree differs from it;
    "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"

    def git(*args) -> str:
        return subprocess.run(["git", *args], capture_output=True, text=True, timeout=60,
                              cwd=ROOT, check=True).stdout.strip()

    try:
        sha, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return sha + ("-dirty" if status else "")


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller",
    }


def peak_rss_mb(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0


def run_untraced(workload, rng, seconds):
    """Fresh passes until the time is up.  The SETUP_PROBES set-up probes are
    spread evenly over the run, so that they sample the machine as the
    operations do.  Peak memory is read after RSS_PASSES passes, a fixed
    amount of work: allocator fragmentation keeps raising it slowly over
    later passes, and the number of passes in a run follows the machine's
    speed."""
    passes, probes, rss, start = [], [], None, time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if len(probes) * seconds <= SETUP_PROBES * (time.perf_counter() - start):
            probes.append(import_probe())
        passes.append([workload.run(op) for op in workload.make_pass(rng)])
        if len(passes) == RSS_PASSES:
            rss = peak_rss_mb(workload.children)
    while len(probes) < SETUP_PROBES:
        probes.append(import_probe())
    return passes, probes, rss or peak_rss_mb(workload.children)


def run_traced(workload, rng, seconds, tracer):
    """Each pass runs twice, untraced and traced, in alternating order; the
    traced copies feed the per-layer metrics, the pairs the overhead."""
    plain, traced, start = [], [], time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        ops = workload.make_pass(rng)
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if with_trace:
                outcomes = []
                for op in ops:
                    tracer.op += 1
                    outcomes.append(workload.run(op, tracer))
                traced.append(outcomes)
            else:
                plain.append([workload.run(op) for op in ops])
    return plain, traced


def pass_seconds(passes) -> list[float]:
    """Charged time of each pass, scaled to the reference machine speed.  An
    op that recurs in every pass under one key (a README command of
    cli-session) is charged the median of its times, because a run holds
    only four or five passes of fresh interpreters; any other op is charged
    its own time."""
    by_key = {}
    for o in (o for p in passes for o in p if o.key):
        by_key.setdefault(o.key, []).append(clock.charged(o.seconds, o.loop))
    median = {key: statistics.median(times) for key, times in by_key.items()}
    return [sum(median[o.key] if o.key else clock.charged(o.seconds, o.loop) for o in p)
            for p in passes]


def end_to_end(passes, probes, rss: float) -> dict:
    units = sum(o.units for p in passes for o in p)
    seconds = pass_seconds(passes)
    return {
        "setup_s": (statistics.median(clock.charged(s, loop) for s, loop in probes), "s"),
        "verified_per_s": (units / sum(seconds), "1/s"),
        "session_s": (statistics.median(seconds), "s"),
        "rss_peak_mb": (rss, "MB"),
    }


def per_layer(workload, plain, traced, tracer, cli_labels) -> dict:
    n = len(traced)
    counts = tracer.counts
    roots = sum(o.units for p in traced for o in p) if workload.unit == "root" else 0
    kernel = counts["secular.factor_value"] + counts["secular.t_sinh_t"]
    refine_calls = tracer.calls("spectrum.refine_root")
    solves = tracer.calls("transition.solve_broken")
    z_span = tracer.extent("transition.continue_in_Z")

    def per_pass(value):
        return value / n

    metrics = {
        "secular.factor_calls_per_root": (kernel / roots if roots else 0.0, "calls"),
        "secular.secular_t.calls": (per_pass(counts["secular.secular_t"]), "count/pass"),
        "spectrum.scan_roots.self_s": (per_pass(tracer.self_seconds("spectrum.scan_roots")), "s/pass"),
        "spectrum.refine_root.calls": (per_pass(refine_calls), "count/pass"),
        "spectrum.refine_root.us_per_call": (
            1e6 * tracer.seconds("spectrum.refine_root") / refine_calls if refine_calls else 0.0, "us"),
        "spectrum.refine_root.failed": (per_pass(tracer.failed("spectrum.refine_root")), "count/pass"),
        "transition.critical_sequence.calls": (
            per_pass(tracer.calls("transition.critical_sequence")), "count/pass"),
        "transition.critical_sequence.s": (
            per_pass(tracer.seconds("transition.critical_sequence")), "s/pass"),
        "transition.find_double_root.calls": (
            per_pass(tracer.calls("transition.find_double_root")), "count/pass"),
        "transition.solve_broken.calls": (per_pass(solves), "count/pass"),
        "transition.solve_broken.s": (per_pass(tracer.seconds("transition.solve_broken")), "s/pass"),
        "transition.solve_broken.failed": (
            per_pass(tracer.failed("transition.solve_broken")), "count/pass"),
        "transition.broken_secular.calls_per_solve": (
            counts["transition.broken_secular"] / solves if solves else 0.0, "calls"),
        "transition.continue_in_Z.s": (
            per_pass(tracer.seconds("transition.continue_in_Z")), "s/pass"),
        "transition.continue_in_Z.solves_per_Z": (
            tracer.children_of("transition.solve_broken", "transition.continue_in_Z") / z_span
            if z_span else 0.0, "1/Z"),
        "oracle.boundary_determinant.calls": (
            per_pass(tracer.calls("oracle.boundary_determinant")), "count/pass"),
        "oracle.boundary_determinant.s": (
            per_pass(tracer.seconds("oracle.boundary_determinant")), "s/pass"),
        "oracle.nullspace_solution.s": (
            per_pass(tracer.seconds("oracle.nullspace_solution")), "s/pass"),
        "oracle.residual_check.s": (per_pass(tracer.seconds("oracle.residual_check")), "s/pass"),
        "verify.run_checks.s": (per_pass(tracer.seconds("verify.run_checks")), "s/pass"),
    }
    for label in cli_labels:
        metrics[f"cli.{label}.s"] = (per_pass(tracer.seconds(f"cli.{label}")), "s/pass")
    metrics["cli.self_s"] = (per_pass(tracer.self_seconds("cli.")), "s/pass")
    metrics["trace.overhead_share"] = (
        sum(pass_seconds(traced)) / sum(pass_seconds(plain)) - 1.0, "share")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ptcircle" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'ptcircle'} is missing", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload)
    rng = random.Random(args.seed)
    if args.trace:
        import spans

        tracer = spans.Tracer()
        plain, passes = run_traced(workload, rng, args.seconds, tracer)
        metrics = per_layer(workload, plain, passes, tracer,
                            [label for label, _ in workloads.README_COMMANDS])
        passes = plain + passes
        unscaled = {}
    else:
        passes, probes, rss = run_untraced(workload, rng, args.seconds)
        metrics = end_to_end(passes, probes, rss)
        unscaled = {
            "median_loop_s": statistics.median(o.loop for p in passes for o in p),
            "setup_s": statistics.median(s for s, _ in probes),
            "op_s": sum(o.seconds for p in passes for o in p),
        }

    outcomes = [o for p in passes for o in p]
    failures = Counter(o.failure.split(":")[0] for o in outcomes if o.failure)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment(args)
    record = {"env": env, "passes": len(passes), "unit": workload.unit,
              "fail_share": result["failed"] / result["attempted"],
              "failure_kinds": dict(failures),
              "failures": [o.failure for o in outcomes if o.failure][:20],
              "unscaled": unscaled, "result": result}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(out / f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
            for rec in tracer.spans:
                f.write(json.dumps(rec) + "\n")
    print(json.dumps({"env": env, "fail_share": record["fail_share"],
                      "failure_kinds": record["failure_kinds"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
