"""Run every workload once and print each metric by name and unit, with the
fail share of each workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for workload in (w["name"] for w in SPEC["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent, check=False,
        )
        if proc.returncode != 0:
            print(f"{workload}: benchmark error\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:14s} {name:42s} {metric['value']:14.6g} {metric['unit']}")
        share = result["failed"] / result["attempted"]
        print(f"{workload:14s} {'fail_share':42s} {share:14.6g} share "
              f"({result['failed']} of {result['attempted']} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
