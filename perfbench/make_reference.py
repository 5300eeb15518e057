"""Regenerate the benchmark's stored references: reference.json and golden.json.

    python3 perfbench/make_reference.py

reference.json holds, for each of the 16 pairs, the coalescence coupling Z_p
and the broken branch (ReE, eps) on a grid of 401 points log-spaced in
dZ = Z - Z_p over [8e-4, 60].  The branch comes from small-step continuation
away from the fold (Z steps of at most 0.01 and at most 2.5% of dZ), which
stays on the branch where the program's 16-step continuation may jump to a
neighbour.  A second continuation with twice the step size must agree, or the
script fails.

golden.json holds the SHA-256 of the stdout of the README commands whose
output the cli-session workload checks byte for byte.

Run it only when a change of definition is intended: the benchmark checks
every later version of the program against these files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ptcircle import cli, transition  # noqa: E402

import workloads  # noqa: E402

GRID = [math.exp(math.log(8e-4) + i * (math.log(60.0) - math.log(8e-4)) / 400) for i in range(401)]
START = 5e-4


def continue_branch(fold, h_abs: float, h_rel: float) -> list[tuple[float, float]]:
    Z = fold.Z_crit + START
    params, energy = transition.solve_broken(Z, transition.fold_unfolding_seed(fold, Z))
    out = []
    for dZ in GRID:
        target = fold.Z_crit + dZ
        while Z < target:
            Z = min(target, Z + min(h_abs, h_rel * (Z - fold.Z_crit)))
            params, energy = transition.solve_broken(Z, params)
        out.append((energy.re_E, energy.eps))
    return out


def main() -> int:
    folds = transition.critical_sequence(16)
    pairs = []
    for fold in folds:
        fine = continue_branch(fold, 0.01, 0.025)
        coarse = continue_branch(fold, 0.02, 0.05)
        worst = max(abs(complex(*a) - complex(*b)) / abs(complex(*a)) for a, b in zip(fine, coarse))
        print(f"pair {fold.nu}: Z_p={fold.Z_crit:.10f}, step-halving change {worst:.2e}")
        if worst > 1e-6:
            raise SystemExit(f"pair {fold.nu}: continuation not converged in the step size")
        pairs.append({"Z_p": fold.Z_crit, "re_E": [a for a, _ in fine], "eps": [b for _, b in fine]})
    (HERE / "reference.json").write_text(
        json.dumps({"dZ": GRID, "pairs": pairs}, indent=0) + "\n", encoding="utf-8"
    )

    golden = {}
    for label, argv in workloads.README_COMMANDS:
        if label in workloads.BYTE_CHECKED:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{label} exited {code}")
            golden[label] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
