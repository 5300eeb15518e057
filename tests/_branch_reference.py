"""The stored broken branches of ``perfbench/reference.json``, for the tests'
contract sweep of ``broken``: the tests read the benchmark's data, but
import none of its code, so this is the benchmark's interpolation written
again.  The file holds, for each of the 16 pairs, its coalescence coupling
Z_p and (ReE, eps) on one grid of dZ = Z - Z_p, uniform in log dZ from 8e-4
to 60, computed by a continuation of its own (``perfbench/make_reference.py``),
not by the tracker that ``broken`` runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


class BranchReference:
    def __init__(self, path: Path = PATH) -> None:
        data = json.loads(path.read_text(encoding="utf-8"))
        self.u = [math.log(dZ) for dZ in data["dZ"]]
        self.Z_p = [pair["Z_p"] for pair in data["pairs"]]
        self.values = [[complex(*v) for v in zip(pair["re_E"], pair["eps"])]
                       for pair in data["pairs"]]

    def at(self, pair: int, dZ: float) -> complex:
        """ReE + i*eps of the pair at Z_p + dZ, by the four-point Lagrange
        stencil in u = log dZ around u; dZ within the stored grid."""
        u, grid = math.log(dZ), self.u
        h = grid[1] - grid[0]
        i = min(max(int((u - grid[0]) / h), 1), len(grid) - 3)
        nodes = range(i - 1, i + 3)
        value = 0j
        for j in nodes:
            weight = 1.0
            for k in nodes:
                if k != j:
                    weight *= (u - grid[k]) / (grid[j] - grid[k])
            value += weight * self.values[pair][j]
        return value
