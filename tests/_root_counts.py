"""An independent count of the real roots on the constraint curve, for the
tests' contract sweep: a copy of the benchmark's judge
(``perfbench/workloads.root_counts``), since the tests do not import the
benchmark.  It uses numpy only, never the program's scan.
"""

from __future__ import annotations

import math

import numpy as np

SCAN_STEP = math.pi / 64     # grid step of the program's sign scan
COUNT_STEP = math.pi / 256   # grid step of this count


def root_counts(Z: float, s_max: float) -> dict[str, tuple[int, int]]:
    """Count the roots of each factor t*sinh t -/+ s*sin s along t = Z/(2s)
    in (0, s_max], independently of the program: a sign scan in numpy on a
    grid four times finer than the program's, extended geometrically towards
    s = 0.  For each branch returns ``(visible, full)``: ``full`` sign changes
    in all, of which ``visible`` can be seen by a sign scan on the program's
    grid, one per grid cell with an odd number of roots and none past the
    grid's last node."""
    cells = math.floor(s_max / SCAN_STEP)
    fine = COUNT_STEP * np.arange(1, 4 * cells + 1)
    tail = np.linspace(fine[-1], s_max, 5)[1:] if s_max > fine[-1] else np.empty(0)
    down = np.empty(0)
    lo = 0.05 * math.sqrt(0.5 * Z)
    if 0.0 < lo < fine[0]:
        down = fine[0] * 1.1 ** -np.arange(math.ceil(math.log(fine[0] / lo) / math.log(1.1)), 0, -1)
    s = np.concatenate([down, fine, tail])
    # Program grid cell of each bracket (s[i], s[i + 1]), from the index in
    # ``fine`` of its upper end: a cell of its own up to the first node of the
    # program's grid, none past the last.
    upper = np.arange(1, len(s)) - len(down)
    cell = np.where(upper < 4, -1 - np.arange(len(s) - 1), upper // 4)
    t = Z / (2.0 * s)
    with np.errstate(over="ignore"):
        hyp = t * np.sinh(t)
    counts = {}
    for branch, sign in (("minus", -1.0), ("plus", 1.0)):
        negative = np.signbit(hyp + sign * s * np.sin(s))
        changed = negative[:-1] != negative[1:]
        seen = changed & (upper < len(fine))
        _, per_cell = np.unique(cell[seen], return_counts=True)
        counts[branch] = (int(np.count_nonzero(per_cell % 2)), int(np.count_nonzero(changed)))
    return counts
