"""Seeded contract sweep: draws across the documented input range of
``spectrum``, each judged by a root count that does not use the code it
judges (``_root_counts``, a sign scan on a grid four times finer than the
scan's, extended geometrically toward s = 0).

The scan's pi/64 grid has known blind spots, and a draw that meets one
returns a root too few with no error.  A strict xfail records that the
sweep still finds such misses; a plain test checks that each miss belongs
to a known class, so a new kind of miss fails at once.
"""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest

from ptcircle.spectrum import SpectrumRequest, scan_roots

from _root_counts import SCAN_STEP, root_counts

SWEEP_SEED = 20261021
SWEEP_DRAWS = 300

PAST_LAST_NODE = "a root past the last grid node"
PAIR_IN_CELL = "two roots in one grid cell"
AT_NODE = "a root within rounding of a grid node"


def spectrum_draws():
    """Z log-uniform on [1e-6, 1e6] and s_max log-uniform on [pi, 2000]."""
    rng = np.random.default_rng(SWEEP_SEED)
    for _ in range(SWEEP_DRAWS):
        Z = 10.0 ** rng.uniform(-6.0, 6.0)
        s_max = math.exp(rng.uniform(math.log(math.pi), math.log(2000.0)))
        yield Z, s_max


def misses(Z: float, s_max: float) -> list[tuple[float, float, str, int, int, int]]:
    """(Z, s_max, branch, found, visible, full) for each branch whose scan
    returns a root count other than the full count (``root_counts``)."""
    points = scan_roots(SpectrumRequest(Z=Z, s_max=s_max))
    out = []
    for branch, (visible, full) in root_counts(Z, s_max).items():
        found = sum(1 for p in points if p.branch.value == branch)
        if found != full:
            out.append((Z, s_max, branch, found, visible, full))
    return out


def nodes_at_a_root(Z: float, s_max: float, branch: str) -> int:
    """How many nodes k*pi/64 <= s_max hold a factor value within 16 units
    of the rounding error |s*F_s|*eps that rounding s makes, the bound of
    the root rule: a root there may sit on either side of the node."""
    s = SCAN_STEP * np.arange(1, math.floor(s_max / SCAN_STEP) + 1)
    sign = -1.0 if branch == "minus" else 1.0
    t = Z / (2.0 * s)
    with np.errstate(over="ignore", invalid="ignore"):
        F = t * np.sinh(t) + sign * s * np.sin(s)
        F_s = -(t / s) * (np.sinh(t) + t * np.cosh(t)) + sign * (np.sin(s) + s * np.cos(s))
        near = np.isfinite(F) & (np.abs(F) <= 16.0 * np.finfo(float).eps * np.abs(s * F_s))
    return int(np.count_nonzero(near))


def miss_class(Z: float, s_max: float, branch: str, found: int, visible: int, full: int) -> str:
    """The known class of a miss, or an empty string.  ``visible`` leaves out
    the roots past the grid's last node and those that share a grid cell
    with another, so a scan that finds exactly that many missed only those;
    otherwise a root must lie within rounding of a node, one root per such
    node at most."""
    if found > full:
        return ""
    if found == visible:
        last = SCAN_STEP * math.floor(s_max / SCAN_STEP)
        return PAST_LAST_NODE if root_counts(Z, last)[branch][1] < full else PAIR_IN_CELL
    if full - found <= full - visible + nodes_at_a_root(Z, s_max, branch):
        return AT_NODE
    return ""


@pytest.fixture(scope="module")
def sweep_misses():
    return [miss for Z, s_max in spectrum_draws() for miss in misses(Z, s_max)]


@pytest.mark.xfail(strict=True, reason="the pi/64 scan grid misses roots past its last node, "
                                       "pairs in one cell and roots within rounding of a node")
def test_spectrum_sweep_misses_no_root(sweep_misses):
    assert sweep_misses == []


def test_spectrum_sweep_misses_only_known_classes(sweep_misses):
    classes = collections.Counter()
    for miss in sweep_misses:
        kind = miss_class(*miss)
        assert kind, miss
        classes[kind] += 1
    # the sweep meets the commonest class, so it can see a change in it
    assert classes[PAST_LAST_NODE] > 0


@pytest.mark.parametrize("Z, s_max, branch, kind", [
    (27.787320345821087, 15.782337500728344, "plus", PAST_LAST_NODE),
    (17.9, 6.4, "plus", PAIR_IN_CELL),  # just below the coalescence at Z = 17.901
    (1.18e-3, 414.73, "plus", AT_NODE),  # the last node, at 132*pi
])
def test_each_known_class_is_recognised(Z, s_max, branch, kind):
    (miss,) = [m for m in misses(Z, s_max) if m[2] == branch]
    assert miss_class(*miss) == kind
