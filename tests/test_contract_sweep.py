"""Seeded contract sweeps, each judged by something that does not use the
code it judges.

``spectrum``: draws across its documented input range, judged by a root
count (``_root_counts``, a sign scan on a grid four times finer than the
scan's, extended geometrically toward s = 0).  The scan's pi/64 grid has
known blind spots, and a draw that meets one returns a root too few with no
error.  A strict xfail records that the sweep still finds such misses; a
plain test checks that each miss belongs to a known class, so a new kind of
miss fails at once.

``critical``: the 16 couplings rise, and each lies above the asymptote
2*s*t (s = (nu + 1/2)*pi, t*sinh t = s) by a relative gap of at most
0.5/(nu + 1/2)**2.

Exit codes: seeded argv outside the documented ranges of every command
exit 64 with one ``usage error:`` line and no output, and ``broken`` at or
below its pair's coalescence exits 2.
"""

from __future__ import annotations

import collections
import json
import math

import numpy as np
import pytest

from ptcircle.cli import main
from ptcircle.spectrum import SpectrumRequest, scan_roots
from ptcircle.transition import interval_fold

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


def run_main(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def t_sinh_t_root(s: float) -> float:
    """The t > 0 with t*sinh t = s, by Newton from log(2s) (s > 1)."""
    t = math.log(2.0 * s)
    for _ in range(50):
        step = (t * math.sinh(t) - s) / (math.sinh(t) + t * math.cosh(t))
        t -= step
        if abs(step) <= 1e-15 * t:
            return t
    raise AssertionError(f"no convergence at s={s}")


def test_critical_couplings_rise_above_their_asymptote(capsys):
    code, out, err = run_main(capsys, ["critical", "--count", "16", "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [row[0] for row in rows] == list(range(16))
    couplings = [row[1] for row in rows]
    assert all(a < b for a, b in zip(couplings, couplings[1:]))
    for nu, Z in enumerate(couplings):
        s = (nu + 0.5) * math.pi
        asymptote = 2.0 * s * t_sinh_t_root(s)
        # measured: gap*(nu + 1/2)**2 runs from 0.090 at nu = 0 to 0.333 at 15
        assert 0.0 < (Z - asymptote) / Z <= 0.5 / (nu + 0.5) ** 2, nu


EXIT_SEED = 20261022
EXIT_DRAWS = 60  # per command


def out_of_range_argvs():
    """Seeded argv, each with one input outside its command's documented
    range and every other input inside it."""
    rng = np.random.default_rng(EXIT_SEED)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def log_u(lo: float, hi: float) -> float:
        return 10.0 ** rng.uniform(lo, hi)

    def non_finite() -> str:
        return pick(["inf", "-inf", "nan"])

    def bad_int(lo: int, hi: int) -> int:
        return pick([lo - 1 - int(rng.integers(1000)), hi + 1 + int(rng.integers(10**6))])

    for _ in range(EXIT_DRAWS):
        Z, s_max = log_u(-6, 6), math.exp(rng.uniform(math.log(math.pi), math.log(1e4)))
        Z, s_max = pick([
            (pick([-log_u(-300, 300), non_finite()]), s_max),
            (Z, pick([rng.uniform(0.0, math.pi), 1e4 * (1.0 + log_u(-12, 3)), -s_max,
                      non_finite()])),
        ])
        yield ["spectrum", "--Z", str(Z), "--smax", str(s_max)]

        yield ["critical", "--count", str(bad_int(1, 16))]

        Z, pair = log_u(-3, 6), int(rng.integers(16))
        Z, pair = pick([(pick([0.0, -0.0, -Z, non_finite()]), pair), (Z, bad_int(0, 15))])
        yield ["broken", "--Z", str(Z), "--pair", str(pair)]

        t_min = log_u(-3, 0)
        fig1 = {"--Z": log_u(-3, 3), "--t-min": t_min, "--t-max": t_min + log_u(-3, 2),
                "--points": int(rng.integers(2, 4097))}
        key = pick(["--Z", "--t-min", "--t-max", "--z-min", "--z-max", "--points", "order",
                    "overflow", "underflow"])
        if key == "--Z":
            fig1[key] = pick([-log_u(-3, 3), non_finite()])
        elif key == "--points":
            fig1[key] = bad_int(2, 4096)
        elif key == "order":  # t_min >= t_max, or t_min <= 0
            fig1["--t-min"] = pick([fig1["--t-max"] * (1.0 + rng.uniform()), 0.0, -t_min])
        elif key == "overflow":  # the last sample passes the float maximum
            fig1["--t-max"], fig1["--points"] = 1.7976931348623157e308, 10
        elif key == "underflow":  # t*t is 0 at the first sample
            fig1["--t-min"] = log_u(-300, -170)
            fig1["--t-max"] = fig1["--t-min"] * (1.0 + rng.uniform())
        else:
            fig1[key] = non_finite()
        yield ["fig", "--which", "1", *(str(v) for kv in fig1.items() for v in kv)]

        t_min, z_min = log_u(-3, 0), pick([0.0, log_u(-3, 1)])
        fig2 = {"--t-min": t_min, "--t-max": t_min + log_u(-3, 2), "--z-min": z_min,
                "--z-max": z_min + log_u(-3, 3), "--nt": int(rng.integers(1, 65)),
                "--nz": int(rng.integers(1, 65))}
        key = pick(["--t-min", "--t-max", "--z-min", "--z-max", "--nt", "--nz", "t order",
                    "z order", "underflow", "overflow"])
        if key in ("--nt", "--nz"):
            fig2[key] = bad_int(1, 4096)
        elif key == "t order":
            fig2["--t-min"] = pick([fig2["--t-max"] * (1.0 + rng.uniform()), 0.0, -t_min])
        elif key == "z order":
            fig2["--z-min"] = pick([fig2["--z-max"] * (1.0 + rng.uniform()), -log_u(-3, 3)])
        elif key == "underflow":  # t*t is 0 in the first column
            fig2["--t-min"] = log_u(-300, -170)
            fig2["--t-max"] = fig2["--t-min"] * (1.0 + rng.uniform())
            fig2["--nz"] = int(rng.integers(1, 4097))
        elif key == "overflow":  # Z/t overflows in the corner of the smallest t and largest Z
            fig2["--t-min"] = log_u(-160, -10)
            fig2["--t-max"] = fig2["--t-min"] * (1.0 + rng.uniform())
            fig2["--z-min"], fig2["--z-max"] = 0.0, log_u(300, 308)
            fig2["--nz"] = int(rng.integers(1, 4097))
        else:
            fig2[key] = non_finite()
        yield ["fig", "--which", "2", *(str(v) for kv in fig2.items() for v in kv)]


def test_out_of_range_argv_is_one_usage_error(capsys):
    argvs = list(out_of_range_argvs())
    assert len(argvs) == 5 * EXIT_DRAWS
    for argv in argvs:
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (64, ""), argv
        assert err.startswith("usage error: ") and err.count("\n") == 1, (argv, err)
        assert err.endswith("\n"), (argv, err)


def test_broken_at_or_below_its_coalescence_is_still_real(capsys):
    rng = np.random.default_rng(EXIT_SEED)
    for pair in range(16):
        Z_crit = interval_fold(pair).Z_crit
        for Z in (Z_crit, Z_crit * rng.uniform(1e-3, 1.0)):
            code, out, err = run_main(capsys, ["broken", "--Z", repr(Z), "--pair", str(pair)])
            assert (code, out) == (2, ""), (Z, pair)
            assert err == (f"solver error: Z={Z} is at or below the pair-{pair} coalescence "
                           f"({Z_crit:.7f}); the pair is still real there, use the spectrum "
                           "command\n")
