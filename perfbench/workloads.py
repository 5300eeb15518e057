"""The four benchmark workloads: seeded operation generators, the timed call
of each operation, and the check of its output.

Every workload runs as one caller in a closed loop: the next operation starts
when the previous one and its check have finished.  Operations come in
passes; a pass is a fixed-size set of operations drawn from the seed with
stratified sampling (one draw per equal-width stratum of each input, strata
paired at random, see ``Strata``), so every pass covers the whole input range
and the mix does not drift between seeds.  See README.md for why each
workload exists.

Only the call into the program is timed, bracketed by the calibration loop of
clock.py.  Checks run afterwards, untimed and with tracing unbound.  An
operation fails when the program raises a documented ``SolverError``, exits
with code 2, or its output fails the check; its time is still charged.
Anything else is a benchmark error and aborts the run.  The input ranges keep
clear of the defects the program had when the benchmark was defined
(README.md), so every operation is expected to pass and a run with any failed
operation is not correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from child import import_program
from clock import Timed

ptcircle = import_program()

import numpy as np  # noqa: E402
from ptcircle import cli, oracle, verify  # noqa: E402
from ptcircle.errors import SolverError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BC_TOL = 1e-8            # boundary-condition residual bound, as in verify
ROOTS_CERTIFIED = 2      # roots per scan certified by the oracle
BROKEN_REL_TOL = 1e-5    # |E - E_ref| / |E_ref| for a broken-branch answer
SCAN_STEP = math.pi / 64     # grid step of the program's sign scan
COUNT_STEP = math.pi / 256   # grid step of the benchmark's own root count

# Input limits that keep every workload clear of the program's known defects
# and of the oracle's blind spot (README.md).
Z_RANGE = (2.5, 80.0)    # below Z = 2.2 the oracle cannot certify some doublets
S_MAX_DEEP = 128.0       # scans past the root at s = 128.76 stall
DZ_RANGE = (1e-3, 10.0)  # pair 0 answers on a wrong branch from dZ = 11.15 on

README_COMMANDS = (
    ("spectrum", ["spectrum", "--Z", "0.5", "--smax", "10"]),
    ("critical", ["critical", "--count", "5"]),
    ("broken", ["broken", "--Z", "6", "--pair", "0"]),
    ("table1", ["table1"]),
    ("fig1", ["fig", "--which", "1"]),
    ("fig2", ["fig", "--which", "2"]),
    ("verify_quick", ["verify", "--level", "quick"]),
    ("verify_full", ["verify", "--level", "full"]),
)
BYTE_CHECKED = ("spectrum", "broken", "fig1", "fig2")


class BenchmarkError(RuntimeError):
    """The program behaved outside its documented contract (an undocumented
    exception or exit code); the run is aborted, not scored."""


@dataclass(frozen=True)
class Outcome:
    seconds: float   # timed program time, charged whether or not the op failed
    loop: float      # calibration loop time around the call (clock.py)
    units: int       # verified outputs: roots, branch points or commands
    failure: str     # empty when the op succeeded and passed its check
    key: str         # names an op that recurs in every pass, else empty


class Workload:
    children = False   # the program runs in child processes

    def outcome(self, op: dict, seconds: float, loop: float, units: int, failure: str = "") -> Outcome:
        """The outcome of one op; a failed op verifies no units."""
        return Outcome(seconds, loop, 0 if failure else units, failure, self.key(op))

    def key(self, op: dict) -> str:
        return ""


def van_der_corput(k: int) -> float:
    """The k-th point of the base-2 van der Corput sequence in [0, 1)."""
    x, digit = 0.0, 0.5
    while k:
        x += digit * (k & 1)
        k >>= 1
        digit /= 2
    return x


class Strata:
    """One draw in each of n equal strata of [0, 1) per pass, in random
    order.  In pass k every draw sits at offset frac(r + vdc(k)) within its
    stratum, with r drawn once per run: successive passes fill each stratum
    evenly, so a run's input mix varies much less between seeds than with
    independent draws.  ``redraw`` replaces a draw by a random one in the
    same stratum."""

    def __init__(self, n: int) -> None:
        self.n, self.k, self.r = n, 0, None

    def draw(self, rng: random.Random) -> list[float]:
        if self.r is None:
            self.r = rng.random()
        offset = (self.r + van_der_corput(self.k)) % 1.0
        self.k += 1
        u = [(i + offset) / self.n for i in range(self.n)]
        rng.shuffle(u)
        return u

    def redraw(self, rng: random.Random, u: float) -> float:
        return (math.floor(u * self.n) + rng.random()) / self.n


def traced(tracer):
    return tracer.installed() if tracer else contextlib.nullcontext()


# --- spectrum-low, spectrum-deep ----------------------------------------


def root_counts(Z: float, s_max: float) -> dict[str, tuple[int, int]]:
    """Count the roots of each factor t*sinh t -/+ s*sin s along t = Z/(2s)
    in (0, s_max], independently of the program: a sign scan in numpy on a
    grid four times finer than the program's, extended geometrically towards
    s = 0.  For each branch returns ``(visible, full)``: ``full`` sign changes
    in all, of which ``visible`` can be seen by a sign scan on the program's
    grid, one per grid cell with an odd number of roots and none past the
    grid's last node (README.md, known defects)."""
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


def resolvable(Z: float, s_max: float) -> bool:
    """True when a sign scan on the program's grid can see every root."""
    return all(visible == full for visible, full in root_counts(Z, s_max).values())


def check_count(points, Z: float, s_max: float) -> str:
    for branch, (_, full) in root_counts(Z, s_max).items():
        found = sum(1 for p in points if p.branch.value == branch)
        if found != full:
            return f"count: {found} {branch} roots, expected {full}, at Z={Z!r}, s_max={s_max!r}"
    return ""


def check_roots(points, Z: float, s_max: float, pick: int) -> str:
    keys = [(p.E, p.branch.value) for p in points]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "order: roots not strictly increasing in (E, branch)"
    count = check_count(points, Z, s_max)
    if count:
        return count
    for i in random.Random(pick).sample(range(len(points)), min(ROOTS_CERTIFIED, len(points))):
        E = points[i].E
        try:
            solution = oracle.nullspace_solution(E, Z)
            report = oracle.residual_check(solution, E, Z)
        except SolverError as exc:
            return f"oracle: rejects E={E!r} at Z={Z!r}, {exc}"
        if max(report.bc_residuals) > BC_TOL:
            return (f"oracle: BC residual {max(report.bc_residuals):.3e} at E={E!r}, Z={Z!r}, "
                    f"multiplicity {solution.multiplicity}")
    return ""


class SpectrumScan(Workload):
    unit = "root"

    def __init__(self, s_lo: float, s_hi: float, log_s: bool, size: int) -> None:
        self.s_lo, self.s_hi, self.log_s = s_lo, s_hi, log_s
        self.z_strata, self.s_strata = Strata(size), Strata(size)

    def inputs(self, z: float, u: float) -> tuple[float, float]:
        if self.log_s:
            s_max = math.exp(math.log(self.s_lo) + u * math.log(self.s_hi / self.s_lo))
        else:
            s_max = self.s_lo + u * (self.s_hi - self.s_lo)
        return Z_RANGE[0] + z * (Z_RANGE[1] - Z_RANGE[0]), s_max

    def make_pass(self, rng: random.Random) -> list[dict]:
        """A draw whose roots the program's grid cannot all see is drawn again
        in the same strata (README.md, known defects)."""
        ops = []
        for z, u in zip(self.z_strata.draw(rng), self.s_strata.draw(rng)):
            Z, s_max = self.inputs(z, u)
            while not resolvable(Z, s_max):
                z, u = self.z_strata.redraw(rng, z), self.s_strata.redraw(rng, u)
                Z, s_max = self.inputs(z, u)
            ops.append({"Z": Z, "s_max": s_max, "pick": rng.getrandbits(32)})
        return ops

    def run(self, op: dict, tracer=None) -> Outcome:
        error = None
        with traced(tracer), Timed() as timed:
            try:
                points = ptcircle.scan_roots(ptcircle.SpectrumRequest(Z=op["Z"], s_max=op["s_max"]))
            except SolverError as exc:
                error = exc
        if error:
            return self.outcome(op, timed.seconds, timed.loop, 0, f"{type(error).__name__}: {error}")
        failure = check_roots(points, op["Z"], op["s_max"], op["pick"])
        return self.outcome(op, timed.seconds, timed.loop, len(points), failure)


# --- broken-sweep ---------------------------------------------------------


class BranchReference:
    """Stored broken branches (reference.json), interpolated in log dZ by a
    four-point Lagrange stencil on the 401-point grid."""

    def __init__(self, path: Path = HERE / "reference.json") -> None:
        data = json.loads(path.read_text(encoding="utf-8"))
        self.u = [math.log(d) for d in data["dZ"]]
        self.Z_p = [p["Z_p"] for p in data["pairs"]]
        self.values = [list(zip(p["re_E"], p["eps"])) for p in data["pairs"]]

    def at(self, pair: int, Z: float) -> complex:
        u = math.log(Z - self.Z_p[pair])
        h = self.u[1] - self.u[0]
        i = min(max(int((u - self.u[0]) / h), 1), len(self.u) - 3)
        nodes = range(i - 1, i + 3)
        acc = 0j
        for j in nodes:
            w = 1.0
            for k in nodes:
                if k != j:
                    w *= (u - self.u[k]) / (self.u[j] - self.u[k])
            acc += w * complex(*self.values[pair][j])
        return acc


def check_broken(reference: BranchReference, pair: int, Z: float, re_E: float, eps: float) -> str:
    ref = reference.at(pair, Z)
    if abs(complex(re_E, eps) - ref) > BROKEN_REL_TOL * abs(ref):
        return (f"wrong-branch: pair {pair} at Z={Z!r}, (ReE, eps) = ({re_E:.6g}, {eps:.6g}), "
                f"reference ({ref.real:.6g}, {ref.imag:.6g})")
    return ""


class BrokenSweep(Workload):
    unit = "branch point"
    pairs = 16

    def __init__(self) -> None:
        self.reference = BranchReference()
        self.dz_strata = Strata(self.pairs)

    def make_pass(self, rng: random.Random) -> list[dict]:
        pairs = list(range(self.pairs))
        rng.shuffle(pairs)
        lo, hi = DZ_RANGE
        return [
            {"pair": p, "Z": self.reference.Z_p[p] + math.exp(math.log(lo) + u * math.log(hi / lo))}
            for p, u in zip(pairs, self.dz_strata.draw(rng))
        ]

    def run(self, op: dict, tracer=None) -> Outcome:
        argv = ["broken", "--Z", repr(op["Z"]), "--pair", str(op["pair"]), "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), traced(tracer), \
                Timed() as timed:
            code = tracer.call("cli.broken", cli.main, argv) if tracer else cli.main(argv)
        if code == 2:
            return self.outcome(op, timed.seconds, timed.loop, 0, f"exit-2: {err.getvalue().strip()}")
        if code != 0:
            raise BenchmarkError(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        try:
            payload = json.loads(out.getvalue())
            row = dict(zip(payload["columns"], payload["rows"][0]))
            re_E, eps = float(row["ReE"]), float(row["eps"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return self.outcome(op, timed.seconds, timed.loop, 0,
                                f"format: unreadable broken output ({exc!r})")
        failure = check_broken(self.reference, op["pair"], op["Z"], re_E, eps)
        return self.outcome(op, timed.seconds, timed.loop, 1, failure)


# --- cli-session ------------------------------------------------------------


def _table(stdout: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV output, '#' comment lines dropped."""
    lines = [line.split(",") for line in stdout.splitlines() if line and not line.startswith("#")]
    return lines[0], lines[1:]


def check_command(label: str, code: int, stdout: str, golden: dict) -> str:
    """Check one README command's output; ``code`` is 0, or 1 for verify."""
    try:
        if label.startswith("verify"):
            results = [line for line in stdout.splitlines() if not line.startswith("#")]
            if code != 0 or not results or not all(line.startswith("PASS ") for line in results):
                return f"verify: {label} exited {code} and did not pass every check"
        elif label == "critical":
            header, rows = _table(stdout)
            z_crit = [float(row[header.index("Z_crit")]) for row in rows]
            intervals = verify.CRITICAL_INTERVALS
            if len(z_crit) != len(intervals) or not all(
                    lo <= z <= hi for z, (lo, hi) in zip(z_crit, intervals)):
                return f"critical: couplings {z_crit} outside {intervals}"
        elif label == "table1":
            header, rows = _table(stdout)
            flag, role = header.index("flag"), header.index("role")
            pinned = [row[flag] for row in rows if row[role] == "pinned"]
            if not pinned or any(f != "ok" for f in pinned):
                return f"table1: pinned flags {pinned}"
        elif hashlib.sha256(stdout.encode()).hexdigest() != golden[label]:
            return f"bytes: {label} output differs from the recorded bytes"
    except (ValueError, IndexError) as exc:
        return f"format: unreadable {label} output ({exc!r})"
    return ""


class CliSession(Workload):
    children = True
    unit = "command"

    def __init__(self) -> None:
        self.golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

    def make_pass(self, rng: random.Random) -> list[dict]:
        order = list(README_COMMANDS)
        rng.shuffle(order)
        return [{"label": label, "argv": argv} for label, argv in order]

    def run(self, op: dict, tracer=None) -> Outcome:
        cmd = [sys.executable, str(HERE / "child.py"), *(["--trace"] if tracer else []),
               op["label"], *op["argv"]]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT,
                              check=False)
        if proc.returncode != 0:
            raise BenchmarkError(f"{op['label']}: child exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout)
        if tracer:
            tracer.merge(result)
        code, seconds, loop = result["code"], result["command_s"], result["command_loop_s"]
        if code == 2:
            return self.outcome(op, seconds, loop, 0, f"exit-2: {op['label']}, {result['stderr'].strip()}")
        if code != 0 and not (code == 1 and op["label"].startswith("verify")):
            raise BenchmarkError(f"{op['label']} exited {code}: {result['stderr']}")
        failure = check_command(op["label"], code, result["stdout"], self.golden)
        return self.outcome(op, seconds, loop, 1, failure)

    def key(self, op: dict) -> str:
        return op["label"]


def make(name: str):
    if name == "spectrum-low":
        return SpectrumScan(math.pi, 8.0 * math.pi, log_s=False, size=32)
    if name == "spectrum-deep":
        return SpectrumScan(8.0 * math.pi, S_MAX_DEEP, log_s=True, size=32)
    if name == "broken-sweep":
        return BrokenSweep()
    if name == "cli-session":
        return CliSession()
    raise KeyError(name)


WORKLOADS = ("spectrum-low", "spectrum-deep", "broken-sweep", "cli-session")
