"""Command-line front end.

Commands
    spectrum   real eigenvalues at a coupling
    critical   the sequence of coalescence couplings
    broken     one complex-branch solution above a coalescence
    table1     recompute the bundled reference coupling table, with deviations
    fig        data behind the determinant figures (curve and sign map)
    verify     run the self-check suite

Exit codes: 0 success, 1 verification failure, 2 numeric non-convergence or
a failed internal check, 64 usage error, 141 stdout closed by its reader (as
by ``| head``; the rest of the output is dropped, with no traceback).
Output is CSV by default (JSON with --format json) and is byte-identical for identical flags; schema version and
an echo of the parsed inputs ride along as '#' comment lines (CSV) or
top-level fields (JSON).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import threading

import numpy as np

from . import __version__
from .errors import SolverError
from .secular import secular_t
from .spectrum import SpectrumRequest, scan_roots
from . import transition, verify as verify_mod

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_SOLVER = 2
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell shows for a process a closed pipe ended

# fig 2 evaluates and writes its grid in blocks of whole Z rows of about this
# many cells, which bounds its float temporaries (the default 256 x 256 grid
# is one block)
_FIG2_BLOCK_CELLS = 1 << 20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 64
        raise _UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(stream, command: str, inputs: dict, header: list[str], rows: list[list],
          fmt: str, meta: bool, preamble: list[str] | None = None) -> None:
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
            "columns": header,
            "rows": rows,
        }
        if preamble:
            payload["notes"] = preamble
        if meta:
            payload["meta"] = _meta_fields()
        stream.write(json.dumps(payload, indent=2))
        stream.write("\n")
        return
    stream.write(",".join(header) + "\n")
    stream.write(f"# schema_version={SCHEMA_VERSION}\n")
    stream.write(f"# command={command}\n")
    for key, value in inputs.items():
        stream.write(f"# input.{key}={_fmt(value)}\n")
    for line in preamble or []:
        stream.write(f"# {line}\n")
    if meta:
        for key, value in _meta_fields().items():
            stream.write(f"# meta.{key}={value}\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _meta_fields() -> dict:
    return {
        "package": "ptcircle",
        "version": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


@contextlib.contextmanager
def _output(path):
    """Stream for command output: stdout, or the --out file closed on exit.
    A path that cannot be opened for writing is a usage error."""
    if path is None:
        yield sys.stdout
        return
    try:
        stream = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _UsageError(f"cannot write --out {path}: {exc.strerror}") from exc
    with stream:
        yield stream


def _cmd_spectrum(args) -> int:
    if args.Z < 0 or not math.isfinite(args.Z):
        raise _UsageError(f"--Z must be finite and non-negative, got {args.Z}")
    if not math.pi <= args.smax <= 10_000.0:
        raise _UsageError(f"--smax must be in [pi, 10000], got {args.smax}")
    pts = scan_roots(SpectrumRequest(Z=args.Z, s_max=args.smax))
    rows = [[p.n, p.branch.value, p.params.s, p.params.t, p.E, p.residual] for p in pts]
    with _output(args.out) as stream:
        _emit(stream, "spectrum", {"Z": args.Z, "smax": args.smax},
              ["n", "branch", "s", "t", "E", "residual"], rows, args.format, args.meta)
    return EXIT_OK


def _cmd_critical(args) -> int:
    if not 1 <= args.count <= 16:
        raise _UsageError(f"--count must be in 1..16, got {args.count}")
    folds = transition.critical_sequence(args.count)
    rows = [[f.nu, f.Z_crit, f.s_merge, f.E_merge, f.branch.value] for f in folds]
    with _output(args.out) as stream:
        _emit(stream, "critical", {"count": args.count},
              ["nu", "Z_crit", "s_merge", "E_merge", "branch"], rows, args.format, args.meta)
    return EXIT_OK


def _solve_pair_at(Z: float, pair: int):
    fold = transition.interval_fold(pair)
    if Z <= fold.Z_crit:
        raise SolverError(
            f"Z={Z} is at or below the pair-{pair} coalescence ({fold.Z_crit:.7f}); "
            "the pair is still real there, use the spectrum command"
        )
    return transition.solve_above_fold(fold, Z)


def _cmd_broken(args) -> int:
    if args.Z <= 0 or not math.isfinite(args.Z):
        raise _UsageError(f"--Z must be finite and positive, got {args.Z}")
    if args.pair < 0 or args.pair > 15:
        raise _UsageError(f"--pair must be in 0..15, got {args.pair}")
    params, energy = _solve_pair_at(args.Z, args.pair)
    rows = [[args.Z, params.alpha, params.beta, params.K, energy.re_E, energy.eps]]
    with _output(args.out) as stream:
        _emit(stream, "broken", {"Z": args.Z, "pair": args.pair},
              ["Z", "alpha", "beta", "K", "ReE", "eps"], rows, args.format, args.meta)
    return EXIT_OK


def _cmd_table1(args) -> int:
    folds = transition.critical_sequence(1 + max(row[4] for row in verify_mod.TABLE_ROWS))
    rows = [
        [Z, pair,
         params.alpha, a_p, d_a,
         params.beta, b_p, d_b,
         energy.re_E, ree_p, d_e,
         "ok" if ok else "SUSPECT",
         "pinned" if pinned else "reported"]
        for (Z, a_p, b_p, ree_p, pair, pinned), params, energy, (d_a, d_b, d_e), ok
        in verify_mod.solve_table_rows(folds)
    ]
    with _output(args.out) as stream:
        _emit(
            stream, "table1", {},
            ["Z", "pair", "alpha", "alpha_ref", "d_alpha", "beta", "beta_ref", "d_beta",
             "ReE", "ReE_ref", "d_ReE", "flag", "role"],
            rows, args.format, args.meta,
            preamble=[
                "rows at the coalescence couplings list one member of the still-real pair",
                "deviation flags are reporting only; pinned rows form the golden set",
            ],
        )
    return EXIT_OK


def _cmd_fig(args) -> int:
    if not all(map(math.isfinite, (args.t_min, args.t_max, args.z_min, args.z_max))):
        raise _UsageError("--t-min, --t-max, --z-min and --z-max must be finite")
    if args.which == 1:
        if args.points < 2 or args.points > 4096:
            raise _UsageError(f"--points must be in 2..4096, got {args.points}")
        if not (0 < args.t_min < args.t_max):
            raise _UsageError("need 0 < t-min < t-max")
        step = (args.t_max - args.t_min) / (args.points - 1)
        ts = (args.t_min + np.arange(args.points) * step).tolist()  # the floats of t_min + i*step
        try:
            # the scalar kernel, from math: these bytes are pinned
            values = [secular_t(t, args.Z) for t in ts]
        except ValueError as exc:  # at the first point where t*t underflows, Z/t overflows or Z < 0
            raise _UsageError(str(exc)) from exc
        rows = [[t, v] for t, v in zip(ts, values)]
        with _output(args.out) as stream:
            _emit(stream, "fig1",
                  {"Z": args.Z, "t_min": args.t_min, "t_max": args.t_max, "points": args.points},
                  ["t", "value"], rows, args.format, args.meta,
                  preamble=["determinant in the t form along t at fixed coupling"])
        return EXIT_OK
    if not (1 <= args.nt <= 4096 and 1 <= args.nz <= 4096):
        raise _UsageError("grid dimensions must be in 1..4096 per axis")
    if not (0 < args.t_min < args.t_max) or not (0 <= args.z_min < args.z_max):
        raise _UsageError("need 0 < t-min < t-max and 0 <= z-min < z-max")
    dt = (args.t_max - args.t_min) / args.nt
    dz = (args.z_max - args.z_min) / args.nz
    ts = [args.t_min + (i + 0.5) * dt for i in range(args.nt)]
    zs = [args.z_min + (j + 0.5) * dz for j in range(args.nz)]
    t_row, z_column = np.array(ts), np.array(zs)[:, None]
    step = max(1, _FIG2_BLOCK_CELLS // args.nt)
    blocks = [slice(j, j + step) for j in range(0, args.nz, step)]
    signs = np.empty((args.nz, args.nt), dtype=np.int8)
    try:
        if len(blocks) > 1:
            # a t column fails at its smallest or largest Z if anywhere (Z
            # rises down the column), so those two rows raise the grid's error
            secular_t(t_row, z_column[[0, -1]])
        for b in blocks:  # one pass per block, a Z column against a t row
            v = secular_t(t_row, z_column[b])
            signs[b] = np.where(v == 0.0, 0.0, np.copysign(1.0, v))  # a NaN keeps its sign bit
    except ValueError as exc:  # t*t underflows or Z/t overflows
        raise _UsageError(str(exc)) from exc
    rows = []  # CSV rows are streamed after the comment lines, one Z row at a time
    if args.format == "json":
        rows = [[t, Z, sign] for Z, row in zip(zs, signs.tolist()) for t, sign in zip(ts, row)]
    with _output(args.out) as stream:
        _emit(stream, "fig2",
              {"t_min": args.t_min, "t_max": args.t_max, "z_min": args.z_min,
               "z_max": args.z_max, "nt": args.nt, "nz": args.nz},
              ["t", "Z", "sign"], rows, args.format, args.meta,
              preamble=[
                  "sign map of the determinant in the t form; cell-centered sampling",
                  "axes: t horizontal (wavenumber real part), Z vertical (coupling);",
                  "the sign-change contour is the eigenvalue locus",
              ])
        if args.format == "csv":
            # a Z row is the join by ",Z," of t_0, then "sign\nt" for each
            # next t, looked up by the sign before it, then the last "sign\n"
            t_text = [_fmt(t) for t in ts]
            inner = np.empty((3, args.nt - 1), dtype=object)
            inner[:] = [[f"{sign}\n{t}" for t in t_text[1:]] for sign in (-1, 0, 1)]
            columns = np.arange(args.nt - 1)
            last = ("-1\n", "0\n", "1\n")
            for b in blocks:
                index = signs[b] + 1
                middles = inner[index[:, :-1], columns].tolist()
                for z, middle, k in zip(map(_fmt, zs[b]), middles, index[:, -1].tolist()):
                    stream.write(f",{z},".join([t_text[0], *middle, last[k]]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    """Run the checks and write one line each and a summary.  --out is opened
    before any check runs, so an unwritable path exits 64 at once; a check
    that raises (exit 2) leaves the opened file behind, empty."""
    with _output(args.out) as stream:
        results = verify_mod.run_checks(args.level)
        for r in results:
            stream.write(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n")
        failed = [r for r in results if not r.passed]
        stream.write(f"# {len(results) - len(failed)}/{len(results)} checks passed\n")
    return EXIT_OK if not failed else EXIT_VERIFY_FAIL


# Every command's options, declared once: its help line, its function and
# its options, each (flag, dest, type, default, choices, required, help); a
# type of None is a bare flag that stores True.  argparse's subparsers and the
# plain parse in ``main`` both read this table.
_COMMON = (("--format", "format", str, "csv", ("csv", "json"), False, None),
           ("--out", "out", str, None, None, False, "output path (default stdout)"),
           ("--meta", "meta", None, False, None, False, "append run metadata comments"))
_COMMANDS = {
    "spectrum": ("real eigenvalues at a coupling", _cmd_spectrum, (
        ("--Z", "Z", float, None, None, True, None),
        ("--smax", "smax", float, None, None, True, None), *_COMMON)),
    "critical": ("coalescence couplings", _cmd_critical, (
        ("--count", "count", int, None, None, True, None), *_COMMON)),
    "broken": ("complex branch above a coalescence", _cmd_broken, (
        ("--Z", "Z", float, None, None, True, None),
        ("--pair", "pair", int, None, None, True, None), *_COMMON)),
    "table1": ("recompute the reference coupling table", _cmd_table1, _COMMON),
    "fig": ("figure data: determinant curve or sign map", _cmd_fig, (
        ("--which", "which", int, None, (1, 2), True, None),
        ("--Z", "Z", float, 5.0, None, False, "coupling for the curve (fig 1)"),
        ("--t-min", "t_min", float, 0.05, None, False, None),
        ("--t-max", "t_max", float, 3.0, None, False, None),
        ("--points", "points", int, 1000, None, False, "samples for fig 1"),
        ("--z-min", "z_min", float, 0.0, None, False, None),
        ("--z-max", "z_max", float, 20.0, None, False, None),
        ("--nt", "nt", int, 256, None, False, None),
        ("--nz", "nz", int, 200, None, False, None), *_COMMON)),
    "verify": ("run the self-check suite", _cmd_verify, (
        ("--level", "level", str, verify_mod.QUICK, (verify_mod.QUICK, verify_mod.FULL), False,
         None),
        ("--out", "out", str, None, None, False, None))),
}


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The argument parser, built once per process, and its subcommand
    parsers still without their arguments.

    Building every command's arguments costs more than a small command, so
    the six subparsers are created empty, which is all the top-level help
    and the command choices read, and ``_parser_for`` adds a command's
    arguments the first time its name occurs in an argv.  ``parse_args``
    keeps no state between calls (it returns a fresh namespace each time),
    so in-process callers of ``main`` share the parser.
    """
    parser = _Parser(prog="ptcircle", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ptcircle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    empty = {name: sub.add_parser(name, help=help) for name, (help, *_) in _COMMANDS.items()}
    return parser, empty


_FILL_LOCK = threading.Lock()


def _parser_for(argv: list[str]) -> _Parser:
    """The parser with the arguments of every command named in argv: argparse
    hands the words after a command to that command's parser only when the
    word is the command's name, so no other subparser is read."""
    parser, empty = _build_parser()
    if empty.keys() & argv:
        with _FILL_LOCK:  # each command's arguments are added once
            for name in empty.keys() & argv:
                _, func, options = _COMMANDS[name]
                for flag, dest, type_, default, choices, required, help in options:
                    kind = ({"action": "store_true"} if type_ is None else
                            {"type": type_, "default": default, "choices": choices,
                             "required": required})
                    empty[name].add_argument(flag, dest=dest, help=help, **kind)
                empty[name].set_defaults(func=func)
                del empty[name]  # only now, so no caller parses a half-filled parser
    return parser


def _plain_parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives argv when argv is a command name followed
    by exact flags of that command, each once, every flag but ``--meta`` with
    one value that does not start with '-', converts by its type and lies in
    its choices, and every required flag present.  None for any other argv,
    which argparse parses instead: building its parser costs more than a
    small command."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    table = {option[0]: option for option in options}
    args = argparse.Namespace(command=argv[0], func=func,
                              **{dest: default for _, dest, _, default, *_ in options})
    words = iter(argv[1:])
    for flag in words:
        if flag not in table:
            return None
        _, dest, type_, _, choices, _, _ = table.pop(flag)  # a repeated flag is not found
        if type_ is None:
            setattr(args, dest, True)
            continue
        text = next(words, "-")  # a missing value is handed over as one starting with '-'
        if text.startswith("-"):
            return None
        try:
            value = type_(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        setattr(args, dest, value)
    if any(required for *_, required, _ in table.values()):  # a required flag not given
        return None
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _plain_parse(argv) or _parser_for(argv).parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:  # --help and --version print their text, then argparse exits 0
        return EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # the interpreter flushes stdout again at exit; let that flush go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # input errors are _UsageError; this is an internal check
        print(f"solver error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
