"""Command-line front end.

Commands
    spectrum   real eigenvalues at a coupling
    critical   the sequence of coalescence couplings
    broken     one complex-branch solution above a coalescence
    table1     recompute the bundled reference coupling table, with deviations
    fig        data behind the determinant figures (curve and sign map)
    verify     run the self-check suite

Exit codes: 0 success, 1 verification failure, 2 numeric non-convergence or
a failed internal check, 64 usage error, 74 output that cannot be written (as
on a full disk), 141 stdout closed by its reader (as by ``| head``; the rest
of the output is dropped, with no traceback).
Output is CSV by default (JSON with --format json) and is byte-identical for identical flags; schema version and
an echo of the parsed inputs ride along as '#' comment lines (CSV) or
top-level fields (JSON).  JSON output is the bytes ``json.dumps(payload,
indent=2)`` writes, and a line break, except that a non-finite float, which
JSON lacks, is written as the string of its CSV text ("inf", "-inf", "nan").
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import types
from json.encoder import encode_basestring_ascii as _json_string

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
EXIT_IO = 74  # EX_IOERR of sysexits.h
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell shows for a process a closed pipe ended

# fig 2 evaluates and writes its grid in blocks of whole Z rows of about this
# many cells: each float temporary of a block is then at most 64 KiB, under
# glibc's 128 KiB threshold for mapping a fresh allocation from the kernel,
# so they reuse the heap (the default 200 x 256 grid is 7 blocks of 32 rows)
_FIG2_BLOCK_CELLS = 1 << 13


class _UsageError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _json_scalar(value) -> str:
    """value as ``json.dumps`` writes a scalar, except that a non-finite
    float, which JSON lacks, is the string of its CSV text.  The commands
    write floats, ints and strs; TypeError for any other type, a bool, None
    or a float subclass such as numpy.float64 among them."""
    kind = type(value)
    if kind is float:  # the commonest scalar, first
        # x - x is 0.0 for a finite x and NaN for an infinite or NaN one
        return float.__repr__(value) if value - value == 0.0 else _json_string(_fmt(value))
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _json_string(value)
    raise TypeError(f"{kind.__name__} is not JSON serializable")


def _json_nested(texts, brackets: str) -> str:
    """Scalar texts, list items or '"key": value' members, as a list or an
    object in the top-level object; ``brackets`` is "[]" or "{}"."""
    body = ",\n    ".join(texts)
    return f"{brackets[0]}\n    {body}\n  {brackets[1]}" if body else brackets


def _json_members(mapping: dict) -> list[str]:
    return [_json_string(key) + ": " + _json_scalar(value) for key, value in mapping.items()]


# Each format's rows: the text of a value, and the text before a row's first
# value, between two values, after its last value and between two rows
_LAYOUT = {"csv": (_fmt, "", ",", "\n", ""),
           "json": (_json_scalar, "[\n      ", ",\n      ", "\n    ]", ",\n    ")}


def _rows_text(rows: list[list], fmt: str) -> str:
    """Rows of values, all of one length of at least one, as one text of
    whole rows (see ``_emit_blocks``): each row is one join of its values'
    texts."""
    text, row_open, value_sep, row_close, row_sep = _LAYOUT[fmt]
    return row_sep.join([row_open + value_sep.join(map(text, row)) + row_close for row in rows])


def _emit(stream, command: str, inputs: dict, header: list[str], rows: list[list],
          fmt: str, meta: bool, preamble: list[str] | None = None) -> None:
    """Write one command's output with its rows of values."""
    _emit_blocks(stream, command, inputs, header, [_rows_text(rows, fmt)] if rows else [],
                 fmt, meta, preamble)


def _emit_blocks(stream, command: str, inputs: dict, header: list[str], blocks,
                 fmt: str, meta: bool, preamble: list[str] | None = None) -> None:
    """Write one command's output, its rows given as ``blocks``: texts of one
    or more whole rows each, none empty, as ``_rows_text`` writes them.  JSON
    is what ``json.dumps(payload, indent=2)`` writes, plus a line break; CSV
    is the header row, the '#' comment lines and the rows.  The text around
    the input values and the rows is the ``_envelope`` of the output's shape,
    so a call formats only its input values and its rows."""
    head, separators, tails = _envelope(fmt, command, tuple(inputs), tuple(header),
                                        tuple(preamble or ()), meta)
    stream.write(head % tuple(map(_LAYOUT[fmt][0], inputs.values())))
    rows = False
    for block in blocks:
        stream.write(separators[rows])
        stream.write(block)
        rows = True
    stream.write(tails[rows])


@functools.cache
def _envelope(fmt: str, command: str, names: tuple, header: tuple, notes: tuple,
              meta: bool) -> tuple[str, tuple[str, str], tuple[str, str]]:
    """The constant text of one output shape, built once per process: the
    text before the rows, with a ``%s`` for the text of each input value in
    the order of ``names`` (every other '%' doubled); the text before the
    first block of rows and before each later one; and the text after the
    rows, without and with rows."""
    def constant(text: str) -> str:
        return text.replace("%", "%%")

    if fmt == "json":
        head = ('{\n  "schema_version": %s,\n  "command": %s,\n  "inputs": %s,\n'
                '  "columns": %s,\n  "rows": [' % (
                    constant(_json_string(SCHEMA_VERSION)), constant(_json_string(command)),
                    _json_nested([constant(_json_string(name)) + ": %s" for name in names], "{}"),
                    constant(_json_nested(map(_json_string, header), "[]"))))
        tail = ""
        if notes:
            tail += ',\n  "notes": ' + _json_nested(map(_json_string, notes), "[]")
        if meta:
            tail += ',\n  "meta": ' + _json_nested(_json_members(_meta_fields()), "{}")
        return head, ("\n    ", ",\n    "), ("]" + tail + "\n}\n", "\n  ]" + tail + "\n}\n")
    lines = [constant(line) for line in
             (",".join(header), f"# schema_version={SCHEMA_VERSION}", f"# command={command}")]
    lines += [constant(f"# input.{name}=") + "%s" for name in names]
    lines += [constant(f"# {line}") for line in notes]
    lines += [constant(f"# meta.{key}={value}")
              for key, value in (_meta_fields() if meta else {}).items()]
    return "\n".join(lines) + "\n", ("", ""), ("", "")


def _meta_fields() -> dict:
    return {
        "package": "ptcircle",
        "version": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


def _output(path):
    """Context manager of the stream for command output: stdout, or the --out
    file, closed on exit.  A path that cannot be opened for writing is a
    usage error."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _UsageError(f"cannot write --out {path}: {exc.strerror}") from exc


def _cmd_spectrum(args) -> int:
    if args.Z < 0 or not math.isfinite(args.Z):
        raise _UsageError(f"--Z must be finite and non-negative, got {args.Z}")
    if not math.pi <= args.smax <= 10_000.0:
        raise _UsageError(f"--smax must be in [pi, 10000], got {args.smax}")
    pts = scan_roots(SpectrumRequest(Z=args.Z, s_max=args.smax))
    rows = [[p.n, p.branch.value, p.s, p.t, p.E, p.residual] for p in pts]
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
        if not math.isfinite(args.t_min + (args.points - 1) * step):  # the samples rise
            raise _UsageError(f"--t-max {args.t_max} is too large: the last sample overflows")
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
        # a cell fails by t*t == 0, or by Z/t overflowing at t <= 350, only if
        # the cell of the smallest t and the largest Z does (the centres rise
        # along both axes, Z >= 0), and that cell's scalar error is the grid's
        secular_t(ts[0], zs[-1])
        for rows in blocks:  # one pass per block, a Z column against a t row
            v = secular_t(t_row, z_column[rows])
            signs[rows] = np.where(v == 0.0, 0.0, np.copysign(1.0, v))  # a NaN keeps its sign bit
    except ValueError as exc:  # t*t underflows or Z/t overflows
        raise _UsageError(str(exc)) from exc
    # a Z row's text, in either format, is the join by the value separator,
    # the Z text and the separator again, of the row opening and t_0, then of
    # "sign, row end, row separator, row opening, t" for each next t, looked
    # up by the sign before it, then of the last "sign, row end"
    text, row_open, value_sep, row_close, row_sep = _LAYOUT[args.format]
    t_text = [text(t) for t in ts]
    sign_text = [text(sign) for sign in (-1, 0, 1)]
    inner = np.empty((3, args.nt - 1), dtype=object)
    inner[:] = [[sign + row_close + row_sep + row_open + t for t in t_text[1:]] for sign in sign_text]
    columns = np.arange(args.nt - 1)
    last = [sign + row_close for sign in sign_text]

    def z_rows():
        for b in blocks:
            index = signs[b] + 1
            middles = inner[index[:, :-1], columns].tolist()
            for z, middle, k in zip(map(text, zs[b]), middles, index[:, -1].tolist()):
                yield (value_sep + z + value_sep).join([row_open + t_text[0], *middle, last[k]])

    with _output(args.out) as stream:
        _emit_blocks(stream, "fig2",
                     {"t_min": args.t_min, "t_max": args.t_max, "z_min": args.z_min,
                      "z_max": args.z_max, "nt": args.nt, "nz": args.nz},
                     ["t", "Z", "sign"], z_rows(), args.format, args.meta,
                     preamble=[
                         "sign map of the determinant in the t form; cell-centered sampling",
                         "axes: t horizontal (wavenumber real part), Z vertical (coupling);",
                         "the sign-change contour is the eigenvalue locus",
                     ])
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
def _build_parser():
    """The argument parser with every command's arguments, built from
    ``_COMMANDS`` once per process.  ``parse_args`` keeps no state between
    calls (it returns a fresh namespace each time), so in-process callers of
    ``main`` share the parser.  argparse is imported here: only help,
    ``--version``, usage errors and argv that the plain parse hands over
    build the parser, and the import costs a new interpreter about 2 ms."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse would exit(2); the contract is 64
            raise _UsageError(message)

        def _print_message(self, message, file=None):
            # argparse drops a failed write of help or version text; main exits 74
            if message:
                file = file or sys.stderr
                file.write(message)
                file.flush()

    parser = _Parser(prog="ptcircle", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ptcircle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (summary, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, dest, type_, default, choices, required, help in options:
            kind = ({"action": "store_true"} if type_ is None else
                    {"type": type_, "default": default, "choices": choices, "required": required})
            command.add_argument(flag, dest=dest, help=help, **kind)
        command.set_defaults(func=func)
    return parser


# The plain parse's view of ``_COMMANDS``, built once: for each command its
# flags, each mapped to (dest, type, choices), the fields of its namespace
# with their defaults, and the dests of its required flags.  A parse only
# reads these.
_PLAIN = {
    name: ({flag: (dest, type_, choices) for flag, dest, type_, _, choices, _, _ in options},
           {"command": name, "func": func, **{dest: default for _, dest, _, default, *_ in options}},
           frozenset(dest for _, dest, _, _, _, required, _ in options if required))
    for name, (_, func, options) in _COMMANDS.items()
}


def _plain_parse(argv: list[str]) -> types.SimpleNamespace | None:
    """The fields argparse gives argv, in a namespace that needs no argparse,
    when argv is a command name followed by exact flags of that command, each
    once, every flag but ``--meta`` with one value that does not start with
    '-', converts by its type and lies in its choices, and every required
    flag present.  None for any other argv, which argparse parses instead:
    building its parser costs more than a small command."""
    plan = _PLAIN.get(argv[0]) if argv else None
    if plan is None:
        return None
    flags, defaults, required = plan
    given = {}
    words = iter(argv[1:])
    for flag in words:
        option = flags.get(flag)
        if option is None or option[0] in given:  # not a flag of the command, or repeated
            return None
        dest, type_, choices = option
        if type_ is None:
            given[dest] = True
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
        given[dest] = value
    if not required.issubset(given):  # a required flag not given
        return None
    return types.SimpleNamespace(**{**defaults, **given})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = None  # help and --version write before there are any
    try:
        args = _plain_parse(argv) or _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe or a full disk raises here, not at interpreter exit
        return code
    except SystemExit:  # --help and --version print their text, then argparse exits 0
        return EXIT_OK
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # a write failed, as on a full disk; opening --out is _output's
        out = getattr(args, "out", None)
        if out is None:
            _discard_stdout()
        target = "stdout" if out is None else f"--out {out}"
        print(f"output error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return EXIT_IO
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # input errors are _UsageError; this is an internal check
        print(f"solver error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device: the interpreter
    flushes stdout again at exit, and that flush must go nowhere."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
