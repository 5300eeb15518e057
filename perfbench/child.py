"""One fresh interpreter: import the program, then optionally run one command.

    python3 perfbench/child.py [--trace] [LABEL ARG...]

Prints one JSON object: ``import_s`` (time to import ptcircle and
ptcircle.cli) and ``import_loop_s`` (the calibration loop around it, see
clock.py); with a command also ``code`` (the exit code cli.main returned),
``command_s`` and ``command_loop_s`` (cli.main alone, after import),
``stdout`` and the tail of ``stderr``; with --trace also ``spans`` and
``counts``.  An exception other than the documented exit codes propagates,
so the parent sees a crash, not a failed operation.

``import_program`` is also how the in-process workloads import the program.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from clock import Timed

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    """Import ptcircle and ptcircle.cli from ./src and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ptcircle
    import ptcircle.cli

    if Path(ptcircle.__file__).resolve().parent != SRC / "ptcircle":
        raise ImportError(f"ptcircle imported from {ptcircle.__file__}, not from {SRC}")
    return ptcircle


def main(args: list[str]) -> int:
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    with Timed() as timed:
        ptcircle = import_program()

    result = {"import_s": timed.seconds, "import_loop_s": timed.loop}
    if args:
        label, argv = args[0], args[1:]
        out, err = io.StringIO(), io.StringIO()
        if trace:
            import spans

            tracer = spans.Tracer()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    tracer.installed(), Timed() as timed:
                code = tracer.call("cli." + label, ptcircle.cli.main, argv)
            result.update(tracer.dump())
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), Timed() as timed:
                code = ptcircle.cli.main(argv)
        result.update(code=code, command_s=timed.seconds, command_loop_s=timed.loop,
                      stdout=out.getvalue(), stderr=err.getvalue()[-2000:])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
