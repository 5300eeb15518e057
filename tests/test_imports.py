"""The import graph of the package and of its commands.

scipy is a test dependency only: ``import ptcircle, ptcircle.cli`` must not
load it, and every README command must run with it unavailable.  A command
must also load no module of its own after the import, so that a command
timed after the import is charged only for its own work.
"""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptcircle
from ptcircle.cli import main

SRC = str(Path(ptcircle.__file__).resolve().parents[1])

README_COMMANDS = (
    ["spectrum", "--Z", "0.5", "--smax", "10"],
    ["critical", "--count", "5"],
    ["broken", "--Z", "6", "--pair", "0"],
    ["table1"],
    ["fig", "--which", "1"],
    ["fig", "--which", "2"],
    ["verify", "--level", "quick"],
    ["verify", "--level", "full"],
)

# In a new interpreter, with scipy made unimportable: import the package, then
# run the command given as arguments; print the exit code, the stdout and the
# modules the command added.
PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import ptcircle, ptcircle.cli
loaded = set(sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = ptcircle.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "added": sorted(set(sys.modules) - loaded)}))
"""


@functools.cache
def probe(argv: tuple[str, ...]) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import sys, ptcircle, ptcircle.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs_without_scipy(argv):
    result = probe(tuple(argv))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert result["code"] == code == 0
    assert result["stdout"] == out.getvalue()


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_loads_no_module(argv):
    # a module loaded on first use inside a command (numpy.random, numpy.ma,
    # locale) would be charged to the command, not to the import
    assert probe(tuple(argv))["added"] == []
