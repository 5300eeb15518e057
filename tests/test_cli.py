import contextlib
import errno
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import ptcircle
import ptcircle.cli
import ptcircle.secular
from ptcircle.cli import main
from ptcircle.oracle import nullspace_solution
from ptcircle.spectrum import SpectrumRequest, scan_roots


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_cli(*argv):
    """Exit code, stdout and stderr of one command in a new interpreter."""
    src = str(Path(ptcircle.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "ptcircle", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def csv_rows(out: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestSpectrumCommand:
    def test_hermitian_energies(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--Z", "0", "--smax", "10")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["n", "branch", "s", "t", "E", "residual"]
        energies = sorted({round(float(r[4]), 6) for r in rows})
        assert energies == pytest.approx([math.pi**2, 4 * math.pi**2, 9 * math.pi**2], abs=1e-5)

    def test_doublet_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--Z", "0.1", "--smax", "7")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 5

    def test_ceiling_past_s128(self, capsys):
        # rounding s alone leaves |F| above 1e-12 from s = 128.8 on
        code, out, err = run_cli(capsys, "spectrum", "--Z", "2", "--smax", "200")
        assert code == 0, err
        _, rows = csv_rows(out)
        assert len(rows) == 127

    def test_large_coupling_passes_the_constraint_check(self, capsys):
        # rounding t = Z/(2s) leaves |2st - Z| above 1e-12 at this coupling
        code, out, err = run_cli(capsys, "spectrum", "--Z", "10000", "--smax", "2000")
        assert code == 0, err
        _, rows = csv_rows(out)
        assert len(rows) > 0

    @pytest.mark.parametrize("Z", ["1.8e307", "1e308", "1.7976931348623157e308"])
    @pytest.mark.parametrize("smax", ["4", "10000"])
    def test_huge_coupling_has_no_rows_and_no_warning(self, capsys, Z, smax):
        # t = Z/(2s) overflows at the first nodes, which t*sinh t clamps anyway
        code, out, err = run_cli(capsys, "spectrum", "--Z", Z, "--smax", smax)
        assert (code, err) == (0, "")
        assert out == ("n,branch,s,t,E,residual\n# schema_version=1\n# command=spectrum\n"
                       f"# input.Z={float(Z):.12g}\n# input.smax={float(smax):.12g}\n")

    def test_negative_coupling_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--Z", "-1", "--smax", "10")
        assert code == 64
        assert "usage error" in err
        assert out == ""

    def test_schema_comments(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--Z", "0.5", "--smax", "4")
        lines = out.splitlines()
        assert lines[0] == "n,branch,s,t,E,residual"
        assert "# schema_version=1" in lines
        assert "# input.Z=0.5" in lines

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--Z", "0.5", "--smax", "4",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["command"] == "spectrum"
        assert payload["inputs"] == {"Z": 0.5, "smax": 4.0}
        assert payload["columns"][0] == "n"
        assert len(payload["rows"]) == 3

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "spectrum", "--Z", "2", "--smax", "9")
        _, out2, _ = run_cli(capsys, "spectrum", "--Z", "2", "--smax", "9")
        assert out1 == out2

    def test_meta_opt_in(self, capsys):
        _, plain, _ = run_cli(capsys, "spectrum", "--Z", "1", "--smax", "4")
        _, with_meta, _ = run_cli(capsys, "spectrum", "--Z", "1", "--smax", "4", "--meta")
        assert "# meta.package=ptcircle" not in plain
        assert "# meta.package=ptcircle" in with_meta

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, _ = run_cli(capsys, "spectrum", "--Z", "1", "--smax", "4",
                               "--out", str(path))
        assert code == 0
        assert out == ""
        content = path.read_text()
        assert content.startswith("n,branch,")
        assert content.endswith("\n")


class TestCriticalCommand:
    def test_count_one(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--count", "1")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(5.5423095, abs=1e-6)

    def test_count_five_pinned_intervals(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--count", "5")
        assert code == 0
        _, rows = csv_rows(out)
        zs = [float(r[1]) for r in rows]
        assert 5.542309 < zs[0] < 5.542310
        assert 17.90123 < zs[1] < 17.90124
        assert abs(zs[2] - 33.54495) < 1e-3
        assert 51.20617 - 1e-4 < zs[3] < 51.20618 + 1e-4
        assert 70.3093 < zs[4] < 70.3095

    def test_invalid_count(self, capsys):
        code, _, err = run_cli(capsys, "critical", "--count", "0")
        assert code == 64
        assert "usage error" in err


class TestBrokenCommand:
    def test_pair_zero_golden(self, capsys):
        code, out, _ = run_cli(capsys, "broken", "--Z", "6", "--pair", "0")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["Z", "alpha", "beta", "K", "ReE", "eps"]
        row = rows[0]
        assert float(row[1]) == pytest.approx(0.358129, abs=1e-5)
        assert float(row[2]) == pytest.approx(0.622216, abs=1e-5)
        assert float(row[4]) == pytest.approx(5.062183, rel=1e-4)

    def test_pair_one_golden(self, capsys):
        code, out, _ = run_cli(capsys, "broken", "--Z", "17.95", "--pair", "1")
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][1]) == pytest.approx(0.308679, abs=1e-5)
        assert float(rows[0][2]) == pytest.approx(0.344308, abs=1e-5)
        assert float(rows[0][4]) == pytest.approx(25.61228, rel=1e-4)

    def test_pair_zero_stays_on_its_branch_at_z20(self, capsys):
        # the 16-step continuation used to land on pair 1 here (ReE 25.8155,
        # eps 7.5477); 200- and 2000-step continuations give pair 0's values
        code, out, _ = run_cli(capsys, "broken", "--Z", "20", "--pair", "0")
        assert code == 0
        _, rows = csv_rows(out)
        re_E, eps = float(rows[0][4]), float(rows[0][5])
        assert re_E == pytest.approx(5.94713, rel=1e-5)
        assert eps == pytest.approx(17.7686, rel=1e-5)
        nullspace_solution(complex(re_E, -eps), 20.0)  # raises unless singular

    def test_below_fold_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "broken", "--Z", "5", "--pair", "0")
        assert code == 2
        assert "spectrum" in err  # directs the user to the real-spectrum command

    def test_overflow_far_above_fold_exits_2(self, capsys):
        # from about Z = 1.96e6 on, Re t of pair 0 passes the complex clamp at
        # 700 and the continuation's hyperbolic terms overflow; that is
        # non-convergence
        code, out, err = run_cli(capsys, "broken", "--Z", "1e8", "--pair", "0")
        assert code == 2
        assert out == ""
        assert "solver error" in err
        assert "Traceback" not in err


class TestTable1Command:
    def test_full_table_reproduces(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        header, rows = csv_rows(out)
        assert len(rows) == 13
        flag_col = header.index("flag")
        role_col = header.index("role")
        for row in rows:
            if row[role_col] == "pinned":
                assert row[flag_col] == "ok"

    def test_fold_row_alpha_beta_equal(self, capsys):
        _, out, _ = run_cli(capsys, "table1")
        header, rows = csv_rows(out)
        first = rows[0]
        assert float(first[0]) == 5.542309
        assert float(first[header.index("alpha")]) == float(first[header.index("beta")])
        assert float(first[header.index("d_alpha")]) == pytest.approx(0.0, abs=1e-5)


class TestFigCommand:
    def test_fig1_positive_tail(self, capsys):
        code, out, _ = run_cli(capsys, "fig", "--which", "1")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["t", "value"]
        assert len(rows) == 1000
        for r in rows:
            if float(r[0]) >= 2.0:
                assert float(r[1]) > 0.0

    def test_fig1_oscillates_near_origin(self, capsys):
        _, out, _ = run_cli(capsys, "fig", "--which", "1")
        _, rows = csv_rows(out)
        small_t_vals = [float(r[1]) for r in rows if float(r[0]) < 1.5]
        assert min(small_t_vals) < 0.0 < max(small_t_vals)

    def test_fig2_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "fig", "--which", "2", "--nt", "1", "--nz", "1",
                               "--t-min", "1", "--t-max", "2", "--z-min", "4", "--z-max", "6")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1
        t, Z, sign = float(rows[0][0]), float(rows[0][1]), int(rows[0][2])
        assert (t, Z) == (1.5, 5.0)
        assert sign in (-1, 0, 1)

    def test_fig2_sign_changes_match_spectrum(self, capsys):
        # single row at Z = 5; window t in (0.5, 3) maps to s in (5/6, 5)
        code, out, _ = run_cli(capsys, "fig", "--which", "2", "--nt", "2000", "--nz", "1",
                               "--t-min", "0.5", "--t-max", "3",
                               "--z-min", "4.95", "--z-max", "5.05")
        assert code == 0
        _, rows = csv_rows(out)
        signs = [int(r[2]) for r in rows]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        pts = scan_roots(SpectrumRequest(Z=5.0, s_max=5.0))
        in_window = [p for p in pts if 0.5 <= p.t <= 3.0]
        assert flips == len(in_window)

    @pytest.mark.parametrize("which", ["1", "2"])
    def test_infinite_bound_is_usage_error(self, capsys, which):
        code, out, err = run_cli(capsys, "fig", "--which", which, "--t-max", "inf",
                                 "--points", "3", "--nt", "2", "--nz", "2")
        assert code == 64
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize("which", ["1", "2"])
    def test_underflowing_t_squared_is_usage_error(self, capsys, which):
        # t*t underflows to 0 below t of about 1.5e-162
        code, out, err = run_cli(capsys, "fig", "--which", which, "--t-min", "1e-200",
                                 "--t-max", "1e-199", "--points", "3", "--nt", "2", "--nz", "2")
        assert code == 64
        assert out == ""
        assert "usage error" in err

    def test_fig1_overflowing_last_sample_is_usage_error(self, capsys):
        # t_min + 9*step rounds past the float maximum: the last row was
        # inf, a t outside the window, with numpy's overflow warning
        code, out, err = run_cli(capsys, "fig", "--which", "1", "--t-min", "1",
                                 "--t-max", "1.7976931348623157e308", "--points", "10")
        assert (code, out) == (64, "")
        assert err == ("usage error: --t-max 1.7976931348623157e+308 is too large: "
                       "the last sample overflows\n")

    def test_fig1_largest_samples_stay_in_the_window(self, capsys):
        code, out, err = run_cli(capsys, "fig", "--which", "1", "--t-min", "1",
                                 "--t-max", "1e308", "--points", "10")
        assert (code, err) == (0, "")
        _, rows = csv_rows(out)
        ts = [float(r[0]) for r in rows]
        assert len(ts) == 10 and all(map(math.isfinite, ts))
        assert ts == sorted(ts) and ts[0] == 1.0 and ts[-1] <= 1e308

    def test_fig2_grid_guard(self, capsys):
        code, _, err = run_cli(capsys, "fig", "--which", "2", "--nt", "5000", "--nz", "10")
        assert code == 64
        assert "usage error" in err

    @pytest.mark.parametrize("argv", [
        # Z/t overflows to inf in the cell at t = 0.0125, Z = 7.5e307
        ("--which", "2", "--t-min", "0.01", "--t-max", "0.02", "--z-max", "1e308",
         "--nt", "2", "--nz", "2"),
        ("--which", "1", "--Z", "-1", "--points", "3"),
    ])
    def test_secular_t_domain_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "fig", *argv)
        assert code == 64
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize("block_cells", [None, 1, 7])
    @pytest.mark.parametrize("nt, nz, t_min, t_max, z_max", [
        (2, 2, 0.01, 0.02, 1e308),    # Z/t overflows in both columns, at both Z
        (4, 3, 1e-170, 1e-161, 1.0),  # t*t underflows in the first column only
        (2, 4, 0.1, 0.2, 1e308),      # Z/t overflows in the rows below the first
    ])
    def test_fig2_error_is_the_first_failing_column(self, capsys, monkeypatch, block_cells,
                                                    nt, nz, t_min, t_max, z_max):
        # the error of the column-by-column loop: the scalar call's error at
        # the first column that fails, at the column's largest Z, also when
        # the grid is evaluated in blocks of Z rows
        if block_cells is not None:
            monkeypatch.setattr(ptcircle.cli, "_FIG2_BLOCK_CELLS", block_cells)
        dt, dz = (t_max - t_min) / nt, z_max / nz
        zs = [(j + 0.5) * dz for j in range(nz)]
        expected = None
        for t in (t_min + (i + 0.5) * dt for i in range(nt)):
            try:
                for Z in zs:
                    ptcircle.secular.secular_t(t, Z)
            except ValueError:
                with pytest.raises(ValueError) as info:
                    ptcircle.secular.secular_t(t, max(zs))
                expected = f"usage error: {info.value}\n"
                break
        code, out, err = run_cli(capsys, "fig", "--which", "2", "--nt", str(nt), "--nz", str(nz),
                                 "--t-min", repr(t_min), "--t-max", repr(t_max),
                                 "--z-max", repr(z_max))
        assert (code, out, err) == (64, "", expected)

    @staticmethod
    def reference_fig2(fmt, meta, nt, nz, t_min, t_max, z_min, z_max):
        """The sign map as one scalar ``secular_t`` call per cell, formatted
        row by row through ``_emit``."""
        rows = []
        dt = (t_max - t_min) / nt
        dz = (z_max - z_min) / nz
        for j in range(nz):
            Z = z_min + (j + 0.5) * dz
            for i in range(nt):
                t = t_min + (i + 0.5) * dt
                v = ptcircle.secular.secular_t(t, Z)
                rows.append([t, Z, 0 if v == 0.0 else int(math.copysign(1.0, v))])
        return emitted(
            fmt, meta, "fig2",
            {"t_min": t_min, "t_max": t_max, "z_min": z_min, "z_max": z_max, "nt": nt, "nz": nz},
            ["t", "Z", "sign"], rows,
            preamble=[
                "sign map of the determinant in the t form; cell-centered sampling",
                "axes: t horizontal (wavenumber real part), Z vertical (coupling);",
                "the sign-change contour is the eigenvalue locus",
            ])

    @pytest.mark.parametrize("block_cells", [None, 7, 600])
    @pytest.mark.parametrize("fmt, meta", [("csv", False), ("json", False), ("csv", True)])
    @pytest.mark.parametrize("window", [
        (300, 300, 0.01, 7.0, 0.0, 200.0),
        (256, 200, 0.05, 3.0, 0.0, 20.0),      # the defaults
        (5, 4, 340.0, 360.0, 0.0, 1e200),       # columns above t = 350, and NaN cells
        (3, 4, 1e-160, 1e-150, 0.0, 1.0),       # tiny t, huge Z/t
        (7, 1, 0.5, 3.0, 4.95, 5.05),
    ])
    def test_fig2_matches_per_cell_loop(self, capsys, monkeypatch, fmt, meta, window, block_cells):
        # block_cells None is one block for every window; 7 and 600 cells
        # split it into blocks of one or a few Z rows, the last one shorter
        if block_cells is not None:
            monkeypatch.setattr(ptcircle.cli, "_FIG2_BLOCK_CELLS", block_cells)
        nt, nz, t_min, t_max, z_min, z_max = window
        code, out, err = run_cli(capsys, "fig", "--which", "2", "--format", fmt,
                                 *(["--meta"] if meta else []),
                                 "--nt", str(nt), "--nz", str(nz), "--t-min", repr(t_min),
                                 "--t-max", repr(t_max), "--z-min", repr(z_min),
                                 "--z-max", repr(z_max))
        assert (code, err) == (0, "")
        assert out == self.reference_fig2(fmt, meta, nt, nz, t_min, t_max, z_min, z_max)

    @pytest.mark.parametrize("block_cells, nt, nz", [
        (None, 256, 200),  # the default map, 7 blocks
        (None, 4096, 300),  # one row a block
        (7, 3, 5),
        (600, 300, 3),
        (1, 4, 2),  # two one-row blocks
        (None, 256, 33),  # the last block holds the last row alone
    ])
    def test_fig2_evaluates_each_cell_once(self, capsys, monkeypatch, block_cells, nt, nz):
        # each Z row in one array call, and one scalar call, at the cell of
        # the smallest t and the largest Z, first, to raise a failing grid's
        # error
        if block_cells is not None:
            monkeypatch.setattr(ptcircle.cli, "_FIG2_BLOCK_CELLS", block_cells)
        rows, scalars, real = [], [], ptcircle.cli.secular_t

        def counting(t, Z):
            if isinstance(t, float):
                assert not rows
                scalars.append((t, Z))
                return real(t, Z)
            assert Z.size > 0
            rows.extend(Z[:, 0].tolist())
            value = real(t, Z)
            assert value.nbytes <= 64 * 1024
            return value

        monkeypatch.setattr(ptcircle.cli, "secular_t", counting)
        code, _, err = run_cli(capsys, "fig", "--which", "2", "--nt", str(nt), "--nz", str(nz))
        assert (code, err) == (0, "")
        dt, dz = (3.0 - 0.05) / nt, 20.0 / nz
        assert scalars == [(0.05 + 0.5 * dt, (nz - 0.5) * dz)]
        assert sorted(rows) == [(j + 0.5) * dz for j in range(nz)]


class TestClosedStdout:
    def test_closed_pipe_exits_141_without_traceback(self):
        # fig 2 writes about 1.2 MB, far more than a pipe buffers
        src = str(Path(ptcircle.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        with subprocess.Popen([sys.executable, "-m", "ptcircle", "fig", "--which", "2"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first == b"t,Z,sign\n"
        assert code == 141
        assert err == b""


class FullStream(io.StringIO):
    """A text stream on a full disk: ``fail`` (write, flush or close) raises
    ENOSPC; ``fileno`` is the descriptor a failed stdout is redirected on."""

    def __init__(self, fail, fd=None):
        super().__init__()
        self.fail, self.fd = fail, fd

    def _check(self, method):
        if self.fail == method:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        self._check("write")
        return super().write(text)

    def flush(self):
        self._check("flush")

    def close(self):
        super().close()  # as a file is, also when its last flush fails
        self._check("close")

    def fileno(self):
        return self.fd


class TestFailedWrite:
    """A write that fails, as on a full disk, exits 74 with one stderr line
    and no traceback; a failed stdout is pointed at the null device, so the
    interpreter's flush at exit prints nothing more."""

    ARGVS = [("spectrum", "--Z", "0.5", "--smax", "10"), ("verify", "--level", "quick")]
    # argparse's own writer drops a failed write; the parser's lets it through
    HELP_ARGVS = [("--help",), ("--version",), ("broken", "--help")]

    @pytest.mark.parametrize("argv", ARGVS + HELP_ARGVS)
    @pytest.mark.parametrize("fail", ["write", "flush"])
    def test_stdout(self, capsys, monkeypatch, tmp_path, argv, fail):
        behind = tmp_path / "behind-stdout"
        fd = os.open(behind, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", FullStream(fail, fd))
            code = main(list(argv))
            os.write(fd, b"at exit")  # lands on the null device, not in the file
        finally:
            os.close(fd)
        err = capsys.readouterr().err
        assert (code, err) == (74, "output error: cannot write stdout: No space left on device\n")
        assert behind.read_bytes() == b""

    @pytest.mark.parametrize("argv", ARGVS)
    @pytest.mark.parametrize("fail", ["write", "close"])
    def test_out_file(self, capsys, monkeypatch, argv, fail):
        # capsys's stdout has no descriptor: redirecting it would raise
        monkeypatch.setattr(ptcircle.cli, "open", lambda *args, **kwargs: FullStream(fail),
                            raising=False)
        expected = (74, "", "output error: cannot write --out x: No space left on device\n")
        assert run_cli(capsys, *argv, "--out", "x") == expected

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, target", [
        (("spectrum", "--Z", "0.5", "--smax", "10"), "stdout"),
        (("fig", "--which", "2"), "stdout"),  # more than stdout buffers: write raises
        (("verify", "--out", "/dev/full"), "--out /dev/full"),
        (("--help",), "stdout"),
        (("--version",), "stdout"),
    ])
    def test_dev_full_in_a_new_interpreter(self, argv, target):
        src = str(Path(ptcircle.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-X", "dev", "-m", "ptcircle", *argv],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                                  check=False)
        expected = f"output error: cannot write {target}: No space left on device\n"
        assert (proc.returncode, proc.stderr) == (74, expected)


def no_constant(name):
    raise AssertionError(f"{name} is not JSON")


class TestStrictJson:
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--Z", "0.5", "--smax", "10"), ("critical", "--count", "2"),
        ("broken", "--Z", "6", "--pair", "0", "--meta"), ("table1",),
        ("fig", "--which", "1", "--points", "50"),
        ("fig", "--which", "2", "--nt", "5", "--nz", "4", "--t-min", "340", "--t-max", "360",
         "--z-max", "1e200"),
    ])
    def test_every_command_writes_strict_json(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        json.loads(out, parse_constant=no_constant)

    def test_non_finite_value_is_its_csv_text(self, capsys):
        # secular_t is +inf above t = 350
        argv = ("fig", "--which", "1", "--t-min", "1", "--t-max", "400", "--points", "3")
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        _, rows = csv_rows(run_cli(capsys, *argv)[1])
        values = [row[1] for row in json.loads(out, parse_constant=no_constant)["rows"]]
        assert values[-1] == rows[-1][1] == "inf"
        assert [f"{value:.12g}" for value in values[:2]] == [row[1] for row in rows[:2]]


def emitted(fmt, meta, *args, **kwargs):
    """What ``_emit`` writes to stdout, in format fmt, with or without meta,
    for the rest of its arguments."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ptcircle.cli._emit(types.SimpleNamespace(format=fmt, meta=meta, out=None), *args,
                           **kwargs)
    return out.getvalue()


def emit_json(command, inputs, header, rows, meta=False, notes=None, split=None):
    """What ``_emit`` writes as JSON, from the rows or, with ``split``, from
    the rows in blocks of ``split`` rows."""
    if split is None:
        return emitted("json", meta, command, inputs, header, rows, preamble=notes or ())
    blocks = [ptcircle.cli._rows_text(rows[i:i + split], "json")
              for i in range(0, len(rows), split)]
    return emitted("json", meta, command, inputs, header, preamble=notes or (), blocks=blocks)


def dumped(command, inputs, header, rows, meta=False, notes=None):
    """The same document through ``json.dumps(indent=2)``."""
    payload = {"schema_version": ptcircle.cli.SCHEMA_VERSION, "command": command,
               "inputs": inputs, "columns": header, "rows": rows}
    if notes:
        payload["notes"] = notes
    if meta:
        payload["meta"] = ptcircle.cli._meta_fields()
    return json.dumps(payload, indent=2) + "\n"


# what the commands write: floats, ints and strs
SCALARS = [0, -17, 2**70, 0.1, -0.0, 5e-324, 1e300, 1e-7, "", "\u00e9",
           "caf\u00e9 \u2603 \U0001f600", "tab\t \"q\" \\ \x00 \x1f"]


class FloatSubclass(float):
    pass


class TestJsonWriter:
    """The JSON writer writes what ``json.dumps(payload, indent=2)`` writes,
    but each non-finite float as the string of its CSV text."""

    @pytest.mark.parametrize("value", SCALARS)
    def test_scalar_equals_json_dumps(self, value):
        assert ptcircle.cli._json_scalar(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("inputs, header, rows, meta, notes", [
        ({}, ["a"], [], False, None),
        ({}, ["a"], [], True, ["n"]),
        ({"Z": 0.5, "pair": 3}, ["x", "y"], [[1, 2.5]], False, None),
        ({"Z": 0.5}, ["a", "b", "c", "d", "e", "f"], [[1, 2.5, -0.0, 0, "", "x"]] * 3,
         True, None),
        ({"\u00e9": "caf\u00e9"}, ["\u2603", "tab\t"], [SCALARS, SCALARS[::-1]], True,
         ["caf\u00e9 \u2603 \U0001f600", "tab\t \"q\" \\ \x00 \x1f"]),
        ({"t": 0.1}, ["v"], [[1e-7], [0]], False, []),
    ])
    @pytest.mark.parametrize("split", [None, 1, 2])
    def test_document_equals_json_dumps(self, inputs, header, rows, meta, notes, split):
        expected = dumped("cmd", inputs, header, rows, meta, notes)
        assert emit_json("cmd", inputs, header, rows, meta, notes, split) == expected

    FLOAT_TEXTS = [
        (-0.0, "-0.0"), (0.0, "0.0"), (5e-324, "5e-324"), (-5e-324, "-5e-324"),
        (1.5e-310, "1.5e-310"), (2.225073858507201e-308, "2.225073858507201e-308"),
        (2.2250738585072014e-308, "2.2250738585072014e-308"), (1e16, "1e+16"),
        (math.inf, '"inf"'), (-math.inf, '"-inf"'), (math.nan, '"nan"'), (-math.nan, '"nan"'),
    ]

    @pytest.mark.parametrize("value, text", FLOAT_TEXTS)
    def test_float_texts_are_pinned(self, value, text):
        # the texts the writer gave when a float took a second frame and
        # math.isfinite, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ptcircle.cli._json_scalar(value) == text

    def test_non_finite_floats(self):
        rows = [[math.inf, -math.inf, math.nan, -math.nan, 1.5, float("inf")]]
        want = [["inf", "-inf", "nan", "nan", 1.5, "inf"]]
        inputs = {"Z": math.inf, "notes": "inf"}
        expected = dumped("cmd", {"Z": "inf", "notes": "inf"}, ["a"], want, notes=["inf"])
        assert emit_json("cmd", inputs, ["a"], rows, notes=["inf"]) == expected
        for value, text in zip(rows[0], want[0]):
            assert ptcircle.cli._json_scalar(value) == json.dumps(text)

    @pytest.mark.parametrize("value", [{1, 2}, b"x", np.int64(3), [1], {"a": 1}])
    def test_rejects_what_json_rejects(self, value):
        # json.dumps rejects the first three; a row or input value is a
        # scalar, so a list or dict there is rejected too
        if not isinstance(value, (list, dict)):
            with pytest.raises(TypeError):
                json.dumps(value)
        with pytest.raises(TypeError):
            ptcircle.cli._json_scalar(value)
        with pytest.raises(TypeError):
            emit_json("cmd", {}, ["a", "b"], [[1.0, value]])
        with pytest.raises(TypeError):
            emit_json("cmd", {"Z": value}, ["a"], [])

    @pytest.mark.parametrize("value", [
        True, False, None, FloatSubclass(0.5), np.float64(0.1), np.float64(1e-7),
        np.float64(-0.0), np.float64(5e-324), np.float64(1.5e-310), np.float64(math.inf),
        np.float64(-math.inf), np.float64(math.nan), np.float64(1e300),
    ])
    def test_rejects_what_no_command_writes(self, value):
        # json.dumps writes these; no command gives the writer one, so they
        # are refused like any other type but float, int and str
        json.dumps(value)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            ptcircle.cli._json_scalar(value)
        with pytest.raises(TypeError):
            emit_json("cmd", {}, ["a", "b"], [[1.0, value]])
        with pytest.raises(TypeError):
            emit_json("cmd", {"Z": value}, ["a"], [])

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--Z", "0.5", "--smax", "10"), ("spectrum", "--Z", "100", "--smax", "3.2"),
        ("critical", "--count", "5"), ("broken", "--Z", "6", "--pair", "0"),
        ("broken", "--Z", "300", "--pair", "7", "--meta"), ("table1",), ("table1", "--meta"),
        ("fig", "--which", "1", "--points", "50", "--meta"),
        ("fig", "--which", "2", "--nt", "7", "--nz", "3"),
    ])
    def test_command_output_is_json_dumps_of_itself(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=no_constant)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert ("meta" in payload) == ("--meta" in argv)
        if argv[:3] == ("spectrum", "--Z", "100"):
            assert payload["rows"] == []


class TestCsvRows:
    """A CSV row is its values' ``_fmt`` texts joined by commas."""

    @pytest.mark.parametrize("row", [
        [0.1], [1, "plus", 0.1, np.float64(1 / 3), True, None, -0.0, 2**70, math.nan],
        [np.float32(0.1), np.int64(3), np.bool_(True), "a%sb", (1, 2), math.inf],
    ])
    def test_row_is_fmt_joined(self, row):
        # reversed, each column but a middle one mixes the types of two
        for rows in ([row], [row, row], [row, row[::-1], row]):
            expected = "".join(",".join(map(ptcircle.cli._fmt, r)) + "\n" for r in rows)
            assert ptcircle.cli._rows_text(rows, "csv") == expected


class TestUnwritableOut:
    """An --out path that cannot be opened is a usage error (64), not a
    verification failure (1) with a traceback."""

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--Z", "1", "--smax", "4"),
        ("critical", "--count", "2"),
        ("broken", "--Z", "6", "--pair", "0"),
        ("table1",),
        ("fig", "--which", "1", "--points", "3"),
        ("fig", "--which", "2", "--nt", "2", "--nz", "2"),
        ("verify", "--level", "quick"),
    ])
    @pytest.mark.parametrize("target", ["missing-dir/x.csv", "."])
    def test_exits_64_with_one_line(self, capsys, tmp_path, argv, target):
        path = str(tmp_path / target)
        reason = "Is a directory" if target == "." else "No such file or directory"
        expected = (64, "", f"usage error: cannot write --out {path}: {reason}\n")
        assert run_cli(capsys, *argv, "--out", path) == expected
        assert fresh_cli(*argv, "--out", path) == expected
        assert not any(tmp_path.iterdir())  # nothing was written

    def test_solve_comes_before_the_out_path(self, capsys, tmp_path):
        # a data command opens --out only to write its answer: a failed solve
        # exits 2 with its own error
        code, out, err = run_cli(capsys, "broken", "--Z", "5", "--pair", "0",
                                 "--out", str(tmp_path / "missing-dir" / "x"))
        assert (code, out) == (2, "") and "is still real there" in err

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_verify_exits_before_running_a_check(self, capsys, tmp_path, monkeypatch, level):
        def no_checks(level):
            raise AssertionError("a check ran before --out was opened")

        monkeypatch.setattr(ptcircle.cli.verify_mod, "run_checks", no_checks)
        path = str(tmp_path / "missing-dir" / "x")
        expected = (64, "", f"usage error: cannot write --out {path}: No such file or directory\n")
        assert run_cli(capsys, "verify", "--level", level, "--out", path) == expected

    def test_verify_check_that_raises_leaves_the_file_empty(self, capsys, tmp_path, monkeypatch):
        def failing_check(level):
            raise ValueError("injected")

        monkeypatch.setattr(ptcircle.cli.verify_mod, "run_checks", failing_check)
        out = tmp_path / "x"
        expected = (2, "", "solver error: internal check failed: injected\n")
        assert run_cli(capsys, "verify", "--out", str(out)) == expected
        assert out.read_bytes() == b""


class TestGoldenBytes:
    """SHA-256 of stdout for fixed commands; any drift in a printed byte fails."""

    @pytest.mark.parametrize("argv, sha256", [
        (("spectrum", "--Z", "0.5", "--smax", "10"),
         "654cb5f008880581afc7bc53b8a08f7f495c5f635e484fde78f535bad146462d"),
        (("broken", "--Z", "6", "--pair", "0"),
         "4dd011df55606abf304ea94b16de113b60e92e8da285e4ac708cf33af77d1b99"),
        (("fig", "--which", "1"),
         "7533095ea8702962883203debd93b4d028198b7e9fbe14ae06a3da8ebec59c0f"),
        (("fig", "--which", "2"),
         "300ed75d4f04c1599978e3e6c91abc3becf9220f39b5c88277cfb630029c9e4c"),
        (("fig", "--which", "2", "--format", "json"),
         "670adaf9c03717e7a8c6388717c3033bcc3104676e37e46dc3f3953aa5b31e44"),
        # the widest documented input: 6367 rows up to s = 10^4
        (("spectrum", "--Z", "2", "--smax", "10000", "--format", "json"),
         "39d09d463087530d04fbbf348de7ea7349bbd9ca77e6d5d5f491118d91a3c7de"),
    ])
    def test_stdout_hash(self, capsys, argv, sha256):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


def reference_parser():
    """The parser as it was written out command by command, before the
    option table (the body kept verbatim, but for the ``cli.`` prefixes)."""
    cli = ptcircle.cli
    parser_class = type(cli._build_parser())
    parser = parser_class(prog="ptcircle", description=cli.__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ptcircle {cli.__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--meta", action="store_true", help="append run metadata comments")

    p = sub.add_parser("spectrum", help="real eigenvalues at a coupling")
    p.add_argument("--Z", type=float, required=True)
    p.add_argument("--smax", type=float, required=True)
    common(p)
    p.set_defaults(func=cli._cmd_spectrum)

    p = sub.add_parser("critical", help="coalescence couplings")
    p.add_argument("--count", type=int, required=True)
    common(p)
    p.set_defaults(func=cli._cmd_critical)

    p = sub.add_parser("broken", help="complex branch above a coalescence")
    p.add_argument("--Z", type=float, required=True)
    p.add_argument("--pair", type=int, required=True)
    common(p)
    p.set_defaults(func=cli._cmd_broken)

    p = sub.add_parser("table1", help="recompute the reference coupling table")
    common(p)
    p.set_defaults(func=cli._cmd_table1)

    p = sub.add_parser("fig", help="figure data: determinant curve or sign map")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--Z", type=float, default=5.0, help="coupling for the curve (fig 1)")
    p.add_argument("--t-min", dest="t_min", type=float, default=0.05)
    p.add_argument("--t-max", dest="t_max", type=float, default=3.0)
    p.add_argument("--points", type=int, default=1000, help="samples for fig 1")
    p.add_argument("--z-min", dest="z_min", type=float, default=0.0)
    p.add_argument("--z-max", dest="z_max", type=float, default=20.0)
    p.add_argument("--nt", type=int, default=256)
    p.add_argument("--nz", type=int, default=200)
    common(p)
    p.set_defaults(func=cli._cmd_fig)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("--level", choices=(cli.verify_mod.QUICK, cli.verify_mod.FULL),
                   default=cli.verify_mod.QUICK)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cli._cmd_verify)

    return parser


def reference_main(argv):
    """Exit code of ``main``'s parsing step on the reference parser (None when
    argv parses), printing what ``main`` prints."""
    try:
        reference_parser().parse_args(argv)
    except ptcircle.cli._UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except SystemExit:
        return 0
    return None


COMMANDS = ("spectrum", "critical", "broken", "table1", "fig", "verify")
PARSE_ONLY = [  # help, version and usage errors: main returns after parsing
    ("--help",), ("-h",), ("--version",), ("verify", "-h"),
    *[(command, "--help") for command in COMMANDS],
    (), ("nonsense",), ("spectrum", "--Z", "1"),
    ("spectrum", "--Z", "1", "--smax", "10", "--format", "xml"),
    ("--format", "json", "spectrum", "--Z", "1", "--smax", "10"),  # a flag before the command
    ("spectrum", "verify"), ("verify", "spectrum", "--level", "full"),  # two command names
    ("fig", "--which", "3"), ("verify", "--level", "bogus"), ("broken", "--Z", "x", "--pair", "0"),
    ("critical", "--count", "1", "--bogus"), ("--version", "spectrum"),
    ("spectrum", "--Z", "1", "--smax", "10", "--help"), ("table1", "extra"),
    ("spectrum", "--Z", "1", "-h", "--smax", "10"), ("critical", "--count", "3", "--"),
    # a value that is a flag or missing, a str value that starts with '-', a
    # number outside the choices
    ("spectrum", "--Z", "--smax", "10"), ("spectrum", "--Z", "1", "--smax"),
    ("spectrum", "--Z", "1", "--smax", "10", "--out", "-x"), ("fig", "--which", "-1"),
]
FALLBACK = [  # argv argparse parses to a namespace, but only after its parser is built
    ("spectrum", "--Z", "1", "--sm", "10"), ("spectrum", "--Z=1", "--smax", "10"),
    ("critical", "--count", "3", "--count", "4"), ("critical", "--count", "3", "--out", "-"),
]
EDGE_VALUES = {float: ("nan", "1e400", " 5", "1_0"), int: (" 5", "1_0", "7"),
               str: ("", "fig", "x.csv")}  # each converts by its type


def well_formed_argvs():
    """Argv of exact distinct flags of their command, from the option table:
    each command with its required flags and with none, one, two or all of
    its other flags, in table order and reversed; the values cycle through
    EDGE_VALUES of their type, or through their choices."""
    argvs = {}
    for command, (_, _, options) in ptcircle.cli._COMMANDS.items():
        values = {flag: itertools.cycle(map(str, choices) if choices else EDGE_VALUES[type_])
                  for flag, _, type_, _, choices, _, _ in options if type_ is not None}
        required = [option for option in options if option[5]]
        optional = [option for option in options if not option[5]]
        subsets = [(), *itertools.combinations(optional, 1), *itertools.combinations(optional, 2),
                   optional]
        for subset in subsets:
            for chosen in (required + list(subset), (required + list(subset))[::-1]):
                words = [[flag, next(values[flag])] if flag in values else [flag]
                         for flag, *_ in chosen]
                argvs[(command, *itertools.chain(*words))] = None
    return list(argvs)


def fields(namespace):
    """A namespace's fields, by repr: a NaN equals itself only so."""
    return {key: repr(value) for key, value in vars(namespace).items()}


def longest_argv_of_each_command():
    argvs = well_formed_argvs()
    return [max((argv for argv in argvs if argv[0] == command), key=len) for command in COMMANDS]


@pytest.fixture(params=["fresh", "used"])
def parser_use(request):
    """The process's parser just built, or the cached one after it printed
    every help, version and usage error and parsed every command with all
    its flags: parsing must leave nothing behind in the parser it reuses."""
    ptcircle.cli._build_parser.cache_clear()
    if request.param == "used":
        parser = ptcircle.cli._build_parser()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in [*PARSE_ONLY, *FALLBACK, *longest_argv_of_each_command()]:
                try:
                    parser.parse_args(list(argv))
                except (SystemExit, ptcircle.cli._UsageError):
                    pass
    yield request.param
    ptcircle.cli._build_parser.cache_clear()


class TestParser:
    """The parser is built from the option table; everything printed must be
    what the parser written out by hand printed, and the plain parse must
    give its namespace or hand the argv over."""

    @pytest.mark.parametrize("argv", PARSE_ONLY)
    def test_help_version_and_usage_errors(self, capsys, monkeypatch, parser_use, argv):
        monkeypatch.setenv("COLUMNS", "80")
        expected_code = reference_main(list(argv))
        expected = capsys.readouterr()
        assert expected_code is not None
        assert ptcircle.cli._plain_parse(list(argv)) is None
        assert run_cli(capsys, *argv) == (expected_code, expected.out, expected.err)

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--Z", "0.5", "--smax", "10"), ("critical", "--count", "3"),
        ("broken", "--Z", "6", "--pair", "0", "--out", "x.csv"), ("table1", "--format", "json", "--meta"),
        ("fig", "--which", "2", "--nt", "5", "--z-max", "3"), ("verify",), ("verify", "--level", "full"),
        ("spectrum", "--out", "fig", "--Z", "1", "--smax", "4"),  # another command's name as a value
        ("spectrum", "--Z", "-1", "--smax", "10"),  # a negative number argparse takes as a value
        *well_formed_argvs(), *FALLBACK,
    ])
    def test_parsed_arguments(self, parser_use, argv):
        expected = fields(reference_parser().parse_args(list(argv)))
        assert fields(ptcircle.cli._build_parser().parse_args(list(argv))) == expected
        plain = ptcircle.cli._plain_parse(list(argv))
        assert plain is None if argv in FALLBACK else fields(plain) == expected

    @pytest.mark.parametrize("argv, message", [
        (("spectrum", "--Z", "-1e-05", "--smax", "10"),
         "--Z must be finite and non-negative, got -1e-05"),
        (("spectrum", "--Z", "-inf", "--smax", "10"), "--Z must be finite and non-negative, got -inf"),
        (("broken", "--Z", "-2e-3", "--pair", "0"), "--Z must be finite and positive, got -0.002"),
        (("fig", "--which", "1", "--t-min", "-1e-3"), "need 0 < t-min < t-max"),
    ])
    def test_negative_number_reaches_the_range_check(self, capsys, parser_use, argv, message):
        # argparse takes these values for flags ("expected one argument");
        # the plain parse converts them, and the command's range check answers
        assert ptcircle.cli._plain_parse(list(argv)) is not None
        assert run_cli(capsys, *argv) == (64, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("--help",), ("nonsense",), ("fig", "--help"),
        ("--format", "json", "spectrum", "--Z", "1", "--smax", "10"), ("spectrum", "verify"),
    ])
    def test_in_a_new_interpreter(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        expected_code = reference_main(list(argv))
        expected = capsys.readouterr()
        assert fresh_cli(*argv) == (expected_code, expected.out, expected.err)

    def test_each_subparser_takes_the_table_flags(self):
        (sub,) = ptcircle.cli._build_parser()._subparsers._group_actions
        assert list(sub.choices) == list(ptcircle.cli._COMMANDS)
        for name, (_, _, options) in ptcircle.cli._COMMANDS.items():
            flags = [flag for action in sub.choices[name]._actions for flag in action.option_strings]
            assert flags == ["-h", "--help", *(flag for flag, *_ in options)]


# Run in-process and, as a process's first parse, in a new interpreter:
# check(argv) parses argv twice, changing every field of the first namespace
# in between, and returns the fields (by repr, func apart) or None.
PLAIN_PARSE_CHECK = """
import copy
from ptcircle import cli


def check(argv):
    before = copy.deepcopy(cli._PLAIN)
    first = cli._plain_parse(list(argv))
    assert cli._PLAIN == before, "a parse changed the shared tables"
    if first is None:
        return None
    assert first.func is cli._COMMANDS[argv[0]][1]
    fields = {key: repr(value) for key, value in vars(first).items() if key != "func"}
    for key in vars(first):
        setattr(first, key, "changed")
    assert cli._PLAIN == before, "a namespace shares the shared defaults"
    second = cli._plain_parse(list(argv))
    assert second is not first
    assert {key: repr(value) for key, value in vars(second).items() if key != "func"} == fields
    return fields
"""
PLAIN_CASES = [  # argv, and whether the plain parse takes it
    (("critical", "--count", "3", "--count", "4"), False),  # a repeated flag: argparse's
    (("broken", "--Z", "6", "--format", "json", "--format", "csv", "--pair", "0"), False),
    (("spectrum", "--Z", "1"), False),  # a required flag missing
    (("fig", "--Z", "7", "--meta"), False),
    (("fig", "--which", "1", "--Z", "7", "--meta", "--nt", "3"), True),
    (("fig", "--which", "2"), True),  # every default back after the call above
    (("broken", "--Z", "6", "--pair", "0", "--format", "json"), True),
    (("verify",), True),
]


class TestPlainParseTables:
    """The plain parse's tables are built once, at import, and shared by
    every call: a call must change none of them, on a process's first call
    as on later ones."""

    @pytest.fixture(scope="class")
    def check(self):
        scope = {}
        exec(PLAIN_PARSE_CHECK, scope)
        return scope["check"]

    @pytest.mark.parametrize("argv, plain", PLAIN_CASES)
    def test_later_call(self, check, argv, plain):
        for warm, _ in PLAIN_CASES:  # every case parsed before this one
            check(warm)
        if not plain:
            assert check(argv) is None
            return
        expected = fields(reference_parser().parse_args(list(argv)))
        del expected["func"]
        assert check(argv) == expected

    @pytest.mark.parametrize("argv, plain", PLAIN_CASES)
    def test_first_call_of_a_new_process(self, check, argv, plain):
        src = str(Path(ptcircle.cli.__file__).resolve().parents[1])
        code = PLAIN_PARSE_CHECK + "import json, sys\nprint(json.dumps(check(json.loads(sys.argv[1]))))"
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == check(argv)
        assert (json.loads(proc.stdout) is not None) == plain


class TestInProcessReuse:
    """The parser and the folds are built once per process; a later call must
    print what a new interpreter prints."""

    @pytest.mark.parametrize("first, code, second", [
        (("fig", "--which", "1", "--Z", "7", "--points", "3"), 0,
         ("fig", "--which", "1", "--points", "3")),  # the default Z = 5 comes back
        (("spectrum", "--Z", "0.5", "--smax", "4", "--format", "json", "--meta"), 0,
         ("spectrum", "--Z", "0.5", "--smax", "4")),
        (("broken", "--Z", "6", "--pair", "99"), 64,
         ("broken", "--Z", "6", "--pair", "0")),
    ])
    def test_second_call_prints_what_a_new_interpreter_prints(self, capsys, first, code, second):
        assert run_cli(capsys, *first)[0] == code
        assert run_cli(capsys, *second) == fresh_cli(*second)

    @pytest.mark.parametrize("sequence", [
        (("spectrum", "--Z", "0.5", "--smax", "4"), ("fig", "--help"),
         ("broken", "--Z", "6", "--pair", "0"), ("verify", "--level", "quick")),
        (("--help",), ("nonsense",), ("critical", "--help"), ("critical", "--count", "2"),
         ("spectrum", "--Z", "1"), ("--version",), ("table1", "--format", "json")),
    ])
    def test_commands_switching_in_one_process(self, capsys, monkeypatch, sequence):
        monkeypatch.setenv("COLUMNS", "80")
        ptcircle.cli._build_parser.cache_clear()  # a process that has built no parser yet
        for argv in sequence:
            assert run_cli(capsys, *argv) == fresh_cli(*argv), argv

    def test_interleaved_output_shapes_print_what_a_new_interpreter_prints(self, capsys, tmp_path):
        # the text around an output's values is built once per output shape
        # (command, format, input names, columns, notes, --meta) and kept
        # for the process: no shape may print another's text
        out = tmp_path / "broken.json"
        sequence = [
            ("broken", "--Z", "6", "--pair", "0", "--format", "json"),
            ("critical", "--count", "5", "--format", "json"),
            ("spectrum", "--Z", "0.5", "--smax", "10", "--meta"),
            ("broken", "--Z", "60", "--pair", "3", "--format", "json", "--out", str(out)),
            ("broken", "--Z", "6", "--pair", "0"),
            ("critical", "--count", "5", "--format", "json"),
            ("spectrum", "--Z", "0.5", "--smax", "10", "--format", "json", "--meta"),
            ("broken", "--Z", "6", "--pair", "0", "--format", "json"),
            ("broken", "--Z", "60", "--pair", "3", "--format", "json", "--out", str(out)),
            ("spectrum", "--Z", "0.5", "--smax", "10", "--meta"),
        ]
        ptcircle.cli._envelope.cache_clear()  # a process that has written nothing yet
        first, fresh = {}, {}
        for argv in sequence:
            code, stdout, err = run_cli(capsys, *argv)
            if "--out" in argv:
                assert stdout == ""
                stdout = out.read_text(encoding="utf-8")
                out.unlink()
            if argv not in fresh:
                fresh[argv] = fresh_cli(*argv)
                if "--out" in argv:
                    fresh[argv] = (*fresh[argv][:1], out.read_text(encoding="utf-8"),
                                   *fresh[argv][2:])
                    out.unlink()
            assert (code, stdout, err) == fresh[argv], argv
            assert first.setdefault(argv, stdout) == stdout, argv  # a repeat, the same bytes
        # broken in JSON with and without --out is one shape
        assert ptcircle.cli._envelope.cache_info().currsize == 5

    def test_stdout_after_out_file(self, capsys, tmp_path):
        path = tmp_path / "critical.csv"
        assert run_cli(capsys, "critical", "--count", "3", "--out", str(path)) == (0, "", "")
        code, out, err = run_cli(capsys, "critical", "--count", "3")
        assert (code, out, err) == fresh_cli("critical", "--count", "3")
        assert path.read_text(encoding="utf-8") == out


class TestCrossCommandConsistency:
    def test_broken_just_above_fold_agrees_with_critical(self, capsys):
        _, out_c, _ = run_cli(capsys, "critical", "--count", "1")
        _, rows_c = csv_rows(out_c)
        z0 = float(rows_c[0][1])
        e_merge = float(rows_c[0][3])
        code, out_b, _ = run_cli(capsys, "broken", "--Z", repr(z0 + 1e-5), "--pair", "0")
        assert code == 0
        _, rows_b = csv_rows(out_b)
        ree = float(rows_b[0][4])
        assert abs(ree - e_merge) / e_merge <= 1e-4


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--level", "quick")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS factorization-identity" in out

    def test_injected_sign_bug_trips_identity(self, capsys, monkeypatch):
        real = ptcircle.secular.factor_value

        def buggy(t, s, branch):
            value = real(t, s, branch)
            return -value if branch is ptcircle.secular.SecularBranch.FACTOR_PLUS else value

        monkeypatch.setattr(ptcircle.secular, "factor_value", buggy)
        code, out, _ = run_cli(capsys, "verify", "--level", "full")
        assert code == 1
        assert "FAIL factorization-identity" in out

    @pytest.mark.parametrize("kernel, check", [
        ("secular_t", "factorization-identity"),
        ("secular_s", "s-representation-identity"),
    ])
    def test_injected_sign_bug_in_a_form_trips_its_identity(self, capsys, monkeypatch,
                                                           kernel, check):
        # the sweeps must keep calling the public kernels point by point
        real = getattr(ptcircle.secular, kernel)
        monkeypatch.setattr(ptcircle.secular, kernel, lambda x, Z: -real(x, Z))
        code, out, _ = run_cli(capsys, "verify", "--level", "full")
        assert code == 1
        assert f"FAIL {check}:" in out
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1


class TestUsageErrors:
    def test_internal_value_error_is_a_solver_error(self, capsys, monkeypatch):
        def failing(req):
            raise ValueError("invariant broken")

        monkeypatch.setattr(ptcircle.cli, "scan_roots", failing)
        code, out, err = run_cli(capsys, "spectrum", "--Z", "1", "--smax", "10")
        assert code == 2
        assert out == ""
        assert "usage error" not in err
        assert "internal check failed: invariant broken" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "nonsense")
        assert code == 64

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--Z", "1")
        assert code == 64


class TestHelpAndVersion:
    # argparse exits after printing these; main returns 0 instead of raising
    def test_version_returns_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out == f"ptcircle {ptcircle.__version__}\n"

    @pytest.mark.parametrize("argv", [["--help"], ["broken", "--help"], ["verify", "-h"]])
    def test_help_returns_zero(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: ptcircle")

    def test_module_entry_point_exits_zero(self):
        code, out, _ = fresh_cli("--version")
        assert code == 0
        assert out.startswith("ptcircle ")
