"""Command-line interface: subcommands, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiclab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)

P211_ARGS = ["--p", "2", "--e", "1", "--f", "1"]
REPO = Path(__file__).resolve().parents[1]


def _run(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, out


class TestSpectrumCommand:
    def test_json_document(self, tmp_path):
        rc, out = _run(tmp_path, "spectrum.json", ["spectrum", *P211_ARGS])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc) == {"params", "command", "results", "meta"}
        assert doc["command"] == "spectrum"
        assert doc["params"] == {"p": 2, "e": 1, "f": 1}
        assert set(doc["meta"]) == {"version", "seed", "tolerances"}
        rows = doc["results"]
        assert len(rows) == 24  # default m <= 3, n <= 5
        assert set(rows[0]) == {"m", "n", "lambda", "value", "multiplicity"}
        values = [r["value"] for r in rows]
        assert values == sorted(values)
        assert rows[0]["value"] == pytest.approx(0.6931022916506043, rel=1e-12)

    def test_csv_header_and_precision(self, tmp_path):
        rc, out = _run(
            tmp_path, "spectrum.csv", ["spectrum", *P211_ARGS, "--format", "csv"]
        )
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "m,n,lambda,value,multiplicity"
        assert len(lines) == 25
        # Floats carry full round-trip precision (%.17g).
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(0.6931022916506043, rel=1e-16)
        assert len(first[2]) >= 17


class TestValidateCommand:
    def test_passes(self, tmp_path):
        rc, out = _run(
            tmp_path,
            "val.json",
            ["validate", *P211_ARGS, "--depth", "8", "--no-drift"],
        )
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        names = [r["name"] for r in doc["results"]]
        assert "spectrum:eigenvalue-match" in names
        assert "hs:closed-vs-double-sum" in names
        assert any(n.startswith("seminorm:") for n in names)
        assert all(r["passed"] for r in doc["results"] if r["passed"] is not None)

    def test_injected_error_exits_3(self, tmp_path, analytic_error):
        rc, out = _run(
            tmp_path,
            "bad.json",
            ["validate", *P211_ARGS, "--depth", "8", "--no-drift"],
        )
        assert rc == EXIT_VALIDATION
        doc = json.loads(out.read_text())
        failed = [r["name"] for r in doc["results"] if r["passed"] is False]
        assert "spectrum:eigenvalue-match" in failed

    def test_hs_direction_depends_on_ramification(self, tmp_path):
        rc, out = _run(
            tmp_path,
            "val212.json",
            ["validate", "--p", "2", "--e", "1", "--f", "2", "--depth", "5",
             "--no-drift", "--k", "4"],
        )
        assert rc == EXIT_OK
        names = [r["name"] for r in json.loads(out.read_text())["results"]]
        assert "hs:total-diverges" in names
        assert "hs:total-converges" not in names


    def test_drift_rows_are_informational(self, tmp_path):
        rc, out = _run(
            tmp_path, "drift.json", ["validate", *P211_ARGS, "--depth", "8", "--k", "4",
                                     "--seminorm-depth", "3"]
        )
        assert rc == EXIT_OK
        rows = {r["name"]: r for r in json.loads(out.read_text())["results"]}
        for name in ("spectrum:drift-refined", "spectrum:drift-raw"):
            assert rows[name]["passed"] is True
            assert rows[name]["tolerance"] is None
            assert rows[name]["measured"] > 0
            assert rows[name]["detail"].startswith("informational:")
        assert rows["spectrum:drift-refined"]["detail"].endswith("depth 8 vs 10")


class TestZetaCommand:
    def test_grid_with_pole_row(self, tmp_path):
        rc, out = _run(
            tmp_path,
            "zeta.json",
            ["zeta", "--p", "2", "--e", "1", "--f", "2",
             "--s-min", "1", "--s-max", "3", "--s-step", "1"],
        )
        assert rc == EXIT_OK
        rows = json.loads(out.read_text())["results"]
        assert [r["pole"] for r in rows] == [True, False, False]
        pole = rows[0]
        assert pole["re_zeta"] is None and pole["im_zeta"] is None
        regular = rows[1]
        assert regular["re_zeta"] == pytest.approx(2.68641975308642, rel=1e-12)
        assert regular["tail_bound"] < 1e-12

    def test_csv_empty_cells_for_pole(self, tmp_path):
        rc, out = _run(
            tmp_path,
            "zeta.csv",
            ["zeta", "--p", "2", "--e", "1", "--f", "2", "--format", "csv",
             "--s-min", "1", "--s-max", "2", "--s-step", "1"],
        )
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("re_s,im_s,re_zeta")
        assert ",,," in lines[1] or lines[1].split(",")[2] == ""


class TestLargeBase:
    """Spectra with q = p**(-2/e) beyond 0.6, where geometric interlacing fails."""

    @pytest.mark.parametrize("field", [["--p", "2", "--e", "3"], ["--p", "3", "--e", "6"]])
    def test_spectrum_certified(self, tmp_path, field):
        rc, out = _run(tmp_path, "s.json", ["spectrum", *field, "--f", "1"])
        assert rc == EXIT_OK
        rows = json.loads(out.read_text())["results"]
        lams = sorted({r["n"]: r["lambda"] for r in rows}.items())
        assert [lam for _, lam in lams] == sorted(lam for _, lam in lams)

    def test_q_near_one_succeeds_or_refuses_in_one_line(self):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        env.pop("PADICLAB_OUTDIR", None)
        proc = subprocess.run(
            [sys.executable, "-m", "padiclab.cli", "spectrum", "--p", "2", "--e", "50", "--f", "1"],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode in (EXIT_OK, EXIT_NUMERICAL)
        if proc.returncode == EXIT_NUMERICAL:
            assert proc.stdout == ""
            assert len(proc.stderr.splitlines()) == 1
            assert proc.stderr.startswith("numerical failure: ")


class TestConfigErrors:
    def test_composite_p(self, tmp_path):
        rc = main(["spectrum", "--p", "6", "--e", "1", "--f", "1",
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_CONFIG

    def test_unknown_flag(self):
        assert main(["spectrum", "--bogus"]) == EXIT_CONFIG

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_no_command(self):
        assert main([]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", *P211_ARGS, "--k", "0"], "argument --k: must be >= 1, got 0"),
            (["validate", *P211_ARGS, "--k", "-3"], "argument --k: must be >= 1, got -3"),
            (["validate", *P211_ARGS, "--depth", "0"], "argument --depth: must be >= 1, got 0"),
            (["validate", *P211_ARGS, "--seminorm-depth", "0"],
             "argument --seminorm-depth: must be >= 1, got 0"),
            (["zeta", *P211_ARGS, "--s-min", "nan"], "argument --s-min: must be finite, got nan"),
            (["zeta", *P211_ARGS, "--s-max", "inf"], "argument --s-max: must be finite, got inf"),
            (["zeta", *P211_ARGS, "--s-min", "5", "--s-max", "2"],
             "argument --s-max: must be >= --s-min"),
            (["zeta", *P211_ARGS, "--s-step", "0"],
             "argument --s-step: must be finite and positive, got 0"),
            (["zeta", *P211_ARGS, "--s-min=-1e308", "--s-max=1e308"],
             "argument --s-max: the span from --s-min is not finite"),
            (["zeta", *P211_ARGS, "--s-max", "1e9", "--s-step", "1"],
             "argument --s-step: the s-grid has 1000000000 points, over the limit of 10000"),
            (["validate", *P211_ARGS, "--tol", "nan"],
             "argument --tol: must be finite and positive, got nan"),
            (["validate", *P211_ARGS, "--tol", "inf"],
             "argument --tol: must be finite and positive, got inf"),
            (["validate", *P211_ARGS, "--tol", "-1"],
             "argument --tol: must be finite and positive, got -1"),
            (["spectrum", *P211_ARGS, "--root-tol", "0"],
             "argument --root-tol: must be finite and positive, got 0"),
            (["spectrum", *P211_ARGS, "--n-max", "-1"], "argument --n-max: must be >= 0, got -1"),
            (["spectrum", *P211_ARGS, "--m-max", "-2"], "argument --m-max: must be >= 0, got -2"),
            (["validate", *P211_ARGS, "--k", "x"], "argument --k: invalid int value: 'x'"),
            (["validate", "--p", "7", "--e", "1", "--f", "1", "--depth", "10"],
             "spectrum window of depth 10 has 329554457 vertices, over the limit of 2000000"),
            (["validate", *P211_ARGS, "--depth", "19"],
             "drift window of depth 21 has 4194303 vertices, over the limit of 2000000"),
            (["validate", *P211_ARGS, "--no-drift", "--seminorm-depth", "21"],
             "seminorm window of depth 21 has 4194303 vertices, over the limit of 2000000"),
            (["validate", *P211_ARGS, "--inject-error", "1e-4"],
             "unrecognized arguments: --inject-error 1e-4"),
        ],
    )
    def test_bad_values_rejected_at_parse_time(self, argv, message, capsys):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "m_max,message",
        [
            ("510", "spectrum value at (m, n) = (507, 5) is not a finite float"),
            ("512", "scale p**(2m/e) at m = 512 is not a finite float"),
            ("100000", "scale p**(2m/e) at m = 512 is not a finite float"),
        ],
    )
    def test_spectrum_beyond_float_range_refused(self, m_max, message, fmt, capsys):
        """``p**(2m/e) * lambda_n`` overflows on (2,1,1) from m = 507 at n = 5, and
        the scale itself from m = 512: one line, exit 1, no output in either format."""
        assert main(["spectrum", *P211_ARGS, "--m-max", m_max, "--format", fmt]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_zeta_beyond_float_range_refused(self, fmt, capsys):
        """``lambda_0**-s`` overflows at s = 2000 on (2,1,1): one line, exit 1,
        and no output in either format."""
        argv = ["zeta", *P211_ARGS, "--s-min", "1", "--s-max", "2000", "--s-step", "1999",
                "--n-roots", "3", "--format", fmt]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: zeta at s = (2000+0j) leaves the float range")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("s", ["1e-17", "1e-300", "5e-324", "1e10"])
    def test_zeta_tail_bound_beyond_float_range_refused(self, s, fmt, capsys):
        """At a tiny ``s``, ``q**s`` rounds to 1 and the tail bound divides by
        zero; at a huge one, ``kappa**-s`` overflows: one line, exit 1, no output."""
        argv = ["zeta", *P211_ARGS, "--s-min", s, "--s-max", s, "--n-roots", "3",
                "--format", fmt]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"error: zeta at s = {complex(float(s))} leaves the float range"
        assert captured.err.startswith(message)
        assert len(captured.err.splitlines()) == 1


    @pytest.mark.parametrize("n_roots", ["0", "-2"])
    def test_zeta_without_roots_refused(self, n_roots, capsys):
        assert main(["zeta", *P211_ARGS, "--n-roots", n_roots]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least one root\n"

    def test_numerical_failure_exits_2(self, capsys):
        """Roots past the Jacobi truncation cap are refused in one line, with no output."""
        assert main(["spectrum", *P211_ARGS, "--n-max", "300"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: roots up to 300 need a Jacobi truncation of order 604, "
            "over the limit of 498 (params p=2, e=1, f=1)\n"
        )


def _exit_and_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


class TestExitContract:
    @settings(max_examples=50, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        e=st.integers(1, 8),
        f=st.integers(1, 2),
        n=st.integers(0, 3),
        s=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @example(p=2, e=1, f=1, n=3, s=1e-300)
    def test_every_run_exits_with_a_documented_code(self, p, e, f, n, s):
        """``spectrum`` and a one-point ``zeta`` over the CLI's parameter grid
        exit 0, 1 or 2, and a nonzero exit writes exactly one stderr line."""
        field = ["--p", str(p), "--e", str(e), "--f", str(f)]
        for argv in (
            ["spectrum", *field, "--m-max", "2", "--n-max", str(n)],
            ["zeta", *field, "--n-roots", str(n + 1), "--s-min", repr(s), "--s-max", repr(s)],
        ):
            rc, err = _exit_and_stderr(argv)
            assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), (argv, rc, err)
            if rc != EXIT_OK:
                assert err.endswith("\n") and err.count("\n") == 1, (argv, err)


class TestOutputRouting:
    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PADICLAB_OUTDIR", str(tmp_path))
        rc = main(["spectrum", *P211_ARGS])
        assert rc == EXIT_OK
        assert (tmp_path / "spectrum.json").exists()

    def test_stdout_fallback(self, capsys, monkeypatch):
        monkeypatch.delenv("PADICLAB_OUTDIR", raising=False)
        rc = main(["spectrum", *P211_ARGS, "--n-max", "1", "--m-max", "1"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "spectrum"


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_byte_identical_reruns(self, tmp_path, fmt):
        argv = ["spectrum", *P211_ARGS, "--format", fmt]
        _, a = _run(tmp_path, f"a.{fmt}", argv)
        _, b = _run(tmp_path, f"b.{fmt}", argv)
        assert a.read_bytes() == b.read_bytes()

    def test_validate_identical_across_fresh_processes(self):
        """In-process reruns share module caches; fresh interpreters do not."""
        argv = [sys.executable, "-m", "padiclab.cli", "validate", "--p", "2", "--e", "2",
                "--f", "1", "--depth", "12", "--seminorm-depth", "3"]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        env.pop("PADICLAB_OUTDIR", None)
        runs = [subprocess.run(argv, env=env, capture_output=True, timeout=120) for _ in range(2)]
        assert [r.returncode for r in runs] == [EXIT_OK, EXIT_OK], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout


class TestImportBoundary:
    """No CLI command loads scipy: it is left to the sparse-matrix API functions."""

    CODE = (
        "import json, sys\n"
        "from padiclab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )

    def _scipy_modules(self, tmp_path, argv):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", self.CODE, *argv, "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == EXIT_OK
        return modules

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", *P211_ARGS], ["zeta", *P211_ARGS, "--s-min", "1", "--s-max", "2"]],
    )
    def test_root_commands_load_no_scipy(self, tmp_path, argv):
        assert self._scipy_modules(tmp_path, argv) == []

    def test_validate_loads_no_scipy(self, tmp_path):
        """The Haar blocks and commutator norms are read off numpy arrays."""
        argv = ["validate", *P211_ARGS, "--depth", "8", "--seminorm-depth", "3"]
        assert self._scipy_modules(tmp_path, argv) == []


class TestTracer:
    def test_tracer_starts_and_counts(self, tmp_path):
        """The benchmark tracer wraps public names; a rename must fail here."""
        spans = tmp_path / "spans.jsonl"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, str(REPO / "bench" / "tracer.py"), str(spans), "0",
             "validate", *P211_ARGS, "--depth", "6", "--k", "4", "--no-drift",
             "--seminorm-depth", "4", "--out", str(tmp_path / "val.json")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        last = json.loads(spans.read_text().splitlines()[-1])
        assert last["request"] == 0
        assert "counters" in last
