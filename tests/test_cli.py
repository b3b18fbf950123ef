"""Command-line interface: subcommands, formats, exit codes, determinism."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiclab import cli, validation
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

    def test_failed_rows_carry_their_detail_to_stderr(self, tmp_path, monkeypatch, capsys):
        """One level-7 child coefficient of the assembled ``D`` perturbed by
        1e-5 relative fails the two block-structure rows; each failed row's
        stderr line ends with its detail, so the copy counts show there."""
        from padiclab import operators

        exact = operators._symmetrized_D_csr

        def perturbed(window):
            data, indices, indptr = exact(window)
            data = data.copy()
            data[indptr[window.level_slice(window.max_level - 1).start] + 2] *= 1.0 + 1e-5
            return data, indices, indptr

        monkeypatch.setattr(operators, "_symmetrized_D_csr", perturbed)
        rc, out = _run(tmp_path, "coupled.json", ["validate", *P211_ARGS, "--depth", "8",
                                                  "--no-drift", "--seminorm-depth", "3"])
        assert rc == EXIT_VALIDATION
        failed = [r for r in json.loads(out.read_text())["results"] if r["passed"] is False]
        assert [r["name"] for r in failed] == ["spectrum:multiplicity-pattern",
                                               "spectrum:block-scaling-identity"]
        err = capsys.readouterr().err.splitlines()[1:]  # after the "wrote <path>" line
        assert err == ["validation failed:"] + [
            f"  {r['name']}: measured {r['measured']} ({r['detail']})" for r in failed
        ]
        assert err[1].startswith("  spectrum:multiplicity-pattern: measured 1.0 (m=4: 7 of 8 ")

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


@contextlib.contextmanager
def _exact_ints():
    """Lift CPython's limit on int-to-str digits (3.11 and later) for the block."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestLargeResidueField:
    """Large ``f``: multiplicities ``p**(m f)`` of thousands of digits, and a
    zeta factor whose ``p**f`` is past the float range."""

    def test_zeta_factor_past_the_float_range(self, capsys):
        """``exp(f ln p)`` overflows at f = 1100: numpy's exp returned
        infinity there, so the factor and every value are signed zeros."""
        argv = ["zeta", "--p", "2", "--e", "1", "--f", "1100", "--n-roots", "3",
                "--s-max", "2", "--format", "csv"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "re_s,im_s,re_zeta,im_zeta,tail_bound,n_roots_used,pole",
            "1,0,0,-0,0,3,false",
            "2,0,0,-0,0,3,false",
        ]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_multiplicities_print_exactly(self, fmt, capsys):
        """At f = 20000 the multiplicity of m = 3 has 18,062 digits: each one
        is printed as the exact ``p**(m f) - p**((m-1) f)``, and the caller's
        limit on int-to-str digits is left as it was."""
        p, f = 2, 20000
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        argv = ["spectrum", "--p", str(p), "--e", "1", "--f", str(f), "--n-max", "1",
                "--format", fmt]
        assert main(argv) == EXIT_OK
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        out = capsys.readouterr().out
        with _exact_ints():
            if fmt == "json":
                rows = [(r["m"], r["multiplicity"]) for r in json.loads(out)["results"]]
            else:
                rows = [(int(r["m"]), int(r["multiplicity"]))
                        for r in csv.DictReader(io.StringIO(out))]
            assert len(rows) == 8 and len(str(max(mult for _, mult in rows))) == 18_062
        for m, mult in rows:
            assert mult == (p ** (m * f) - p ** ((m - 1) * f) if m else 1), m


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
            (["validate", *P211_ARGS, "--depth", "20000"],
             "spectrum window of depth 20000 is over the limit of 2000000 vertices"),
            (["validate", "--p", "7", "--e", "1", "--f", "2", "--depth", "1000000000"],
             "spectrum window of depth 1000000000 is over the limit of 2000000 vertices"),
            (["validate", *P211_ARGS, "--depth", "3", "--seminorm-depth", "1000000000"],
             "seminorm window of depth 1000000000 is over the limit of 2000000 vertices"),
            (["validate", "--p", "3", "--e", "3", "--f", "5", "--depth", "1",
              "--seminorm-depth", "1", "--no-drift"],
             "random test function of depth 4 has 3486784401 values, over the limit of 2000000"),
            (["validate", "--p", "2", "--e", "1", "--f", "7", "--depth", "1",
              "--seminorm-depth", "1", "--no-drift"],
             "random test function of depth 4 has 268435456 values, over the limit of 2000000"),
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

    def test_unsettled_seeds_exit_2(self, capsys):
        """A seed whose Sturm count runs through every row up to the cap is
        refused in one line: at q = 2**(-1/25) ~ 0.973 the pivots linger by
        the fixed point 1 for more than 1024 rows near lambda_0."""
        assert main(["spectrum", "--p", "2", "--e", "50", "--f", "1"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: the Sturm count for root 0 did not end within the limit of "
            "1024 Jacobi rows (params p=2, e=50, f=1)\n"
        )

    def test_seeds_settled_below_the_cap_unchanged(self, capsys):
        """Roots 0..40 of (7,1,1), whose Sturm counts may run up to the
        float-range cap of 177 rows: the output keeps its pinned hash."""
        argv = ["spectrum", "--p", "7", "--e", "1", "--f", "1", "--n-max", "40", "--m-max", "0",
                "--format", "csv"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "" and len(captured.out.splitlines()) == 42
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "485f39604e54eb5ccce5475a8e5a2b51a05e49dfe4d63d438e71ee06d1c57071")

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
        f=st.one_of(st.integers(1, 2), st.integers(3, 20_000)),
        n=st.integers(0, 3),
        s=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @example(p=2, e=1, f=1, n=3, s=1e-300)
    @example(p=2, e=1, f=1100, n=2, s=2.0)  # p**f past the float range in the zeta factor
    @example(p=2, e=1, f=20000, n=1, s=1.0)  # multiplicities of 6,000 to 12,000 digits
    def test_every_run_exits_with_a_documented_code(self, p, e, f, n, s):
        """``spectrum`` and a one-point ``zeta`` over the CLI's parameter grid,
        ``f`` up to 20,000, exit 0, 1 or 2, and a nonzero exit writes exactly
        one stderr line."""
        field = ["--p", str(p), "--e", str(e), "--f", str(f)]
        for argv in (
            ["spectrum", *field, "--m-max", "2", "--n-max", str(n)],
            ["zeta", *field, "--n-roots", str(n + 1), "--s-min", repr(s), "--s-max", repr(s)],
        ):
            rc, err = _exit_and_stderr(argv)
            assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), (argv, rc, err)
            if rc != EXIT_OK:
                assert err.endswith("\n") and err.count("\n") == 1, (argv, err)


    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        e=st.integers(1, 8),
        f=st.one_of(st.integers(1, 2), st.integers(3, 12), st.integers(13, 20_000)),
        depth=st.integers(1, 5),
        k=st.integers(1, 6),
        seminorm_depth=st.integers(1, 3),
        drift=st.booleans(),
    )
    @example(p=2, e=1, f=20000, depth=1, k=1, seminorm_depth=1, drift=False)
    def test_every_validate_exits_with_a_documented_code(self, p, e, f, depth, k,
                                                         seminorm_depth, drift):
        """``validate`` over the same grid exits 0, 1, 2 or 3, and exits 1
        and 2 write exactly one stderr line.  The window budget is lowered
        to 5,000 vertices, so a larger window or random test-function table
        takes the budget's refusal and every example stays small.  From
        ``f = 13`` up even a depth-1 window, ``1 + p**f`` vertices, is over it
        for every ``p``."""
        argv = ["validate", "--p", str(p), "--e", str(e), "--f", str(f),
                "--depth", str(depth), "--k", str(k), "--seminorm-depth", str(seminorm_depth)]
        if not drift:
            argv.append("--no-drift")
        with mock.patch.object(validation, "MAX_WINDOW_VERTICES", 5_000):
            rc, err = _exit_and_stderr(argv)
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_VALIDATION), (argv, rc, err)
        if rc in (EXIT_CONFIG, EXIT_NUMERICAL):
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


class TestUnwritableOutput:
    """An output path that cannot be written is a configuration error: one
    line naming the path, exit 1, nothing on stdout."""

    def _refused(self, capsys, argv, path, errno_code):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert out == ""
        assert err == f"error: cannot write {path}: {os.strerror(errno_code)}\n"

    def test_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        self._refused(capsys, ["spectrum", *P211_ARGS, "--out", str(path)], path, errno.ENOENT)
        assert not path.parent.exists()

    def test_directory_as_output(self, tmp_path, capsys):
        self._refused(capsys, ["spectrum", *P211_ARGS, "--out", str(tmp_path)], tmp_path,
                      errno.EISDIR)

    def test_missing_outdir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PADICLAB_OUTDIR", str(tmp_path / "missing"))
        self._refused(capsys, ["zeta", *P211_ARGS, "--format", "csv"],
                      tmp_path / "missing" / "zeta.csv", errno.ENOENT)


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
    """No CLI command loads scipy: it is left to the sparse-matrix API
    functions.  ``spectrum`` and ``zeta`` load no numpy either, and of the
    package only the root layer: the namespace is lazy, and the modules that
    only ``validate`` needs are imported inside its functions.  The roots are
    certified in Python integers, and ``zeta`` sums their powers in Python
    integers too at an integer or half-integer ``s``: mpmath is loaded only by
    ``zeta`` at an ``s`` off the half-integer lattice."""

    CODE = (
        "import json, sys\n"
        "from padiclab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "loaded = lambda top: sorted(m for m in sys.modules if m.split('.')[0] == top)\n"
        "tops = ('scipy', 'numpy', 'mpmath', 'padiclab', 'dataclasses', 'inspect')\n"
        "print(json.dumps([code, {top: loaded(top) for top in tops}]))\n"
    )
    ROOT_COMMANDS = [["spectrum", *P211_ARGS], ["zeta", *P211_ARGS, "--s-min", "1", "--s-max", "2"]]
    ROOT_LAYER = ["padiclab", "padiclab.cli", "padiclab.field_model", "padiclab.qspecial",
                  "padiclab.spectrum_zeta"]
    VALIDATE = ["validate", *P211_ARGS, "--depth", "8", "--seminorm-depth", "3"]

    def _loaded(self, tmp_path, argv):
        """Modules under each top-level name in ``CODE`` after one request in a
        fresh interpreter."""
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", self.CODE, *argv, "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        assert code == EXIT_OK
        return loaded

    @pytest.mark.parametrize("argv", ROOT_COMMANDS)
    def test_root_commands_load_no_scipy(self, tmp_path, argv):
        assert self._loaded(tmp_path, argv)["scipy"] == []

    @pytest.mark.parametrize("argv", ROOT_COMMANDS)
    def test_root_commands_load_no_numpy(self, tmp_path, argv):
        """Seeds, separators and the zeta factor are float arithmetic in
        pure Python; numpy is imported only by the functions that use it."""
        assert self._loaded(tmp_path, argv)["numpy"] == []

    @pytest.mark.parametrize("argv", ROOT_COMMANDS)
    def test_root_commands_load_only_the_root_layer(self, tmp_path, argv):
        """Neither ``tree``, ``operators`` nor ``seminorms``, and no
        ``dataclasses`` or ``inspect``: the value types are named tuples."""
        loaded = self._loaded(tmp_path, argv)
        assert loaded["padiclab"] == self.ROOT_LAYER
        assert loaded["dataclasses"] == [] and loaded["inspect"] == []

    @pytest.mark.parametrize("argv", [ROOT_COMMANDS[0], VALIDATE], ids=["spectrum", "validate"])
    def test_spectrum_and_validate_load_no_mpmath(self, tmp_path, argv):
        """Seeds, Newton, the enclosure and the sign certificate run on
        floats and integers; the roots are exact dyadic values."""
        assert self._loaded(tmp_path, argv)["mpmath"] == []

    @pytest.mark.parametrize("step, mpmath", [("1", False), ("0.5", False), ("0.25", True)],
                             ids=["integer", "half-integer", "quarter"])
    def test_zeta_loads_mpmath_only_off_the_half_integer_lattice(self, tmp_path, step, mpmath):
        """The root sum ``sum lambda_n**-s`` is summed in integers where
        ``2s`` is an integer, and by mpmath at any other ``s``."""
        argv = ["zeta", *P211_ARGS, "--s-min", "1", "--s-max", "3", "--s-step", step]
        assert ("mpmath" in self._loaded(tmp_path, argv)["mpmath"]) is mpmath

    def test_validate_loads_no_scipy(self, tmp_path):
        """The Haar blocks and commutator norms are read off numpy arrays."""
        assert self._loaded(tmp_path, self.VALIDATE)["scipy"] == []

    def test_validate_loads_every_module(self, tmp_path):
        loaded = self._loaded(tmp_path, self.VALIDATE)["padiclab"]
        assert loaded == sorted([*self.ROOT_LAYER, "padiclab.operators", "padiclab.seminorms",
                                 "padiclab.tree", "padiclab.validation"])

    def test_module_run_clean_under_warnings_as_errors(self, tmp_path):
        """``python -m padiclab.cli`` imports the package first; had the package
        imported ``cli`` itself, runpy would warn that it is already loaded."""
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        env.pop("PADICLAB_OUTDIR", None)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "padiclab.cli", "spectrum", *P211_ARGS,
             "--n-max", "2", "--m-max", "1"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert json.loads(proc.stdout)["command"] == "spectrum"

    def test_qspecial_adds_only_padiclab(self, tmp_path):
        """The series layer sums, and certifies its roots, in Python integers
        and seeds them in Python floats: importing it loads no package but
        its own, the standard library aside; mpmath is imported by the
        functions that return mpmath numbers, when called."""
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import padiclab.qspecial\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["padiclab"]


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
        lines = [json.loads(line) for line in spans.read_text().splitlines()]
        assert lines[-1]["request"] == 0
        assert "counters" in lines[-1]
        # Both names are reached through spectrum_zeta, though the validator
        # lives in padiclab.validation.
        names = {line.get("name") for line in lines}
        assert {"spectrum_zeta.validate_spectrum", "spectrum_zeta.full_spectrum"} <= names

    @pytest.mark.parametrize("argv, span", [
        (["spectrum", *P211_ARGS, "--n-max", "3"], "spectrum_zeta.full_spectrum"),
        (["zeta", *P211_ARGS, "--s-max", "2"], "spectrum_zeta.zeta_DR"),
    ], ids=["spectrum", "zeta"])
    def test_tracer_wraps_root_commands(self, tmp_path, argv, span):
        """The tracer looks every module up in ``sys.modules`` after importing
        only ``padiclab.cli``; the root commands load just the root layer, so
        the tracer's own imports must bring in the rest."""
        spans = tmp_path / "spans.jsonl"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, str(REPO / "bench" / "tracer.py"), str(spans), "1", *argv,
             "--out", str(tmp_path / "out.json")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in spans.read_text().splitlines()]
        names = {line.get("name") for line in lines}
        assert {"cli.import", "cli.main", "qspecial.find_roots", span} <= names
        assert all(line["request"] == 1 for line in lines) and "counters" in lines[-1]
