"""Byte-identity of ``spectrum`` and ``zeta`` output against stored files,
and of the ``seminorm:*`` rows of ``validate``.

Each file under ``tests/data/golden`` is the CLI's output for one request,
captured before the root search was reseeded from the Jacobi spectrum (the
``zeta`` files again when the root sums became correctly rounded).  One
small request per base ``q`` of the benchmark's root pool, in both formats,
``spectrum`` at residual targets of 1e-3 and 1e-20, where the roots of
one request work at precisions far apart and most are certified below the
precision of the request's ratio table, and ``zeta`` on a half-integer
s-grid, whose root sums take square roots (at (2,1,1) and (3,1,1) its first
point is the pole ``s = ef/2``).
``bench/reference.json`` compares values only to 1e-12; this pins the bytes.

``validate_seminorm_rows.json`` holds, for each of the six ``validate``
requests of the benchmark pools (``bench/workloads.pool_keys()``), the
name, pass flag, measured value and detail of every ``seminorm:*`` row.
These rows use no LAPACK, so they are the same on every platform; the
eigenvalue rows are not, and are left out.

Regenerate (only when an output change is intended and explained) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from padiclab.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
SEMINORM_ROWS = GOLDEN / "validate_seminorm_rows.json"

# (p, e, f, N): roots 0..N, one entry per base q of the root pool.
ENTRIES = [(2, 1, 1, 12), (2, 2, 1, 10), (3, 1, 1, 10), (3, 2, 1, 10),
           (5, 1, 1, 8), (7, 1, 1, 8), (2, 1, 2, 12)]
# (p, e, f, N, root_tol): spectra of roots 0..N at a residual target other
# than the default.
TOL_ENTRIES = [(p, e, f, 12, tol)
               for p, e, f in ((2, 8, 1), (3, 1, 1)) for tol in ("1e-3", "1e-20")]
# (p, e, f, N, step): zeta with roots 0..N on the s-grid step, 2 step, .., 8 step.
STEP_ENTRIES = [(2, 1, 1, 12, "0.5"), (3, 1, 1, 10, "0.5")]
FORMATS = ("json", "csv")


def _argv(command: str, p: int, e: int, f: int, n: int, extra: str | None = None) -> list[str]:
    """The request of one entry; ``extra`` is the ``--root-tol`` of a
    ``spectrum`` request or the s-step of a ``zeta`` one (default 1)."""
    field = ["--p", str(p), "--e", str(e), "--f", str(f)]
    if command == "spectrum":
        tol = [] if extra is None else ["--root-tol", extra]
        return ["spectrum", *field, "--m-max", "2", "--n-max", str(n), *tol]
    step = extra or "1"
    return ["zeta", *field, "--s-min", step, "--s-max", str(8 * float(step)), "--s-step", step,
            "--n-roots", str(n + 1)]


CASES = ([(command, entry, fmt)
          for command in ("spectrum", "zeta") for entry in ENTRIES for fmt in FORMATS]
         + [("spectrum", entry, fmt) for entry in TOL_ENTRIES for fmt in FORMATS]
         + [("zeta", entry, fmt) for entry in STEP_ENTRIES for fmt in FORMATS])


def _name(command: str, entry: tuple, fmt: str) -> str:
    return f"{command}_{'_'.join(map(str, entry))}.{fmt}"


@pytest.mark.parametrize("command, entry, fmt", CASES,
                         ids=[_name(*case) for case in CASES])
def test_output_byte_identical(tmp_path, command, entry, fmt):
    out = tmp_path / "out"
    assert main([*_argv(command, *entry), "--format", fmt, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / _name(command, entry, fmt)).read_bytes()


def _validate_pool() -> list[str]:
    """The ``validate`` requests of the benchmark pools, as argument strings."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [" ".join(key) for key in workloads.pool_keys() if key[0] == "validate"]


def _seminorm_rows(request: str, out: Path) -> list[list]:
    """``[name, passed, measured, detail]`` of each ``seminorm:*`` row."""
    assert main([*request.split(), "--format", "json", "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())["results"]
    return [[row["name"], row["passed"], row["measured"], row["detail"]]
            for row in rows if row["name"].startswith("seminorm:")]


@pytest.mark.parametrize("request_args", _validate_pool())
def test_seminorm_rows_identical(tmp_path, request_args):
    golden = json.loads(SEMINORM_ROWS.read_text())
    assert _seminorm_rows(request_args, tmp_path / "out") == golden[request_args]


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        command, entry, fmt = case
        main([*_argv(command, *entry), "--format", fmt,
              "--out", str(GOLDEN / _name(*case))])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        golden = {request: _seminorm_rows(request, out) for request in _validate_pool()}
    SEMINORM_ROWS.write_text(json.dumps(golden, indent=1) + "\n")
