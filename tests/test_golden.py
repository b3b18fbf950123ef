"""Byte-identity of ``spectrum`` and ``zeta`` output against stored files.

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

Regenerate (only when an output change is intended and explained) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from padiclab.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

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


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        command, entry, fmt = case
        main([*_argv(command, *entry), "--format", fmt,
              "--out", str(GOLDEN / _name(*case))])
