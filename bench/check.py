"""Output parsing and the correctness check against the stored reference.

Outputs are parsed into typed rows whatever their format, so a JSON and a
CSV answer to the same request compare against one reference entry.

* ``spectrum``: the ``(m, n, multiplicity)`` rows match exactly, ``lambda``
  and ``value`` agree to ``REL_TOL``.
* ``zeta``: the ``pole`` flags and ``n_roots_used`` match exactly, the
  numeric columns agree to ``REL_TOL``.
* ``validate``: the row names match in order and every row passed, as in
  the reference; the measured figures are not compared (a better solver
  may move them).
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math

REL_TOL = 1e-12

_INT = ("m", "n", "multiplicity", "n_roots_used")
_FLOAT = ("lambda", "value", "re_s", "im_s", "re_zeta", "im_zeta", "tail_bound",
          "measured", "tolerance")
_BOOL = ("pole", "passed")

EXACT = {
    "spectrum": ("m", "n", "multiplicity"),
    "zeta": ("pole", "n_roots_used"),
    "validate": ("name", "passed"),
}
NUMERIC = {
    "spectrum": ("lambda", "value"),
    "zeta": ("re_s", "im_s", "re_zeta", "im_zeta", "tail_bound"),
    "validate": (),
}


def _typed(column: str, text: str):
    if text == "":
        return None
    if column in _INT:
        return int(text)
    if column in _FLOAT:
        return float(text)
    if column in _BOOL:
        return {"true": True, "false": False}[text]
    return text


def parse_output(text: str, fmt: str) -> list[dict]:
    """Rows of a CLI output in JSON or CSV, with typed values."""
    if fmt == "json":
        return json.loads(text)["results"]
    reader = csv.DictReader(io.StringIO(text))
    return [{c: _typed(c, v) for c, v in row.items()} for row in reader]


def canonical(command: str, rows: list[dict]) -> list[dict]:
    """The columns the check compares, in a fixed order."""
    keep = EXACT[command] + NUMERIC[command]
    return [{c: row.get(c) for c in keep} for row in rows]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0) or a == b


def mismatch(command: str, rows: list[dict], reference: list[dict]) -> str | None:
    """Why ``rows`` disagree with ``reference``, or None when they agree."""
    if len(rows) != len(reference):
        return f"{len(rows)} rows, reference has {len(reference)}"
    for i, (row, ref) in enumerate(zip(rows, reference)):
        for c in EXACT[command]:
            if row.get(c) != ref[c]:
                return f"row {i} column {c}: {row.get(c)!r} != {ref[c]!r}"
        for c in NUMERIC[command]:
            if not _close(row.get(c), ref[c]):
                return f"row {i} column {c}: {row.get(c)!r} vs reference {ref[c]!r}"
    return None


def perturbed(command: str, reference: list[dict]) -> list[dict]:
    """A copy of ``reference`` with one value changed, for the self-test."""
    out = copy.deepcopy(reference)
    row = out[len(out) // 2]
    if command == "validate":
        row["name"] += "-perturbed"
    else:
        column = next(c for c in NUMERIC[command] if row[c])
        row[column] *= 1.0 + 1e-9
    return out
