"""In-process layer times of the seminorm sweep and window assembly, per pool entry.

Usage::

    python3 tools/layers.py --out FILE.json --label new                 # this checkout's src/
    python3 tools/layers.py --out FILE.json --label old --src OTHER/src # another checkout

For each ``seminorm-sweep`` and ``validate-deep`` entry of
``bench/workloads.py`` the script builds the seminorm window
(``tree_window_r(params, seminorm_depth)``) and the 12 library test
functions, as ``validate`` does, and times ``--repeats`` sweeps.  One sweep
runs every library function once through each layer of
:func:`padiclab.seminorms.check_norm_comparison`:

* ``rho_diag`` — the level-major diagonal of the multiplication operator;
* ``_lipschitz``, ``_formula``, ``_commutator_norm`` — the Lipschitz sweep,
  the row formula and the commutator norm, each fed that diagonal;
* ``check_norm_comparison`` — the whole comparison, as ``validate`` runs it.

A layer's time in one sweep is the sum over the 12 functions.  For each
``validate-deep`` entry of depth ``N`` the script also times, on the
spectrum windows ``tree_window_r(params, N)`` and ``N + 2`` (the drift
window), the two assembly layers ``validate`` runs there (``ASSEMBLY``):

* ``_symmetrized_D_csr`` — the CSR arrays of ``D``;
* ``_tree_levels`` — those arrays, their row-pattern check and the split
  into per-level diagonals and child coefficients.

The file keeps the median and the interquartile range
(``statistics.quantiles``, ``n=4``) over the repeats, in milliseconds, and
the number of ``TestFunction.evaluator`` calls one ``check_norm_comparison``
sweep makes.  The result is stored under ``layers.<label>`` in the JSON file
``--out``; other keys of an existing file are kept.
``--window P,E,F,DEPTH`` replaces the pool entries by one window, whose
assembly layers are timed at ``DEPTH`` and ``DEPTH + 2``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("rho_diag", "_lipschitz", "_formula", "_commutator_norm", "check_norm_comparison")
ASSEMBLY = ("_symmetrized_D_csr", "_tree_levels")


def pool_entries() -> list[tuple[str, tuple[int, int, int], int, tuple[int, ...]]]:
    """``(workload, (p, e, f), seminorm_depth, assembly_depths)`` of every entry timed."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    entries = [("seminorm-sweep", (p, e, f), sdepth, ())
               for p, e, f, _depth, sdepth in workloads.SEMINORM_POOL]
    entries += [("validate-deep", (p, e, f), 3, (depth, depth + 2))
                for p, e, f, depth in workloads.VALIDATE_POOL]
    return entries


def _counting(fn, calls: list[int]):
    """``fn`` with an evaluator that counts its calls in ``calls[0]``."""
    evaluator = fn.evaluator

    def counted(start, width, ranks):
        calls[0] += 1
        return evaluator(start, width, ranks)

    return fn._replace(evaluator=counted)


def _summary(samples_ns: list[int]) -> dict[str, float]:
    ms = [s / 1e6 for s in samples_ns]
    q1, _q2, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
    return {"median": round(statistics.median(ms), 4), "iqr": round(q3 - q1, 4)}


def time_assembly(field: tuple[int, int, int], depth: int, repeats: int) -> dict:
    """Times of the ``ASSEMBLY`` layers on the depth-``depth`` spectrum window."""
    from padiclab import FieldParams, tree_window_r
    from padiclab import operators, validation

    window = tree_window_r(FieldParams(*field), depth)
    steps = {"_symmetrized_D_csr": operators._symmetrized_D_csr,
             "_tree_levels": validation._tree_levels}
    clock = time.perf_counter_ns
    samples: dict[str, list[int]] = {name: [] for name in ASSEMBLY}
    for name in ASSEMBLY:
        steps[name](window)  # untimed: warms the path
    for _ in range(repeats):
        for name in ASSEMBLY:
            t0 = clock()
            steps[name](window)
            samples[name].append(clock() - t0)
    return {"depth": depth, "vertices": window.total,
            "layers_ms": {name: _summary(samples[name]) for name in ASSEMBLY}}


def time_entry(field: tuple[int, int, int], sdepth: int, repeats: int) -> dict:
    """Layer times and evaluator calls of the sweep on one seminorm window."""
    from padiclab import FieldParams, tree_window_r
    from padiclab import operators, seminorms

    params = FieldParams(*field)
    window = tree_window_r(params, sdepth)
    calls = [0]
    library = [_counting(fn, calls) for fn in seminorms.testfn_library(params)]
    steps = {
        "rho_diag": lambda fn, diag: operators.rho_diag(window, fn),
        "_lipschitz": lambda fn, diag: seminorms._lipschitz(window, fn, diag),
        "_formula": lambda fn, diag: seminorms._formula(window, diag),
        "_commutator_norm": lambda fn, diag: operators._commutator_norm(window, diag),
        "check_norm_comparison": lambda fn, diag: seminorms.check_norm_comparison(window, fn),
    }
    diags = [operators.rho_diag(window, fn) for fn in library]
    calls[0] = 0  # one untimed sweep: warms every path, counts the evaluator calls
    for fn in library:
        seminorms.check_norm_comparison(window, fn)
    evaluator_calls = calls[0]
    samples: dict[str, list[int]] = {name: [] for name in LAYERS}
    clock = time.perf_counter_ns
    for _ in range(repeats):
        for name in LAYERS:
            step, total = steps[name], 0
            for fn, diag in zip(library, diags):
                t0 = clock()
                step(fn, diag)
                total += clock() - t0
            samples[name].append(total)
    return {
        "vertices": window.total,
        "functions": len(library),
        "repeats": repeats,
        "evaluator_calls": evaluator_calls,
        "layers_ms": {name: _summary(samples[name]) for name in LAYERS},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key of this run under 'layers'")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding padiclab")
    ap.add_argument("--out", required=True, help="JSON file to write or update")
    ap.add_argument("--repeats", type=int, default=31)
    ap.add_argument("--window", metavar="P,E,F,DEPTH",
                    help="time this one seminorm window instead of the pool entries")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.repeats < 1:
        raise SystemExit("--repeats must be at least 1")
    sys.path.insert(0, args.src)
    import numpy

    if args.window:
        p, e, f, sdepth = map(int, args.window.split(","))
        entries = [("window", (p, e, f), sdepth, (sdepth, sdepth + 2))]
    else:
        entries = pool_entries()
    run = {
        "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "processor": platform.machine()},
        "entries": [{"workload": workload, "field": list(field), "seminorm_depth": sdepth,
                     **time_entry(field, sdepth, args.repeats),
                     "assembly": [time_assembly(field, depth, args.repeats) for depth in depths]}
                    for workload, field, sdepth, depths in entries],
    }
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("layers", {})[args.label] = run
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
