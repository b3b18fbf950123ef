"""In-process layer times of the seminorm sweep, assembly and spectrum check, per pool entry.

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

A layer's time in one sweep is that of running it on the 12 functions in
turn.  For each ``validate-deep`` entry of depth ``N`` the script also
times, on the spectrum windows ``tree_window_r(params, N)`` and ``N + 2``
(the drift window), the two assembly layers ``validate`` runs there
(``ASSEMBLY``):

* ``_symmetrized_D_csr`` — the CSR arrays of ``D``;
* ``_tree_levels`` — those arrays, their row-pattern check and the split
  into per-level diagonals and child coefficients.

It also times ``validation.validate_spectrum(params, N)`` as ``validate``
calls it (drift on, ``k = 8``) and counts its ``np.linalg.eigvalsh`` calls.
An untimed first call counts them and certifies the request's root table,
which later calls find in the root cache; the times are the window work.

Every repeat also times a fixed reference step, one ``np.sort`` of the same
shuffled ``2**16``-float array (``REFERENCE``).  Each timed layer keeps the
median and the interquartile range (``statistics.quantiles``, ``n=4``) over
the repeats, in milliseconds, and ``ratio``, the median over the repeats of
its time over the reference step's time in the same repeat: a burst of load
from other processes slows both, so ratios from two runs compare where raw
times read the burst as a change.  Run two labels in ABBA order (old, new,
new, old) and compare each label's two passes before reading a difference.
The file also keeps the number of ``TestFunction.evaluator`` calls one
``check_norm_comparison`` sweep makes.  The result is stored under
``layers.<label>`` in the JSON file ``--out``; other keys of an existing
file are kept.  ``--window P,E,F,DEPTH`` replaces the pool entries by one
window, whose assembly layers are timed at ``DEPTH`` and ``DEPTH + 2`` and
whose ``validate_spectrum`` is timed at ``DEPTH``.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("rho_diag", "_lipschitz", "_formula", "_commutator_norm", "check_norm_comparison")
ASSEMBLY = ("_symmetrized_D_csr", "_tree_levels")
REFERENCE = 2**16  # floats sorted by the reference step


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


def _summary(samples_ns: list[int], reference_ns: list[int] | None = None) -> dict[str, float]:
    """Median and IQR in ms; with ``reference_ns``, the median ratio to the
    reference step of the same repeat."""
    ms = [s / 1e6 for s in samples_ns]
    q1, _q2, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else (ms[0],) * 3
    out = {"median": round(statistics.median(ms), 4), "iqr": round(q3 - q1, 4)}
    if reference_ns is not None:
        out["ratio"] = round(statistics.median(s / r for s, r in zip(samples_ns, reference_ns)), 4)
    return out


def _timed(steps: dict[str, Callable[[], object]], repeats: int) -> dict:
    """``reference_ms`` and ``layers_ms`` of ``steps``, warmed by the caller.

    Each repeat times the reference step and then every step, in order.
    """
    import numpy as np

    data = np.array(random.Random(0).sample(range(REFERENCE), REFERENCE), dtype=float)
    np.sort(data)  # untimed: warms the reference path
    clock = time.perf_counter_ns
    order = [("reference", lambda: np.sort(data)), *steps.items()]
    samples: dict[str, list[int]] = {name: [] for name, _ in order}
    for _ in range(repeats):
        for name, step in order:
            t0 = clock()
            step()
            samples[name].append(clock() - t0)
    reference = samples.pop("reference")
    return {"reference_ms": _summary(reference),
            "layers_ms": {name: _summary(samples[name], reference) for name in steps}}


def time_assembly(field: tuple[int, int, int], depth: int, repeats: int) -> dict:
    """Times of the ``ASSEMBLY`` layers on the depth-``depth`` spectrum window."""
    from padiclab import FieldParams, tree_window_r
    from padiclab import operators, validation

    window = tree_window_r(FieldParams(*field), depth)
    layers = (operators._symmetrized_D_csr, validation._tree_levels)
    steps = {name: (lambda layer=layer: layer(window)) for name, layer in zip(ASSEMBLY, layers)}
    for step in steps.values():
        step()  # untimed: warms the path
    return {"depth": depth, "vertices": window.total, **_timed(steps, repeats)}


def time_validate(field: tuple[int, int, int], depth: int, repeats: int) -> dict:
    """Time of ``validate_spectrum`` at depth ``depth`` (drift on, ``k = 8``), and its
    ``np.linalg.eigvalsh`` calls."""
    import numpy as np

    from padiclab import FieldParams, validation

    params = FieldParams(*field)
    solve, calls = np.linalg.eigvalsh, [0]

    def counted(a, *args, **kwargs):
        calls[0] += 1
        return solve(a, *args, **kwargs)

    def step():
        return validation.validate_spectrum(params, depth, k=8, with_drift=True)

    np.linalg.eigvalsh = counted
    try:  # untimed: counts the solves, certifies the root table, warms the path
        step()
    finally:
        np.linalg.eigvalsh = solve
    return {"depth": depth, "k": 8, "drift": True, "eigvalsh_calls": calls[0],
            **_timed({"validate_spectrum": step}, repeats)}


def time_entry(field: tuple[int, int, int], sdepth: int, repeats: int) -> dict:
    """Layer times and evaluator calls of the sweep on one seminorm window.

    A layer's step runs it on each library function in turn.
    """
    from padiclab import FieldParams, tree_window_r
    from padiclab import operators, seminorms

    params = FieldParams(*field)
    window = tree_window_r(params, sdepth)
    calls = [0]
    library = [_counting(fn, calls) for fn in seminorms.testfn_library(params)]
    diags = [operators.rho_diag(window, fn) for fn in library]
    layers = {
        "rho_diag": lambda fn, diag: operators.rho_diag(window, fn),
        "_lipschitz": lambda fn, diag: seminorms._lipschitz(window, fn, diag),
        "_formula": lambda fn, diag: seminorms._formula(window, diag),
        "_commutator_norm": lambda fn, diag: operators._commutator_norm(window, diag),
        "check_norm_comparison": lambda fn, diag: seminorms.check_norm_comparison(window, fn),
    }

    def sweep(layer):
        for fn, diag in zip(library, diags):
            layer(fn, diag)

    calls[0] = 0  # one untimed sweep: warms every path, counts the evaluator calls
    sweep(layers["check_norm_comparison"])
    evaluator_calls = calls[0]
    steps = {name: (lambda layer=layer: sweep(layer)) for name, layer in layers.items()}
    return {
        "vertices": window.total,
        "functions": len(library),
        "repeats": repeats,
        "evaluator_calls": evaluator_calls,
        **_timed(steps, repeats),
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
                     "assembly": [time_assembly(field, depth, args.repeats) for depth in depths],
                     "validate_spectrum": (time_validate(field, depths[0], args.repeats)
                                           if depths else None)}
                    for workload, field, sdepth, depths in entries],
    }
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("layers", {})[args.label] = run
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
