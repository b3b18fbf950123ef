"""Run one ``padiclab`` CLI request under external timing wrappers.

Usage::

    PYTHONPATH=src python3 bench/tracer.py SPANS.jsonl REQUEST_ID CLI_ARG...

The program is not modified: after ``import padiclab.cli`` this script
replaces the public functions named in ``SPANS`` with wrappers in every
``padiclab`` module that binds them, wraps the dependency entry points in
``DEPENDENCIES`` where the package looks them up, and counts per-vertex work
by patching ``COUNTED_METHODS`` at class level.  It then calls
``padiclab.cli.main(argv)``.  The CLI's output goes to stdout as usual; spans
(name, start, end, parent, request id, attributes) are kept in memory and
written as JSONL to ``SPANS.jsonl`` when ``main`` returns, followed by one
line of counters.  The process exits with the CLI's exit code.

A name that no longer exists raises at start-up rather than silently
dropping its metric; a count that falls to zero is written as zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_T_START = time.perf_counter()
import padiclab.cli  # noqa: E402  (timed: the import is the cli.import span)

_T_IMPORTED = time.perf_counter()

import numpy.linalg  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

from padiclab import field_model, operators, tree  # noqa: E402

# Public functions timed as spans, by defining module.
SPANS = {
    "qspecial": ("find_roots", "phi11", "phi11_derivative"),
    "spectrum_zeta": ("full_spectrum", "zeta_DR", "validate_spectrum"),
    "operators": ("assemble_DstarD", "rho_diag", "assemble_commutator", "commutator_norm"),
    "seminorms": ("check_norm_comparison", "lipschitz_depth", "spectral_seminorm_formula"),
}
# Public functions only counted (called too often, or too cheaply, for spans).
COUNTED = {
    "tree": ("tree_window_r",),
    "field_model": ("pi_power",),
}
# Dependency entry points: (module, attribute, span name).  The span's parent
# is the enclosing padiclab span, which attributes the call to its caller.
DEPENDENCIES = (
    (scipy.sparse.linalg, "eigsh", "spectrum_zeta.eigsh"),
    (numpy.linalg, "eigvalsh", "spectrum_zeta.eigvalsh"),
    (scipy.sparse.linalg, "svds", "operators.svds"),
)
# Per-vertex methods, patched at class level and counted.
COUNTED_METHODS = (
    (operators.TestFunction, "__call__", "operators.testfn_calls"),
    (tree.TreeWindow, "center", "tree.center_calls"),
    (field_model.Center, "__init__", "field_model.centers_built"),
)


class Recorder:
    """Spans and counters of one request, kept in memory until written."""

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._tables: dict[int, object] = {}

    def add_span(self, name: str, start: float, end: float, **attrs) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent, **attrs})

    def timed(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(args, result)``
        may add attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = {"id": idx, "name": name, "start": time.perf_counter(),
                    "end": None, "parent": parent}
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span["end"] = time.perf_counter()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def root_table_attrs(self, args, table) -> dict:
        """Cache hit: the same RootTable object was returned before."""
        hit = id(table) in self._tables
        self._tables[id(table)] = table  # keep it alive so ids are not reused
        return {"cache_hit": hit, "roots": len(table.roots),
                "max_dps": max(table.dps_used, default=0)}

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"request": self.request_id, **span}) + "\n")
            fh.write(json.dumps({"request": self.request_id, "counters": self.counters}) + "\n")


def _matrix_size(args, _result) -> dict:
    return {"n": int(args[0].shape[0])}


def _window_size(args, _result) -> dict:
    return {"n": int(args[0].total)}


ATTRS = {
    "operators.assemble_DstarD": _window_size,
    "seminorms.check_norm_comparison": _window_size,
}


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "padiclab" or name.startswith("padiclab."))]


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` in every padiclab module binding it."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(rec: Recorder) -> None:
    """Install every wrapper; raise if a named function is gone."""
    for table, make in ((SPANS, "timed"), (COUNTED, "counted")):
        for mod_name, names in table.items():
            module = sys.modules[f"padiclab.{mod_name}"]
            for fn_name in names:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    raise RuntimeError(f"padiclab.{mod_name}.{fn_name} no longer exists")
                name = f"{mod_name}.{fn_name}"
                if make == "timed":
                    attrs = (rec.root_table_attrs if name == "qspecial.find_roots"
                             else ATTRS.get(name))
                    wrapper = rec.timed(name, original, attrs)
                else:
                    wrapper = rec.counted(f"{name}_calls", original)
                _rebind(original, wrapper)
    for module, attr, name in DEPENDENCIES:
        original = getattr(module, attr)
        setattr(module, attr, rec.timed(name, original, _matrix_size))
    for cls, attr, name in COUNTED_METHODS:
        original = cls.__dict__.get(attr)
        if original is None:
            raise RuntimeError(f"{cls.__qualname__}.{attr} no longer exists")
        setattr(cls, attr, rec.counted(name, original))


def main() -> int:
    spans_path, request_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    rec = Recorder(request_id)
    rec.add_span("cli.import", _T_START, _T_IMPORTED)
    install(rec)
    main_fn = rec.timed("cli.main", padiclab.cli.main)
    try:
        code = main_fn(argv)
    finally:
        rec.write(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
