"""Command-line interface: spectrum tables, validation suite, zeta grids.

Subcommands
===========

``spectrum``
    Emit the analytic eigenvalue table (columns ``m, n, lambda, value,
    multiplicity``, sorted by value).

``validate``
    Run the cross-validation suite — truncated-window spectrum checks,
    Hilbert–Schmidt closed-form checks, and the seminorm comparisons — and
    exit 0 only if every gated check passes (informational rows report the
    depth-drift figures).  The rows are built in :mod:`padiclab.validation`,
    which refuses a window over its ``MAX_WINDOW_VERTICES`` before anything
    is assembled.

``zeta``
    Evaluate the full-spectrum zeta on a real s-grid (columns ``re_s, im_s,
    re_zeta, im_zeta, tail_bound, n_roots_used, pole``); grid points at the
    real-axis pole are flagged, not fatal.

All commands accept ``--format json|csv`` and ``--out PATH`` (default: the
directory named by ``PADICLAB_OUTDIR``, else stdout); a path that cannot be
written is a configuration error.  Machine output goes to stdout or the file
only; diagnostics go to stderr.  Identical configuration and seed produce
byte-identical output.

Exit codes: 0 success; 1 configuration error (including a field outside the
float model, a window, a random test-function table, a multiplicity's digits
or an s-grid over its limit, a ``--k`` over the spectrum window's vertices, a
zeta value outside the float range, and an output path that cannot be
written); 2 numerical failure (uncertifiable root bracket, a Sturm count that
did not end within its row cap, series tolerance not met, window cutoff too
low); 3 validation failure.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from typing import Any

from . import __version__
from .field_model import FieldParams
from .qspecial import BracketError, SeriesError
from .spectrum_zeta import CutoffError, PoleError, full_spectrum, zeta_DR

# The validation module, and through it numpy and the tree, operators and
# seminorms modules, is imported by ``validate`` alone, when it runs:
# spectrum and zeta never load it.  ``json`` and ``csv`` are imported by the
# output format that uses them.

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3

# Most s-grid points that ``zeta`` evaluates.
MAX_ZETA_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config error code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _checked(convert, valid, rule: str):
    """Argument type: ``convert(text)``, rejected unless ``valid`` (``must be rule``)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            message = f"invalid {convert.__name__} value: {text!r}"
            raise argparse.ArgumentTypeError(message) from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


_COUNT = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_FINITE = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")


def _build_parser() -> _Parser:
    parser = _Parser(prog="padiclab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", type=int, required=True, help="residue characteristic (prime)")
        p.add_argument("--e", type=int, required=True, help="ramification index")
        p.add_argument("--f", type=int, required=True, help="residue degree")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, default=None, help="output file path")
        p.add_argument("--seed", type=int, default=0, help="recorded in output metadata")

    sp = sub.add_parser("spectrum", help="analytic eigenvalue table")
    add_common(sp)
    sp.add_argument("--m-max", type=_COUNT, default=3)
    sp.add_argument("--n-max", type=_COUNT, default=5)
    sp.add_argument("--root-tol", type=_POSITIVE, default=1e-10)

    va = sub.add_parser("validate", help="cross-validation suite")
    add_common(va)
    va.add_argument("--depth", type=_POSITIVE_INT, default=10, help="window depth N")
    va.add_argument("--k", type=_POSITIVE_INT, default=8, help="eigenvalues compared")
    va.add_argument("--tol", type=_POSITIVE, default=1e-6)
    va.add_argument("--seminorm-depth", type=_POSITIVE_INT, default=8)
    va.add_argument("--no-drift", action="store_true", help="skip N+2 drift figures")

    ze = sub.add_parser("zeta", help="zeta values on a real s-grid")
    add_common(ze)
    ze.add_argument("--s-min", type=_FINITE, default=1.0)
    ze.add_argument("--s-max", type=_FINITE, default=8.0)
    ze.add_argument("--s-step", type=_POSITIVE, default=1.0)
    ze.add_argument("--n-roots", type=int, default=25)
    return parser


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _format_float(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(
    args: argparse.Namespace,
    command: str,
    results: list[dict[str, Any]],
    columns: list[str],
    tolerances: dict[str, float],
) -> None:
    payload = {
        "params": {"p": args.p, "e": args.e, "f": args.f},
        "command": command,
        "results": results,
        "meta": {"version": __version__, "seed": args.seed, "tolerances": tolerances},
    }
    if args.format == "json":
        import json

        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in results:
            writer.writerow([_format_float(row.get(c)) for c in columns])
        text = buf.getvalue()
    out_path = args.out
    if out_path is None:
        outdir = os.environ.get("PADICLAB_OUTDIR")
        if outdir:
            ext = "json" if args.format == "json" else "csv"
            out_path = os.path.join(outdir, f"{command}.{ext}")
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from None
        print(f"wrote {out_path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args: argparse.Namespace, params: FieldParams) -> int:
    table = full_spectrum(params, m_max=args.m_max, n_max=args.n_max, target_tol=args.root_tol)
    results = [
        {
            "m": row.m,
            "n": row.n,
            "lambda": row.lam,
            "value": row.value,
            "multiplicity": row.multiplicity,
        }
        for row in table.rows
    ]
    _emit(
        args,
        "spectrum",
        results,
        ["m", "n", "lambda", "value", "multiplicity"],
        {"root_residual": args.root_tol},
    )
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace, params: FieldParams) -> int:
    from .seminorms import MATCH_TOL
    from .validation import _check_window_budget, _validate_rows

    _check_window_budget(args, params)
    rows, ok = _validate_rows(args, params)
    _emit(
        args,
        "validate",
        [row._asdict() for row in rows],
        ["name", "passed", "measured", "tolerance", "detail"],
        {"eigenvalue_rel": args.tol, "hs_closed": 1e-12, "seminorm_match": MATCH_TOL},
    )
    if not ok:
        print("validation failed:", file=sys.stderr)
        for row in rows:
            if not row.passed:
                detail = f" ({row.detail})" if row.detail else ""
                print(f"  {row.name}: measured {row.measured}{detail}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _zeta_points(args: argparse.Namespace) -> float:
    """Number of s-grid points, ``inf`` when the grid's span overflows."""
    span = (args.s_max - args.s_min) / args.s_step
    return math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf


def _cmd_zeta(args: argparse.Namespace, params: FieldParams) -> int:
    count = _zeta_points(args)
    results = []
    for i in range(count):
        s = args.s_min + i * args.s_step
        try:
            z = zeta_DR(params, s, n_roots=args.n_roots)
        except PoleError:
            z = None
        results.append(
            {
                "re_s": float(s),
                "im_s": 0.0,
                "re_zeta": None if z is None else z.value.real,
                "im_zeta": None if z is None else z.value.imag,
                "tail_bound": None if z is None else z.tail_bound,
                "n_roots_used": args.n_roots,
                "pole": z is None,
            }
        )
    _emit(
        args,
        "zeta",
        results,
        ["re_s", "im_s", "re_zeta", "im_zeta", "tail_bound", "n_roots_used", "pole"],
        {},
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # An exact multiplicity p**(m f) - p**((m-1) f) can have more digits than
    # CPython (3.11 and later) converts to str by default; lift that limit
    # while the command runs.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "zeta":
            if args.s_max < args.s_min:
                parser.error("argument --s-max: must be >= --s-min")
            points = _zeta_points(args)
            if points == math.inf:
                parser.error("argument --s-max: the span from --s-min is not finite")
            if points > MAX_ZETA_POINTS:
                parser.error(f"argument --s-step: the s-grid has {points} points, "
                             f"over the limit of {MAX_ZETA_POINTS}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = FieldParams(p=args.p, e=args.e, f=args.f)  # p prime, e and f >= 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    commands = {"spectrum": _cmd_spectrum, "validate": _cmd_validate, "zeta": _cmd_zeta}
    try:
        return commands[args.command](args, params)
    except (BracketError, SeriesError, CutoffError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
