"""End-to-end acceptance checks.

One test per shipped claim, each printing a single PASS/FAIL line with the
measured worst case next to the tolerance it must meet.  Parameter sets
cover the unramified base case (2,1,1), a larger residue prime (3,1,1),
ramification (2,2,1), and residue-field extension (2,1,2).
"""

import json
import math

import numpy as np
import pytest

from padiclab import (
    FieldParams,
    PoleError,
    check_norm_comparison,
    comparison_constants,
    eigvec_from_series,
    eigvec_recurrence,
    eigvec_tail_mass,
    find_roots,
    hs_double_sum,
    hs_norm_Dg_inverse,
    hs_total_partial,
    kernel_frobenius_norm,
    schatten_m_factor,
    schatten_partial,
    singular_values_window,
    tree_window_f,
    tree_window_r,
    upper_bracket,
    validate_spectrum,
    zeta_D0,
    zeta_DR,
    zeta_factor,
)
from padiclab import testfn_library as function_library
from padiclab.cli import main as cli_main

P211 = FieldParams(2, 1, 1)
P311 = FieldParams(3, 1, 1)
P221 = FieldParams(2, 2, 1)
P212 = FieldParams(2, 1, 2)
ALL_PARAMS = [P211, P311, P221, P212]

# Window depth per parameter set: the four-digit residue field (2,1,2) grows
# 4x per level, so a shallower window already carries enough structure.
DEPTHS = {(2, 1, 1): 10, (3, 1, 1): 10, (2, 2, 1): 10, (2, 1, 2): 6}


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def test_criterion_1_spectrum_matches_analytic_multiset():
    """The 8 smallest window eigenvalues must reproduce the analytic values
    p**(2m/e) * lambda_n with the exact multiplicity pattern, rel err < 1e-6."""
    tol = 1e-6
    failures = []
    worst = 0.0
    for params in ALL_PARAMS:
        depth = DEPTHS[(params.p, params.e, params.f)]
        rep = validate_spectrum(params, depth, k=8, tol=tol, with_drift=False)
        worst = max(worst, rep.max_rel_error)
        if not rep.passed:
            failures.append(f"{(params.p, params.e, params.f)}: {rep.failures()}")
    ok = not failures and worst < tol
    _report(1, "8 smallest eigenvalues match analytic multiset", ok,
            f"worst rel err {worst:.3e} vs tol {tol:.0e} across 4 parameter sets")
    assert ok, failures


def test_criterion_2_certified_roots_in_brackets():
    """Roots 1..20 of the spectral series: each inside its certified bracket
    with series residual below 1e-10."""
    tol = 1e-10
    worst_res = 0.0
    failures = []
    for params in ALL_PARAMS:
        table = find_roots(params, 19)
        values = table.values_float()
        for i, (val, res, (lo, hi)) in enumerate(
            zip(values, table.residuals, table.brackets)
        ):
            worst_res = max(worst_res, res)
            if res >= tol:
                failures.append(f"{(params.p, params.e, params.f)} root {i}: residual {res:.2e}")
            if not lo <= val <= hi:
                failures.append(f"{(params.p, params.e, params.f)} root {i}: outside bracket")
            ladder_hi = upper_bracket(params, i)
            ladder_lo = 0.0 if i == 0 else upper_bracket(params, i - 1)
            if not ladder_lo < val <= ladder_hi:
                failures.append(f"{(params.p, params.e, params.f)} root {i}: outside ladder")
        if not table.interlaced:
            failures.append(f"{(params.p, params.e, params.f)}: roots not interlaced")
    ok = not failures
    _report(2, "20 certified series roots per parameter set", ok,
            f"worst residual {worst_res:.3e} vs tol {tol:.0e}")
    assert ok, failures


def test_criterion_3_hilbert_schmidt_sums():
    """Per-block double sums equal the closed form to 1e-12 for m <= 10; the
    (2,1,1) total converges to 8/3; block totals stop decaying once ef >= 2."""
    failures = []
    worst_dev = 0.0
    for params in ALL_PARAMS:
        for m in range(11):
            closed = hs_norm_Dg_inverse(params, m)
            double = hs_double_sum(params, m)
            dev = abs(double - closed) / closed
            worst_dev = max(worst_dev, dev)
            if dev > 1e-12:
                failures.append(f"{(params.p, params.e, params.f)} m={m}: dev {dev:.2e}")

    total = hs_total_partial(P211, 60)
    total_dev = abs(total - 8.0 / 3.0) / (8.0 / 3.0)
    if total_dev > 1e-10:
        failures.append(f"(2,1,1) total {total!r} vs 8/3: dev {total_dev:.2e}")

    for params, expected in [(P212, 4.0 / 3.0), (P221, 2.0)]:
        prev_inc = None
        for m in range(1, 11):
            inc = hs_total_partial(params, m) - hs_total_partial(params, m - 1)
            if abs(inc - expected) > 1e-12 * expected:
                failures.append(
                    f"{(params.p, params.e, params.f)} increment m={m}: {inc!r}"
                )
            if prev_inc is not None and inc < prev_inc * (1.0 - 1e-9):
                failures.append(f"{(params.p, params.e, params.f)} increment decayed at m={m}")
            prev_inc = inc

    ok = not failures
    _report(3, "Hilbert-Schmidt block sums and totals", ok,
            f"worst closed-form dev {worst_dev:.3e} vs 1e-12; "
            f"(2,1,1) total dev {total_dev:.3e} vs 1e-10; ef>=2 increments constant")
    assert ok, failures


def test_criterion_4_seminorm_sandwich():
    """For every library function on depth-8 windows of all four parameter
    sets: lower * L1 <= L_D <= upper * L1 with the closed-form constants, and
    the row formula must equal the assembled commutator norm to 1e-8."""
    failures = []
    checked = 0
    for params in ALL_PARAMS:
        lower, upper = comparison_constants(params)
        root = float(params.p) ** (1.0 / params.e)
        pf = float(params.p) ** params.f
        assert lower == pytest.approx((root - 1.0) / (2.0 * root * math.sqrt(pf)), rel=1e-14)
        assert upper == pytest.approx(math.sqrt((pf - 1.0) / pf), rel=1e-14)
        window = tree_window_r(params, 8)
        for fn in function_library(params):
            rep = check_norm_comparison(window, fn, match_tol=1e-8)
            checked += 1
            if not rep.passed:
                failures.append(
                    f"{(params.p, params.e, params.f)} {fn.name}: "
                    f"L1={rep.L1_depthN!r} LD={rep.LD_formula_depthN!r} "
                    f"matrix={rep.commutator_norm_depthN!r}"
                )
    ok = not failures
    _report(4, "seminorm sandwich with closed-form constants", ok,
            f"{checked} function/parameter combinations at depth 8, match tol 1e-8")
    assert ok, failures


def test_criterion_5_eigenvector_dual_route():
    """At each of the 5 lowest roots: the propagated vector keeps relative
    tail mass < 1e-8 out to L=80, and matches the series reconstruction to
    rel 1e-8 at depths 2..10 after a single normalization."""
    failures = []
    worst_tail = 0.0
    worst_match = 0.0
    for params in ALL_PARAMS:
        table = find_roots(params, 4)
        for n, lam in enumerate(table.roots):
            phi = eigvec_recurrence(params, lam, 80)
            tail = eigvec_tail_mass(phi)
            worst_tail = max(worst_tail, tail)
            if tail >= 1e-8:
                failures.append(f"{(params.p, params.e, params.f)} root {n}: tail {tail:.2e}")
            ratio = phi[1] / eigvec_from_series(params, lam, 1)
            for l in range(2, 11):
                series_val = ratio * eigvec_from_series(params, lam, l)
                rel = abs(float(phi[l] - series_val)) / abs(float(series_val))
                worst_match = max(worst_match, rel)
                if rel >= 1e-8:
                    failures.append(
                        f"{(params.p, params.e, params.f)} root {n} depth {l}: rel {rel:.2e}"
                    )
    ok = not failures
    _report(5, "eigenvector recurrence vs series", ok,
            f"worst tail mass {worst_tail:.3e} vs 1e-8; worst depth match "
            f"{worst_match:.3e} vs 1e-8")
    assert ok, failures


def test_criterion_6_zeta_consistency():
    """The two zeta routes agree to 1e-12 away from poles, the pole sits
    exactly at s = ef/2, Schatten partial sums are Cauchy for s >= ef, and
    the multiplicity factor diverges for s <= ef/2."""
    failures = []
    worst_route = 0.0
    for params in ALL_PARAMS:
        half_ef = params.e * params.f / 2.0
        for ds in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0):
            s = half_ef + ds
            direct = zeta_DR(params, s, method="direct").value
            factored = zeta_factor(params, s) * zeta_D0(params, s).value
            rel = abs(direct - factored) / abs(factored)
            worst_route = max(worst_route, rel)
            if rel > 1e-12:
                failures.append(f"{(params.p, params.e, params.f)} s={s}: routes differ {rel:.2e}")
        # Pole flagged exactly at ef/2, from both routes.
        with pytest.raises(PoleError):
            zeta_factor(params, half_ef)
        with pytest.raises(PoleError):
            zeta_DR(params, half_ef, method="direct")
        # Multiplicity factor: finite just above ef/2, divergent at and below.
        assert schatten_m_factor(params, half_ef + 0.25) > 0
        for s in (half_ef, half_ef - 0.25):
            with pytest.raises(PoleError):
                schatten_m_factor(params, s)
        # Schatten partial sums Cauchy at s = ef and above: successive
        # truncation doublings must contract geometrically (or have already
        # converged to the float limit exactly).
        for s in (float(params.e * params.f), params.e * params.f + 1.0):
            p1 = schatten_partial(params, s, 10, 10)
            p2 = schatten_partial(params, s, 20, 20)
            p3 = schatten_partial(params, s, 40, 40)
            d12, d23 = abs(p2 - p1), abs(p3 - p2)
            if not (d23 == 0.0 or d23 <= 0.01 * d12):
                failures.append(
                    f"{(params.p, params.e, params.f)} s={s}: not Cauchy "
                    f"(d12={d12:.2e}, d23={d23:.2e})"
                )
    ok = not failures
    _report(6, "zeta dual route, pole location, Schatten summability", ok,
            f"worst route mismatch {worst_route:.3e} vs 1e-12; poles at ef/2 confirmed")
    assert ok, failures


def test_criterion_7_full_field_kernel():
    """Windowed inverse kernel on the full-field tree for (2,1,1): singular
    values decay, the HS norm is window-stable within 5%, and the regularized
    norm converges to the plain one as t -> 0+."""
    failures = []
    a = {t.name: t for t in function_library(P211)}["decay-quadratic"]
    w_small = tree_window_f(P211, 4, 8)
    w_big = tree_window_f(P211, 5, 9)

    sv = singular_values_window(w_small, a, 12)
    if not np.all(np.diff(sv) <= 1e-12 * sv[0]):
        failures.append(f"singular values not non-increasing: {sv!r}")
    if not sv[-1] < 0.8 * sv[0]:
        failures.append(f"singular values do not decay: {sv!r}")

    hs_small = kernel_frobenius_norm(w_small, a)
    hs_big = kernel_frobenius_norm(w_big, a)
    drift = abs(hs_big - hs_small) / hs_small
    if drift >= 0.05:
        failures.append(f"HS window drift {drift:.3%}")

    plain = kernel_frobenius_norm(w_small, a)
    ts = [10.0**-k for k in range(1, 8)]
    vals = [kernel_frobenius_norm(w_small, a, t=t) for t in ts]
    if not all(v2 > v1 - 1e-15 for v1, v2 in zip(vals, vals[1:])):
        failures.append(f"regularized norms not monotone in t: {vals!r}")
    final_rel = abs(vals[-1] - plain) / plain
    if final_rel >= 1e-4:
        failures.append(f"t->0 limit off by {final_rel:.2e}")

    ok = not failures
    _report(7, "full-field windowed kernel", ok,
            f"window drift {drift:.3e} vs 0.05; t->0 limit rel {final_rel:.3e} vs 1e-4")
    assert ok, failures


def test_criterion_8_deterministic_outputs(tmp_path):
    """Identical configuration and seed must produce byte-identical output
    files, for every subcommand and both formats."""
    runs = {
        "spectrum.json": ["spectrum", "--p", "2", "--e", "1", "--f", "1"],
        "spectrum.csv": ["spectrum", "--p", "2", "--e", "1", "--f", "1",
                          "--format", "csv"],
        "zeta.json": ["zeta", "--p", "2", "--e", "1", "--f", "2",
                       "--s-min", "1", "--s-max", "4", "--s-step", "0.5"],
        "validate.json": ["validate", "--p", "2", "--e", "1", "--f", "1",
                           "--depth", "6", "--k", "4", "--no-drift",
                           "--seminorm-depth", "5", "--tol", "1e-2"],
    }
    failures = []
    for name, argv in runs.items():
        first = tmp_path / f"first-{name}"
        second = tmp_path / f"second-{name}"
        rc1 = cli_main(argv + ["--seed", "0", "--out", str(first)])
        rc2 = cli_main(argv + ["--seed", "0", "--out", str(second)])
        if rc1 != 0 or rc2 != 0:
            failures.append(f"{name}: exit codes {rc1}/{rc2}")
            continue
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{name}: outputs differ between identical runs")
        if name.endswith(".json"):
            json.loads(first.read_text())  # well-formed
    ok = not failures
    _report(8, "byte-identical reruns", ok,
            f"{len(runs)} command/format combinations compared")
    assert ok, failures
