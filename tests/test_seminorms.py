"""Lipschitz seminorm, spectral seminorm formula, and the comparison sandwich."""

import math
import random

import numpy as np
import pytest

from padiclab import (
    Center,
    FieldParams,
    check_norm_comparison,
    commutator_norm,
    comparison_constants,
    lipschitz_depth,
    pi_power,
    rho_diag,
    spectral_seminorm_formula,
    tree_window_f,
    tree_window_r,
)
from padiclab import TestFunction as PointFunction  # aliased so pytest does not collect it
from padiclab import testfn_library as function_library

P211 = FieldParams(2, 1, 1)
P311 = FieldParams(3, 1, 1)
P221 = FieldParams(2, 2, 1)
P212 = FieldParams(2, 1, 2)
ALL_PARAMS = [P211, P311, P221, P212]
GRID = ALL_PARAMS + [FieldParams(3, 2, 1), FieldParams(5, 1, 1)]


# ---------------------------------------------------------------------------
# Per-point reference: the library as closures on one Center at a time, and
# the per-vertex diagonal and row formula built on it.
# ---------------------------------------------------------------------------


def _dist_to_point(x, c_digits, params):
    length = max(len(x.digits), len(c_digits))
    for j in range(length):
        xd = x.digits[j] if j < len(x.digits) else 0
        cd = c_digits[j] if j < len(c_digits) else 0
        if xd != cd:
            return params.scale_float(-(x.start + j))
    return 0.0


def _ball_indicator(prefix):
    def ev(x):
        for j, d in enumerate(prefix):
            xd = x.digits[j] if j < len(x.digits) else 0
            if xd != d:
                return 0.0
        return 1.0

    return ev


def _random_locally_constant(params, depth, seed):
    draw = random.Random(seed).random
    table = [draw() for _ in range(params.q_res**depth)]

    def ev(x):
        rank = 0
        for j in range(depth):
            xd = x.digits[j] if j < len(x.digits) else 0
            rank = rank * params.q_res + xd
        return float(table[rank])

    return ev


def _norm_float(x):
    """``|x| = p**(-l/e)``, ``l`` the index of the first nonzero digit; 0 for zero."""
    return _dist_to_point(x, (), x.params)


def _decay(alpha):
    return lambda x: 1.0 / (1.0 + _norm_float(x) ** alpha)


def _reference_library(params):
    return {
        "const-1": lambda x: 1.0,
        "abs": _norm_float,
        "abs-shift-1": lambda x: _dist_to_point(x, (1,), params),
        "abs-shift-pi": lambda x: _dist_to_point(x, (0, 1), params),
        "abs-shift-1+pi2": lambda x: _dist_to_point(x, (1, 0, 1), params),
        "ball-0-depth1": _ball_indicator((0,)),
        "ball-pi-depth2": _ball_indicator((0, 1)),
        "ball-1-depth3": _ball_indicator((1, 0, 0)),
        "rand-depth3-seed7": _random_locally_constant(params, 3, 7),
        "rand-depth4-seed11": _random_locally_constant(params, 4, 11),
        "decay-quadratic": _decay(2.0),
        "decay-ef": _decay(float(params.ef)),
    }


def _reference_rho(window, ev):
    out = []
    for n in window.levels:
        out.append(ev(pi_power(window.params, n, n + 1, start=window.min_level)))
        out.extend(ev(window.center(n, rank)) for rank in range(1, window.level_size(n)))
    return np.array(out)


def _reference_formula(window, ev):
    params = window.params
    q = params.q_res
    best_sq = 0.0
    for n in range(window.min_level, window.max_level):
        weight = params.scale_float(2 * n)
        for rank in range(1, window.level_size(n)):
            x = window.center(n, rank)
            ax = ev(x)
            row = 0.0
            for digit in range(q):
                row += (ax - ev(Center(params, window.min_level, x.digits + (digit,)))) ** 2
            best_sq = max(best_sq, row / q * weight)
        a_zero = ev(pi_power(params, n, n + 1, start=window.min_level))
        d_next = a_zero - ev(pi_power(params, n + 1, n + 2, start=window.min_level))
        sib_sq = 0
        for digit in range(1, q):
            sib = Center(params, window.min_level, (0,) * (n - window.min_level) + (digit,))
            d = a_zero - ev(sib)
            sib_sq += d * d
        best_sq = max(best_sq, (d_next**2 + sib_sq) / q * weight)
    return float(np.sqrt(best_sq))


def _windows(params):
    return [tree_window_r(params, 4), tree_window_f(params, 2, 2)]


class TestLevelProtocol:
    @pytest.mark.parametrize("params", GRID)
    def test_evaluator_matches_reference(self, params):
        ref = _reference_library(params)
        for w in _windows(params):
            for fn in function_library(params):
                for n in w.levels:
                    width = n - w.min_level
                    ranks = np.arange(w.level_size(n), dtype=np.int64)
                    got = fn.evaluator(w.min_level, width, ranks)
                    want = [ref[fn.name](w.center(n, int(r))) for r in ranks]
                    assert got.tolist() == want, (fn.name, w.min_level, n)

    @pytest.mark.parametrize("params", GRID)
    def test_rho_diag_matches_reference(self, params):
        ref = _reference_library(params)
        for w in _windows(params):
            for fn in function_library(params):
                assert rho_diag(w, fn).tolist() == _reference_rho(w, ref[fn.name]).tolist()

    @pytest.mark.parametrize("params", GRID)
    def test_formula_bit_identical_to_reference(self, params):
        ref = _reference_library(params)
        for w in _windows(params):
            for fn in function_library(params):
                got = spectral_seminorm_formula(w, fn)
                assert got == _reference_formula(w, ref[fn.name]), (fn.name, w.min_level)

    def test_formula_squares_as_float_pow(self):
        """Squares are ``float ** 2``, as in the per-vertex sum; ``d * d``
        differs in the last bit for this ``d``, and the difference survives
        the square root."""
        d = 0.6338474307452783
        unit_sphere = PointFunction(
            name="unit-sphere",
            evaluator=lambda start, width, ranks: np.where(ranks >= 2 ** (width - 1), d, 0.0),
        )
        got = spectral_seminorm_formula(tree_window_r(P211, 1), unit_sphere)
        assert got == math.sqrt(d**2 / 2)
        assert got != math.sqrt(d * d / 2)

    def test_formula_sums_digit_terms_in_order(self):
        """The zero row adds its digit-0 term in front of the digit-1..q-1
        terms summed in order, as the per-vertex sum did; a left-to-right
        row sum differs in the last bit here."""
        by_first_digit = np.array([0.066, 0.626, 0.013, 0.837])
        first_digit = PointFunction(
            name="first-digit",
            evaluator=lambda start, width, ranks: by_first_digit[ranks // 4 ** (width - 1)],
        )
        got = spectral_seminorm_formula(tree_window_r(P212, 1), first_digit)
        t0, t2, t3 = [(0.626 - v) ** 2 for v in (0.066, 0.013, 0.837)]
        assert got == math.sqrt((t0 + (t2 + t3)) / 4)
        assert got != math.sqrt((t0 + t2 + t3) / 4)

    def test_one_point_call(self):
        ref = _reference_library(P311)
        lib = _lib(P311)
        for digits in [(), (0, 0), (0, 2, 1), (1, 0, 1, 0), (2, 2, 2, 2, 1)]:
            x = Center(P311, -1, digits)
            for name, ev in ref.items():
                assert lib[name](x) == ev(x), (name, digits)


def _lib(params):
    return {t.name: t for t in function_library(params)}


class TestComparisonConstants:
    def test_frozen_values(self):
        lower, upper = comparison_constants(P211)
        assert lower == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)), rel=1e-15)
        assert upper == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_closed_forms(self, params):
        lower, upper = comparison_constants(params)
        root = float(params.p) ** (1.0 / params.e)
        pf = float(params.p) ** params.f
        assert lower == pytest.approx((root - 1.0) / (2.0 * root * math.sqrt(pf)), rel=1e-14)
        assert upper == pytest.approx(math.sqrt((pf - 1.0) / pf), rel=1e-14)
        assert 0.0 < lower < upper < 1.0


def _all_pairs_lipschitz(window, fn):
    """``|a(x) - a(y)| * p**(l/e)`` maximised over every pair of deepest-level
    points, ``l`` the level where the pair meets: the centers (rank 0 is the
    zero element) and the stand-in ``pi**N``, which meets zero at level ``N``."""
    params, q = window.params, window.params.q_res
    width = window.max_level - window.min_level
    ranks = np.arange(q**width, dtype=np.int64)
    values = fn.evaluator(window.min_level, width, ranks)
    stand_in = fn.evaluator(window.min_level, width + 1, np.ones(1, dtype=np.int64))
    ranks, values = np.append(ranks, 0), np.append(values, stand_in)
    i, j = np.triu_indices(len(ranks), k=1)
    common = np.zeros(len(i), dtype=np.int64)
    for k in range(1, width + 1):
        common += ranks[i] // q ** (width - k) == ranks[j] // q ** (width - k)
    weights = np.array([params.scale_float(window.min_level + c) for c in range(width + 1)])
    return float(np.max(np.abs(values[i] - values[j]) * weights[common]))


def _oracle_windows(params, max_points=300):
    """Unit windows and the enlarged window ``(2, 2)`` with at most
    ``max_points`` deepest-level points."""
    windows = [tree_window_r(params, N) for N in range(1, 10)] + [tree_window_f(params, 2, 2)]
    return [w for w in windows if w.level_size(w.max_level) <= max_points]


class TestLipschitzDepth:
    @pytest.mark.parametrize("params", GRID)
    def test_matches_all_pairs(self, params):
        for w in _oracle_windows(params):
            for fn in function_library(params):
                got = lipschitz_depth(w, fn)
                assert got == _all_pairs_lipschitz(w, fn), (fn.name, w.min_level, w.max_level)

    def test_frozen_values(self):
        w = tree_window_r(P211, 8)
        lib = _lib(P211)
        assert lipschitz_depth(w, lib["abs"]) == 1.0
        assert lipschitz_depth(w, lib["const-1"]) == 0.0
        assert lipschitz_depth(w, lib["ball-pi-depth2"]) == 2.0

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_matches_known_seminorms(self, params):
        w = tree_window_r(params, 8)
        for fn in function_library(params):
            if fn.known_lipschitz is not None:
                got = lipschitz_depth(w, fn)
                assert got == pytest.approx(fn.known_lipschitz, rel=1e-12), fn.name

    def test_monotone_in_depth(self):
        # Deeper windows see more point pairs, so the estimate cannot drop.
        lib = _lib(P311)
        vals = [
            lipschitz_depth(tree_window_r(P311, N), lib["rand-depth3-seed7"])
            for N in (4, 6, 8)
        ]
        assert vals[0] <= vals[1] <= vals[2]


class TestSpectralFormula:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_formula_matches_assembled_matrix(self, params):
        w = tree_window_r(params, 6)
        for fn in function_library(params):
            formula = spectral_seminorm_formula(w, fn)
            matrix = commutator_norm(w, fn)
            assert formula == pytest.approx(matrix, rel=1e-10, abs=1e-12), fn.name

    def test_vanishes_only_for_constants(self):
        w = tree_window_r(P212, 5)
        for fn in function_library(P212):
            val = spectral_seminorm_formula(w, fn)
            if fn.name == "const-1":
                assert val == 0.0
            else:
                assert val > 0.0, fn.name


class TestSandwich:
    def test_frozen_report(self):
        w = tree_window_r(P211, 8)
        rep = check_norm_comparison(w, _lib(P211)["abs"])
        assert rep.passed
        assert rep.sandwich_passed and rep.formula_matches_matrix
        assert rep.L1_depthN == 1.0
        assert rep.LD_formula_depthN == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)
        assert rep.commutator_norm_depthN == pytest.approx(rep.LD_formula_depthN, rel=1e-8)
        assert rep.lower_constant == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)), rel=1e-14)

    @pytest.mark.parametrize("params", [P211, P311])
    def test_library_sandwich_quick(self, params):
        w = tree_window_r(params, 6)
        lower, upper = comparison_constants(params)
        for fn in function_library(params):
            rep = check_norm_comparison(w, fn)
            assert rep.passed, fn.name
            slack = 1e-12 * max(1.0, rep.L1_depthN)
            assert rep.LD_formula_depthN >= lower * rep.L1_depthN - slack
            assert rep.LD_formula_depthN <= upper * rep.L1_depthN + slack


class TestLibrary:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_coverage(self, params):
        lib = function_library(params)
        names = [t.name for t in lib]
        assert len(names) == len(set(names))
        assert len(names) >= 10
        assert "const-1" in names and "abs" in names
        decays = {t.name: t.decay_alpha for t in lib if t.decay_alpha is not None}
        assert decays["decay-quadratic"] == 2.0
        assert decays["decay-ef"] == float(params.e * params.f)

    @pytest.mark.parametrize("params", GRID)
    def test_random_tables_are_prefixes_of_the_seeded_stream(self, params):
        """Each random table is the first ``q_res**depth`` values of
        ``random.Random(seed).random()``, a stream fixed across Python versions."""
        lib = _lib(params)
        for depth, seed in [(3, 7), (4, 11)]:
            size = params.q_res**depth
            got = lib[f"rand-depth{depth}-seed{seed}"].evaluator(0, depth, np.arange(size))
            draw = random.Random(seed).random
            assert got.tolist() == [draw() for _ in range(size)]

    def test_deterministic_random_entries(self):
        a = _lib(P211)["rand-depth3-seed7"]
        b = _lib(P211)["rand-depth3-seed7"]
        w = tree_window_r(P211, 5)
        for n in w.levels:
            for rank in range(w.level_size(n)):
                c = w.center(n, rank)
                assert a(c) == b(c)
