"""Base-q hypergeometric series, certified roots, and eigenvector routes."""

import math

import mpmath as mp
import numpy as np
import pytest

from padiclab import (
    BracketError,
    FieldParams,
    SeriesError,
    eigvec_from_series,
    eigvec_recurrence,
    eigvec_series_c,
    eigvec_tail_mass,
    find_roots,
    jacobi_D0,
    jacobi_lowest_eigs,
    phi11,
    phi11_derivative,
    upper_bracket,
)
from padiclab import qspecial
from padiclab.operators import _sturm_counter

P211 = FieldParams(2, 1, 1)
P311 = FieldParams(3, 1, 1)
P221 = FieldParams(2, 2, 1)
P212 = FieldParams(2, 1, 2)
ALL_PARAMS = [P211, P311, P221, P212]

# Root values certified by high-precision bisection + Newton polish and
# frozen here as regression oracles (first entries of each table).
FROZEN_ROOTS = {
    (2, 1, 1): [0.6931022917, 3.973686398, 15.99987801, 63.99999997],
    (3, 1, 1): [0.876728734, 8.998271537, 80.99999973],
    (2, 2, 1): [0.3438704524, 1.696578821, 3.960531832, 7.999023609, 15.99999529],
}


# Float roots (``repr``) from the per-term recurrence evaluator below, with
# the search run at full precision.  The coefficient-table kernel and the
# low-precision search must reproduce them bit for bit.
EXACT_ROOTS = {
    (3, 1, 1): (
        0.8767287339708753, 8.998271537198672, 80.99999972883097, 728.9999999999994,
        6561.0, 59049.0, 531441.0, 4782969.0, 43046721.0, 387420489.0, 3486784401.0,
        31381059609.0, 282429536481.0, 2541865828329.0, 22876792454961.0,
        205891132094649.0, 1853020188851841.0, 1.6677181699666568e+16,
        1.5009463529699914e+17, 1.350851717672992e+18, 1.2157665459056929e+19,
    ),
    (2, 2, 1): (
        0.3438704523794896, 1.6965788205582684, 3.960531832134273, 7.999023608598318,
        15.999995291406833, 31.99999999492412, 63.9999999999987, 128.0, 256.0, 512.0,
        1024.0, 2048.0, 4096.0, 8192.0, 16384.0, 32768.0,
    ),
}

# One parameter set for each base q = p**(-2/e) of the benchmark's root pool:
# 1/4, 1/2, 1/9, 1/3, 1/25 and 1/49.  (5, 1, 2) stands for (5, 1, 1), whose
# cache another test needs cold; f does not enter q.
KERNEL_PARAMS = [FieldParams(2, 1, 1), P221, P311, FieldParams(3, 2, 1),
                 FieldParams(5, 1, 2), FieldParams(7, 1, 1)]


def _reference_sum(q, z, derivative=False, max_terms=2000):
    """The per-term recurrence: each term from the last through a fresh
    ``q**(n-1)`` and ``(1 - q**n)**2``.  Same tail rule as :func:`phi11`.

    Returns the sum and its largest term magnitude.
    """
    target_tol = mp.mpf(10) ** (-(mp.mp.dps - 5))
    term = mp.mpf(1)
    total = mp.mpf(0) if derivative else mp.mpf(1)
    prev_mag = largest = abs(term)
    for n in range(1, max_terms + 1):
        term = term * (-z) * q ** (n - 1) / (1 - q**n) ** 2
        contrib = n * term / z if derivative else term
        total += contrib
        mag = abs(contrib)
        largest = max(largest, mag)
        if mag < target_tol * max(1, abs(total)) and mag <= prev_mag:
            return total, largest
        prev_mag = mag
    raise AssertionError("reference series did not converge")


def _series_base(params: FieldParams) -> mp.mpf:
    return mp.power(params.p, -mp.mpf(2) / params.e)


class TestPhi11:
    def test_value_at_zero(self):
        assert phi11(0.25, 0.0) == 1

    def test_base_domain(self):
        with pytest.raises(ValueError):
            phi11(1.5, 0.3)
        with pytest.raises(ValueError):
            phi11(0.0, 0.3)

    def test_series_error_on_term_budget(self):
        with pytest.raises(SeriesError):
            phi11(0.25, 50.0, max_terms=3)

    def test_derivative_matches_finite_difference(self):
        q, z = 0.25, 0.7
        h = 1e-7
        with mp.workdps(40):
            fd = (phi11(q, z + h) - phi11(q, z - h)) / (2 * h)
            d = phi11_derivative(q, z)
        assert float(d) == pytest.approx(float(fd), rel=1e-6)

    def test_derivative_at_zero(self):
        # F'(0) is the first coefficient, -1/(1-q)**2.
        assert phi11_derivative(0.25, 0.0) == -1 / mp.mpf(0.75) ** 2

    def test_sign_change_across_first_root(self):
        # The series starts at 1 for small z and is negative past the first root.
        assert phi11(0.25, 0.01) > 0
        assert phi11(0.25, 1.0) < 0


class TestKernelMatchesReference:
    @pytest.mark.parametrize("dps", [30, 100, 400])
    @pytest.mark.parametrize("params", KERNEL_PARAMS, ids=str)
    def test_value_and_derivative(self, params, dps):
        roots = find_roots(params, 5).roots
        with mp.workdps(dps):
            q = _series_base(params)
            for root in roots:
                for z in (+root, root * (1 - mp.mpf(10) ** -3), root * (1 + mp.mpf(10) ** -3)):
                    for fn, derivative in ((phi11, False), (phi11_derivative, True)):
                        want, largest = _reference_sum(q, z, derivative)
                        got = fn(q, z)
                        assert abs(got - want) <= mp.mpf(10) ** (-(dps - 10)) * largest


class TestBrackets:
    def test_frozen_bracket(self):
        assert upper_bracket(P211, 1) == 4.0
        assert upper_bracket(P211, 0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            upper_bracket(P211, -1)


class TestFindRoots:
    @pytest.mark.parametrize("key", sorted(FROZEN_ROOTS))
    def test_frozen_tables(self, key):
        params = FieldParams(*key)
        frozen = FROZEN_ROOTS[key]
        table = find_roots(params, len(frozen) - 1)
        for got, want in zip(table.values_float(), frozen):
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_certified(self, params):
        table = find_roots(params, 5)
        values = table.values_float()
        assert all(r < 1e-10 for r in table.residuals)
        assert all(lo <= v <= hi for v, (lo, hi) in zip(values, table.brackets))
        assert list(values) == sorted(values)
        # Interlacing with the geometric bracket ladder.
        for n in range(1, 6):
            assert upper_bracket(params, n - 1) < values[n] <= upper_bracket(params, n)

    @pytest.mark.parametrize("key", sorted(EXACT_ROOTS))
    def test_float_roots_bit_exact(self, key):
        frozen = EXACT_ROOTS[key]
        table = find_roots(FieldParams(*key), len(frozen) - 1)
        assert tuple(float(r) for r in table.roots) == frozen

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_brackets_hold_full_precision_sign_change(self, params):
        table = find_roots(params, 19)
        for n, (root, (lo, hi), dps) in enumerate(
            zip(table.roots, table.brackets, table.dps_used)
        ):
            assert lo <= root <= hi, n
            with mp.workdps(dps):
                q = _series_base(params)
                assert mp.sign(phi11(q, lo)) * mp.sign(phi11(q, hi)) == -1, n

    def test_direct_residual(self):
        table = find_roots(P211, 2)
        with mp.workdps(60):
            q = _series_base(P211)
            for root in table.roots:
                assert abs(phi11(q, root)) < 1e-10

    def test_cache_reuse_and_extension(self, monkeypatch):
        monkeypatch.setattr(qspecial, "_ROOT_CACHE", qspecial._RootCache(qspecial.ROOT_CACHE_SIZE))
        params = FieldParams(5, 1, 1)
        t1 = find_roots(params, 1)
        t2 = find_roots(params, 1)
        assert t1 is t2
        t3 = find_roots(params, 3)
        assert t3.roots[: len(t1.roots)] == t1.roots
        t4 = find_roots(params, 2)  # shorter request: a prefix of the cache
        assert t4.roots == t3.roots[:3]
        assert t4.brackets == t3.brackets[:3]
        assert t4.dps_used == t3.dps_used[:3]
        assert find_roots(params, 3) is t3

    def test_cache_evicts_least_recently_used(self, monkeypatch):
        cache = qspecial._RootCache(2)
        monkeypatch.setattr(qspecial, "_ROOT_CACHE", cache)
        a, b, c = FieldParams(2, 1, 1), FieldParams(3, 1, 1), FieldParams(5, 1, 1)
        ta = find_roots(a, 2)
        tb = find_roots(b, 2)
        assert find_roots(a, 2) is ta  # a is now the most recently used
        find_roots(c, 2)  # evicts b
        assert len(cache) == 2
        assert find_roots(a, 2) is ta
        tb_again = find_roots(b, 2)
        assert tb_again is not tb
        assert tb_again.roots == tb.roots and tb_again.brackets == tb.brackets
        assert len(cache) == 2

    def test_interlaced(self):
        for params in ALL_PARAMS:
            assert find_roots(params, 5).interlaced
        # At q = 2**(-2/3) ~ 0.63, lambda_1 ~ 0.984 lies below q**-0 = 1.
        table = find_roots(FieldParams(2, 3, 1), 1)
        assert float(table.roots[1]) < 1.0
        assert not table.interlaced

    def test_target_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            find_roots(P211, 2, target_tol=0.0)

    def test_unsettled_seed_refused(self):
        # q = 2**(-1/25) ~ 0.973: the truncated Jacobi spectrum still moves
        # at the largest order the seed may use.
        with pytest.raises(BracketError, match="did not settle"):
            find_roots(FieldParams(2, 50, 1), 5)

    def test_returns_exactly_the_requested_roots(self):
        long = find_roots(P211, 6)
        for n_max in range(7):
            table = find_roots(P211, n_max)
            assert table.n_max == n_max
            assert len(table.residuals) == len(table.brackets) == len(table.dps_used) == n_max + 1
            assert table.roots == long.roots[: n_max + 1]


# Every p in {2, 3, 5, 7}, e in 1..8, f in 1..2: q = p**(-2/e) from 1/49 up
# to 0.84, well past the 0.6 where geometric interlacing stops holding.
GRID = [FieldParams(p, e, f) for p in (2, 3, 5, 7) for e in range(1, 9) for f in (1, 2)]


def _settled_order(params: FieldParams) -> int:
    """A Jacobi order whose roots 0..5 match the series roots to about 1e-16:
    the truncation error of root ``n`` falls roughly like ``Q**-(L-n)``."""
    return 10 + math.ceil(16 / math.log10(params.Q))


class TestParameterGrid:
    @pytest.mark.parametrize("params", GRID, ids=str)
    def test_roots_certified_and_match_sturm_oracle(self, params):
        table = find_roots(params, 5)
        assert table.n_max == 5
        for n, (root, res, (lo, hi), dps) in enumerate(
            zip(table.roots, table.residuals, table.brackets, table.dps_used)
        ):
            assert res < 1e-10, n
            assert lo <= root <= hi, n
            with mp.workdps(dps):
                q = _series_base(params)
                assert mp.sign(phi11(q, lo)) * mp.sign(phi11(q, hi)) == -1, n
        # The oracle's eigenvalue n lies within 1e-13 relative of the float
        # root iff the Sturm count there steps from n to n + 1.
        count_below, _, _ = _sturm_counter(params, _settled_order(params))
        for n, value in enumerate(table.values_float()):
            assert count_below(value * (1 - 1e-13)) == n
            assert count_below(value * (1 + 1e-13)) == n + 1

    @pytest.mark.parametrize("params", [P311, P221, FieldParams(2, 3, 1), FieldParams(2, 8, 1)],
                             ids=str)
    def test_float_sturm_count_matches_exact_count(self, params):
        L = _settled_order(params)
        count_below, _, _ = _sturm_counter(params, L)
        eigs = np.linalg.eigvalsh(jacobi_D0(params, L))[:8]
        points = np.concatenate(([0.0, 1e-3], np.sqrt(eigs[:-1] * eigs[1:]), eigs * 1.5))
        got = qspecial._sturm_counts(params, L, points)
        assert got.tolist() == [count_below(x) for x in points]
        assert got[2:9].tolist() == list(range(1, 8))

    def test_oracle_eigenvalues_beyond_interlacing(self):
        params = FieldParams(2, 3, 1)
        got = find_roots(params, 5).values_float()
        L = _settled_order(params)
        exact = np.array([float(v) for v in jacobi_lowest_eigs(params, L, count=6)])
        assert np.max(np.abs(got - exact) / exact) <= 1e-13

    @pytest.mark.parametrize("params", [FieldParams(2, 3, 1), FieldParams(3, 6, 1)], ids=str)
    def test_float_seed_is_the_root(self, params):
        """The settled float eigenvalues are the certified roots to a few ulps."""
        got = find_roots(params, 5).values_float()
        seeds = np.linalg.eigvalsh(jacobi_D0(params, _settled_order(params)))[:6]
        assert np.max(np.abs(seeds - got) / got) <= 4e-15


class TestEigvectors:
    def test_recurrence_start(self):
        lam = find_roots(P211, 0).roots[0]
        phi = eigvec_recurrence(P211, lam, 5)
        assert phi[0] == 1
        assert float(phi[1]) == pytest.approx(float(1 - lam), rel=1e-15)
        assert len(phi) == 6

    def test_recurrence_validation(self):
        with pytest.raises(ValueError):
            eigvec_recurrence(P211, 0.5, 0)

    @pytest.mark.parametrize("params", [P211, P311])
    def test_tail_mass_small_at_roots(self, params):
        table = find_roots(params, 3)
        for lam in table.roots:
            phi = eigvec_recurrence(params, lam, 80)
            assert eigvec_tail_mass(phi) < 1e-8

    def test_tail_mass_large_off_root(self):
        # Off an eigenvalue the propagated vector settles on the constant
        # branch, so the deep half keeps a macroscopic share of the mass
        # (six orders above the at-root threshold used elsewhere).
        lam = float(find_roots(P211, 0).roots[0]) + 0.1
        phi = eigvec_recurrence(P211, lam, 80)
        assert eigvec_tail_mass(phi) > 0.05

    def test_series_coefficients_frozen(self):
        lam = find_roots(P211, 1).roots[1]
        c = eigvec_series_c(P211, lam, 3)
        assert c[0] == 1
        expected_ratio = float(-lam * mp.mpf(4) / 3 * mp.mpf(4) / 15)
        assert float(c[1] / c[0]) == pytest.approx(expected_ratio, rel=1e-12)
        with pytest.raises(ValueError):
            eigvec_series_c(P211, lam, 0)

    @pytest.mark.parametrize("params", [P211, P221])
    def test_recurrence_matches_series(self, params):
        """Dual route: forward recurrence vs series reconstruction."""
        table = find_roots(params, 2)
        for lam in table.roots:
            phi = eigvec_recurrence(params, lam, 12)
            ratio = phi[1] / eigvec_from_series(params, lam, 1)
            for l in range(2, 9):
                series_val = ratio * eigvec_from_series(params, lam, l)
                assert float(phi[l]) == pytest.approx(float(series_val), rel=1e-8)

    def test_series_depth_validation(self):
        lam = find_roots(P211, 0).roots[0]
        with pytest.raises(ValueError):
            eigvec_from_series(P211, lam, 0)
