"""Base-q hypergeometric series, certified roots, and eigenvector routes."""

import math
import re
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import (
    fone, from_man_exp, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul,
    mpf_mul_int, to_fixed,
)
from mpmath.libmp import round_nearest as _RND

import mpf_oracle
from padiclab import (
    BracketError,
    FieldParams,
    SeriesError,
    eigvec_from_series,
    eigvec_recurrence,
    eigvec_series_c,
    eigvec_tail_mass,
    find_roots,
    phi11,
    phi11_derivative,
    upper_bracket,
)
from padiclab import qspecial
from padiclab.qspecial import Dyadic
from sturm_oracle import (
    _SEED_SETTLE, _TERM_MARGIN, dense_root_work, dense_seeds, float_seeds, jacobi_D0,
    jacobi_lowest_eigs, sturm_counter, two_pass_find_roots,
)

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
# the search run at full precision.  The fixed-point ratio-table kernel and the
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
# 1/4, 1/2, 1/9, 1/3, 1/25 and 1/49.  (5, 1, 2) stands for (5, 1, 1): f does
# not enter q.
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


def _table_base(series) -> mp.mpf:
    """The base ``q = (man, bits)`` of a ``_QSeries``, exactly, as an mpf."""
    man, bits = series._q
    return mp.make_mpf(from_man_exp(man, -bits))


def _mpf_sums(table, dps, z):
    """``table.sums(z, dps)`` with ``z`` (an mpf) taken into the pass's
    fixed point and ``F``, ``F'`` and the largest term returned as exact
    mpf values."""
    scale = qspecial._scale(dps)
    value, deriv, terms, largest = table.sums(to_fixed(z._mpf_, scale), dps)
    value, deriv, largest = (mp.make_mpf(from_man_exp(v, -scale)) for v in (value, deriv, largest))
    return value, deriv, terms, largest


class _LibmpSeries:
    """The ``libmp`` coefficient-table pass that the fixed-point pass of
    ``qspecial._QSeries`` replaced, kept as its reference.

    Holds ``a_k`` at ``dps`` digits plus guard bits and sums ``F`` and
    ``z F'`` term by term in rounded mpf arithmetic, ending each sum by the
    tail rule of :func:`phi11`.  ``sums(z)`` returns ``(F, F', terms,
    largest, d_terms, d_largest)``: the ``d_`` entries count and bound the
    terms ``k t_k`` of ``z F'``.
    """

    def __init__(self, q, dps: int):
        with mp.workdps(dps):
            self._q = mp.mpf(q)
            self._prec = mp.mp.prec
            self._tol = (mp.mpf(10) ** (-(dps - 5)))._mpf_
        self._q_pow = mp.mpf(1)  # q**(k-1) for the next coefficient a_k
        self._coeffs = [fone]

    def _extend(self) -> None:
        """Append ``a_k = -a_(k-1) q**(k-1) / (1 - q**k)**2``."""
        with mp.workprec(self._prec + qspecial._GUARD_BITS):
            q_k = self._q_pow * self._q
            a_k = -mp.make_mpf(self._coeffs[-1]) * self._q_pow / (1 - q_k) ** 2
        self._q_pow = q_k
        self._coeffs.append(a_k._mpf_)

    def _tail_ends(self, mag, prev, total, floor) -> bool:
        if not mpf_le(mag, prev):
            return False
        size = mpf_abs(total)
        return mpf_lt(mag, mpf_mul(self._tol, size if mpf_gt(size, floor) else floor,
                                   self._prec, _RND))

    def sums(self, z):
        prec = self._prec
        wide = prec + qspecial._GUARD_BITS
        with mp.workprec(prec):
            z = mp.mpf(z)._mpf_
        size_z = mpf_abs(z)
        f_sum = largest = f_prev = fone
        d_sum, d_prev, d_largest = fzero, size_z, fzero
        f_open = d_open = True
        terms = d_terms = 1
        power, k = fone, 0
        while f_open or d_open:
            k += 1
            if k == len(self._coeffs):
                self._extend()
            power = mpf_mul(power, z, wide, _RND)
            term = mpf_mul(self._coeffs[k], power, prec, _RND)
            if f_open:
                f_sum = mpf_add(f_sum, term, prec, _RND)
                mag = mpf_abs(term)
                if mpf_gt(mag, largest):
                    largest = mag
                f_open = not self._tail_ends(mag, f_prev, f_sum, fone)
                f_prev, terms = mag, k + 1
            if d_open:
                d_term = mpf_mul_int(term, k, prec, _RND)
                d_sum = mpf_add(d_sum, d_term, prec, _RND)
                mag = mpf_abs(d_term)
                if mpf_gt(mag, d_largest):
                    d_largest = mag
                d_open = not self._tail_ends(mag, d_prev, d_sum, size_z)
                d_prev, d_terms = mag, k
        return (mp.make_mpf(f_sum), mp.make_mpf(mpf_div(d_sum, z, prec, _RND)), terms,
                mp.make_mpf(largest), d_terms, mp.make_mpf(d_largest))


class TestPhi11:
    def test_value_at_zero(self):
        assert phi11(0.25, 0.0) == 1

    def test_base_domain(self):
        with pytest.raises(ValueError):
            phi11(1.5, 0.3)
        with pytest.raises(ValueError):
            phi11(0.0, 0.3)

    def test_series_error_on_term_budget(self):
        """At q = 0.999 and z = 10, ``|r_k z|`` is still about 1.8 at
        ``k = _MAX_TERMS``: the terms are still rising when the budget runs
        out, and the table stops at the budget's last ratio."""
        with pytest.raises(SeriesError, match=r"^series did not meet tail tolerance 1e-10 "
                                              r"within 2000 terms$"):
            phi11(0.999, 10.0)
        series = qspecial._QSeries((qspecial._fixed(0.999, 60), 60), 15)
        with pytest.raises(SeriesError):
            series.sums(qspecial._fixed(10.0, series.scale), 15)
        assert len(series._ratios) == qspecial._MAX_TERMS

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
                for z in (mp.mpf(root), root * (1 - mp.mpf(10) ** -3),
                          root * (1 + mp.mpf(10) ** -3)):
                    for fn, derivative in ((phi11, False), (phi11_derivative, True)):
                        want, largest = _reference_sum(q, z, derivative)
                        got = fn(q, z)
                        assert abs(got - want) <= mp.mpf(10) ** (-(dps - 10)) * largest


# One parameter set per base q of the reference-agreement test: 1/4, 1/9,
# 1/4 again at f = 2, 2**(-2/3) ~ 0.63 past geometric interlacing, and 1/25.
AGREEMENT_PARAMS = [P211, P311, P212, FieldParams(2, 3, 1), FieldParams(5, 1, 1)]


class TestFixedPointMatchesReference:
    """The fixed-point pass against the libmp reference, at every level of
    the Newton schedule of each root and at full precision, within the
    rounding margin of ``_sign_change``: ``terms * largest * 10**-(dps-1)``."""

    @pytest.mark.parametrize("params", AGREEMENT_PARAMS, ids=str)
    def test_sums_within_certificate_bound(self, params):
        n_max = 12
        roots = find_roots(params, n_max).roots
        seeds, _ = qspecial._float_seeds(params, n_max)
        work = qspecial._root_work(params, seeds[: n_max + 1], 1e-10)
        table = qspecial._series_at(params, max(work))
        for n, dps in enumerate(work):
            for level in qspecial._newton_levels(dps):
                reference = _LibmpSeries(_table_base(table), level)
                bound = mp.mpf(10) ** (-(level - 1))
                with mp.workdps(level):
                    points = (mp.mpf(float(seeds[n])), mp.mpf(roots[n]))
                for z in points:
                    value, deriv, f_terms, largest = _mpf_sums(table, level, z)
                    want, want_deriv, _, _, d_terms, d_largest = reference.sums(z)
                    assert abs(value - want) <= f_terms * largest * bound, (n, level)
                    d_bound = d_terms * d_largest * bound / abs(z)
                    assert abs(deriv - want_deriv) <= d_bound, (n, level)

    @pytest.mark.parametrize("params", AGREEMENT_PARAMS, ids=str)
    def test_sign_never_opposite(self, params):
        """The certificate of ``_sign_change`` from the pass at ``x``, for
        ``x`` at each root and moved off it by ``10**-i`` relative, over
        half-widths ``10**-j`` from the enclosure's in to where ``|F|``
        swamps the step: wherever it certifies, ``F`` summed by the
        reference 40 digits wider has opposite signs at ``x -+ delta``.  It
        certifies the enclosure at the root and no half-width below
        ``10**-(dps+3)``."""
        n_max = 4
        table = find_roots(params, n_max)
        seeds, _ = qspecial._float_seeds(params, n_max)
        work = qspecial._root_work(params, seeds[: n_max + 1], 1e-10)
        wide = qspecial._series_at(params, max(work))
        gap = qspecial._ENCLOSURE_DPS
        for root, dps in zip(table.roots, work):
            scale = qspecial._scale(dps)
            reference = _LibmpSeries(_table_base(wide), dps + 40)
            at_root = root.man << (scale + root.exp)
            certified = 0
            for i in (None, dps - gap - 2, dps - gap + 1, dps - gap + 4, dps - 3):
                x = at_root if i is None else at_root + at_root // 10**i
                sums = wide.sums(x, dps)
                for j in range(dps - gap, dps + 4):
                    delta = x // 10**j
                    if not qspecial._sign_change(sums, delta, dps, scale):
                        continue
                    certified += 1
                    left, right = (reference.sums(mp.make_mpf(from_man_exp(z, -scale)))[0]
                                   for z in (x - delta, x + delta))
                    assert mp.sign(left) == -mp.sign(right) != 0, (i, j)
                assert not qspecial._sign_change(sums, x // 10 ** (dps + 3), dps, scale)
            assert qspecial._sign_change(wide.sums(at_root, dps),
                                         at_root // 10 ** (dps - gap), dps, scale)
            assert certified > 1


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
            assert mp.mpf(lo) <= root <= mp.mpf(hi), n
            with mp.workdps(dps):
                q = _series_base(params)
                assert mp.sign(phi11(q, lo)) * mp.sign(phi11(q, hi)) == -1, n

    def test_direct_residual(self):
        table = find_roots(P211, 2)
        with mp.workdps(60):
            q = _series_base(P211)
            for root in table.roots:
                assert abs(phi11(q, root)) < 1e-10

    def test_cache_reuse_and_extension(self):
        """Only the same request returns the cached table; a longer or a
        shorter request is certified afresh and repeats the common roots."""
        params = FieldParams(5, 1, 1)
        t1 = find_roots(params, 1)
        t2 = find_roots(params, 1)
        assert t1 is t2
        t3 = find_roots(params, 3)
        assert t3.roots[: len(t1.roots)] == t1.roots
        t4 = find_roots(params, 2)  # shorter request: the leading roots of t3
        assert t4.roots == t3.roots[:3]
        assert t4.brackets == t3.brackets[:3]
        assert t4.dps_used == t3.dps_used[:3]
        assert find_roots(params, 3) is t3

    def test_same_request_same_table(self):
        """A request is keyed by its value: equal fields, and the default
        target passed or not, return the cached table."""
        table = find_roots(P211, 3)
        assert find_roots(FieldParams(2, 1, 1), 3) is table
        assert find_roots(P211, 3, target_tol=1e-10) is table
        assert find_roots(P211, 3, target_tol=1e-12) is not table
        assert find_roots(P211, 2) is not table

    def test_cache_keeps_32_tables(self):
        assert qspecial._root_table.cache_info().maxsize == 32

    @pytest.mark.parametrize(("key", "short", "long"), [((2, 2, 1), 5, 20), ((2, 8, 1), 5, 14)])
    @pytest.mark.parametrize("short_first", [True, False], ids=["short-first", "long-first"])
    def test_table_independent_of_earlier_requests(self, key, short, long, short_first):
        """A table, residuals included, is the same whether another length
        of the same field was asked for first or not.  A root's residual
        differs in its last digits between requests of different lengths
        (root 4 of (2,2,1): 1.25902096851e-44 at ``n_max`` 20,
        1.25902096836e-44 at 5), so a table cut from or grown on another
        length's rows fails."""
        params = FieldParams(*key)
        first, second = (short, long) if short_first else (long, short)
        cold = find_roots(params, second)
        qspecial._root_table.cache_clear()
        find_roots(params, first)
        warm = find_roots(params, second)
        assert warm == cold and warm.residuals == cold.residuals

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
        # q = 2**(-1/25) ~ 0.973: near lambda_0 the pivots linger by the
        # fixed point 1 for more rows than the cap allows.
        with pytest.raises(BracketError, match=(
                r"^the Sturm count for root 0 did not end within the limit of 1024 Jacobi rows "
                r"\(params p=2, e=50, f=1\)$")):
            find_roots(FieldParams(2, 50, 1), 5)

    def test_unended_separator_count_refused(self, monkeypatch):
        """A separator count that runs through every row counts the
        truncation, not the block, even where its number is right: at order
        30 the counts of (2,8,1) below separators 3..6 are right and do not
        end."""
        params = FieldParams(2, 8, 1)
        seeds, _ = qspecial._float_seeds(params, 5)
        monkeypatch.setattr(qspecial, "_float_seeds", lambda params, n_max: (seeds, 30))
        monkeypatch.setattr(qspecial, "_root_table", qspecial._root_table.__wrapped__)
        with pytest.raises(BracketError, match=(
                r"^Sturm count of the order-30 truncation does not separate roots 0\.\.5 ")):
            find_roots(params, 5)

    def test_returns_exactly_the_requested_roots(self):
        long = find_roots(P211, 6)
        for n_max in range(7):
            table = find_roots(P211, n_max)
            assert table.n_max == n_max
            assert len(table.residuals) == len(table.brackets) == len(table.dps_used) == n_max + 1
            assert table.roots == long.roots[: n_max + 1]


class TestCertificationWork:
    def test_full_precision_passes_and_one_table(self, monkeypatch):
        """Roots 0..20 of (3,1,1) from a cold cache: at most 2 series passes
        per root at the root's own precision, on average, and one ratio
        table, each of its ratios computed once, that ends exactly as long
        as the longest pass read."""
        sums, extend, series_at, certify = (qspecial._QSeries.sums, qspecial._QSeries._extend,
                                            qspecial._series_at, qspecial._certify_root)
        root_dps = [None]
        tables = []
        counts = {"full": 0, "extend": 0, "read": 0}

        class ReadCounter(list):
            def __getitem__(self, index):
                counts["read"] = max(counts["read"], index + 1)
                return super().__getitem__(index)

        def counting_series_at(params, dps):
            table = series_at(params, dps)
            table._ratios = ReadCounter()
            tables.append(table)
            return table

        def counting_certify(table, n, seed, dps, *rest):
            root_dps[0] = dps
            return certify(table, n, seed, dps, *rest)

        def counting_sums(self, z, dps):
            result = sums(self, z, dps)
            if dps == root_dps[0]:
                counts["full"] += 1
            return result

        def counting_extend(self):
            counts["extend"] += 1
            extend(self)

        monkeypatch.setattr(qspecial, "_series_at", counting_series_at)
        monkeypatch.setattr(qspecial, "_certify_root", counting_certify)
        monkeypatch.setattr(qspecial._QSeries, "sums", counting_sums)
        monkeypatch.setattr(qspecial._QSeries, "_extend", counting_extend)
        table = find_roots(P311, 20)
        assert counts["full"] / len(table.roots) <= 2.0
        assert len(tables) == 1
        assert len(tables[0]._ratios) == counts["read"] == counts["extend"]

    def test_passes_at_several_precisions_build_the_full_precision_table(self):
        """Passes at 40, 60 and 100 digits, each reading past the end of the
        table the pass before left, extend it at the table's own width: with
        a last pass at full precision, its ratios equal those of a table
        extended by that full-precision pass alone, and every pass equals
        the same pass on that table."""
        roots = find_roots(P311, 8).roots
        passes = [(dps, qspecial._fixed(float(roots[n]), qspecial._scale(dps)))
                  for dps, n in ((40, 2), (60, 5), (100, 8), (400, 8))]
        table = qspecial._series_at(P311, 400)
        got, lengths = [], []
        for dps, z in passes:
            got.append(table.sums(z, dps))
            lengths.append(len(table._ratios))
        assert lengths == sorted(set(lengths))  # every pass read past the table's end
        whole = qspecial._series_at(P311, 400)
        assert whole.sums(*passes[-1][::-1]) == got[-1]
        assert whole._ratios == table._ratios
        assert [whole.sums(z, dps) for dps, z in passes] == got


class TestEnclosureCertificate:
    def test_moved_root_refused(self, monkeypatch):
        """A point a millionth off the root, returned with its own ``F``
        and ``F'``: its residual, 7.8e-7, passes a loosened gate, and the
        certificate refuses the enclosure, which no longer holds the root."""
        newton = qspecial._newton

        def moved(table, dps, root, guard, steps=40):
            x, _, y = newton(table, dps, root, guard, steps)
            x += x // 10**6
            return x, table.sums(x, dps), y

        monkeypatch.setattr(qspecial, "_newton", moved)
        with pytest.raises(BracketError, match="final enclosure of root 0"):
            find_roots(P211, 2, target_tol=1e-3)

    def test_narrow_enclosure_refused(self, monkeypatch):
        """An enclosure 10 digits narrower than the working precision: the
        step ``delta F'`` falls below the rounding margin, so nothing is
        certified."""
        monkeypatch.setattr(qspecial, "_ENCLOSURE_DPS", -10)
        with pytest.raises(BracketError, match="final enclosure of root 0"):
            find_roots(P211, 2)

    def test_enclosure_across_separator_refused(self, monkeypatch):
        certify = qspecial._certify_root

        def straddling(table, n, seed, dps, guard, target_tol):
            root, residual, (lo, hi) = certify(table, n, seed, dps, guard, target_tol)
            if n == 1:  # stretch the enclosure down over the separator s_1
                lo = math.nextafter(guard[0], 0.0)
            return root, residual, (lo, hi)

        monkeypatch.setattr(qspecial, "_certify_root", straddling)
        with pytest.raises(BracketError, match="bracket of root 1 crosses a Sturm separator"):
            find_roots(P211, 2)

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
    def test_brackets_are_the_float_enclosure(self, params):
        """Each bracket is the enclosure ``root (1 -+ 10**-(dps-15))`` widened
        to the next floats outward: a few ulps around the float root."""
        table = find_roots(params, 10)
        for root, (lo, hi), dps in zip(table.roots, table.brackets, table.dps_used):
            with mp.workdps(dps):
                delta = mp.mpf(10) ** (-(dps - 15)) * root
                assert lo < root - delta and root + delta < hi
            value = float(root)
            assert lo < value < hi
            assert hi - lo <= 4 * math.ulp(value)


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
            assert mp.mpf(lo) <= root <= mp.mpf(hi), n
            with mp.workdps(dps):
                q = _series_base(params)
                assert mp.sign(phi11(q, lo)) * mp.sign(phi11(q, hi)) == -1, n
        # The oracle's eigenvalue n lies within 1e-13 relative of the float
        # root iff the Sturm count there steps from n to n + 1.
        count_below, _, _ = sturm_counter(params, _settled_order(params))
        for n, value in enumerate(table.values_float()):
            assert count_below(value * (1 - 1e-13)) == n
            assert count_below(value * (1 + 1e-13)) == n + 1

    @pytest.mark.parametrize("params", [P311, P221, FieldParams(2, 3, 1), FieldParams(2, 8, 1)],
                             ids=str)
    def test_float_sturm_count_matches_exact_count(self, params):
        L = _settled_order(params)
        count_below, _, _ = sturm_counter(params, L)
        eigs = np.linalg.eigvalsh(jacobi_D0(params, L))[:8]
        points = np.concatenate(([0.0, 1e-3], np.sqrt(eigs[:-1] * eigs[1:]), eigs * 1.5))
        count = qspecial._sturm_count(params, L)
        got = [count(float(x))[0] for x in points]
        assert got == [count_below(x) for x in points]
        assert got[2:9] == list(range(1, 8))

    # (2,20,1): q = 2**(-1/10) ~ 0.93, where a Sturm count near a root runs
    # on for about 500 rows.
    @pytest.mark.parametrize("params", [FieldParams(2, 3, 1), FieldParams(2, 20, 1)], ids=str)
    def test_oracle_eigenvalues_beyond_interlacing(self, params):
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


def _dense_precisions(params: FieldParams, seeds) -> list[int]:
    """The working precisions of :func:`sturm_oracle.dense_root_work` at ``1e-10``."""
    return [dps for dps, _ in dense_root_work(params, seeds, 1e-10)]


class TestSeedsMatchDenseOracle:
    """The float Sturm bisection against the dense ``eigvalsh`` seeds it
    replaced (:func:`sturm_oracle.dense_seeds`): seeds within
    ``_SEED_SETTLE``, the same working precisions and the same float roots, or
    the same refusal."""

    @pytest.mark.parametrize("params", GRID, ids=str)
    def test_seeds_and_roots_match(self, params):
        n_max = 5
        seeds, _ = qspecial._float_seeds(params, n_max)
        dense, _ = dense_seeds(params, n_max)
        assert all(abs(a - b) <= _SEED_SETTLE * b for a, b in zip(seeds, dense))
        work = qspecial._root_work(params, seeds[: n_max + 1], 1e-10)
        assert work == _dense_precisions(params, dense[: n_max + 1])
        got = find_roots(params, n_max)
        with mock.patch.object(qspecial, "_float_seeds", dense_seeds), \
                mock.patch.object(qspecial, "_root_table", qspecial._root_table.__wrapped__):
            want = find_roots(params, n_max)
        assert [float(r) for r in got.roots] == [float(r) for r in want.roots]
        assert got.dps_used == want.dps_used

    @pytest.mark.parametrize(("key", "n_max"), [
        ((7, 1, 1), 40),  # dense: doubled from order 84 to 168, below the float-range cap 177
        ((7, 1, 1), 86),  # dense: order 176 does not settle, and 352 is over the cap
        ((7, 1, 1), 87),  # the first order is over the cap: refused up front
        ((5, 1, 1), 105),  # dense: the first order is the cap, with no second to settle against
        ((2, 8, 1), 30),  # q about 0.84: dense doubled from order 64, settled at 512
    ], ids=str)
    def test_same_order_or_same_refusal(self, key, n_max):
        """Where the dense route ran out of orders to settle against, the
        count needs none: its seeds match ``eigvalsh`` at the cap."""
        params = FieldParams(*key)
        try:
            want = dense_seeds(params, n_max)[0]
        except BracketError as exc:
            if "did not settle" not in str(exc):
                with pytest.raises(BracketError, match=f"^{re.escape(str(exc))}$"):
                    qspecial._float_seeds(params, n_max)
                return
            want = None
        seeds, cap = qspecial._float_seeds(params, n_max)
        if want is None:
            want = np.linalg.eigvalsh(jacobi_D0(params, cap))[: n_max + 2]
        assert all(abs(a - b) <= _SEED_SETTLE * b for a, b in zip(seeds, want))
        assert (qspecial._root_work(params, seeds[: n_max + 1], 1e-10)
                == _dense_precisions(params, want[: n_max + 1]))

    def test_root_work_scan_matches_full_scan_near_the_budget(self):
        """Seeds whose terms peak early, late, or never fall below the
        cut-off within ``_MAX_TERMS``: the early-ending scan finds the
        precisions of the full one."""
        params = FieldParams(2, 8, 1)
        seeds = [0.5, 1e3, 1e15, 1e60, 1e75, 1e200]
        dense = dense_root_work(params, seeds, 1e-10)
        assert qspecial._root_work(params, seeds, 1e-10) == [dps for dps, _ in dense]
        budget = qspecial._MAX_TERMS + 1 + _TERM_MARGIN
        assert [terms for _, terms in dense][-2:] == [budget, budget]


# The benchmark's roots-deep entries (p, e, f, N): roots 0..N, up to 334 digits.
ROOTS_DEEP = [((2, 1, 1), 28), ((2, 2, 1), 22), ((3, 1, 1), 20), ((3, 2, 1), 21),
              ((5, 1, 1), 20), ((7, 1, 1), 18), ((2, 1, 2), 30)]
ORACLE_CASES = ([(params, 5) for params in GRID]
                + [(FieldParams(*key), n) for key, n in ROOTS_DEEP]
                + [(FieldParams(2, 8, 1), 12), (FieldParams(3, 6, 1), 12)])


TWO_PASS_CASES = ([(params, n) for n in (5, 12) for params in GRID]
                  + [(FieldParams(*key), n) for key, n in ROOTS_DEEP]
                  + [(FieldParams(*key), 24) for key in ((2, 3, 1), (3, 6, 1), (2, 8, 1))])


class TestMatchesTwoPassRoute:
    """Against the route that bisected every seed at every order and
    certified each enclosure by two value-only passes at its ends
    (:func:`sturm_oracle.two_pass_find_roots`): the same seeds bit for bit,
    and equal root tables (exact roots, residuals, brackets and
    ``dps_used``), or the same refusal."""

    @pytest.mark.parametrize(("params", "n_max"), TWO_PASS_CASES,
                             ids=[f"{params}-{n}" for params, n in TWO_PASS_CASES])
    def test_same_seeds_and_tables(self, params, n_max):
        try:
            want_seeds = float_seeds(params, n_max)
            want = two_pass_find_roots(params, n_max)
        except BracketError as exc:
            with pytest.raises(BracketError, match=f"^{re.escape(str(exc))}$"):
                find_roots(params, n_max)
            return
        assert qspecial._float_seeds(params, n_max)[0] == want_seeds[0]
        assert find_roots(params, n_max) == want

    def test_fewer_counts_than_every_order(self, monkeypatch):
        """On the benchmark's deep entries one bisection of the untruncated
        count makes fewer Sturm counts than bisecting every eigenvalue at
        every order until the seeds settle."""
        sturm_count = qspecial._sturm_count
        calls = [0]

        def counting(params, L):
            count = sturm_count(params, L)

            def counted(x):
                calls[0] += 1
                return count(x)

            return counted

        monkeypatch.setattr(qspecial, "_sturm_count", counting)
        for key, n_max in ROOTS_DEEP:
            params = FieldParams(*key)
            calls[0] = 0
            qspecial._float_seeds(params, n_max)
            got = calls[0]
            calls[0] = 0
            float_seeds(params, n_max)
            assert got < calls[0], key


class TestIntegerRootsMatchMpfOracle:
    """The integer certification against the mpf one it replaced
    (:mod:`mpf_oracle`), from the same seeds at the same precisions: equal
    float roots, brackets and ``dps_used``, and roots within the enclosure
    width ``10**-(dps-15)`` of each other, relative."""

    @pytest.mark.parametrize(("params", "n_max"), ORACLE_CASES,
                             ids=[f"{params}-{n}" for params, n in ORACLE_CASES])
    def test_same_roots_brackets_and_precision(self, params, n_max):
        got = find_roots(params, n_max)
        want = mpf_oracle.find_roots(params, n_max)
        assert [float(r) for r in got.roots] == [float(r) for r in want.roots]
        assert got.brackets == want.brackets
        assert got.dps_used == want.dps_used
        for n, (root, other, dps) in enumerate(zip(got.roots, want.roots, got.dps_used)):
            assert abs(other - root) <= mp.mpf(10) ** -(dps - 15) * other, n


class TestDyadic:
    """The exact root values: ``float()`` as mpmath rounds, exact in mpmath
    arithmetic, and value semantics."""

    # Odd 54-bit mantissas: each value lies halfway between two floats.
    TIES = (2**53 + 1, 2**53 + 3, 3 * 2**52 + 1, 2**54 - 1)

    @pytest.mark.parametrize("exp", [-1100, -1074, -300, -53, 0, 40, 969, 971])
    def test_float_rounds_as_mpmath(self, exp):
        """Ties (half to even) and the values 2**-10 of their last place
        either side, negated too, around normal, subnormal and overflowing
        magnitudes."""
        for tie in self.TIES:
            for man, e in ((tie, exp), ((tie << 10) - 1, exp - 10), ((tie << 10) + 1, exp - 10)):
                for signed in (man, -man):
                    want = float(mp.make_mpf(from_man_exp(signed, e)))
                    assert float(Dyadic(signed, e)) == want, (signed, e)

    def test_mpmath_takes_it_exactly(self):
        root = find_roots(P311, 6).roots[6]
        exact = mp.make_mpf(from_man_exp(root.man, root.exp))
        assert root._mpf_ == exact._mpf_
        with mp.workprec(root.man.bit_length()):
            assert mp.mpf(root)._mpf_ == exact._mpf_
        with mp.workdps(20):
            assert mp.mpf(root)._mpf_ == mp.mpf(exact)._mpf_  # rounded alike
        for s in (2, mp.mpf(-0.75), mp.mpc(2.5, 1.0)):
            assert mp.power(root, -s) == mp.power(exact, -s)
            assert repr(mp.power(root, -s)) == repr(mp.power(exact, -s))
        x = mp.mpf("1.25")
        with mp.workprec(2 * root.man.bit_length()):
            assert (x + root)._mpf_ == (x + exact)._mpf_
            assert (x - root)._mpf_ == (x - exact)._mpf_
            assert (root - x)._mpf_ == (exact - x)._mpf_
            assert (x - root) + root == x

    def test_value_semantics(self):
        assert Dyadic(12, -3) == Dyadic(3, -1) and hash(Dyadic(12, -3)) == hash(Dyadic(3, -1))
        assert (Dyadic(12, -3).man, Dyadic(12, -3).exp) == (3, -1)
        assert Dyadic(0, 7) == Dyadic(0, -2) and (Dyadic(0, 7).man, Dyadic(0, 7).exp) == (0, 0)
        assert Dyadic(3, -1) != Dyadic(3, -2) and Dyadic(3, -1) != Dyadic(-3, -1)
        assert Dyadic(3, -1) != 1.5  # no cross-type equality but through mpmath
        assert mp.mpf(1.5) == Dyadic(3, -1)
        assert repr(Dyadic(3, -1)) == "<Dyadic 1.5: 3 * 2**-1>"
        assert float(Dyadic(0, 0)) == 0.0

    def test_tables_equal_and_hash_alike(self):
        """A table recomputed without the cache holds equal roots, so the
        whole tables compare and hash alike; tables are immutable values."""
        table = find_roots(P211, 6)
        with mock.patch.object(qspecial, "_root_table", qspecial._root_table.__wrapped__):
            again = find_roots(P211, 6)
        assert again is not table and again == table and hash(again) == hash(table)
        assert {table.roots[2], again.roots[2]} == {table.roots[2]}
        with pytest.raises(AttributeError):
            again.roots = ()

    def test_diagnostics_take_roots(self):
        """``phi11``, ``phi11_derivative`` and the eigenvector routes give the
        same numbers for a root as for its exact mpf."""
        table = find_roots(P211, 2)
        with mp.workdps(60):
            q = _series_base(P211)
            for root in table.roots:
                exact = mp.make_mpf(root._mpf_)
                assert phi11(q, root) == phi11(q, exact)
                assert phi11_derivative(q, root) == phi11_derivative(q, exact)
        for root in table.roots:
            exact = mp.make_mpf(root._mpf_)
            assert eigvec_recurrence(P211, root, 20) == eigvec_recurrence(P211, exact, 20)
            assert eigvec_series_c(P211, root, 6) == eigvec_series_c(P211, exact, 6)
            assert eigvec_from_series(P211, root, 3) == eigvec_from_series(P211, exact, 3)


class TestEigvectors:
    def test_recurrence_start(self):
        lam = find_roots(P211, 0).roots[0]
        phi = eigvec_recurrence(P211, lam, 5)
        assert phi[0] == 1
        assert float(phi[1]) == pytest.approx(float(mp.mpf(1) - lam), rel=1e-15)
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
        expected_ratio = float(-mp.mpf(lam) * mp.mpf(4) / 3 * mp.mpf(4) / 15)
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
