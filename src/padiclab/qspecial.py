"""Basic q-hypergeometric machinery: series, roots, and eigenvector tails.

The depth-direction spectral problem reduces to the entire function

    F(z) = sum_(n>=0) (-1)**n q**(n(n-1)/2) z**n / ((q;q)_n)**2,    0 < q < 1,

whose roots ``lambda_0 < lambda_1 < ...`` are the base eigenvalues; the full
spectrum consists of the scaled families ``p**(2m/e) * lambda_n``.  The roots
grow like ``q**(-n)`` and satisfy the two-sided bracket

    q**(-n) - 1/(1 - q**n)  <=  lambda_n  <=  q**(-n)      (n >= 1),

with ``lambda_0`` in ``(0, 1)``.

Series evaluation.  A :class:`_QSeries` holds the coefficients of ``F`` at
one base and one working precision, extended lazily, and sums ``F`` and
``F'`` from them; :func:`phi11` and :func:`phi11_derivative` are thin calls
into it.

Root search.  :func:`find_roots` seeds every root from one float
``eigvalsh`` of the truncated Jacobi matrix :func:`operators.jacobi_D0`,
whose eigenvalues converge to the roots of ``F`` as the truncation grows,
and uses the series only to certify them.  Root ``n`` gets its index from a
float Sturm count of that truncation and its working precision from a float
estimate of the largest series term at the seed: near ``lambda_n`` the terms
peak at about ``Q**(n(n+1)/2)`` (``Q = 1/q``), more as ``q -> 1``, and the
residual gate ``|F(lambda_n)| < target_tol`` is absolute, so it needs that
many digits beyond the target's own.  One coefficient table per call, at the
largest precision needed, serves every root and every level of a
precision-doubling Newton lift, each through a rounded, truncated copy.
Newton converges at the lowest level from the float seed, takes one step on
each doubled level, and converges again at full precision, where the point
it evaluated last is the root and its ``|F|`` the residual.  The root must
pass the residual gate and show certified opposite signs of ``F`` across
``lambda_n (1 -+ 10**-(dps-15))``.  Locating a root needs only relative
accuracy, which ``d`` digits give whatever ``n`` is: at relative distance
``eps`` from the root ``|F|`` is about ``eps`` times the largest term, and
the rounding error of a ``d``-digit sum about ``10**-d`` times it.  The
series runs in mpmath.

Also provided: the forward recurrence for the tridiagonal eigenvector at a
given eigenvalue (a shooting diagnostic: at a true eigenvalue the decaying
solution is selected and the tail mass is tiny), and the closed-form series
coefficients ``c(2k)`` reconstructing the same eigenvector, used as mutual
cross-checks.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    fone, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_mul_int, mpf_pos,
)
from mpmath.libmp import round_nearest as _RND

from .field_model import FieldParams
from .operators import jacobi_D0

__all__ = [
    "BracketError",
    "SeriesError",
    "RootTable",
    "phi11",
    "phi11_derivative",
    "upper_bracket",
    "find_roots",
    "eigvec_recurrence",
    "eigvec_tail_mass",
    "eigvec_series_c",
    "eigvec_from_series",
]

# Floor of the Newton precision schedule.  Certification runs at _root_work's dps.
_NEWTON_FLOOR_DPS = 30
# Digits added at each halving of the Newton precision schedule.
_SCHEDULE_GUARD_DPS = 10
# Guard bits carried by the coefficient table and the powers of z, so that
# their rounding stays far inside the error bound of _QSeries.sign.
_GUARD_BITS = 32
# Digits carried beyond the largest series term and the target's digits.
_GUARD_DPS = 30
# Term budget of a series evaluation; _root_work looks for the largest term
# within it.
_MAX_TERMS = 2000
# Coefficients a root's table holds beyond the float estimate of the last
# term its full-precision evaluations reach.
_TERM_MARGIN = 3
# The float seeds have settled once doubling the Jacobi order moves none of
# them by more than this, relative.
_SEED_SETTLE = 1e-12
# Largest Jacobi order the seeds are taken from.
_SEED_MAX_ORDER = 1024
# Root tables kept by find_roots, least recently used evicted first.
ROOT_CACHE_SIZE = 32


class BracketError(RuntimeError):
    """A root bracket failed its endpoint sign certification."""


class SeriesError(RuntimeError):
    """A series evaluation failed to meet its tail criterion."""


def _tail_ends(mag, prev, total, floor, tol, prec: int) -> bool:
    """The tail rule of :func:`phi11` on raw mpf values: a term magnitude
    ``mag`` no larger than the one before and below ``tol * max(floor, |total|)``."""
    if not mpf_le(mag, prev):
        return False
    size = mpf_abs(total)
    return mpf_lt(mag, mpf_mul(tol, size if mpf_gt(size, floor) else floor, prec, _RND))


class _QSeries:
    """``F`` and ``F'`` at one base ``q`` and one working precision ``dps``.

    Holds the coefficients ``a_k = (-1)**k q**(k(k-1)/2) / ((q;q)_k)**2`` of
    ``F(z) = sum a_k z**k``, extended lazily as evaluations reach further, and
    sums both series from them, so no evaluation recomputes a power of ``q``.
    The table and the powers of ``z`` carry guard bits; terms and partial
    sums are rounded to ``dps`` digits.  The hot loop works on mpmath's raw
    ``libmp`` values.
    """

    def __init__(self, q, dps: int):
        with mp.workdps(dps):
            q = mp.mpf(q)
            if not 0 < q < 1:
                raise ValueError("q must lie in (0, 1)")
            self.dps = dps
            self._prec = mp.mp.prec
            self._default_tol = mp.mpf(10) ** (-(dps - 5))
            self._rel_error = mp.mpf(10) ** (-(dps - 1))
        self._q = q
        self._q_pow = mp.mpf(1)  # q**(k-1) for the next coefficient a_k
        self._coeffs = [fone]

    def _extend(self) -> None:
        """Append ``a_k = -a_(k-1) q**(k-1) / (1 - q**k)**2``."""
        with mp.workprec(self._prec + _GUARD_BITS):
            q_k = self._q_pow * self._q
            a_k = -mp.make_mpf(self._coeffs[-1]) * self._q_pow / (1 - q_k) ** 2
        self._q_pow = q_k
        self._coeffs.append(a_k._mpf_)

    def rounded(self, dps: int, terms: int) -> _QSeries:
        """This series at precision ``dps`` (at most this one's), its table
        the first ``terms`` coefficients of this one, rounded; this table is
        extended to ``terms`` first."""
        while len(self._coeffs) < terms:
            self._extend()
        lower = _QSeries(self._q, dps)
        wide = lower._prec + _GUARD_BITS
        lower._coeffs = [mpf_pos(a, wide, _RND) for a in self._coeffs[:terms]]
        with mp.workprec(wide):
            lower._q_pow = self._q ** (len(lower._coeffs) - 1)
        return lower

    def sums(self, z, target_tol=None, max_terms: int = _MAX_TERMS,
             value: bool = True, derivative: bool = False):
        """``F(z)`` and ``F'(z)`` from one pass over the terms ``t_k = a_k z**k``.

        ``F = sum t_k`` and ``F' = (sum k t_k) / z``.  Each sum ends by the
        tail rule of :func:`phi11` on its own terms (``t_k``, ``k t_k / z``),
        and the pass ends once every requested sum has ended.  Returns
        ``(F, F', terms, largest)``: the sums (``None`` where not requested)
        and, when ``F`` is requested, its number of terms and its largest
        term magnitude.  Raises :class:`SeriesError` when ``max_terms`` runs
        out first.
        """
        prec = self._prec
        wide = prec + _GUARD_BITS
        with mp.workprec(prec):
            z = mp.mpf(z)._mpf_
            tol = (self._default_tol if target_tol is None else mp.mpf(target_tol))._mpf_
        size_z = mpf_abs(z)
        coeffs = self._coeffs
        f_open, d_open = value, derivative and z != fzero
        f_sum = largest = f_prev = fone  # F, starting from t_0 = 1
        d_sum, d_prev = fzero, size_z  # z F', its rule scaled by |z|
        terms, power, k = 1, fone, 0
        while f_open or d_open:
            k += 1
            if k > max_terms:
                raise SeriesError(
                    f"series did not meet tail tolerance {mp.make_mpf(tol)} "
                    f"within {max_terms} terms"
                )
            if k == len(coeffs):
                self._extend()
            power = mpf_mul(power, z, wide, _RND)
            term = mpf_mul(coeffs[k], power, prec, _RND)
            if f_open:
                f_sum = mpf_add(f_sum, term, prec, _RND)
                mag = mpf_abs(term)
                if mpf_gt(mag, largest):
                    largest = mag
                f_open = not _tail_ends(mag, f_prev, f_sum, fone, tol, prec)
                f_prev, terms = mag, k + 1
            if d_open:
                d_term = mpf_mul_int(term, k, prec, _RND)
                d_sum = mpf_add(d_sum, d_term, prec, _RND)
                mag = mpf_abs(d_term)
                d_open = not _tail_ends(mag, d_prev, d_sum, size_z, tol, prec)
                d_prev = mag
        f_value = mp.make_mpf(f_sum) if value else None
        d_value = None
        if derivative:
            if z == fzero:  # F'(0) = a_1
                if len(coeffs) < 2:
                    self._extend()
                d_sum, z = mpf_pos(coeffs[1], prec, _RND), fone
            d_value = mp.make_mpf(mpf_div(d_sum, z, prec, _RND))
        return f_value, d_value, terms, mp.make_mpf(largest)

    def sign(self, z):
        """Sign of ``F(z)``, or ``None`` when ``|F(z)|`` does not exceed the
        evaluation's error bound: terms summed times the largest term times
        ``10**-(dps-1)``."""
        value, _, terms, largest = self.sums(z)
        if abs(value) > terms * largest * self._rel_error:
            return int(mp.sign(value))
        return None


def phi11(q, z, target_tol=None, max_terms: int = _MAX_TERMS):
    """Evaluate the base q-hypergeometric series at ``z``.

    Sums until the next term is below ``target_tol * max(1, |sum|)`` *and*
    terms have started decreasing; raises :class:`SeriesError` if
    ``max_terms`` is exhausted first.  Runs at the caller's mpmath precision
    (``target_tol=None`` uses that precision's floor).
    """
    return _QSeries(mp.mpf(q), mp.mp.dps).sums(z, target_tol, max_terms)[0]


def phi11_derivative(q, z, target_tol=None, max_terms: int = _MAX_TERMS):
    """Derivative in ``z`` of :func:`phi11` (termwise differentiation)."""
    series = _QSeries(mp.mpf(q), mp.mp.dps)
    return series.sums(z, target_tol, max_terms, value=False, derivative=True)[1]


def _series_at(params: FieldParams, dps: int) -> _QSeries:
    with mp.workdps(dps):
        return _QSeries(mp.power(params.p, -mp.mpf(2) / params.e), dps)


def upper_bracket(params: FieldParams, n: int) -> float:
    """Upper root bracket ``p**(2n/e) = q**(-n)`` (equals 1 at ``n = 0``)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return params.scale_float(2 * n)


@dataclass(frozen=True)
class RootTable:
    """Certified roots ``lambda_0..lambda_n_max`` for one parameter set.

    Attributes:
        params: Field parameters.
        roots: Roots as mpmath floats, ascending.
        residuals: ``|F(lambda_n)|`` as floats (evaluated at full precision).
        brackets: The certified sign-change interval per root: the final
            enclosure ``root (1 -+ 10**-(dps-15))`` widened outward to the
            next floats, so both ends are floats a few ulps apart.
        dps_used: Working decimal precision per root.
    """

    params: FieldParams
    roots: tuple = ()
    residuals: tuple = ()
    brackets: tuple = ()
    dps_used: tuple = ()

    @property
    def n_max(self) -> int:
        return len(self.roots) - 1

    def root(self, n: int) -> mp.mpf:
        return self.roots[n]

    def values_float(self) -> np.ndarray:
        return np.array([float(r) for r in self.roots])

    @property
    def interlaced(self) -> bool:
        """Whether every root sits on the geometric ladder,
        ``q**-(n-1) < lambda_n <= q**-n`` (``0 < lambda_0 <= 1``).

        True for small ``q``; false once ``q`` exceeds about 0.6, for example
        ``lambda_1`` about 0.984 at (2,3,1).  The root search does not rely on it.
        """
        ladder = [0.0] + [upper_bracket(self.params, n) for n in range(len(self.roots))]
        return all(lo < lam <= hi
                   for lo, hi, lam in zip(ladder, ladder[1:], self.values_float()))

    def prefix(self, n_max: int) -> RootTable:
        """The table of roots ``0..n_max``."""
        k = n_max + 1
        return RootTable(self.params, self.roots[:k], self.residuals[:k],
                         self.brackets[:k], self.dps_used[:k])


def _float_seeds(params: FieldParams, n_max: int) -> tuple[np.ndarray, int]:
    """Float eigenvalues ``0..n_max+1`` of :func:`jacobi_D0` at a settled order.

    The order ``L`` starts at ``2 (n_max + 2)`` and doubles until no returned
    eigenvalue moves by more than ``_SEED_SETTLE`` relative; the eigenvalues
    of the larger order are returned with it.  Truncation only lowers the
    eigenvalues' accuracy at the deep end, so the step from ``L`` to ``2L``
    bounds the error of the order-``L`` values, and those of order ``2L`` are
    closer still.  ``L`` is capped by ``_SEED_MAX_ORDER`` and by the float
    range of the matrix (``Q**L`` below ``10**300``); seeds that have not
    settled by the cap raise :class:`BracketError`.
    """
    count = n_max + 2  # one eigenvalue beyond the last root, for its separator
    cap = min(_SEED_MAX_ORDER, int(300 / math.log10(params.Q)))
    L = 2 * count
    if L > cap:
        raise BracketError(
            f"roots up to {n_max} need a Jacobi truncation of order {L}, over the "
            f"limit of {cap} (params p={params.p}, e={params.e}, f={params.f})"
        )
    prev = None
    while True:
        eigs = np.linalg.eigvalsh(jacobi_D0(params, L))[:count]
        if prev is not None and np.all(np.abs(eigs - prev) <= _SEED_SETTLE * eigs):
            return eigs, L
        if L == cap:
            raise BracketError(
                f"float seeds for roots 0..{n_max} did not settle by Jacobi order {L} "
                f"(params p={params.p}, e={params.e}, f={params.f})"
            )
        prev, L = eigs, min(2 * L, cap)


def _sturm_counts(params: FieldParams, L: int, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of ``jacobi_D0(params, L)`` below each ``x``, in floats.

    Counts the negative pivots of the ``LDL^T`` factorization of
    ``jacobi_D0 - x``.  Pivot ``l >= 1`` is divided by its row scale
    ``Q**(l-1)``, which keeps its sign and every value in range:
    ``D_0 = 1 - x``, ``D_1 = 1 + Q - x - 1/D_0`` and
    ``D_l = 1 + Q - x q**(l-1) - Q/D_(l-1)``.  A zero pivot counts as
    positive; the next one is then ``-inf``.
    """
    Q, q = params.Q, params.q
    d = 1.0 - x
    count = (d < 0).astype(np.int64)
    with np.errstate(divide="ignore"):
        for l in range(1, L):
            d = (1.0 + Q) - x * q ** (l - 1) - (1.0 if l == 1 else Q) / d
            count += d < 0
    return count


def _root_work(params: FieldParams, seeds: np.ndarray,
               target_tol: float) -> list[tuple[int, int]]:
    """Working precision and series length ``(dps, terms)`` for the root at each seed.

    The terms ``|a_k z**k|`` of ``F`` at ``z = lambda_n`` peak at ``10**T``,
    estimated here in floats over the first ``_MAX_TERMS`` terms (``T`` is
    about ``n(n+1)/2 log10 Q`` for small ``q`` and larger as ``q -> 1``,
    where ``(q;q)_k`` is small).  A ``d``-digit evaluation has absolute error
    near ``10**(T-d)`` and the gate ``|F(lambda_n)| < target_tol`` is
    absolute, so root ``n`` runs at ``T`` digits plus the target's plus
    ``_GUARD_DPS``.  Its evaluations end past the peak at the first term
    below ``10**-(dps-5)`` (the tail rule of :func:`phi11` where ``|F| < 1``),
    and ``terms`` adds ``_TERM_MARGIN`` coefficients to that.
    """
    q = params.q
    k = np.arange(_MAX_TERMS)
    log_poch = np.concatenate(([0.0], np.cumsum(np.log10(-np.expm1(k[1:] * math.log(q))))))
    log_coeffs = k * (k - 1) / 2 * math.log10(q) - 2 * log_poch
    target_digits = max(0, math.ceil(-math.log10(target_tol)))
    work = []
    for z in seeds:
        log_terms = log_coeffs + math.log10(z) * k
        peak = int(np.argmax(log_terms))
        dps = math.ceil(log_terms[peak]) + target_digits + _GUARD_DPS
        below = np.flatnonzero(log_terms[peak:] < 5 - dps)
        last = peak + int(below[0]) if below.size else _MAX_TERMS
        work.append((dps, last + 1 + _TERM_MARGIN))
    return work


def _newton_levels(dps: int) -> list[int]:
    """Backward precision-doubling schedule ``dps, dps//2 + c, ...``, lowest first.

    Halving stops before ``_NEWTON_FLOOR_DPS``; each level starts from a root
    good to about the previous level's digits, which Newton doubles.
    """
    levels = [dps]
    while levels[-1] // 2 + _SCHEDULE_GUARD_DPS > _NEWTON_FLOOR_DPS:
        levels.append(levels[-1] // 2 + _SCHEDULE_GUARD_DPS)
    return levels[::-1]


def _newton(series: _QSeries, root, guard: tuple[float, float], steps: int = 40):
    """Newton for ``F`` from ``root`` at the series' precision ``d``.

    Evaluates ``F`` and ``F'`` at most ``steps`` times, stopping at the first
    step below ``10**-(d-10)`` relative; a step leaving the open interval
    ``guard`` is not taken.  Returns ``(x, F(x), y)``: the last point ``x``
    evaluated, ``F`` there and the Newton point ``y`` that follows ``x``
    (``x`` itself when the step is not taken).
    """
    lo, hi = guard
    with mp.workdps(series.dps):
        x = mp.mpf(root)
        tol = mp.mpf(10) ** (-(series.dps - 10))
        for i in range(steps):
            fval, dval, _, _ = series.sums(x, derivative=True)
            step = fval / dval if fval else fval
            y = x - step
            if not lo < y < hi:
                return x, fval, x
            if i + 1 == steps or abs(step) < tol * abs(x):
                return x, fval, y
            x = y


def _certify_root(table: _QSeries, n: int, seed: float, dps: int, terms: int,
                  guard: tuple[float, float], target_tol: float):
    """Certify root ``n`` from its float seed at ``dps`` digits, as described
    under "Certify" in :func:`find_roots`, on copies of ``table`` truncated
    to ``terms`` coefficients.  Returns ``(root, residual, bracket)``."""
    *lower, _ = _newton_levels(dps)
    root = seed
    for i, level in enumerate(lower):
        root = _newton(table.rounded(level, terms), root, guard, 40 if i == 0 else 1)[2]
    full = table.rounded(dps, terms)
    root, value, _ = _newton(full, root, guard)
    residual = float(abs(value))
    if residual >= target_tol:
        raise BracketError(f"root {n} residual {residual:.3e} above target {target_tol}")
    with mp.workdps(dps):
        delta = mp.mpf(10) ** (-(dps - 15)) * root
        left, right = root - delta, root + delta
    sign_left = full.sign(left)
    if sign_left is None or full.sign(right) != -sign_left:
        raise BracketError(f"final enclosure of root {n} shows no certified sign change")
    bracket = (math.nextafter(float(left), -math.inf), math.nextafter(float(right), math.inf))
    return root, residual, bracket


class _RootCache:
    """Root tables keyed by ``(p, e, f, target_tol)``, at most ``maxsize`` of
    them; the least recently used table is evicted first."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._tables: OrderedDict[tuple, RootTable] = OrderedDict()

    def __len__(self) -> int:
        return len(self._tables)

    def get(self, key: tuple) -> RootTable | None:
        table = self._tables.get(key)
        if table is not None:
            self._tables.move_to_end(key)
        return table

    def put(self, key: tuple, table: RootTable) -> None:
        self._tables[key] = table
        self._tables.move_to_end(key)
        while len(self._tables) > self.maxsize:
            self._tables.popitem(last=False)


_ROOT_CACHE = _RootCache(ROOT_CACHE_SIZE)


def find_roots(params: FieldParams, n_max: int, target_tol: float = 1e-10) -> RootTable:
    """Compute the roots ``lambda_0 .. lambda_n_max`` with certified brackets.

    Seed.  One float ``eigvalsh`` of the truncated Jacobi matrix
    :func:`jacobi_D0`, at an order grown until the requested eigenvalues
    settle (:func:`_float_seeds`), seeds every root.

    Index.  A float Sturm count of the same truncation (:func:`_sturm_counts`)
    must find exactly ``n`` eigenvalues below the separator ``s_n``, the
    geometric mean of seeds ``n - 1`` and ``n`` (``s_0 = 0``), for every
    ``n <= n_max + 1``, and the bracket of root ``n`` must lie inside
    ``(s_n, s_(n+1))``.  As the order grows the truncation's eigenvalues
    decrease to those of the untruncated block, the roots of ``F``; at a
    settled order they agree to float accuracy, so the count below ``s_n``
    is the number of roots of ``F`` below it, and the root certified in
    bracket ``n`` is ``lambda_n``.  This does not use the
    geometric interlacing ``q**-(n-1) < lambda_n``, which fails once ``q``
    exceeds about 0.6 (see :attr:`RootTable.interlaced`).

    Precision.  Root ``n`` works at the digits of :func:`_root_work`: a
    float estimate of ``log10`` of the largest series term at the seed, plus
    the target's digits, plus ``_GUARD_DPS``.  One coefficient table, at the
    largest of these precisions and as long as the deepest root's series,
    serves every root through rounded, truncated copies.

    Certify.  Newton lifts the seed through the precision-doubling schedule
    of :func:`_newton_levels`: the lowest level iterates until its step is
    below ``10**-(d-10)`` relative at its ``d`` digits, each level above
    takes one step, and the full-precision level iterates again.  No step
    may leave ``(s_n, s_(n+1))``.  At full precision the point Newton
    evaluated last is the root, and ``|F|`` there must be below
    ``target_tol``.  ``F`` must then have error-bounded opposite signs
    (:meth:`_QSeries.sign`) across ``root (1 -+ 10**-(dps-15))``; that
    enclosure, widened outward to floats, is the root's bracket.  Any
    failure raises :class:`BracketError`.

    Returns exactly ``n_max + 1`` roots.  Tables are cached per
    ``(p, e, f, target_tol)``, the ``ROOT_CACHE_SIZE`` most recently used
    kept: a request of the cached size returns the cached table, a shorter
    one its prefix, and a longer one extends it.
    """
    if not target_tol > 0:
        raise ValueError(f"target_tol must be positive, got {target_tol}")
    key = (params.p, params.e, params.f, target_tol)
    cached = _ROOT_CACHE.get(key)
    if cached is not None and cached.n_max >= n_max:
        return cached if cached.n_max == n_max else cached.prefix(n_max)
    start = cached.n_max + 1 if cached is not None else 0
    seeds, L = _float_seeds(params, n_max)
    separators = np.concatenate(([0.0], np.sqrt(seeds[:-1] * seeds[1:])))
    if not np.array_equal(_sturm_counts(params, L, separators), np.arange(n_max + 2)):
        raise BracketError(
            f"Sturm count of the order-{L} truncation does not separate roots 0..{n_max} "
            f"(params p={params.p}, e={params.e}, f={params.f})"
        )
    rows = list(zip(cached.roots, cached.residuals, cached.brackets, cached.dps_used)
                if cached is not None else ())
    work = _root_work(params, seeds[start : n_max + 1], target_tol)
    series = _series_at(params, max(dps for dps, _ in work))
    for n, (dps, terms) in enumerate(work, start):
        guard = (float(separators[n]), float(separators[n + 1]))
        root, residual, bracket = _certify_root(series, n, float(seeds[n]), dps, terms,
                                                guard, target_tol)
        if not (guard[0] < bracket[0] and bracket[1] < guard[1]):
            raise BracketError(f"bracket of root {n} crosses a Sturm separator")
        rows.append((root, residual, bracket, dps))
    table = RootTable(params, *map(tuple, zip(*rows)))
    _ROOT_CACHE.put(key, table)
    return table


# ---------------------------------------------------------------------------
# Eigenvector recurrence and series reconstruction
# ---------------------------------------------------------------------------


def eigvec_recurrence(params: FieldParams, lam, L: int) -> list:
    """Forward-propagated eigenvector of the depth tridiagonal at ``lam``.

    ``phi(0) = 1``, ``phi(1) = 1 - lam``, and for ``l >= 1``
    ``phi(l+1) = ((1 + Q) phi(l) - phi(l-1) - lam Q**(-(l-1)) phi(l)) / Q``
    with ``Q = p**(2/e)``.  At a true eigenvalue the recurrence follows the
    decaying solution; away from one it blows up (shooting diagnostic).
    Working precision is raised internally so the decaying solution stays
    resolved out to ``L`` steps (the decaying branch shrinks like
    ``Q**(-l)`` while rounding injects the non-decaying branch); pass an mpf
    ``lam`` from :func:`find_roots` so its full mantissa is used.
    """
    if L < 1:
        raise ValueError("L must be positive")
    log10Q = float(2 * mp.log10(mp.mpf(params.p)) / params.e)
    dps = max(mp.mp.dps, int(L * log10Q) + 80)
    with mp.workdps(dps):
        Q = mp.power(params.p, mp.mpf(2) / params.e)
        lam = mp.mpf(lam)
        phi = [mp.mpf(1), 1 - lam]
        for l in range(1, L):
            nxt = ((1 + Q) * phi[l] - phi[l - 1] - lam * Q ** (-(l - 1)) * phi[l]) / Q
            phi.append(nxt)
        return phi[: L + 1]


def eigvec_tail_mass(phi: list) -> float:
    """Relative squared tail mass of a propagated eigenvector.

    Sums ``|phi(l)|**2`` over the deep half ``l > L/2`` and divides by the
    total; tiny at a true eigenvalue, order 1 at a spurious one.
    """
    L = len(phi) - 1
    total = mp.fsum(abs(v) ** 2 for v in phi)
    tail = mp.fsum(abs(v) ** 2 for v in phi[L // 2 + 1 :])
    return float(tail / total)


def eigvec_series_c(params: FieldParams, lam, k_max: int) -> list:
    """Series coefficients ``c(2k)``, ``k = 1..k_max``, normalized ``c(2) = 1``.

    Successive ratios are
    ``c(2k)/c(2k-2) = (-lam/(1-q)) * Q**(k-1) (Q-1) / ((Q**(k-1)-1)(Q**k-1))``
    for ``k >= 2``.  The eigenvector value at depth ``l`` is
    ``sum_k c(2k) q**(l k)`` up to one overall normalization.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    Q = mp.power(params.p, mp.mpf(2) / params.e)
    qv = 1 / Q
    lam = mp.mpf(lam)
    coeffs = [mp.mpf(1)]
    for k in range(2, k_max + 1):
        ratio = (-lam / (1 - qv)) * Q ** (k - 1) * (Q - 1) / ((Q ** (k - 1) - 1) * (Q**k - 1))
        coeffs.append(coeffs[-1] * ratio)
    return coeffs


def eigvec_from_series(params: FieldParams, lam, l: int):
    """Eigenvector value at depth ``l >= 1`` from the first 60 ``c(2k)`` terms.

    Evaluated at elevated working precision so comparisons at relative
    1e-8 against the recurrence route are not limited by this evaluation.
    """
    if l < 1:
        raise ValueError("series reconstruction applies at depths l >= 1")
    with mp.workdps(max(mp.mp.dps, 120)):
        Q = mp.power(params.p, mp.mpf(2) / params.e)
        qv = 1 / Q
        coeffs = eigvec_series_c(params, lam, 60)
        return mp.fsum(c * qv ** (l * k) for k, c in enumerate(coeffs, start=1))
