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

Precision.  Near ``lambda_n ~ Q**n`` (``Q = 1/q``) the largest series term
and ``|lambda_n F'(lambda_n)|`` are both about ``Q**(n(n+1)/2)``.  At
relative distance ``eps`` from the root, ``|F|`` is therefore about ``eps``
times the largest term, while the rounding error of a ``d``-digit sum is
about ``10**-d`` times it: signs and Newton steps locate the root to
relative accuracy near ``10**-d`` with ``d`` digits, whatever ``n`` is.
Only the absolute statements need precision that grows with ``n``.  The
gate ``|F(lambda_n)| < target_tol`` needs an absolute error below the
target, about ``n(n+1)/2 log10 Q`` digits more than the target's own, and
the final enclosure ``lambda_n (1 -+ 10**-(dps-15))`` is sized from the
per-root precision of :func:`_root_dps`.  So :func:`find_roots` searches at
low precision: bisection to 1e-15 relative at ``_SEARCH_DPS`` digits, then
Newton lifted through the precision-doubling schedule of
:func:`_newton_levels`.  It certifies at ``_root_dps``: the bracket endpoint
signs, the residual gate and the enclosure signs.  Everything runs in
mpmath.

Also provided: the forward recurrence for the tridiagonal eigenvector at a
given eigenvalue (a shooting diagnostic: at a true eigenvalue the decaying
solution is selected and the tail mass is tiny), and the closed-form series
coefficients ``c(2k)`` reconstructing the same eigenvector, used as mutual
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    fone, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_mul_int, mpf_pos,
)
from mpmath.libmp import round_nearest as _RND

from .field_model import FieldParams

__all__ = [
    "BracketError",
    "SeriesError",
    "RootTable",
    "q_pochhammer",
    "phi11",
    "phi11_derivative",
    "lower_bracket",
    "upper_bracket",
    "find_roots",
    "eigvec_recurrence",
    "eigvec_tail_mass",
    "eigvec_series_c",
    "eigvec_from_series",
]

# Precision of the root search: bisection, and the floor of the Newton
# precision schedule.  Certification runs at _root_dps.
_SEARCH_DPS = 30
# Digits added at each halving of the Newton precision schedule.
_SCHEDULE_GUARD_DPS = 10
# Guard bits carried by the coefficient table and the powers of z, so that
# their rounding stays far inside the error bound of _QSeries.sign.
_GUARD_BITS = 32


class BracketError(RuntimeError):
    """A root bracket failed its endpoint sign certification."""


class SeriesError(RuntimeError):
    """A series evaluation failed to meet its tail criterion."""


def q_pochhammer(q, n: int):
    """Finite product ``(q; q)_n = prod_(k=1..n) (1 - q**k)``.

    Exact for :class:`fractions.Fraction` input; mpmath floats otherwise.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if isinstance(q, Fraction):
        out = Fraction(1)
        for k in range(1, n + 1):
            out *= 1 - q**k
        return out
    qv = mp.mpf(q)
    out = mp.mpf(1)
    for k in range(1, n + 1):
        out *= 1 - qv**k
    return out


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

    def rounded(self, dps: int) -> _QSeries:
        """This series at a lower precision ``dps``, its table rounded from this one."""
        lower = _QSeries(self._q, dps)
        wide = lower._prec + _GUARD_BITS
        lower._coeffs = [mpf_pos(a, wide, _RND) for a in self._coeffs]
        with mp.workprec(wide):
            lower._q_pow = +self._q_pow
        return lower

    def sums(self, z, target_tol=None, max_terms: int = 2000,
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

    def value(self, z):
        """``F(z)`` with the default tail tolerance."""
        return self.sums(z)[0]

    def sign(self, z):
        """Sign of ``F(z)``, or ``None`` when ``|F(z)|`` does not exceed the
        evaluation's error bound: terms summed times the largest term times
        ``10**-(dps-1)``."""
        value, _, terms, largest = self.sums(z)
        if abs(value) > terms * largest * self._rel_error:
            return int(mp.sign(value))
        return None


def phi11(q, z, target_tol=None, max_terms: int = 2000):
    """Evaluate the base q-hypergeometric series at ``z``.

    Sums until the next term is below ``target_tol * max(1, |sum|)`` *and*
    terms have started decreasing; raises :class:`SeriesError` if
    ``max_terms`` is exhausted first.  Runs at the caller's mpmath precision
    (``target_tol=None`` uses that precision's floor).
    """
    return _QSeries(mp.mpf(q), mp.mp.dps).sums(z, target_tol, max_terms)[0]


def phi11_derivative(q, z, target_tol=None, max_terms: int = 2000):
    """Derivative in ``z`` of :func:`phi11` (termwise differentiation)."""
    series = _QSeries(mp.mpf(q), mp.mp.dps)
    return series.sums(z, target_tol, max_terms, value=False, derivative=True)[1]


def _mp_q(params: FieldParams) -> mp.mpf:
    return mp.power(params.p, -mp.mpf(2) / params.e)


def _series_at(params: FieldParams, dps: int) -> _QSeries:
    with mp.workdps(dps):
        return _QSeries(_mp_q(params), dps)


def lower_bracket(params: FieldParams, n: int) -> float:
    """Lower root bracket ``p**(2n/e) * (1 - p**(-2n/e) / (1 - p**(-2n/e)))``.

    Equals ``q**(-n) - 1/(1 - q**n)``; positive for all ``n >= 1`` except
    that it degenerates to 0 at ``q = 1/2, n = 1``.
    """
    if n < 1:
        raise ValueError("lower bracket defined for n >= 1")
    q = params.q
    return params.scale_float(2 * n) * (1.0 - q**n / (1.0 - q**n))

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
        brackets: The certified sign-change intervals per root, as floats
            rounded outward so that each encloses its root.
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

    def prefix(self, n_max: int) -> RootTable:
        """The table of roots ``0..n_max``."""
        k = n_max + 1
        return RootTable(self.params, self.roots[:k], self.residuals[:k],
                         self.brackets[:k], self.dps_used[:k])


def _root_dps(params: FieldParams, n: int) -> int:
    """Certification precision for root ``n``.

    Near ``lambda_n ~ Q**n`` the series terms peak at roughly
    ``Q**(n(n+1)/2)``, so an evaluation's absolute error is that size times
    ``10**-dps``.  The absolute gate ``|F(lambda_n)| < target_tol`` thus
    needs about ``n(n+1)/2 log10(Q)`` digits more than the target's own, and
    the root to a matching relative accuracy.  This allows
    ``n(n+1) log10(Q)`` digits plus 60 of headroom, and the final enclosure
    ``lambda_n (1 -+ 10**-(dps-15))`` is sized from it, so the last Newton
    level runs here too.  The search needs only relative accuracy and runs
    at ``_SEARCH_DPS`` digits and on the levels of :func:`_newton_levels`.
    """
    log10Q = 2 * mp.log10(mp.mpf(params.p)) / params.e
    return int(n * (n + 1) * log10Q) + 60


def _newton_levels(dps: int) -> list[int]:
    """Backward precision-doubling schedule ``dps, dps//2 + c, ...``, lowest first.

    Halving stops before the search precision; each level starts from a root
    good to about the previous level's digits, which Newton doubles.
    """
    levels = [dps]
    while levels[-1] // 2 + _SCHEDULE_GUARD_DPS > _SEARCH_DPS:
        levels.append(levels[-1] // 2 + _SCHEDULE_GUARD_DPS)
    return levels[::-1]


def _certified_bracket(full: _QSeries, params: FieldParams, n: int):
    """Bracket of root ``n`` with endpoint signs certified at full precision.

    Returns ``(lo, hi, sign of F(lo))``.  The bracket is not widened: when
    its endpoints do not differ in sign it is scanned once at 64 points, and
    :class:`BracketError` is raised if no sign change turns up.
    """
    q = _mp_q(params)
    if n == 0:
        lo, hi = mp.mpf(10) ** (-12), mp.mpf(1)
    else:
        lower = q ** (-n) - 1 / (1 - q**n)
        lo, hi = max(lower, q ** (-(n - 1))), q ** (-n)
    f_lo, f_hi = full.value(lo), full.value(hi)
    if f_lo != 0 and f_hi != 0 and mp.sign(f_lo) != mp.sign(f_hi):
        return lo, hi, int(mp.sign(f_lo))
    grid = [lo + (hi - lo) * k / 64 for k in range(65)]
    vals = [full.value(g) for g in grid]
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa != 0 and fb != 0 and mp.sign(fa) != mp.sign(fb):
            return a, b, int(mp.sign(fa))
    raise BracketError(
        f"no sign change on the bracket for root {n} "
        f"(params p={params.p}, e={params.e}, f={params.f})"
    )


def _bisect(search: _QSeries, full: _QSeries, lo, hi, sign_lo):
    """Bisect ``(lo, hi)`` at the search precision to ~1e-15 relative.

    A sign taken at the search precision counts only when ``|F|`` exceeds
    that evaluation's error bound (:meth:`_QSeries.sign`); otherwise the
    point is evaluated again at full precision.  So the bracket returned
    keeps a sign change that holds at full precision.
    """
    with mp.workdps(search.dps):
        for _ in range(60):
            mid = (lo + hi) / 2
            sign = search.sign(mid)
            if sign is None:
                sign = int(mp.sign(full.value(mid)))
            if sign == 0:
                return mid, mid
            if sign == sign_lo:
                lo = mid
            else:
                hi = mid
            if hi - lo < mp.mpf(10) ** (-15) * hi:
                break
    return lo, hi


def _newton(series: _QSeries, root, lo, hi):
    """Newton iteration at the series' precision ``d`` until a step is below
    ``10**-(d-10)`` relative; a step leaving ``(lo/2, 2 hi)`` is not taken."""
    with mp.workdps(series.dps):
        root = mp.mpf(root)
        tol = mp.mpf(10) ** (-(series.dps - 10))
        for _ in range(40):
            fval, dval, _, _ = series.sums(root, derivative=True)
            if fval == 0:
                break
            step = fval / dval
            new_root = root - step
            if not lo / 2 < new_root < hi * 2:
                break
            root = new_root
            if abs(step) < tol * abs(root):
                break
    return root


def _outward(lo, hi) -> tuple[float, float]:
    """``(lo, hi)`` as floats rounded outward, so they still enclose the root."""
    a, b = float(lo), float(hi)
    if a > lo:
        a = math.nextafter(a, -math.inf)
    if b < hi:
        b = math.nextafter(b, math.inf)
    return a, b


def _find_one_root(params: FieldParams, n: int, target_tol: float, search: _QSeries):
    """Locate lambda_n at low precision, then certify it at ``_root_dps``."""
    dps = _root_dps(params, n)
    full = _series_at(params, dps)
    with mp.workdps(dps):
        lo, hi, sign_lo = _certified_bracket(full, params, n)
        lo, hi = _bisect(search, full, lo, hi, sign_lo)
        root = (lo + hi) / 2
        for level in _newton_levels(dps):
            root = _newton(full if level == dps else full.rounded(level), root, lo, hi)
        residual = abs(full.value(root))
        if float(residual) >= target_tol:
            raise BracketError(
                f"root {n} residual {float(residual):.3e} above target {target_tol}"
            )
        # Certify the final enclosure by endpoint signs.
        delta = mp.mpf(10) ** (-(dps - 15)) * root
        f_left, f_right = full.value(root - delta), full.value(root + delta)
        if f_left != 0 and f_right != 0 and mp.sign(f_left) == mp.sign(f_right):
            raise BracketError(f"final enclosure for root {n} lost its sign change")
        return root, float(residual), _outward(lo, hi), dps


_ROOT_CACHE: dict[tuple, RootTable] = {}


def find_roots(params: FieldParams, n_max: int, target_tol: float = 1e-10) -> RootTable:
    """Compute the roots ``lambda_0 .. lambda_n_max`` with certified brackets.

    Each root is isolated by endpoint sign checks on its bracket (for
    ``n >= 1``: from ``max(lower bracket, previous upper)`` to ``q**(-n)``;
    for ``lambda_0``: ``(1e-12, 1]``).  The search then runs at low
    precision: bisection to 1e-15 relative at ``_SEARCH_DPS`` digits, and
    Newton on each level of :func:`_newton_levels` until its step is below
    ``10**-(d-10)`` relative at that level's ``d`` digits.  Locating a root
    needs only relative accuracy, which ``d`` digits give whatever ``n`` is.
    A bisection sign counts only when ``|F|`` exceeds its evaluation's error
    bound; otherwise that point is evaluated again at full precision.

    Certification runs at the per-root precision of :func:`_root_dps`:
    the bracket endpoint signs (and the 64-point scan when they agree),
    ``|F(root)| < target_tol``, and a sign change across
    ``root (1 -+ 10**-(dps-15))``.  These are the steps that need the
    ``n(n+1) log10 Q`` digits: the gate is absolute while the terms reach
    ``Q**(n(n+1)/2)``, and the enclosure width is sized from ``_root_dps``.
    Raises :class:`BracketError` on any certification failure rather than
    widening brackets silently.

    Returns exactly ``n_max + 1`` roots.  Results are cached per parameter
    set: a request of the cached size returns the cached table, a shorter
    one its prefix, and a longer one extends it.
    """
    key = (params.p, params.e, params.f, target_tol)
    cached = _ROOT_CACHE.get(key)
    if cached is not None and cached.n_max >= n_max:
        return cached if cached.n_max == n_max else cached.prefix(n_max)
    start = cached.n_max + 1 if cached is not None else 0
    roots = list(cached.roots) if cached is not None else []
    residuals = list(cached.residuals) if cached is not None else []
    brackets = list(cached.brackets) if cached is not None else []
    dps_used = list(cached.dps_used) if cached is not None else []
    search = _series_at(params, _SEARCH_DPS)
    for n in range(start, n_max + 1):
        root, res, bracket, dps = _find_one_root(params, n, target_tol, search)
        roots.append(root)
        residuals.append(res)
        brackets.append(bracket)
        dps_used.append(dps)
    table = RootTable(
        params=params,
        roots=tuple(roots),
        residuals=tuple(residuals),
        brackets=tuple(brackets),
        dps_used=tuple(dps_used),
    )
    _ROOT_CACHE[key] = table
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


def eigvec_from_series(params: FieldParams, lam, l: int, k_max: int = 60):
    """Eigenvector value at depth ``l >= 1`` from the ``c(2k)`` series.

    Evaluated at elevated working precision so comparisons at relative
    1e-8 against the recurrence route are not limited by this evaluation.
    """
    if l < 1:
        raise ValueError("series reconstruction applies at depths l >= 1")
    with mp.workdps(max(mp.mp.dps, 120)):
        Q = mp.power(params.p, mp.mpf(2) / params.e)
        qv = 1 / Q
        coeffs = eigvec_series_c(params, lam, k_max)
        return mp.fsum(c * qv ** (l * k) for k, c in zip(range(1, k_max + 1), coeffs))
