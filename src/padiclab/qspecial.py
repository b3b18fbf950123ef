"""Basic q-hypergeometric machinery: series, roots, and eigenvector tails.

The depth-direction spectral problem reduces to the entire function

    F(z) = sum_(n>=0) (-1)**n q**(n(n-1)/2) z**n / ((q;q)_n)**2,    0 < q < 1,

whose roots ``lambda_0 < lambda_1 < ...`` are the base eigenvalues; the full
spectrum consists of the scaled families ``p**(2m/e) * lambda_n``.  The roots
grow like ``q**(-n)`` and satisfy the two-sided bracket

    q**(-n) - 1/(1 - q**n)  <=  lambda_n  <=  q**(-n)      (n >= 1),

with ``lambda_0`` in ``(0, 1)``.

Series evaluation.  A :class:`_QSeries` holds the ratios
``r_k = a_k / a_(k-1)`` of consecutive coefficients of ``F`` at one base and
one working precision, and sums ``F`` and ``F'`` from them at that precision
or below; :func:`phi11` and :func:`phi11_derivative` call it.  The table
grows by one rule: a pass that reads past its last ratio appends exactly the
next one, from ``q**(k-1)`` carried over from the ratio before, so each
ratio is computed once and the table ends as long as its longest pass.

Root search.  :func:`find_roots` seeds every root from the depth-direction
Jacobi block, whose eigenvalues are the roots of ``F``, and uses the series
only to certify them.  The seeds are float bisections of the block's Sturm
count: the signs of its ``LDL^T`` pivots, scaled per row so that they stay
in range, in Python floats and without forming the matrix.  The count ends
once the pivots have left the eigenvalue's neighbourhood and can no longer
change sign, so a count costs about as many rows as the eigenvalue's index
plus the digits that resolve it, and a count that ends early is the count
of the untruncated block: one bisection, its counts allowed up to a cap on
their rows, gives the seeds.  The same count indexes each root, and a float
estimate of the largest series term at the seed sets its working precision:
near ``lambda_n`` the terms peak at about ``Q**(n(n+1)/2)`` (``Q = 1/q``),
more as ``q -> 1``, and the residual gate ``|F(lambda_n)| < target_tol`` is
absolute, so it needs that many digits beyond the target's own.  One ratio
table per call, at the largest precision needed, serves every root and every
level of a precision-doubling Newton lift: a pass at fewer digits reads each
ratio mantissa shifted down to its own width as it sums.
Newton converges at the lowest level from the float seed, takes one step on
each doubled level, and converges again at full precision, where the point
it evaluated last is the root and its ``|F|`` the residual.  The root must
pass the residual gate and show certified opposite signs of ``F`` across
``lambda_n (1 -+ 10**-(dps-15))``, proved from the ``F`` and ``F'`` that
the last Newton pass summed at the root (:func:`_sign_change`), so the
certificate costs no pass of its own.  Locating a root needs only relative
accuracy, which ``d`` digits give whatever ``n`` is: at relative distance
``eps`` from the root ``|F|`` is about ``eps`` times the largest term, and
the rounding error of a ``d``-digit sum about ``10**-d`` times it.

All of this runs in Python integers.  At ``d`` digits every value (``q``,
the point, ``F``, ``F'``, the Newton steps and the enclosure) is held in
absolute fixed point with 32 guard bits below ``d`` digits' binary
precision, and each term is the last times ``r_k z``, so a pass is integer
products, shifts and comparisons.  The certified roots are exact
:class:`Dyadic` values; mpmath is imported only by :func:`phi11`,
:func:`phi11_derivative` and the eigenvector diagnostics, which take and
return mpmath numbers.

Also provided: the forward recurrence for the tridiagonal eigenvector at a
given eigenvalue (a shooting diagnostic: at a true eigenvalue the decaying
solution is selected and the tail mass is tiny), and the closed-form series
coefficients ``c(2k)`` reconstructing the same eigenvector, used as mutual
cross-checks.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .field_model import FieldParams

if TYPE_CHECKING:
    import numpy as np

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
# Guard bits carried by the ratio table and the fixed-point terms, so that
# their rounding stays far inside the margin of _sign_change.
_GUARD_BITS = 32
# Digits carried beyond the largest series term and the target's digits.
_GUARD_DPS = 30
# Term budget of a series evaluation; _root_work looks for the largest term
# within it.
_MAX_TERMS = 2000
# Most rows a Sturm count of the seeds may run through.
_SEED_MAX_ORDER = 1024
# A root certified at dps digits is enclosed in root (1 -+ 10**-(dps - _ENCLOSURE_DPS)).
_ENCLOSURE_DPS = 15


class BracketError(RuntimeError):
    """A root bracket failed its endpoint sign certification."""


class SeriesError(RuntimeError):
    """A series evaluation failed to meet its tail criterion."""


def _bits(dps: int) -> int:
    """Binary precision of ``dps`` decimal digits, as mpmath sets it."""
    return max(1, int(round((dps + 1) * 3.3219280948873626)))


def _scale(dps: int) -> int:
    """Fractional bits of the fixed point at ``dps`` digits."""
    return _bits(dps) + _GUARD_BITS


def _fixed(x: float, scale: int) -> int:
    """``floor(x * 2**scale)`` for a float ``x``, exactly."""
    num, den = x.as_integer_ratio()
    return (num << scale) // den


def _iroot(n: int, k: int) -> int:
    """``floor(n**(1/k))`` for ``n >= 1``, by Newton from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class Dyadic:
    """The exact value ``man * 2**exp``, stored with ``man`` odd (zero as ``0, 0``).

    The certified roots are of this type.  ``float()`` rounds to nearest,
    ties to even, as ``float`` of an mpmath number does, and ``_mpf_`` is
    the raw mpmath value, so ``mp.mpf``, ``mp.power`` and arithmetic with
    mpmath numbers take a root exactly.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int):
        zeros = max((man & -man).bit_length() - 1, 0)
        self.man, self.exp = man >> zeros, exp + zeros if man else 0

    def __float__(self) -> float:
        try:
            if self.exp >= 0:
                return float(self.man << self.exp)
            return self.man / (1 << -self.exp)
        except OverflowError:
            return math.copysign(math.inf, self.man)

    @property
    def _mpf_(self) -> tuple:
        from mpmath.libmp import from_man_exp

        return from_man_exp(self.man, self.exp)

    def __eq__(self, other):
        if isinstance(other, Dyadic):
            return self.man == other.man and self.exp == other.exp
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.man, self.exp))

    def __repr__(self) -> str:
        return f"<Dyadic {float(self)!r}: {self.man} * 2**{self.exp}>"


def _base(params: FieldParams, bits: int) -> tuple[int, int]:
    """``q = p**(-2/e)`` floored at ``bits`` fractional bits, as ``(man, bits)``:
    ``2**bits`` divided by ``p**(2/e)`` for ``e`` in {1, 2}, else the integer
    ``e``-th root of ``2**(e bits) / p**2``."""
    p, e = params.p, params.e
    if 2 % e == 0:
        return (1 << bits) // p ** (2 // e), bits
    return _iroot((1 << (e * bits)) // (p * p), e), bits


def _narrowed(ratio: tuple[int, int], width: int) -> tuple[int, int]:
    """A raw ratio rounded to nearest at ``width`` bits by a right shift."""
    man, exp = ratio
    shift = abs(man).bit_length() - width
    if shift <= 0:
        return ratio
    size = (abs(man) + (1 << (shift - 1))) >> shift
    return (-size if man < 0 else size), exp + shift


class _QSeries:
    """``F`` and ``F'`` at one base ``q``, at up to ``dps`` digits.

    Holds the ratios ``r_k = a_k / a_(k-1) = -q**(k-1) / (1 - q**k)**2`` of
    the coefficients ``a_k = (-1)**k q**(k(k-1)/2) / ((q;q)_k)**2`` of
    ``F(z) = sum a_k z**k``, rounded at ``scale = _scale(dps)`` bits and
    appended one at a time, at that width, when a pass first reads past the
    last.  ``q = (man, bits)`` is ``man * 2**-bits``.  A pass at ``d`` digits
    holds points, sums and terms in absolute fixed point at ``_scale(d)``
    bits: each term ``t_k = t_(k-1) * (r_k * z)`` is an exact product with
    ``z`` and the ratio's mantissa rounded to that width, and one floor shift.
    """

    def __init__(self, q: tuple[int, int], dps: int):
        if not 0 < q[0] < 1 << q[1]:
            raise ValueError("q must lie in (0, 1)")
        self.dps = dps
        self.scale = _scale(dps)
        self._q = q
        self._ratios: list[tuple[int, int]] = []  # r_k at index k - 1
        self._power = (1, 0)  # q**(k-1) for the next k, as (man, exp)

    def _extend(self) -> None:
        """Append the next ratio ``r_k``, ``k = len(self._ratios) + 1``, as a
        raw ``(mantissa, exponent)`` pair: ``r_k = mantissa * 2**exponent``,
        the mantissa signed.

        ``q**k`` is carried as a ``scale + _GUARD_BITS``-bit mantissa times a
        power of two, floored at each step; ``1 - q**k`` is exact on it, and
        the ratio is a floored quotient of ``scale + 2`` bits rounded to
        nearest at ``scale``.
        """
        q_man, q_bits = self._q
        man, exp = self._power
        next_man, next_exp = man * q_man, exp - q_bits  # q**k
        drop = next_man.bit_length() - self.scale - _GUARD_BITS
        if drop > 0:
            next_man, next_exp = next_man >> drop, next_exp + drop
        den = ((1 << -next_exp) - next_man) ** 2  # ((1 - q**k) 2**-next_exp)**2
        shift = den.bit_length() - man.bit_length() + self.scale + 2
        ratio = (-((man << shift) // den), exp - 2 * next_exp - shift)
        self._ratios.append(_narrowed(ratio, self.scale))
        self._power = next_man, next_exp

    def sums(self, z: int, dps: int):
        """``F(z)`` and ``F'(z)`` at ``dps`` digits (at most the table's),
        from one pass over the terms ``t_k = a_k z**k``.

        ``F = sum t_k`` and ``F' = (sum k t_k) / z``.  Each sum ends by the
        tail rule of :func:`phi11` on its own terms (``t_k``, ``k t_k / z``),
        and the pass ends once both have ended.  ``z`` and the results are in
        fixed point at ``scale = _scale(dps)``; each ratio mantissa is read
        rounded to nearest at that width, shifted down by ``self.scale -
        scale``.  Returns ``(F, F', terms, largest)``: the sums (``F'``
        floored), the number of terms of ``F`` and its largest term
        magnitude.  Raises :class:`SeriesError` when ``_MAX_TERMS`` runs out
        first.
        """
        scale = _scale(dps)
        drop = self.scale - scale
        half = ((1 << drop) - 1) >> 1  # ratios are negative: ties round away from 0
        # The rule "magnitude < 10**-(dps-5) * size" as magnitude * tol_den < size.
        tol_den = 10 ** (dps - 5)
        one = 1 << scale
        size_z = abs(z)
        zeros = max((z & -z).bit_length() - 1, 0)  # z = z_odd * 2**zeros
        z_odd = z >> zeros
        offset = scale - drop - zeros
        ratios = self._ratios
        f_open, d_open = True, z != 0
        term = f_sum = largest = f_prev = one  # F, starting from t_0 = 1
        d_sum, d_prev = 0, size_z  # z F', its rule scaled by |z|
        terms, k = 1, 0
        while f_open or d_open:
            k += 1
            if k > _MAX_TERMS:
                raise SeriesError(f"series did not meet tail tolerance 1e-{dps - 5} "
                                  f"within {_MAX_TERMS} terms")
            if k > len(ratios):
                self._extend()
            man, exp = ratios[k - 1]
            shift = offset - exp
            term *= ((man + half) >> drop) * z_odd
            term = term >> shift if shift >= 0 else term << -shift
            if f_open:
                f_sum += term
                mag = abs(term)
                if mag > largest:
                    largest = mag
                if mag <= f_prev:
                    size = abs(f_sum)
                    f_open = mag * tol_den >= (size if size > one else one)
                f_prev, terms = mag, k + 1
            if d_open:
                d_term = k * term
                d_sum += d_term
                mag = abs(d_term)
                if mag <= d_prev:
                    size = abs(d_sum)
                    d_open = mag * tol_den >= (size if size > size_z else size_z)
                d_prev = mag
        if z == 0:  # F'(0) = a_1 = r_1, and |r_1| > 1
            man, exp = ratios[0]
            d_sum = ((man + half) >> drop) << (scale + drop + exp)
        else:
            d_sum = (d_sum << scale) // z
        return f_sum, d_sum, terms, largest


def _caller_sums(q, z, derivative: bool):
    """``F(z)`` or ``F'(z)`` at the caller's mpmath precision, as an mpmath number."""
    import mpmath as mp
    from mpmath.libmp import from_man_exp, round_nearest, to_fixed

    sign, man, exp, _ = mp.mpf(q)._mpf_
    series = _QSeries(((-man if sign else man) << max(exp, 0), max(-exp, 0)), mp.mp.dps)
    z = to_fixed(mp.mpf(z)._mpf_, series.scale)
    value = series.sums(z, series.dps)[derivative]
    return mp.make_mpf(from_man_exp(value, -series.scale, _bits(series.dps), round_nearest))


def phi11(q, z):
    """Evaluate the base q-hypergeometric series at ``z``.

    Sums until the next term is below ``10**-(dps-5) * max(1, |sum|)``, at
    the caller's mpmath precision ``dps``, *and* terms have started
    decreasing; raises :class:`SeriesError` if ``_MAX_TERMS`` terms run out
    first, in this sum or in the derivative's, which the same pass sums.
    The ratios of consecutive coefficients are computed one at a time as
    the sums reach them.  Returns an mpmath number.
    """
    return _caller_sums(q, z, False)


def phi11_derivative(q, z):
    """Derivative in ``z`` of :func:`phi11` (termwise differentiation)."""
    return _caller_sums(q, z, True)


def _series_at(params: FieldParams, dps: int) -> _QSeries:
    return _QSeries(_base(params, _bits(dps) + 2 * _GUARD_BITS), dps)


def upper_bracket(params: FieldParams, n: int) -> float:
    """Upper root bracket ``p**(2n/e) = q**(-n)`` (equals 1 at ``n = 0``)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return params.scale_float(2 * n)


class RootTable(NamedTuple):
    """Certified roots ``lambda_0..lambda_n_max`` for one parameter set.

    Attributes:
        params: Field parameters.
        roots: Roots as exact :class:`Dyadic` values, ascending.
        residuals: ``|F(lambda_n)|`` as floats (evaluated at full precision).
            A residual depends on the whole request, not on its root alone:
            all roots of one call share one ratio table, rounded at the
            precision of the call's deepest root, so the same root can show
            a residual that differs in its last digits in a table of
            another length.
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

    def root(self, n: int) -> Dyadic:
        return self.roots[n]

    def values_float(self) -> np.ndarray:
        import numpy as np

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
                   for lo, hi, lam in zip(ladder, ladder[1:], map(float, self.roots)))


def _sturm_count(params: FieldParams, L: int):
    """Float Sturm count of the order-``L`` truncated Jacobi block, ``L >= 2``.

    Returns ``count(x) -> (below, through)``: ``below`` is the number of
    negative pivots of the ``LDL^T`` factorization of the block minus ``x``,
    which is the number of its eigenvalues below ``x``, and ``through``
    whether the count ran through every row rather than ending early (see
    below).  The block (row 0: diagonal 1, coupling -1; row
    ``l >= 1``: diagonal ``Q**(l-1) (1 + Q)``, coupling ``-Q**l`` to row
    ``l + 1``) is never formed.  Pivot ``l >= 1`` is divided by its row
    scale ``Q**(l-1)``, which keeps its sign and every value in range:
    ``D_0 = 1 - x``, ``D_1 = 1 + Q - x - 1/D_0`` and
    ``D_l = 1 + Q - x q**(l-1) - Q/D_(l-1)``.  A zero pivot counts as
    positive; the next one is then ``-inf``.

    The count ends early.  The map ``g(D) = 1 + Q - Q/D`` has the fixed
    points 1 and ``Q``, and it maps every ``D >= m = (1 + Q)/2`` to at least
    ``g(m) = m + delta`` with ``delta = (Q - 1)**2 / (2 (1 + Q)) > 0``.  Since
    ``D_l = g(D_(l-1)) - x q**(l-1)`` and ``x q**l`` falls with ``l``, once
    some ``D_j >= m`` (``j >= 1``) with ``x q**j <= delta/2``, every later
    pivot is at least ``m + delta/2`` before rounding, so at least ``m > 0``
    after it (a float step errs by a few ulps of ``1 + Q``, far below
    ``delta/2`` at the bases here), and none of them adds to the count: it
    equals the count of the full float recurrence.  Near an eigenvalue the
    pivots linger by the repelling fixed point 1, so the count runs on
    until ``x`` is resolved; far from every eigenvalue it ends a few rows
    past ``x q**l <= delta/2``, whatever ``L`` is.

    A count that ends early ends at the same row at every order above ``L``,
    after the same float operations, so it gives the same result at all of
    them.  As the order grows, the truncation's eigenvalues decrease to
    those of the untruncated block, the roots of ``F``, so the number of
    them below ``x`` tends to the number of roots below ``x``.  A count that
    ends early is therefore, up to the rounding of its pivots, the count of
    the untruncated block, and no larger order can change it.
    """
    Q, q = params.Q, params.q
    diag = 1.0 + Q
    mid = diag / 2
    half_delta = (Q - 1.0) ** 2 / (4 * diag)
    shifts = [q**l for l in range(1, L - 1)]  # q**(l-1) of pivots l = 2 .. L-1

    def count(x: float) -> tuple[int, bool]:
        d = 1.0 - x
        below = d < 0
        d = diag - x - (1.0 / d if d else math.inf)
        below += d < 0
        for shift in shifts:
            xs = x * shift
            if d >= mid and xs <= half_delta:
                return int(below), False
            d = diag - xs - (Q / d if d else math.inf)
            below += d < 0
        return int(below), True

    return count


def _bisect(count, n: int) -> list[float]:
    """Eigenvalues ``0 .. n-1`` of a positive definite matrix from its Sturm
    ``count`` (:func:`_sturm_count`).

    Eigenvalue ``k`` is a float ``hi`` with ``count(hi) > k`` whose
    predecessor ``lo`` has ``count(lo) <= k``.  Its search starts from the
    ``lo`` of eigenvalue ``k - 1`` (0 for ``k = 0``) and doubles upward to a
    ``hi``; then it halves the bracket, in geometric means while its ends
    are more than a factor 2 apart, until ``lo`` and ``hi`` are adjacent
    floats.  The list stops short before the first eigenvalue whose search
    met a count that ran through every row.
    """
    eigs, lo = [], 0.0
    for k in range(n):
        hi = math.inf
        while True:
            if hi == math.inf:
                x = 2 * lo if lo > 0 else 1.0
            elif lo > 0 and hi > 2 * lo:
                x = math.sqrt(lo) * math.sqrt(hi)
            else:
                x = lo + (hi - lo) / 2
            if not lo < x < hi:
                break
            below, through = count(x)
            if through:
                return eigs
            if below > k:
                hi = x
            else:
                lo = x
        eigs.append(hi)
    return eigs


def _float_seeds(params: FieldParams, n_max: int) -> tuple[list[float], int]:
    """Float roots ``0..n_max+1`` of ``F`` and the row cap ``L`` of their Sturm count.

    One :func:`_bisect` of the :func:`_sturm_count` of order ``L``, where
    every count must end early: it is then the count of the untruncated
    block, whose eigenvalues are the roots, so no larger order could move
    a seed.  ``L`` is ``_SEED_MAX_ORDER`` or less, keeping the unscaled
    block in float range (``Q**L`` below ``10**300``).  A request whose
    ``2 (n_max + 2)`` is over ``L`` is refused before any count, the one
    bound on a request's size; an eigenvalue whose count runs through all
    ``L`` rows raises :class:`BracketError`.
    """
    count = n_max + 2  # one eigenvalue beyond the last root, for its separator
    L = min(_SEED_MAX_ORDER, int(300 / math.log10(params.Q)))
    if 2 * count > L:
        raise BracketError(
            f"roots up to {n_max} need a Jacobi truncation of order {2 * count}, over the "
            f"limit of {L} (params p={params.p}, e={params.e}, f={params.f})"
        )
    eigs = _bisect(_sturm_count(params, L), count)
    if len(eigs) < count:
        raise BracketError(
            f"the Sturm count for root {len(eigs)} did not end within the limit of {L} "
            f"Jacobi rows (params p={params.p}, e={params.e}, f={params.f})"
        )
    return eigs, L


def _root_work(params: FieldParams, seeds: list[float], target_tol: float) -> list[int]:
    """Working precision ``dps`` for the root at each seed.

    The terms ``|a_k z**k|`` of ``F`` at ``z = lambda_n`` peak at ``10**T``,
    estimated here in floats over the first ``_MAX_TERMS`` terms (``T`` is
    about ``n(n+1)/2 log10 Q`` for small ``q`` and larger as ``q -> 1``,
    where ``(q;q)_k`` is small).  A ``d``-digit evaluation has absolute error
    near ``10**(T-d)`` and the gate ``|F(lambda_n)| < target_tol`` is
    absolute, so root ``n`` runs at ``T`` digits plus the target's plus
    ``_GUARD_DPS``.

    ``log10 |a_k z**k|`` is concave in ``k``: its second difference is
    ``log10 q + 2 log10((1 - q**k) / (1 - q**(k+1))) < 0``.  So once a term
    past the running maximum falls below ``10**-(dps-5)`` (the tail rule of
    :func:`phi11` where ``|F| < 1``), with ``dps`` taken from that maximum,
    no later term can exceed it, and the scan ends there with the peak of a
    scan over all ``_MAX_TERMS``.
    """
    q = params.q
    log_q, ln_q = math.log10(q), math.log(q)
    target_digits = max(0, math.ceil(-math.log10(target_tol)))
    log_coeffs = [0.0]  # log10 |a_k|, extended as the scans reach further
    log_poch = 0.0  # log10 (q;q)_k of the last coefficient
    work = []
    for z in seeds:
        log_z = math.log10(z)
        top, dps = 0.0, target_digits + _GUARD_DPS  # the term k = 0 is 1
        for k in range(1, _MAX_TERMS):
            if k == len(log_coeffs):
                log_poch += math.log10(-math.expm1(k * ln_q))
                log_coeffs.append(k * (k - 1) / 2 * log_q - 2 * log_poch)
            term = log_coeffs[k] + log_z * k
            if term > top:
                top = term
                dps = math.ceil(top) + target_digits + _GUARD_DPS
            elif term < 5 - dps:
                break
        work.append(dps)
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


def _newton(table: _QSeries, dps: int, x: int, guard: tuple[float, float], steps: int = 40):
    """Newton for ``F`` from ``x`` at ``dps`` digits, in fixed point at ``_scale(dps)``.

    Evaluates ``F`` and ``F'`` at most ``steps`` times, stopping at the first
    step below ``10**-(dps-10)`` relative; each Newton point is rounded to the
    binary precision of ``dps`` digits, and a step leaving the open interval
    ``guard`` is not taken.  Returns ``(x, sums, y)``: the last point ``x``
    evaluated, the pass there (``(F, F', terms, largest)`` as
    :meth:`_QSeries.sums` returns it) and the Newton point ``y`` that
    follows ``x`` (``x`` itself when the step is not taken).

    The rounding keeps the points as short as the precision they are good
    to.  Deep roots at small ``q`` lie within far less than that of a short
    dyadic number near ``Q**n``; a point rounded onto it is the root at
    every higher level too, and the last level then stops after one step.
    """
    scale, bits = _scale(dps), _bits(dps)
    lo, hi = _fixed(guard[0], scale), _fixed(guard[1], scale)
    tol = 10 ** (dps - 10)
    for i in range(steps):
        sums = table.sums(x, dps)
        fval, dval = sums[:2]
        step = (fval << scale) // dval if fval else 0
        y = x - step
        drop = y.bit_length() - bits
        if drop > 0:
            y = (y + (1 << (drop - 1))) >> drop << drop
        if not lo < y < hi:
            return x, sums, x
        if i + 1 == steps or abs(step) * tol < abs(x):
            return x, sums, y
        x = y


def _sign_change(sums: tuple, delta: int, dps: int, scale: int) -> bool:
    """Whether ``F`` has certified opposite signs at ``x -+ delta``.

    ``sums = (F, F', terms, largest)`` is the pass of :meth:`_QSeries.sums`
    at ``x``, at ``dps`` digits, and ``0 < delta <= eps |x|`` with
    ``eps = 10**-(dps - _ENCLOSURE_DPS)``, all in fixed point at ``scale``.
    The rule, decided exactly in integers, is

        |delta F'| > |F| + 2 terms largest 10**-(dps-1) + terms**3 largest eps**2.

    By Taylor's theorem ``F(x -+ delta) = F(x) -+ delta F'(x) + R``, so when
    ``|delta F'|`` exceeds the exact ``|F|`` plus ``|R|`` the two signs are
    those of ``-+ delta F'``.  The second term of the bound covers the
    rounding of the pass, and the third the remainder.

    Remainder.  With ``t_k = a_k x**k`` and ``|u| <= eps``, each term of
    ``R`` is ``t_k ((1 + u)**k - 1 - k u)``, at most ``|t_k| (k eps)**2 / 2
    e**(k eps)`` in modulus, so over the ``terms`` terms the pass summed
    ``|R| < 0.51 terms**3 eps**2 largest``.  At ``dps >= 40`` that is below
    ``2e-5`` of ``2 terms largest 10**-(dps-1)``, the margin that covers
    the rounding; a caller's ``target_tol`` above ``1e-10`` can bring
    ``dps`` down to ``_GUARD_DPS``, where the last term carries it.

    Rounding.  Write ``S`` for the fractional bits, ``prec + _GUARD_BITS``
    (``prec`` the binary precision of ``dps`` digits), which is also the
    width the pass reads the ratios at.  Each ratio is rounded to nearest at
    the table's width, at least ``S``, and again at ``S`` by the pass's
    shift, so it is within ``2 * 2**-S`` of its exact value at the table's
    ``q`` relative; that ``q``, floored 32 bits beyond the table's width,
    moves no ratio by as much again within ``_MAX_TERMS``.  The
    product with ``x`` is exact, so after ``k <= _MAX_TERMS`` steps ``t_k``
    has drifted by at most about ``4k 2**-S |t_k|``.  Each shift floors,
    losing less than ``2**-S`` in absolute value; a loss at step ``j``
    reaches ``t_k`` scaled by ``|t_k / t_j|``, which is at most
    ``largest``: ``|r_k x|`` falls with ``k``, so the term magnitudes rise
    from ``|t_0| = 1`` to their peak and then fall, and ``largest >= 1``.
    Hence each term is off by at most about ``5k 2**-S largest``.
    - ``F``, a ``terms``-term sum that is exact in fixed point, is off by
      ``terms * largest * 5 _MAX_TERMS 2**-(prec+32) < terms * largest *
      2**-(prec+18)``.  Since ``2**-prec < 0.15 * 10**-dps``, that is below
      a hundredth of ``terms largest 10**-(dps-1)``.
    - ``x F' = sum k t_k`` over at most ``K = _MAX_TERMS`` terms is off by
      at most ``5 K**3 2**-S largest``, and the floored division by ``x``
      adds ``2**-S``.  Since ``|x| <= |t_1| <= largest`` (``|r_1| > 1``) and
      ``eps <= 10**-15``, ``delta`` times the error of ``F'`` is below
      ``eps (5 K**3 + 1) 2**-S largest < 2**-(S+14) largest``.
    Both sit far inside ``2 terms largest 10**-(dps-1)``.  As with the
    residual, the certificate covers the pass's arithmetic, not the terms
    past the tail rule.
    """
    value, deriv, terms, largest = sums
    inv_eps, inv_err = 10 ** (dps - _ENCLOSURE_DPS), 10 ** (dps - 1)
    slope = abs(delta * deriv) * inv_err * inv_eps**2
    bound = ((abs(value) * inv_err + 2 * terms * largest) * inv_eps**2
             + terms**3 * largest * inv_err)
    return slope > bound << scale


def _certify_root(table: _QSeries, n: int, seed: float, dps: int,
                  guard: tuple[float, float], target_tol: float):
    """Certify root ``n`` from its float seed at ``dps`` digits, as described
    under "Certify" in :func:`find_roots`, every pass read from ``table``.
    Returns ``(root, residual, bracket)``."""
    levels = _newton_levels(dps)
    root = _fixed(seed, _scale(levels[0]))
    for i, (level, up) in enumerate(zip(levels, levels[1:])):
        root = _newton(table, level, root, guard, 40 if i == 0 else 1)[2]
        root <<= _scale(up) - _scale(level)
    scale = _scale(dps)
    root, sums, _ = _newton(table, dps, root, guard)
    residual = float(Dyadic(abs(sums[0]), -scale))
    if residual >= target_tol:
        raise BracketError(f"root {n} residual {residual:.3e} above target {target_tol}")
    delta = root // 10 ** (dps - _ENCLOSURE_DPS)
    left, right = root - delta, root + delta
    if not _sign_change(sums, delta, dps, scale):
        raise BracketError(f"final enclosure of root {n} shows no certified sign change")
    bracket = (math.nextafter(float(Dyadic(left, -scale)), -math.inf),
               math.nextafter(float(Dyadic(right, -scale)), math.inf))
    return Dyadic(root, -scale), residual, bracket


def find_roots(params: FieldParams, n_max: int, target_tol: float = 1e-10) -> RootTable:
    """Compute the roots ``lambda_0 .. lambda_n_max`` with certified brackets.

    Seed.  One float bisection of the Sturm count of the Jacobi block
    (:func:`_sturm_count`, :func:`_bisect`), every count of which ended
    before the row cap (:func:`_float_seeds`), seeds every root.

    Index.  The same count must find exactly ``n`` eigenvalues below the
    separator ``s_n``, the geometric mean of seeds ``n - 1`` and ``n``
    (``s_0 = 0``), for every ``n <= n_max + 1``, and end before the cap,
    and the bracket of root ``n`` must lie inside ``(s_n, s_(n+1))``.  A
    count that ends early is the count of the untruncated block, whose
    eigenvalues are the roots of ``F``, so the count below ``s_n`` is the
    number of roots of ``F`` below it, and the root certified in bracket
    ``n`` is ``lambda_n``.  This does not use the geometric interlacing
    ``q**-(n-1) < lambda_n``, which fails once ``q`` exceeds about 0.6 (see
    :attr:`RootTable.interlaced`).

    Precision.  Root ``n`` works at the digits of :func:`_root_work`: a
    float estimate of ``log10`` of the largest series term at the seed, plus
    the target's digits, plus ``_GUARD_DPS``.  One ratio table, at the
    largest of these precisions, serves every root and every Newton level:
    a pass at fewer digits rounds each ratio to its own width as it reads
    it, and a pass that reads past the table's end appends the next ratio
    at the table's width.

    Certify.  Newton lifts the seed through the precision-doubling schedule
    of :func:`_newton_levels`: the lowest level iterates until its step is
    below ``10**-(d-10)`` relative at its ``d`` digits, each level above
    takes one step, and the full-precision level iterates again.  No step
    may leave ``(s_n, s_(n+1))``.  At full precision the point Newton
    evaluated last is the root, and ``|F|`` there must be below
    ``target_tol``.  ``F`` must then have certified opposite signs across
    ``root (1 -+ 10**-(dps-15))``, which :func:`_sign_change` proves from
    the ``F``, ``F'``, term count and largest term of that last pass: the
    step ``delta F'`` across the enclosure must exceed ``|F|`` plus the
    pass's error bound and the Taylor remainder.  That enclosure, widened
    outward to floats, is the root's bracket.  Any failure raises
    :class:`BracketError`.

    Returns exactly ``n_max + 1`` roots.  Tables are cached per request
    ``(params, n_max, target_tol)``, the 32 most recently used kept
    (:func:`functools.lru_cache` on :func:`_root_table`): the same request
    returns the same table, and a table is a function of its request alone,
    whatever was asked before.
    """
    if not target_tol > 0:
        raise ValueError(f"target_tol must be positive, got {target_tol}")
    return _root_table(params, n_max, target_tol)


@functools.lru_cache(maxsize=32)
def _root_table(params: FieldParams, n_max: int, target_tol: float) -> RootTable:
    """The table :func:`find_roots` returns, computed without the cache."""
    seeds, L = _float_seeds(params, n_max)
    separators = [0.0] + [math.sqrt(a * b) for a, b in zip(seeds, seeds[1:])]
    count = _sturm_count(params, L)
    if [count(x) for x in separators] != [(n, False) for n in range(n_max + 2)]:
        raise BracketError(
            f"Sturm count of the order-{L} truncation does not separate roots 0..{n_max} "
            f"(params p={params.p}, e={params.e}, f={params.f})"
        )
    work = _root_work(params, seeds[: n_max + 1], target_tol)
    series = _series_at(params, max(work))
    rows = []
    for n, dps in enumerate(work):
        guard = (separators[n], separators[n + 1])
        root, residual, bracket = _certify_root(series, n, seeds[n], dps, guard, target_tol)
        if not (guard[0] < bracket[0] and bracket[1] < guard[1]):
            raise BracketError(f"bracket of root {n} crosses a Sturm separator")
        rows.append((root, residual, bracket, dps))
    return RootTable(params, *map(tuple, zip(*rows)))


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
    ``Q**(-l)`` while rounding injects the non-decaying branch); pass a root
    ``lam`` from :func:`find_roots` so its full mantissa is used.
    """
    if L < 1:
        raise ValueError("L must be positive")
    import mpmath as mp

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
    import mpmath as mp

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
    import mpmath as mp

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
    import mpmath as mp

    with mp.workdps(max(mp.mp.dps, 120)):
        Q = mp.power(params.p, mp.mpf(2) / params.e)
        qv = 1 / Q
        coeffs = eigvec_series_c(params, lam, 60)
        return mp.fsum(c * qv ** (l * k) for k, c in enumerate(coeffs, start=1))
