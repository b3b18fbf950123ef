"""Analytic spectrum tables, Schatten and zeta sums.

The analytic spectrum of the window square consists of the scaled families
``p**(2m/e) * lambda_n`` where ``lambda_n`` are the series roots and ``m``
ranges over tail lengths with multiplicity ``count_g(m)``.  Its
cross-check against the assembled window matrix lives in
:mod:`padiclab.validation`, which ``spectrum`` and ``zeta`` never load; the
validator's public names are served from here as well (PEP 562), so
``spectrum_zeta.validate_spectrum`` is ``validation.validate_spectrum``.

Zeta values are truncated root sums with certified geometric tail bounds from
the root brackets, and the full-spectrum zeta factors through an explicit
rational function of ``p**(-2s/e)`` whose poles and zeros are reported
symbolically.
"""

from __future__ import annotations

import cmath
import importlib
import math
from typing import TYPE_CHECKING, NamedTuple

from .field_model import FieldParams, count_g
from .qspecial import find_roots

# numpy is imported inside values_expanded and schatten_partial, the only
# functions here that use it: spectrum and zeta never load it.  mpmath is
# imported by zeta_D0 alone, for an s off the half-integer lattice.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PoleError",
    "CutoffError",
    "SpectrumRow",
    "SpectrumTable",
    "ZetaValue",
    "CheckResult",
    "ValidationReport",
    "full_spectrum",
    "validate_spectrum",
    "schatten_partial",
    "schatten_m_factor",
    "zeta_D0",
    "zeta_DR",
    "zeta_factor",
    "factor_poles",
    "factor_zeros",
]

# Defined in padiclab.validation, imported on first lookup.
_VALIDATION = ("CheckResult", "ValidationReport", "validate_spectrum")


def __getattr__(name: str):
    if name in _VALIDATION:
        # Not ``from . import validation``: that looks ``validation`` up on the
        # lazy package first, whose namespace build looks these names up here.
        return getattr(importlib.import_module(f"{__package__}.validation"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Most decimal digits of a multiplicity in a spectrum table.  CPython turns an
# int into a string in time quadratic in its digits, so a table of
# 900,000-digit multiplicities took minutes to print.
MAX_MULTIPLICITY_DIGITS = 20_000


class PoleError(ValueError):
    """The zeta factor was evaluated at (or numerically at) a pole."""


class CutoffError(RuntimeError):
    """The window is too shallow for the requested number of eigenvalues."""


# ---------------------------------------------------------------------------
# Analytic spectrum table
# ---------------------------------------------------------------------------


class SpectrumRow(NamedTuple):
    """One spectral family: value ``p**(2m/e) * lambda_n`` with multiplicity."""

    m: int
    n: int
    lam: float
    value: float
    multiplicity: int


class SpectrumTable(NamedTuple):
    """All families ``(m <= m_max, n <= n_max)``, sorted by value then (m, n)."""

    params: FieldParams
    rows: tuple[SpectrumRow, ...]

    def values_expanded(self, k: int | None = None) -> np.ndarray:
        """Values repeated by multiplicity, ascending; first ``k`` if given."""
        import numpy as np

        out: list[float] = []
        for row in self.rows:
            if k is not None and len(out) >= k:
                break
            count = row.multiplicity if k is None else min(row.multiplicity, k - len(out))
            out.extend([row.value] * count)
        return np.array(out)


def full_spectrum(
    params: FieldParams,
    m_max: int,
    n_max: int,
    target_tol: float = 1e-10,
) -> SpectrumTable:
    """Analytic spectrum with multiplicities ``count_g(m)``.

    Raises :class:`ValueError` naming the first ``(m, n)`` whose value is not a
    finite float, or, before any root is computed, an ``m`` past the float
    range or a multiplicity ``count_g(m_max)``, about ``p**(m_max f)``, of
    over ``MAX_MULTIPLICITY_DIGITS`` digits, judged by its logarithm.
    """
    scales = []
    for m in range(m_max + 1):
        try:
            scales.append(params.scale_float(2 * m))
        except OverflowError:
            raise ValueError(f"scale p**(2m/e) at m = {m} is not a finite float") from None
    digits = m_max * params.f * math.log10(params.p)
    if digits > MAX_MULTIPLICITY_DIGITS:
        raise ValueError(f"multiplicity at m = {m_max} has about {math.ceil(digits)} digits, "
                         f"over the limit of {MAX_MULTIPLICITY_DIGITS}")
    roots = find_roots(params, n_max, target_tol=target_tol)
    rows = []
    for m, scale in enumerate(scales):
        mult = count_g(params, m)
        for n in range(n_max + 1):
            lam = float(roots.root(n))
            if not math.isfinite(scale * lam):
                raise ValueError(f"spectrum value at (m, n) = ({m}, {n}) is not a finite float")
            rows.append(SpectrumRow(m=m, n=n, lam=lam, value=scale * lam, multiplicity=mult))
    rows.sort(key=lambda r: (r.value, r.m, r.n))
    return SpectrumTable(params=params, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Schatten partial traces
# ---------------------------------------------------------------------------


def schatten_m_factor(params: FieldParams, s: float, m_max: int | None = None) -> float:
    """The tail-multiplicity factor ``1 + sum_m p**(-2ms/e) count_g(m)``.

    With ``r = p**(f - 2s/e)`` the term ``m >= 1`` is ``(1 - p**-f) r**m``,
    which underflows where ``count_g(m)`` would not convert to a float.
    Closed form ``1 + (1 - p**-f) r / (1 - r)`` when ``s > ef/2`` and
    ``m_max`` is None; a truncated sum otherwise.  Raises :class:`PoleError`
    labeled divergent for ``s <= ef/2`` when the closed form is requested,
    and when a truncated sum there leaves the float range.
    """
    r = float(params.p) ** (params.f - 2.0 * s / params.e)
    weight = 1.0 - float(params.p) ** (-params.f)
    if m_max is None:
        if r >= 1.0:
            raise PoleError(
                f"m-factor diverges for s <= ef/2 = {params.ef / 2} (got s={s})"
            )
        return 1.0 + weight * r / (1.0 - r)
    try:
        total = 1.0 + sum(weight * r**m for m in range(1, m_max + 1))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise PoleError(
            f"m-factor truncated at m_max = {m_max} leaves the float range for "
            f"s <= ef/2 = {params.ef / 2} (got s={s})"
        )
    return total


def schatten_partial(params: FieldParams, s: float, m_max: int, n_max: int) -> float:
    """Partial trace ``sum_(n<=n_max) m_factor(s, m_max) * lambda_n**(-s)``.

    ``s`` must be positive; the m-sum diverges (term-wise constant or
    growing) for ``s <= ef/2``, which :func:`schatten_m_factor` exposes.
    """
    import numpy as np

    if s <= 0:
        raise ValueError("s must be positive")
    roots = find_roots(params, n_max)
    factor = schatten_m_factor(params, s, m_max=m_max)
    lam = roots.values_float()
    return float(factor * np.sum(lam ** (-s)))


# ---------------------------------------------------------------------------
# Zeta values
# ---------------------------------------------------------------------------


class ZetaValue(NamedTuple):
    """A truncated zeta sum with a certified tail bound."""

    s: complex
    value: complex
    n_roots_used: int
    tail_bound: float


def _rounded(man: int, exp: int, prec: int, down: bool = False) -> tuple[int, int]:
    """``man * 2**exp`` (``man > 0``) rounded to ``prec`` bits as mpmath's
    ``normalize`` rounds: to nearest with ties to even, or down with ``down``.
    The mantissa comes back odd."""
    drop = man.bit_length() - prec
    if drop > 0:
        half = 1 << (drop - 1)
        rest = man & ((half << 1) - 1)
        man >>= drop
        exp += drop
        if not down and (rest > half or (rest == half and man & 1)):
            man += 1
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp + zeros


def _inverse_power(man: int, exp: int, n: int) -> tuple[int, int]:
    """``x**-n`` for ``x = man * 2**exp`` (``man`` odd) and ``n >= 1``, as
    mpmath's ``mpf_pow_int(x, -n, 53)``: ``x**n`` at 58 bits (exact, then
    rounded, for a short product; else binary powering truncated at
    ``58 + 4*bitcount(n) + 4`` bits), then ``1/x**n`` rounded at 53 bits."""
    if n > 1:
        if n == 2 or man.bit_length() * n < 1000:
            man, exp = _rounded(man**n, exp * n, 58)
        else:
            work = 58 + 4 * n.bit_length() + 4
            pm, pe = 1, 0
            while True:
                if n & 1:
                    pm, pe = pm * man, pe + exp
                    cut = max(pm.bit_length() - work, 0)
                    pm, pe = pm >> cut, pe + cut
                    n -= 1
                    if not n:
                        break
                man, exp = man * man, exp + exp
                cut = max(man.bit_length() - work, 0)
                man, exp = man >> cut, exp + cut
                n //= 2
            man, exp = _rounded(pm, pe, 58)
    if man == 1:
        return 1, -exp
    extra = man.bit_length() + 57
    # man is odd and above 1, so the quotient never ends: one sticky bit
    return _rounded((((1 << extra) // man) << 1) | 1, -exp - extra - 1, 53)


def _lattice_sum(roots, s: complex) -> complex | None:
    """``sum r**-s`` over the :class:`Dyadic` ``roots``, rounded bit for bit as
    ``mp.fsum(mp.power(r, -s) ...)`` at 53 bits, for a real ``s > 0`` with
    ``2s`` an integer; ``None`` for any other ``s``.

    Those are mpmath's two integer branches of ``mpc_pow_mpf``: for a
    half-integer ``s`` the root is first square-rooted, rounded down at 63
    bits; each term is then :func:`_inverse_power`.  The terms are added
    exactly under ``mpf_sum``'s rule (a term more than 106 bits below the
    running sum is dropped, and a running sum that far below a new term is
    replaced by it), the sum is rounded once at 53 bits, and ``ldexp`` gives
    the float (``inf`` past the float range, as ``to_float``).
    """
    if s.imag or not (2 * s.real).is_integer():
        return None
    n = int(2 * s.real)
    half = n & 1
    if not half:
        n >>= 1
    man = exp = 0
    for root in roots:
        x_man, x_exp = root.man, root.exp
        if half:  # mpf_sqrt at 63 bits, rounded down
            if x_exp & 1:
                x_man, x_exp = x_man << 1, x_exp - 1
            shift = max(4, 130 - x_man.bit_length())
            shift += shift & 1
            x_man, x_exp = _rounded(math.isqrt(x_man << shift), (x_exp - shift) // 2,
                                    63, down=True)
        x_man, x_exp = _inverse_power(x_man, x_exp, n)
        delta = x_exp - exp
        if delta >= 0:
            if delta > 106 and (not man or delta - man.bit_length() > 106):
                man, exp = x_man, x_exp
            else:
                man += x_man << delta
        elif -delta - x_man.bit_length() <= 106:
            man, exp = (man << -delta) + x_man, x_exp
        elif not man:
            man, exp = x_man, x_exp
    man, exp = _rounded(man, exp, 53)
    try:
        return complex(math.ldexp(man, exp), 0.0)
    except OverflowError:
        return complex(math.inf, 0.0)


def _kappa(q: float, n_roots: int) -> float:
    """Lower-bracket factor ``1 - q**n/(1 - q**n)`` of the zeta tail bound."""
    return 1.0 - q**n_roots / (1.0 - q**n_roots)


def _fewest_roots(q: float) -> int:
    """The smallest ``n_roots`` whose :func:`_kappa` is positive in floats.

    ``q**n`` falls with ``n``, so the float test is monotone: doubling finds
    a positive count and bisection the first one, in about ``2 log2 n``
    tests (4 at (2,8,1), 101 at (2,200,1), 6243314768165360 at
    ``q = 1 - 2**-53``).
    """
    hi = 1
    while _kappa(q, hi) <= 0:
        hi *= 2
    lo = hi // 2  # 0, or a count that failed
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _kappa(q, mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def zeta_D0(params: FieldParams, s: complex, n_roots: int = 25) -> ZetaValue:
    """Base zeta ``sum_n lambda_n**(-s)`` truncated at ``n_roots`` roots.

    Requires ``Re(s) > 0``.  The tail is bounded through the lower root
    brackets ``lambda_n >= q**(-n) (1 - q**n/(1 - q**n))`` by geometric
    domination; ``n_roots`` must be large enough for the bracket to be
    positive, that is ``q**n_roots < 1/2``.  Two roots suffice while
    ``q**2 < 1/2``; at (2,8,1), ``q`` about 0.84, it takes four, and a
    smaller ``n_roots`` raises :class:`ValueError` naming the smallest
    count that passes (:func:`_fewest_roots`), and so does an ``s``
    at which the value or the tail bound is not a finite float (for
    example ``s = 2000`` at (2,1,1), where ``lambda_0**-s`` overflows, or
    ``s = 1e-17``, where ``q**s`` rounds to 1 and the tail bound divides by 0).

    The root sum is ``mp.fsum(mp.power(r, -s) ...)`` at 53 bits, whatever
    the caller's mpmath precision.  For a real ``s`` with ``2s`` an integer
    it is formed in Python integers (:func:`_lattice_sum`), with no mpmath:
    each term is rounded as mpmath's integer-power branch rounds it, and the
    sum is rounded once.  Any other ``s`` is summed by mpmath itself.
    """
    s = complex(s)
    sigma = s.real
    if sigma <= 0:
        raise ValueError("zeta is implemented for Re(s) > 0 only")
    if n_roots < 1:
        raise ValueError("need at least one root")
    q = params.q
    kappa = _kappa(q, n_roots)
    if kappa <= 0:
        raise ValueError(
            f"tail bound degenerate at n_roots={n_roots}; "
            f"use at least {_fewest_roots(q)} roots"
        )
    roots = find_roots(params, n_roots - 1).roots
    value = _lattice_sum(roots, s)
    if value is None:
        import mpmath as mp

        with mp.workprec(53):
            value = complex(mp.fsum(mp.power(r, -mp.mpc(s)) for r in roots))
    try:
        tail = kappa ** (-sigma) * q ** (n_roots * sigma) / (1.0 - q**sigma)
    except (OverflowError, ZeroDivisionError):
        tail = math.inf
    if not (cmath.isfinite(value) and math.isfinite(tail)):
        raise ValueError(
            f"zeta at s = {s} leaves the float range (value {value}, tail bound {tail})"
        )
    return ZetaValue(s=s, value=value, n_roots_used=n_roots, tail_bound=float(tail))


def _quotient(a: complex, b: complex) -> complex:
    """``a / b`` as numpy divides complex doubles (Smith's method, scaled by a
    reciprocal), which can differ from Python's ``/`` in the last bit."""
    if abs(b.real) >= abs(b.imag):
        rat = b.imag / b.real
        scl = 1.0 / (b.real + b.imag * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = b.real / b.imag
    scl = 1.0 / (b.imag + b.real * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _exp_times(x: float, c: float) -> float:
    """``e**x * c`` for an ``x`` past the range of ``math.exp``: infinite
    with the sign of ``c`` unless the product is still a float (``0`` stays
    a signed zero).  Above ``x = 2200`` even the least subnormal ``c``
    overflows; below it the product is taken in four factors, each finite."""
    if not c or x > 2200.0:
        return c if not c else math.copysign(math.inf, c)
    h = math.exp(x / 4)
    return c * h * h * h * h


def _one_minus_exp(w: complex) -> complex:
    """``1 - exp(w)`` as numpy forms it: the real 1 taken as ``1 + 0i``, so
    the imaginary part is ``0.0 - Im exp(w)`` (``+0.0`` where that is 0).

    Where ``cmath.exp`` overflows, numpy's exp returns the parts
    ``e**Re(w) cos(Im w)`` and ``e**Re(w) sin(Im w)`` infinite instead of
    raising; they are formed so here (:func:`_exp_times`), the same infinities
    and signed zeros as numpy's, and a part that stays finite within a few
    ulps of it.  On the real axis that is ``inf`` and a signed zero.
    """
    try:
        v = cmath.exp(w)
    except OverflowError:
        v = complex(_exp_times(w.real, math.cos(w.imag)), _exp_times(w.real, math.sin(w.imag)))
    return complex(1.0 - v.real, 0.0 - v.imag)


def zeta_factor(params: FieldParams, s: complex) -> complex:
    """Rational continuation factor ``(1 - p**(-2s/e)) / (1 - p**(f - 2s/e))``.

    Raises :class:`PoleError` when the denominator is at most 1e-12 in
    modulus (real-axis pole at ``s = ef/2``).
    """
    s = complex(s)
    lp = math.log(params.p)
    num = _one_minus_exp(-2.0 * s * lp / params.e)
    den = _one_minus_exp((params.f - 2.0 * s / params.e) * lp)
    if abs(den) <= 1e-12:
        raise PoleError(f"zeta factor pole at s = {s} (denominator vanishes)")
    return _quotient(num, den)


def zeta_DR(params: FieldParams, s: complex, n_roots: int = 25) -> ZetaValue:
    """Full-spectrum zeta: :func:`zeta_D0` times the rational :func:`zeta_factor`.

    The factor is the closed form of the multiplicity series
    ``sum_m count_g(m) p**(-2ms/e)`` (see :func:`schatten_m_factor`), continued
    past its pole at ``s = ef/2``.
    """
    base = zeta_D0(params, s, n_roots=n_roots)
    fac = zeta_factor(params, s)
    return ZetaValue(
        s=base.s,
        value=fac * base.value,
        n_roots_used=n_roots,
        tail_bound=abs(fac) * base.tail_bound,
    )


def factor_poles(params: FieldParams, k_range: range) -> list[complex]:
    """Poles of the rational factor: ``s = (e/2)(f - 2 pi i k / ln p)``."""
    lp = math.log(params.p)
    return [
        complex(params.e * params.f / 2.0, -params.e * math.pi * k / lp) for k in k_range
    ]


def factor_zeros(params: FieldParams, k_range: range) -> list[complex]:
    """Zeros of the rational factor's numerator: ``s = pi i k e / ln p``."""
    lp = math.log(params.p)
    return [complex(0.0, math.pi * k * params.e / lp) for k in k_range]
