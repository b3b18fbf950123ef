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

# numpy is imported inside values_expanded, the only function here that
# uses it: spectrum and zeta never load it.  mpmath is imported by the root
# sum alone, for an s off the half-integer lattice.
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
    if s <= 0:
        raise ValueError("s must be positive")
    factor = schatten_m_factor(params, s, m_max=m_max)
    return factor * _root_sum(find_roots(params, n_max).roots, complex(s)).real


# ---------------------------------------------------------------------------
# Zeta values
# ---------------------------------------------------------------------------


class ZetaValue(NamedTuple):
    """A truncated zeta sum with a certified tail bound."""

    s: complex
    value: complex
    n_roots_used: int
    tail_bound: float


def _power(man: int, j: int, prec: int) -> tuple[int, int]:
    """``(a, alpha)``, ``man**j (1 - j 2**(2-prec)) <= a 2**alpha <= man**j``:
    binary powering, each factor and product cut to ``prec`` bits (a cut
    loses under ``2**(1-prec)``, and the cuts weigh ``2j`` in all)."""
    a, alpha, b_exp = 1, 0, 0
    while True:
        cut = max(man.bit_length() - prec, 0)
        man, b_exp = man >> cut, b_exp + cut
        if j & 1:
            a, alpha = a * man, alpha + b_exp
            cut = max(a.bit_length() - prec, 0)
            a, alpha = a >> cut, alpha + cut
        j >>= 1
        if not j:
            return a, alpha
        man, b_exp = man * man, 2 * b_exp


def _lattice_sum(roots, k: int) -> float:
    """``sum r**(-k/2)`` over the positive :class:`Dyadic` ``roots``, the exact
    sum correctly rounded to a float (``inf`` past the float range).

    A term is ``2**c / a**(1/h)``: ``h = 1`` for an even ``k``, else 2 (with
    exponents made even), and ``a`` from :func:`_power` at ``j = k/h``; it
    lies in ``(2**b, 2**(b+1)]``.  The largest ``b`` settles the float range
    before any shift.  The terms are summed in fixed point ``guard`` bits
    below it, one under a unit skipped, each with an error bound; once both
    ends of the bracket round alike, that float is the sum (Ziv's test).  A
    bracket still across a midpoint at the widest guard is taken for that
    tie and rounded to even.
    """
    half = k & 1
    j = k if half else k >> 1
    for guard in (96, 384, 1536):
        prec = guard + 8 + j.bit_length()
        terms = []
        for r in roots:
            man, exp = (r.man << 1, r.exp - 1) if half and r.exp & 1 else (r.man, r.exp)
            a, alpha = _power(man, j, prec)
            a, alpha = (a << 1, alpha - 1) if half and alpha & 1 else (a, alpha)
            c = -(alpha >> half) - (exp * k >> 1)
            terms.append((a, c, c - (a.bit_length() + half >> half)))
        top = max(b for _, _, b in terms)
        if top >= 1024 or top + 1 + len(terms).bit_length() <= -1075:
            return math.inf if top > 0 else 0.0
        g = top - guard
        total = err = 0
        for a, c, b in terms:
            if b < g:  # at most 2**g, one unit
                err += 1
                continue
            x = math.isqrt((1 << 2 * (c - g)) // a) if half else (1 << c - g) // a
            total += x
            err += (x * j >> prec - 3) + 2
        lo, hi = (_scaled(total + d, g) for d in (-err, err))
        if lo == hi:
            return lo
    return (lo + hi) / 2


def _scaled(x: int, g: int) -> float:
    """``x * 2**g`` correctly rounded (as ``int / int`` is), or ``inf``."""
    try:
        return float(x << g) if g >= 0 else x / (1 << -g)
    except OverflowError:
        return math.inf


def _root_sum(roots, s: complex) -> complex:
    """``sum r**-s`` over the :class:`Dyadic` ``roots`` for ``Re(s) > 0``:
    :func:`_lattice_sum` for a real ``s`` with ``2s`` an integer, else
    mpmath's ``fsum`` of ``power`` at 53 bits."""
    if not s.imag and (2 * s.real).is_integer():
        return complex(_lattice_sum(roots, int(2 * s.real)), 0.0)
    import mpmath as mp

    with mp.workprec(53):
        return complex(mp.fsum(mp.power(r, -mp.mpc(s)) for r in roots))


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

    The root sum is :func:`_root_sum`: at a real ``s`` with ``2s`` an integer
    the exact sum correctly rounded, in Python integers with no mpmath; at
    any other ``s`` mpmath's, at 53 bits whatever the caller's precision.
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
    value = _root_sum(find_roots(params, n_roots - 1).roots, s)
    try:
        tail = kappa ** (-sigma) * q ** (n_roots * sigma) / (1.0 - q**sigma)
    except (OverflowError, ZeroDivisionError):
        tail = math.inf
    if not (cmath.isfinite(value) and math.isfinite(tail)):
        raise ValueError(
            f"zeta at s = {s} leaves the float range (value {value}, tail bound {tail})"
        )
    return ZetaValue(s=s, value=value, n_roots_used=n_roots, tail_bound=float(tail))


def zeta_factor(params: FieldParams, s: complex) -> complex:
    """Rational continuation factor ``(1 - x) / (1 - y)``, ``x = p**(-2s/e)``
    and ``y = p**(f - 2s/e)``, in complex powers of the float ``p``.

    Where ``|y| > 1`` both parts are multiplied by ``u = 1/y``, so no power
    overflows while ``Re(s) >= 0`` (``|x| <= 1`` there).  Raises
    :class:`PoleError` when ``|1 - y| <= 1e-12`` (real-axis pole at ``s = ef/2``).
    """
    t = 2.0 * complex(s) / params.e
    p = float(params.p)
    num, u = 1.0 - p**-t, 1.0
    if t.real < params.f:
        u = p ** (t - params.f)
        num, den = num * u, u - 1.0
    else:
        den = 1.0 - p ** (params.f - t)
    if abs(den) <= 1e-12 * abs(u):
        raise PoleError(f"zeta factor pole at s = {s} (denominator vanishes)")
    return num / den


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
