"""The mpf oracle: root certification and zeta root sums in mpmath numbers.

Before the root layer ran in integer fixed point, ``find_roots`` built its
ratio table in mpmath arithmetic, turned every series sum back into an
``mpf``, and ran Newton, the precision schedule and the enclosure on those
``mpf`` values.  This module keeps that route: :class:`MpfSeries`,
:func:`newton` and :func:`certify_root`.  :func:`find_roots` runs the
package's own seeds, index and working precisions with them, so the tests
can hold the integer certification against it root by root.

:func:`zeta_sum` is the root sum ``sum r**-s`` in mpmath at 53 bits, as
``zeta_D0`` forms it off the half-integer lattice; :func:`rounded_sum` is the
exact sum correctly rounded, the reference for its integer route on the
lattice.
"""

from __future__ import annotations

import math
from unittest import mock

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, mpf_div, mpf_pos, to_fixed
from mpmath.libmp import round_nearest as _RND

from padiclab import FieldParams, qspecial
from padiclab.qspecial import (
    _GUARD_BITS, _MAX_TERMS, BracketError, SeriesError, _narrowed, _newton_levels,
)


def ratio_table(q, width: int, start: int, stop: int) -> list[tuple[int, int]]:
    """Ratios ``r_k = -q**(k-1) / (1 - q**k)**2``, ``start <= k < stop``,
    from the mpf ``q`` in ``width + _GUARD_BITS``-bit arithmetic, each
    rounded to nearest at ``width`` bits, as raw ``(mantissa, exponent)``."""
    ratios = []
    with mp.workprec(width + _GUARD_BITS):
        q_pow = q ** (start - 1)
        for _ in range(start, stop):
            q_k = q_pow * q
            sign, man, exp, _ = mpf_pos((-q_pow / (1 - q_k) ** 2)._mpf_, width, _RND)
            ratios.append((-man if sign else man, exp))
            q_pow = q_k
    return ratios


class MpfSeries:
    """``F`` and ``F'`` at the mpf base ``q`` and precision ``dps``: the same
    fixed-point pass as ``qspecial._QSeries``, with ``z`` rounded to the
    working precision on the way in and the sums rounded to it on the way out."""

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
        self._width = self._prec + _GUARD_BITS
        self._ratios: list[tuple[int, int]] = []

    def _grow(self, terms: int) -> None:
        have = len(self._ratios)
        if have + 1 < terms:
            self._ratios += ratio_table(self._q, self._width, have + 1, terms)

    def rounded(self, dps: int) -> MpfSeries:
        """This series at precision ``dps``, its table a copy of this one's
        ratios narrowed to the lower width."""
        lower = MpfSeries(self._q, dps)
        lower._ratios = [_narrowed(r, lower._width) for r in self._ratios]
        return lower

    def sums(self, z, derivative: bool = False):
        """``(F, F', terms, largest)`` as mpf values (``F'`` only when asked)."""
        prec = self._prec
        scale = prec + _GUARD_BITS
        with mp.workprec(prec):
            z = mp.mpf(z)._mpf_
        tol = self._default_tol
        z_sign, z_man, z_exp, _ = z
        z_man = -z_man if z_sign else z_man
        _, tol_man, tol_exp, _ = tol._mpf_
        tol_man <<= max(tol_exp, 0)
        tol_shift = max(-tol_exp, 0)
        one = 1 << scale
        size_z = abs(to_fixed(z, scale))
        ratios = self._ratios
        f_open, d_open = True, derivative and z != fzero
        term = f_sum = largest = f_prev = one
        d_sum, d_prev = 0, size_z
        terms, k = 1, 0
        while f_open or d_open:
            k += 1
            if k > _MAX_TERMS:
                raise SeriesError(f"series did not meet tail tolerance {tol}")
            if k > len(ratios):
                self._grow(min(2 * k, _MAX_TERMS) + 1)
            man, exp = ratios[k - 1]
            shift = -(exp + z_exp)
            term *= man * z_man
            term = term >> shift if shift >= 0 else term << -shift
            if f_open:
                f_sum += term
                mag = abs(term)
                if mag > largest:
                    largest = mag
                if mag <= f_prev:
                    size = abs(f_sum)
                    f_open = (mag << tol_shift) >= tol_man * (size if size > one else one)
                f_prev, terms = mag, k + 1
            if d_open:
                d_term = k * term
                d_sum += d_term
                mag = abs(d_term)
                if mag <= d_prev:
                    size = abs(d_sum)
                    d_open = (mag << tol_shift) >= tol_man * (size if size > size_z else size_z)
                d_prev = mag
        f_value = mp.make_mpf(from_man_exp(f_sum, -scale, prec, _RND))
        d_value = None
        if derivative:
            if z == fzero:
                self._grow(2)
                d_value = mp.make_mpf(from_man_exp(*ratios[0], prec, _RND))
            else:
                d_value = mp.make_mpf(mpf_div(from_man_exp(d_sum, -scale), z, prec, _RND))
        return f_value, d_value, terms, mp.make_mpf(from_man_exp(largest, -scale, prec, _RND))

    def sign(self, z):
        value, _, terms, largest = self.sums(z)
        if abs(value) > terms * largest * self._rel_error:
            return int(mp.sign(value))
        return None


def series_at(params: FieldParams, dps: int) -> MpfSeries:
    with mp.workdps(dps):
        return MpfSeries(mp.power(params.p, -mp.mpf(2) / params.e), dps)


def newton(series: MpfSeries, root, guard: tuple[float, float], steps: int = 40):
    """Newton from ``root`` in mpf arithmetic at the series' precision;
    returns ``(x, F(x), y)`` as ``qspecial._newton`` does."""
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


def certify_root(table: MpfSeries, n: int, seed: float, dps: int,
                 guard: tuple[float, float], target_tol: float):
    """``qspecial._certify_root`` in mpf arithmetic: the same schedule,
    residual gate and enclosure, each level on a narrowed copy of the
    table; the root is an mpf."""
    *lower, _ = _newton_levels(dps)
    root = seed
    for i, level in enumerate(lower):
        root = newton(table.rounded(level), root, guard, 40 if i == 0 else 1)[2]
    full = table.rounded(dps)
    root, value, _ = newton(full, root, guard)
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


def find_roots(params: FieldParams, n_max: int, target_tol: float = 1e-10):
    """``qspecial.find_roots`` certifying with the mpf route, uncached."""
    with mock.patch.object(qspecial, "_series_at", series_at), \
            mock.patch.object(qspecial, "_certify_root", certify_root), \
            mock.patch.object(qspecial, "_root_table", qspecial._root_table.__wrapped__):
        return qspecial.find_roots(params, n_max, target_tol)


def zeta_sum(roots, s) -> complex:
    """``sum r**-s`` over ``roots``: mpmath powers, ``fsum`` at 53 bits, as
    ``zeta_D0`` sums at an ``s`` off the half-integer lattice."""
    with mp.workprec(53):
        return complex(mp.fsum(mp.power(r, -mp.mpc(s)) for r in roots))


def rounded_sum(roots, s: float, prec: int = 640) -> float:
    """``sum r**-s`` over ``roots`` for a real ``s``: mpmath powers and
    ``fsum`` at ``prec`` bits, then rounded once to the nearest float (the
    mantissa divided exactly by Python, which rounds subnormals correctly,
    where ``float`` of an mpf would round twice)."""
    with mp.workprec(prec):
        _, man, exp, _ = mp.fsum(mp.power(r, -mp.mpf(s)) for r in roots)._mpf_
    try:
        return float(man << exp) if exp >= 0 else man / (1 << -exp)
    except OverflowError:
        return math.inf
