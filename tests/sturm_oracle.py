"""The Sturm oracle: the truncated Jacobi block, its exact low eigenvalues,
the dense float seeds, and the route that bisected every seed at every order.

:func:`jacobi_D0` forms the depth-direction block as a dense matrix.
:func:`sturm_counter` counts its eigenvalues below a shift from the signs of
the tridiagonal ``LDL^T`` pivots in mpmath arithmetic, and
:func:`jacobi_lowest_eigs` bisects on that count, so each eigenvalue is
accurate relative to itself whatever the grading.  :func:`dense_seeds` and
:func:`dense_root_work` are the float ``eigvalsh`` seeds and the numpy term
scan that ``find_roots`` used before its seeds became a float Sturm
bisection; the scan's series length ``terms`` sized the ratio table before
the table grew one ratio at a time.  :func:`float_seeds` is that float
Sturm bisection as it was before the seeds became one bisection of the
untruncated count: at an order doubled until no seed moves by more than
``_SEED_SETTLE``, every eigenvalue bisected again at every order.  :func:`two_pass_find_roots` runs
``find_roots`` on those seeds and certifies each enclosure by two
value-only passes at its ends (:func:`sign_pass`), as before the
certificate was read off the last Newton pass.  The tests hold the float
seeds, the float Sturm count of ``find_roots`` and the certified roots
against these.
"""

from __future__ import annotations

import math
from unittest import mock

import mpmath as mp
import numpy as np

from padiclab import FieldParams, qspecial
from padiclab.qspecial import (
    _GUARD_DPS, _MAX_TERMS, _SEED_MAX_ORDER, BracketError, Dyadic,
)

# The seeds of the doubled orders have settled once doubling the Jacobi
# order moves none of them by more than this, relative.
_SEED_SETTLE = 1e-12
# Coefficients the old route's ratio table held beyond the float estimate
# of the last term its full-precision evaluations reach.
_TERM_MARGIN = 3


def jacobi_D0(params: FieldParams, L: int) -> np.ndarray:
    """Tridiagonal depth-block matrix of order ``L`` (zero-tail block).

    Row 0 has diagonal 1 and off-diagonal -1; row ``l >= 1`` has diagonal
    ``p**(2(l-1)/e) * (1 + p**(2/e))``, sub-diagonal ``-p**(2(l-1)/e)`` and
    super-diagonal ``-p**(2l/e)``.  Truncation at ``L`` drops all couplings
    beyond row ``L-1`` (zero boundary).  Every fixed-tail block of the window
    square equals ``p**(2m/e)`` times this matrix (``m`` the tail length).
    """
    if L < 1:
        raise ValueError("Jacobi block needs L >= 1")
    Q = params.Q
    mat = np.zeros((L, L))
    mat[0, 0] = 1.0
    for l in range(1, L):
        mat[l, l] = Q ** (l - 1) * (1.0 + Q)
    for l in range(L - 1):
        off = -(Q**l)
        mat[l, l + 1] = off
        mat[l + 1, l] = off
    return mat


def dense_seeds(params: FieldParams, n_max: int) -> tuple[np.ndarray, int]:
    """Float eigenvalues ``0..n_max+1`` of :func:`jacobi_D0` at a settled order,
    from one dense ``eigvalsh`` per order.

    The order starts at ``2 (n_max + 2)`` and doubles until no returned
    eigenvalue moves by more than ``_SEED_SETTLE`` relative, capped like the
    package's seeds and, like them, never clamped to the cap; the refusals
    carry the package's messages.
    """
    count = n_max + 2
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
        if 2 * L > cap:
            raise BracketError(
                f"float seeds for roots 0..{n_max} did not settle by Jacobi order {L}: "
                f"order {2 * L} is over the limit of {cap} "
                f"(params p={params.p}, e={params.e}, f={params.f})"
            )
        prev, L = eigs, 2 * L


def dense_root_work(params: FieldParams, seeds, target_tol: float) -> list[tuple[int, int]]:
    """``(dps, terms)`` per seed from all ``_MAX_TERMS`` float term logarithms
    at once: ``dps`` from the largest, ``terms`` from the first past it below
    ``10**-(dps-5)``."""
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


def sturm_counter(params: FieldParams, L: int):
    """Exact eigenvalue counts of :func:`jacobi_D0` of order ``L``.

    Returns ``(count_below, upper, dps)``: ``count_below(x)`` is the number
    of eigenvalues below ``x``, from the signs of the tridiagonal ``LDL^T``
    pivots of ``jacobi_D0 - x`` in ``dps``-digit arithmetic, and ``upper`` a
    Gershgorin bound above every eigenvalue.  ``dps`` grows with the largest
    entry, about ``p**(2L/e)``.
    """
    dps = max(50, int(L * 2 * mp.log10(params.p) / params.e) + 30)
    with mp.workdps(dps):
        Q = mp.power(params.p, mp.mpf(2) / params.e)
        diag = [mp.mpf(1)] + [Q ** (l - 1) * (1 + Q) for l in range(1, L)]
        offsq = [Q ** (2 * l) for l in range(L - 1)]  # squared couplings
        upper = max(
            diag[l]
            + (mp.sqrt(offsq[l - 1]) if l > 0 else 0)
            + (mp.sqrt(offsq[l]) if l < L - 1 else 0)
            for l in range(L)
        )

    def count_below(x) -> int:
        with mp.workdps(dps):
            x = mp.mpf(x)
            cnt = 0
            d = diag[0] - x
            if d == 0:
                d = mp.mpf(10) ** (-dps)
            if d < 0:
                cnt += 1
            for l in range(1, L):
                d = (diag[l] - x) - offsq[l - 1] / d
                if d == 0:
                    d = mp.mpf(10) ** (-dps)
                if d < 0:
                    cnt += 1
            return cnt

    return count_below, upper, dps


def jacobi_lowest_eigs(params: FieldParams, L: int, count: int = 1) -> list[mp.mpf]:
    """Certified lowest eigenvalues of :func:`jacobi_D0` via Sturm bisection.

    Counts eigenvalues below a shift through the tridiagonal ``LDL^T`` sign
    sequence in arbitrary precision and bisects, so each eigenvalue is
    accurate relative to itself whatever the grading.  The matrix entries
    grow like ``p**(2L/e)``; float64 ``np.linalg.eigvalsh`` nevertheless keeps
    the low eigenvalues of this graded matrix to a few ulps (pinned against
    this routine by a grid test), and this routine is its oracle.
    """
    if count < 1 or count > L:
        raise ValueError("need 1 <= count <= L")
    count_below, upper, dps = sturm_counter(params, L)
    with mp.workdps(dps):
        eigs: list[mp.mpf] = []
        for k in range(1, count + 1):
            lo, hi = mp.mpf(0), mp.mpf(upper)
            for _ in range(int(3.5 * dps) + 20):
                mid = (lo + hi) / 2
                if count_below(mid) >= k:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < mp.mpf(10) ** (-dps + 8) * max(hi, mp.mpf(1)):
                    break
            eigs.append((lo + hi) / 2)
        return eigs


def bisect(count, n: int, hints: list[float] | None = None) -> list[float]:
    """Eigenvalues ``0 .. n-1`` from the Sturm ``count`` (an int per point),
    each a float ``hi`` whose predecessor has ``count <= k < count(hi)``.

    Eigenvalue ``k`` starts from the ``lo`` of eigenvalue ``k - 1`` and
    doubles upward to a ``hi``, or takes ``hints[k]`` and probes ``2**-40``
    below it first; then it halves the bracket, in geometric means while its
    ends are more than a factor 2 apart, down to adjacent floats.
    """
    eigs, lo = [], 0.0
    for k in range(n):
        hi = math.inf
        if hints is not None:
            hi = hints[k]
            x = hi * (1 - 2**-40)
            if lo < x:
                if count(x) > k:
                    hi = x
                else:
                    lo = x
        while hi == math.inf:
            x = 2 * lo if lo > 0 else 1.0
            if count(x) > k:
                hi = x
            else:
                lo = x
        while True:
            if lo > 0 and hi > 2 * lo:
                x = math.sqrt(lo) * math.sqrt(hi)
            else:
                x = lo + (hi - lo) / 2
            if not lo < x < hi:
                break
            if count(x) > k:
                hi = x
            else:
                lo = x
        eigs.append(hi)
    return eigs


def float_seeds(params: FieldParams, n_max: int) -> tuple[list[float], int]:
    """``qspecial._float_seeds`` bisecting every eigenvalue at every order:
    the same orders, cap, settle test and refusals."""
    count = n_max + 2
    cap = min(_SEED_MAX_ORDER, int(300 / math.log10(params.Q)))
    L = 2 * count
    if L > cap:
        raise BracketError(
            f"roots up to {n_max} need a Jacobi truncation of order {L}, over the "
            f"limit of {cap} (params p={params.p}, e={params.e}, f={params.f})"
        )
    prev = None
    while True:
        sturm = qspecial._sturm_count(params, L)
        eigs = bisect(lambda x: sturm(x)[0], count, prev)
        if prev is not None and all(abs(a - b) <= _SEED_SETTLE * a for a, b in zip(eigs, prev)):
            return eigs, L
        if 2 * L > cap:
            raise BracketError(
                f"float seeds for roots 0..{n_max} did not settle by Jacobi order {L}: "
                f"order {2 * L} is over the limit of {cap} "
                f"(params p={params.p}, e={params.e}, f={params.f})"
            )
        prev, L = eigs, 2 * L


def sign_pass(table, dps: int, z: int) -> int | None:
    """Sign of ``F(z)`` from a pass at ``dps`` digits, or ``None`` when
    ``|F(z)|`` is at most ``terms * largest * 10**-(dps-1)``."""
    value, _, terms, largest = table.sums(z, dps)
    if abs(value) * 10 ** (dps - 1) > terms * largest:
        return 1 if value > 0 else -1
    return None


def two_pass_certify_root(table, n: int, seed: float, dps: int,
                          guard: tuple[float, float], target_tol: float):
    """``qspecial._certify_root`` with the enclosure ``root (1 -+ 10**-(dps-15))``
    certified by the sign of ``F`` from a :func:`sign_pass` at each end."""
    levels = qspecial._newton_levels(dps)
    root = qspecial._fixed(seed, qspecial._scale(levels[0]))
    for i, (level, up) in enumerate(zip(levels, levels[1:])):
        root = qspecial._newton(table, level, root, guard, 40 if i == 0 else 1)[2]
        root <<= qspecial._scale(up) - qspecial._scale(level)
    scale = qspecial._scale(dps)
    root, (value, *_), _ = qspecial._newton(table, dps, root, guard)
    residual = float(Dyadic(abs(value), -scale))
    if residual >= target_tol:
        raise BracketError(f"root {n} residual {residual:.3e} above target {target_tol}")
    delta = root // 10 ** (dps - 15)
    left, right = root - delta, root + delta
    sign_left = sign_pass(table, dps, left)
    if sign_left is None or sign_pass(table, dps, right) != -sign_left:
        raise BracketError(f"final enclosure of root {n} shows no certified sign change")
    bracket = (math.nextafter(float(Dyadic(left, -scale)), -math.inf),
               math.nextafter(float(Dyadic(right, -scale)), math.inf))
    return Dyadic(root, -scale), residual, bracket


def two_pass_find_roots(params: FieldParams, n_max: int, target_tol: float = 1e-10):
    """``qspecial.find_roots`` on :func:`float_seeds` with
    :func:`two_pass_certify_root`, uncached."""
    with mock.patch.object(qspecial, "_float_seeds", float_seeds), \
            mock.patch.object(qspecial, "_certify_root", two_pass_certify_root), \
            mock.patch.object(qspecial, "_root_table", qspecial._root_table.__wrapped__):
        return qspecial.find_roots(params, n_max, target_tol)
