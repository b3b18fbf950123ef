"""Analytic spectrum tables, truncated-window validation, Schatten and zeta sums.

The analytic spectrum of the window square consists of the scaled families
``p**(2m/e) * lambda_n`` where ``lambda_n`` are the series roots and ``m``
ranges over tail lengths with multiplicity ``count_g(m)``.  The validator
cross-checks that spectrum against the honestly assembled window matrix:

* ``D`` is assembled once, as CSR arrays whose row pattern is checked; in
  the Haar basis of each tail length ``m`` a copy's columns live on
  consecutive ranks of each level, so every copy's block of ``V_m^T D^*D V_m``
  and the invariant-subspace residual (everything the blocks leave out) are
  read off level reshapes of those arrays, with no sparse product and no
  scipy, and all copies of one ``m`` are solved in one batched ``eigvalsh``;
* family labels ``(m, n)`` come from the transform, and the multiplicity of
  each ``m`` is the number of copies whose eigenvalues agree with copy 0;
* block ``m`` of the depth-``N`` window is ``p**(2m/e)`` times the radial
  block of the depth-``N - m`` window, so the blocks ``m = 0..5`` give each
  root a six-depth chain without assembling those windows; the chain is
  extrapolated in the known boundary-error ratio ``q = p**(-2/e)``
  (Richardson stages ``[q, q^2, q^2, q^3, ...]`` — the error expansion
  carries a secular ``d * q**(2d)`` term);
* the refined families are compared, as multisets with multiplicities,
  against the analytic table.

The matrix pipeline never consults the analytic roots; the two routes meet
only in the final comparison.

Zeta values are truncated root sums with certified geometric tail bounds from
the root brackets, and the full-spectrum zeta factors through an explicit
rational function of ``p**(-2s/e)`` whose poles and zeros are reported
symbolically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .field_model import FieldParams, count_g
from .operators import _symmetrized_D_csr
from .qspecial import find_roots
from .tree import TreeWindow, tree_window_r

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


class PoleError(ValueError):
    """The zeta factor was evaluated at (or numerically at) a pole."""


class CutoffError(RuntimeError):
    """The window is too shallow for the requested number of eigenvalues."""


# ---------------------------------------------------------------------------
# Analytic spectrum table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumRow:
    """One spectral family: value ``p**(2m/e) * lambda_n`` with multiplicity."""

    m: int
    n: int
    lam: float
    value: float
    multiplicity: int


@dataclass(frozen=True)
class SpectrumTable:
    """All families ``(m <= m_max, n <= n_max)``, sorted by value then (m, n)."""

    params: FieldParams
    rows: tuple[SpectrumRow, ...]

    def values_expanded(self, k: int | None = None) -> np.ndarray:
        """Values repeated by multiplicity, ascending; first ``k`` if given."""
        out: list[float] = []
        for row in self.rows:
            out.extend([row.value] * row.multiplicity)
            if k is not None and len(out) >= k:
                break
        arr = np.array(out)
        return arr if k is None else arr[:k]


def full_spectrum(
    params: FieldParams,
    m_max: int,
    n_max: int,
    target_tol: float = 1e-10,
) -> SpectrumTable:
    """Analytic spectrum with multiplicities ``count_g(m)``.

    Raises :class:`ValueError` naming the first ``(m, n)`` whose value is not a
    finite float, or, before any root is computed, an ``m`` past the float range.
    """
    scales = []
    for m in range(m_max + 1):
        try:
            scales.append(params.scale_float(2 * m))
        except OverflowError:
            raise ValueError(f"scale p**(2m/e) at m = {m} is not a finite float") from None
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
# Truncated-window validation
# ---------------------------------------------------------------------------


def _richardson_confluent(chain_vals: list[float], q: float) -> float:
    """Extrapolate a shallow-to-deep value sequence with confluent stages.

    Stage ratios follow ``[q, q^2, q^2, q^3, q^3, ...]``: the leading error
    is ``A q**d``, followed by ``(B + C d) q**(2d)`` (secular term), and so
    on; repeating each higher ratio twice eliminates the polynomial factor.
    """
    cur = [float(v) for v in chain_vals]
    stage = 0
    while len(cur) > 1:
        exponent = 1 if stage == 0 else 1 + (stage + 1) // 2
        r = q**exponent
        cur = [(cur[i + 1] - r * cur[i]) / (1.0 - r) for i in range(len(cur) - 1)]
        stage += 1
    return cur[0]


@dataclass(frozen=True)
class _HaarBlocks:
    """One assembled window square, solved block by block in its Haar basis.

    ``spectra[m]`` holds one ascending row of ``N + 1 - m`` eigenvalues per
    copy of tail length ``m``.  ``residual`` is the largest invariant-subspace
    residual ``||A V_m - V_m blockdiag||_F / ||A V_m||_F`` over ``m``.
    ``scaling_dev`` is the largest deviation of a copy's block, divided by
    ``p**(2m/e)``, from the leading part of the radial block (the radial
    block of the depth ``N - m`` window), each entry measured against the
    geometric mean of the two diagonal entries it couples.
    """

    params: FieldParams
    spectra: tuple[np.ndarray, ...]
    residual: float
    scaling_dev: float

    def refined(self, n: int) -> float:
        """Root ``n`` extrapolated over the depths ``N - m``.

        Block ``m`` of the depth-``N`` window is ``p**(2m/e)`` times the
        radial block of the depth-``N - m`` window, so copy 0 of blocks
        ``m = min(5, N-1, N-n) .. 0``, unscaled, is the shallow-to-deep depth
        chain of eigenvalue ``n``.
        """
        N = len(self.spectra) - 1
        chain = [
            self.spectra[m][0, n] / self.params.scale_float(2 * m)
            for m in range(min(5, N - 1, N - n), -1, -1)
        ]
        return _richardson_confluent(chain, self.params.q)


def _tree_levels(window: TreeWindow) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-level diagonals and ``(size, q_res)`` child coefficients of the assembled ``B``.

    Each row's columns must be its own index, then (above the deepest level) its
    children ``child_start + q_res*r + d``, or :class:`ValueError` names the level.
    """
    q = window.params.q_res
    data, indices, indptr = _symmetrized_D_csr(window)
    spans, lo = [], 0
    for n in window.levels:
        seg = window.level_slice(n)
        cols = np.arange(seg.start, seg.stop)[:, None]
        if n < window.max_level:
            kids = window.level_slice(n + 1).start + np.arange(cols.size * q)
            cols = np.hstack([cols, kids.reshape(-1, q)])
        size, width = cols.shape
        ptr = lo + width * np.arange(size + 1)
        if not (np.array_equal(indptr[seg.start : seg.stop + 1], ptr)
                and np.array_equal(indices[lo : lo + cols.size], cols.ravel())):
            raise ValueError(f"assembled D breaks the tree's row pattern at level {n}")
        spans.append(data[lo : lo + cols.size].reshape(size, width))
        lo += cols.size
    return [r[:, 0].copy() for r in spans], [r[:, 1:] for r in spans[:-1]]


def _copy_blocks(window: TreeWindow):
    """Yield ``(blocks, residual)`` of ``A = B^T B`` for ``m = 0, 1, ...``.

    Column ``l`` of copy ``(r, k)`` is ``W[k, d] q_res**(-l/2)`` on the level
    ``j = m + l`` descendants of child ``d`` of the level-``m-1`` vertex ``r``
    (``W`` the Helmert rows; ``m = 0``: the constant of each level), so level
    ``j`` reshapes to ``(r, d, s)``.  For ``l >= 1``, ``Y = B v`` and
    ``A v = B^T Y`` are ``W[k, d]`` times per-vertex arrays of ``B`` on levels
    ``j - 1 .. j + 1``; at ``l = 0`` the parent row ``sum_d child[r, d] W[k, d]``
    enters per copy.  Blocks are sums over ``(d, s)``; ``residual`` is
    ``||A V - V blockdiag||_F / ||A V||_F``, every entry formed explicitly.
    """
    q = window.params.q_res
    diag, child = _tree_levels(window)
    span = len(diag) - 1
    sums = [c.sum(axis=1) for c in child]
    own = [d * d for d in diag]  # Y.Y, and A v on level j without the parent term
    image = own[:1] + [own[j] + child[j - 1].ravel() * np.repeat(sums[j - 1], q)
                       for j in range(1, span + 1)]
    upper = [diag[j] * sums[j] for j in range(span)]  # Y_l.Y_(l+1), and A v one level up
    lower = [(child[j] * diag[j][:, None]).ravel() for j in range(span)]  # A v one level down
    helmert = np.array([[1.0 / np.sqrt(k * (k + 1))] * k + [-k / np.sqrt(k * (k + 1))]
                        + [0.0] * (q - 1 - k) for k in range(1, q)]).reshape(q - 1, q)
    root_q = np.sqrt(q)
    buf = np.empty(diag[-1].size)  # the largest level: scratch for the residual entries

    for m in range(span + 1):
        R, D, w = (1, 1, np.ones((1, 1))) if m == 0 else (q ** (m - 1), q, helmert)
        w2 = w * w
        L = span + 1 - m

        def pair(x: np.ndarray) -> np.ndarray:  # sum_d W[k, d]**2 sum_s x[r, d, s], per copy
            return (x.reshape(R, 1, D, -1).sum(axis=-1) * w2).sum(axis=-1)

        def entries(x: np.ndarray, b: np.ndarray) -> np.ndarray:  # |A v|^2, |A v - V b|^2
            x = x.reshape(R, D, -1)
            out = buf[: x.size].reshape(x.shape)
            total = np.zeros(2)
            total[0] = np.multiply(np.square(x, out=out), w2.sum(0)[:, None], out=out).sum()
            for k in range(len(w)):
                np.square(np.subtract(x, b[:, k, None, None], out=out), out=out)
                total[1] += np.multiply(out, w2[k, :, None], out=out).sum()
            return total

        blocks = np.zeros((R, len(w), L, L))
        sq = np.zeros(2)  # squared Frobenius norms of A V and of A V - V blockdiag
        for l in range(L):
            j, h2 = m + l, 1.0 / q**l
            if l or not m:
                blocks[:, :, l, l] = h2 * (pair(own[j]) + (pair(sums[j - 1] ** 2) if l else 0.0))
                sq += h2 * entries(image[j], blocks[:, :, l, l])
            else:  # the parent row r of level m - 1 couples the digits d
                top = (child[m - 1].reshape(R, 1, D) * w).sum(axis=-1)
                blocks[:, :, 0, 0] = pair(own[m]) + top**2
                img = own[m].reshape(R, 1, D) * w + child[m - 1].reshape(R, 1, D) * top[..., None]
                res = img - w * blocks[:, :, :1, 0]
                parent = float(np.sum((diag[m - 1][:, None] * top) ** 2))  # outside the span
                sq += [float(np.sum(img * img)) + parent, float(np.sum(res * res)) + parent]
            if l:
                sq += h2 * entries(upper[j - 1], root_q * blocks[:, :, l - 1, l])
            if l + 1 < L:
                off = h2 / root_q * pair(upper[j])
                blocks[:, :, l, l + 1] = blocks[:, :, l + 1, l] = off
                sq += h2 * entries(lower[j], off / root_q)
        yield blocks.reshape(-1, L, L), float(np.sqrt(sq[1] / sq[0]))


def _haar_blocks(params: FieldParams, depth: int) -> _HaarBlocks:
    """Solve the depth-``depth`` window square block by block in its Haar basis.

    Blocks and residuals come from :func:`_copy_blocks` (no sparse product, no
    scipy); all copies of one ``m`` are solved in one batched ``eigvalsh``.
    """
    spectra: list[np.ndarray] = []
    residual = scaling_dev = 0.0
    for m, (blocks, res) in enumerate(_copy_blocks(tree_window_r(params, depth))):
        residual = max(residual, res)
        if m == 0:
            radial = blocks[0]
        L = blocks.shape[1]
        base = radial[:L, :L]
        grade = np.sqrt(np.outer(np.diag(base), np.diag(base)))
        dev = np.abs(blocks / params.scale_float(2 * m) - base) / grade
        scaling_dev = max(scaling_dev, float(dev.max()))
        spectra.append(np.linalg.eigvalsh(blocks))
    return _HaarBlocks(params, tuple(spectra), residual, scaling_dev)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the matrix-vs-analytic spectrum cross-validation."""

    params: FieldParams
    depth: int
    k: int
    depths_used: tuple[int, ...]
    checks: tuple[CheckResult, ...]
    matrix_values: tuple[float, ...]
    analytic_values: tuple[float, ...]
    max_rel_error: float
    scaling_max_dev: float
    drift_refined: float | None = None
    drift_raw: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def validate_spectrum(
    params: FieldParams,
    N: int,
    k: int = 8,
    tol: float = 1e-6,
    with_drift: bool = True,
) -> ValidationReport:
    """Cross-validate window eigenvalues against the analytic spectrum.

    Assembles ``D`` on the depth-``N`` window once and solves its square block
    by block in the tree's Haar basis (see :func:`_copy_blocks`).
    Each low family ``(m, n)`` is labelled by its block; the window boundary
    error is removed by ratio-``q`` extrapolation of root ``n`` over the
    depths ``N - m`` that the blocks ``m`` stand for; the ``k`` smallest
    refined eigenvalues (with multiplicities) are compared to the analytic
    table at relative tolerance ``tol``.

    Checks reported: the multiplicity pattern (the copies of each tail length
    whose eigenvalues agree with copy 0 to 1e-7, against ``count_g(m)``), the
    block structure (invariant-subspace residual and each copy's block
    against ``p**(2m/e)`` times the radial block of the depth ``N - m``
    window, 1e-7), the eigenvalue match, and the reliability cutoff
    ``p**(2(N-2)/e)`` (raising :class:`CutoffError` if the requested ``k``
    reaches past it).  ``with_drift`` takes the same route on the depth
    ``N + 2`` window for the drift figures.
    """
    blocks = _haar_blocks(params, N)

    # Families (m, n) by their depth-N value, with measured multiplicities.
    mult_detail = []
    families: list[tuple[float, int, int, int]] = []  # (raw value, m, n, copies)
    for m, spec in enumerate(blocks.spectra):
        agree = int(np.sum(np.max(np.abs(spec - spec[0]) / spec[0], axis=1) <= 1e-7))
        expected = count_g(params, m)
        if agree != expected:
            mult_detail.append(
                f"m={m}: {agree} of {len(spec)} copies agree with copy 0, expected {expected}"
            )
        families.extend((float(v), m, n, agree) for n, v in enumerate(spec[0]))
    families.sort()

    # Refined matrix-side multiset over the families covering the k smallest.
    refined_rows: list[tuple[float, int, int, int]] = []  # (value, mult, m, n)
    covered = 0
    for _raw, m, n, cnt in families:
        if covered >= k:
            break
        refined_rows.append((params.scale_float(2 * m) * blocks.refined(n), cnt, m, n))
        covered += cnt
    refined_rows.sort()

    # The k smallest with multiplicity, each with its family (m, n).
    expanded = [(value, m, n) for value, cnt, m, n in refined_rows for _ in range(cnt)][:k]
    matrix_values = [value for value, _m, _n in expanded]

    # Analytic side.
    n_top = max((n for _v, _m, n in expanded), default=4) + 3
    m_top = max((m for _v, m, _n in expanded), default=4) + 3
    table = full_spectrum(params, m_max=m_top, n_max=n_top)
    analytic_values = table.values_expanded(k)
    if len(analytic_values) < k:
        raise CutoffError("analytic table too small for requested k")

    # Reliability cutoff.
    cutoff = params.scale_float(2 * (N - 2))
    if analytic_values[-1] >= cutoff:
        raise CutoffError(
            f"cutoff too low: requested k={k} reaches {analytic_values[-1]:.6g} "
            f"beyond the reliable range p^(2(N-2)/e) = {cutoff:.6g}; increase N"
        )

    max_rel_error = (
        float(np.max(np.abs(np.array(matrix_values) - analytic_values) / analytic_values))
        if matrix_values else np.inf
    )

    drift_refined = drift_raw = None
    if with_drift:
        deeper = _haar_blocks(params, N + 2)
        lam0_here = blocks.refined(0)
        drift_refined = abs(deeper.refined(0) - lam0_here) / lam0_here
        # The lowest eigenvalue of a window: rows ascend, so each copy's first column.
        lowest = [min(float(s[:, 0].min()) for s in b.spectra) for b in (blocks, deeper)]
        drift_raw = abs(lowest[1] - lowest[0]) / lowest[0]

    structure_dev = max(blocks.residual, blocks.scaling_dev)
    checks = (
        CheckResult(
            name="multiplicity-pattern",
            passed=not mult_detail and len(matrix_values) == k,
            measured=0.0 if not mult_detail else 1.0,
            tolerance=0.0,
            detail="; ".join(mult_detail) if mult_detail else "exact integer match",
        ),
        CheckResult(
            name="block-scaling-identity",
            passed=bool(structure_dev < 1e-7),
            measured=float(structure_dev),
            tolerance=1e-7,
            detail="Haar-block residual; copy blocks vs p^(2m/e) x depth N-m radial block",
        ),
        CheckResult(
            name="eigenvalue-match",
            passed=bool(max_rel_error < tol),
            measured=float(max_rel_error),
            tolerance=tol,
            detail=f"k={k} smallest, boundary error removed by stencil extrapolation",
        ),
        CheckResult(
            name="reliability-cutoff",
            passed=bool(analytic_values[-1] < cutoff),
            measured=float(analytic_values[-1]),
            tolerance=float(cutoff),
            detail="largest compared value vs p^(2(N-2)/e)",
        ),
    )
    return ValidationReport(
        params=params,
        depth=N,
        k=k,
        depths_used=tuple(range(N - min(5, N - 1), N + 1)),
        checks=checks,
        matrix_values=tuple(float(v) for v in matrix_values),
        analytic_values=tuple(float(v) for v in analytic_values),
        max_rel_error=float(max_rel_error),
        scaling_max_dev=float(structure_dev),
        drift_refined=drift_refined,
        drift_raw=drift_raw,
    )


# ---------------------------------------------------------------------------
# Schatten partial traces
# ---------------------------------------------------------------------------


def schatten_m_factor(params: FieldParams, s: float, m_max: int | None = None) -> float:
    """The tail-multiplicity factor ``1 + sum_m p**(-2ms/e) count_g(m)``.

    With ``r = p**(f - 2s/e)`` the term ``m >= 1`` is ``(1 - p**-f) r**m``,
    which underflows where ``count_g(m)`` would not convert to a float.
    Closed form ``1 + (1 - p**-f) r / (1 - r)`` when ``s > ef/2`` and
    ``m_max`` is None; a truncated sum otherwise.  Raises :class:`PoleError`
    labeled divergent for ``s <= ef/2`` when the closed form is requested.
    """
    r = float(params.p) ** (params.f - 2.0 * s / params.e)
    weight = 1.0 - float(params.p) ** (-params.f)
    if m_max is None:
        if r >= 1.0:
            raise PoleError(
                f"m-factor diverges for s <= ef/2 = {params.ef / 2} (got s={s})"
            )
        return 1.0 + weight * r / (1.0 - r)
    return 1.0 + sum(weight * r**m for m in range(1, m_max + 1))


def schatten_partial(params: FieldParams, s: float, m_max: int, n_max: int) -> float:
    """Partial trace ``sum_(n<=n_max) m_factor(s, m_max) * lambda_n**(-s)``.

    ``s`` must be positive; the m-sum diverges (term-wise constant or
    growing) for ``s <= ef/2``, which :func:`schatten_m_factor` exposes.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    roots = find_roots(params, n_max)
    factor = schatten_m_factor(params, s, m_max=m_max)
    lam = roots.values_float()
    return float(factor * np.sum(lam ** (-s)))


# ---------------------------------------------------------------------------
# Zeta values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaValue:
    """A truncated zeta sum with a certified tail bound."""

    s: complex
    value: complex
    n_roots_used: int
    tail_bound: float


def zeta_D0(params: FieldParams, s: complex, n_roots: int = 25) -> ZetaValue:
    """Base zeta ``sum_n lambda_n**(-s)`` truncated at ``n_roots`` roots.

    Requires ``Re(s) > 0``.  The tail is bounded through the lower root
    brackets ``lambda_n >= q**(-n) (1 - q**n/(1 - q**n))`` by geometric
    domination; ``n_roots`` must be large enough for the bracket to be
    positive, that is ``q**n_roots < 1/2``.  Two roots suffice while
    ``q**2 < 1/2``; at (2,8,1), ``q`` about 0.84, it takes four, and a
    smaller ``n_roots`` raises :class:`ValueError`, and so does an ``s``
    at which the value or the tail bound is not a finite float (for
    example ``s = 2000`` at (2,1,1), where ``lambda_0**-s`` overflows, or
    ``s = 1e-17``, where ``q**s`` rounds to 1 and the tail bound divides by 0).
    """
    s = complex(s)
    sigma = s.real
    if sigma <= 0:
        raise ValueError("zeta is implemented for Re(s) > 0 only")
    if n_roots < 1:
        raise ValueError("need at least one root")
    q = params.q
    kappa = 1.0 - q**n_roots / (1.0 - q**n_roots)
    if kappa <= 0:
        raise ValueError(
            f"tail bound degenerate at n_roots={n_roots}; use more roots"
        )
    roots = find_roots(params, n_roots - 1)
    s_mp = mp.mpc(s)
    value = complex(mp.fsum(mp.power(r, -s_mp) for r in roots.roots))
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
    """Rational continuation factor ``(1 - p**(-2s/e)) / (1 - p**(f - 2s/e))``.

    Raises :class:`PoleError` when the denominator is at most 1e-12 in
    modulus (real-axis pole at ``s = ef/2``).
    """
    s = complex(s)
    lp = np.log(float(params.p))
    num = 1.0 - np.exp(-2.0 * s * lp / params.e)
    den = 1.0 - np.exp((params.f - 2.0 * s / params.e) * lp)
    if abs(den) <= 1e-12:
        raise PoleError(f"zeta factor pole at s = {s} (denominator vanishes)")
    return complex(num / den)


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
    lp = np.log(float(params.p))
    return [
        complex(params.e * params.f / 2.0, -params.e * np.pi * k / lp) for k in k_range
    ]


def factor_zeros(params: FieldParams, k_range: range) -> list[complex]:
    """Zeros of the rational factor's numerator: ``s = pi i k e / ln p``."""
    lp = np.log(float(params.p))
    return [complex(0.0, np.pi * k * params.e / lp) for k in k_range]
