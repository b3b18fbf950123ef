"""Truncated-window validation and the rows of the ``validate`` command.

The analytic spectrum of :mod:`padiclab.spectrum_zeta` is cross-checked
against the honestly assembled window matrix:

* ``D`` is assembled once, as CSR arrays whose row pattern is checked over
  the whole window against the heap of :mod:`padiclab.tree` and then split
  into levels; in the Haar basis of each tail length ``m`` a copy's columns live
  on consecutive ranks of each level, so every copy's block of ``V_m^T D^*D V_m``
  and the invariant-subspace residual (everything the blocks leave out) are
  read off level reshapes of those arrays, with no sparse product or scipy;
* family labels ``(m, n)`` come from the transform; the multiplicity of each
  ``m`` counts the copies whose block is ``p**(2m/e)`` times the radial block
  to 1e-7, and one ``eigvalsh`` per ``m`` solves copy 0;
* block ``m`` of the depth-``N`` window is ``p**(2m/e)`` times the radial
  block of the depth-``N - m`` window, so the blocks ``m = 0..5`` give each
  root a six-depth chain without assembling those windows; the chain is
  extrapolated in the known boundary-error ratio ``q = p**(-2/e)``
  (Richardson stages ``[q, q^2, q^2, q^3, ...]`` — the error expansion
  carries a secular ``d * q**(2d)`` term); the depth ``N + 2`` drift window
  is solved only for those six tail lengths;
* the refined families are compared, as multisets with multiplicities,
  against the analytic table.

The matrix pipeline never consults the analytic roots; the two routes meet
only in the final comparison, which reads ``spectrum_zeta.full_spectrum``
(and the assembly ``operators._symmetrized_D_csr``) on its module at every
call.

The ``validate`` command's rows are built here too: the spectrum checks, the
Hilbert-Schmidt closed forms and the seminorm comparisons, each a
:class:`CheckResult`, after :func:`_check_window_budget` has refused any
window over ``MAX_WINDOW_VERTICES``.  Only ``validate`` loads this module;
it loads numpy, and no scipy.  Its public names, :class:`CheckResult`,
:class:`ValidationReport` and :func:`validate_spectrum`, are listed in
``spectrum_zeta.__all__``, which serves them.
"""

from __future__ import annotations

import argparse
import itertools
import math
from typing import NamedTuple

import numpy as np

from .field_model import FieldParams, count_g
from .operators import hs_double_sum, hs_norm_Dg_inverse, hs_total_partial
from .seminorms import RANDOM_TABLE_DEPTH, check_norm_comparison, testfn_library
from .spectrum_zeta import CutoffError, schatten_m_factor
from .tree import TreeWindow, tree_window_r

# Last: the imports above have loaded both modules.  ``from . import`` of one
# not yet loaded would start the lazy package's namespace build, which looks
# up this module's names before they exist.
from . import operators, spectrum_zeta

# Largest window (vertices) that ``validate`` assembles.  Peak memory grows
# with the largest window at about 130 (q_res = 2) to 260 (q_res = 7) bytes per
# vertex: 1,048,575 vertices at 142 MB for (2,2,1), 797,161 at 132 MB for
# (3,1,1), 960,800 at 246 MB for (7,1,1), peak RSS of the whole process.
MAX_WINDOW_VERTICES = 2_000_000

# Tail lengths m = 0..5 whose blocks make the depth chain of a refined root.
_CHAIN_TAILS = 6


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


class _HaarBlocks(NamedTuple):
    """One assembled window square, solved block by block in its Haar basis.

    ``spectra[m]``: the ascending eigenvalues of copy 0 of tail length ``m``.
    A copy deviates by its block over ``p**(2m/e)`` minus the leading part of
    the radial block (that of the depth ``N - m`` window), each entry against
    the geometric mean of the two diagonal entries it couples; ``copies[m]``
    counts the copies within 1e-7, ``scaling_dev`` is the largest deviation.
    ``residual``: the largest ``||A V_m - V_m blockdiag||_F / ||A V_m||_F``.
    A partial solve covers only the tail lengths it solved: ``spectra`` and
    ``copies`` stop there, and ``residual`` and ``scaling_dev`` are taken
    over those lengths alone.
    """

    params: FieldParams
    depth: int
    spectra: tuple[np.ndarray, ...]
    copies: tuple[int, ...]
    residual: float
    scaling_dev: float

    def refined(self, n: int) -> float:
        """Root ``n`` extrapolated over the depths ``N - m``.

        Block ``m`` of the depth-``N`` window is ``p**(2m/e)`` times the
        radial block of the depth-``N - m`` window, so copy 0 of blocks
        ``m = min(5, N-1, N-n) .. 0``, unscaled, is the shallow-to-deep depth
        chain of eigenvalue ``n``.
        """
        N = self.depth
        chain = [
            self.spectra[m][n] / self.params.scale_float(2 * m)
            for m in range(min(_CHAIN_TAILS - 1, N - 1, N - n), -1, -1)
        ]
        return _richardson_confluent(chain, self.params.q)


def _tree_levels(window: TreeWindow) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-level diagonals and ``(size, q_res)`` child coefficients of the assembled ``B``.

    Row ``g``'s columns must be ``g``, then (above the deepest level) its heap children
    ``q_res*g + 1 .. q_res*g + q_res``, or :class:`ValueError` names the first bad row's level.
    """
    q = window.params.q_res
    offsets = window.level_offsets
    rows, total = offsets[-2], offsets[-1]
    heap = rows * (q + 1)  # entries of the rows with children
    data, indices, indptr = operators._symmetrized_D_csr(window)
    g = np.arange(total + 1, dtype=indices.dtype)
    ptr = g + q * np.minimum(g, rows)  # before row g: g diagonals, q_res children per heap row
    cols = indices[:heap].reshape(rows, q + 1)
    bad = indptr[1:] != ptr[1:]
    bad[:rows] |= (cols[:, 0] != g[:rows]) | (cols[:, 1:] != g[1:total].reshape(rows, q)).any(1)
    bad[rows:] |= indices[heap:] != g[rows:total]
    if bad.any():
        level = window.min_level + int(np.searchsorted(offsets, np.argmax(bad), side="right")) - 1
        raise ValueError(f"assembled D breaks the tree's row pattern at level {level}")
    vals = data[:heap].reshape(rows, q + 1)
    cuts = offsets[1:-1]  # np.split's last piece, past the rows with children, is empty
    diag = np.split(vals[:, 0], cuts)[:-1] + [data[heap:]]
    return diag, np.split(vals[:, 1:], cuts)[:-1]


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


def _haar_blocks(params: FieldParams, depth: int, tails: int | None = None) -> _HaarBlocks:
    """Solve the depth-``depth`` window square block by block in its Haar basis.

    Blocks and residuals come from :func:`_copy_blocks` (no sparse product, no
    scipy); every copy is measured, and one ``eigvalsh`` per ``m`` solves copy 0.
    ``tails`` stops the solve after the tail lengths ``m < tails``, a partial
    solve that covers only those lengths; by default every length is solved.
    """
    spectra: list[np.ndarray] = []
    copies = []
    residual = scaling_dev = 0.0
    solved = itertools.islice(_copy_blocks(tree_window_r(params, depth)), tails)
    for m, (blocks, res) in enumerate(solved):
        residual = max(residual, res)
        if m == 0:
            radial = blocks[0]
        L = blocks.shape[1]
        base = radial[:L, :L]
        grade = np.sqrt(np.outer(np.diag(base), np.diag(base)))
        dev = (np.abs(blocks / params.scale_float(2 * m) - base) / grade).max(axis=(1, 2))
        scaling_dev = max(scaling_dev, float(dev.max()))
        copies.append(int(np.sum(dev <= 1e-7)))
        spectra.append(np.linalg.eigvalsh(blocks[0]))
    return _HaarBlocks(params, depth, tuple(spectra), tuple(copies), residual, scaling_dev)


class CheckResult(NamedTuple):
    """One validation row; ``tolerance`` is ``None`` on an informational row."""

    name: str
    passed: bool
    measured: float
    tolerance: float | None
    detail: str = ""


class ValidationReport(NamedTuple):
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
    whose block is ``p**(2m/e)`` times the radial block of the depth
    ``N - m`` window to 1e-7, against ``count_g(m)``), the block structure
    (invariant-subspace residual and the largest such deviation, 1e-7), the
    eigenvalue match, and the reliability cutoff ``p**(2(N-2)/e)`` (raising
    :class:`CutoffError` if the requested ``k`` reaches past it).
    ``with_drift`` takes the same route on the depth ``N + 2`` window for the
    drift figures, solving only the tail lengths ``m <= 5`` that its refined
    lowest root reads.  A failed eigenvalue match then names its likely cause:
    a ``drift_refined`` at or above ``tol`` says that the window is too
    shallow for the extrapolation to reach ``tol``.
    """
    blocks = _haar_blocks(params, N)

    # Families (m, n) by their depth-N value, with measured multiplicities.
    mult_detail = []
    families: list[tuple[float, int, int, int]] = []  # (raw value, m, n, copies)
    for m, (spec, agree) in enumerate(zip(blocks.spectra, blocks.copies)):
        expected = count_g(params, m)
        if agree != expected:
            mult_detail.append(f"m={m}: {agree} of {expected} copies match p^(2m/e) x radial")
        families.extend((float(v), m, n, agree) for n, v in enumerate(spec))
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
    table = spectrum_zeta.full_spectrum(params, m_max=m_top, n_max=n_top)
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
        deeper = _haar_blocks(params, N + 2, tails=_CHAIN_TAILS)
        lam0_here = blocks.refined(0)
        drift_refined = abs(deeper.refined(0) - lam0_here) / lam0_here
        # The lowest eigenvalue of a window is the radial block's: block m >= 1
        # is p**(2m/e) > 1 times a principal submatrix of it (Cauchy interlacing).
        lowest = [float(b.spectra[0][0]) for b in (blocks, deeper)]
        drift_raw = abs(lowest[1] - lowest[0]) / lowest[0]

    matched = bool(max_rel_error < tol)
    match_detail = f"k={k} smallest, boundary error removed by stencil extrapolation"
    if not matched and drift_refined is not None:
        cause = ("the window is likely too shallow" if drift_refined >= tol
                 else "depth is an unlikely cause")
        match_detail += (f"; drift-refined {drift_refined:.3g} from depth {N} to {N + 2}: "
                         f"{cause}")
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
            passed=matched,
            measured=float(max_rel_error),
            tolerance=tol,
            detail=match_detail,
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
        depths_used=tuple(range(N - min(_CHAIN_TAILS - 1, N - 1), N + 1)),
        checks=checks,
        matrix_values=tuple(float(v) for v in matrix_values),
        analytic_values=tuple(float(v) for v in analytic_values),
        max_rel_error=float(max_rel_error),
        scaling_max_dev=float(structure_dev),
        drift_refined=drift_refined,
        drift_raw=drift_raw,
    )


# ---------------------------------------------------------------------------
# The validate command's rows
# ---------------------------------------------------------------------------


def _validate_rows(args: argparse.Namespace, params: FieldParams) -> tuple[list[CheckResult], bool]:
    """Every row of ``validate``, and whether every row passed."""
    report = validate_spectrum(
        params, N=args.depth, k=args.k, tol=args.tol, with_drift=not args.no_drift
    )
    rows = [check._replace(name=f"spectrum:{check.name}") for check in report.checks]
    if report.drift_refined is not None:
        rows.append(
            CheckResult(
                "spectrum:drift-refined",
                True,
                report.drift_refined,
                None,
                f"informational: refined lowest eigenvalue, depth {args.depth} vs {args.depth + 2}",
            )
        )
    if report.drift_raw is not None:
        rows.append(
            CheckResult(
                "spectrum:drift-raw",
                True,
                report.drift_raw,
                None,
                "informational: raw lowest eigenvalue drift",
            )
        )

    # Hilbert-Schmidt closed form vs direct double sum.
    hs_dev = max(
        abs(hs_norm_Dg_inverse(params, m) - hs_double_sum(params, m)) for m in range(11)
    )
    rows.append(CheckResult("hs:closed-vs-double-sum", hs_dev < 1e-12, hs_dev, 1e-12, "m <= 10"))

    # Total HS partial sums: convergent or divergent by parameter regime.
    if params.ef < 2:
        limit = hs_norm_Dg_inverse(params, 0) * schatten_m_factor(params, 1.0)
        dev = abs(hs_total_partial(params, 60) - limit)
        rows.append(
            CheckResult("hs:total-converges", dev < 1e-10, dev, 1e-10, f"limit {limit:.17g}")
        )
    else:
        incs = [
            hs_total_partial(params, m) - hs_total_partial(params, m - 1)
            for m in range(1, 11)
        ]
        rows.append(
            CheckResult(
                "hs:total-diverges",
                min(incs) > 0.1,
                min(incs),
                0.1,
                "tail increments stay bounded away from zero",
            )
        )

    # Seminorm comparisons on the function library.
    window = tree_window_r(params, args.seminorm_depth)
    for fn in testfn_library(params):
        rep = check_norm_comparison(window, fn)
        detail = (
            f"L1={rep.L1_depthN:.12g} bounds=[{rep.lower_constant * rep.L1_depthN:.12g},"
            f" {rep.upper_constant * rep.L1_depthN:.12g}] matrix={rep.commutator_norm_depthN:.12g}"
        )
        rows.append(
            CheckResult(f"seminorm:{rep.function_id}", rep.passed, rep.LD_formula_depthN, None,
                        detail)
        )
    return rows, all(row.passed for row in rows)


def _check_window_budget(args: argparse.Namespace, params: FieldParams) -> None:
    """Refuse, before any assembly, a window over ``MAX_WINDOW_VERTICES``,
    a ``--k`` over the spectrum window's vertices, and then a random
    test-function table over the limit.

    Every window has a level of ``q_res = p**f`` vertices, so an ``f ln p``
    over ``ln MAX_WINDOW_VERTICES`` refuses the first window before
    ``p**f`` is formed.  Otherwise the size is summed level by level over
    ``0..depth`` (``q_res**n`` vertices each).  The sum stops once it passes
    the square of the limit, so any depth is refused within a few dozen
    levels; the refusal names the size only when it was summed to the end.
    The table of the library's deeper random test function holds one value
    per vertex of its level, ``q_res**RANDOM_TABLE_DEPTH``; every window
    passed, so ``q_res`` is within the limit and the table's size is named.
    """
    windows = [("spectrum", args.depth), ("seminorm", args.seminorm_depth)]
    if not args.no_drift:
        windows.insert(1, ("drift", args.depth + 2))
    if params.f * math.log(params.p) > math.log(MAX_WINDOW_VERTICES):
        name, depth = windows[0]
        raise ValueError(f"{name} window of depth {depth} is over the limit of "
                         f"{MAX_WINDOW_VERTICES} vertices")
    q = params.q_res
    for name, depth in windows:
        size = level = 1
        for _ in range(depth):
            if size > MAX_WINDOW_VERTICES**2:
                raise ValueError(f"{name} window of depth {depth} is over the limit of "
                                 f"{MAX_WINDOW_VERTICES} vertices")
            level *= q
            size += level
        if size > MAX_WINDOW_VERTICES:
            raise ValueError(
                f"{name} window of depth {depth} has {size} vertices, "
                f"over the limit of {MAX_WINDOW_VERTICES}"
            )
        if name == "spectrum" and args.k > size:
            raise ValueError(f"--k {args.k} is over the {size} eigenvalues of the "
                             f"spectrum window of depth {depth}")
    table = q**RANDOM_TABLE_DEPTH
    if table > MAX_WINDOW_VERTICES:
        raise ValueError(
            f"random test function of depth {RANDOM_TABLE_DEPTH} has {table} values, "
            f"over the limit of {MAX_WINDOW_VERTICES}"
        )
