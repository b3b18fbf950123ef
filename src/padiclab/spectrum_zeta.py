"""Analytic spectrum tables, truncated-window validation, Schatten and zeta sums.

The analytic spectrum of the window square consists of the scaled families
``p**(2m/e) * lambda_n`` where ``lambda_n`` are the series roots and ``m``
ranges over tail lengths with multiplicity ``count_g(m)``.  The validator
cross-checks that spectrum against honestly assembled window matrices:

* windows are assembled at a stencil of depths ending at the requested depth
  and their low spectra clustered (degeneracies within a window are exact, so
  clusters are sharp plateaus);
* each deep cluster's tail length ``m`` is identified *from the data* by
  peeling exact factor-``p**(2/e)`` matches against the next-shallower window
  (fixed-tail blocks of consecutive windows are exactly scaled copies);
* the base (``m = 0``) clusters are tracked across the stencil and their
  depth sequences extrapolated in the known boundary-error ratio
  ``q = p**(-2/e)`` (Richardson stages ``[q, q^2, q^2, q^3, ...]`` — the
  error expansion carries a secular ``d * q**(2d)`` term);
* scaled families are predicted by the exact block scaling and compared, as
  multisets with multiplicities, against the analytic table.

The matrix pipeline never consults the analytic roots; the two routes meet
only in the final comparison.

Zeta values are truncated root sums with certified geometric tail bounds from
the root brackets, and the full-spectrum zeta factors through an explicit
rational function of ``p**(-2s/e)`` whose poles and zeros are reported
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np
import scipy.sparse.linalg as spla

from .field_model import FieldParams, count_g
from .operators import assemble_DstarD, _deterministic_start
from .qspecial import RootTable, find_roots
from .tree import tree_window_r

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

_DENSE_MAX = 3500


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

    def rows_expanded(self, k: int) -> list[SpectrumRow]:
        """The rows backing the ``k`` smallest values (with repetition)."""
        out: list[SpectrumRow] = []
        for row in self.rows:
            out.extend([row] * row.multiplicity)
            if len(out) >= k:
                break
        return out[:k]


def full_spectrum(
    params: FieldParams,
    m_max: int,
    n_max: int,
    target_tol: float = 1e-10,
    roots: RootTable | None = None,
) -> SpectrumTable:
    """Analytic spectrum with multiplicities ``count_g(m)``."""
    if roots is None or roots.n_max < n_max:
        roots = find_roots(params, n_max, target_tol=target_tol)
    rows = []
    for m in range(m_max + 1):
        scale = params.scale_float(2 * m)
        mult = count_g(params, m)
        for n in range(n_max + 1):
            lam = float(roots.root(n))
            rows.append(SpectrumRow(m=m, n=n, lam=lam, value=scale * lam, multiplicity=mult))
    rows.sort(key=lambda r: (r.value, r.m, r.n))
    return SpectrumTable(params=params, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Truncated-window validation
# ---------------------------------------------------------------------------


_EIG_CACHE: dict[tuple[int, int, int, int, int], tuple[np.ndarray, bool]] = {}


def _lowest_eigenvalues(params: FieldParams, depth: int, k_req: int) -> tuple[np.ndarray, bool]:
    """Ascending low spectrum of the depth-``depth`` window square.

    Returns ``(values, complete)`` where ``complete`` means the entire
    spectrum was computed (dense path).  Small windows use a dense solver
    (their matrix norms are modest, so absolute LAPACK error is far below
    tolerance); large windows use shift-invert Lanczos at zero, whose
    accuracy for the lowest eigenvalues is relative to them rather than to
    the matrix norm.  Results are cached per (params, depth, request size) —
    the assembly and solve are deterministic.
    """
    key = (params.p, params.e, params.f, depth, k_req)
    cached = _EIG_CACHE.get(key)
    if cached is not None:
        return cached
    window = tree_window_r(params, depth)
    mat = assemble_DstarD(window)
    total = window.total
    if total <= _DENSE_MAX:
        result = np.linalg.eigvalsh(mat.toarray()), True
    else:
        k_eff = min(k_req, total - 2)
        vals = spla.eigsh(
            mat,
            k=k_eff,
            sigma=0,
            which="LM",
            v0=_deterministic_start(total),
            maxiter=10000,
            return_eigenvectors=False,
        )
        result = np.sort(vals), False
    _EIG_CACHE[key] = result
    return result


def _cluster(values: np.ndarray, rel_gap: float = 1e-7) -> list[tuple[float, int]]:
    """Group an ascending eigenvalue list into degeneracy plateaus.

    Window degeneracies are exact (identical blocks), so plateaus are tight
    to solver precision while distinct families are separated by much more
    than ``rel_gap``.
    """
    clusters: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > rel_gap * max(abs(values[i]), 1e-300):
            chunk = values[start:i]
            clusters.append((float(np.mean(chunk)), len(chunk)))
            start = i
    return clusters


def _clusters_covering(
    params: FieldParams, depth: int, min_cover: int
) -> list[tuple[float, int]]:
    """Clustered low spectrum covering at least ``min_cover`` eigenvalues.

    On the Lanczos path the trailing cluster may be truncated mid-plateau, so
    it is dropped and the request enlarged until the remaining clusters give
    the required coverage.
    """
    window_total = tree_window_r(params, depth).total
    k_req = max(min_cover + 24, 48)
    while True:
        values, complete = _lowest_eigenvalues(params, depth, k_req)
        clusters = _cluster(values)
        if not complete and len(clusters) > 1:
            clusters = clusters[:-1]  # trailing plateau may be cut mid-cluster
        covered = sum(c for _, c in clusters)
        if covered >= min_cover or complete or k_req >= window_total - 2:
            return clusters
        k_req *= 2


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
    raw_values: tuple[float, ...]
    identities: tuple[tuple[int, int], ...]
    max_rel_error: float
    max_rel_error_raw: float
    scaling_max_dev: float
    cutoff: float
    drift_refined: float | None = None
    drift_raw: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


@dataclass
class _StencilData:
    """Per-depth clustered spectra plus identified deep structure."""

    depths: list[int]
    clusters_by_depth: dict[int, list[tuple[float, int]]]
    deep_ids: list[tuple[int, float, int, float]]  # (m, deep value, count, base value)
    base_chains: dict[int, dict[int, float]]  # n -> {depth: value}
    refined_base: dict[int, float]  # n -> extrapolated lambda_n
    scaling_max_dev: float


def _build_stencil(
    params: FieldParams,
    N: int,
    k: int,
    stencil_len: int = 6,
) -> _StencilData:
    """Assemble, cluster, identify, track, and extrapolate the stencil."""
    Q = params.Q
    q = params.q
    depths = list(range(max(1, N - stencil_len + 1), N + 1))
    clusters_by_depth = {
        d: _clusters_covering(params, d, min_cover=k + 8 if d == N else k) for d in depths
    }

    # --- identify tail length m of each deep cluster by exact peeling -----
    deep = clusters_by_depth[N]
    covered = 0
    deep_ids: list[tuple[int, float, int, float]] = []
    for val, cnt in deep:
        if covered >= k:
            break
        m = 0
        cur_val, cur_depth = val, N
        while cur_depth - 1 in clusters_by_depth:
            target = cur_val / Q
            cands = [
                c
                for c, _cc in clusters_by_depth[cur_depth - 1]
                if abs(c - target) <= 1e-8 * target
            ]
            if len(cands) != 1:
                break
            m += 1
            cur_val = cands[0]
            cur_depth -= 1
        deep_ids.append((m, val, cnt, cur_val))
        covered += cnt

    # --- base (m = 0) clusters at depth N, ascending, are n = 0, 1, ... ---
    base_vals = [val for m, val, _cnt, _ in deep_ids if m == 0]
    base_vals.sort()

    # --- track each base cluster down the stencil ---------------------------
    base_chains: dict[int, dict[int, float]] = {}
    for n_idx, v_deep in enumerate(base_vals):
        chain: dict[int, float] = {N: v_deep}
        prev2: float | None = None
        prev = v_deep
        for d in reversed(depths[:-1]):
            if prev2 is None:
                pred = prev
                tol = max(0.02 * prev, 4.0 * q ** (d + 1) * prev / max(1.0 - q, 0.5))
            else:
                diff = prev - prev2  # value(d+1) - value(d+2) ~ lam*A*q^(d+1)*(1-q)
                pred = prev + diff / q
                tol = max(4.0 * abs(diff) / q, 1e-9 * prev)
            cands = sorted(
                (abs(c - pred), c) for c, _cc in clusters_by_depth[d] if abs(c - pred) <= tol
            )
            if not cands or (len(cands) > 1 and cands[1][0] < 3.0 * cands[0][0]):
                break  # missing or ambiguous: use the chain gathered so far
            c_val = cands[0][1]
            chain[d] = c_val
            prev2, prev = prev, c_val
        base_chains[n_idx] = chain

    # --- extrapolate base chains -------------------------------------------
    refined_base: dict[int, float] = {}
    for n_idx, chain in base_chains.items():
        ds = sorted(chain)
        vals = [chain[d] for d in ds]
        refined_base[n_idx] = _richardson_confluent(vals, q)

    # --- verify the exact block-scaling identity ---------------------------
    # A cluster peeled to tail length m terminates on the base cluster of the
    # window m levels up; that terminal value must sit on a tracked base
    # chain at depth N - m, to solver precision.
    scaling_max_dev = 0.0
    for m, _val, _cnt, terminal in deep_ids:
        if m == 0:
            continue
        d_term = N - m
        best = np.inf
        for chain in base_chains.values():
            if d_term in chain:
                best = min(best, abs(chain[d_term] - terminal) / terminal)
        if np.isfinite(best):
            scaling_max_dev = max(scaling_max_dev, best)
        else:
            scaling_max_dev = np.inf
    return _StencilData(
        depths=depths,
        clusters_by_depth=clusters_by_depth,
        deep_ids=deep_ids,
        base_chains=base_chains,
        refined_base=refined_base,
        scaling_max_dev=scaling_max_dev,
    )


def _identify_n(stencil: _StencilData, m: int, terminal: float, N: int) -> int | None:
    """Base index ``n`` whose chain passes through the peel terminal."""
    d_term = N - m
    best_n, best_dev = None, np.inf
    for n_idx, chain in stencil.base_chains.items():
        if d_term in chain:
            dev = abs(chain[d_term] - terminal) / terminal
            if dev < best_dev:
                best_n, best_dev = n_idx, dev
    if best_n is not None and best_dev <= 1e-6:
        return best_n
    return None


def validate_spectrum(
    params: FieldParams,
    N: int,
    k: int = 8,
    tol: float = 1e-6,
    with_drift: bool = True,
    inject_rel_error: float | None = None,
) -> ValidationReport:
    """Cross-validate window eigenvalues against the analytic spectrum.

    Assembles windows at a stencil of depths ending at ``N``, identifies each
    low eigenvalue cluster's scaled family purely from the matrix data,
    removes the window boundary error by ratio-``q`` extrapolation of the
    base clusters, and compares the ``k`` smallest refined eigenvalues (with
    multiplicities) to the analytic table at relative tolerance ``tol``.

    Checks reported: exact multiplicity pattern, exact block-scaling
    identity, eigenvalue match, and the reliability cutoff ``p**(2(N-2)/e)``
    (raising :class:`CutoffError` if the requested ``k`` reaches past it).
    ``inject_rel_error`` perturbs one refined eigenvalue (negative-control
    test mode).
    """
    Q = params.Q
    stencil = _build_stencil(params, N, k)

    # Refined matrix-side multiset.
    refined_rows: list[tuple[float, int, int, int]] = []  # (value, mult, m, n)
    mult_ok = True
    mult_detail = []
    for m, val, cnt, terminal in stencil.deep_ids:
        n_idx = _identify_n(stencil, m, terminal, N)
        if n_idx is None:
            mult_ok = False
            mult_detail.append(f"cluster at {val:.6g}: no base chain match")
            continue
        lam_ref = stencil.refined_base[n_idx]
        refined_rows.append((params.scale_float(2 * m) * lam_ref, cnt, m, n_idx))
        expected = count_g(params, m)
        if cnt != expected:
            mult_ok = False
            mult_detail.append(
                f"cluster (m={m}, n={n_idx}): multiplicity {cnt}, expected {expected}"
            )
    refined_rows.sort()

    matrix_values: list[float] = []
    identities: list[tuple[int, int]] = []
    for value, cnt, m, n_idx in refined_rows:
        for _ in range(cnt):
            matrix_values.append(value)
            identities.append((m, n_idx))
    matrix_values = matrix_values[:k]
    identities = identities[:k]
    if inject_rel_error is not None and matrix_values:
        matrix_values[0] *= 1.0 + inject_rel_error

    # Analytic side.
    n_top = max((n for _m, n in identities), default=4) + 3
    m_top = max((m for m, _n in identities), default=4) + 3
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

    # Raw depth-N values for transparency.
    raw_all, _ = _lowest_eigenvalues(params, N, max(k + 8, 48))
    raw_values = np.sort(raw_all)[:k]
    rel = lambda a, b: float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.asarray(b)))
    max_rel_error = rel(matrix_values, analytic_values) if matrix_values else np.inf
    max_rel_error_raw = rel(raw_values, analytic_values)

    drift_refined = drift_raw = None
    if with_drift:
        stencil2 = _build_stencil(params, N + 2, max(2, min(k, 4)))
        lam0_deep = stencil2.refined_base.get(0)
        lam0_here = stencil.refined_base.get(0)
        if lam0_deep is not None and lam0_here is not None:
            drift_refined = abs(lam0_deep - lam0_here) / lam0_here
        raw2, _ = _lowest_eigenvalues(params, N + 2, 8)
        drift_raw = abs(float(raw2[0]) - float(raw_all[0])) / float(raw_all[0])

    checks = (
        CheckResult(
            name="multiplicity-pattern",
            passed=mult_ok and len(matrix_values) == k,
            measured=0.0 if mult_ok else 1.0,
            tolerance=0.0,
            detail="; ".join(mult_detail) if mult_detail else "exact integer match",
        ),
        CheckResult(
            name="block-scaling-identity",
            passed=bool(stencil.scaling_max_dev < 1e-7),
            measured=float(stencil.scaling_max_dev),
            tolerance=1e-7,
            detail="scaled-family values vs base chains at matching depths",
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
        depths_used=tuple(stencil.depths),
        checks=checks,
        matrix_values=tuple(float(v) for v in matrix_values),
        analytic_values=tuple(float(v) for v in analytic_values),
        raw_values=tuple(float(v) for v in raw_values),
        identities=tuple(identities),
        max_rel_error=float(max_rel_error),
        max_rel_error_raw=float(max_rel_error_raw),
        scaling_max_dev=float(stencil.scaling_max_dev),
        cutoff=float(cutoff),
        drift_refined=drift_refined,
        drift_raw=drift_raw,
    )


# ---------------------------------------------------------------------------
# Schatten partial traces
# ---------------------------------------------------------------------------


def schatten_m_factor(params: FieldParams, s: float, m_max: int | None = None) -> float:
    """The tail-multiplicity factor ``1 + sum_m p**(-2ms/e) count_g(m)``.

    Closed form ``1 + (1 - p**-f) r / (1 - r)`` with ``r = p**(f - 2s/e)``
    when ``s > ef/2`` and ``m_max`` is None; a truncated sum otherwise.
    Raises :class:`PoleError` labeled divergent for ``s <= ef/2`` when the
    closed form is requested.
    """
    r = float(params.p) ** (params.f - 2.0 * s / params.e)
    if m_max is None:
        if r >= 1.0:
            raise PoleError(
                f"m-factor diverges for s <= ef/2 = {params.ef / 2} (got s={s})"
            )
        return 1.0 + (1.0 - float(params.p) ** (-params.f)) * r / (1.0 - r)
    return 1.0 + sum(
        float(params.p) ** (-2.0 * m * s / params.e) * count_g(params, m)
        for m in range(1, m_max + 1)
    )


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
    positive (``n_roots >= 2`` suffices for all parameters).
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
    tail = kappa ** (-sigma) * q ** (n_roots * sigma) / (1.0 - q**sigma)
    return ZetaValue(s=s, value=value, n_roots_used=n_roots, tail_bound=float(tail))


def zeta_factor(params: FieldParams, s: complex, pole_rel_tol: float = 1e-12) -> complex:
    """Rational continuation factor ``(1 - p**(-2s/e)) / (1 - p**(f - 2s/e))``.

    Raises :class:`PoleError` when the denominator vanishes to relative
    tolerance (real-axis pole at ``s = ef/2``).
    """
    s = complex(s)
    lp = np.log(float(params.p))
    num = 1.0 - np.exp(-2.0 * s * lp / params.e)
    den = 1.0 - np.exp((params.f - 2.0 * s / params.e) * lp)
    if abs(den) <= pole_rel_tol:
        raise PoleError(f"zeta factor pole at s = {s} (denominator vanishes)")
    return complex(num / den)


def zeta_DR(
    params: FieldParams,
    s: complex,
    n_roots: int = 25,
    method: str = "factor",
    m_max: int | None = None,
) -> ZetaValue:
    """Full-spectrum zeta: the factor times the base zeta.

    ``method="factor"`` multiplies :func:`zeta_D0` by the closed rational
    factor.  ``method="direct"`` sums the scaled families
    ``count_g(m) (p**(2m/e) lambda_n)**(-s)`` over ``m <= m_max`` explicitly
    (same root truncation), providing the independent route for the
    factorization check; it requires ``Re(s) > ef/2`` for the m-sum to
    converge.
    """
    base = zeta_D0(params, s, n_roots=n_roots)
    if method == "factor":
        fac = zeta_factor(params, s)
        return ZetaValue(
            s=base.s,
            value=fac * base.value,
            n_roots_used=n_roots,
            tail_bound=abs(fac) * base.tail_bound,
        )
    if method != "direct":
        raise ValueError("method must be 'factor' or 'direct'")
    s = complex(s)
    r = float(params.p) ** (params.f - 2.0 * s.real / params.e)
    if r >= 1.0:
        raise PoleError(f"direct family sum diverges for Re(s) <= ef/2 (s = {s})")
    if m_max is None:
        # Choose m_max so the neglected m-tail is far below the root tail.
        m_max = max(8, int(np.ceil(np.log(1e-16) / np.log(r))))
    mult_factor = complex(
        sum(
            count_g(params, m) * complex(params.scale_float(2 * m)) ** (-s)
            for m in range(m_max + 1)
        )
    )
    m_tail = (1.0 - float(params.p) ** (-params.f)) * r ** (m_max + 1) / (1.0 - r)
    tail = abs(mult_factor) * base.tail_bound + m_tail * abs(base.value)
    return ZetaValue(
        s=s,
        value=mult_factor * base.value,
        n_roots_used=n_roots,
        tail_bound=float(tail),
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
