"""Forward-difference operator on tree windows and its derived operators.

This module assembles:

* the forward-difference (martingale-difference) operator ``D``, which
  compares a vertex value with the average of its children, scaled by
  ``p**(n/e)`` at level ``n``, and its square ``D*D`` on a window with a
  zero (Dirichlet) boundary condition past the deepest level;
* diagonal multiplication operators built from test functions.  A test
  function is evaluated a whole tree level at a time, from the rank numerals
  of the level-major layout in :mod:`padiclab.tree`; :func:`rho_diag` makes
  one such call per level and is the only code applying the convention that
  the zero vertex of level ``n`` carries the value at the point ``pi**n``;
* commutators ``[D, multiplication]`` and their operator norms.  Each
  commutator column holds at most one nonzero (every child has one parent),
  so the rows have disjoint supports and the operator norm is the largest
  row norm, a certificate checked on the assembled matrix;
* Hilbert-Schmidt sums for inverse blocks, in closed form and by direct
  double summation;
* the windowed integral kernel of ``multiplication * D**(-1)`` on enlarged
  windows, its column regularization, and its singular values.

All matrices are assembled in the plain little-l2 coordinates obtained by the
diagonal similarity with the square roots of the level weights ``p**(-n*f)``
(the volume of a depth-``n`` ball), so symmetric matrices here have the same
spectra as the weighted-space operators they represent.  Assembly order is
deterministic (level-major, digit-lexicographic).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

from .field_model import Center, FieldParams
from .tree import TreeWindow

# numpy and scipy are imported inside the functions that use them: loading
# them takes longer than a whole root-only command (spectrum, zeta), which
# needs neither.
if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

__all__ = [
    "TestFunction",
    "assemble_symmetrized_D",
    "assemble_DstarD",
    "rho_diag",
    "assemble_commutator",
    "commutator_norm",
    "commutator_row_norms",
    "hs_norm_Dg_inverse",
    "hs_double_sum",
    "hs_total_partial",
    "kernel_rho_a_DFinv",
    "regularizer_bt",
    "kernel_frobenius_norm",
    "singular_values_window",
]


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


class TestFunction(NamedTuple):
    """A scalar function evaluated on digit-string points, a batch at a time.

    Attributes:
        name: Stable identifier (used in reports and seeding).
        evaluator: Deterministic ``evaluator(start, width, ranks) -> ndarray``.
            ``ranks`` are the base-``q_res`` numerals of digit strings
            ``d_start .. d_(start+width-1)`` (most significant digit first,
            the rank layout of :mod:`padiclab.tree`); the result holds one
            value per rank.  Functions must depend only on the element a
            string represents, so appending zero digits (``rank * q_res`` at
            ``width + 1``) leaves every value unchanged.
        known_lipschitz: Exact Lipschitz seminorm when known analytically.
        decay_alpha: Decay exponent ``alpha`` for functions intended on
            enlarged windows, certifying ``|a(x)| <= C/(1 + |x|**alpha)`` for some ``C``.
    """

    name: str
    evaluator: Callable[[int, int, np.ndarray], np.ndarray]
    known_lipschitz: float | None = None
    decay_alpha: float | None = None

    def __call__(self, point: Center) -> float:
        """Value at one :class:`Center`."""
        import numpy as np

        rank = 0
        for d in point.digits:
            rank = rank * point.params.q_res + d
        values = self.evaluator(point.start, len(point.digits), np.array([rank], dtype=np.int64))
        return float(values[0])


# ---------------------------------------------------------------------------
# The forward-difference operator and its square
# ---------------------------------------------------------------------------


def _symmetrized_D_csr(window: TreeWindow) -> tuple[np.ndarray, ...]:
    """CSR arrays ``(data, indices, indptr)`` of :func:`assemble_symmetrized_D`.

    Each row holds its diagonal, then its ``q_res`` children in digit order;
    rows of the deepest level hold the diagonal only.  The arrays are written
    level by level, with no scipy call, in the index dtype scipy would pick.
    """
    import numpy as np

    params = window.params
    q = params.q_res
    itype = np.int32 if window.total + q * window.level_offsets[-2] < 2**31 else np.int64
    indptr = np.zeros(window.total + 1, dtype=itype)
    indices, data = [], []
    off_child = -1.0 / np.sqrt(q)
    for n in window.levels:
        seg = window.level_slice(n)
        size = seg.stop - seg.start
        beta = params.scale_float(n)
        cols = np.arange(seg.start, seg.stop, dtype=itype)[:, None]
        vals = np.full((size, 1), beta)
        if n < window.max_level:
            kids = window.level_slice(n + 1).start + np.arange(size * q, dtype=itype)
            cols = np.hstack([cols, kids.reshape(size, q)])
            vals = np.hstack([vals, np.full((size, q), beta * off_child)])
        indptr[seg.start + 1 : seg.stop + 1] = cols.shape[1]
        indices.append(cols.ravel())
        data.append(vals.ravel())
    np.cumsum(indptr, out=indptr)
    return np.concatenate(data), np.concatenate(indices), indptr


def assemble_symmetrized_D(window: TreeWindow) -> sp.csr_matrix:
    """Square sparse matrix of ``D`` in symmetrized (plain little-l2) coordinates.

    Row ``(n, x)`` for ``n <= N-1`` has diagonal ``p**(n/e)`` and entries
    ``-p**(n/e) * q_res**(-1/2)`` at the children of ``x``.  The deepest
    level contributes a purely diagonal row ``p**(N/e)``: the zero-boundary
    closure, which extends vectors by zero past the window.  Constants,
    ``q_res**(-n/2)`` on level ``n`` in these coordinates, go to zero on
    every row above the deepest level.
    """
    import scipy.sparse as sp

    return sp.csr_matrix(_symmetrized_D_csr(window), shape=(window.total, window.total))


def assemble_DstarD(window: TreeWindow) -> sp.csr_matrix:
    """Symmetric positive-definite matrix of the window square ``D*D``.

    The square is taken with a zero boundary condition past the deepest
    level: the difference operator keeps its diagonal term on level ``N``
    (vectors are extended by zero beyond the window), which is the principal
    window compression of the full operator square.  The returned matrix is
    expressed in plain little-l2 coordinates via the weight similarity, so
    its spectrum equals that of the weighted-space square.  Its fixed-tail
    block of tail length ``m`` is exactly ``p**(2m/e)`` times the
    depth-direction tridiagonal (Jacobi) block whose eigenvalues the root
    seeds of :mod:`padiclab.qspecial` bisect: row 0 has diagonal 1, row
    ``l >= 1`` diagonal ``Q**(l-1) (1 + Q)``, and rows ``l, l+1`` couple by
    ``-Q**l`` (``Q = p**(2/e)``).
    """
    b = assemble_symmetrized_D(window)
    mat = (b.T @ b).tocsr()
    mat.sum_duplicates()
    return mat


# ---------------------------------------------------------------------------
# Multiplication operators and commutators
# ---------------------------------------------------------------------------


def rho_diag(window: TreeWindow, a: TestFunction) -> np.ndarray:
    """Diagonal of the multiplication operator for ``a`` on the window.

    The entry at vertex ``(n, x)`` is ``a(x)`` for ``x != 0`` and
    ``a(pi**n)`` at the zero center (rank 0) of level ``n``.  Each level is
    one call of ``a.evaluator`` at width ``n + 1 - min_level``: vertex ``x``
    is evaluated at its digit-0 child ``x * q_res`` (the same element), and
    the zero vertex at its digit-1 child, rank 1, which is ``pi**n``.  This
    is the only place the zero-vertex convention is applied.
    """
    import numpy as np

    q = window.params.q_res
    out = np.empty(window.total)
    for n in window.levels:
        ranks = np.arange(window.level_size(n), dtype=np.int64) * q
        ranks[0] = 1
        out[window.level_slice(n)] = a.evaluator(window.min_level, n + 1 - window.min_level, ranks)
    return out


def assemble_commutator(window: TreeWindow, a: TestFunction) -> sp.csr_matrix:
    """Sparse symmetrized commutator ``[D, multiplication by a]``.

    Row ``(n, x)`` (levels ``min_level .. N-1``) has entries
    ``p**(n/e) * q_res**(-1/2) * (a_n(x) - a_(n+1)(child))`` at the children
    of ``x`` — the diagonal terms of ``D`` and the multiplication operator
    cancel, leaving pure parent-child differences.
    """
    import scipy.sparse as sp

    shape = (window.level_offsets[-2], window.total)
    return sp.csr_matrix(_commutator_csr(window, rho_diag(window, a)), shape=shape)


def _commutator_csr(window: TreeWindow, diag: np.ndarray) -> tuple[np.ndarray, ...]:
    """CSR arrays of :func:`assemble_commutator` from the diagonal of :func:`rho_diag`.

    Rows are the levels ``min_level .. N-1``, each holding its children in digit
    order; vanishing differences are not stored (a commuting function has none).
    """
    import numpy as np

    params = window.params
    q = params.q_res
    n_rows = window.level_offsets[-2]
    itype = np.int32 if max(q * n_rows, window.total) < 2**31 else np.int64
    indptr = np.zeros(n_rows + 1, dtype=itype)
    indices, data = [], []
    inv_sqrt_q = 1.0 / np.sqrt(q)
    for n in range(window.min_level, window.max_level):
        seg = window.level_slice(n)
        child_seg = window.level_slice(n + 1)
        beta = params.scale_float(n)
        vals = beta * inv_sqrt_q * (np.repeat(diag[seg], q) - diag[child_seg])
        keep = vals != 0.0
        indptr[seg.start + 1 : seg.stop + 1] = keep.reshape(-1, q).sum(axis=1)
        indices.append(np.arange(child_seg.start, child_seg.stop, dtype=itype)[keep])
        data.append(vals[keep])
    np.cumsum(indptr, out=indptr)
    return np.concatenate(data), np.concatenate(indices), indptr


def commutator_row_norms(window: TreeWindow, a: TestFunction) -> np.ndarray:
    """Euclidean norms of the commutator rows.

    Every child has one parent, so each column of the commutator holds at
    most one nonzero; this is checked on the assembled index array.  The
    rows therefore have pairwise-disjoint column supports, and the operator
    norm is the maximum row norm.
    """
    return _commutator_row_norms(window, rho_diag(window, a))


def _commutator_row_norms(window: TreeWindow, diag: np.ndarray) -> np.ndarray:
    import numpy as np

    data, indices, indptr = _commutator_csr(window, diag)
    if indices.size and np.bincount(indices).max() > 1:
        raise ValueError("commutator column with two nonzeros")
    sq = np.zeros(indptr.size - 1)  # stored rows summed as scipy sums CSR rows
    stored = np.flatnonzero(np.diff(indptr))
    sq[stored] = np.add.reduceat(data * data, indptr[stored])
    return np.sqrt(sq)


def commutator_norm(window: TreeWindow, a: TestFunction) -> float:
    """Operator norm of the symmetrized commutator: its largest row norm.

    Exact by the disjoint row supports checked in
    :func:`commutator_row_norms`; no iterative or dense SVD is needed.
    """
    return _commutator_norm(window, rho_diag(window, a))


def _commutator_norm(window: TreeWindow, diag: np.ndarray) -> float:
    rows = _commutator_row_norms(window, diag)
    return float(rows.max()) if rows.size else 0.0


# ---------------------------------------------------------------------------
# Hilbert-Schmidt sums for inverse blocks
# ---------------------------------------------------------------------------


def hs_norm_Dg_inverse(params: FieldParams, m: int) -> float:
    """Closed-form squared HS norm of an inverted fixed-tail block.

    Equals ``(1/|g|**2) / (1 - p**(-2/e))**2`` with ``|g| = p**(m/e)``;
    ``m = 0`` covers the zero-tail block.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    x = params.scale_float(-2)  # p**(-2/e)
    return params.scale_float(-2 * m) / (1.0 - x) ** 2


def hs_double_sum(params: FieldParams, m: int) -> float:
    """Direct double-sum oracle for :func:`hs_norm_Dg_inverse`.

    Sums ``(1/|g|**2) * sum_(l>=0) sum_(j>=l) p**(-2j/e)`` with an explicit
    truncation chosen so the geometric tail is below 1e-16 relatively.
    """
    x = params.scale_float(-2)
    # Tail after J terms is bounded by x**J * (J+1)/(1-x)**2; pick J generously.
    J = 8
    while x**J * (J + 1) > 1e-16 * (1.0 - x) ** 2:
        J += 4
    total = 0.0
    for l in range(J + 1):
        inner = 0.0
        for j in range(l, J + 1):
            inner += x**j
        total += inner
    return params.scale_float(-2 * m) * total


def hs_total_partial(params: FieldParams, m_max: int) -> float:
    """Partial sum ``sum_(m<=m_max) count(m) * hs_norm_Dg_inverse(m)``.

    ``count(m)`` is the number of tails of length ``m``.  The sum converges
    as ``m_max`` grows exactly when ``e*f = 1``; for ``e*f >= 2`` the
    increments do not decay (divergence signature).
    """
    from .field_model import count_g

    return sum(count_g(params, m) * hs_norm_Dg_inverse(params, m) for m in range(m_max + 1))


# ---------------------------------------------------------------------------
# Enlarged-window integral kernel and compactness evidence
# ---------------------------------------------------------------------------


def _check_decay_admissible(params: FieldParams, a: TestFunction) -> None:
    alpha = a.decay_alpha
    if alpha is None:
        raise ValueError(
            f"test function {a.name!r} has no decay exponent; "
            "the inverse kernel requires certified decay"
        )
    bound = max(1.0, params.ef / 2.0)
    if not alpha > bound:
        raise ValueError(
            f"decay exponent alpha={alpha} violates the admissibility "
            f"hypothesis alpha > max(1, ef/2) = {bound}"
        )


def kernel_rho_a_DFinv(
    window: TreeWindow,
    a: TestFunction,
    t: float | None = None,
) -> sp.csr_matrix:
    """Windowed kernel of ``multiplication-by-a`` composed with ``D**(-1)``.

    The entry at output vertex ``(n, x)`` and input vertex ``(k, y)`` is
    ``p**(-k/e) * p**(f(n-k)) * a_n(x)`` whenever ``k >= n`` and the digits
    of ``y`` agree with those of ``x`` on all indices below ``n`` (``y`` lies
    in the ball ``x + pi**n R``); other entries vanish.  Requires a certified
    decay exponent ``alpha > max(1, ef/2)``.  If ``t`` is given, each input
    level ``k`` is damped by the regularizer ``b_t(k)``.
    """
    import numpy as np
    import scipy.sparse as sp

    _check_decay_admissible(window.params, a)
    params = window.params
    q = params.q_res
    diag = rho_diag(window, a)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for n in window.levels:
        seg = window.level_slice(n)
        size = seg.stop - seg.start
        a_vals = diag[seg]
        idx = np.arange(seg.start, seg.stop)
        for k in range(n, window.max_level + 1):
            fan = q ** (k - n)
            col_start = window.level_slice(k).start
            scale = params.scale_float(-k) * float(params.p) ** (params.f * (n - k))
            if t is not None:
                scale *= regularizer_bt(params, a.decay_alpha, t, k)
            rows.append(np.repeat(idx, fan))
            cols.append(col_start + np.arange(size * fan))
            data.append(np.repeat(a_vals * scale, fan))
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(window.total, window.total),
    )
    return mat.tocsr()


def regularizer_bt(params: FieldParams, alpha: float, t: float, k: int) -> float:
    """Level damping ``b_t(k)``: 1 for ``k < 0``, else ``1/(1 + t*p**(alpha*k/e))``.

    Interpolates between the identity (``t -> 0``) and strong damping of deep
    input levels; used to exhibit the regularized-to-plain limit of the
    kernel's HS norm.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if k < 0:
        return 1.0
    return 1.0 / (1.0 + t * float(params.p) ** (alpha * k / params.e))


def kernel_frobenius_norm(window: TreeWindow, a: TestFunction, t: float | None = None) -> float:
    """Frobenius (HS) norm of the windowed kernel, by per-level closed sums.

    Row ``(n, x)`` contributes ``a_n(x)**2 * S(n)`` with
    ``S(n) = sum_(k=n..N) b_t(k)**2 * p**(-2k/e) * p**(-f(k-n))`` (the factor
    ``p**((k-n)f)`` many equal entries of modulus
    ``p**(-k/e) p**(f(n-k)) |a_n(x)|`` each).  Independent of the sparse
    assembly; used as its oracle.
    """
    import numpy as np

    _check_decay_admissible(window.params, a)
    params = window.params
    diag = rho_diag(window, a)
    pf = float(params.p) ** params.f
    total = 0.0
    for n in window.levels:
        seg = window.level_slice(n)
        s_n = 0.0
        for k in range(n, window.max_level + 1):
            term = params.scale_float(-2 * k) * pf ** (-(k - n))
            if t is not None:
                term *= regularizer_bt(params, a.decay_alpha, t, k) ** 2
            s_n += term
        total += float(np.dot(diag[seg], diag[seg])) * s_n
    return float(np.sqrt(total))


def singular_values_window(window: TreeWindow, a: TestFunction, count: int) -> np.ndarray:
    """Top ``count`` singular values of the windowed kernel, descending.

    Deterministic: Lanczos iterations start from a fixed vector.  If
    ``count`` meets or exceeds the maximal possible rank, all singular values
    are returned (dense computation).
    """
    import numpy as np
    import scipy.sparse.linalg as spla

    mat = kernel_rho_a_DFinv(window, a)
    m, n = mat.shape
    k_max = min(m, n)
    if count >= k_max or k_max <= 1500:
        svals = np.linalg.svd(mat.toarray(), compute_uv=False)
        svals = np.sort(svals)[::-1]
        return svals[: min(count, svals.size)]
    v0 = 1.0 / (1.0 + np.arange(k_max))  # a fixed start vector
    s = spla.svds(
        mat,
        k=count,
        which="LM",
        v0=v0 / np.linalg.norm(v0),
        maxiter=10000,
        tol=0,
        return_singular_vectors=False,
    )
    return np.sort(s)[::-1]
