"""Sparse-matrix oracles: the scipy routes that the level-reshape code replaces.

* :func:`haar_columns` writes the orthonormal Haar (level-group) columns of
  one tail length as CSR arrays; :func:`haar_columns_coo` builds the same
  matrix from COO triplets.
* :func:`symmetrized_D_coo` and :func:`commutator_coo` are COO assemblies of
  ``D`` and of the commutator ``[D, multiplication]``.
* :func:`sparse_haar_blocks` multiplies the assembled ``B^T B`` by the Haar
  columns and reads each copy's block off ``V^T A V``, with the residual and
  the scaling deviation computed from those sparse products.
* :func:`sparse_row_norms` takes the commutator row norms from scipy's row sums.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from padiclab import rho_diag, tree_window_r


def helmert(q: int) -> np.ndarray:
    """Orthogonal ``q x q`` matrix whose row 0 is the mean direction."""
    w = np.zeros((q, q))
    w[0] = 1.0 / np.sqrt(q)
    for k in range(1, q):
        norm = np.sqrt(k * (k + 1))
        w[k, :k] = 1.0 / norm
        w[k, k] = -k / norm
    return w


def haar_columns(window, m):
    """Orthonormal Haar columns of tail length ``m``, grouped by copy.

    The result is a sparse ``total x (copies * L)`` matrix with
    ``L = max_level - min_level + 1 - m``; copy ``c`` owns columns
    ``c*L .. c*L + L - 1``, one per level ``min_level + m + l``.

    * ``m = 0`` is the single radial copy: column ``l`` is the constant
      ``q_res**(-l/2)`` on level ``min_level + l``.
    * ``m >= 1`` has ``q_res**(m-1) * (q_res - 1)`` copies, one per vertex
      ``r`` at level ``min_level + m - 1`` and direction ``k = 1 .. q_res-1``
      (copy ``c = r*(q_res-1) + k-1``).  Column ``l`` is
      ``W[k, d] * q_res**(-l/2)`` on the level-``min_level + m + l``
      descendants of ``r``, where ``d`` is the digit each inherits from its
      level-``min_level + m`` ancestor and ``W`` is :func:`helmert`.

    Each level is a ``np.repeat``/``np.tile`` of a small template, written in
    CSR order.  Over ``m = 0 .. max_level - min_level`` the columns form an
    orthonormal basis of the window.
    """
    q = window.params.q_res
    span = window.max_level - window.min_level
    if not 0 <= m <= span:
        raise ValueError(f"tail length {m} outside 0..{span}")
    L = span + 1 - m
    by_digit = helmert(q)[1:].T
    keep_by_digit = by_digit != 0.0
    count_by_digit = keep_by_digit.sum(axis=1)
    indptr = np.zeros(window.total + 1, dtype=np.int64)
    indices: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for l in range(L):
        seg = window.level_slice(window.min_level + m + l)
        size = seg.stop - seg.start
        scale = 1.0 / np.sqrt(float(q) ** l)
        if m == 0:
            indptr[seg.start + 1 : seg.stop + 1] = 1
            indices.append(np.full(size, l))
            data.append(np.full(size, scale))
            continue
        reps = q**l  # rows per digit below one vertex r
        keep = np.repeat(keep_by_digit, reps, axis=0)
        cols = np.broadcast_to(np.arange(q - 1) * L + l, keep.shape)[keep]
        vals = np.repeat(by_digit * scale, reps, axis=0)[keep]
        shift = np.arange(size // (q * reps)) * ((q - 1) * L)
        indptr[seg.start + 1 : seg.stop + 1] = np.tile(np.repeat(count_by_digit, reps), shift.size)
        indices.append((shift[:, None] + cols).ravel())
        data.append(np.tile(vals, shift.size))
    np.cumsum(indptr, out=indptr)
    copies = 1 if m == 0 else q ** (m - 1) * (q - 1)
    return sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr),
        shape=(window.total, copies * L),
    )


def haar_columns_coo(window, m):
    """The Haar columns assembled as COO triplets, then converted."""
    q = window.params.q_res
    L = window.max_level - window.min_level + 1 - m
    w = helmert(q)
    rows, cols, data = [], [], []
    for l in range(L):
        seg = window.level_slice(window.min_level + m + l)
        ranks = np.arange(seg.stop - seg.start, dtype=np.int64)
        scale = 1.0 / np.sqrt(float(q) ** l)
        if m == 0:
            rows.append(seg.start + ranks)
            cols.append(np.full(ranks.size, l))
            data.append(np.full(ranks.size, scale))
            continue
        head, digit = np.divmod(ranks // q**l, q)
        for k in range(1, q):
            vals = w[k, digit]
            keep = vals != 0.0
            rows.append(seg.start + ranks[keep])
            cols.append((head[keep] * (q - 1) + k - 1) * L + l)
            data.append(vals[keep] * scale)
    copies = 1 if m == 0 else q ** (m - 1) * (q - 1)
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(window.total, copies * L),
    )
    return mat.tocsr()


def symmetrized_D_coo(window):
    """``D`` in symmetrized coordinates from COO triplets, one level at a time."""
    params = window.params
    q = params.q_res
    rows, cols, data = [], [], []
    off_child = -1.0 / np.sqrt(q)
    for n in window.levels:
        seg = window.level_slice(n)
        size = seg.stop - seg.start
        beta = params.scale_float(n)
        idx = np.arange(seg.start, seg.stop)
        rows.append(idx)
        cols.append(idx)
        data.append(np.full(size, beta))
        if n < window.max_level:
            child_start = window.level_slice(n + 1).start
            rows.append(np.repeat(idx, q))
            cols.append(child_start + np.arange(size * q))
            data.append(np.full(size * q, beta * off_child))
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(window.total, window.total),
    )
    return mat.tocsr()


def commutator_coo(window, a):
    """The symmetrized commutator ``[D, multiplication by a]`` from COO triplets."""
    params = window.params
    q = params.q_res
    diag = rho_diag(window, a)
    rows, cols, data = [], [], []
    inv_sqrt_q = 1.0 / np.sqrt(q)
    for n in range(window.min_level, window.max_level):
        seg = window.level_slice(n)
        size = seg.stop - seg.start
        child_seg = window.level_slice(n + 1)
        beta = params.scale_float(n)
        idx = np.arange(seg.start, seg.stop)
        diffs = np.repeat(diag[seg], q) - diag[child_seg]
        rows.append(np.repeat(idx, q))
        cols.append(child_seg.start + np.arange(size * q))
        data.append(beta * inv_sqrt_q * diffs)
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(window.level_offsets[-2], window.total),
    )
    out = mat.tocsr()
    out.eliminate_zeros()
    return out


def sparse_row_norms(window, a):
    """Commutator row norms from scipy's CSR row sums of the squared entries."""
    mat = commutator_coo(window, a)
    return np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())


def sparse_haar_blocks(params, depth, b=None):
    """Per-``m`` copy blocks, residuals and the scaling deviation from sparse products.

    Returns ``(blocks, residuals, scaling_dev)`` with ``blocks[m]`` of shape
    ``(copies, L, L)``, read off the diagonal blocks of ``V_m^T A V_m`` for
    ``A = B^T B``, and ``residuals[m] = ||A V_m - V_m blockdiag||_F / ||A V_m||_F``.
    ``b`` replaces the assembled ``B`` (a CSR matrix of the window's shape).
    """
    window = tree_window_r(params, depth)
    if b is None:
        b = symmetrized_D_coo(window)
    mat = (b.T @ b).tocsr()
    per_m, residuals = [], []
    scaling_dev = 0.0
    for m in range(depth + 1):
        cols = haar_columns(window, m)
        L = depth + 1 - m
        copies = cols.shape[1] // L
        image = mat @ cols
        prod = (cols.T @ image).tocoo()
        own = prod.row // L == prod.col // L
        blocks = np.zeros((copies, L, L))
        blocks[prod.row[own] // L, prod.row[own] % L, prod.col[own] % L] = prod.data[own]
        blockdiag = sp.bsr_matrix(
            (blocks, np.arange(copies), np.arange(copies + 1)), shape=(copies * L, copies * L)
        )
        off = image - cols @ blockdiag
        residuals.append(float(np.linalg.norm(off.data) / np.linalg.norm(image.data)))
        if m == 0:
            radial = blocks[0]
        base = radial[:L, :L]
        grade = np.sqrt(np.outer(np.diag(base), np.diag(base)))
        dev = np.abs(blocks / params.scale_float(2 * m) - base) / grade
        scaling_dev = max(scaling_dev, float(dev.max()))
        per_m.append(blocks)
    return per_m, residuals, scaling_dev
