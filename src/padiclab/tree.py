"""Finite windows of the regular digit tree and their Haar columns.

Level ``n`` of the tree holds the depth-``n`` centers; edges append one digit.
A window spans levels ``min_level..max_level`` (unit-ball windows start at 0,
enlarged windows at ``-M``).  Vertices are addressed as ``(level, rank)``
where the rank is the base-``q_res`` numeral formed by the digit string, most
significant digit first.  That makes the global index level-major and
digit-lexicographic within each level, child ranks contiguous
(``children of (n, r) = (n+1, r*q_res + d)``), and every assembled matrix
deterministic.

The same rank arithmetic gives the orthonormal Haar (level-group) columns of
:func:`haar_columns`, in which the window square ``D*D`` is block-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .field_model import Center, FieldParams

# scipy is imported inside the functions that build sparse matrices: loading
# it takes longer than a whole root-only command (spectrum, zeta).
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["TreeWindow", "tree_window_r", "tree_window_f", "haar_columns"]


@dataclass(frozen=True)
class TreeWindow:
    """Window of the digit tree spanning ``min_level..max_level``.

    ``min_level = 0`` models the unit ball; ``min_level = -M`` models the
    enlarged ball of radius ``p**(M/e)`` (a hard spatial cutoff).
    """

    params: FieldParams
    min_level: int
    max_level: int

    def __post_init__(self) -> None:
        if self.max_level < self.min_level:
            raise ValueError("window needs max_level >= min_level")

    # -- level layout -------------------------------------------------------
    @property
    def levels(self) -> range:
        return range(self.min_level, self.max_level + 1)

    def level_size(self, n: int) -> int:
        """Number of vertices at level ``n``: ``q_res**(n - min_level)``."""
        self._check_level(n)
        return self.params.q_res ** (n - self.min_level)

    @cached_property
    def level_offsets(self) -> tuple[int, ...]:
        """Start index of each level, plus the total as a sentinel."""
        offsets = [0]
        for n in self.levels:
            offsets.append(offsets[-1] + self.level_size(n))
        return tuple(offsets)

    @property
    def total(self) -> int:
        """Total vertex count."""
        return self.level_offsets[-1]

    def level_slice(self, n: int) -> slice:
        """Index-space slice of level ``n``."""
        self._check_level(n)
        i = n - self.min_level
        return slice(self.level_offsets[i], self.level_offsets[i + 1])

    def _check_level(self, n: int) -> None:
        if not self.min_level <= n <= self.max_level:
            raise ValueError(f"level {n} outside window [{self.min_level}, {self.max_level}]")

    def center(self, n: int, rank: int) -> Center:
        """The digit-string center addressed by ``(level, rank)``."""
        width = n - self.min_level
        if not 0 <= rank < self.level_size(n):
            raise ValueError(f"rank {rank} outside level {n}")
        digits = [0] * width
        q = self.params.q_res
        r = rank
        for i in range(width - 1, -1, -1):
            r, digits[i] = divmod(r, q)
        return Center(self.params, self.min_level, tuple(digits))


def tree_window_r(params: FieldParams, N: int) -> TreeWindow:
    """Unit-ball window: levels ``0..N``, ``p**(n*f)`` vertices at level n."""
    return TreeWindow(params, 0, N)


def tree_window_f(params: FieldParams, M: int, N: int) -> TreeWindow:
    """Enlarged-ball window: levels ``-M..N``, cutoff ``|x| <= p**(M/e)``."""
    if M < 0:
        raise ValueError("M must be nonnegative")
    return TreeWindow(params, -M, N)


def _helmert(q: int) -> np.ndarray:
    """Orthogonal ``q x q`` matrix whose row 0 is the mean direction.

    Row ``k >= 1`` is ``(1, ..., 1, -k, 0, ..., 0) / sqrt(k(k+1))`` with ``k``
    leading ones; it sums to zero, so it is orthogonal to the mean.
    """
    w = np.zeros((q, q))
    w[0] = 1.0 / np.sqrt(q)
    for k in range(1, q):
        norm = np.sqrt(k * (k + 1))
        w[k, :k] = 1.0 / norm
        w[k, k] = -k / norm
    return w


def haar_columns(window: TreeWindow, m: int) -> sp.csr_matrix:
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
      level-``min_level + m`` ancestor and ``W`` is an orthogonal matrix whose
      row 0 is the mean, so the copy sums to zero below ``r``.

    Rank ``R`` at width ``m + l`` has that ancestor at ``R // q_res**l``, so
    the rows below one vertex ``r`` are ``q_res**l`` consecutive ranks per
    digit ``d``, and every ``r`` repeats one pattern shifted by ``r``'s
    columns.  Rows are level-major and columns ascend with ``k`` within a
    row, so the CSR arrays are written in order, one level at a time.  Over
    ``m = 0 .. max_level - min_level`` the columns form an orthonormal basis
    of the window.
    """
    import scipy.sparse as sp

    q = window.params.q_res
    span = window.max_level - window.min_level
    if not 0 <= m <= span:
        raise ValueError(f"tail length {m} outside 0..{span}")
    L = span + 1 - m
    # Row d of ``by_digit`` holds W[k, d] for k = 1 .. q-1: the entries of a
    # row whose level-m ancestor has digit d, in column order.
    by_digit = _helmert(q)[1:].T
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

