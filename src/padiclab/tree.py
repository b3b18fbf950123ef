"""Finite windows of the regular digit tree.

Level ``n`` of the tree holds the depth-``n`` centers; edges append one digit.
A window spans levels ``min_level..max_level`` (unit-ball windows start at 0,
enlarged windows at ``-M``).  Vertices are addressed as ``(level, rank)``
where the rank is the base-``q_res`` numeral formed by the digit string, most
significant digit first.  That makes the global index level-major and
digit-lexicographic within each level, child ranks contiguous
(``children of (n, r) = (n+1, r*q_res + d)``), and every assembled matrix
deterministic.

The descendants of one vertex at a fixed level are consecutive ranks, so the
tree's Haar (level-group) basis, in which ``D*D`` is block-diagonal, is a
reshape of each level (see :mod:`padiclab.spectrum_zeta`).
"""

from __future__ import annotations

from typing import NamedTuple

from .field_model import Center, FieldParams

__all__ = ["TreeWindow", "tree_window_r", "tree_window_f"]


class _WindowTuple(NamedTuple):
    params: FieldParams
    min_level: int
    max_level: int


class TreeWindow(_WindowTuple):
    """Window of the digit tree spanning ``min_level..max_level``.

    ``min_level = 0`` models the unit ball; ``min_level = -M`` models the
    enlarged ball of radius ``p**(M/e)`` (a hard spatial cutoff).
    """

    __slots__ = ()

    def __new__(cls, params: FieldParams, min_level: int, max_level: int) -> TreeWindow:
        if max_level < min_level:
            raise ValueError("window needs max_level >= min_level")
        return super().__new__(cls, params, min_level, max_level)

    @classmethod
    def _make(cls, iterable):
        """Build through the constructor, so that ``_replace`` validates too."""
        return cls(*iterable)

    # -- level layout -------------------------------------------------------
    @property
    def levels(self) -> range:
        return range(self.min_level, self.max_level + 1)

    def level_size(self, n: int) -> int:
        """Number of vertices at level ``n``: ``q_res**(n - min_level)``."""
        self._check_level(n)
        return self.params.q_res ** (n - self.min_level)

    def _offset(self, i: int) -> int:
        """Vertices on the ``i`` top levels: ``(q_res**i - 1) / (q_res - 1)``."""
        q = self.params.q_res
        return (q**i - 1) // (q - 1)

    @property
    def level_offsets(self) -> tuple[int, ...]:
        """Start index of each level, plus the total as a sentinel."""
        return tuple(self._offset(i) for i in range(len(self.levels) + 1))

    @property
    def total(self) -> int:
        """Total vertex count."""
        return self._offset(len(self.levels))

    def level_slice(self, n: int) -> slice:
        """Index-space slice of level ``n``."""
        self._check_level(n)
        i = n - self.min_level
        return slice(self._offset(i), self._offset(i + 1))

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
