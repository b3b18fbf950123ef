"""Lipschitz seminorms, the explicit commutator-norm formula, and comparisons.

Window quantities at explicit depth ``N``:

* ``lipschitz_depth`` — the sup of ``|a(x) - a(y)| / dist(x, y)`` over
  distinct deepest-level centers (the zero center evaluated both at zero and
  at its representative point ``pi**N``), computed exactly by one bottom-up
  sweep of subtree minima and maxima rather than over all pairs;
* ``spectral_seminorm_formula`` — the explicit maximum of weighted
  child-difference row sums whose square root equals the commutator operator
  norm (every child has one parent, so rows of the symmetrized commutator
  have disjoint column supports);
* ``check_norm_comparison`` — evaluates the two-sided comparison
  ``c_lower * L1 <= L_D <= c_upper * L1`` with
  ``c_lower = (p**(1/e) - 1)/(2 p**(1/e) sqrt(p**f))`` and
  ``c_upper = sqrt((p**f - 1)/p**f)``, plus the formula-vs-matrix equality,
  and reports pass flags.

Both sweeps and the commutator read the level-major diagonal of
:func:`rho_diag`, which evaluates a test function once, on the deepest
level, and applies the zero-vertex convention; the zero row of the formula
is then an ordinary row.  ``check_norm_comparison`` computes that diagonal
once for all three; the Lipschitz sweep reduces each level's children over
``q_res`` strided views of the level below; the formula differences the
heap rows of :mod:`padiclab.tree` at once.  The library functions depend
only on a digit prefix or the valuation, so they evaluate a batch by integer
arithmetic on its rank numerals (a table lookup, or two binary searches over
nested rank intervals) and a small table of floats.  The formula route
never touches the assembled commutator; the matrix route never uses the
formula — their agreement is part of the validation surface.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

import numpy as np

from .field_model import FieldParams
from .operators import TestFunction, _by_level, _commutator_norm, rho_diag
from .tree import TreeWindow

# Depth of the deeper random test function of testfn_library, whose table of
# q_res**RANDOM_TABLE_DEPTH floats is drawn when the library is built.
RANDOM_TABLE_DEPTH = 4

__all__ = [
    "SeminormReport",
    "lipschitz_depth",
    "spectral_seminorm_formula",
    "comparison_constants",
    "check_norm_comparison",
    "testfn_library",
]


# ---------------------------------------------------------------------------
# Depth-N Lipschitz seminorm (one subtree min/max sweep)
# ---------------------------------------------------------------------------


def lipschitz_depth(window: TreeWindow, a: TestFunction) -> float:
    """Exact sup of ``|a(x)-a(y)| / dist(x,y)`` over deepest-level points.

    The point set is the deepest-level centers, the zero vertex carrying both
    the zero element and ``pi**N``, the stand-in the operators evaluate there
    (that pair is scored at level ``N``).  Two points meeting at a level-``l`` vertex are at distance
    ``p**(-l/e)``.  One sweep from level ``N`` up reduces subtree minima and
    maxima over the ``q_res`` strided views of the level below (child
    ``digit`` of every vertex is ``lo[digit::q_res]``) and takes, per level,
    the largest subtree spread times ``p**(l/e)``.  A spread whose extremes
    sit in one child was already scored, at a larger weight, where they
    meet, so the maximum is the all-pairs one.

    Exact for functions locally constant at the window depth; in general a
    lower bound for the untruncated seminorm.
    """
    return _lipschitz(window, a, rho_diag(window, a))


def _lipschitz(window: TreeWindow, a: TestFunction, diag: np.ndarray) -> float:
    params = window.params
    N = window.max_level
    lo = diag[window.level_slice(N)].copy()
    hi = lo.copy()
    a_zero = float(a.evaluator(window.min_level, 0, np.zeros(1, dtype=np.int64))[0])
    lo[0], hi[0] = min(a_zero, lo[0]), max(a_zero, hi[0])
    best = 0.0
    q = params.q_res
    for level in range(N, window.min_level - 1, -1):
        if level < N:
            lo = functools.reduce(np.minimum, [lo[d::q] for d in range(q)])
            hi = functools.reduce(np.maximum, [hi[d::q] for d in range(q)])
        best = max(best, float(np.max(hi - lo)) * params.scale_float(level))
    return best


# ---------------------------------------------------------------------------
# Explicit spectral-seminorm formula
# ---------------------------------------------------------------------------


def spectral_seminorm_formula(window: TreeWindow, a: TestFunction) -> float:
    """Explicit maximum-row formula for the commutator operator norm.

    Row ``(n, x)`` contributes
    ``(1/p**f) * sum_children (a_n(x) - a_(n+1)(child))**2 * p**(2n/e)``
    with the values of :func:`rho_diag`, so the zero vertex uses the
    convention values ``a(pi**n)`` and, at its zero child, ``a(pi**(n+1))``.
    The square root of the maximum over ``n <= N-1`` equals the commutator
    norm exactly (disjoint row supports).  All rows are formed at once over the
    heap rows ``g`` of the window, whose children are ``q_res*g + 1 .. q_res*g + q_res``.

    Each row sums its digit-``1..q-1`` terms in order from ``0.0`` and then
    adds the digit-0 term in front, with squares taken as ``float ** 2``:
    the float operations of the per-vertex sums this replaces (the digit-0
    term of a nonzero row is exactly zero).
    """
    return _formula(window, rho_diag(window, a))


def _formula(window: TreeWindow, diag: np.ndarray) -> float:
    params = window.params
    q = params.q_res
    rows = window.level_offsets[-2]
    sq = diag[:rows, None] - diag[1:].reshape(rows, q)
    # Most differences vanish on fine levels.  Those stay +-0, which adds to the row
    # sums (they start at +0.0) as their square +0 would.
    np.float_power(sq, 2, out=sq, where=sq != 0.0)
    sibs = np.zeros(rows)
    for digit in range(1, q):
        sibs += sq[:, digit]
    scale = _by_level(window, [params.scale_float(2 * n) for n in window.levels[:-1]])
    best_sq = ((sq[:, 0] + sibs) / q * scale).max(initial=0.0)
    return float(np.sqrt(best_sq))


# ---------------------------------------------------------------------------
# Two-sided comparison
# ---------------------------------------------------------------------------


def comparison_constants(params: FieldParams) -> tuple[float, float]:
    """Lower and upper comparison constants between ``L_D`` and ``L_1``.

    ``lower = (p**(1/e) - 1) / (2 p**(1/e) sqrt(p**f))``,
    ``upper = sqrt((p**f - 1) / p**f)``.
    """
    beta = params.scale_float(1)
    lower = (beta - 1.0) / (2.0 * beta * math.sqrt(params.q_res))
    upper = math.sqrt((params.q_res - 1.0) / params.q_res)
    return lower, upper


class SeminormReport(NamedTuple):
    """Depth-N seminorm quantities and comparison outcomes for one function."""

    function_id: str
    depth: int
    L1_depthN: float
    LD_formula_depthN: float
    commutator_norm_depthN: float
    lower_constant: float
    upper_constant: float
    sandwich_passed: bool
    formula_matches_matrix: bool

    @property
    def passed(self) -> bool:
        return self.sandwich_passed and self.formula_matches_matrix


# Relative tolerance of the formula-vs-matrix equality (``max(1, cn)`` scale).
MATCH_TOL = 1e-8


def check_norm_comparison(window: TreeWindow, a: TestFunction) -> SeminormReport:
    """Evaluate the seminorm sandwich and the formula-vs-matrix equality (``MATCH_TOL``).

    A failed flag is a hard failure for callers (validation suite and
    acceptance tests assert on it), not a warning.  The three quantities
    share one :func:`rho_diag`.
    """
    diag = rho_diag(window, a)
    l1 = _lipschitz(window, a, diag)
    ld = _formula(window, diag)
    cn = _commutator_norm(window, diag)
    lower, upper = comparison_constants(window.params)
    slack = 1e-12 * max(1.0, l1)
    sandwich = (lower * l1 - slack <= ld) and (ld <= upper * l1 + slack)
    matches = abs(ld - cn) <= MATCH_TOL * max(1.0, cn)
    return SeminormReport(
        function_id=a.name,
        depth=window.max_level,
        L1_depthN=float(l1),
        LD_formula_depthN=float(ld),
        commutator_norm_depthN=float(cn),
        lower_constant=lower,
        upper_constant=upper,
        sandwich_passed=bool(sandwich),
        formula_matches_matrix=bool(matches),
    )


# ---------------------------------------------------------------------------
# Test-function library
# ---------------------------------------------------------------------------


def _prefix(q: int, width: int, ranks: np.ndarray, k: int) -> np.ndarray:
    """Numerals of the first ``k`` digits of each string, zero-padded past ``width``."""
    if width >= k:
        return ranks // q ** (width - k)
    return ranks * q ** (k - width)


def _agreement(
    q: int, width: int, ranks: np.ndarray, c_digits: tuple[int, ...]
) -> tuple[np.ndarray, int]:
    """Leading digits each string shares with ``c_digits``, both zero-padded.

    Returns the counts and the compared length; a count equal to the length
    means the string represents the point ``c``.  The strings sharing the
    first ``k`` digits with ``c`` are the ranks of an interval
    ``[low_k, high_k)``, and these intervals are nested, so the count is the
    number of lower bounds at or below a rank or of upper bounds above it,
    whichever is smaller.  A string's digits past ``width`` are zeros, so
    there the interval stays the same while ``c``'s digits are zero and is
    empty from its first nonzero digit on.
    """
    length = max(width, len(c_digits))
    padded = c_digits + (0,) * (length - len(c_digits))
    lows, highs = [0], [q**width]  # k = 0: every string
    c_rank = 0
    for k in range(1, length + 1):
        c_rank = c_rank * q + padded[k - 1]
        if k <= width:
            span = q ** (width - k)
            lows.append(c_rank * span)
            highs.append((c_rank + 1) * span)
        else:
            lows.append(lows[-1] if padded[k - 1] == 0 else highs[-1])
            highs.append(highs[-1])
    below = np.searchsorted(np.array(lows[1:], dtype=np.int64), ranks, side="right")
    upper = np.array(highs[:0:-1], dtype=np.int64)  # ascending, without k = 0
    return np.minimum(below, length - np.searchsorted(upper, ranks, side="right")), length


def _distance_table(params: FieldParams, start: int, length: int) -> list[float]:
    """``|x - c|`` by agreement count ``j``: ``p**(-(start + j)/e)``, then 0."""
    return [params.scale_float(-(start + j)) for j in range(length)] + [0.0]


def _make_abs_shift(params: FieldParams, c_digits: tuple[int, ...], name: str) -> TestFunction:
    """``|x - c|`` for ``c`` the finite digit string of a point at the window's
    start level (``c_digits = ()`` gives the norm)."""
    def ev(start: int, width: int, ranks: np.ndarray) -> np.ndarray:
        agree, length = _agreement(params.q_res, width, ranks, c_digits)
        return np.array(_distance_table(params, start, length))[agree]

    return TestFunction(name=name, evaluator=ev, known_lipschitz=1.0)


def _make_ball_indicator(
    params: FieldParams, prefix: tuple[int, ...], name: str
) -> TestFunction:
    """Indicator of the radius-``p**(-k/e)`` ball with digit prefix of length k."""
    k = len(prefix)

    def ev(start: int, width: int, ranks: np.ndarray) -> np.ndarray:
        return (_agreement(params.q_res, width, ranks, prefix)[0] >= k).astype(float)

    # Nearest point outside the ball differs in the last prefix digit:
    # separation p**(-(k-1)/e), giving seminorm p**((k-1)/e).
    return TestFunction(name=name, evaluator=ev, known_lipschitz=params.scale_float(k - 1))


def _make_random_locally_constant(
    params: FieldParams, depth: int, seed: int
) -> TestFunction:
    """Uniform values on the ``q_res**depth`` balls of radius ``p**(-depth/e)``:
    the first ``q_res**depth`` draws of ``random.Random(seed).random()``, a
    stream Python keeps fixed across versions for a given seed."""
    draw = random.Random(seed).random
    size = params.q_res**depth
    table = np.fromiter((draw() for _ in range(size)), dtype=float, count=size)

    def ev(start: int, width: int, ranks: np.ndarray) -> np.ndarray:
        return table[_prefix(params.q_res, width, ranks, depth)]

    return TestFunction(name=f"rand-depth{depth}-seed{seed}", evaluator=ev)


def _make_decay(params: FieldParams, alpha: float, name: str) -> TestFunction:
    def ev(start: int, width: int, ranks: np.ndarray) -> np.ndarray:
        agree, length = _agreement(params.q_res, width, ranks, ())
        norms = _distance_table(params, start, length)
        return np.array([1.0 / (1.0 + r**alpha) for r in norms])[agree]

    return TestFunction(name=name, evaluator=ev, decay_alpha=alpha)


def testfn_library(params: FieldParams) -> list[TestFunction]:
    """Standard library of at least ten test functions.

    Constants, the norm function, shifted norms, ball indicators at depths
    1..3, seeded random locally constant functions (depth 3, seed 7 and
    depth ``RANDOM_TABLE_DEPTH``, seed 11; each table is the prefix of the
    ``random.Random(seed).random()`` stream), and decaying functions
    ``1/(1 + |x|**alpha)`` for ``alpha in {2, ef}`` intended for enlarged
    windows (``alpha`` must exceed ``max(1, ef/2)`` to be admissible there —
    the ``alpha = ef`` entry fails that exactly when ``ef = 1``).
    """
    lib = [
        TestFunction(
            name="const-1",
            evaluator=lambda start, width, ranks: np.ones(len(ranks)),
            known_lipschitz=0.0,
        ),
        _make_abs_shift(params, (), "abs"),
        _make_abs_shift(params, (1,), "abs-shift-1"),
        _make_abs_shift(params, (0, 1), "abs-shift-pi"),
        _make_abs_shift(params, (1, 0, 1), "abs-shift-1+pi2"),
        _make_ball_indicator(params, (0,), "ball-0-depth1"),
        _make_ball_indicator(params, (0, 1), "ball-pi-depth2"),
        _make_ball_indicator(params, (1, 0, 0), "ball-1-depth3"),
        _make_random_locally_constant(params, depth=3, seed=7),
        _make_random_locally_constant(params, depth=RANDOM_TABLE_DEPTH, seed=11),
        _make_decay(params, 2.0, "decay-quadratic"),
        _make_decay(params, float(params.ef), "decay-ef"),
    ]
    return lib
