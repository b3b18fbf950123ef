"""Field parameters and the digit strings that name points and balls.

A local field with residue characteristic ``p``, ramification index ``e`` and
residue degree ``f`` enters the package through :class:`FieldParams`: the
digit alphabet size ``q_res = p**f``, the norm scales ``p**(num/e)`` and the
spectral ratio ``q = p**(-2/e)``.  Nothing downstream needs carry arithmetic:
every operator, seminorm and spectrum depends only on digit prefixes and
valuations, and the tree layout of :mod:`padiclab.tree` turns those into
arithmetic on rank numerals.

A :class:`Center` is one digit string, for one-point evaluation of a test
function; :func:`count_g` counts the digit tails that give the spectral
multiplicities.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["FieldParams", "Center", "count_g", "pi_power"]


# The Miller-Rabin test to the 13 prime bases up to 41 passes no composite
# below _PRIME_LIMIT (Sorenson and Webster, 2015: the least composite that
# passes it is _PRIME_LIMIT itself); to the bases up to 37 alone it is
# exact only below 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether ``n < _PRIME_LIMIT`` is prime, by the Miller-Rabin test to
    the bases ``_PRIME_BASES``, which is exact there."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# A NamedTuple body may not define ``__new__`` or ``__init__``, so the value
# types that validate on construction subclass a plain field tuple.
class _FieldTuple(NamedTuple):
    p: int
    e: int
    f: int


class FieldParams(_FieldTuple):
    """Structure constants ``(p, e, f)`` of the modeled field.

    Attributes:
        p: Residue characteristic (a prime).
        e: Ramification index.  The norm takes values in integer powers of
            ``p**(1/e)``; the uniformizer has norm ``p**(-1/e)``.
        f: Residue degree.  Digits range over an alphabet of size
            ``q_res = p**f``, with ``0`` the zero representative.
    """

    __slots__ = ()

    def __new__(cls, p: int, e: int, f: int) -> FieldParams:
        if p >= _PRIME_LIMIT:
            raise ValueError(f"p must be below {_PRIME_LIMIT}, got {p}")
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if e < 1:
            raise ValueError(f"e must be a positive integer, got {e}")
        # The float model divides by 1 - q and by log10 Q.
        if not float(p) ** (-2 / e) < 1.0 < float(p) ** (2 / e):
            raise ValueError(f"e must leave p**(2/e) above 1 in floats, got {e}")
        if f < 1:
            raise ValueError(f"f must be a positive integer, got {f}")
        return super().__new__(cls, p, e, f)

    @classmethod
    def _make(cls, iterable):
        """Build through the constructor, so that ``_replace`` validates too."""
        return cls(*iterable)

    @property
    def q_res(self) -> int:
        """Digit alphabet size ``p**f`` (number of children per tree vertex)."""
        return self.p**self.f

    @property
    def ef(self) -> int:
        """Degree ``e*f``; controls summability thresholds."""
        return self.e * self.f

    @property
    def q(self) -> float:
        """Spectral ratio ``p**(-2/e)``, in ``(0, 1)``."""
        return float(self.p) ** (-2.0 / self.e)

    @property
    def Q(self) -> float:
        """Inverse spectral ratio ``p**(2/e) = 1/q``."""
        return float(self.p) ** (2.0 / self.e)

    def scale_float(self, num: int) -> float:
        """Float value of ``p**(num/e)``."""
        return float(self.p) ** (num / self.e)


class _CenterTuple(NamedTuple):
    params: FieldParams
    start: int
    digits: tuple[int, ...]


class Center(_CenterTuple):
    """A ball center: the digit string ``d_start, ..., d_(depth-1)``.

    The string represents the element ``sum_i d_i * pi**i`` over its index
    range (``pi`` the uniformizer) and labels the ball of radius
    ``p**(-depth/e)`` around that element, ``depth = start + len(digits)``.
    Unit-ball centers have ``start = 0``; enlarged windows use negative
    ``start``.
    """

    __slots__ = ()

    def __init__(self, params: FieldParams, start: int, digits: tuple[int, ...]) -> None:
        q_res = params.q_res
        for d in digits:
            if not 0 <= d < q_res:
                raise ValueError(f"digit {d} outside alphabet 0..{q_res - 1}")

    @classmethod
    def _make(cls, iterable):
        """Build through the constructor, so that ``_replace`` validates too."""
        return cls(*iterable)


def count_g(params: FieldParams, m: int) -> int:
    """Number of length-``m`` digit tails with nonzero leading digit.

    Equals 1 for ``m = 0`` (the empty tail) and
    ``p**(m*f) - p**((m-1)*f)`` otherwise.  These are the multiplicities of
    the scaled spectral families.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return 1
    return params.p ** (m * params.f) - params.p ** ((m - 1) * params.f)


def pi_power(params: FieldParams, n: int, depth: int, start: int = 0) -> Center:
    """The point ``pi**n`` as a center of the given depth.

    The digit string has a single 1 at index ``n``; requires
    ``start <= n < depth``.  The multiplication operator's diagonal value on
    the level-``n`` zero vertex is the test function at this point (see
    :func:`padiclab.operators.rho_diag`).
    """
    if not start <= n < depth:
        raise ValueError(f"pi^{n} needs start <= {n} < depth, got [{start}, {depth})")
    digits = [0] * (depth - start)
    digits[n - start] = 1
    return Center(params, start, tuple(digits))
