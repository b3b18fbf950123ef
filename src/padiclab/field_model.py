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

from dataclasses import dataclass

__all__ = ["FieldParams", "Center", "count_g", "pi_power"]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldParams:
    """Structure constants ``(p, e, f)`` of the modeled field.

    Attributes:
        p: Residue characteristic (a prime).
        e: Ramification index.  The norm takes values in integer powers of
            ``p**(1/e)``; the uniformizer has norm ``p**(-1/e)``.
        f: Residue degree.  Digits range over an alphabet of size
            ``q_res = p**f``, with ``0`` the zero representative.
    """

    p: int
    e: int
    f: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.e < 1:
            raise ValueError(f"e must be a positive integer, got {self.e}")
        if self.f < 1:
            raise ValueError(f"f must be a positive integer, got {self.f}")

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


@dataclass(frozen=True)
class Center:
    """A ball center: the digit string ``d_start, ..., d_(depth-1)``.

    The string represents the element ``sum_i d_i * pi**i`` over its index
    range (``pi`` the uniformizer) and labels the ball of radius
    ``p**(-depth/e)`` around that element, ``depth = start + len(digits)``.
    Unit-ball centers have ``start = 0``; enlarged windows use negative
    ``start``.
    """

    params: FieldParams
    start: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        q_res = self.params.q_res
        for d in self.digits:
            if not 0 <= d < q_res:
                raise ValueError(f"digit {d} outside alphabet 0..{q_res - 1}")


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
