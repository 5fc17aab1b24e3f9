"""Octonion operations that the tests need and the package does not.

Sums, differences, negatives and scalar multiples of a ``cayley.Octonion``,
the zero octonion, the sign maps conj, gamma and gamma1, and the inner
product making e0..e7 orthonormal, all on the exact coordinates.  The
package runs these only as int kernels on tuples (check 7's ``_signs`` and
``_dot``).  The sign maps read cayley's sign tuples at each call, so a test
that patches a tuple in cayley patches the map too.
"""

from g2orbits import cayley
from g2orbits.cayley import Octonion


def add(x: Octonion, y: Octonion) -> Octonion:
    return Octonion([a + b for a, b in zip(x.coords, y.coords)])


def sub(x: Octonion, y: Octonion) -> Octonion:
    return Octonion([a - b for a, b in zip(x.coords, y.coords)])


def scale(c, x: Octonion) -> Octonion:
    """c x for an int or Fraction c."""
    return Octonion([c * a for a in x.coords])


def neg(x: Octonion) -> Octonion:
    return scale(-1, x)


def zero() -> Octonion:
    return Octonion((0,) * 8)


def is_zero(x: Octonion) -> bool:
    return not any(x.num)


def _signed(signs, x: Octonion) -> Octonion:
    return Octonion([s * a for s, a in zip(signs, x.coords)])


def conj(x: Octonion) -> Octonion:
    """Conjugation: fixes the e0 coordinate, negates the rest."""
    return _signed(cayley._CONJ_SIGNS, x)


def gamma(x: Octonion) -> Octonion:
    """The automorphism a + b*e4 -> a - b*e4 (negates coordinates 4..7)."""
    return _signed(cayley._GAMMA_SIGNS, x)


def gamma1(x: Octonion) -> Octonion:
    """The automorphism a + m -> conj(a) + conj(m) of the complex model: it
    fixes e0, e2, e4, e6 and negates e1, e3, e5, e7."""
    return _signed(cayley._GAMMA1_SIGNS, x)


def inner(x: Octonion, y: Octonion):
    """The inner product making e0..e7 orthonormal, a Fraction."""
    return sum(a * b for a, b in zip(x.coords, y.coords))


def norm(x: Octonion):
    return inner(x, x)
