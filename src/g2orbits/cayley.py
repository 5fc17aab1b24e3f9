"""Exact octonion arithmetic in two models of the same algebra.

The primary model is pairs of quaternions glued by the doubling product

    (a + b*e4)(c + d*e4) = (ac - conj(d) b) + (b conj(c) + d a) e4

with basis 1=e0, e1, e2, e3 spanning the quaternions (e1 e2 = e3) and
e4, e5 = e1 e4, e6 = e2 e4, e7 = e3 e4 spanning the complement.  The second
model writes an element as a complex scalar plus a complex 3-vector,

    (a + m)(b + n) = (ab - <m, n>) + (a n + conj(b) m - conj(m x n)),

where <m, n> = sum_i m_i conj(n_i).  The coordinate identification between
the models and the orientation of the cross product are fixed below; they
were calibrated once so that both products agree on all 64 basis pairs
(the agreement is re-verified in the test suite).

Elements of both models are ``linalg._IntCoords`` (int numerators over one
denominator).  ``Octonion`` wraps kernels on int 8-tuples (``_product``,
``_dot`` and ``_signs`` for conj, gamma and gamma1) and reduces a product
or sum by one gcd, a sign change by none (it cannot create a common
factor).  ``_product`` is the one doubling-product loop: the table, the
automorphism test and checks 7 and 11 call it on tuples, with no Octonion.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index, mul

from .linalg import Matrix, _cleared, _IntCoords, rank


def _sub(x, y):
    """Componentwise difference of two int tuples (complex pairs)."""
    return tuple(a - b for a, b in zip(x, y))


def _product(x, y):
    """(ac - conj(d) b) + (b conj(c) + d a) e4 on int 8-tuples x = (a, b), y = (c, d)."""
    x0, x1, x2, x3, x4, x5, x6, x7 = x
    y0, y1, y2, y3, y4, y5, y6, y7 = y
    return (
        x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3 - x4 * y4 - x5 * y5 - x6 * y6 - x7 * y7,
        x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2 + x4 * y5 - x5 * y4 - x6 * y7 + x7 * y6,
        x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1 + x4 * y6 + x5 * y7 - x6 * y4 - x7 * y5,
        x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0 + x4 * y7 - x5 * y6 + x6 * y5 - x7 * y4,
        x0 * y4 - x1 * y5 - x2 * y6 - x3 * y7 + x4 * y0 + x5 * y1 + x6 * y2 + x7 * y3,
        x0 * y5 + x1 * y4 - x2 * y7 + x3 * y6 - x4 * y1 + x5 * y0 - x6 * y3 + x7 * y2,
        x0 * y6 + x1 * y7 + x2 * y4 - x3 * y5 - x4 * y2 + x5 * y3 + x6 * y0 - x7 * y1,
        x0 * y7 - x1 * y6 + x2 * y5 + x3 * y4 - x4 * y3 - x5 * y2 + x6 * y1 + x7 * y0,
    )


def _dot(x, y):
    return sum(map(mul, x, y))


class Octonion(_IntCoords):
    """An octonion with 8 exact rational coordinates over e0..e7."""

    __slots__ = ()
    SIZE = 8

    @classmethod
    def zero(cls) -> "Octonion":
        return cls((0,) * 8)

    @classmethod
    def basis(cls, i: int) -> "Octonion":
        if not 0 <= index(i) < 8:  # a float or Fraction index raises TypeError
            raise ValueError("basis index out of range")
        return cls._coprime([int(j == i) for j in range(8)], 1)

    def __add__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        d1, d2 = self.den, other.den
        return Octonion._reduced([a * d2 + b * d1 for a, b in zip(self.num, other.num)], d1 * d2)

    def __sub__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        d1, d2 = self.den, other.den
        return Octonion._reduced([a * d2 - b * d1 for a, b in zip(self.num, other.num)], d1 * d2)

    def __neg__(self):
        return Octonion._coprime([-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return Octonion._reduced(_product(self.num, other.num), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return Octonion._reduced([a * n for a in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def conj(self) -> "Octonion":
        """Conjugation: fixes the e0 coordinate, negates the rest."""
        return Octonion._coprime(_signs(_CONJ_SIGNS, self.num), self.den)


def inner(x: Octonion, y: Octonion) -> Fraction:
    """Standard inner product making e0..e7 orthonormal."""
    return Fraction(_dot(x.num, y.num), x.den * y.den)


def norm(x: Octonion) -> Fraction:
    return inner(x, x)


#: the diagonal signs of conj, gamma and gamma1 (and of their matrices)
_CONJ_SIGNS = (1, -1, -1, -1, -1, -1, -1, -1)
_GAMMA_SIGNS = (1, 1, 1, 1, -1, -1, -1, -1)
_GAMMA1_SIGNS = (1, -1, 1, -1, 1, -1, 1, -1)


def _signs(signs, x):
    return tuple(map(mul, signs, x))


def _diag_matrix(signs) -> Matrix:
    return Matrix(8, 8, [signs[i] if i == j else 0 for i in range(8) for j in range(8)])


def gamma(x: Octonion) -> Octonion:
    """The automorphism a + b*e4 -> a - b*e4 (negates coordinates 4..7)."""
    return Octonion._coprime(_signs(_GAMMA_SIGNS, x.num), x.den)


def gamma1(x: Octonion) -> Octonion:
    """The automorphism a + m -> conj(a) + conj(m) of the complex model.

    On real coordinates it fixes e0, e2, e4, e6 and negates e1, e3, e5, e7.
    """
    return Octonion._coprime(_signs(_GAMMA1_SIGNS, x.num), x.den)


def gamma_matrix() -> Matrix:
    return _diag_matrix(_GAMMA_SIGNS)


def gamma1_matrix() -> Matrix:
    return _diag_matrix(_GAMMA1_SIGNS)


def _build_table():
    units = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    tbl = [[[(k, v) for k, v in enumerate(_product(x, y)) if v] for y in units] for x in units]
    if any(len(nz) != 1 or abs(nz[0][1]) != 1 for row in tbl for nz in row):
        raise AssertionError("basis products must be signed basis elements")
    return tuple(tuple(nz[0] for nz in row) for row in tbl)  # (k, sign)


#: MULT_TABLE[i][j] = (k, sign) with e_i * e_j = sign * e_k
MULT_TABLE = _build_table()


def is_automorphism_matrix(m: Matrix) -> bool:
    """Exact check that an 8x8 rational matrix is an algebra automorphism:
    with m = N/den, (m e_i)(m e_j) = sign m e_k reads N_i N_j = sign den N_k."""
    if (m.rows, m.cols) != (8, 8):
        return False
    if rank(m) != 8:
        return False
    den, num = _cleared(m.entries)
    cols = [num[i::8] for i in range(8)]  # N e_i, column i
    for i in range(8):
        for j in range(8):
            k, sign = MULT_TABLE[i][j]
            if _product(cols[i], cols[j]) != tuple([sign * den * v for v in cols[k]]):
                return False
    return True


def _cmul(p, q):
    """Product of two complex numbers held as (re, im) int pairs."""
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _cconj(p):
    return (p[0], -p[1])


class ComplexModelElement(_IntCoords):
    """Element a + m of the complex model: a complex scalar a and a complex
    3-vector m over the complex line spanned by 1 and e1.

    The 8 coordinates are (re a, im a, re m1, im m1, re m2, im m2, re m3,
    im m3), stored like an Octonion's; the product runs on (re, im) pairs
    of the numerators.
    """

    __slots__ = ()
    SIZE = 8

    def __mul__(self, other):
        if not isinstance(other, ComplexModelElement):
            return NotImplemented
        x, y = self.num, other.num
        a, m = x[:2], (x[2:4], x[4:6], x[6:])
        b, n = y[:2], (y[2:4], y[4:6], y[6:])
        scalar = _cmul(a, b)
        for mi, ni in zip(m, n):
            scalar = _sub(scalar, _cmul(mi, _cconj(ni)))
        bbar = _cconj(b)
        vec = ()
        for mi, ni, ci in zip(m, n, _cross(m, n)):
            vec += tuple(p + q - r for p, q, r in zip(_cmul(a, ni), _cmul(bbar, mi), _cconj(ci)))
        return ComplexModelElement._reduced(scalar + vec, self.den * other.den)


def _cross(m, n):
    # Orientation calibrated against the doubling product (it is the
    # negative of the right-handed convention); with it, e2 * e4 = e6
    # comes out right in the vector part.
    return (
        _sub(_cmul(m[2], n[1]), _cmul(m[1], n[2])),
        _sub(_cmul(m[0], n[2]), _cmul(m[2], n[0])),
        _sub(_cmul(m[1], n[0]), _cmul(m[0], n[1])),
    )


def _flip_last(num):
    return num[:7] + (-num[7],)


def to_complex_model(x: Octonion) -> ComplexModelElement:
    """Identify x = a + m1*e2 + m2*e4 + m3*e6 with scalar a and vector m.

    The third slot carries e6, e7 with a conjugated sign (m3 = x6 - x7*i)
    because e1*e6 = -e7 in the doubling table: left multiplication by the
    complex unit must match the i*m3 action.  On the stored numerators
    this is a sign flip of the eighth one.
    """
    return ComplexModelElement._coprime(_flip_last(x.num), x.den)


def from_complex_model(u: ComplexModelElement) -> Octonion:
    return Octonion._coprime(_flip_last(u.num), u.den)
