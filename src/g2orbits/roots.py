"""A fixed Cartan subalgebra of the derivation algebra and its root system.

The Cartan subalgebra is the rank-2 space of derivations that act on the
complex-model vector part as i*diag(t1, t2, t3) with t1+t2+t3 = 0 (and kill
the scalar part).  Only its generators H1, H2 are built as 8x8 matrices,
each read off the derivation basis once; every other Cartan element enters
as ad(tau) = t1 ad(H1) - t3 ad(H2) in the 14 coordinates.  Each root pair
acts on a real plane of the algebra, on which ad(H)^2 = -alpha(H)^2; the
roots are read off exact 2x2 kernels of ad(H*)^2 + v^2 on the Z2^3-graded
blocks, for a generic H*: no complex scalars, no floats.
Squared root lengths are measured in the positive-definite form -B (B is
the Killing form, negative definite here), so "short" is the minimum.
Each root carries its coroot 2H/B(H, H), H its Killing dual, from the
same 2x2 solve as its length, and the Weyl reflection in it is the int
formula s(tau) = tau - alpha(tau) coroot.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .derivations import G2_DIM, Derivation, derivation_basis
from .errors import InternalInvariantError, NotInSpanError, SumNonzeroError
from .linalg import Matrix, _frac, _IntCoords, _quotient, _Record, det, kernel_basis, rank, solve

#: tau coordinates of the two Cartan generators
TAU_H1 = (1, -1, 0)
TAU_H2 = (0, 1, -1)

#: designated generic element: all 12 root values are distinct there
TAU_GENERIC = (1, -4, 3)


class CartanElement(_IntCoords):
    """A traceless rational triple (t1, t2, t3), t1+t2+t3 = 0, stored like an
    Octonion (``num`` over ``den``); ``tau`` is the triple as Fractions."""

    __slots__ = ()
    SIZE = 3

    def __init__(self, tau):
        super().__init__(tau)
        self._traceless()

    def _traceless(self) -> "CartanElement":
        """self, or SumNonzeroError when the components do not sum to zero."""
        if sum(self.num):
            raise SumNonzeroError(f"components must sum to zero, got {self.tau}")
        return self

    tau = _IntCoords.coords

    @classmethod
    def of(cls, t1, t2, t3) -> "CartanElement":
        return cls((t1, t2, t3))

    def scaled(self, c) -> "CartanElement":
        c = _frac(c)
        return CartanElement._reduced([c.numerator * v for v in self.num], c.denominator * self.den)


def _coerce_cartan(tau) -> CartanElement:
    return tau if isinstance(tau, CartanElement) else CartanElement(tau)


def _rotation_matrix(tau) -> Matrix:
    """8x8 matrix of the action a -> 0, m -> i*diag(t1,t2,t3)*m.

    The three complex coordinate planes are (e2,e3), (e4,e5), (e6,e7); the
    third plane carries the conjugated identification (m3 = x6 - x7*i), so
    its rotation block has the opposite sign.
    """
    t1, t2, t3 = tau
    rows = [[0] * 8 for _ in range(8)]
    rows[2][3] = -t1
    rows[3][2] = t1
    rows[4][5] = -t2
    rows[5][4] = t2
    rows[6][7] = t3
    rows[7][6] = -t3
    return Matrix.from_rows(rows)


@lru_cache(maxsize=1)
def cartan_basis():
    """The two commuting Cartan generators H1 (tau=(1,-1,0)) and H2
    (tau=(0,1,-1)) as verified derivations: each must lie in the span of
    derivation_basis(), which is exactly the kernel of the Leibniz system."""
    h1 = Derivation(_rotation_matrix(TAU_H1))
    h2 = Derivation(_rotation_matrix(TAU_H2))
    b = derivation_basis()
    for h in (h1, h2):
        try:
            b.coordinates(h)
        except NotInSpanError:
            raise InternalInvariantError(
                "Cartan generator fails the Leibniz check; "
                "sign conventions are out of sync with the product table"
            ) from None
    return h1, h2


def cartan_element(tau) -> Derivation:
    """The derivation realizing a traceless triple (block rotation rates,
    ints where integral, so an integer tau gives an int matrix)."""
    tau = _coerce_cartan(tau)
    return Derivation(_rotation_matrix([_quotient(v, tau.den) for v in tau.num]))


@lru_cache(maxsize=1)
def _cartan_ad() -> tuple:
    """ad(H1) and ad(H2) as int matrices, read off derivation_basis() once."""
    b = derivation_basis()
    return tuple(b.ad(b.coordinates(h)) for h in cartan_basis())


def cartan_adjoint(tau) -> Matrix:
    """The exact matrix of ad(cartan_element(tau)) in derivation_basis().

    tau = t1 H1 - t3 H2, so the matrix is t1 ad(H1) - t3 ad(H2), formed on
    tau's int numerators over its den: an int wherever it is integral.
    """
    tau = _coerce_cartan(tau)
    n1, _, n3 = tau.num
    ad1, ad2 = _cartan_ad()
    entries = [_quotient(n1 * x - n3 * y, tau.den) for x, y in zip(ad1.entries, ad2.entries)]
    return Matrix(ad1.rows, ad1.cols, entries)


class Root(_Record):
    """A root of the Cartan action: the functional sum_i a_i t_i on the
    traceless plane, with canonical integer coefficients (minimum entry 0),
    its squared length under -B, its length_class, "short" or "long", and
    its coroot, the CartanElement 2H/B(H, H) on which it takes the value 2
    (H its Killing dual)."""

    __slots__ = ("coeffs", "killing_sq_length", "length_class", "coroot")

    def value(self, tau):
        """sum_i a_i t_i; on a CartanElement an int dot product over its den."""
        if isinstance(tau, CartanElement):
            return _quotient(self.value(tau.num), tau.den)
        return self.coeffs[0] * tau[0] + self.coeffs[1] * tau[1] + self.coeffs[2] * tau[2]


def canonical_root_coeffs(a) -> tuple:
    """Reduce (a1,a2,a3) modulo (1,1,1): subtract the minimum entry.

    The result has minimum 0, so its first nonzero entry is positive.
    Raises ValueError unless every entry differs from the minimum by an
    integer.
    """
    m = min(a)
    diffs = [x - m for x in a]
    if any(d != int(d) for d in diffs):
        raise ValueError(f"{tuple(a)} has no integer coefficients modulo (1,1,1)")
    return tuple(int(d) for d in diffs)


@lru_cache(maxsize=1)
def _cartan_gram() -> Matrix:
    """2x2 Killing Gram matrix of (H1, H2): tr(ad H_i ad H_j)."""
    ads = _cartan_ad()
    return Matrix.from_rows([[(x * y).trace() for y in ads] for x in ads])


def _root_value(ad: Matrix, w, u, v: int) -> int:
    """The integer r with ad w = (r/v) u, where u = ad(H*) w and w lies on
    the root plane where ad(H*)^2 = -v^2; checked on every coordinate."""
    adw = ad.apply(w)
    k = next(i for i, x in enumerate(u) if x)
    if any(x * u[k] != adw[k] * y for x, y in zip(adw, u)):
        raise InternalInvariantError("root plane vector is not a joint eigenvector")
    r, rest = divmod(adw[k] * v, u[k])
    if rest:
        raise InternalInvariantError(f"root value {Fraction(adw[k] * v, u[k])} is not an integer")
    return r


def _restricted(m: Matrix, idx) -> Matrix:
    """m on the coordinates idx, whose span it must map into itself."""
    if any(m.entry(k, j) for j in idx for k in range(m.rows) if k not in idx):
        raise InternalInvariantError("ad(H) does not leave a graded block invariant")
    return Matrix(len(idx), len(idx), [m.entry(k, j) for k in idx for j in idx])


@lru_cache(maxsize=1)
def root_system():
    """All 12 roots with exact Killing lengths and coroots, sorted by
    coefficients, computed once.  The Cartan is the degree-1 part of the
    Z2^3 grading, so ad(H1) and ad(H2) must keep the blocks of degrees 2+3,
    4+5 and 6+7, two root planes each.  On a block's even degree ad(H*)^2
    is 2x2 with eigenvalues -a^2, -b^2 (a, b root values on H*), and the
    kernel of ad(H*)^2 + v^2 there is a line of the root plane of value v.
    One 2x2 Killing solve per root gives its dual H, hence both its length
    -B(H, H) and its coroot 2H/B(H, H)."""
    degrees = derivation_basis().degrees  # even degrees first in each block
    blocks = [sorted((i for i, g in enumerate(degrees) if g >> 1 == h), key=degrees.__getitem__) for h in range(4)]
    parts = [[_restricted(m, idx) for m in (*_cartan_ad(), cartan_adjoint(TAU_GENERIC))] for idx in blocks]

    zero_dim = G2_DIM - sum(rank(star) for _, _, star in parts)
    if zero_dim != 2:
        raise InternalInvariantError(f"generic Cartan element has centralizer dimension {zero_dim}, expected 2")

    raw = []
    for a1, a2, star in parts[1:]:
        square = _restricted(star * star, (0, 1))
        total = -square.trace()  # a^2 + b^2
        gap = isqrt(max(total * total - 4 * det(square), 0))  # |a^2 - b^2|
        # a v that is no root value has no kernel: the fill check fails
        for v in {isqrt(max(x, 0)) for x in ((total + gap) // 2, (total - gap) // 2)}:
            for line in kernel_basis(square + Matrix.identity(2) * (v * v)):
                w = (*line, 0, 0)
                u = star.apply(w)
                r1, r2 = (_root_value(m, w, u, v) for m in (a1, a2))
                raw += [(canonical_root_coeffs((s * r1, 0, -s * r2)), s * r1, s * r2) for s in (1, -1)]

    if len(raw) + zero_dim != G2_DIM:
        raise InternalInvariantError(f"root spaces ({len(raw)}) plus Cartan ({zero_dim}) do not fill the algebra")

    gram = _cartan_gram()
    found = {}  # coeffs -> (-B(H, H), 2H/B(H, H)) for the Killing dual H = x1 H1 + x2 H2
    for coeffs, r1, r2 in raw:
        x = solve(gram, (r1, r2))
        if x is None:
            raise InternalInvariantError("Killing Gram matrix is singular")
        sq = -(r1 * x[0] + r2 * x[1])
        found[coeffs] = sq, CartanElement([Fraction(-2, sq) * (x[0] * a + x[1] * b) for a, b in zip(TAU_H1, TAU_H2)])

    min_len = min(sq for sq, _ in found.values())
    roots = tuple(Root(c, sq, "short" if sq == min_len else "long", co) for c, (sq, co) in sorted(found.items()))
    if len(roots) != 12:
        raise InternalInvariantError(f"expected 12 distinct roots, got {len(roots)}")
    return roots


@lru_cache(maxsize=1)
def _integer_roots():
    """(a1, a2, a3, 1 << i) for the i-th root, read once from root_system()."""
    return tuple((*r.coeffs, 1 << i) for i, r in enumerate(root_system()))


def vanishing_mask(t1: int, t2: int, t3: int) -> int:
    """The roots vanishing on the integer triple (t1, t2, t3) as a bit mask,
    bit i for the i-th root of root_system(): int dot products with each
    root's coefficients.  The mask is the memo key of orbit types."""
    return sum([bit for a, b, c, bit in _integer_roots() if a * t1 + b * t2 + c * t3 == 0])


def roots_in(mask: int) -> tuple:
    """The roots of root_system() whose bits are set in mask, in order."""
    return tuple([r for i, r in enumerate(root_system()) if mask >> i & 1])


def vanishing_roots(tau):
    """The roots of root_system() vanishing on tau (always an even count).

    They are read off tau's stored int numerators: its denominator is
    positive, and a root vanishes on tau exactly when it vanishes on any
    positive multiple of it.
    """
    return roots_in(vanishing_mask(*_coerce_cartan(tau).num))


def weyl_reflect(root: Root, tau) -> CartanElement:
    """Reflection of tau in the hyperplane where the root vanishes:
    s(tau) = tau - root(tau) root.coroot, formed on the int numerators of
    tau and the coroot, with the root value an int dot product."""
    tau = _coerce_cartan(tau)
    c = root.coroot
    v = root.value(tau.num)
    image = [ti * c.den - v * ci for ti, ci in zip(tau.num, c.num)]
    return CartanElement._reduced(image, tau.den * c.den)._traceless()
