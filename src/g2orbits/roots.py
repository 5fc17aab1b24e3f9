"""A fixed Cartan subalgebra of the derivation algebra and its root system.

The Cartan subalgebra is the rank-2 space of derivations that act on the
complex-model vector part as i*diag(t1, t2, t3) with t1+t2+t3 = 0 (and kill
the scalar part), the degree-1 part of the Z2^3 grading of the basis.
Only its generators H1, H2 are built as 8x8 matrices, each read off the
derivation basis once, and only their adjoints are kept; every other
Cartan element enters as ad(tau) = t1 ad(H1) - t3 ad(H2) in the 14
coordinates.  Each root pair acts on a real plane of the algebra, on which
ad(H)^2 = -alpha(H)^2.  ad(H) swaps each even degree g with g^1 through
2x2 maps, so for a generic H* the roots are read off the exact 2x2
kernels of ad(H*)^2 + v^2 on degree g: no complex scalars, no floats.
Squared root lengths are measured in the positive-definite form -B (B is
the Killing form, negative definite here), so "short" is the minimum.
Each root carries its coroot 2H/B(H, H), H its Killing dual, from the
same 2x2 solve as its length, and the Weyl reflection in it is the int
formula s(tau) = tau - alpha(tau) coroot.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .derivations import G2_DIM, Derivation, derivation_basis
from .errors import InternalInvariantError, NotInSpanError, SumNonzeroError
from .linalg import Matrix, _frac, _IntCoords, _quotient, _Record, kernel_basis, rank

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


def cartan_element(tau) -> Derivation:
    """The derivation realizing a traceless triple (block rotation rates,
    ints where integral, so an integer tau gives an int matrix)."""
    tau = _coerce_cartan(tau)
    return Derivation(_rotation_matrix([_quotient(v, tau.den) for v in tau.num]))


@lru_cache(maxsize=1)
def _cartan_ad() -> tuple:
    """ad(H1) and ad(H2) as int matrices, for the Cartan generators H1
    (tau=(1,-1,0)) and H2 (tau=(0,1,-1)), each read off derivation_basis()
    once.  The read-off is the check that each lies in its span, which is
    exactly the kernel of the Leibniz system."""
    b = derivation_basis()
    try:
        return tuple(b.ad(b.coordinates(Derivation(_rotation_matrix(t)))) for t in (TAU_H1, TAU_H2))
    except NotInSpanError:
        raise InternalInvariantError(
            "Cartan generator fails the Leibniz check; "
            "sign conventions are out of sync with the product table"
        ) from None


def cartan_adjoint(tau) -> Matrix:
    """The exact matrix of ad(cartan_element(tau)) in derivation_basis().

    tau = t1 H1 - t3 H2, so the matrix is t1 ad(H1) - t3 ad(H2), formed on
    tau's int numerators and divided by its den only where that is not 1:
    an int wherever it is integral.
    """
    tau = _coerce_cartan(tau)
    n1, _, n3 = tau.num
    ad1, ad2 = _cartan_ad()
    entries = [n1 * x - n3 * y for x, y in zip(ad1.entries, ad2.entries)]
    if tau.den != 1:
        entries = [_quotient(v, tau.den) for v in entries]
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
def root_system():
    """All 12 roots with exact Killing lengths and coroots, sorted by
    coefficients, computed once.  The Cartan is the degree-1 part of the
    Z2^3 grading, so ad(H1), ad(H2) and ad(H*) (H* generic) must map each
    degree g to g^1: every other entry is 0.  For an even degree g, A is
    ad(H*) from g to g^1 and B from g^1 back, both 2x2, so ad(H*)^2 on g
    is BA, with eigenvalues -p^2, -q^2 (p, q the values on H* of the two
    roots whose planes meet g), and the kernel of BA + v^2 is a line of the
    root plane of value v.  One 2x2 Killing solve per root, by Cramer's
    rule on the Gram matrix tr(ad H_i ad H_j) of (H1, H2), gives its dual
    H, hence both its length -B(H, H) and its coroot 2H/B(H, H)."""
    degrees = derivation_basis().degrees
    ads = (*_cartan_ad(), cartan_adjoint(TAU_GENERIC))  # ad(H1), ad(H2), ad(H*)
    nonzero = [[(divmod(i, G2_DIM), x) for i, x in enumerate(m.entries) if x] for m in ads]
    if any(degrees[k] != degrees[j] ^ 1 for entries in nonzero for (k, j), _ in entries):
        raise InternalInvariantError("ad(H) does not leave a graded block invariant")
    star = ads[2]

    zero_dim = G2_DIM - rank(star)
    if zero_dim != 2:
        raise InternalInvariantError(f"generic Cartan element has centralizer dimension {zero_dim}, expected 2")

    raw = []
    for g in range(2, 8, 2):
        even, odd = ([i for i, d in enumerate(degrees) if d == h] for h in (g, g ^ 1))
        a1, a2, a = ([[m.entry(k, j) for j in even] for k in odd] for m in ads)  # degree g to g^1
        b = [[star.entry(k, j) for j in odd] for k in even]  # degree g^1 to g
        s00, s01, s10, s11 = (b[i][0] * a[0][j] + b[i][1] * a[1][j] for i in (0, 1) for j in (0, 1))
        total = -(s00 + s11)  # p^2 + q^2
        gap = isqrt(max(total * total - 4 * (s00 * s11 - s01 * s10), 0))  # |p^2 - q^2|
        # a v that is no root value has no kernel: the fill check fails
        for v in {isqrt(max(x, 0)) for x in ((total + gap) // 2, (total - gap) // 2)}:
            for w0, w1 in kernel_basis(Matrix(2, 2, (s00 + v * v, s01, s10, s11 + v * v))):
                # the root values r_i, ad(H_i) w = (r_i / v) u for u = ad(H*) w, on every coordinate
                u, *images = ([x * w0 + y * w1 for x, y in m] for m in (a, a1, a2))
                k = next(i for i, x in enumerate(u) if x)
                values = []
                for image in images:
                    if image[0] * u[1] != image[1] * u[0]:
                        raise InternalInvariantError("root plane vector is not a joint eigenvector")
                    r, rest = divmod(image[k] * v, u[k])
                    if rest:
                        raise InternalInvariantError(f"root value {Fraction(image[k] * v, u[k])} is not an integer")
                    values.append(r)
                r1, r2 = values
                raw += [(canonical_root_coeffs((s * r1, 0, -s * r2)), s * r1, s * r2) for s in (1, -1)]

    if len(raw) + zero_dim != G2_DIM:
        raise InternalInvariantError(f"root spaces ({len(raw)}) plus Cartan ({zero_dim}) do not fill the algebra")

    # tr(XY) = sum over the nonzero X[k][l] of X[k][l] Y[l][k]
    (g11, g12), (g21, g22) = [[sum(x * y.entry(l, k) for (k, l), x in xs) for y in ads[:2]] for xs in nonzero[:2]]
    d = g11 * g22 - g12 * g21
    if not d:
        raise InternalInvariantError("Killing Gram matrix is singular")
    found = {}  # coeffs -> (-B(H, H), 2H/B(H, H)) for the Killing dual H = x1 H1 + x2 H2
    for coeffs, r1, r2 in raw:
        x1, x2 = _quotient(g22 * r1 - g12 * r2, d), _quotient(g11 * r2 - g21 * r1, d)
        sq = -(r1 * x1 + r2 * x2)
        found[coeffs] = sq, CartanElement([Fraction(-2, sq) * (x1 * a + x2 * b) for a, b in zip(TAU_H1, TAU_H2)])

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


@lru_cache(maxsize=1)
def vanishing_sets() -> dict:
    """Every vanishing set, as {vanishing_mask: an integer CartanElement on
    which exactly those roots vanish}, read off the root lines.

    The root with coefficients a vanishes on the line through
    (a3 - a2, a1 - a3, a2 - a1).  The 12 roots must lie 2 to a line on 6
    distinct lines, which meet only at 0, so the roots vanishing on a tau
    are none, one line's pair or all 12: 1 + 6 + 1 = 8 sets, represented
    by TAU_GENERIC, each line's direction and 0 (notes/decisions.md).
    """
    lines = {}  # primitive direction up to sign -> [its roots' mask, the first root's direction]
    for i, r in enumerate(root_system()):
        a1, a2, a3 = r.coeffs
        d = (a3 - a2, a1 - a3, a2 - a1)  # nonzero: a root is no multiple of (1, 1, 1)
        g = gcd(*d)
        d = tuple(x // g for x in d)
        lines.setdefault(max(d, tuple(-x for x in d)), [0, d])[0] |= 1 << i
    if len(lines) != 6 or any(mask.bit_count() != 2 for mask, _ in lines.values()):
        raise InternalInvariantError(f"the roots lie on {len(lines)} lines, not 2 to a line on 6")
    reps = {0: TAU_GENERIC, **dict(lines.values()), (1 << len(root_system())) - 1: (0, 0, 0)}
    sets = {mask: CartanElement(tau) for mask, tau in reps.items()}
    wrong = [tau.num for mask, tau in sets.items() if vanishing_mask(*tau.num) != mask]
    if wrong:
        raise InternalInvariantError(f"representatives {wrong} do not have their set's vanishing roots")
    return sets


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
