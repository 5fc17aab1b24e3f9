"""The derivation algebra of the octonions.

A derivation is an 8x8 rational matrix D with D(xy) = (Dx)y + x(Dy).  The
space of all of them is the compact 14-dimensional simple Lie algebra of
type G2: the exact kernel of a 512x64 linear system, which the Z2^3 grading
of the table splits into eight 64x8 blocks, solved once per process.  On
top of the canonical basis the module provides the structure constants
and the one bracket of coordinates through them (behind adjoint matrices
and subalgebra fingerprints), the Killing Gram matrix, fixed-point
subalgebras of automorphisms, and a floating-point exponential linking
derivations to automorphisms.  Subalgebras are rows of 14 coordinates in
the canonical basis; 8x8 matrices appear only in building that basis and
where derivations meet octonions.  Only this module reads a pivot as the
flat index 8p + q of a matrix entry d[p][q].
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cayley import MULT_TABLE, Octonion, is_automorphism_matrix
from .errors import InternalInvariantError, NotBracketClosedError, NotInSpanError
from .linalg import Matrix, _frac, _Record, _rref_rows, kernel_basis, rank

G2_DIM = 14

#: degree of the Taylor series in exp_derivation_numeric
_EXP_DEGREE = 16
#: largest row-sum norm of t d in exp_derivation_numeric (the orthogonality
#: residual is 6.5e-11 at a norm of 7e5, 6.8e-10 at 7e6 and 7.1e-4 at 7e12)
_EXP_MAX_NORM = 2.0 ** 20


class Derivation:
    """A linear map on octonion coordinates obeying the product rule.

    The matrix acts on coordinate columns: (D x)_p = sum_q m[p][q] x_q.
    Instances are cheap wrappers; the Leibniz property is enforced where
    derivations are produced, as the kernel of :func:`leibniz_system`.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        if (matrix.rows, matrix.cols) != (8, 8):
            raise ValueError("a derivation is an 8x8 matrix")
        self.matrix = matrix

    @classmethod
    def from_flat(cls, vec) -> "Derivation":
        return cls(Matrix(8, 8, vec))

    def flat(self):
        return self.matrix.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self) -> str:
        return "Derivation(%r)" % (self.matrix,)


def leibniz_system() -> Matrix:
    """The 512x64 constraint system whose kernel is the derivation algebra,
    built anew on each call: check 1 is its one caller in the package.

    Unknowns are the matrix entries d[p][q] in row-major order (index
    8p + q).  Rows run over ordered basis pairs (i, j), eight coordinate
    equations per pair:

        D(e_i e_j)_k - ((D e_i) e_j)_k - (e_i (D e_j))_k = 0.

    The entries are plain ints in -2..2.
    """
    # e_p e_j = s e_k read backwards: left[j, k] = (p, s), right[i, k] = (q, s) for e_i e_q
    left = {(j, k): (p, s) for p, row in enumerate(MULT_TABLE) for j, (k, s) in enumerate(row)}
    right = {(i, k): (q, s) for i, row in enumerate(MULT_TABLE) for q, (k, s) in enumerate(row)}
    rows = []
    for i in range(8):
        for j in range(8):
            kp, sp = MULT_TABLE[i][j]
            for k in range(8):
                row = [0] * 64
                row[k * 8 + kp] += sp
                p, s = left[j, k]
                row[p * 8 + i] -= s
                q, s = right[i, k]
                row[q * 8 + j] -= s
                rows.append(row)
    return Matrix.from_rows(rows)


def _nonzeros(rows) -> tuple:
    """Each row as its (index, entry) pairs with a nonzero entry."""
    return tuple(tuple((idx, r) for idx, r in enumerate(row) if r) for row in rows)


def _combine(coeffs, rows, n) -> tuple:
    """The length-n vector sum_i coeffs[i] * rows[i], rows given by
    :func:`_nonzeros`."""
    out = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            for idx, r in row:
                out[idx] += c * r
    return tuple(out)


def _exact(values, n: int) -> tuple:
    """values as a tuple of n exact entries, ints kept as they are:
    ValueError for another length, _frac's TypeError for a float."""
    values = tuple(values)
    if len(values) != n:
        raise ValueError("coordinate length mismatch")
    return tuple([v if type(v) is int else _frac(v) for v in values])


def _read_off(vec, rows, pivots):
    """Coordinates of vec in reduced echelon rows (given by
    :func:`_nonzeros`), or None if vec is not in their span.

    The coordinates are read off at the pivot positions and then verified
    by exact reconstruction.
    """
    coeffs = tuple(vec[p] for p in pivots)
    return coeffs if _combine(coeffs, rows, len(vec)) == tuple(vec) else None


def _bracket_coordinates(x, y, c) -> tuple:
    """Coordinates of [x, y] from the nonzero coordinates of x and y (as
    given by :func:`_nonzeros`): the bilinear form sum_ij x_i y_j c[i][j]
    of the structure constants c."""
    out = [0] * len(c)
    for i, xi in x:
        ci = c[i]
        for j, yj in y:
            t = xi * yj
            for k, v in enumerate(ci[j]):
                if v:
                    out[k] += t * v
    return tuple(out)


class SubalgebraSummary(_Record):
    """Structural fingerprint of a bracket-closed set of derivations."""

    __slots__ = ("dim", "derived_dim", "center_dim", "is_abelian")


class G2AlgebraBasis:
    """Canonical ordered basis of the derivation algebra.

    ``basis[i]`` are the 14 kernel basis vectors of the Leibniz system
    reshaped to 8x8 matrices; ``structure_constants[i][j][k]`` gives
    [D_i, D_j] = sum_k c[i][j][k] D_k exactly.
    """

    __slots__ = ("basis", "structure_constants", "_pivots", "_rows")

    def __init__(self, basis, structure_constants, pivots):
        self.basis = tuple(basis)
        self.structure_constants = structure_constants
        self._pivots = tuple(pivots)
        self._rows = _nonzeros(d.flat() for d in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def degrees(self) -> tuple:
        """The Z2^3 degree p ^ q of each basis vector, whose pivot is 8p + q."""
        return tuple(p >> 3 ^ p & 7 for p in self._pivots)

    def coordinates(self, d: Derivation):
        """Exact coordinates of d in this basis; NotInSpanError otherwise."""
        coeffs = _read_off(_exact(d.flat(), 64), self._rows, self._pivots)
        if coeffs is None:
            raise NotInSpanError("derivation is not in the span of the basis")
        return coeffs

    def from_coordinates(self, coeffs) -> Derivation:
        return Derivation.from_flat(_combine(_exact(coeffs, self.dim), self._rows, 64))

    def ad(self, coeffs) -> Matrix:
        """Matrix of X -> [x, X] for the x with coordinates coeffs: column j
        is the coordinates of [x, D_j], by :func:`_bracket_coordinates`."""
        (x,) = _nonzeros([_exact(coeffs, self.dim)])
        c = self.structure_constants
        return Matrix.from_rows(zip(*[_bracket_coordinates(x, ((j, 1),), c) for j in range(self.dim)]))

    def killing_gram(self) -> Matrix:
        """Gram matrix of the Killing form on the basis (symmetric), from the
        nonzero constants: tr(ad D_i ad D_j) = sum_kl c[i][k][l] c[j][l][k]."""
        c = self.structure_constants
        nz = [[(k, l, v) for k, cik in enumerate(ci) for l, v in enumerate(cik) if v] for ci in c]
        return Matrix.from_rows([[sum(v * cj[l][k] for k, l, v in nzi) for cj in c] for nzi in nz])


@lru_cache(maxsize=1)
def derivation_basis() -> G2AlgebraBasis:
    """Canonical basis of the 14-dimensional derivation algebra, cached:
    the canonical kernel basis of :func:`leibniz_system`, one Z2^3 degree
    at a time (notes/decisions.md).  With the table graded, e_i e_j =
    s(i, j) e_{i^j}, a derivation of degree g maps e_q to v[p] e_p, p =
    q ^ g, and its 8 unknowns v solve a 64x8 block on their own; a bracket
    of degrees g and g' has degree g ^ g'.  Fails hard unless the table is
    graded and the kernel integral and 14-dimensional."""
    if any(k != i ^ j for i, row in enumerate(MULT_TABLE) for j, (k, _) in enumerate(row)):
        raise InternalInvariantError("the multiplication table is not Z2^3-graded")
    s = [[sign for _, sign in row] for row in MULT_TABLE]
    homogeneous = []  # (pivot, degree, v) per kernel vector of a block
    for g in range(8):
        eqs = []
        for i in range(8):
            for j in range(8):
                row = [0] * 8  # s(i, j) v[i^j^g] - s(i^g, j) v[i^g] - s(i, j^g) v[j^g]
                row[i ^ j ^ g] += s[i][j]
                row[i ^ g] -= s[i ^ g][j]
                row[j ^ g] -= s[i][j ^ g]
                eqs.append(row)
        for v in kernel_basis(Matrix.from_rows(eqs)):
            lead = next(p for p, x in enumerate(v) if x)
            homogeneous.append((8 * lead + (lead ^ g), g, v))
    homogeneous.sort()
    if len(homogeneous) != G2_DIM:
        raise InternalInvariantError(f"Leibniz kernel has dimension {len(homogeneous)}, expected {G2_DIM}")
    if any(type(x) is not int for _, _, v in homogeneous for x in v):
        raise InternalInvariantError("Leibniz kernel basis is not integral")
    basis = [Derivation.from_flat([v[f >> 3] if (f >> 3) ^ (f & 7) == g else 0 for f in range(64)])
             for _, g, v in homogeneous]

    of_degree = [[(k, pivot >> 3, v) for k, (pivot, g, v) in enumerate(homogeneous) if g == h] for h in range(8)]
    c = [[(0,) * G2_DIM] * G2_DIM for _ in range(G2_DIM)]
    for i, (_, gi, vi) in enumerate(homogeneous):
        for j, (_, gj, vj) in enumerate(homogeneous[i + 1 :], i + 1):
            # [D_i, D_j] e_q = (vi[p] vj[p^gi] - vj[p] vi[p^gj]) e_p, p = q^gi^gj
            w = [vi[p] * vj[p ^ gi] - vj[p] * vi[p ^ gj] for p in range(8)]
            cij, combo = [0] * G2_DIM, [0] * 8
            for k, lead, v in of_degree[gi ^ gj]:
                a = cij[k] = w[lead]  # v of D_k is 1 at its lead, 0 at the others'
                combo = [y + a * x for y, x in zip(combo, v)]
            if combo != w:
                raise InternalInvariantError("bracket left the derivation algebra")
            c[i][j], c[j][i] = tuple(cij), tuple([-x for x in cij])
    return G2AlgebraBasis(basis, tuple(map(tuple, c)), [pivot for pivot, _, _ in homogeneous])


def adjoint_matrix(d: Derivation, b: G2AlgebraBasis) -> Matrix:
    """Matrix of X -> [d, X] in the basis b, for a d in its span (checked
    exactly): :meth:`G2AlgebraBasis.ad` of the coordinates of d."""
    return b.ad(b.coordinates(d))


def _kernel_of_images(images):
    """Canonical kernel basis of the coefficients c with sum_i c_i images[i] = 0,
    given one image vector per basis element."""
    rows = len(images[0])
    return kernel_basis(Matrix(rows, len(images), [v[r] for r in range(rows) for v in images]))


def fixed_subalgebra(sigma: Matrix, b: G2AlgebraBasis):
    """Canonical basis, as 14-coordinate rows in b, of the derivations
    commuting with an automorphism.

    sigma must be an exact algebra automorphism given as an 8x8 rational
    matrix; the fixed-point condition sigma D sigma^-1 = D is solved as
    sigma D - D sigma = 0 inside the span of b.  The commutator of each
    basis element is formed from its nonzero entries alone.
    """
    if not is_automorphism_matrix(sigma):
        raise ValueError("sigma is not an exact algebra automorphism")
    s = sigma.entries
    images = []
    for row in b._rows:
        img = [0] * 64
        for idx, v in row:
            r, q = divmod(idx, 8)
            for p in range(8):
                img[8 * p + q] += s[8 * p + r] * v  # (sigma D)[p][q]
                img[8 * r + p] -= v * s[8 * q + p]  # (D sigma)[r][p]
        images.append(img)
    return _kernel_of_images(images)


def stabilizer_subalgebra(x: Octonion, b: G2AlgebraBasis):
    """Canonical basis, as 14-coordinate rows in b, of the derivations
    annihilating a fixed octonion.

    For x = e1 this is the 8-dimensional subalgebra of derivations
    commuting with the complex structure (left multiplication by e1), the
    infinitesimal stabilizer of a point on the 6-sphere of imaginary
    units.
    """
    return _kernel_of_images([d.matrix.apply(x.num) for d in b.basis])  # x.den times each d(x): the same kernel


def subalgebra_structure(rows, b: G2AlgebraBasis) -> SubalgebraSummary:
    """Fingerprint {dim, derived_dim, center_dim, is_abelian} of the span
    of rows, each the 14 coordinates in b of a derivation (as centralizer,
    fixed_subalgebra and stabilizer_subalgebra return them).

    The span is reduced to rows r_1..r_d, and the d^2 brackets [r_i, r_j]
    are formed once by :func:`_bracket_coordinates`, with no 8x8 matrix.
    Raises ValueError for a row of another length and NotBracketClosedError
    if some bracket leaves the span.
    """
    if any(len(r) != b.dim for r in rows):
        raise ValueError(f"subalgebra rows need {b.dim} coordinates")
    red, pivots = _rref_rows(rows)
    dim = len(pivots)
    rows = _nonzeros(red)
    c = b.structure_constants
    brackets = [_bracket_coordinates(x, y, c) for x in rows for y in rows]  # [r_i, r_j] at dim * i + j
    if any(_read_off(br, rows, pivots) is None for br in brackets):
        raise NotBracketClosedError("bracket of subalgebra elements leaves the span")
    # the brackets span the derived algebra; the center, the x = sum c_i r_i
    # with [x, r_j] = 0 for all j, has dim minus the rank of the r_i's images
    derived_dim = rank(Matrix.from_rows(brackets))
    images = [[v for br in brackets[i * dim : (i + 1) * dim] for v in br] for i in range(dim)]
    center_dim = dim - rank(Matrix.from_rows(images))
    return SubalgebraSummary(dim, derived_dim, center_dim, derived_dim == 0)


def _matmul(a, b):
    """Product of two 7x7 float matrices given by rows, as a list of row
    lists, each entry its 7 products added left to right as Python 3.11's
    float sum does.  The order is kept on purpose: 3.12's sum compensates,
    and this fold does not."""
    cols = tuple(zip(*b))
    return [[r1 * c1 + r2 * c2 + r3 * c3 + r4 * c4 + r5 * c5 + r6 * c6 + r7 * c7
             for c1, c2, c3, c4, c5, c6, c7 in cols]
            for r1, r2, r3, r4, r5, r6, r7 in a]


def exp_derivation_numeric(d: Derivation, t: float):
    """Floating-point exp(t d) by scaling and squaring, in plain floats.

    Returns the 8x8 result as a tuple of 8 row tuples of floats, with e0
    fixed: the work runs on the 7x7 block of rows and columns 1..7, and a d
    with a nonzero entry in row or column 0 raises ValueError.  The block t d
    is halved until its row-sum norm is at most 1/2, the Taylor series of
    degree 16 runs by Horner's rule on p by columns, and the result is
    squared back; every entry equals (==) the 8x8 computation's, whose extra
    terms are signed zeros at the head of each fold (notes/decisions.md).
    It is approximately orthogonal and approximately an algebra
    automorphism, losing accuracy as |t| times the norm of d grows.  A
    non-finite t or one too large for a float, a t d of norm over 2**20
    (_EXP_MAX_NORM), or a non-finite result raises ValueError.
    """
    e = d.matrix.entries
    if any(e[:8]) or any(e[::8]):
        raise ValueError("d has a nonzero entry in row or column 0, so it is not a derivation")
    try:
        t = float(t)
    except OverflowError:  # an int or a Fraction beyond the float range
        t = math.inf
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    a = [[float(x) * t for x in e[8 * i + 1 : 8 * i + 8]] for i in range(1, 8)]
    nrm = max(sum(abs(v) for v in row) for row in a)
    if not nrm <= _EXP_MAX_NORM:  # also when nrm is not a finite float
        raise ValueError(f"t d is too large for floats at t = {t}")
    squarings = 0
    while nrm > 0.5:
        nrm /= 2.0
        squarings += 1
    m = [[math.ldexp(v, -squarings) for v in row] for row in a]  # v / 2^squarings, with no overflow
    p = eye = tuple(tuple(float(i == j) for j in range(7)) for i in range(7))  # p by columns
    for k in range(_EXP_DEGREE, 0, -1):
        p = [[ei + (r1 * c1 + r2 * c2 + r3 * c3 + r4 * c4 + r5 * c5 + r6 * c6 + r7 * c7) / k
              for ei, (r1, r2, r3, r4, r5, r6, r7) in zip(erow, m)]
             for erow, (c1, c2, c3, c4, c5, c6, c7) in zip(eye, p)]
    p = tuple(zip(*p))
    for _ in range(squarings):
        p = _matmul(p, p)
    if not all(math.isfinite(v) for row in p for v in row):
        raise ValueError(f"exp(t d) overflows at t = {t}")
    return ((1.0,) + (0.0,) * 7,) + tuple((0.0, *row) for row in p)
