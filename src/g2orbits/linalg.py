"""Exact linear algebra over the rationals.

Everything here is pure, exact and deterministic: no floating point, no
pivot heuristics.  This is the one module where rationals and integers
cross: :func:`_cleared` writes values as int numerators over their lcm
denominator, and every value a reduction returns is an int where it is
integral and a Fraction only where it is not.  The one elimination core
is fraction-free, on the cleared integer rows (same row space), and it
clears each distinct input row once and sweeps no repeat of a row up to a
scalar.  It always picks the first row (top-down) with a nonzero entry in
the current column, sweeping columns left to right, so equal inputs
produce bit-for-bit equal outputs.  Kernel bases are canonical (the unique
reduced echelon basis of the null space, leading entries 1) and read off
one elimination of the reversed columns; a dimension is a rank.
Matrix-vector products of int matrices stay int.
:class:`_IntCoords`, int numerators over one denominator, stores
octonions (both models) and Cartan triples; :class:`_Record` is the
package's one immutable record base.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter


# bound on a rational string's decimal exponent, checked before Fraction
# expands it (1e100000000 would be an exact integer of 10^8 digits)
MAX_EXPONENT = 100
_EXPONENT = re.compile(r"[eE]([+-]?\d[\d_]*)$")


def _exponent_out_of_bounds(text: str) -> bool:
    """Whether the stripped text ends in a decimal exponent (underscores
    allowed, as in Fraction) of magnitude over MAX_EXPONENT."""
    exp = _EXPONENT.search(text.strip())
    return bool(exp) and abs(int(exp.group(1).replace("_", ""))) > MAX_EXPONENT


def _frac(x) -> Fraction:
    """x as an exact Fraction.  Floats are rejected rather than expanded
    into their binary value, which is almost never the number meant, and so
    is a string whose decimal exponent is over MAX_EXPONENT."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; pass an int, a Fraction or a rational string")
    if isinstance(x, str) and _exponent_out_of_bounds(x):
        raise ValueError(f"{x[:24]!r} has a decimal exponent of magnitude over {MAX_EXPONENT}")
    return Fraction(x)


class Matrix:
    """Immutable dense matrix with exact rational entries (Fraction or
    int), stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_seq) -> "Matrix":
        rows_seq = [tuple(r) for r in rows_seq]
        m = len(rows_seq)
        n = len(rows_seq[0]) if m else 0
        flat = []
        for r in rows_seq:
            if len(r) != n:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(m, n, flat)

    def entry(self, i: int, j: int) -> int | Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def apply(self, vec) -> tuple:
        """Matrix-vector product M @ v."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        e = self.entries
        n = self.cols
        for i in range(self.rows):
            base = i * n
            acc = 0
            for j in range(n):
                m = e[base + j]
                if m:
                    acc += m * vec[j]
            out.append(acc)
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


class _IntCoords:
    """``SIZE`` exact rational coordinates, stored as int numerators
    ``num`` over one positive common denominator ``den``, in lowest terms
    (the gcd of ``den`` and all of ``num`` is 1), so equal values have
    equal fields and all arithmetic runs on Python ints.  ``coords``
    returns the coordinates as Fractions.  Each subclass sets ``SIZE``.
    """

    __slots__ = ("num", "den")
    SIZE: int

    def __init__(self, coords):
        coords = tuple(_frac(c) for c in coords)
        if len(coords) != self.SIZE:
            raise ValueError(f"{type(self).__name__} needs {self.SIZE} coordinates")
        # cleared from reduced Fractions, den and num are already coprime
        self.den, self.num = _cleared(coords)

    @classmethod
    def _reduced(cls, num, den: int):
        """num/den (den > 0) in lowest terms, num kept when the gcd is 1."""
        g = gcd(den, *num)
        return cls._coprime(num, den) if g == 1 else cls._coprime([v // g for v in num], den // g)

    @classmethod
    def _coprime(cls, num, den: int):
        """num/den (den > 0) for a num coprime with den: no gcd is taken."""
        x = object.__new__(cls)
        x.num, x.den = tuple(num), den
        return x

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(v, self.den) for v in self.num)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(str(c) for c in self.coords))


class _Record:
    """An immutable record of its class's ``__slots__``, every field given:
    equal only within its class, hashed and shown by field."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)  # a tuple: every record has 2+ fields

    def __init__(self, *args, **kwargs):
        values = dict(zip(self.__slots__, args), **kwargs)
        if len(args) > len(self.__slots__) or values.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return self._fields(self) == other._fields(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({pairs})"


# ---------------------------------------------------------------------------
# elimination core
# ---------------------------------------------------------------------------

def _cleared(values) -> tuple:
    """(scale, numerators): rational values (ints or Fractions) as int
    numerators over their least common denominator ``scale`` > 0."""
    try:
        scale = lcm(*{v.denominator for v in values})
    except AttributeError:
        list(map(_frac, values))  # a float raises _frac's TypeError
        raise
    if scale == 1:
        return 1, tuple([v.numerator for v in values])
    return scale, tuple([v.numerator * (scale // v.denominator) for v in values])


def _quotient(v: int, d: int) -> int | Fraction:
    """v / d (d != 0) as an int when d divides v, else as a Fraction."""
    q, r = divmod(v, d)
    return Fraction(v, d) if r else q


def _normalize_int_row(row) -> None:
    """Divide an integer row by the gcd of its entries, leading entry > 0."""
    g = lead = 0
    for v in row:
        if v:
            if lead == 0:
                lead = v
            g = gcd(g, v if v > 0 else -v)
            if g == 1:
                break
    if g == 0:
        return
    if lead < 0:
        g = -g
    if g != 1:
        for j, v in enumerate(row):
            if v:
                row[j] = v // g


def _rref_int(rows) -> tuple:
    """Fraction-free reduced elimination of integer rows, in place.

    Returns the pivot columns.  Pivot rule: first row at or below the
    current one with a nonzero entry, columns left to right.  Row updates
    are row*pivot - pivot_row*factor followed by a gcd reduction, so all
    intermediate values stay integers; the subtraction walks only the
    pivot row's nonzero columns, and a row is rescaled only by a pivot
    other than 1.  The caller turns the result into the rational RREF by
    dividing each row by its pivot.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for hit in range(r, nrows):
            if rows[hit][c]:
                break
        else:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        prow = rows[r]
        _normalize_int_row(prow)
        pv = prow[c]
        nonzero = None
        for row in rows:
            f = row[c]
            if f and row is not prow:
                nonzero = nonzero or [(j, v) for j, v in enumerate(prow) if v]
                if pv != 1:  # the whole row, left of c too (rows above the pivot can be nonzero there)
                    row[:] = [v * pv for v in row]
                for j, v in nonzero:
                    row[j] -= v * f
                _normalize_int_row(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(pivots)


def _rref_rows(rows) -> tuple:
    """The nonzero rows of the RREF of a list of rational rows, one per
    pivot column, with the pivot columns; each entry an int where
    integral, else a Fraction.  No zero rows are appended.

    Zero rows and rows that repeat an earlier row up to a scalar do not
    change the row space, and the RREF is unique, so only the distinct rows
    are eliminated: exact repeats (2 equals Fraction(2)) are dropped before
    clearing, then the gcd and sign normalisation of each integer row keys
    the repeats up to a scalar.
    """
    distinct = {}
    for raw in dict.fromkeys(map(tuple, rows)):
        row = list(_cleared(raw)[1])
        _normalize_int_row(row)
        if any(row):
            distinct.setdefault(tuple(row), row)
    work = list(distinct.values())
    pivots = _rref_int(work)
    return [[_quotient(v, row[c]) if v else 0 for v in row] for row, c in zip(work, pivots)], pivots


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def rank(m: Matrix) -> int:
    """Exact rank over the rationals."""
    _, pivots = _rref_rows([m.row(i) for i in range(m.rows)])
    return len(pivots)


def kernel_basis(m: Matrix) -> tuple:
    """Canonical basis of the right null space, from one elimination.

    The returned vectors are the reduced echelon basis of the null space;
    the leading entry of every vector is 1, every integral entry is an
    int, and repeated calls on equal inputs return identical output.

    The columns are eliminated reversed.  There the null vector of a free
    column has a 1 at it, 0 at the other free columns and all else at
    pivots left of it (a reduced row is zero before its pivot).  Read back
    in order, free columns ascending, that is an echelon basis with 1 at
    each lead and 0 above and below it: the unique reduced one.
    """
    n = m.cols
    red, pivots = _rref_rows([m.row(i)[::-1] for i in range(m.rows)])
    vecs = []
    for f in reversed(range(n)):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = 1
        for row, c in zip(red, pivots):
            if row[f]:
                v[c] = -row[f]
        vecs.append(tuple(v[::-1]))
    return tuple(vecs)
