"""Exact matrix helpers that the tests need and the package does not.

The identity, row lists, transpose, trace, zero test, scalar multiples,
sums, differences and products of a ``linalg.Matrix``; the reduced row echelon form and one solution of a
linear system read off linalg's one elimination core, ``_rref_rows``; a
Bareiss determinant, the form check 9 took its 14 leading minors with
before one Bareiss pass replaced them; and sympy's exact ``Matrix`` as an
independent reference.
"""

from fractions import Fraction

from g2orbits.linalg import Matrix, _cleared, _rref_rows


def identity(n: int) -> Matrix:
    return Matrix(n, n, [int(i == j) for i in range(n) for j in range(n)])


def row_lists(m: Matrix) -> list:
    return [list(m.row(i)) for i in range(m.rows)]


def transpose(m: Matrix) -> Matrix:
    return Matrix.from_rows(zip(*row_lists(m)))


def trace(m: Matrix) -> int | Fraction:
    assert m.rows == m.cols, "trace of non-square matrix"
    return sum(m.entry(i, i) for i in range(m.rows))


def is_zero(m: Matrix) -> bool:
    return not any(m.entries)


def scaled(m: Matrix, c) -> Matrix:
    """c m, entry by entry."""
    return Matrix(m.rows, m.cols, [c * v for v in m.entries])


def difference(a: Matrix, b: Matrix) -> Matrix:
    """a - b, entry by entry."""
    assert (a.rows, a.cols) == (b.rows, b.cols), "shape mismatch"
    return Matrix(a.rows, a.cols, [x - y for x, y in zip(a.entries, b.entries)])


def matrix_sum(a: Matrix, b: Matrix) -> Matrix:
    """a + b, entry by entry."""
    assert (a.rows, a.cols) == (b.rows, b.cols), "shape mismatch"
    return Matrix(a.rows, a.cols, [x + y for x, y in zip(a.entries, b.entries)])


def product(a: Matrix, b: Matrix) -> Matrix:
    """The matrix product a b, summing only products of nonzero entries,
    so an entry with none stays the int 0."""
    assert a.cols == b.rows, "inner dimension mismatch"
    out = [[0] * b.cols for _ in range(a.rows)]
    for i, row in enumerate(out):
        for k, x in enumerate(a.row(i)):
            if x:
                for j, y in enumerate(b.row(k)):
                    if y:
                        row[j] += x * y
    return Matrix.from_rows(out)


def rref(m: Matrix) -> tuple:
    """Reduced row echelon form (ints where integral, zero rows last, as
    many rows as m) and pivot columns, from one elimination."""
    rows, pivots = _rref_rows(row_lists(m))
    flat = [v for r in rows for v in r] + [0] * ((m.rows - len(rows)) * m.cols)
    return Matrix(m.rows, m.cols, flat), pivots


def solve(m: Matrix, b) -> tuple | None:
    """One exact solution of M x = b, or None if the system is inconsistent:
    the particular solution with every free variable zero, read off one
    elimination of the augmented rows; its integral entries are ints."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    red, pivots = _rref_rows([row + [rhs] for row, rhs in zip(row_lists(m), b)])
    n = m.cols
    if n in pivots:
        return None
    x = [0] * n
    for row, c in zip(red, pivots):
        x[c] = row[n]
    return tuple(x)


def det(m: Matrix) -> int | Fraction:
    """Exact determinant by Bareiss's fraction-free elimination (1968).

    The matrix is first scaled to integers by the lcm D of its
    denominators.  Each step a[i][j] <- (a[i][j] a[k][k] - a[i][k] a[k][j])
    / p divides exactly by the previous pivot p, so every value stays an
    integer and the last pivot is det(D m) up to the sign of the row swaps;
    with no swaps the k-th pivot is the k-th leading principal minor.
    Returns an int, or a Fraction when D > 1.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    den, ints = _cleared(m.entries)
    rows = [list(ints[i * n : (i + 1) * n]) for i in range(n)]
    sign = prev = 1
    for c in range(n):
        hit = next((i for i in range(c, n) if rows[i][c]), -1)
        if hit < 0:
            return 0
        if hit != c:
            rows[c], rows[hit] = rows[hit], rows[c]
            sign = -sign
        prow = rows[c]
        pv = prow[c]
        for i in range(c + 1, n):
            row = rows[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * pv - f * prow[j]) // prev
        prev = pv
    return Fraction(sign * prev, den ** n) if den != 1 else sign * prev


def to_sympy(m: Matrix):
    """m as a sympy Matrix of exact Rationals."""
    import sympy

    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(v.numerator, v.denominator) for v in m.entries])


def from_sympy(x) -> int | Fraction:
    """A sympy Rational as an int where integral, else as a Fraction."""
    p, q = int(x.p), int(x.q)
    return p if q == 1 else Fraction(p, q)


def sympy_solve(m: Matrix, b) -> tuple:
    """The solution of the nonsingular system M x = b, by sympy."""
    import sympy

    rhs = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in b])
    return tuple(from_sympy(v) for v in to_sympy(m).LUsolve(rhs))
