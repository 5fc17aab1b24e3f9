import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2orbits import checks, linalg
from g2orbits.cayley import Octonion, gamma_matrix
from g2orbits.derivations import derivation_basis, fixed_subalgebra, leibniz_system, stabilizer_subalgebra
from g2orbits.linalg import Matrix, _rref_rows, det, kernel_basis, rank, rref, solve
from g2orbits.orbits import _representative, centralizer
from g2orbits.roots import CartanElement, cartan_adjoint, vanishing_roots
from test_derivations import one_tau_per_vanishing_set


def F(n, d=1):
    return Fraction(n, d)


class TestMatrixBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, [F(1)] * 3)

    @pytest.mark.parametrize(
        "op",
        [rank, kernel_basis, rref, det, lambda m: solve(m, (1, 2))],
        ids=["rank", "kernel_basis", "rref", "det", "solve"],
    )
    def test_float_entries_raise_type_error(self, op):
        m = Matrix.from_rows([[1, 2.0], [3, 4]])
        with pytest.raises(TypeError, match="2.0 is a float"):
            op(m)

    def test_float_right_hand_side_raises_type_error(self):
        with pytest.raises(TypeError, match="0.5 is a float"):
            solve(Matrix.identity(2), (1, 0.5))

    def test_product_and_transpose(self):
        a = Matrix.from_rows([[F(1), F(2)], [F(3), F(4)]])
        b = Matrix.from_rows([[F(0), F(1)], [F(1), F(0)]])
        assert a * b == Matrix.from_rows([[F(2), F(1)], [F(4), F(3)]])
        assert a.transpose() == Matrix.from_rows([[F(1), F(3)], [F(2), F(4)]])
        assert (a * b).apply((F(1), F(0))) == (F(2), F(4))

    def test_trace(self):
        a = Matrix.from_rows([[F(1), F(2)], [F(3), F(4)]])
        assert a.trace() == 5


class TestExponentBound:
    """A rational string's decimal exponent is bounded before Fraction
    expands it: Fraction("1e10000000") is an integer of 10^7 digits."""

    @pytest.mark.parametrize(
        "text, value",
        [
            ("1e100", F(10**100)),
            ("-3E-100", F(-3, 10**100)),
            (" 1e1_0 ", F(10**10)),
            ("1e+0_100", F(10**100)),
            ("7/2", F(7, 2)),
        ],
    )
    def test_within_the_bound_parses(self, text, value):
        assert linalg._frac(text) == value

    @pytest.mark.parametrize("text", ["1e101", "1E-101", " 2.5e1_01 ", "1e10000000", "-1e+99999999999"])
    def test_over_the_bound_raises_before_fraction(self, monkeypatch, text):
        class NoParse(Fraction):
            def __new__(cls, *args):
                raise AssertionError(f"Fraction{args} was called")

        monkeypatch.setattr(linalg, "Fraction", NoParse)
        with pytest.raises(ValueError, match="decimal exponent of magnitude over 100"):
            linalg._frac(text)

    def test_cartan_elements_and_octonions_refuse_it(self):
        with pytest.raises(ValueError, match="decimal exponent"):
            CartanElement(["1e10000000", 0, "-1e10000000"])
        with pytest.raises(ValueError, match="decimal exponent"):
            Octonion(["1e-10000000"] + [0] * 7)


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(2)) == 2

    def test_rank_one(self):
        assert rank(Matrix.from_rows([[F(1), F(1)], [F(1), F(1)]])) == 1

    def test_row_permutation_and_scaling_invariance(self):
        rng = random.Random(17)
        for _ in range(100):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            rows = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
            a = Matrix.from_rows(rows)
            perm = rows[:]
            rng.shuffle(perm)
            scaled = []
            for r in perm:
                c = F(0)
                while c == 0:
                    c = F(rng.randint(-5, 5), rng.randint(1, 5))
                scaled.append([c * x for x in r])
            assert rank(a) == rank(Matrix.from_rows(scaled))


class TestKernel:
    def test_identity_kernel_empty(self):
        assert kernel_basis(Matrix.identity(3)) == ()

    def test_single_equation(self):
        k = kernel_basis(Matrix.from_rows([[F(1), F(1)]]))
        assert k == ((F(1), F(-1)),)

    def test_rank_nullity_and_membership(self):
        rng = random.Random(23)
        for _ in range(100):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            a = Matrix(m, n, [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m * n)])
            kern = kernel_basis(a)
            assert rank(a) + len(kern) == n
            for v in kern:
                assert not any(a.apply(v))
                lead = next(x for x in v if x)
                assert lead == 1

    def test_canonical_determinism(self):
        rng = random.Random(5)
        ents = [F(rng.randint(-3, 3)) for _ in range(20)]
        a = Matrix(4, 5, ents)
        b = Matrix(4, 5, list(ents))
        assert kernel_basis(a) == kernel_basis(b)
        assert rref(a) == rref(b)


class TestRowScaling:
    """Elimination multiplies every row by the lcm of its denominators
    before the fraction-free core runs; results must not depend on it."""

    @staticmethod
    def _rational(rng, big=10**9):
        return F(rng.randint(-big, big), rng.randint(1, big))

    def test_kernel_rref_solve_unchanged(self):
        rng = random.Random(47)
        for _ in range(60):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            # rank-deficient on purpose: rows are combinations of k rows
            k = rng.randint(1, min(m, n))
            gens = [[self._rational(rng) for _ in range(n)] for _ in range(k)]
            rows = []
            for _ in range(m):
                cs = [self._rational(rng) for _ in range(k)]
                rows.append([sum((c * g[j] for c, g in zip(cs, gens)), F(0)) for j in range(n)])
            a = Matrix.from_rows(rows)
            if rng.random() < 0.5:
                rhs = a.apply([self._rational(rng) for _ in range(n)])
            else:
                rhs = tuple(self._rational(rng) for _ in range(m))
            scales = []
            for _ in range(m):
                c = F(0)
                while c == 0:
                    c = self._rational(rng)
                scales.append(c)
            scaled = Matrix.from_rows([[c * x for x in row] for c, row in zip(scales, rows)])
            scaled_rhs = tuple(c * x for c, x in zip(scales, rhs))

            kern = kernel_basis(a)
            assert kernel_basis(scaled) == kern
            assert all(not any(a.apply(v)) for v in kern)
            assert rref(scaled) == rref(a)
            x = solve(a, rhs)
            assert solve(scaled, scaled_rhs) == x
            if x is not None:
                assert a.apply(x) == rhs


@st.composite
def matrices_with_repeats(draw, entries=st.integers(-4, 4)):
    """A matrix of the given entries (ints unless told otherwise), and the
    same matrix with zero rows and rescaled copies of its rows inserted
    anywhere."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    padded = [list(r) for r in rows]
    scalars = st.sampled_from([0, 1, -1, 2, -3, F(1, 2), F(-5, 7)])
    extras = draw(st.lists(st.tuples(st.integers(0, m - 1), scalars, st.integers(0, 20)), max_size=8))
    for src, c, pos in extras:
        padded.insert(pos % (len(padded) + 1), [c * x for x in rows[src]])
    return rows, padded


class TestRepeatedRows:
    """Elimination drops zero rows and rows that repeat an earlier row up
    to a scalar before it sweeps; no result may depend on that."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(matrices_with_repeats())
    def test_rref_rank_and_kernel_unchanged(self, pair):
        rows, padded = pair
        a, big = Matrix.from_rows(rows), Matrix.from_rows(padded)
        red, pivots = rref(a)
        red_big, pivots_big = rref(big)
        assert (red_big.rows, red_big.cols) == (big.rows, big.cols)
        assert pivots_big == pivots
        assert rank(big) == rank(a) == len(pivots)
        head = len(pivots) * a.cols
        assert red_big.entries[:head] == red.entries[:head]
        assert not any(red_big.entries[head:])
        assert kernel_basis(big) == kernel_basis(a)

    @settings(max_examples=100, deadline=None, database=None)
    @given(matrices_with_repeats(), st.lists(st.integers(0, 20), max_size=6))
    def test_exact_repeats_with_int_and_fraction_entries(self, pair, spots):
        # rows repeated exactly, each copy with its entries as Fractions: 2
        # and Fraction(2) sit in the same position and compare equal
        rows, padded = pair
        for pos in spots:
            row = padded[pos % len(padded)]
            padded.insert(pos % (len(padded) + 1), [F(x) for x in row])
        a, big = Matrix.from_rows(rows), Matrix.from_rows(padded)
        # a right-hand side linear in the row, so every copy stays consistent
        rhs, big_rhs = [sum(row) for row in rows], [sum(row) for row in padded]
        red, pivots = rref(a)
        red_big, pivots_big = rref(big)
        assert pivots_big == pivots and rank(big) == rank(a)
        head = len(pivots) * a.cols
        assert red_big.entries[:head] == red.entries[:head]
        assert not any(red_big.entries[head:])
        kern = kernel_basis(big)
        assert kern == kernel_basis(a)
        x = solve(big, big_rhs)
        assert x == solve(a, rhs) and list(a.apply(x)) == rhs
        for values in (red_big.entries, sum(kern, ()), x):
            assert all(type(v) is int for v in values if v.denominator == 1)

    def test_exact_repeats_mixing_int_and_fraction(self):
        rows = [[2, F(1, 3), 0], [1, 1, 4], [F(2), F(1, 3), 0], [2, F(1, 3), F(0)]]
        once = rows[:2]
        big, a = Matrix.from_rows(rows), Matrix.from_rows(once)
        red_big, pivots = rref(big)
        red, pivots_once = rref(a)
        assert pivots == pivots_once == (0, 1)
        assert red_big.entries[:6] == red.entries and not any(red_big.entries[6:])
        assert rank(big) == rank(a) == 2
        assert kernel_basis(big) == kernel_basis(a) == ((1, -6, F(5, 4)),)
        assert solve(big, (1, 2, 1, 1)) == solve(a, (1, 2)) == (F(1, 5), F(9, 5), 0)
        assert solve(big, (1, 2, 1, 2)) is None
        assert [type(v) for v in kernel_basis(big)[0]] == [int, int, Fraction]
        assert [type(v) for v in red_big.entries] == [int, int, Fraction, int, int, Fraction] + [int] * 6

    def test_leibniz_kernel_clears_each_distinct_row_once(self, monkeypatch):
        from g2orbits import checks, linalg
        from g2orbits.derivations import leibniz_system

        system = leibniz_system()
        distinct = len(set(map(tuple, system.row_lists())))
        calls = []
        cleared = linalg._cleared
        monkeypatch.setattr(linalg, "_cleared", lambda values: calls.append(values) or cleared(values))
        assert len(kernel_basis(system)) == 14
        # the distinct raw rows, once each; the kernel vectors are read off
        # that elimination and cleared no more
        assert (distinct, len(calls)) == (190, 190)


def fraction_rref(rows):
    """Plain Gauss-Jordan elimination over Fractions: the reduced rows,
    zero rows last, and the pivot columns."""
    rows = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, tuple(pivots)


def fraction_kernel(rows):
    """The reduced echelon basis of the null space, over Fractions."""
    n = len(rows[0])
    red, pivots = fraction_rref(rows)
    vecs = []
    for f in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[f] = F(1)
        for ridx, c in enumerate(pivots):
            v[c] = -red[ridx][f]
        vecs.append(v)
    return tuple(tuple(v) for v in fraction_rref(vecs)[0]) if vecs else ()


def fraction_solve(rows, rhs):
    """The solution with free variables zero, over Fractions, or None."""
    n = len(rows[0])
    red, pivots = fraction_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [F(0)] * n
    for ridx, c in enumerate(pivots):
        x[c] = red[ridx][n]
    return tuple(x)


def assert_int_where_integral(values):
    for v in values:
        assert type(v) is (int if v.denominator == 1 else Fraction), (v, type(v))


small_rationals = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-4, 4), st.integers(1, 4)))


class TestIntWhereIntegral:
    """rref, kernel_basis and solve return an int for every integral value
    and a Fraction for every other one, with the values of plain Fraction
    elimination."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(matrices_with_repeats(small_rationals), st.data())
    def test_types_and_values_match_fraction_elimination(self, pair, data):
        rows = pair[1]
        a = Matrix.from_rows(rows)
        if data.draw(st.booleans()):
            rhs = a.apply(data.draw(st.lists(small_rationals, min_size=a.cols, max_size=a.cols)))
        else:
            rhs = data.draw(st.lists(small_rationals, min_size=a.rows, max_size=a.rows))

        red, pivots = rref(a)
        ref_red, ref_pivots = fraction_rref(rows)
        assert_int_where_integral(red.entries)
        assert (red.entries, pivots) == (tuple(x for row in ref_red for x in row), ref_pivots)

        kern = kernel_basis(a)
        assert_int_where_integral(x for v in kern for x in v)
        assert kern == fraction_kernel(rows)

        x = solve(a, rhs)
        assert x == fraction_solve(rows, rhs)
        if x is not None:
            assert_int_where_integral(x)

    def test_subalgebra_rows(self):
        b = derivation_basis()
        taus = [(0, 0, 0), (1, 0, -1), (1, 1, -2), (1, 2, -3), (F(1, 2), F(1, 2), -1)]
        subalgebras = [centralizer(tau) for tau in taus] + [
            fixed_subalgebra(gamma_matrix(), b),
            stabilizer_subalgebra(Octonion.basis(1), b),
        ]
        for rows in subalgebras:
            assert rows
            assert_int_where_integral(x for row in rows for x in row)


def two_pass_kernel(m: Matrix) -> tuple:
    """The kernel as it was computed before one elimination sufficed: the
    standard null vectors, then a second elimination to canonicalise them."""
    red, pivots = _rref_rows(m.row_lists())
    n = m.cols
    free = sorted(set(range(n)).difference(pivots))
    if not free:
        return ()
    vecs = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for ridx, c in enumerate(pivots):
            e = red[ridx][f]
            if e:
                v[c] = -e
        vecs.append(v)
    # canonicalize: reduced echelon basis of the spanned subspace
    canon, piv2 = _rref_rows(vecs)
    if len(piv2) != len(vecs):
        raise AssertionError("kernel vectors must be independent")
    return tuple(tuple(v) for v in canon)


def typed(kern):
    """Each entry of a kernel basis with its type, so 2 and Fraction(2)
    differ."""
    return tuple(tuple((type(x), x) for x in v) for v in kern)


class TestOneElimination:
    """kernel_basis reads the reduced echelon basis off one elimination of
    the reversed columns; the two-pass form it replaced is the oracle."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(matrices_with_repeats(small_rationals))
    def test_equals_the_two_pass_kernel(self, pair):
        for rows in pair:
            a = Matrix.from_rows(rows)
            assert typed(kernel_basis(a)) == typed(two_pass_kernel(a))

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.data())
    def test_equals_the_two_pass_kernel_at_full_rank(self, m, n, data):
        # an identity block beside or above random entries: rank min(m, n)
        block = [[int(i == j) for j in range(min(m, n))] for i in range(min(m, n))]
        extra = data.draw(st.lists(st.lists(small_rationals, min_size=abs(m - n), max_size=abs(m - n)),
                                   min_size=min(m, n), max_size=min(m, n)))
        if n >= m:
            rows = [row + list(e) for row, e in zip(block, extra)]
        else:
            rows = block + [list(r) for r in zip(*extra)]
        a = Matrix(m, n, [x for row in rows for x in row])
        assert rank(a) == min(m, n)
        kern = kernel_basis(a)
        assert len(kern) == n - min(m, n)
        assert typed(kern) == typed(two_pass_kernel(a))

    @pytest.mark.parametrize("n", range(5))
    def test_no_rows(self, n):
        a = Matrix(0, n, ())
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert typed(kernel_basis(a)) == typed(two_pass_kernel(a)) == typed(identity)

    def test_package_systems(self):
        systems = [leibniz_system()] + [
            cartan_adjoint(_representative(vanishing_roots(tau))) for tau in one_tau_per_vanishing_set()
        ]
        for a in systems:
            assert typed(kernel_basis(a)) == typed(two_pass_kernel(a))

    def test_one_elimination_per_kernel(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "_rref_rows", lambda rows: calls.append(rows) or _rref_rows(rows))
        for a in (leibniz_system(), Matrix.from_rows([[1, 1, 0], [0, 0, 1]]), Matrix.identity(3), Matrix(0, 2, ())):
            calls.clear()
            kernel_basis(a)
            assert len(calls) == 1


def dense_rref_int(rows) -> tuple:
    """_rref_int before it walked only the pivot row's nonzero columns: every
    eliminated row is rescaled by the pivot, 1 included, and swept over all
    its columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        hit = -1
        for i in range(r, nrows):
            if rows[i][c]:
                hit = i
                break
        if hit < 0:
            continue
        if hit != r:
            rows[r], rows[hit] = rows[hit], rows[r]
        prow = rows[r]
        linalg._normalize_int_row(prow)
        pv = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                row = rows[i]
                for j in range(c):
                    if row[j]:
                        row[j] = row[j] * pv
                for j in range(c, ncols):
                    row[j] = row[j] * pv - prow[j] * f
                linalg._normalize_int_row(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(pivots)


@st.composite
def int_rows_with_repeats(draw):
    """At most 8 int rows of at most 8 entries in -4..4, with zero rows and
    copies of rows up to a scalar inserted anywhere."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=8))
    extras = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.sampled_from([0, 1, -1, 2, -3])),
                           max_size=4))
    for pos, src, c in extras:
        if rows and len(rows) < 8:
            rows.insert(pos % (len(rows) + 1), [c * x for x in rows[src % len(rows)]])
    return rows


def assert_same_elimination(rows):
    """_rref_int and the dense oracle leave equal rows in place and return
    equal pivots."""
    sparse, dense = [list(r) for r in rows], [list(r) for r in rows]
    assert linalg._rref_int(sparse) == dense_rref_int(dense)
    assert sparse == dense


class TestSparseElimination:
    """_rref_int subtracts only at the pivot row's nonzero columns and skips
    the rescaling by a pivot of 1; the dense sweep it replaced is the
    oracle, row for row."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(int_rows_with_repeats())
    def test_equals_the_dense_sweep(self, rows):
        assert_same_elimination(rows)

    def test_a_pivot_other_than_one(self):
        # the first pivot row normalises to (2, 1, 0), so the rows below are
        # rescaled by 2 before the sweep
        rows = [[4, 2, 0], [3, 0, 1], [0, 0, 0], [-2, -1, 0], [1, 4, -4]]
        work = [list(r) for r in rows]
        linalg._normalize_int_row(work[0])
        assert work[0] == [2, 1, 0]
        assert_same_elimination(rows)

    def test_package_systems(self):
        systems = [leibniz_system()] + [cartan_adjoint(tau) for tau in checks._vanishing_representatives().values()]
        for a in systems:
            assert_same_elimination([list(linalg._cleared(row)[1]) for row in a.row_lists()])


class TestSolve:
    def test_identity(self):
        b = (F(3), F(-2))
        assert solve(Matrix.identity(2), b) == b

    def test_inconsistent(self):
        a = Matrix.from_rows([[F(1), F(1)], [F(1), F(1)]])
        assert solve(a, (F(1), F(2))) is None

    def test_diagonal(self):
        a = Matrix.from_rows([[F(2), F(0)], [F(0), F(4)]])
        assert solve(a, (F(1), F(1))) == (F(1, 2), F(1, 4))

    def test_random_consistent_systems(self):
        rng = random.Random(31)
        for _ in range(100):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            a = Matrix(m, n, [F(rng.randint(-3, 3)) for _ in range(m * n)])
            x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            b = a.apply(x)
            got = solve(a, b)
            assert got is not None
            assert a.apply(got) == b


class TestDet:
    def test_examples(self):
        assert det(Matrix.identity(3)) == 1
        a = Matrix.from_rows([[F(2), F(1)], [F(1), F(1)]])
        assert det(a) == 1
        assert det(Matrix.from_rows([[F(1), F(1)], [F(1), F(1)]])) == 0

    def test_row_swap_sign(self):
        a = Matrix.from_rows([[F(0), F(1)], [F(1), F(0)]])
        assert det(a) == -1

    def test_int_matrix_gives_exact_int(self):
        # a true division here once returned 5.0
        got = det(Matrix(2, 2, [2, 1, 1, 3]))
        assert got == 5 and type(got) is int

    def test_large_int_entries_exact(self):
        # a float pivot ratio once returned 0 here
        big = 10**20
        assert det(Matrix(2, 2, [big + 1, big, big, big - 1])) == -1

    @pytest.mark.parametrize("kind", ["int", "fraction"])
    def test_random_against_cofactor_expansion(self, kind):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 5)
            if kind == "int":
                entries = [rng.randint(-6, 6) for _ in range(n * n)]
            else:
                entries = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n * n)]
            if rng.random() < 0.3:
                entries[0] = 0  # a zero first pivot forces a row swap
            if n > 1 and rng.random() < 0.1:
                entries[-n:] = entries[:n]  # a repeated row: singular
            m = Matrix(n, n, entries)
            got = det(m)
            assert not isinstance(got, float)
            assert got == cofactor_det(m.row_lists())
            if kind == "int":
                assert type(got) is int


def cofactor_det(rows):
    """Laplace expansion along the first row: slow but independent."""
    if not rows:
        return 1
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * a * cofactor_det(minor)
    return total
