import random
from fractions import Fraction
from functools import reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from g2orbits import cayley
from g2orbits.cayley import (
    MULT_TABLE,
    ComplexModelElement,
    Octonion,
    _product,
    from_complex_model,
    gamma1_matrix,
    gamma_matrix,
    is_automorphism_matrix,
    to_complex_model,
)
from g2orbits.linalg import Matrix, rank
from matrices import identity, product, row_lists, scaled
from octonions import add, conj, gamma, gamma1, inner, is_zero, neg, norm, scale, sub, zero
from test_acceptance import _CERTIFICATE

E = [Octonion.basis(i) for i in range(8)]


def F(n, d=1):
    return Fraction(n, d)


def random_octonion(rng):
    return Octonion([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)])


def _quat(x, y):
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def fraction_product(x, y):
    """The doubling product (a + b e4)(c + d e4) = (ac - conj(d) b) +
    (b conj(c) + d a) e4 on 8 Fraction coordinates: an oracle that shares
    no code with the integer-numerator Octonion."""
    a, b, c, d = x[:4], x[4:], y[:4], y[4:]
    dbar = (d[0], -d[1], -d[2], -d[3])
    cbar = (c[0], -c[1], -c[2], -c[3])
    first = tuple(p - q for p, q in zip(_quat(a, c), _quat(dbar, b)))
    second = tuple(p + q for p, q in zip(_quat(b, cbar), _quat(d, a)))
    return first + second


NINE_DIGITS = 10**9 - 1
fractions_9 = st.builds(
    Fraction, st.integers(-NINE_DIGITS, NINE_DIGITS), st.integers(1, NINE_DIGITS)
)
coords_9 = st.lists(fractions_9, min_size=8, max_size=8).map(tuple)
# no shrink phase: a failing 9-digit oracle reports its first counterexample
# at once instead of shrinking it for minutes; a passing run is unchanged
oracle_settings = settings(
    max_examples=100,
    deadline=None,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)


class TestProduct:
    def test_unit(self):
        rng = random.Random(1)
        for _ in range(20):
            x = random_octonion(rng)
            assert E[0] * x == x
            assert x * E[0] == x

    def test_e4_squared(self):
        assert E[4] * E[4] == neg(E[0])

    def test_quaternion_convention(self):
        assert E[1] * E[2] == E[3]
        assert E[2] * E[3] == E[1]
        assert E[3] * E[1] == E[2]
        for i in (1, 2, 3):
            assert E[i] * E[i] == neg(E[0])

    def test_doubling_names(self):
        assert E[1] * E[4] == E[5]
        assert E[2] * E[4] == E[6]
        assert E[3] * E[4] == E[7]

    def test_non_associativity_witness(self):
        assert (E[1] * E[2]) * E[4] == E[7]
        assert E[1] * (E[2] * E[4]) == neg(E[7])

    def test_alternativity_random(self):
        rng = random.Random(2)
        for _ in range(100):
            x, y = random_octonion(rng), random_octonion(rng)
            assert x * (x * y) == (x * x) * y
            assert (y * x) * x == y * (x * x)

    def test_composition_random(self):
        rng = random.Random(3)
        for _ in range(100):
            x, y = random_octonion(rng), random_octonion(rng)
            assert norm(x * y) == norm(x) * norm(y)

    @pytest.mark.parametrize("i", [3, True, np.int64(5), 1.5, Fraction(1, 2), Fraction(2)], ids=repr)
    def test_basis_index_is_an_integer(self, i):
        # a float or Fraction index once gave the zero octonion silently
        if isinstance(i, (float, Fraction)):
            with pytest.raises(TypeError):
                Octonion.basis(i)
        else:
            assert Octonion.basis(i) == E[int(i)]

    def test_table_is_signed_permutation(self):
        for i in range(8):
            for j in range(8):
                k, s = MULT_TABLE[i][j]
                assert s in (1, -1)
                prod = E[i] * E[j]
                assert prod == (E[k] if s > 0 else neg(E[k]))


class TestConjugationAndInner:
    def test_conj_basis(self):
        assert conj(E[0]) == E[0]
        assert conj(E[5]) == neg(E[5])

    def test_conj_linear(self):
        x = add(scale(3, E[0]), scale(2, E[6]))
        assert conj(x) == sub(scale(3, E[0]), scale(2, E[6]))

    def test_anti_automorphism(self):
        rng = random.Random(4)
        for _ in range(100):
            x, y = random_octonion(rng), random_octonion(rng)
            assert conj(x * y) == conj(y) * conj(x)

    def test_conj_via_inner(self):
        # conjugation is 2(x, e0) e0 - x
        rng = random.Random(5)
        for _ in range(20):
            x = random_octonion(rng)
            assert conj(x) == sub(scale(2 * inner(x, E[0]), E[0]), x)

    def test_inner_examples(self):
        assert inner(E[2], E[2]) == 1
        assert inner(E[2], E[3]) == 0
        assert norm(add(E[0], E[1])) == 2

    def test_inner_product_polarization(self):
        # 2(x,y) = e0-part of x*conj(y) + y*conj(x)
        rng = random.Random(6)
        for _ in range(50):
            x, y = random_octonion(rng), random_octonion(rng)
            z = add(x * conj(y), y * conj(x))
            assert 2 * inner(x, y) == z.coords[0]


class TestGammaMaps:
    def test_gamma_on_basis(self):
        assert gamma(E[1]) == E[1]
        assert gamma(E[4]) == neg(E[4])
        for i in range(4):
            assert gamma(E[i]) == E[i]
            assert gamma(E[i + 4]) == neg(E[i + 4])

    def test_gamma1_on_basis(self):
        assert gamma1(E[1]) == neg(E[1])
        assert gamma1(E[2]) == E[2]
        assert gamma1(E[3]) == neg(E[3])
        for i in (0, 2, 4, 6):
            assert gamma1(E[i]) == E[i]
        for i in (1, 3, 5, 7):
            assert gamma1(E[i]) == neg(E[i])

    def test_involutions(self):
        rng = random.Random(7)
        for _ in range(50):
            x = random_octonion(rng)
            assert gamma(gamma(x)) == x
            assert gamma1(gamma1(x)) == x

    def test_automorphism_on_all_basis_pairs(self):
        for f in (gamma, gamma1):
            for i in range(8):
                for j in range(8):
                    assert f(E[i] * E[j]) == f(E[i]) * f(E[j])

    def test_matrices_are_automorphisms(self):
        assert is_automorphism_matrix(gamma_matrix())
        assert is_automorphism_matrix(gamma1_matrix())

    def test_non_automorphism_detected(self):
        assert not is_automorphism_matrix(scaled(identity(8), Fraction(2)))
        bad = Matrix.from_rows(
            [[Fraction(1 if (i, j) in {(0, 1), (1, 0)} else (1 if i == j and i > 1 else 0))
              for j in range(8)] for i in range(8)]
        )
        assert not is_automorphism_matrix(bad)


def table_by_octonions():
    """MULT_TABLE as _build_table formed it before it ran _product on unit
    tuples: 64 products of basis Octonions."""
    units = [Octonion.basis(i) for i in range(8)]
    tbl = []
    for x in units:
        row = []
        for y in units:
            nz = [(k, v) for k, v in enumerate((x * y).num) if v]
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                raise AssertionError("basis products must be signed basis elements")
            row.append(nz[0])  # (k, sign): the product of units has den 1
        tbl.append(tuple(row))
    return tuple(tbl)


def is_automorphism_by_octonions(m: Matrix) -> bool:
    """is_automorphism_matrix before it cleared m once: the images m e_i as
    Octonions, one reduced product per pair."""
    if (m.rows, m.cols) != (8, 8):
        return False
    if rank(m) != 8:
        return False
    images = [Octonion(col) for col in zip(*row_lists(m))]  # m e_i, column i
    for i in range(8):
        for j in range(8):
            k, sign = MULT_TABLE[i][j]
            if images[i] * images[j] != scale(sign, images[k]):
                return False
    return True


def rotation(planes, c=F(3, 5), s=F(4, 5)) -> Matrix:
    """The rotation e_i -> c e_i + s e_j, e_j -> -s e_i + c e_j in each plane
    (i, j), the identity elsewhere."""
    rows = [[F(int(i == j)) for j in range(8)] for i in range(8)]
    for i, j in planes:
        rows[i][i] = rows[j][j] = c
        rows[j][i], rows[i][j] = s, -s
    return Matrix.from_rows(rows)


def certificate() -> Matrix:
    """The signed permutation g with g gamma = gamma1 g of the acceptance suite."""
    entries = [0] * 64
    for j, (i, sign) in _CERTIFICATE.items():
        entries[8 * i + j] = sign
    return Matrix(8, 8, entries)


#: name -> (matrix, is it an automorphism)
AUTOMORPHISM_CASES = {
    "identity": (identity(8), True),
    "gamma": (gamma_matrix(), True),
    "gamma1": (gamma1_matrix(), True),
    "certificate": (certificate(), True),
    "pythagorean": (rotation([(1, 2), (5, 6)]), True),  # e1 -> (3 e1 + 4 e2)/5
    "one_plane": (rotation([(1, 2)]), False),  # orthogonal, not an automorphism
    "twice_identity": (scaled(identity(8), F(2)), False),
    "singular": (Matrix(8, 8, [int(i == j < 7) for i in range(8) for j in range(8)]), False),
    "zero": (Matrix(8, 8, [0] * 64), False),
    "7x7": (identity(7), False),
}

small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
rational_8x8 = st.lists(small_fractions, min_size=64, max_size=64).map(lambda v: Matrix(8, 8, v))
#: words in the automorphisms above, each possibly with one entry moved
automorphism_words = st.tuples(
    st.lists(st.sampled_from([m for m, auto in AUTOMORPHISM_CASES.values() if auto]), min_size=1, max_size=4),
    st.integers(0, 63),
    st.sampled_from([0, 0, 1, F(-1, 7)]),
).map(lambda w: Matrix(8, 8, [v + w[2] * (n == w[1]) for n, v in enumerate(reduce(product, w[0]).entries)]))


class TestOneProductKernel:
    """The table and the automorphism test on _product equal the Octonion
    forms they replaced."""

    def test_table_equals_the_octonion_oracle(self):
        assert MULT_TABLE == cayley._build_table() == table_by_octonions()

    def test_build_table_makes_no_octonion_product(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("built the table from Octonions")

        monkeypatch.setattr(Octonion, "__mul__", refuse)
        assert cayley._build_table() == MULT_TABLE

    @pytest.mark.parametrize("name", list(AUTOMORPHISM_CASES))
    def test_named_matrices_equal_the_octonion_oracle(self, name):
        m, expected = AUTOMORPHISM_CASES[name]
        assert is_automorphism_matrix(m) == is_automorphism_by_octonions(m) == expected

    @oracle_settings
    @given(rational_8x8)
    def test_rational_matrices_equal_the_octonion_oracle(self, m):
        assert is_automorphism_matrix(m) == is_automorphism_by_octonions(m)

    @oracle_settings
    @given(automorphism_words)
    def test_automorphism_words_equal_the_octonion_oracle(self, m):
        assert is_automorphism_matrix(m) == is_automorphism_by_octonions(m)

    def test_a_float_matrix_raises(self):
        m = Matrix(8, 8, [float(v) for v in identity(8).entries])
        for test in (is_automorphism_matrix, is_automorphism_by_octonions):
            with pytest.raises(TypeError):
                test(m)

    def test_makes_no_octonion_product(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("tested an automorphism on Octonions")

        monkeypatch.setattr(Octonion, "__mul__", refuse)
        assert [is_automorphism_matrix(m) for m, _ in AUTOMORPHISM_CASES.values()] == [
            auto for _, auto in AUTOMORPHISM_CASES.values()
        ]


class TestComplexModel:
    def test_basis_decomposition(self):
        # coordinates (re a, im a, re m1, im m1, re m2, im m2, re m3, im m3)
        assert to_complex_model(E[0]).coords == (1, 0, 0, 0, 0, 0, 0, 0)  # a = 1, m = 0
        assert to_complex_model(E[2]).coords == (0, 0, 1, 0, 0, 0, 0, 0)  # a = 0, m = (1, 0, 0)
        assert to_complex_model(E[7]).coords == (0, 0, 0, 0, 0, 0, 0, -1)  # m3 = x6 - x7*i

    def test_roundtrip_basis(self):
        for i in range(8):
            assert from_complex_model(to_complex_model(E[i])) == E[i]

    def test_roundtrip_random(self):
        rng = random.Random(8)
        for _ in range(50):
            x = random_octonion(rng)
            assert from_complex_model(to_complex_model(x)) == x

    def test_unit(self):
        one = to_complex_model(E[0])
        rng = random.Random(9)
        v = to_complex_model(random_octonion(rng))
        assert one * v == v

    def test_hermitian_term(self):
        # parallel unit vectors: scalar part is -<m, n> = -1
        u = ComplexModelElement((0, 0, 1, 0, 0, 0, 0, 0))
        p = u * u
        assert p.coords[:2] == (-1, 0)
        assert not any(p.coords[2:])

    def test_cross_orientation(self):
        # (1,0,0) x (0,1,0) slot: e2 * e4 = e6 forces the sign
        u = ComplexModelElement((0, 0, 1, 0, 0, 0, 0, 0))
        v = ComplexModelElement((0, 0, 0, 0, 1, 0, 0, 0))
        p = u * v
        assert p.coords[:2] == (0, 0)
        assert p.coords[2:] == (0, 0, 0, 0, 1, 0)  # m = (0, 0, 1)
        assert from_complex_model(p) == E[6]

    def test_model_agreement_all_pairs(self):
        for i in range(8):
            for j in range(8):
                via = from_complex_model(to_complex_model(E[i]) * to_complex_model(E[j]))
                assert via == E[i] * E[j], (i, j)

    def test_model_agreement_random(self):
        rng = random.Random(10)
        for _ in range(50):
            x, y = random_octonion(rng), random_octonion(rng)
            via = from_complex_model(to_complex_model(x) * to_complex_model(y))
            assert via == x * y

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ComplexModelElement([1] * 7 + [0.5])
        with pytest.raises(ValueError):
            ComplexModelElement([1] * 6)

    def test_models_never_compare_equal(self):
        # same numerators, different algebras
        assert to_complex_model(E[0]) != E[0]
        assert to_complex_model(E[0]) == ComplexModelElement(E[0].coords)


ints_9 = st.lists(st.integers(-NINE_DIGITS, NINE_DIGITS), min_size=8, max_size=8).map(tuple)


class TestFractionOracle:
    @oracle_settings
    @given(ints_9, ints_9)
    def test_product_kernel_is_the_bilinear_map_of_the_table(self, x, y):
        # check 7 proves the laws on the unit products; this ties the kernel
        # Octonion.__mul__ runs to them beyond its one dense pair
        expansion = [0] * 8
        for i in range(8):
            for j in range(8):
                k, s = MULT_TABLE[i][j]
                expansion[k] += s * x[i] * y[j]
        assert _product(x, y) == tuple(expansion)

    @oracle_settings
    @given(coords_9, coords_9)
    def test_product_and_inner(self, xs, ys):
        x, y = Octonion(xs), Octonion(ys)
        assert (x * y).coords == fraction_product(xs, ys)
        assert inner(x, y) == sum(a * b for a, b in zip(xs, ys))

    @oracle_settings
    @given(coords_9)
    def test_conj_gamma_gamma1(self, xs):
        x = Octonion(xs)
        assert conj(x).coords == (xs[0],) + tuple(-v for v in xs[1:])
        assert gamma(x).coords == xs[:4] + tuple(-v for v in xs[4:])
        assert gamma1(x).coords == tuple(-v if i % 2 else v for i, v in enumerate(xs))

    @oracle_settings
    @given(coords_9)
    def test_gamma_and_gamma1_agree_with_their_matrices(self, xs):
        # each involution and its matrix come from one sign tuple
        x = Octonion(xs)
        for f, m in ((gamma, gamma_matrix()), (gamma1, gamma1_matrix())):
            assert f(x) == Octonion(m.apply(x.coords))

    @oracle_settings
    @given(coords_9, coords_9)
    def test_complex_model_product(self, xs, ys):
        x, y = Octonion(xs), Octonion(ys)
        cx, cy = to_complex_model(x), to_complex_model(y)
        assert cx.coords == xs[:7] + (-xs[7],)
        assert from_complex_model(cx) == x
        assert from_complex_model(cx * cy).coords == fraction_product(xs, ys)
        for z in (cx, cy, cx * cy):
            assert z.den > 0 and gcd(z.den, *z.num) == 1

    @oracle_settings
    @given(coords_9, coords_9)
    def test_results_in_lowest_terms(self, xs, ys):
        x, y = Octonion(xs), Octonion(ys)
        cx = to_complex_model(x)
        # moving between the models skips the gcd: a sign change keeps lowest terms
        for z in (x, x * y, cx, from_complex_model(cx)):
            assert z.den > 0 and gcd(z.den, *z.num) == 1


class TestCanonicalForm:
    def test_equal_values_equal_and_hash_alike(self):
        x, y = Octonion([F(2, 4)] * 8), Octonion([F(1, 2)] * 8)
        assert x == y and hash(x) == hash(y)
        z = Octonion([2] + [0] * 7) * Octonion([F(1, 4)] * 8)  # 2/4 in each coordinate
        assert z == x and hash(z) == hash(x)
        two_x = Octonion([2] + [0] * 7) * x
        assert two_x == Octonion([1] * 8) and two_x.den == 1

    def test_difference_with_itself(self):
        x = Octonion([F(n, 6) for n in range(1, 9)])
        z = sub(x, x)
        assert z.num == (0,) * 8 and z.den == 1
        assert z == zero() and is_zero(z)
        # a product with zero is reduced to the same zero
        assert (zero() * x).num == (0,) * 8 and (zero() * x).den == 1

    def test_coords_round_trip(self):
        xs = (F(1, 2), F(-3), F(0), F(5, 7), F(9, 4), F(-1, 6), F(2), F(1, 3))
        assert Octonion(xs).coords == xs
        assert Octonion(["1/2", -3, 0, "5/7", F(9, 4), "-1/6", 2, F(1, 3)]).coords == xs
        assert all(type(c) is Fraction for c in Octonion([1] * 8).coords)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Octonion([1] * 7 + [0.5])
        with pytest.raises(TypeError):
            E[1] * 0.5


def test_octonion_validation():
    with pytest.raises(ValueError):
        Octonion([1, 2, 3])


def test_octonion_rejects_floats():
    with pytest.raises(TypeError):
        Octonion([0.1] * 8)
