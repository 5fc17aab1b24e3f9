import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2orbits import derivations, linalg, orbits
from g2orbits.cayley import MULT_TABLE, Octonion, gamma1_matrix, gamma_matrix
from g2orbits.derivations import (
    Derivation,
    G2AlgebraBasis,
    SubalgebraSummary,
    _matmul,
    adjoint_matrix,
    derivation_basis,
    exp_derivation_numeric,
    fixed_subalgebra,
    leibniz_system,
    stabilizer_subalgebra,
    subalgebra_structure,
)
from g2orbits.errors import InternalInvariantError, NotBracketClosedError, NotInSpanError
from g2orbits.linalg import Matrix, kernel_basis, rank
from g2orbits.orbits import centralizer, classify
from g2orbits.roots import TAU_H1, TAU_H2, CartanElement, cartan_element, root_system, vanishing_roots
from matrices import det, difference, from_sympy, identity, is_zero, product, row_lists, scaled, to_sympy, trace
import octonions


def F(n, d=1):
    return Fraction(n, d)


def bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """Commutator [d1, d2] = d1 d2 - d2 d1."""
    return Derivation(difference(product(d1.matrix, d2.matrix), product(d2.matrix, d1.matrix)))


def cartan_basis():
    """The Cartan generators H1 (tau=(1,-1,0)) and H2 (tau=(0,1,-1)) as
    8x8 derivations, each checked to lie in the span of derivation_basis()
    (NotInSpanError otherwise).  The package keeps only their adjoints,
    roots._cartan_ad()."""
    b = derivation_basis()
    h = tuple(cartan_element(CartanElement(t)) for t in (TAU_H1, TAU_H2))
    for d in h:
        b.coordinates(d)
    return h


def apply_derivation(d: Derivation, x: Octonion) -> Octonion:
    """d(x) as an Octonion."""
    return Octonion(d.matrix.apply(x.coords))


def random_element(b, rng, lo=-3, hi=3):
    return b.from_coordinates([F(rng.randint(lo, hi)) for _ in range(b.dim)])


def coordinate_rows(b, derivations):
    """The 14 coordinates in b of each derivation, the rows that
    subalgebra_structure takes; NotInSpanError for one outside the span."""
    return [b.coordinates(d) for d in derivations]


def leibniz_by_products(d):
    """The product rule on all 64 basis pairs, from octonion products.

    Independent of leibniz_system: it multiplies octonions instead of
    reading the rule off the 512 linear equations."""
    images = [apply_derivation(d, Octonion.basis(i)) for i in range(8)]
    basis = [Octonion.basis(i) for i in range(8)]
    for i in range(8):
        for j in range(8):
            k, sign = MULT_TABLE[i][j]
            lhs = images[k] if sign > 0 else octonions.neg(images[k])
            if lhs != octonions.add(images[i] * basis[j], basis[i] * images[j]):
                return False
    return True


def zero_derivation():
    """The zero map on the octonions."""
    return Derivation(Matrix(8, 8, [0] * 64))


def is_zero_derivation(d):
    return is_zero(d.matrix)


def satisfies_leibniz(d):
    """Exact product-rule check: the flattened matrix solves every
    equation of leibniz_system, so no octonion product is formed."""
    return not any(leibniz_system().apply(d.flat()))


def kills_unit(d):
    """D e0 = 0: a derivation kills the unit."""
    return octonions.is_zero(apply_derivation(d, Octonion.basis(0)))


def is_skew(d):
    """The matrix of d is antisymmetric, diagonal included."""
    m = d.matrix
    return all(m.entry(i, j) == -m.entry(j, i) for i in range(8) for j in range(i, 8))


def killing_form(x: Derivation, y: Derivation, b: G2AlgebraBasis):
    """Killing form tr(ad x ad y), evaluated bilinearly on the Gram matrix."""
    cx, cy, g = b.coordinates(x), b.coordinates(y), b.killing_gram()
    return sum(
        xi * g.entry(i, j) * yj for i, xi in enumerate(cx) if xi for j, yj in enumerate(cy) if yj
    )


def killing_gram_by_ad_products(b):
    """G2AlgebraBasis.killing_gram before the sum over the structure
    constants replaced it: tr(ad_i ad_j) through 105 products of 14x14
    adjoint matrices."""
    ads = [adjoint_matrix(d, b) for d in b.basis]
    n = b.dim
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t = trace(product(ads[i], ads[j]))
            g[i][j] = t
            g[j][i] = t
    return Matrix.from_rows(g)


def structure_by_matrices(s):
    """The fingerprint of the derivations s from brackets of 8x8
    matrices: the form subalgebra_structure had before it moved to the
    coordinates of the basis.  Raises NotBracketClosedError like it."""
    red, pivots = to_sympy(Matrix.from_rows([d.flat() for d in s])).rref()
    rows = [tuple(map(from_sympy, red.row(i))) for i in range(len(pivots))]
    dim = len(rows)
    if dim == 0:
        return SubalgebraSummary(0, 0, 0, True)
    mats = [Derivation.from_flat(r) for r in rows]

    def in_span(vec):
        coeffs = [vec[p] for p in pivots]
        return all(sum(c * r[k] for c, r in zip(coeffs, rows)) == vec[k] for k in range(64))

    pair_brackets = {(i, i): zero_derivation() for i in range(dim)}
    for i in range(dim):
        for j in range(i + 1, dim):
            br = bracket(mats[i], mats[j])
            if not in_span(br.flat()):
                raise NotBracketClosedError("bracket of subalgebra elements leaves the span")
            pair_brackets[i, j] = br
            pair_brackets[j, i] = Derivation(scaled(br.matrix, -1))
    nonzero = [br.flat() for (i, j), br in pair_brackets.items() if i < j and not is_zero_derivation(br)]
    derived_dim = rank(Matrix.from_rows(nonzero)) if nonzero else 0
    # the centre: coefficient vectors c with sum_i c_i [mats_i, mats_j] = 0 for every j
    images = [[v for j in range(dim) for v in pair_brackets[i, j].flat()] for i in range(dim)]
    system = Matrix(len(images[0]), dim, [v[r] for r in range(len(images[0])) for v in images])
    center_dim = len(kernel_basis(system))
    return SubalgebraSummary(dim, derived_dim, center_dim, derived_dim == 0)


def exp_by_numpy(d, t, terms=16):
    """exp(t d) by scaling and squaring on numpy arrays: the form
    exp_derivation_numeric had before it moved to plain floats."""
    a = np.array([[float(x) for x in d.matrix.row(i)] for i in range(8)]) * float(t)
    nrm = float(np.abs(a).sum(axis=1).max())
    squarings = 0
    while nrm > 0.5:
        nrm /= 2.0
        squarings += 1
    m = a / (2.0 ** squarings)
    eye = np.eye(8)
    p = np.eye(8)
    for k in range(terms, 0, -1):
        p = eye + (m @ p) / k
    for _ in range(squarings):
        p = p @ p
    return p


def matmul_8x8(a, b):
    """The 8x8 float product exp_derivation_numeric used before it moved to
    the 7x7 block: each entry its 8 products added left to right."""
    cols = tuple(zip(*b))
    return tuple(
        tuple(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 + r4 * c4 + r5 * c5 + r6 * c6 + r7 * c7
              for c0, c1, c2, c3, c4, c5, c6, c7 in cols)
        for r0, r1, r2, r3, r4, r5, r6, r7 in a
    )


def exp_on_8x8(d, t):
    """exp(t d) by scaling and squaring on the whole 8x8 matrix, as
    exp_derivation_numeric computed it before it moved to the 7x7 block."""
    t = float(t)
    a = [[float(x) * t for x in d.matrix.row(i)] for i in range(8)]
    nrm = max(sum(abs(v) for v in row) for row in a)
    squarings = 0
    while nrm > 0.5:
        nrm /= 2.0
        squarings += 1
    m = [[math.ldexp(v, -squarings) for v in row] for row in a]
    eye = tuple(tuple(float(i == j) for j in range(8)) for i in range(8))
    p = eye
    for k in range(16, 0, -1):
        p = tuple(tuple(e + v / k for e, v in zip(erow, row)) for erow, row in zip(eye, matmul_8x8(m, p)))
    for _ in range(squarings):
        p = matmul_8x8(p, p)
    return p


def assert_equals_the_8x8_oracle(d, t):
    """Entry for entry ==, and the same shape and float type."""
    a, oracle = exp_derivation_numeric(d, t), exp_on_8x8(d, t)
    assert a == oracle, (t, d)
    assert all(type(v) is float for row in a for v in row)


def check_11_draws():
    """The 20 (derivation, time) pairs that check 11 draws, in order."""
    b = derivation_basis()
    rng = random.Random(1618)
    draws = []
    for _ in range(20):
        d = b.from_coordinates([rng.randint(-2, 2) for _ in range(b.dim)])
        t = rng.uniform(-2.0, 2.0)
        for _ in range(16):  # the two test octonions
            rng.uniform(-1, 1)
        draws.append((d, t))
    return draws


def stabilizer_by_coordinates(x, b):
    """stabilizer_subalgebra before it took the images on x's int numerators:
    an Octonion per basis derivation, read back as Fractions."""
    return derivations._kernel_of_images([apply_derivation(d, x).coords for d in b.basis])


def assert_stabilizer_equals_the_oracle(x):
    """The same rows, entry for entry and of the same types."""
    b = derivation_basis()
    rows, oracle = stabilizer_subalgebra(x, b), stabilizer_by_coordinates(x, b)
    assert rows == oracle
    assert [[type(v) for v in r] for r in rows] == [[type(v) for v in r] for r in oracle]


#: rationals with nine-digit numerators and denominators, and many zeros
sparse_rationals = st.one_of(
    st.just(0), st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9))
)


def one_tau_per_vanishing_set():
    """One lattice point for each of the 8 vanishing sets."""
    by_set = {}
    for t1 in range(-3, 4):
        for t2 in range(-3, 4):
            tau = (t1, t2, -t1 - t2)
            by_set.setdefault(vanishing_roots(tau), tau)
    assert len(by_set) == 8
    return list(by_set.values())


def one_centralizer_per_vanishing_set():
    """The centralizer of one lattice point for each of the 8 vanishing sets."""
    return [centralizer(tau) for tau in one_tau_per_vanishing_set()]


def sign_flipped(d, p, q):
    """d with the sign of matrix entry (p, q) flipped."""
    flat = list(d.flat())
    flat[8 * p + q] = -flat[8 * p + q]
    return Derivation.from_flat(flat)


def leibniz_rows_by_scans():
    """The 512 rows of leibniz_system as it built them before it read the
    table backwards: two 8-step scans of MULT_TABLE per row."""
    rows = []
    for i in range(8):
        for j in range(8):
            kp, sp = MULT_TABLE[i][j]
            for k in range(8):
                row = [0] * 64
                row[k * 8 + kp] += sp
                for p in range(8):
                    kk, ss = MULT_TABLE[p][j]
                    if kk == k:
                        row[p * 8 + i] -= ss
                for q in range(8):
                    kk, ss = MULT_TABLE[i][q]
                    if kk == k:
                        row[q * 8 + j] -= ss
                rows.append(row)
    return rows


class TestLeibnizSystem:
    def test_shape(self):
        m = leibniz_system()
        assert (m.rows, m.cols) == (512, 64)

    def test_equals_the_table_scans(self):
        # entry for entry, and every entry an int
        m = leibniz_system()
        assert row_lists(m) == leibniz_rows_by_scans()
        assert all(type(v) is int for v in m.entries)

    def test_built_on_each_call(self):
        # check 1 is its one package caller, so nothing holds it between calls
        assert not hasattr(leibniz_system, "cache_info")
        assert leibniz_system() is not leibniz_system() and leibniz_system() == leibniz_system()

    def test_rank_and_nullity(self):
        m = leibniz_system()
        assert rank(m) == 50
        assert len(kernel_basis(m)) == 14

    def test_kernel_eliminates_each_distinct_row_once(self, monkeypatch):
        # 113 of the 512 equations are distinct up to a scalar and nonzero
        sizes = []
        core = linalg._rref_int

        def counting(rows):
            sizes.append(len(rows))
            return core(rows)

        monkeypatch.setattr(linalg, "_rref_int", counting)
        assert len(kernel_basis(leibniz_system())) == 14
        assert sizes[0] == 113


def degrees(b):
    """The Z2^3 degree p ^ q of each basis vector, read off every nonzero
    entry d[p][q]; None for a vector with entries of two degrees."""
    out = []
    for d in b.basis:
        found = {p ^ q for p in range(8) for q in range(8) if d.matrix.entry(p, q)}
        out.append(found.pop() if len(found) == 1 else None)
    return out


def unit_rows(indices, n=14):
    """The coordinate unit vectors of the given basis indices, ascending."""
    return tuple(tuple(int(k == i) for k in range(n)) for i in sorted(indices))


class TestGrading:
    """The octonion table is Z2^3-graded (e_i e_j = +-e_{i^j}), and so is
    everything derivation_basis builds from it one degree at a time."""

    def test_table_is_graded(self):
        assert all(MULT_TABLE[i][j][0] == i ^ j for i in range(8) for j in range(8))

    def test_every_vector_has_one_degree_and_each_degree_two(self):
        degs = degrees(derivation_basis())
        assert None not in degs
        assert sorted(degs) == sorted(list(range(1, 8)) * 2)
        assert derivation_basis().degrees == tuple(degs)

    def test_brackets_respect_degree_and_each_component_is_abelian(self):
        b = derivation_basis()
        degs = degrees(b)
        for i, ci in enumerate(b.structure_constants):
            for j, cij in enumerate(ci):
                if degs[i] == degs[j]:
                    assert not any(cij)
                assert all(degs[k] == degs[i] ^ degs[j] for k, v in enumerate(cij) if v)

    def test_killing_gram_is_block_diagonal_by_degree(self):
        b = derivation_basis()
        degs = degrees(b)
        gram = b.killing_gram()
        assert all(gram.entry(i, j) == 0 for i in range(14) for j in range(14) if degs[i] != degs[j])

    @pytest.mark.parametrize("sigma", [gamma_matrix, gamma1_matrix], ids=["gamma", "gamma1"])
    def test_fixed_subalgebra_is_the_sum_of_the_plus_one_degrees(self, sigma):
        # a diagonal sign automorphism e_i -> chi(i) e_i has a character chi
        # of Z2^3 on its diagonal, and it acts on degree g by chi(g)
        m = sigma()
        chi = [m.entry(i, i) for i in range(8)]
        assert all(m.entry(i, j) == 0 for i in range(8) for j in range(8) if i != j)
        assert all(chi[i ^ j] == chi[i] * chi[j] for i in range(8) for j in range(8))
        b = derivation_basis()
        plus = [i for i, g in enumerate(degrees(b)) if chi[g] == 1]
        assert len(plus) == 6
        assert fixed_subalgebra(m, b) == unit_rows(plus)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 7), st.integers(-9, 9), st.integers(-9, 9))
    def test_homogeneous_combinations_are_derivations(self, g, x, y):
        b = derivation_basis()
        i, j = [k for k, h in enumerate(degrees(b)) if h == g]
        coeffs = [0] * 14
        coeffs[i], coeffs[j] = x, y
        assert leibniz_by_products(b.from_coordinates(coeffs))

    def test_a_table_that_is_not_graded_aborts(self, monkeypatch):
        table = [list(row) for row in MULT_TABLE]
        table[1][2], table[1][3] = table[1][3], table[1][2]
        monkeypatch.setattr(derivations, "MULT_TABLE", tuple(map(tuple, table)))
        derivation_basis.cache_clear()
        try:
            with pytest.raises(InternalInvariantError, match=r"not Z2\^3-graded"):
                derivation_basis()
        finally:
            derivation_basis.cache_clear()


class TestLeibnizCheck:
    def test_sign_flipped_generator_rejected(self):
        h1 = sign_flipped(cartan_basis()[0], 2, 3)
        assert h1.matrix.entry(2, 3) != 0
        assert not satisfies_leibniz(h1)
        assert not leibniz_by_products(h1)

    def test_check_forms_no_octonion_product(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("satisfies_leibniz multiplied octonions")

        monkeypatch.setattr(Octonion, "__mul__", refuse)
        assert all(satisfies_leibniz(d) for d in derivation_basis().basis)
        assert not satisfies_leibniz(sign_flipped(cartan_basis()[0], 2, 3))


class TestIntegerFacts:
    def test_entries_constants_and_gram_are_small_integers(self):
        # the only entries of magnitude 2 sit on the rows of e_i e_i = -e0
        assert set(leibniz_system().entries) <= set(range(-2, 3))
        b = derivation_basis()
        assert {v for d in b.basis for v in d.flat()} <= {-1, 0, 1}
        constants = [v for ci in b.structure_constants for cij in ci for v in cij]
        assert all(F(v).denominator == 1 for v in constants)
        assert set(constants) <= set(range(-2, 3))
        assert set(b.killing_gram().entries) <= {-16, -8, 0, 8}

    def test_lie_layer_stays_int(self):
        b = derivation_basis()
        assert all(type(v) is int for d in b.basis for v in d.flat())
        constants = [v for ci in b.structure_constants for cij in ci for v in cij]
        assert all(type(v) is int for v in constants)
        gram = b.killing_gram()
        assert all(type(v) is int for v in gram.entries)
        for d in b.basis:
            assert all(type(v) is int for v in adjoint_matrix(d, b).entries)
        neg = scaled(gram, -1)
        for k in range(1, b.dim + 1):
            minor = Matrix(k, k, [neg.entry(i, j) for i in range(k) for j in range(k)])
            assert type(det(minor)) in (int, Fraction)


class TestBasis:
    def test_dimension(self):
        assert derivation_basis().dim == 14

    def test_every_basis_element_is_a_derivation(self):
        for d in derivation_basis().basis:
            assert satisfies_leibniz(d)
            assert leibniz_by_products(d)
            assert kills_unit(d)
            assert is_skew(d)

    def test_basis_independent(self):
        b = derivation_basis()
        m = Matrix.from_rows([d.flat() for d in b.basis])
        assert rank(m) == 14

    def test_coordinates_roundtrip(self):
        b = derivation_basis()
        rng = random.Random(12)
        for _ in range(20):
            coeffs = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(14))
            d = b.from_coordinates(coeffs)
            assert b.coordinates(d) == coeffs

    def test_not_in_span_raises(self):
        b = derivation_basis()
        stray = Derivation(identity(8))
        with pytest.raises(NotInSpanError):
            b.coordinates(stray)

    def test_deterministic(self):
        # the graded blocks give the whole system's canonical kernel, as ints
        b = derivation_basis()
        kern = kernel_basis(leibniz_system())
        assert tuple(d.flat() for d in b.basis) == kern
        assert all(type(v) is int for d in b.basis for v in d.flat())
        assert b._pivots == tuple(next(i for i, v in enumerate(row) if v) for row in kern)


class TestBracket:
    def test_self_bracket_zero(self):
        b = derivation_basis()
        for d in b.basis:
            assert is_zero_derivation(bracket(d, d))

    def test_antisymmetry(self):
        b = derivation_basis()
        rng = random.Random(13)
        for _ in range(10):
            x, y = random_element(b, rng), random_element(b, rng)
            assert bracket(x, y).matrix == scaled(bracket(y, x).matrix, -1)

    def test_bracket_is_derivation(self):
        b = derivation_basis()
        rng = random.Random(14)
        for _ in range(5):
            br = bracket(random_element(b, rng), random_element(b, rng))
            assert satisfies_leibniz(br)
            assert leibniz_by_products(br)

    def test_structure_constants_antisymmetric(self):
        b = derivation_basis()
        c = b.structure_constants
        for i in range(14):
            for j in range(14):
                for k in range(14):
                    assert c[i][j][k] == -c[j][i][k]

    def test_structure_constants_match_brackets(self):
        b = derivation_basis()
        rng = random.Random(15)
        for _ in range(10):
            i, j = rng.randrange(14), rng.randrange(14)
            br = bracket(b.basis[i], b.basis[j])
            assert b.coordinates(br) == b.structure_constants[i][j]


class TestJacobi:
    def test_structure_constants_satisfy_jacobi(self):
        # the index form that check 9's ad-homomorphism test replaces
        b = derivation_basis()
        c = b.structure_constants
        n = b.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    for l in range(n):
                        total = Fraction(0)
                        for m in range(n):
                            if c[j][k][m]:
                                total += c[j][k][m] * c[i][m][l]
                            if c[k][i][m]:
                                total += c[k][i][m] * c[j][m][l]
                            if c[i][j][m]:
                                total += c[i][j][m] * c[k][m][l]
                        assert total == 0, f"Jacobi fails at ({i},{j},{k},{l})"


class TestAdjoint:
    def test_zero(self):
        b = derivation_basis()
        ad = adjoint_matrix(zero_derivation(), b)
        assert is_zero(ad)

    def test_trace_free(self):
        b = derivation_basis()
        for d in b.basis:
            assert trace(adjoint_matrix(d, b)) == 0

    def test_adjoint_respects_bracket(self):
        b = derivation_basis()
        rng = random.Random(16)
        for _ in range(5):
            x, y = random_element(b, rng, -2, 2), random_element(b, rng, -2, 2)
            ad_br = adjoint_matrix(bracket(x, y), b)
            ax, ay = adjoint_matrix(x, b), adjoint_matrix(y, b)
            assert ad_br == difference(product(ax, ay), product(ay, ax))

    def test_adjoint_agrees_with_direct_brackets(self):
        # dual route: column j of ad(d) must be the coordinates of [d, D_j]
        b = derivation_basis()
        rng = random.Random(17)
        d = random_element(b, rng)
        ad = adjoint_matrix(d, b)
        for j in range(b.dim):
            col = tuple(ad.entry(k, j) for k in range(b.dim))
            assert col == b.coordinates(bracket(d, b.basis[j]))


class TestCoordinatesAreCheckedOnEntry:
    @pytest.mark.parametrize("length", [1, 13, 15])
    def test_another_length_raises(self, length):
        b = derivation_basis()
        for method in (b.ad, b.from_coordinates):
            with pytest.raises(ValueError, match="coordinate length mismatch"):
                method((1,) * length)

    def test_a_float_raises_fracs_type_error(self):
        b = derivation_basis()
        with pytest.raises(TypeError, match="is a float"):
            b.ad((1.0,) + (0,) * 13)
        with pytest.raises(TypeError, match="is a float"):
            b.from_coordinates([0.5] + [0] * 13)
        with pytest.raises(TypeError, match="is a float"):
            b.coordinates(Derivation(Matrix(8, 8, [0.0] * 64)))

    def test_ints_stay_ints_and_fractions_pass(self):
        b = derivation_basis()
        coeffs = (F(1, 2),) + tuple(range(13))
        assert b.coordinates(b.from_coordinates(coeffs)) == coeffs
        assert all(type(v) is int for v in b.ad(range(14)).entries)
        assert b.ad(iter(coeffs)) == b.ad(coeffs)


class TestKillingForm:
    def test_symmetry(self):
        b = derivation_basis()
        rng = random.Random(18)
        for _ in range(10):
            x, y = random_element(b, rng, -2, 2), random_element(b, rng, -2, 2)
            assert killing_form(x, y, b) == killing_form(y, x, b)

    def test_negative_on_basis(self):
        b = derivation_basis()
        for d in b.basis:
            assert killing_form(d, d, b) < 0

    def test_negative_definite_minors(self):
        b = derivation_basis()
        neg = -to_sympy(b.killing_gram())
        for k in range(1, 15):
            assert neg[:k, :k].det() > 0

    def test_invariance(self):
        b = derivation_basis()
        rng = random.Random(19)
        for _ in range(20):
            x = random_element(b, rng, -2, 2)
            y = random_element(b, rng, -2, 2)
            z = random_element(b, rng, -2, 2)
            assert killing_form(bracket(z, x), y, b) + killing_form(x, bracket(z, y), b) == 0

    def test_gram_matches_the_ad_products(self):
        # a fresh basis fills its Gram matrix from the structure constants
        # (a Matrix has no product); the 14x14 products are the oracle
        b = derivation_basis()
        oracle = killing_gram_by_ad_products(b)
        fresh = G2AlgebraBasis(b.basis, b.structure_constants, b._pivots)
        assert not hasattr(Matrix, "__mul__")
        gram = fresh.killing_gram()
        assert gram == oracle
        assert all(type(v) is int for v in gram.entries)

    def test_matches_trace_definition(self):
        # dual route: the Gram evaluation must equal tr(ad x ad y)
        b = derivation_basis()
        rng = random.Random(20)
        for _ in range(5):
            x, y = random_element(b, rng, -2, 2), random_element(b, rng, -2, 2)
            direct = trace(product(adjoint_matrix(x, b), adjoint_matrix(y, b)))
            assert killing_form(x, y, b) == direct


class TestFixedSubalgebras:
    def test_identity_fixes_everything(self):
        b = derivation_basis()
        fixed = fixed_subalgebra(identity(8), b)
        assert len(fixed) == 14

    def test_gamma_fixed_dimension_and_structure(self):
        b = derivation_basis()
        fixed = fixed_subalgebra(gamma_matrix(), b)
        assert len(fixed) == 6
        s = subalgebra_structure(fixed, b)
        assert (s.dim, s.derived_dim, s.center_dim, s.is_abelian) == (6, 6, 0, False)

    def test_gamma1_fixed_dimension_and_structure(self):
        # gamma1 is conjugate to gamma inside the automorphism group, so its
        # fixed subalgebra is again a 6-dimensional su(2)+su(2)
        b = derivation_basis()
        fixed = fixed_subalgebra(gamma1_matrix(), b)
        assert len(fixed) == 6
        s = subalgebra_structure(fixed, b)
        assert (s.dim, s.derived_dim, s.center_dim) == (6, 6, 0)

    def test_fixed_elements_commute_with_sigma(self):
        b = derivation_basis()
        g = gamma_matrix()
        for v in fixed_subalgebra(g, b):
            d = b.from_coordinates(v)
            assert product(g, d.matrix) == product(d.matrix, g)

    def test_rejects_non_automorphism(self):
        b = derivation_basis()
        with pytest.raises(ValueError):
            fixed_subalgebra(scaled(identity(8), F(2)), b)

    def test_su3_stabilizer_of_e1(self):
        b = derivation_basis()
        sub = stabilizer_subalgebra(Octonion.basis(1), b)
        assert len(sub) == 8
        s = subalgebra_structure(sub, b)
        assert (s.dim, s.derived_dim, s.center_dim) == (8, 8, 0)
        for v in sub:
            assert octonions.is_zero(apply_derivation(b.from_coordinates(v), Octonion.basis(1)))

    @pytest.mark.parametrize("i", range(8))
    def test_stabilizer_of_a_unit_equals_the_coordinate_oracle(self, i):
        assert_stabilizer_equals_the_oracle(Octonion.basis(i))

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(sparse_rationals, min_size=8, max_size=8))
    def test_stabilizer_equals_the_coordinate_oracle(self, xs):
        assert_stabilizer_equals_the_oracle(Octonion(xs))

    def test_stabilizer_makes_no_octonion(self, monkeypatch):
        # the images are taken on the numerators: no Octonion per derivation
        x = Octonion([F(1, 2), 0, F(-3, 7), 0, 0, 5, 0, 0])
        monkeypatch.setattr(Octonion, "__init__", None)
        assert len(stabilizer_subalgebra(x, derivation_basis())) == 8


class TestSubalgebraStructure:
    def test_full_algebra(self):
        b = derivation_basis()
        s = subalgebra_structure(coordinate_rows(b, b.basis), b)
        assert (s.dim, s.derived_dim, s.center_dim, s.is_abelian) == (14, 14, 0, False)

    def test_not_closed_raises(self):
        b = derivation_basis()
        with pytest.raises(NotBracketClosedError):
            subalgebra_structure(coordinate_rows(b, b.basis[:1] + b.basis[3:4]), b)

    def test_empty(self):
        b = derivation_basis()
        s = subalgebra_structure((), b)
        assert (s.dim, s.derived_dim, s.center_dim, s.is_abelian) == (0, 0, 0, True)

    def test_matches_the_matrix_form(self):
        b = derivation_basis()
        inputs = one_centralizer_per_vanishing_set() + [
            fixed_subalgebra(gamma_matrix(), b),
            fixed_subalgebra(gamma1_matrix(), b),
            stabilizer_subalgebra(Octonion.basis(1), b),
            coordinate_rows(b, cartan_basis()),
            coordinate_rows(b, b.basis),
            (),
        ]
        for s in inputs:
            derivations = [b.from_coordinates(v) for v in s]
            assert subalgebra_structure(s, b) == structure_by_matrices(derivations)

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_the_matrix_form_on_random_integer_spans(self, data):
        # random integer combinations of a closed span (the sum of the
        # graded components of a subgroup of Z2^3, or a centralizer),
        # sometimes with a random row more: closed or not, both forms agree
        b = derivation_basis()
        small = st.integers(-2, 2)
        if data.draw(st.booleans()):
            group = {0}
            for g in data.draw(st.lists(st.integers(1, 7), max_size=3)):
                group |= {h ^ g for h in group}
            span = unit_rows(i for i, g in enumerate(b.degrees) if g in group)
        else:
            t1, t2 = data.draw(small), data.draw(small)
            span = centralizer((t1, t2, -t1 - t2))
        rows = []
        for _ in range(data.draw(st.integers(0, len(span) + 1))):
            coeffs = data.draw(st.lists(small, min_size=len(span), max_size=len(span)))
            rows.append(tuple(sum(c * r[k] for c, r in zip(coeffs, span)) for k in range(b.dim)))
        if data.draw(st.booleans()):
            rows.append(tuple(data.draw(st.lists(small, min_size=b.dim, max_size=b.dim))))

        def fingerprint(form, *args):
            try:
                return form(*args)
            except NotBracketClosedError:
                return "not closed"

        matrices = [b.from_coordinates(r) for r in rows]
        assert fingerprint(subalgebra_structure, rows, b) == fingerprint(structure_by_matrices, matrices)

    def test_not_closed_raises_in_the_matrix_form_too(self):
        b = derivation_basis()
        with pytest.raises(NotBracketClosedError):
            structure_by_matrices(b.basis[:1] + b.basis[3:4])

    def test_rows_of_another_length_raise(self):
        b = derivation_basis()
        with pytest.raises(ValueError, match="14 coordinates"):
            subalgebra_structure([h.flat() for h in cartan_basis()], b)

    def test_element_outside_the_kernel_raises(self):
        b = derivation_basis()
        stray = sign_flipped(cartan_basis()[0], 2, 3)
        with pytest.raises(NotInSpanError):
            subalgebra_structure(coordinate_rows(b, cartan_basis()[1:] + (stray,)), b)


class TestHotPathsStayOffMatrices:
    """Fingerprints are filled in the 14 coordinates: no derivation is
    rebuilt from its coordinates and no Matrix product is formed."""

    @staticmethod
    def forbid_matrices(monkeypatch):
        def forbidden(*args):
            raise AssertionError("an 8x8 derivation or a Matrix product on a hot path")

        monkeypatch.setattr(G2AlgebraBasis, "from_coordinates", forbidden)
        assert not hasattr(Matrix, "__mul__")  # so no Matrix product can be formed

    def test_classify_fills_all_eight_fingerprints(self, monkeypatch):
        derivation_basis()
        root_system()
        orbits._stabilizer.cache_clear()
        orbits._structure.cache_clear()
        self.forbid_matrices(monkeypatch)
        for tau in one_tau_per_vanishing_set():
            classify(tau)
        assert orbits._structure.cache_info().currsize == 8

    def test_fixed_and_stabilizer_subalgebras(self, monkeypatch):
        b = derivation_basis()
        self.forbid_matrices(monkeypatch)
        for sigma in (gamma_matrix(), gamma1_matrix()):
            assert subalgebra_structure(fixed_subalgebra(sigma, b), b).dim == 6
        assert subalgebra_structure(stabilizer_subalgebra(Octonion.basis(1), b), b).dim == 8


class TestExpNumeric:
    def test_zero_derivation_gives_identity(self):
        a = exp_derivation_numeric(zero_derivation(), 1.0)
        assert np.array_equal(a, np.eye(8))

    def test_orthogonality_residual(self):
        b = derivation_basis()
        rng = random.Random(21)
        for _ in range(10):
            d = b.basis[rng.randrange(14)]
            t = rng.uniform(-2, 2)
            a = np.array(exp_derivation_numeric(d, t))
            assert np.abs(a.T @ a - np.eye(8)).max() < 1e-9

    def test_additivity_in_t(self):
        b = derivation_basis()
        d = b.basis[0]
        a1 = np.array(exp_derivation_numeric(d, 0.7))
        a2 = np.array(exp_derivation_numeric(d, -0.7))
        assert np.abs(a1 @ a2 - np.eye(8)).max() < 1e-9

    def test_returns_row_tuples_of_floats(self):
        a = exp_derivation_numeric(derivation_basis().basis[0], 0.7)
        assert type(a) is tuple and len(a) == 8
        assert all(type(row) is tuple and len(row) == 8 for row in a)
        assert all(type(v) is float for row in a for v in row)

    def test_agrees_with_numpy_on_check_11_draws(self):
        for d, t in check_11_draws():
            gap = np.abs(np.array(exp_derivation_numeric(d, t)) - exp_by_numpy(d, t)).max()
            assert gap < 1e-12, (t, gap)

    @pytest.mark.parametrize("t", [-2.0, -0.7, 0.7, 2.0])
    def test_agrees_with_numpy_on_the_basis(self, t):
        for d in derivation_basis().basis:
            gap = np.abs(np.array(exp_derivation_numeric(d, t)) - exp_by_numpy(d, t)).max()
            assert gap < 1e-12, gap

    def test_matmul_is_the_left_to_right_fold(self):
        # the unrolled 7x7 product adds its 7 terms in the order a plain fold
        # does, so its floats are bit-identical to it
        rng = random.Random(88)

        def draw():
            return tuple(tuple(rng.uniform(-3, 3) for _ in range(7)) for _ in range(7))

        for _ in range(50):
            a, b = draw(), draw()
            fold = [[reduce(add, map(mul, row, col)) for col in zip(*b)] for row in a]
            assert _matmul(a, b) == fold

    def test_equals_the_8x8_oracle_on_check_11_draws(self):
        for d, t in check_11_draws():
            assert_equals_the_8x8_oracle(d, t)

    @pytest.mark.parametrize("t", [-2.0, -0.7, 0.7, 2.0])
    def test_equals_the_8x8_oracle_on_the_basis(self, t):
        for d in derivation_basis().basis:
            assert_equals_the_8x8_oracle(d, t)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(st.integers(-2, 2), min_size=14, max_size=14), st.floats(-2.0, 2.0))
    def test_equals_the_8x8_oracle(self, coords, t):
        assert_equals_the_8x8_oracle(derivation_basis().from_coordinates(coords), t)

    @pytest.mark.parametrize("p,q", [(0, 3), (5, 0), (0, 0)], ids=["row_0", "column_0", "entry_00"])
    def test_a_nonzero_row_or_column_0_is_refused(self, p, q):
        # the 7x7 block would drop that entry, so it raises instead
        flat = list(derivation_basis().basis[0].flat())
        flat[8 * p + q] = 1
        with pytest.raises(ValueError, match="row or column 0"):
            exp_derivation_numeric(Derivation.from_flat(flat), 0.5)

    @pytest.mark.parametrize(
        "t",
        [
            float("inf"),
            float("-inf"),
            float("nan"),
            pytest.param(10**400, id="int_10e400"),
            pytest.param(Fraction(10**400, 3), id="fraction_10e400_over_3"),
        ],
    )
    def test_non_finite_time_rejected(self, t):
        d = derivation_basis().basis[0]
        with pytest.raises(ValueError):
            exp_derivation_numeric(d, t)

    @pytest.mark.parametrize("t", ["1e308", "1e307"])
    def test_a_huge_finite_time_returns_or_raises_value_error(self, t):
        # in a child process with a timeout, so that a hang fails the test:
        # at 1e308 the norm of t d is not a finite float (it once looped
        # forever), and at 1e307 it is over the 2**20 bound (the scale
        # 2 ** 1026 of its halvings once overflowed)
        code = (
            "import math\n"
            "from g2orbits.derivations import derivation_basis, exp_derivation_numeric\n"
            "d = derivation_basis().from_coordinates([1] * 14)\n"
            "try:\n"
            f"    a = exp_derivation_numeric(d, {t})\n"
            "except ValueError as e:\n"
            "    print(e)\n"
            "else:\n"
            "    print(len(a), all(math.isfinite(v) for row in a for v in row))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        if t == "1e308":
            assert out.stdout.strip() == "t d is too large for floats at t = 1e+308"
        else:
            assert out.stdout.strip() == "8 True" or f"t = {float(t)}" in out.stdout

    @pytest.mark.parametrize("t", [1e12, 1e15])
    def test_an_inaccurate_time_raises_naming_t(self, t):
        # the norm of t d is 7e12 and 7e15, over the bound 2**20; the result
        # used to come back finite with orthogonality residuals 7e-4 and 0.99
        d = derivation_basis().from_coordinates([1] * 14)
        with pytest.raises(ValueError, match=re.escape(f"t = {t}")):
            exp_derivation_numeric(d, t)

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.lists(st.integers(-2, 2), min_size=14, max_size=14).filter(any), st.sampled_from([1, -1]))
    def test_just_under_the_norm_bound_stays_orthogonal(self, coords, sign):
        d = derivation_basis().from_coordinates(coords)
        nrm = max(sum(abs(float(v)) for v in d.matrix.row(i)) for i in range(8))
        t = sign * derivations._EXP_MAX_NORM / nrm
        while max(sum(abs(float(v) * t) for v in d.matrix.row(i)) for i in range(8)) > derivations._EXP_MAX_NORM:
            t = math.nextafter(t, 0.0)
        a = np.array(exp_derivation_numeric(d, t))
        assert np.abs(a.T @ a - np.eye(8)).max() < 1e-9

    @pytest.mark.parametrize("t", [1e100, -1e300])
    def test_an_overflowing_result_raises_naming_t(self, t):
        # a finite t whose squarings overflow would give inf - inf = NaN
        d = derivation_basis().basis[0]
        with pytest.raises(ValueError, match=re.escape(f"t = {t}")):
            exp_derivation_numeric(d, t)
