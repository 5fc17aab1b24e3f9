import random
from fractions import Fraction

import numpy as np
import pytest

from g2orbits.cayley import Octonion, gamma1_matrix, gamma_matrix
from g2orbits.derivations import (
    Derivation,
    adjoint_matrix,
    bracket,
    derivation_basis,
    exp_derivation_numeric,
    fixed_subalgebra,
    killing_form,
    leibniz_system,
    stabilizer_subalgebra,
    subalgebra_structure,
)
from g2orbits.errors import NotBracketClosedError, NotInSpanError
from g2orbits.linalg import Matrix, det, kernel_basis, rank


def F(n, d=1):
    return Fraction(n, d)


def random_element(b, rng, lo=-3, hi=3):
    return b.from_coordinates([F(rng.randint(lo, hi)) for _ in range(b.dim)])


class TestLeibnizSystem:
    def test_shape(self):
        m = leibniz_system()
        assert (m.rows, m.cols) == (512, 64)

    def test_rank_and_nullity(self):
        m = leibniz_system()
        assert rank(m) == 50
        assert len(kernel_basis(m)) == 14


class TestBasis:
    def test_dimension(self):
        assert derivation_basis().dim == 14

    def test_every_basis_element_is_a_derivation(self):
        for d in derivation_basis().basis:
            assert d.satisfies_leibniz()
            assert d.kills_unit()
            assert d.is_skew()

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
        stray = Derivation(Matrix.identity(8))
        with pytest.raises(NotInSpanError):
            b.coordinates(stray)

    def test_deterministic(self):
        b = derivation_basis()
        kern = kernel_basis(leibniz_system())
        assert tuple(d.flat() for d in b.basis) == kern


class TestBracket:
    def test_self_bracket_zero(self):
        b = derivation_basis()
        for d in b.basis:
            assert bracket(d, d).is_zero()

    def test_antisymmetry(self):
        b = derivation_basis()
        rng = random.Random(13)
        for _ in range(10):
            x, y = random_element(b, rng), random_element(b, rng)
            assert bracket(x, y).matrix == -bracket(y, x).matrix

    def test_bracket_is_derivation(self):
        b = derivation_basis()
        rng = random.Random(14)
        for _ in range(5):
            x, y = random_element(b, rng), random_element(b, rng)
            assert bracket(x, y).satisfies_leibniz()

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


class TestAdjoint:
    def test_zero(self):
        b = derivation_basis()
        ad = adjoint_matrix(Derivation.zero(), b)
        assert ad.is_zero()

    def test_trace_free(self):
        b = derivation_basis()
        for d in b.basis:
            assert adjoint_matrix(d, b).trace() == 0

    def test_adjoint_respects_bracket(self):
        b = derivation_basis()
        rng = random.Random(16)
        for _ in range(5):
            x, y = random_element(b, rng, -2, 2), random_element(b, rng, -2, 2)
            ad_br = adjoint_matrix(bracket(x, y), b)
            ax, ay = adjoint_matrix(x, b), adjoint_matrix(y, b)
            assert ad_br == ax * ay - ay * ax

    def test_adjoint_agrees_with_direct_brackets(self):
        # dual route: column j of ad(d) must be the coordinates of [d, D_j]
        b = derivation_basis()
        rng = random.Random(17)
        d = random_element(b, rng)
        ad = adjoint_matrix(d, b)
        for j in range(b.dim):
            col = tuple(ad.entry(k, j) for k in range(b.dim))
            assert col == b.coordinates(bracket(d, b.basis[j]))


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
        neg = -b.killing_gram()
        for k in range(1, 15):
            minor = Matrix(k, k, [neg.entry(i, j) for i in range(k) for j in range(k)])
            assert det(minor) > 0

    def test_invariance(self):
        b = derivation_basis()
        rng = random.Random(19)
        for _ in range(20):
            x = random_element(b, rng, -2, 2)
            y = random_element(b, rng, -2, 2)
            z = random_element(b, rng, -2, 2)
            assert killing_form(bracket(z, x), y, b) + killing_form(x, bracket(z, y), b) == 0

    def test_matches_trace_definition(self):
        # dual route: the Gram evaluation must equal tr(ad x ad y)
        b = derivation_basis()
        rng = random.Random(20)
        for _ in range(5):
            x, y = random_element(b, rng, -2, 2), random_element(b, rng, -2, 2)
            direct = (adjoint_matrix(x, b) * adjoint_matrix(y, b)).trace()
            assert killing_form(x, y, b) == direct


class TestFixedSubalgebras:
    def test_identity_fixes_everything(self):
        b = derivation_basis()
        fixed = fixed_subalgebra(Matrix.identity(8), b)
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
        for d in fixed_subalgebra(g, b):
            assert (g * d.matrix - d.matrix * g).is_zero()

    def test_rejects_non_automorphism(self):
        b = derivation_basis()
        with pytest.raises(ValueError):
            fixed_subalgebra(Matrix.identity(8) * F(2), b)

    def test_su3_stabilizer_of_e1(self):
        b = derivation_basis()
        sub = stabilizer_subalgebra(Octonion.basis(1), b)
        assert len(sub) == 8
        s = subalgebra_structure(sub, b)
        assert (s.dim, s.derived_dim, s.center_dim) == (8, 8, 0)
        for d in sub:
            assert d.apply(Octonion.basis(1)).is_zero()


class TestSubalgebraStructure:
    def test_full_algebra(self):
        b = derivation_basis()
        s = subalgebra_structure(b.basis, b)
        assert (s.dim, s.derived_dim, s.center_dim, s.is_abelian) == (14, 14, 0, False)

    def test_not_closed_raises(self):
        b = derivation_basis()
        with pytest.raises(NotBracketClosedError):
            subalgebra_structure(b.basis[:1] + b.basis[3:4], b)

    def test_empty(self):
        b = derivation_basis()
        s = subalgebra_structure((), b)
        assert (s.dim, s.derived_dim, s.center_dim, s.is_abelian) == (0, 0, 0, True)


class TestExpNumeric:
    def test_zero_derivation_gives_identity(self):
        a = exp_derivation_numeric(Derivation.zero(), 1.0)
        assert np.array_equal(a, np.eye(8))

    def test_orthogonality_residual(self):
        b = derivation_basis()
        rng = random.Random(21)
        for _ in range(10):
            d = b.basis[rng.randrange(14)]
            t = rng.uniform(-2, 2)
            a = exp_derivation_numeric(d, t)
            assert np.abs(a.T @ a - np.eye(8)).max() < 1e-9

    def test_additivity_in_t(self):
        b = derivation_basis()
        d = b.basis[0]
        a1 = exp_derivation_numeric(d, 0.7)
        a2 = exp_derivation_numeric(d, -0.7)
        assert np.abs(a1 @ a2 - np.eye(8)).max() < 1e-9

    def test_degree_floor(self):
        with pytest.raises(ValueError):
            exp_derivation_numeric(Derivation.zero(), 1.0, terms=8)

    @pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_time_rejected(self, t):
        d = derivation_basis().basis[0]
        with pytest.raises(ValueError):
            exp_derivation_numeric(d, t)
