"""Tests of the verification suite itself: the draws it makes, that
checks 5, 7, 9 and 10 fail on a broken algebra or classifier and agree with
the forms they replaced, and that check 9 needs no 8x8 bracket and no
determinant."""

import ast
import inspect
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2orbits import cayley, checks, derivations, linalg, orbits
from g2orbits.cayley import MULT_TABLE, Octonion, _product
from g2orbits.derivations import (
    G2AlgebraBasis,
    SubalgebraSummary,
    adjoint_matrix,
    derivation_basis,
    exp_derivation_numeric,
)
from g2orbits.linalg import Matrix
from g2orbits.orbits import OrbitType, classify, lattice_rows
from g2orbits.roots import CartanElement, roots_in, root_system, vanishing_mask, vanishing_sets, weyl_reflect
from matrices import det, difference, is_zero, matrix_sum, product, row_lists, scaled, transpose
from octonions import conj, gamma, gamma1, inner
from test_derivations import bracket, killing_form


def _random_fraction(rng) -> Fraction:
    """A numerator in -9..9 over a denominator in 1..9, as randint draws them."""
    return Fraction(rng.randrange(19) - 9, rng.randrange(9) + 1)


def _random_cartan(rng) -> CartanElement:
    t1 = _random_fraction(rng)
    t2 = _random_fraction(rng)
    return CartanElement.of(t1, t2, -t1 - t2)


def _random_numerators(rng) -> tuple:
    """Eight _random_fraction draws as int numerators over the lcm of their
    denominators, and that lcm."""
    draws = [_random_fraction(rng) for _ in range(8)]
    den = math.lcm(*(f.denominator for f in draws))
    return tuple([f.numerator * (den // f.denominator) for f in draws]), den


def _random_octonion(rng) -> Octonion:
    return Octonion._reduced(*_random_numerators(rng))


def refuse_random(monkeypatch):
    """Make every draw from a random.Random raise."""

    def refuse(*args):
        raise AssertionError("drew from random")

    monkeypatch.setattr(random.Random, "random", refuse)
    monkeypatch.setattr(random.Random, "getrandbits", refuse)
    with pytest.raises(AssertionError, match="drew from random"):
        random.Random(1).randrange(19)


def test_octonion_draws_equal_the_fraction_built_ones():
    # the cleared draws of the numerator-form oracle, over their lcm, against
    # Octonion([_random_fraction ...]): same values, and the same state after
    new, old = random.Random(20240801), random.Random(20240801)
    for _ in range(1000):
        x = Octonion._reduced(*_random_numerators(new))
        y = Octonion([_random_fraction(old) for _ in range(8)])
        assert (x.num, x.den) == (y.num, y.den)
    assert new.getstate() == old.getstate()


def test_ratio_draws_equal_the_randint_ones():
    # randint(a, b) is a + randrange(b - a + 1): the fractions check 10 drew
    # from Fraction(randint(-9, 9), randint(1, 9)), and the same state after
    new, old = random.Random(20240801), random.Random(20240801)
    for _ in range(10_000):
        assert _random_fraction(new) == Fraction(old.randint(-9, 9), old.randint(1, 9))
    assert new.getstate() == old.getstate()


def last_line_of(code):
    """The last line code prints in a fresh interpreter with the package on
    the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.splitlines()[-1]


#: run code in a fresh interpreter and print how many times it built the
#: Leibniz system, counted by a profile hook on the function's code object
LEIBNIZ_BUILDS = """\
import sys
from g2orbits import derivations
builds, target = [], derivations.leibniz_system.__code__
sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code is target and builds.append(1))
{code}
sys.setprofile(None)
print(len(builds))"""


class TestCheck01:
    def test_detail_is_fixed(self):
        # no wall time in the PASS line, so `check` stdout is reproducible
        detail = "nullity 14, rank 50, kernel within the 5s budget"
        assert checks.check_01_derivation_dimension() == detail
        assert checks.check_01_derivation_dimension() == detail

    def test_one_elimination_of_the_leibniz_system(self, monkeypatch):
        # the nullity is 64 minus the rank of one elimination; the kernel it
        # once counted stays as an oracle in test_derivations
        sizes = []
        rref_rows = linalg._rref_rows

        def counted(rows):
            sizes.append(len(rows))
            return rref_rows(rows)

        monkeypatch.setattr(linalg, "_rref_rows", counted)
        checks.check_01_derivation_dimension()
        assert sizes.count(512) == 1

    def test_makes_no_kernel_basis_call(self, monkeypatch):
        # a dimension is a rank: no kernel vector is built only to be counted
        def refuse(m):
            raise AssertionError("check 1 built a kernel basis")

        monkeypatch.setattr(linalg, "kernel_basis", refuse)
        monkeypatch.setattr(derivations, "kernel_basis", refuse)
        assert not hasattr(checks, "kernel_basis")
        assert checks.check_01_derivation_dimension() == "nullity 14, rank 50, kernel within the 5s budget"

    def test_one_leibniz_build_per_process(self):
        # check 1 is the one caller of the system, which is built on each call
        code = "from g2orbits import checks\nchecks.run_all(out=lambda line: None)"
        assert last_line_of(LEIBNIZ_BUILDS.format(code=code)) == "1"

    def test_one_elimination_of_512_rows_per_process(self):
        # derivation_basis() eliminates the eight 64x8 graded blocks, so
        # check 1's kernel is the process's one whole-system elimination
        code = (
            "from g2orbits import checks, linalg\n"
            "sizes = []\n"
            "rref_rows = linalg._rref_rows\n"
            "linalg._rref_rows = lambda rows: sizes.append(len(rows)) or rref_rows(rows)\n"
            "checks.run_all(out=lambda line: None)\n"
            "print(sizes.count(512))"
        )
        assert last_line_of(code) == "1"

    def test_kernel_past_the_budget_fails(self, monkeypatch):
        clock = iter([100.0, 106.25])
        monkeypatch.setattr(checks, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        with pytest.raises(AssertionError, match=r"took 6\.25s \(budget 5s\)"):
            checks.check_01_derivation_dimension()


class TestCheck04:
    DETAIL = "12 roots (6 short, 6 long), ratio 3, reflections permute preserving length"

    def test_reflects_each_generator_once_per_root(self, monkeypatch):
        calls = []
        reflect = checks.weyl_reflect
        monkeypatch.setattr(checks, "weyl_reflect", lambda r, tau: calls.append((r.coeffs, tau)) or reflect(r, tau))
        assert checks.check_04_root_system() == self.DETAIL
        generators = [checks.CartanElement(checks.TAU_H1), checks.CartanElement(checks.TAU_H2)]
        assert calls == [(r.coeffs, h) for r in checks.root_system() for h in generators]

    def test_a_wrong_reflection_fails(self, monkeypatch):
        reflect = checks.weyl_reflect
        monkeypatch.setattr(checks, "weyl_reflect", lambda r, tau: reflect(r, tau).scaled(2))
        with pytest.raises(AssertionError, match="maps .* outside"):
            checks.check_04_root_system()


#: the detail line of check 7 while it sampled 500 random pairs
SAMPLED_DETAIL = "500 random octonions: alternative, composition, anti-automorphism; gamma, gamma1 automorphisms"


def involutions_multiplicative_on_octonions() -> str:
    """Check 7's gamma and gamma1 half before it ran on their sign tuples:
    f(e_i e_j) = f(e_i) f(e_j) on the 64 pairs of basis Octonions."""
    basis = [Octonion.basis(i) for i in range(8)]
    for f in (gamma, gamma1):
        for i in range(8):
            for j in range(8):
                assert f(basis[i] * basis[j]) == f(basis[i]) * f(basis[j]), (
                    f"{f.__name__} not multiplicative on ({i},{j})"
                )
    return "gamma, gamma1 automorphisms"


def cayley_laws_on_octonions() -> str:
    """Check 7 before it ran on integer numerators: the laws on 500 random
    reduced Octonions, a gcd and a new object per product."""
    rng = random.Random(20240801)
    for _ in range(500):
        x = _random_octonion(rng)
        y = _random_octonion(rng)
        xy, xx = x * y, x * x
        assert x * xy == xx * y, "left alternativity fails"
        assert (y * x) * x == y * xx, "right alternativity fails"
        assert inner(xy, xy) == inner(x, x) * inner(y, y), "composition fails"
        assert conj(xy) == conj(y) * conj(x), "anti-automorphism fails"
        assert gamma(gamma(x)) == x and gamma1(gamma1(x)) == x, "involution fails"
    involutions_multiplicative_on_octonions()
    return SAMPLED_DETAIL


def cayley_laws_on_numerators() -> str:
    """Check 7 before the linearised laws replaced it: the laws on the
    cleared numerators of the same 500 pairs, through cayley's int kernels.
    Each law is homogeneous in x and in y, so it holds for the pair exactly
    when it holds for their numerators."""
    product, dot, signs = cayley._product, cayley._dot, cayley._signs
    c, g, g1 = cayley._CONJ_SIGNS, cayley._GAMMA_SIGNS, cayley._GAMMA1_SIGNS
    rng = random.Random(20240801)
    for _ in range(500):
        x = _random_numerators(rng)[0]
        y = _random_numerators(rng)[0]
        xy, xx = product(x, y), product(x, x)
        assert product(x, xy) == product(xx, y), "left alternativity fails"
        assert product(product(y, x), x) == product(y, xx), "right alternativity fails"
        assert dot(xy, xy) == dot(x, x) * dot(y, y), "composition fails"
        assert signs(c, xy) == product(signs(c, y), signs(c, x)), "anti-automorphism fails"
        assert signs(g, signs(g, x)) == x and signs(g1, signs(g1, x)) == x, "involution fails"
    involutions_multiplicative_on_octonions()
    return SAMPLED_DETAIL


def _sub(x, y):
    """Componentwise difference of two int tuples."""
    return tuple(map(operator.sub, x, y))


def cayley_laws_by_associators() -> str:
    """Check 7 before it ran on the table of unit products: each associator
    (e_i e_j) e_k - e_i (e_j e_k) formed by two more _product calls on a
    unit product and a unit, 1,024 in all, and the sign-map cases by one
    _product each (1,281 calls)."""
    m, dot, signs = cayley._product, cayley._dot, cayley._signs
    c, g, g1 = cayley._CONJ_SIGNS, cayley._GAMMA_SIGNS, cayley._GAMMA1_SIGNS
    e = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    t = [[m(x, y) for y in e] for x in e]
    a = [[[_sub(m(t[i][j], z), m(x, t[j][k])) for k, z in enumerate(e)] for j in range(8)] for i, x in enumerate(e)]
    pairs = [(i, j) for i in range(8) for j in range(i, 8)]
    for i, j in pairs:
        for k in range(8):
            assert not any(map(operator.add, a[i][j][k], a[j][i][k])), f"left alternativity fails at {i, j, k}"
            assert not any(map(operator.add, a[k][i][j], a[k][j][i])), f"right alternativity fails at {i, j, k}"
    gram = [[dot(x, y) for y in e] for x in e]
    for i, j, k, l in [p + q for p in pairs for q in pairs]:
        lhs = dot(t[i][k], t[j][l]) + dot(t[i][l], t[j][k])
        assert lhs == 2 * gram[i][j] * gram[k][l], f"composition fails at {i, j, k, l}"
    for i, x in enumerate(e):
        for j, y in enumerate(e):
            assert signs(c, t[i][j]) == m(signs(c, y), signs(c, x)), f"anti-automorphism fails at {i, j}"
            assert signs(g, t[i][j]) == m(signs(g, x), signs(g, y)), f"gamma not multiplicative on ({i},{j})"
            assert signs(g1, t[i][j]) == m(signs(g1, x), signs(g1, y)), f"gamma1 not multiplicative on ({i},{j})"
        assert signs(g, signs(g, x)) == x and signs(g1, signs(g1, x)) == x, f"involution fails at {i}"
    x, y = (2, -3, 5, -7, 11, -13, 17, -19), (23, 29, -31, 37, -41, 43, 47, -53)
    bilinear = tuple(sum(x[i] * y[j] * t[i][j][k] for i in range(8) for j in range(8)) for k in range(8))
    assert m(x, y) == bilinear, "the product is not the bilinear map of the unit products"
    return TestCheck07.DETAIL


def alternativity_by_pairs() -> str:
    """Check 7's alternativity half before it read one associator table: the
    two linearised laws on the units, each side formed by its own products
    (four per law and case, 2,304 in all)."""
    m, sub = cayley._product, _sub
    e = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    t = [[m(x, y) for y in e] for x in e]
    for i in range(8):
        for j in range(i, 8):
            x, z, xz, zx = e[i], e[j], t[i][j], t[j][i]
            for k, y in enumerate(e):  # x(zy) + z(xy) = (xz)y + (zx)y and (yx)z + (yz)x = y(xz) + y(zx)
                xy, zy, yx, yz = t[i][k], t[j][k], t[k][i], t[k][j]
                assert sub(m(x, zy), m(xz, y)) == sub(m(zx, y), m(z, xy)), f"left alternativity fails at {i, j, k}"
                assert sub(m(yx, z), m(y, xz)) == sub(m(y, zx), m(yz, x)), f"right alternativity fails at {i, j, k}"
    return "alternative on the units"


def first_line(exc) -> str:
    """The message of an assert in this module, without the explanation
    pytest's assertion rewriting appends to it."""
    return str(exc).partition("\n")[0]


def product_with_a_flipped_term(x, y):
    """The doubling product with the term -x1 y1 of e0 written as +x1 y1."""
    z = _product(x, y)
    return (z[0] + 2 * x[1] * y[1],) + z[1:]


def product_with_a_flipped_unit_product(i, j):
    """The doubling product with e_i e_j = s e_k turned into -s e_k and every
    other unit product kept: still bilinear, so only the laws can catch it."""
    k, s = MULT_TABLE[i][j]

    def flipped(x, y):
        z = list(_product(x, y))
        z[k] -= 2 * s * x[i] * y[j]
        return tuple(z)

    return flipped


def product_with_a_doubled_unit_product(i, j):
    """The doubling product with e_i e_j = s e_k turned into 2 e_k and every
    other unit product kept: bilinear, and not a signed unit at (i, j)."""
    k, s = MULT_TABLE[i][j]

    def doubled(x, y):
        z = list(_product(x, y))
        z[k] += (2 - s) * x[i] * y[j]
        return tuple(z)

    return doubled


def product_with_a_spread_unit_product(i, j):
    """The doubling product with e_i e_j = s e_k turned into s e_k + e_l, l
    the next index: bilinear, and not a multiple of one unit at (i, j)."""
    k = MULT_TABLE[i][j][0]

    def spread(x, y):
        z = list(_product(x, y))
        z[(k + 1) % 8] += x[i] * y[j]
        return tuple(z)

    return spread


def product_with_a_quadratic_term(x, y):
    """The doubling product plus x1 x2 on e0: zero on every pair of units."""
    z = _product(x, y)
    return (z[0] + x[1] * x[2],) + z[1:]


#: conjugation's signs with the e7 coordinate left un-negated
CONJ_SIGNS_LEAVING_E7 = (1, -1, -1, -1, -1, -1, -1, 1)

#: an involution's signs that do not respect the product: e1 e4 = e5 but
#: only e5 changes sign
SIGNS_NOT_MULTIPLICATIVE = (1, 1, 1, 1, 1, -1, -1, -1)

#: gamma's signs with e5 left un-negated
GAMMA_SIGNS_LEAVING_E5 = (1, 1, 1, 1, -1, 1, -1, -1)

ALL_FORMS = [
    cayley_laws_on_octonions, cayley_laws_on_numerators, cayley_laws_by_associators, checks.check_07_cayley_laws
]
FORM_IDS = ["oracle", "numerators", "associators", "check"]


def same_failure(monkeypatch, name, value):
    """With cayley's name patched to value, check 7 and the associator form
    both fail, with the same message: that message."""
    monkeypatch.setattr(cayley, name, value)
    with pytest.raises(AssertionError) as failure:
        checks.check_07_cayley_laws()
    with pytest.raises(AssertionError) as oracle_failure:
        cayley_laws_by_associators()
    assert str(failure.value) == first_line(oracle_failure.value)
    return str(failure.value)


class TestCheck07:
    DETAIL = (
        "all octonions, linearised on the 8 units: alternative, composition, anti-automorphism; "
        "gamma, gamma1 automorphisms"
    )

    def test_agrees_with_the_octonion_oracle(self):
        # the sampled forms pass on the same algebra the linearised laws prove
        assert checks.check_07_cayley_laws() == cayley_laws_by_associators() == self.DETAIL
        assert cayley_laws_on_octonions() == cayley_laws_on_numerators() == SAMPLED_DETAIL

    @pytest.mark.parametrize("law", ALL_FORMS, ids=FORM_IDS)
    def test_a_flipped_product_term_fails(self, monkeypatch, law):
        monkeypatch.setattr(cayley, "_product", product_with_a_flipped_term)
        with pytest.raises(AssertionError, match="left alternativity fails"):
            law()

    @pytest.mark.parametrize("law", ALL_FORMS, ids=FORM_IDS)
    def test_a_conjugation_missing_a_sign_fails(self, monkeypatch, law):
        monkeypatch.setattr(cayley, "_CONJ_SIGNS", CONJ_SIGNS_LEAVING_E7)
        with pytest.raises(AssertionError, match="anti-automorphism fails"):
            law()

    @pytest.mark.parametrize("i,j", [(1, 2), (3, 5), (0, 4), (6, 7), (7, 7)])
    def test_a_unit_product_with_its_sign_flipped_fails(self, monkeypatch, i, j):
        flipped = product_with_a_flipped_unit_product(i, j)
        e = [tuple(int(a == b) for b in range(8)) for a in range(8)]
        assert [(a, b) for a in range(8) for b in range(8) if flipped(e[a], e[b]) != _product(e[a], e[b])] == [(i, j)]
        monkeypatch.setattr(cayley, "_product", flipped)
        # a law and its units fail, not the dense pair: left alternativity
        # first, at the case where the pairwise oracle fails
        with pytest.raises(AssertionError, match="left alternativity fails at") as failure:
            checks.check_07_cayley_laws()
        with pytest.raises(AssertionError) as oracle_failure:
            alternativity_by_pairs()
        assert str(failure.value) == first_line(oracle_failure.value)
        assert same_failure(monkeypatch, "_product", flipped) == str(failure.value)

    @pytest.mark.parametrize("i,j", [(1, 2), (3, 5), (0, 0), (0, 4), (7, 7)])
    def test_a_unit_product_of_two_fails_like_the_associator_form(self, monkeypatch, i, j):
        # e_i e_j = 2 e_k is a multiple of one unit, so the table holds it
        # and a law fails where the associator form fails
        doubled = product_with_a_doubled_unit_product(i, j)
        e = [tuple(int(a == b) for b in range(8)) for a in range(8)]
        assert sorted(doubled(e[i], e[j])) == [0] * 7 + [2]
        message = same_failure(monkeypatch, "_product", doubled)
        assert "fails at" in message

    def test_a_unit_product_of_two_units_fails(self, monkeypatch):
        # the table cannot hold s e_k + e_l: check 7 refuses it as it reads
        # the table, and the associator form fails a law
        monkeypatch.setattr(cayley, "_product", product_with_a_spread_unit_product(3, 5))
        with pytest.raises(AssertionError, match="a unit product is not a multiple of one unit"):
            checks.check_07_cayley_laws()
        with pytest.raises(AssertionError, match="fails at"):
            cayley_laws_by_associators()

    def test_alternativity_agrees_with_the_pairwise_oracle(self, monkeypatch):
        assert alternativity_by_pairs() == "alternative on the units"
        monkeypatch.setattr(cayley, "_product", product_with_a_flipped_term)
        with pytest.raises(AssertionError) as failure:
            checks.check_07_cayley_laws()
        with pytest.raises(AssertionError) as oracle_failure:
            alternativity_by_pairs()
        assert str(failure.value) == first_line(oracle_failure.value) == "left alternativity fails at (1, 1, 2)"

    def test_involutions_agree_with_the_octonion_oracle(self):
        assert checks.check_07_cayley_laws() == self.DETAIL
        assert involutions_multiplicative_on_octonions() == "gamma, gamma1 automorphisms"

    @pytest.mark.parametrize("attr,name", [("_GAMMA_SIGNS", "gamma"), ("_GAMMA1_SIGNS", "gamma1")])
    def test_signs_that_are_not_multiplicative_fail(self, monkeypatch, attr, name):
        monkeypatch.setattr(cayley, attr, SIGNS_NOT_MULTIPLICATIVE)
        with pytest.raises(AssertionError, match=f"{name} not multiplicative") as failure:
            checks.check_07_cayley_laws()
        with pytest.raises(AssertionError) as oracle_failure:
            involutions_multiplicative_on_octonions()
        assert str(failure.value) == first_line(oracle_failure.value) == f"{name} not multiplicative on (1,4)"
        assert same_failure(monkeypatch, attr, SIGNS_NOT_MULTIPLICATIVE) == str(failure.value)

    @pytest.mark.parametrize(
        "attr,signs,message",
        [
            ("_GAMMA_SIGNS", GAMMA_SIGNS_LEAVING_E5, "gamma not multiplicative on (1,4)"),
            ("_CONJ_SIGNS", CONJ_SIGNS_LEAVING_E7, "anti-automorphism fails at (1, 6)"),
        ],
        ids=["gamma", "conj"],
    )
    def test_a_flipped_sign_fails_like_the_associator_form(self, monkeypatch, attr, signs, message):
        assert same_failure(monkeypatch, attr, signs) == message

    def test_product_calls(self, monkeypatch):
        # 64 unit products and 1 dense pair: 65 (1,281 with the associator
        # table and one product per sign-map case, 2,689 with four products
        # per law and case)
        calls = []
        product = cayley._product
        monkeypatch.setattr(cayley, "_product", lambda x, y: calls.append(1) or product(x, y))
        checks.check_07_cayley_laws()
        assert len(calls) <= 65
        calls.clear()
        cayley_laws_by_associators()
        assert len(calls) == 1281

    def test_a_term_that_is_not_bilinear_fails_the_dense_pair(self, monkeypatch):
        monkeypatch.setattr(cayley, "_product", product_with_a_quadratic_term)
        with pytest.raises(AssertionError, match="not the bilinear map"):
            checks.check_07_cayley_laws()

    def test_makes_no_random_draw(self, monkeypatch):
        refuse_random(monkeypatch)
        assert checks.check_07_cayley_laws() == self.DETAIL

    def test_one_product_kernel(self, monkeypatch):
        def refuse(x, y):
            raise RuntimeError("product kernel called")

        monkeypatch.setattr(cayley, "_product", refuse)
        with pytest.raises(RuntimeError, match="product kernel called"):
            Octonion.basis(1) * Octonion.basis(2)
        with pytest.raises(RuntimeError, match="product kernel called"):
            checks.check_07_cayley_laws()

    def test_a_check_run_makes_few_octonion_products(self):
        # the table, the automorphism test and checks 7 and 11 run on
        # _product; check 8's 64 doubling-model pairs are a check run's only
        # Octonion products
        code = "from g2orbits import checks\nchecks.run_all(out=lambda line: None)"
        assert int(last_line_of(OCTONION_PRODUCTS.format(code=code))) <= 64

    @pytest.mark.parametrize("argv", [["table"], ["classify", "--tau=1,0,-1", "--json"]], ids=["table", "classify"])
    def test_a_cold_cli_call_makes_no_octonion_product(self, argv):
        code = f"from g2orbits import cli\ncli.main({argv!r})"
        assert last_line_of(OCTONION_PRODUCTS.format(code=code)) == "0"


#: run code in a fresh interpreter and print how many Octonion.__mul__ calls
#: it made, import-time ones included
OCTONION_PRODUCTS = """\
import sys
calls = []
def count(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "__mul__" and type(frame.f_locals.get("self")).__name__ == "Octonion":
        calls.append(1)
sys.setprofile(count)
{code}
sys.setprofile(None)
print(len(calls))"""


def test_only_check_11_draws_from_random():
    tree = ast.parse(inspect.getsource(checks))
    users = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "random" for n in ast.walk(fn))
    }
    assert users == {"check_11_numeric_bridge"}


#: the detail line of check 10 while it sampled 50 random tau
SAMPLED_WEYL_DETAIL = "50 random tau: 12 reflections + rescaling leave the classification unchanged"


def weyl_scaling_on_random_tau() -> str:
    """Check 10 before it ran on the eight vanishing sets: 50 seeded random
    tau, each reflected in the 12 roots and rescaled by one random nonzero
    fraction."""
    rng = random.Random(4242)
    roots = root_system()
    for _ in range(50):
        tau = _random_cartan(rng)
        rep = classify(tau)
        for r in roots:
            rep2 = classify(weyl_reflect(r, tau))
            assert rep2.orbit_type == rep.orbit_type, (tau.tau, r.coeffs)
        c = Fraction(0)
        while c == 0:
            c = _random_fraction(rng)
        rep3 = classify(tau.scaled(c))
        assert rep3.orbit_type == rep.orbit_type, (tau.tau, c)
        assert rep3.stabilizer_dim == rep.stabilizer_dim
        assert rep3.structure == rep.structure
        assert rep3.vanishing == rep.vanishing
    return SAMPLED_WEYL_DETAIL


def vanishing_representatives_in_ball() -> dict:
    """Checks 5 and 10's representatives before the root lines gave them:
    the first point of the radius-6 ball with each vanishing set, keyed by
    its vanishing_mask."""
    reps = {}
    for t1, t2, t3, _, _ in lattice_rows(6):
        mask = vanishing_mask(t1, t2, t3)
        if mask not in reps:
            reps[mask] = CartanElement.of(t1, t2, t3)
    assert len(reps) == 8, f"{len(reps)} vanishing sets in the radius-6 ball, not 8"
    return reps


#: the vanishing set of the short pair (0,1,0)/(1,0,1), which the 50 random
#: tau of the old check 10 never reached
SHORT_PAIR = vanishing_mask(-1, 0, 1)


class TestOrbitChecksOnVanishingSets:
    DETAILS = {
        checks.check_02_four_orbit_types: "radius 6: {'FULL': 1, 'TORUS': 72, 'DIM4_SHORT': 36, 'DIM4_LONG': 18}",
        checks.check_05_stabilizer_fingerprints: "54 DIM4 fingerprints (4,3,1), 72 TORUS fingerprints abelian dim 2",
        checks.check_10_weyl_scaling_invariance: (
            "8 vanishing sets: 12 reflections + 3 rescalings leave the classification unchanged"
        ),
    }

    def test_one_representative_per_vanishing_set(self):
        reps = vanishing_sets()
        assert len(reps) == 8
        assert reps[SHORT_PAIR] == CartanElement.of(-1, 0, 1)
        assert all(vanishing_mask(*tau.num) == mask for mask, tau in reps.items())

    def test_the_ball_search_finds_the_same_sets(self):
        # the search checks 5 and 10 ran on before the root lines replaced it
        balls = vanishing_representatives_in_ball()
        assert set(balls) == set(vanishing_sets())
        assert balls[SHORT_PAIR] == CartanElement.of(-6, 0, 6)

    @pytest.mark.parametrize("check", list(DETAILS), ids=lambda f: f.__name__[:8])
    def test_makes_no_random_draw(self, monkeypatch, check):
        refuse_random(monkeypatch)
        assert check() == self.DETAILS[check]

    @pytest.mark.parametrize(
        "check,expected",
        [
            (checks.check_02_four_orbit_types, 0),
            (checks.check_05_stabilizer_fingerprints, 8),
            (checks.check_10_weyl_scaling_invariance, 8 * (1 + 12 + len(checks.SCALES))),
        ],
        ids=["02", "05", "10"],
    )
    def test_classify_calls(self, monkeypatch, check, expected):
        # one call per vanishing set and image, none per lattice point
        calls = []
        monkeypatch.setattr(checks, "classify", lambda tau: calls.append(tau) or classify(tau))
        check()
        assert len(calls) == expected

    def test_checks_5_and_10_share_one_search(self):
        checks.check_05_stabilizer_fingerprints()  # fills the orbit-type memos
        vanishing_sets.cache_clear()
        checks.check_05_stabilizer_fingerprints()
        checks.check_10_weyl_scaling_invariance()
        info = vanishing_sets.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 1, 1)

    def test_a_ninth_set_in_the_ball_fails_check_2(self, monkeypatch):
        # drop the short pair (0,1,0)/(1,0,1) from the root lines' sets
        sets = {mask: tau for mask, tau in vanishing_sets().items() if mask != SHORT_PAIR}
        monkeypatch.setattr(checks, "vanishing_sets", lambda: sets)
        with pytest.raises(AssertionError, match="radius-6 vanishing sets"):
            checks.check_02_four_orbit_types()

    def test_scales_are_nonzero_and_of_every_kind(self):
        assert 0 not in checks.SCALES
        assert any(c < 0 for c in checks.SCALES)
        assert any(c.denominator > 1 for c in checks.SCALES)
        assert any(c.denominator >= 10**8 for c in checks.SCALES)

    def test_a_short_pair_answering_long_fails_check_10(self, monkeypatch):
        assert [r.coeffs for r in roots_in(SHORT_PAIR)] == [(0, 1, 0), (1, 0, 1)]
        stabilizer = orbits._stabilizer
        monkeypatch.setattr(
            orbits, "_stabilizer", lambda mask: (4, OrbitType.DIM4_LONG) if mask == SHORT_PAIR else stabilizer(mask)
        )
        with pytest.raises(AssertionError):
            checks.check_10_weyl_scaling_invariance()

    def test_a_short_pair_fingerprint_of_4_4_0_fails_check_5(self, monkeypatch):
        structure = orbits._structure
        wrong = SubalgebraSummary(dim=4, derived_dim=4, center_dim=0, is_abelian=False)
        monkeypatch.setattr(orbits, "_structure", lambda mask: wrong if mask == SHORT_PAIR else structure(mask))
        with pytest.raises(AssertionError):
            checks.check_05_stabilizer_fingerprints()

    def test_agrees_with_the_sampled_oracle(self):
        # the 50-tau form passes on the classifier the vanishing sets prove
        assert checks.check_10_weyl_scaling_invariance() == self.DETAILS[checks.check_10_weyl_scaling_invariance]
        assert weyl_scaling_on_random_tau() == SAMPLED_WEYL_DETAIL

    def test_sampled_oracle_misses_three_vanishing_sets(self):
        rng = random.Random(4242)
        masks = set()
        for _ in range(50):
            masks.add(vanishing_mask(*_random_cartan(rng).num))
            while _random_fraction(rng) == 0:
                pass
        assert len(masks) == 5
        assert not masks & {vanishing_mask(0, 0, 0), SHORT_PAIR, vanishing_mask(-1, 2, -1)}


def test_check_11_detail_is_pinned():
    # the residuals of exp(tD) in plain floats, summed in a fixed order
    detail = "20 samples: orthogonality <= 9.5e-15, automorphism <= 4.3e-15"
    assert checks.check_11_numeric_bridge() == detail


def omul(u, v):
    """Check 11's float product before it ran on cayley._product: a walk of
    MULT_TABLE adding s * u_i * v_j into coordinate k for e_i e_j = s e_k."""
    out = [0.0] * 8
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            k, s = MULT_TABLE[i][j]
            out[k] += s * ui * vj
    return out


def apply_rows(a, u):
    return [sum(map(operator.mul, row, u)) for row in a]


def bridge_draws():
    """Check 11's 20 draws, as it makes them: (exp(tD) as rows, x, y)."""
    b = derivation_basis()
    rng = random.Random(1618)

    def unit():
        u = [rng.uniform(-1, 1) for _ in range(8)]
        n = math.sqrt(sum(v * v for v in u))
        return [v / n for v in u]

    draws = []
    for _ in range(20):
        d = b.from_coordinates([rng.randint(-2, 2) for _ in range(b.dim)])
        a = exp_derivation_numeric(d, rng.uniform(-2.0, 2.0))
        draws.append((a, unit(), unit()))
    return draws


def automorphism_residual(product, a, x, y) -> float:
    lhs = apply_rows(a, product(x, y))
    return max(abs(p - q) for p, q in zip(lhs, product(apply_rows(a, x), apply_rows(a, y))))


finite_floats = st.lists(st.floats(-1e150, 1e150), min_size=8, max_size=8)


class TestCheck11:
    """Both fold each coordinate over i = 0..7 in the same order; (s u) v is
    s (u v) and a + (-b) is a - b exactly for s = +-1, so the products differ
    at most in the sign of an exact zero, which == does not see."""

    def test_multiplies_the_pairs_of_its_draws(self, monkeypatch):
        seen = []
        product = cayley._product
        monkeypatch.setattr(cayley, "_product", lambda x, y: seen.append((x, y)) or product(x, y))
        checks.check_11_numeric_bridge()
        assert seen == [p for a, x, y in bridge_draws() for p in ((x, y), (apply_rows(a, x), apply_rows(a, y)))]

    def test_product_equals_omul_on_its_draws(self):
        for a, x, y in bridge_draws():
            for u, v in ((x, y), (apply_rows(a, x), apply_rows(a, y))):
                assert list(cayley._product(u, v)) == omul(u, v)
            assert automorphism_residual(cayley._product, a, x, y) == automorphism_residual(omul, a, x, y)

    @settings(max_examples=300, deadline=None, database=None)
    @given(finite_floats, finite_floats)
    def test_product_equals_omul_on_floats(self, u, v):
        assert list(cayley._product(u, v)) == omul(u, v)

    def test_a_broken_product_fails(self, monkeypatch):
        monkeypatch.setattr(cayley, "_product", product_with_a_flipped_term)
        with pytest.raises(AssertionError, match="automorphism residual"):
            checks.check_11_numeric_bridge()

    def test_no_check_walks_the_table(self):
        # the unit products are _product's, and check 7 reads them off it
        names = {n.id for n in ast.walk(ast.parse(inspect.getsource(checks))) if isinstance(n, ast.Name)}
        assert "MULT_TABLE" not in names


def patched_basis(monkeypatch, structure=None, gram=None):
    """Make check 9 see the canonical basis with its structure constants
    or its Killing Gram matrix replaced; the Gram matrix stays the true one
    unless gram is given."""
    b = derivation_basis()
    patched = G2AlgebraBasis(b.basis, structure or b.structure_constants, b._pivots)
    gram = gram or b.killing_gram()
    monkeypatch.setattr(G2AlgebraBasis, "killing_gram", lambda self: gram)
    monkeypatch.setattr(checks, "derivation_basis", lambda: patched)


def flipped_constant(c, i, j, k):
    """Structure constants with c[i][j][k] and its partner c[j][i][k] negated."""
    rows = [[list(ck) for ck in ci] for ci in c]
    rows[i][j][k] = -rows[i][j][k]
    rows[j][i][k] = -rows[j][i][k]
    return tuple(tuple(tuple(ck) for ck in ci) for ci in rows)


def jacobi_by_ad_products(b):
    """Check 9's Jacobi half before the cyclic sum on the structure
    constants replaced it: ad is a Lie homomorphism, ad [D_i, D_j] =
    [ad D_i, ad D_j], on all 91 basis pairs, through 14x14 products."""
    c = b.structure_constants
    n = b.dim
    ad = [adjoint_matrix(d, b) for d in b.basis]
    for i in range(n):
        for j in range(i + 1, n):
            assert b.ad(c[i][j]) == difference(product(ad[i], ad[j]), product(ad[j], ad[i])), f"Jacobi fails at ({i},{j})"


def leading_minors_by_det(gram):
    """Check 9's definiteness half before one Bareiss pass replaced it: the
    leading minors of -B, each by its own determinant (14 calls)."""
    neg = scaled(gram, -1)
    for k in range(1, gram.rows + 1):
        minor = Matrix(k, k, [neg.entry(i, j) for i in range(k) for j in range(k)])
        assert det(minor) > 0, f"leading minor {k} of -B not positive"


def lie_algebra_integrity_by_products():
    """Check 9 before its symmetry and ad-invariance halves ran on the
    Gram's int rows: the Gram compared with its transpose, and for each k
    the 14x14 product T = c[k] G tested by T + T^t = 0."""
    b = checks.derivation_basis()
    c = b.structure_constants
    n = b.dim
    nz = [[[(l, v) for l, v in enumerate(cij) if v] for cij in ci] for ci in c]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [0] * n
                for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, v in nz[p][q]:
                        for m, w in nz[l][r]:
                            acc[m] += v * w
                assert not any(acc), f"Jacobi fails at ({i},{j},{k})"
    gram = b.killing_gram()
    assert gram == transpose(gram), "Killing Gram matrix not symmetric"
    a, prev = [[-v for v in gram.row(i)] for i in range(n)], 1
    for k, top in enumerate(a):
        assert top[k] > 0, f"leading minor {k + 1} of -B not positive"
        a[k + 1 :] = [[(v * top[k] - row[k] * w) // prev for v, w in zip(row, top)] for row in a[k + 1 :]]
        prev = top[k]
    for k in range(n):
        t = product(Matrix.from_rows(c[k]), gram)
        assert is_zero(matrix_sum(t, transpose(t))), f"Killing form not ad-invariant under D_{k}"


def failure_message(run) -> str | None:
    """The first line of the AssertionError run() raises, or None."""
    try:
        run()
    except AssertionError as exc:
        return first_line(exc)
    return None


def one_sign_flipped(c, i, j, k):
    """Structure constants with c[i][j][k] alone negated: its partner
    c[j][i][k] keeps its sign, so the constants are no longer antisymmetric."""
    rows = [[list(ck) for ck in ci] for ci in c]
    rows[i][j][k] = -rows[i][j][k]
    return tuple(tuple(tuple(ck) for ck in ci) for ci in rows)


def minor_message(run) -> str | None:
    """The message of the AssertionError run() raises if it is about a
    leading minor, else None."""
    try:
        run()
    except AssertionError as exc:
        message = first_line(exc)
        return message if message.startswith("leading minor") else None
    return None


#: the 91 entries above the diagonal and the 14 on it of a symmetric int matrix
symmetric_grams = st.tuples(
    st.lists(st.integers(-3, 3), min_size=91, max_size=91), st.lists(st.integers(-40, 4), min_size=14, max_size=14)
)


def gram_with(entries):
    """The Killing Gram matrix with the given {(i, j): value} entries."""
    rows = row_lists(derivation_basis().killing_gram())
    for (i, j), v in entries.items():
        rows[i][j] = v
    return Matrix.from_rows(rows)


class TestCheck09CatchesABrokenAlgebra:
    def test_intact_basis_passes(self, monkeypatch):
        patched_basis(monkeypatch)
        checks.check_09_lie_algebra_integrity()

    @pytest.mark.parametrize("pick", [0, 17, 50, 99])
    def test_flipped_structure_constant(self, monkeypatch, pick):
        c = derivation_basis().structure_constants
        nonzero = [
            (i, j, k) for i in range(14) for j in range(i + 1, 14) for k in range(14) if c[i][j][k]
        ]
        assert len(nonzero) == 100
        patched_basis(monkeypatch, structure=flipped_constant(c, *nonzero[pick]))
        with pytest.raises(AssertionError, match="Jacobi fails"):
            checks.check_09_lie_algebra_integrity()
        with pytest.raises(AssertionError, match="Jacobi fails"):
            jacobi_by_ad_products(checks.derivation_basis())

    @pytest.mark.parametrize("i,j,v", [(0, 13, 8), (0, 1, 1), (5, 7, -7)])
    def test_symmetric_change_of_an_off_diagonal_gram_entry(self, monkeypatch, i, j, v):
        # Jacobi and the 14 minors still hold; only ad-invariance fails
        patched_basis(monkeypatch, gram=gram_with({(i, j): v, (j, i): v}))
        with pytest.raises(AssertionError, match="not ad-invariant"):
            checks.check_09_lie_algebra_integrity()

    @pytest.mark.parametrize("k,entries", [(1, {(0, 0): 0}), (7, {(6, 6): 10**6}), (14, {(13, 13): 10**6})])
    def test_first_minor_not_positive_agrees_with_the_determinants(self, monkeypatch, k, entries):
        gram = gram_with(entries)
        with pytest.raises(AssertionError) as oracle_failure:
            leading_minors_by_det(gram)
        patched_basis(monkeypatch, gram=gram)
        with pytest.raises(AssertionError) as failure:
            checks.check_09_lie_algebra_integrity()
        assert str(failure.value) == first_line(oracle_failure.value) == f"leading minor {k} of -B not positive"

    @settings(max_examples=60, deadline=None, database=None)
    @given(symmetric_grams)
    def test_bareiss_pivots_agree_with_the_determinants(self, gram_data):
        # a symmetric int matrix with a mostly negative diagonal in place of
        # B: the first failing minor, or none, is the same in both forms
        upper, diag = gram_data
        entries = dict(zip([(i, j) for i in range(14) for j in range(i + 1, 14)], upper))
        entries = {**entries, **{(j, i): v for (i, j), v in entries.items()}, **{(i, i): v for i, v in enumerate(diag)}}
        gram = gram_with(entries)
        with pytest.MonkeyPatch.context() as monkeypatch:
            patched_basis(monkeypatch, gram=gram)
            check = minor_message(checks.check_09_lie_algebra_integrity)
        assert check == minor_message(lambda: leading_minors_by_det(gram))

    def test_one_flipped_gram_entry(self, monkeypatch):
        g = derivation_basis().killing_gram()
        patched_basis(monkeypatch, gram=gram_with({(0, 13): -g.entry(0, 13)}))
        with pytest.raises(AssertionError):
            checks.check_09_lie_algebra_integrity()


class TestCheck09RowForm:
    """Symmetry and ad-invariance on the Gram's int rows and the sparse
    constants fail exactly where the transpose and the 14 products of
    lie_algebra_integrity_by_products do, with the same message."""

    def test_intact_basis_passes_both_forms(self, monkeypatch):
        patched_basis(monkeypatch)
        assert failure_message(checks.check_09_lie_algebra_integrity) is None
        assert failure_message(lie_algebra_integrity_by_products) is None

    @pytest.mark.parametrize("i,j,v", [(0, 13, -7), (13, 0, 0), (2, 10, 1), (4, 5, 3)])
    def test_one_asymmetric_pair(self, monkeypatch, i, j, v):
        patched_basis(monkeypatch, gram=gram_with({(i, j): v}))
        message = failure_message(checks.check_09_lie_algebra_integrity)
        assert message == failure_message(lie_algebra_integrity_by_products) == "Killing Gram matrix not symmetric"

    @pytest.mark.parametrize("pick", range(0, 200, 13))
    def test_one_sign_flipped_constant(self, monkeypatch, pick):
        c = derivation_basis().structure_constants
        nonzero = [(i, j, k) for i in range(14) for j in range(14) for k in range(14) if c[i][j][k]]
        assert len(nonzero) == 200
        patched_basis(monkeypatch, structure=one_sign_flipped(c, *nonzero[pick]))
        message = failure_message(checks.check_09_lie_algebra_integrity)
        assert message is not None
        assert message == failure_message(lie_algebra_integrity_by_products)

    @pytest.mark.parametrize("m", [0, 6, 13])
    def test_a_basis_vector_negated_in_the_constants_alone(self, monkeypatch, m):
        # c[i][j][k] s_i s_j s_k for s = -1 at m alone: the constants of the
        # basis with D_m negated, so Jacobi and the minors still hold, but
        # the true Gram is that of the other basis
        c = derivation_basis().structure_constants
        s = [-1 if i == m else 1 for i in range(14)]
        negated = tuple(tuple(tuple(s[i] * s[j] * s[k] * v for k, v in enumerate(cij)) for j, cij in enumerate(ci))
                        for i, ci in enumerate(c))
        patched_basis(monkeypatch, structure=negated)
        message = failure_message(checks.check_09_lie_algebra_integrity)
        assert message == failure_message(lie_algebra_integrity_by_products)
        assert message.startswith("Killing form not ad-invariant under D_")

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 13), st.integers(0, 13)), st.integers(-3, 3), max_size=3))
    def test_symmetric_changes_of_the_gram(self, changes):
        # small symmetric changes keep the minors positive or fail them;
        # the first failing k of ad-invariance is the same in both forms
        g = derivation_basis().killing_gram()
        entries = {}
        for (i, j), v in changes.items():
            entries[i, j] = entries[j, i] = g.entry(i, j) + v
        with pytest.MonkeyPatch.context() as monkeypatch:
            patched_basis(monkeypatch, gram=gram_with(entries))
            message = failure_message(checks.check_09_lie_algebra_integrity)
            assert message == failure_message(lie_algebra_integrity_by_products)


def test_sampled_ad_invariance_of_the_old_check_09():
    # the 100 triples that check 9 drew before the trilinear form replaced
    # them, through 8x8 brackets and the Killing form: the oracle it keeps
    b = derivation_basis()
    rng = random.Random(909)
    for _ in range(100):
        x, y, z = (b.from_coordinates([rng.randint(-3, 3) for _ in range(b.dim)]) for _ in range(3))
        assert killing_form(bracket(z, x), y, b) + killing_form(x, bracket(z, y), b) == 0


def test_leading_minors_of_the_old_check_09():
    # the 14 determinants check 9 took before one Bareiss pass read the
    # minors off its pivots: the oracle it keeps
    leading_minors_by_det(derivation_basis().killing_gram())


def test_ad_homomorphism_jacobi_of_the_old_check_09():
    # the 91 pairs of 14x14 products that check 9 formed before the cyclic
    # sum on the int structure constants replaced them: the oracle it keeps
    jacobi_by_ad_products(derivation_basis())


def test_check_09_forms_no_bracket_and_no_killing_form(monkeypatch):
    # a Killing form of 8x8 derivations needs their adjoint matrices, so it
    # reads coordinates off the basis: forbid the read-off (the package has
    # no 8x8 bracket left to forbid)
    def forbidden(*args):
        raise AssertionError("check 9 formed an 8x8 bracket or a Killing form of derivations")

    monkeypatch.setattr(derivations, "adjoint_matrix", forbidden)
    monkeypatch.setattr(G2AlgebraBasis, "coordinates", forbidden)
    assert "ad-invariance on all basis triples" in checks.check_09_lie_algebra_integrity()
