import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2orbits import derivations, orbits, roots
from g2orbits.derivations import G2AlgebraBasis, adjoint_matrix, derivation_basis
from g2orbits.errors import InternalInvariantError, SumNonzeroError
from g2orbits.linalg import Matrix, kernel_basis, rank, solve
from g2orbits.orbits import centralizer, classify, lattice_rows, scan
from g2orbits.roots import (
    TAU_GENERIC,
    TAU_H1,
    TAU_H2,
    CartanElement,
    _cartan_ad,
    _cartan_gram,
    canonical_root_coeffs,
    cartan_adjoint,
    cartan_basis,
    cartan_element,
    root_system,
    roots_in,
    vanishing_mask,
    vanishing_roots,
    weyl_reflect,
)
from test_derivations import (
    bracket,
    is_skew,
    is_zero_derivation,
    killing_form,
    kills_unit,
    leibniz_by_products,
    satisfies_leibniz,
)


def F(n, d=1):
    return Fraction(n, d)


def random_cartan(rng):
    t1 = F(rng.randint(-6, 6), rng.randint(1, 4))
    t2 = F(rng.randint(-6, 6), rng.randint(1, 4))
    return CartanElement.of(t1, t2, -t1 - t2)


@lru_cache(maxsize=1)
def cartan_gram_by_killing_form() -> Matrix:
    """roots._cartan_gram before it became the trace form of ad(H1) and
    ad(H2): the Killing form of the 8x8 generators, read off the basis."""
    b = derivation_basis()
    h1, h2 = cartan_basis()
    g11 = killing_form(h1, h1, b)
    g12 = killing_form(h1, h2, b)
    g22 = killing_form(h2, h2, b)
    return Matrix.from_rows([[g11, g12], [g12, g22]])


def reflect_by_solve(root, tau):
    """s_r(tau) with the root's Killing dual solved afresh on every call,
    on the Gram matrix of the Killing form rather than roots' trace form."""
    rv = (root.value(TAU_H1), root.value(TAU_H2))
    x = solve(cartan_gram_by_killing_form(), rv)
    coef = Fraction(2 * root.value(tau), rv[0] * x[0] + rv[1] * x[1])
    return CartanElement(
        tuple(tau.tau[i] - coef * (x[0] * TAU_H1[i] + x[1] * TAU_H2[i]) for i in range(3))
    )


def vanishing_by_fractions(tau):
    return tuple(r for r in root_system() if r.value(tau) == 0)


NINE_DIGITS = 10**9 - 1
fractions_9 = st.builds(F, st.integers(-NINE_DIGITS, NINE_DIGITS), st.integers(1, NINE_DIGITS))
# small ones too, so that a wrongly cleared generic tau can land on a wall
rationals = st.one_of(fractions_9, st.builds(F, st.integers(-6, 6), st.integers(1, 12)))
oracle_settings = settings(max_examples=100, deadline=None, database=None)


@st.composite
def rational_taus(draw):
    """A generic tau, one on a short or a long root's wall, or zero, with
    9-digit or small numerators and denominators, rescaled and
    Weyl-reflected."""
    a, b = draw(rationals), draw(rationals)
    base = draw(st.sampled_from([(a, b, -a - b), (a, -a, 0), (a, a, -2 * a), (0, 0, 0)]))
    tau = CartanElement(base).scaled(draw(rationals.filter(bool)))
    for i in draw(st.lists(st.integers(0, 11), max_size=4)):
        tau = reflect_by_solve(root_system()[i], tau)
    return tau


class TestCartanElement:
    def test_sum_check(self):
        with pytest.raises(SumNonzeroError):
            CartanElement.of(1, 1, 1)

    @oracle_settings
    @given(fractions_9, fractions_9, st.one_of(st.just(F(0)), fractions_9))
    def test_sum_check_agrees_with_the_fraction_sum(self, a, b, delta):
        # the check adds cleared integer numerators; the oracle adds the
        # Fractions, for 9-digit numerators and denominators
        tau = (a, b, -a - b + delta)
        if a + b + tau[2] == 0:
            assert CartanElement(tau).tau == tau
        else:
            with pytest.raises(SumNonzeroError, match=r"components must sum to zero, got \("):
                CartanElement(tau)

    def test_zero(self):
        assert CartanElement.of(0, 0, 0).is_zero()

    def test_scaled(self):
        assert CartanElement.of(1, 0, -1).scaled(F(3, 2)) == CartanElement.of(F(3, 2), 0, F(-3, 2))

    def test_scaled_rejects_float(self):
        with pytest.raises(TypeError):
            CartanElement.of(1, 0, -1).scaled(0.1)


class TestStoredLikeOctonions:
    """CartanElement keeps int numerators over one denominator, like an
    Octonion; tau is their Fraction view."""

    @oracle_settings
    @given(fractions_9, fractions_9, st.integers(-NINE_DIGITS, NINE_DIGITS))
    def test_fields_equality_hash_and_root_values(self, a, b, k):
        triple = (a, b, -a - b)
        built = [
            CartanElement(triple),
            CartanElement(tuple(str(t) for t in triple)),
            CartanElement(tuple(2 * t for t in triple)).scaled(F(1, 2)),
        ]
        for tau in built:
            assert tau.tau == triple and all(type(t) is Fraction for t in tau.tau)
            assert tau.den > 0 and gcd(tau.den, *tau.num) == 1
            assert tuple(F(n, tau.den) for n in tau.num) == triple
            assert tau == built[0] and hash(tau) == hash(built[0])
        ints = CartanElement.of(k, -2 * k, k)
        assert ints.tau == (k, -2 * k, k) and (ints.num, ints.den) == ((k, -2 * k, k), 1)
        for r in root_system():
            for tau in (built[0], ints):
                v = r.value(tau)
                assert v == sum(c * t for c, t in zip(r.coeffs, tau.tau))
                assert type(v) is (int if F(v).denominator == 1 else Fraction)

    def test_repr_and_zero(self):
        assert repr(CartanElement.of(1, 0, -1)) == "CartanElement(1, 0, -1)"
        assert repr(CartanElement.of(F(1, 2), F(1, 2), -1)) == "CartanElement(1/2, 1/2, -1)"
        assert CartanElement.of(0, 0, 0).scaled(F(5, 7)) == CartanElement.of(0, 0, 0)
        assert CartanElement.of(F(1, 2), 0, F(-1, 2)).scaled(0).is_zero()

    def test_rational_tau_needs_no_fraction_in_roots(self, monkeypatch):
        taus = [
            CartanElement.of(F(1, 2), F(-1, 3), F(-1, 6)),
            CartanElement.of(F(2, 5), 0, F(-2, 5)),
            CartanElement.of(F(3, 7), F(3, 7), F(-6, 7)),
            CartanElement.of(0, 0, 0),
        ]
        expected = [
            (vanishing_by_fractions(tau), [reflect_by_solve(r, tau) for r in root_system()])
            for tau in taus
        ]

        def forbidden(*args):
            raise AssertionError("roots solved or built a Fraction for a stored tau")

        monkeypatch.setattr(roots, "solve", forbidden)
        monkeypatch.setattr(roots, "Fraction", forbidden)
        for tau, (van, images) in zip(taus, expected):
            assert vanishing_roots(tau) == van
            assert [weyl_reflect(r, tau) for r in root_system()] == images


class TestCartanBasis:
    def test_generators_commute(self):
        h1, h2 = cartan_basis()
        assert is_zero_derivation(bracket(h1, h2))

    def test_generators_are_derivations(self):
        for h in cartan_basis():
            assert satisfies_leibniz(h)
            assert leibniz_by_products(h)
            assert kills_unit(h)
            assert is_skew(h)

    def test_in_span_and_independent(self):
        b = derivation_basis()
        h1, h2 = cartan_basis()
        b.coordinates(h1)
        b.coordinates(h2)
        assert rank(Matrix.from_rows([h1.flat(), h2.flat()])) == 2

    def test_centralizer_is_the_cartan_itself(self):
        # joint kernel of ad H1 and ad H2 is exactly 2-dimensional
        b = derivation_basis()
        h1, h2 = cartan_basis()
        a1, a2 = adjoint_matrix(h1, b), adjoint_matrix(h2, b)
        stacked = Matrix.from_rows(a1.row_lists() + a2.row_lists())
        kern = kernel_basis(stacked)
        assert len(kern) == 2

    def test_sign_slip_in_a_generator_aborts(self, monkeypatch):
        rotation = roots._rotation_matrix

        def slipped(tau):
            rows = rotation(tau).row_lists()
            rows[3][2] = -rows[3][2]  # the (e2, e3) block is no longer skew
            return Matrix.from_rows(rows)

        monkeypatch.setattr(roots, "_rotation_matrix", slipped)
        cartan_basis.cache_clear()
        try:
            with pytest.raises(InternalInvariantError, match="fails the Leibniz check"):
                cartan_basis()
        finally:
            cartan_basis.cache_clear()

    def test_membership_is_read_off_the_derivation_basis(self, monkeypatch):
        def forbidden():
            raise AssertionError("cartan_basis re-ran the Leibniz equations")

        derivation_basis()
        monkeypatch.setattr(derivations, "leibniz_system", forbidden)
        cartan_basis.cache_clear()
        try:
            h1, h2 = cartan_basis()
        finally:
            cartan_basis.cache_clear()
        assert h1 == cartan_element(CartanElement(TAU_H1))
        assert h2 == cartan_element(CartanElement(TAU_H2))


class TestCartanSubalgebraStructure:
    def test_fingerprint_is_abelian_rank_two(self):
        from g2orbits.derivations import derivation_basis, subalgebra_structure

        b = derivation_basis()
        s = subalgebra_structure([b.coordinates(h) for h in cartan_basis()], b)
        assert (s.dim, s.derived_dim, s.center_dim, s.is_abelian) == (2, 0, 2, True)


class TestCartanElementMap:
    def test_zero(self):
        assert is_zero_derivation(cartan_element(CartanElement.of(0, 0, 0)))

    def test_h1_by_definition(self):
        h1, h2 = cartan_basis()
        assert cartan_element(CartanElement(TAU_H1)) == h1
        assert cartan_element(CartanElement(TAU_H2)) == h2

    def test_linearity(self):
        h1, h2 = cartan_basis()
        assert cartan_element(CartanElement.of(1, 0, -1)).matrix == h1.matrix + h2.matrix
        rng = random.Random(40)
        for _ in range(10):
            s = random_cartan(rng)
            t = random_cartan(rng)
            a, b_ = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
            combo = CartanElement(tuple(a * x + b_ * y for x, y in zip(s.tau, t.tau)))
            expected = cartan_element(s).matrix * a + cartan_element(t).matrix * b_
            assert cartan_element(combo).matrix == expected

    def test_sum_nonzero_rejected(self):
        with pytest.raises(SumNonzeroError):
            cartan_element((1, 1, 1))


class TestCartanAdjoint:
    """ad(tau) = t1 ad(H1) - t3 ad(H2) in the 14 coordinates, against the
    8x8 rotation of cartan_element(tau) read back off the basis."""

    @oracle_settings
    @given(rational_taus())
    def test_equals_the_read_off_rotation(self, tau):
        old = adjoint_matrix(cartan_element(tau), derivation_basis())
        ad = cartan_adjoint(tau)
        assert ad == old
        assert all(type(v) is (int if F(v).denominator == 1 else Fraction) for v in ad.entries)
        assert centralizer(tau) == kernel_basis(old)

    def test_generators_are_int_matrices(self):
        b = derivation_basis()
        ads = _cartan_ad()
        assert ads == tuple(adjoint_matrix(h, b) for h in cartan_basis())
        assert all(type(v) is int for ad in ads for v in ad.entries)
        assert (cartan_adjoint(TAU_H1), cartan_adjoint(TAU_H2)) == ads

    def test_cartan_gram_is_the_killing_form_of_the_generators(self):
        gram = _cartan_gram()
        assert gram == cartan_gram_by_killing_form()
        assert all(type(v) is int for v in gram.entries)

    def test_roots_and_orbits_build_no_rotation_and_read_none_back(self, monkeypatch):
        saved = root_system()
        ball = [CartanElement.of(t1, t2, t3) for t1, t2, t3, _, _ in lattice_rows(3)]
        expected = [(classify(tau), centralizer(tau)) for tau in ball], scan(6)
        _cartan_ad()
        caches = (
            root_system,
            _cartan_gram,
            roots._integer_roots,
            orbits._stabilizer,
            orbits._structure,
        )

        def forbidden(*args):
            raise AssertionError("a Cartan element was built as an 8x8 rotation or read off the basis")

        monkeypatch.setattr(roots, "_rotation_matrix", forbidden)
        monkeypatch.setattr(G2AlgebraBasis, "coordinates", forbidden)
        for cache in caches:
            cache.cache_clear()
        try:
            assert root_system() == saved
            assert ([(classify(tau), centralizer(tau)) for tau in ball], scan(6)) == expected
        finally:
            for cache in caches:
                cache.cache_clear()


def root_system_by_scan():
    """roots.root_system before it moved to the graded blocks: kernels of
    the 14x14 ad(H*)^2 + v^2 for v = 1, 2, ... until the root planes and
    the Cartan fill the algebra, each plane's values read off ad(H1) and
    ad(H2) on its first kernel vector."""
    ad_star = cartan_adjoint(TAU_GENERIC)
    ad1, ad2 = _cartan_ad()
    zero_dim = 14 - rank(ad_star)
    assert zero_dim == 2
    square = ad_star * ad_star
    vmax = isqrt(-square.trace())  # the squared root values sum to -tr(ad(H*)^2)
    eye = Matrix.identity(14)
    raw = []
    for v in range(1, vmax + 1):
        if len(raw) + zero_dim == 14:
            break
        kern = kernel_basis(square + eye * (v * v))
        if not kern:
            continue
        assert len(kern) == 2
        w = kern[0]
        u = ad_star.apply(w)
        r1, r2 = (roots._root_value(ad, w, u, v) for ad in (ad1, ad2))
        for s1, s2 in ((r1, r2), (-r1, -r2)):
            raw.append((canonical_root_coeffs((s1, 0, -s2)), s1, s2))
    assert len(raw) + zero_dim == 14
    lengths, coroots = {}, {}
    for coeffs, r1, r2 in raw:
        x = solve(cartan_gram_by_killing_form(), (r1, r2))
        lengths[coeffs] = -(r1 * x[0] + r2 * x[1])
        dual = [x[0] * a + x[1] * b for a, b in zip(TAU_H1, TAU_H2)]
        coroots[coeffs] = CartanElement([-2 * h / lengths[coeffs] for h in dual])
    short = min(lengths.values())
    return tuple(
        roots.Root(c, lengths[c], "short" if lengths[c] == short else "long", coroots[c])
        for c in sorted(lengths)
    )


def root_inner(a, b):
    """(a, b) in the form dual to -B, from the roots' values on H1 and H2."""
    ra = (a.value(TAU_H1), a.value(TAU_H2))
    rb = (b.value(TAU_H1), b.value(TAU_H2))
    x = solve(cartan_gram_by_killing_form(), ra)
    return -(rb[0] * x[0] + rb[1] * x[1])


class TestRootSystem:
    def test_twelve_roots(self):
        assert len(root_system()) == 12

    def test_scan_stops_once_the_algebra_is_full(self, monkeypatch):
        # the 14x14 scan, which root_system() replaced, finds the same roots:
        # one rank for the Cartan, then a kernel of ad(H*)^2 + v^2 for
        # v = 1..7; the largest |alpha(H*)| is 7, so v never reaches vmax = 14
        calls, ranks = [], []
        kernel, rank_of = kernel_basis, rank
        monkeypatch.setitem(globals(), "kernel_basis", lambda m: calls.append(m) or kernel(m))
        monkeypatch.setitem(globals(), "rank", lambda m: ranks.append(m) or rank_of(m))
        assert root_system_by_scan() == root_system()
        assert (len(calls), ranks) == (7, [cartan_adjoint(TAU_GENERIC)])

    def test_roots_come_from_the_graded_blocks(self, monkeypatch):
        # a rank of each block of ad(H*) (the Cartan's 2x2, three 4x4), then
        # one 2x2 kernel per root plane: no 14x14 elimination
        expected = root_system()
        kernels, ranks = [], []
        monkeypatch.setattr(roots, "kernel_basis", lambda m: kernels.append(m) or kernel_basis(m))
        monkeypatch.setattr(roots, "rank", lambda m: ranks.append(m) or rank(m))
        assert roots.root_system.__wrapped__() == expected  # uncached
        assert [(m.rows, m.cols) for m in kernels] == [(2, 2)] * 6
        assert [(m.rows, m.cols) for m in ranks] == [(2, 2), (4, 4), (4, 4), (4, 4)]

    def test_blocks_are_the_graded_pairs(self):
        # ad(H1) and ad(H2) kill the Cartan (degree 1) and map each block
        # of degrees 2+3, 4+5 and 6+7 into itself
        blocks = [[0, 1, 12, 13], [2, 3, 9, 10], [4, 5, 7, 8]]
        pivots = derivation_basis()._pivots
        assert [sorted({pivots[i] >> 3 ^ pivots[i] & 7 for i in b}) for b in blocks] == [[2, 3], [4, 5], [6, 7]]
        inside = {(k, j) for b in blocks for k in b for j in b}
        for ad in _cartan_ad():
            assert all(ad.entry(k, j) == 0 for k in range(14) for j in range(14) if (k, j) not in inside)

    def test_a_leak_out_of_a_block_aborts(self, monkeypatch):
        ad1, ad2 = _cartan_ad()
        entries = list(ad1.entries)
        entries[2 * 14 + 0] = 1  # [H1, D_0] picks up a D_2 part: degree 3 to degree 5
        monkeypatch.setattr(roots, "_cartan_ad", lambda: (Matrix(14, 14, entries), ad2))
        with pytest.raises(InternalInvariantError, match="graded block invariant"):
            roots.root_system.__wrapped__()

    def test_cartan_matrix_is_sympys_g2(self):
        root_system_module = pytest.importorskip("sympy.liealgebras.root_system")
        positive = [r for r in root_system() if r.value(TAU_GENERIC) > 0]
        sums = {
            canonical_root_coeffs(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
            for a in positive for b in positive
        }
        simple = [r for r in positive if r.coeffs not in sums]
        assert len(simple) == 2
        for r in simple:
            # Killing lengths and the dual form agree
            assert root_inner(r, r) == r.killing_sq_length
        ours = [[2 * root_inner(a, b) / root_inner(b, b) for b in simple] for a in simple]
        assert [[a.value(b.coroot) for b in simple] for a in simple] == ours  # <a, b coroot>
        theirs = root_system_module.RootSystem("G2").cartan_matrix().tolist()
        assert theirs in (ours, [row[::-1] for row in ours[::-1]])


    def test_value_set_at_generic_element(self):
        star = CartanElement.of(1, -4, 3)
        values = sorted(int(r.value(star)) for r in root_system())
        assert values == [-7, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 7]

    def test_closed_under_negation(self):
        roots = root_system()
        coeffs = {r.coeffs for r in roots}
        for r in roots:
            neg = canonical_root_coeffs(tuple(-a for a in r.coeffs))
            assert neg in coeffs and neg != r.coeffs

    def test_length_classes(self):
        roots = root_system()
        short = [r for r in roots if r.length_class == "short"]
        long_ = [r for r in roots if r.length_class == "long"]
        assert len(short) == 6 and len(long_) == 6
        assert len({r.killing_sq_length for r in short}) == 1
        assert len({r.killing_sq_length for r in long_}) == 1
        assert long_[0].killing_sq_length == 3 * short[0].killing_sq_length
        assert short[0].killing_sq_length == min(r.killing_sq_length for r in roots)

    def test_expected_coefficients(self):
        # short: +-t_i; long: +-(t_i - t_j), all reduced mod (1,1,1)
        expected = {
            (1, 0, 0), (0, 1, 1), (0, 1, 0), (1, 0, 1), (0, 0, 1), (1, 1, 0),
            (2, 0, 1), (0, 2, 1), (1, 2, 0), (1, 0, 2), (2, 1, 0), (0, 1, 2),
        }
        assert {r.coeffs for r in root_system()} == expected

    def test_killing_form_equals_root_sum(self):
        # dual route: B(H, H') = -sum over roots of r(tau) r(tau')
        b = derivation_basis()
        rng = random.Random(41)
        roots = root_system()
        for _ in range(10):
            s, t = random_cartan(rng), random_cartan(rng)
            direct = killing_form(cartan_element(s), cartan_element(t), b)
            via_roots = -sum((r.value(s) * r.value(t) for r in roots), F(0))
            assert direct == via_roots


class TestVanishingRoots:
    def test_generic_empty(self):
        assert vanishing_roots(CartanElement.of(1, 2, -3)) == ()

    def test_short_pair(self):
        vr = vanishing_roots(CartanElement.of(1, 0, -1))
        assert len(vr) == 2
        assert {r.length_class for r in vr} == {"short"}
        assert {r.coeffs for r in vr} == {(0, 1, 0), (1, 0, 1)}

    def test_zero_gives_all(self):
        assert len(vanishing_roots(CartanElement.of(0, 0, 0))) == 12

    def test_count_in_0_2_12(self):
        rng = random.Random(42)
        for _ in range(50):
            tau = random_cartan(rng)
            n = len(vanishing_roots(tau))
            assert n in (0, 2, 12)
            if n == 12:
                assert tau.is_zero()

    @oracle_settings
    @given(rational_taus())
    def test_cleared_integers_match_fraction_filter(self, tau):
        van = vanishing_roots(tau)
        assert van == vanishing_by_fractions(tau)
        roots = root_system()
        assert all(any(r is s for s in roots) for r in van)

    def test_clears_by_the_lcm_of_denominators(self):
        # denominators 6, 10 and 15: their lcm 30 is none of them
        values = [F(n, d) for d in (6, 10, 15) for n in (-11, -7, -1, 1, 7, 11)]
        for a in values:
            for b in values:
                tau = CartanElement.of(a, b, -a - b)
                assert vanishing_roots(tau) == vanishing_by_fractions(tau), tau

    def test_integer_helper_on_lattice(self):
        for t1 in range(-4, 5):
            for t2 in range(-4, 5):
                tau = CartanElement.of(t1, t2, -t1 - t2)
                assert roots_in(vanishing_mask(t1, t2, -t1 - t2)) == vanishing_by_fractions(tau)

    def test_pairs_vanish_jointly_only_at_zero(self):
        # any two non-proportional root functionals plus the trace
        # condition force tau = 0 (exact 3x3 rank computation)
        roots = root_system()
        ones = (F(1), F(1), F(1))
        for r in roots:
            neg = canonical_root_coeffs(tuple(-a for a in r.coeffs))
            for rp in roots:
                if rp.coeffs in (r.coeffs, neg):
                    continue
                m = Matrix.from_rows(
                    [[F(a) for a in r.coeffs], [F(a) for a in rp.coeffs], list(ones)]
                )
                assert rank(m) == 3


def coroot_by_standard_form(root):
    """2 alpha / (alpha, alpha) in the standard form on the traceless plane,
    where the functional a . tau is the vector p = 3a - (sum a)(1, 1, 1)
    up to the factor 1/3, so alpha's coroot is 6p / (p . p)."""
    a = root.coeffs
    p = [3 * x - sum(a) for x in a]
    return CartanElement([F(6 * x, sum(y * y for y in p)) for x in p])


class TestCoroots:
    def test_each_root_is_two_on_its_integral_coroot(self):
        for r in root_system():
            assert type(r.coroot) is CartanElement
            assert r.value(r.coroot) == 2
            assert r.coroot.den == 1 and all(type(v) is int for v in r.coroot.num)

    def test_examples(self):
        coroots = {r.coeffs: r.coroot for r in root_system()}
        assert coroots[(0, 0, 1)] == CartanElement.of(-1, -1, 2)  # short
        assert coroots[(0, 1, 2)] == CartanElement.of(-1, 0, 1)  # long

    def test_agrees_with_the_standard_form(self):
        assert [r.coroot for r in root_system()] == [coroot_by_standard_form(r) for r in root_system()]

    def test_one_killing_solve_per_root(self, monkeypatch):
        calls = []
        monkeypatch.setattr(roots, "solve", lambda m, b: calls.append(b) or solve(m, b))
        assert roots.root_system.__wrapped__() == root_system()  # uncached
        assert len(calls) == 12


class TestWeylReflections:
    def test_long_root_transposition(self):
        roots = root_system()
        r = next(x for x in roots if x.coeffs == (2, 0, 1))  # t1 - t2
        assert weyl_reflect(r, CartanElement.of(1, 0, -1)) == CartanElement.of(0, 1, -1)

    def test_short_root_example(self):
        roots = root_system()
        r = next(x for x in roots if x.coeffs == (0, 1, 0))  # t2
        assert weyl_reflect(r, CartanElement.of(1, 2, -3)) == CartanElement.of(3, -2, -1)

    def test_involution(self):
        rng = random.Random(43)
        roots = root_system()
        for _ in range(20):
            tau = random_cartan(rng)
            r = roots[rng.randrange(12)]
            assert weyl_reflect(r, weyl_reflect(r, tau)) == tau

    def test_fixes_tau_iff_root_vanishes(self):
        rng = random.Random(44)
        roots = root_system()
        for _ in range(20):
            tau = random_cartan(rng)
            for r in roots:
                fixed = weyl_reflect(r, tau) == tau
                assert fixed == (r.value(tau) == 0)

    @oracle_settings
    @given(rational_taus())
    def test_matches_solve_and_is_involution(self, tau):
        root_system()
        with pytest.MonkeyPatch.context() as monkeypatch:  # each root carries its coroot: no solve
            monkeypatch.setattr(roots, "solve", lambda *args: pytest.fail("weyl_reflect solved a system"))
            for r in root_system():
                image = weyl_reflect(r, tau)
                assert image == reflect_by_solve(r, tau)
                assert weyl_reflect(r, image) == tau

    @oracle_settings
    @given(fractions_9, fractions_9)
    def test_integer_numerators_match_the_fraction_formula(self, a, b):
        # weyl_reflect clears tau to integers; the oracle is the Fraction
        # formula, for tau with 9-digit numerators and denominators
        tau = CartanElement.of(a, b, -a - b)
        for r in root_system():
            image = weyl_reflect(r, tau)
            assert image == reflect_by_solve(r, tau)
            assert all(type(t) is Fraction for t in image.tau)

    def test_permutes_root_set_preserving_length(self):
        roots = root_system()
        by_coeffs = {r.coeffs: r for r in roots}
        h1 = CartanElement(TAU_H1)
        h2 = CartanElement(TAU_H2)
        for r in roots:
            for rp in roots:
                v1 = rp.value(weyl_reflect(r, h1))
                v2 = rp.value(weyl_reflect(r, h2))
                image = canonical_root_coeffs((v1, F(0), -v2))
                assert image in by_coeffs
                assert by_coeffs[image].killing_sq_length == rp.killing_sq_length


def test_canonical_root_coeffs():
    assert canonical_root_coeffs((1, 0, 0)) == (1, 0, 0)
    assert canonical_root_coeffs((-1, 0, 0)) == (0, 1, 1)
    assert canonical_root_coeffs((1, -1, 0)) == (2, 0, 1)
    assert canonical_root_coeffs((F(2), F(0), F(1))) == (2, 0, 1)


def test_canonical_root_coeffs_needs_integer_differences():
    # truncated by int(), (1/2, 0, 0) became (0, 0, 0), which is not a root
    for a in [(F(1, 2), 0, 0), (F(3, 2), F(1, 2), 0), (F(1, 3), F(-1, 3), 0)]:
        with pytest.raises(ValueError):
            canonical_root_coeffs(a)
    # a common fractional shift is fine: only the differences must be integers
    assert canonical_root_coeffs((F(5, 2), F(1, 2), F(3, 2))) == (2, 0, 1)
