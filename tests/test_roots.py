import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2orbits import derivations, orbits, roots
from g2orbits.derivations import G2AlgebraBasis, adjoint_matrix, derivation_basis
from g2orbits.errors import InternalInvariantError, SumNonzeroError
from g2orbits.linalg import Matrix, _quotient, kernel_basis, rank
from g2orbits.orbits import centralizer, classify, lattice_rows, scan
from g2orbits.roots import (
    TAU_GENERIC,
    TAU_H1,
    TAU_H2,
    CartanElement,
    Root,
    _cartan_ad,
    canonical_root_coeffs,
    cartan_adjoint,
    cartan_element,
    root_system,
    roots_in,
    vanishing_mask,
    vanishing_roots,
    vanishing_sets,
    weyl_reflect,
)
from matrices import identity, matrix_sum, product, row_lists, scaled, sympy_solve, trace
from test_checks import last_line_of
from test_derivations import (
    bracket,
    cartan_basis,
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
    """The Gram matrix of (H1, H2) that root_system solves with, before it
    became the trace form of ad(H1) and ad(H2): the Killing form of the 8x8
    generators, read off the basis."""
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
    x = sympy_solve(cartan_gram_by_killing_form(), rv)
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
        assert CartanElement.of(0, 0, 0).num == (0, 0, 0)

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
        assert CartanElement.of(F(1, 2), 0, F(-1, 2)).scaled(0).num == (0, 0, 0)

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
            raise AssertionError("roots divided or built a Fraction for a stored tau")

        monkeypatch.setattr(roots, "_quotient", forbidden)
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
        stacked = Matrix.from_rows(row_lists(a1) + row_lists(a2))
        kern = kernel_basis(stacked)
        assert len(kern) == 2

    def test_sign_slip_in_a_generator_aborts(self, monkeypatch):
        rotation = roots._rotation_matrix

        def slipped(tau):
            rows = row_lists(rotation(tau))
            rows[3][2] = -rows[3][2]  # the (e2, e3) block is no longer skew
            return Matrix.from_rows(rows)

        monkeypatch.setattr(roots, "_rotation_matrix", slipped)
        with pytest.raises(InternalInvariantError, match="fails the Leibniz check"):
            _cartan_ad.__wrapped__()

    def test_read_once_through_the_cached_adjoints(self):
        # the package keeps the pair's adjoints only; the 8x8 generators
        # are a test helper
        assert not hasattr(roots, "cartan_basis")
        assert _cartan_ad.cache_info().maxsize == 1
        assert tuple(map(derivation_basis().ad, map(derivation_basis().coordinates, cartan_basis()))) == _cartan_ad()

    @pytest.mark.parametrize("argv", [["roots"], ["classify", "--tau=1,0,-1", "--json"], ["scan", "--radius", "6"]])
    def test_each_generator_is_read_off_the_basis_once(self, argv):
        code = (
            "import io, sys, contextlib\n"
            "from g2orbits import cli, derivations\n"
            "reads, target = [], derivations.G2AlgebraBasis.coordinates.__code__\n"
            "sys.setprofile(lambda frame, event, arg: event == 'call' and frame.f_code is target and reads.append(1))\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    cli.main({argv!r})\n"
            "sys.setprofile(None)\n"
            "print(len(reads))"
        )
        assert last_line_of(code) == "2"

    def test_membership_is_read_off_the_derivation_basis(self, monkeypatch):
        def forbidden():
            raise AssertionError("the Cartan generators re-ran the Leibniz equations")

        derivation_basis()
        monkeypatch.setattr(derivations, "leibniz_system", forbidden)
        assert _cartan_ad.__wrapped__() == _cartan_ad()
        h1, h2 = cartan_basis()
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
        assert cartan_element(CartanElement.of(1, 0, -1)).matrix == matrix_sum(h1.matrix, h2.matrix)
        rng = random.Random(40)
        for _ in range(10):
            s = random_cartan(rng)
            t = random_cartan(rng)
            a, b_ = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
            combo = CartanElement(tuple(a * x + b_ * y for x, y in zip(s.tau, t.tau)))
            expected = matrix_sum(scaled(cartan_element(s).matrix, a), scaled(cartan_element(t).matrix, b_))
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

    def test_an_integer_tau_makes_no_quotient_call(self):
        # a profile hook on _quotient's code sees every call, by any name
        target, calls = roots._quotient.__code__, []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is target:
                calls.append(frame.f_locals["d"])

        for tau, expected in [(TAU_GENERIC, []), ((3, 0, -3), []), ((F(1, 2), F(-1, 2), 0), [2] * 196)]:
            sys.setprofile(count)
            try:
                cartan_adjoint(tau)
            finally:
                sys.setprofile(None)
            assert calls == expected, tau
            calls.clear()

    @pytest.mark.parametrize("argv", [["roots"], ["classify", "--tau=1,0,-1", "--json"], ["scan", "--radius", "6"]])
    def test_no_division_by_one_in_a_fresh_command(self, argv):
        # roots divided each entry of ad(tau) by 1 (196 per integer tau);
        # the elimination core's divisions by a pivot of 1 are not counted
        code = (
            "import io, sys, contextlib\n"
            "from g2orbits import cli, linalg\n"
            "ones, target = [], linalg._quotient.__code__\n"
            "sys.setprofile(lambda frame, event, arg: event == 'call' and frame.f_code is target"
            " and frame.f_locals['d'] == 1 and frame.f_back.f_code.co_filename.endswith('roots.py')"
            " and ones.append(1))\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    cli.main({argv!r})\n"
            "sys.setprofile(None)\n"
            "print(len(ones))"
        )
        assert last_line_of(code) == "0"

    def test_generators_are_int_matrices(self):
        b = derivation_basis()
        ads = _cartan_ad()
        assert ads == tuple(adjoint_matrix(h, b) for h in cartan_basis())
        assert all(type(v) is int for ad in ads for v in ad.entries)
        assert (cartan_adjoint(TAU_H1), cartan_adjoint(TAU_H2)) == ads

    def test_cartan_gram_is_the_killing_form_of_the_generators(self):
        # root_system solves with the trace form of ad(H1) and ad(H2); the
        # 12 lengths -r G^-1 r fix the symmetric G, so they pin it to the
        # Killing form of the generators
        gram = cartan_gram_by_killing_form()
        assert all(type(v) is int for v in gram.entries)
        for r in root_system():
            rv = (r.value(TAU_H1), r.value(TAU_H2))
            x = sympy_solve(gram, rv)
            assert r.killing_sq_length == -(rv[0] * x[0] + rv[1] * x[1])

    def test_roots_and_orbits_build_no_rotation_and_read_none_back(self, monkeypatch):
        saved = root_system()
        ball = [CartanElement.of(t1, t2, t3) for t1, t2, t3, _, _ in lattice_rows(3)]
        expected = [(classify(tau), centralizer(tau)) for tau in ball], scan(6)
        _cartan_ad()
        caches = (
            root_system,
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


def root_value(ad: Matrix, w, u, v: int) -> int:
    """roots._root_value, which the 2x2 maps between degrees replaced: the
    integer r with ad w = (r/v) u, where u = ad(H*) w and w lies on the
    root plane where ad(H*)^2 = -v^2; checked on every coordinate."""
    adw = ad.apply(w)
    k = next(i for i, x in enumerate(u) if x)
    if any(x * u[k] != adw[k] * y for x, y in zip(adw, u)):
        raise InternalInvariantError("root plane vector is not a joint eigenvector")
    r, rest = divmod(adw[k] * v, u[k])
    if rest:
        raise InternalInvariantError(f"root value {Fraction(adw[k] * v, u[k])} is not an integer")
    return r


def restricted(m: Matrix, idx) -> Matrix:
    """roots._restricted: m on the coordinates idx, whose span it must map
    into itself."""
    if any(m.entry(k, j) for j in idx for k in range(m.rows) if k not in idx):
        raise InternalInvariantError("ad(H) does not leave a graded block invariant")
    return Matrix(len(idx), len(idx), [m.entry(k, j) for k in idx for j in idx])


def root_system_by_blocks():
    """roots.root_system before it read the 2x2 maps by which ad(t) swaps
    each even degree g with g^1: the 4x4 blocks of degrees g and g^1 cut
    out of ad(H1), ad(H2) and ad(H*), one rank per block, the square of
    ad(H*)'s block by a Matrix product, joint eigenvectors on padded
    4-vectors, and the Cartan Gram from four 14x14 products."""
    degrees = derivation_basis().degrees  # even degrees first in each block
    blocks = [sorted((i for i, g in enumerate(degrees) if g >> 1 == h), key=degrees.__getitem__) for h in range(4)]
    ads = (*roots._cartan_ad(), cartan_adjoint(TAU_GENERIC))
    parts = [[restricted(m, idx) for m in ads] for idx in blocks]

    zero_dim = 14 - sum(rank(star) for _, _, star in parts)
    if zero_dim != 2:
        raise InternalInvariantError(f"generic Cartan element has centralizer dimension {zero_dim}, expected 2")

    raw = []
    for a1, a2, star in parts[1:]:
        s00, s01, s10, s11 = restricted(product(star, star), (0, 1)).entries
        total = -(s00 + s11)
        gap = isqrt(max(total * total - 4 * (s00 * s11 - s01 * s10), 0))
        for v in {isqrt(max(x, 0)) for x in ((total + gap) // 2, (total - gap) // 2)}:
            for line in kernel_basis(Matrix(2, 2, (s00 + v * v, s01, s10, s11 + v * v))):
                w = (*line, 0, 0)
                u = star.apply(w)
                r1, r2 = (root_value(m, w, u, v) for m in (a1, a2))
                raw += [(canonical_root_coeffs((s * r1, 0, -s * r2)), s * r1, s * r2) for s in (1, -1)]

    if len(raw) + zero_dim != 14:
        raise InternalInvariantError(f"root spaces ({len(raw)}) plus Cartan ({zero_dim}) do not fill the algebra")

    (g11, g12), (g21, g22) = [[trace(product(x, y)) for y in ads[:2]] for x in ads[:2]]
    d = g11 * g22 - g12 * g21
    if not d:
        raise InternalInvariantError("Killing Gram matrix is singular")
    found = {}
    for coeffs, r1, r2 in raw:
        x1, x2 = _quotient(g22 * r1 - g12 * r2, d), _quotient(g11 * r2 - g21 * r1, d)
        sq = -(r1 * x1 + r2 * x2)
        found[coeffs] = sq, CartanElement([Fraction(-2, sq) * (x1 * a + x2 * b) for a, b in zip(TAU_H1, TAU_H2)])

    min_len = min(sq for sq, _ in found.values())
    result = tuple(Root(c, sq, "short" if sq == min_len else "long", co) for c, (sq, co) in sorted(found.items()))
    if len(result) != 12:
        raise InternalInvariantError(f"expected 12 distinct roots, got {len(result)}")
    return result


def root_system_by_scan():
    """roots.root_system before it moved to the graded blocks: kernels of
    the 14x14 ad(H*)^2 + v^2 for v = 1, 2, ... until the root planes and
    the Cartan fill the algebra, each plane's values read off ad(H1) and
    ad(H2) on its first kernel vector."""
    ad_star = cartan_adjoint(TAU_GENERIC)
    ad1, ad2 = _cartan_ad()
    zero_dim = 14 - rank(ad_star)
    assert zero_dim == 2
    square = product(ad_star, ad_star)
    vmax = isqrt(-trace(square))  # the squared root values sum to -tr(ad(H*)^2)
    eye = identity(14)
    raw = []
    for v in range(1, vmax + 1):
        if len(raw) + zero_dim == 14:
            break
        kern = kernel_basis(matrix_sum(square, scaled(eye, v * v)))
        if not kern:
            continue
        assert len(kern) == 2
        w = kern[0]
        u = ad_star.apply(w)
        r1, r2 = (root_value(ad, w, u, v) for ad in (ad1, ad2))
        for s1, s2 in ((r1, r2), (-r1, -r2)):
            raw.append((canonical_root_coeffs((s1, 0, -s2)), s1, s2))
    assert len(raw) + zero_dim == 14
    lengths, coroots = {}, {}
    for coeffs, r1, r2 in raw:
        x = sympy_solve(cartan_gram_by_killing_form(), (r1, r2))
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
    x = sympy_solve(cartan_gram_by_killing_form(), ra)
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
        # one rank of ad(H*) for the Cartan, then one 2x2 kernel per root
        # plane, of ad(H*)^2 + v^2 on an even degree
        expected = root_system()
        kernels, ranks = [], []
        monkeypatch.setattr(roots, "kernel_basis", lambda m: kernels.append(m) or kernel_basis(m))
        monkeypatch.setattr(roots, "rank", lambda m: ranks.append(m) or rank(m))
        assert roots.root_system.__wrapped__() == expected  # uncached
        assert [(m.rows, m.cols) for m in kernels] == [(2, 2)] * 6
        assert ranks == [cartan_adjoint(TAU_GENERIC)]

    def test_equals_the_block_form(self):
        # the 4x4 blocks and 14x14 products that the 2x2 maps replaced
        assert repr(root_system_by_blocks()) == repr(roots.root_system.__wrapped__()) == repr(root_system())

    @pytest.mark.parametrize(
        "k, j, delta",
        [(0, 1, 1), (13, 12, 1), (9, 2, -1), (8, 7, 3), (12, 13, 6), (1, 0, 1), (3, 2, 2), (2, 0, 1), (6, 4, 1)],
    )
    def test_a_perturbed_generator_fails_both_forms_alike(self, monkeypatch, k, j, delta):
        # one entry of ad(H1) moved: inside a degree pair (a wrong centralizer
        # dimension, no joint eigenvector, a root plane lost) or out of it
        ad1, ad2 = _cartan_ad()
        entries = list(ad1.entries)
        entries[14 * k + j] += delta
        monkeypatch.setattr(roots, "_cartan_ad", lambda: (Matrix(14, 14, entries), ad2))
        outcomes = []
        for build in (roots.root_system.__wrapped__, root_system_by_blocks):
            try:
                outcomes.append(repr(build()))
            except InternalInvariantError as exc:
                outcomes.append(f"InternalInvariantError: {exc}")
        assert outcomes[0] == outcomes[1]
        assert outcomes[0].startswith("InternalInvariantError")

    def test_blocks_are_the_graded_pairs(self):
        # ad(H1) and ad(H2) kill the Cartan (degree 1) and map each block
        # of degrees 2+3, 4+5 and 6+7 into itself
        blocks = [[0, 1, 12, 13], [2, 3, 9, 10], [4, 5, 7, 8]]
        pivots = derivation_basis()._pivots
        assert [sorted({pivots[i] >> 3 ^ pivots[i] & 7 for i in b}) for b in blocks] == [[2, 3], [4, 5], [6, 7]]
        inside = {(k, j) for b in blocks for k in b for j in b}
        for ad in _cartan_ad():
            assert all(ad.entry(k, j) == 0 for k in range(14) for j in range(14) if (k, j) not in inside)

    def test_one_generic_adjoint_per_build(self, monkeypatch):
        # ad(H*) is formed once and restricted to every graded block
        expected = repr(root_system())
        calls = []
        adjoint = roots.cartan_adjoint
        monkeypatch.setattr(roots, "cartan_adjoint", lambda tau: calls.append(tau) or adjoint(tau))
        assert repr(roots.root_system.__wrapped__()) == expected  # uncached
        assert calls == [TAU_GENERIC]

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
                assert not any(tau.num)

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


#: the mask of the short pair (0,1,0)/(1,0,1)
SHORT_PAIR = vanishing_mask(1, 0, -1)


def roots_with(coeffs: dict) -> tuple:
    """root_system() with the coefficients of some roots replaced, by
    {old: new}."""
    return tuple(
        Root(coeffs.get(r.coeffs, r.coeffs), r.killing_sq_length, r.length_class, r.coroot) for r in root_system()
    )


class TestVanishingSets:
    """The 8 vanishing sets, read off the 6 root lines."""

    def test_six_pairs_zero_and_none(self):
        sets = vanishing_sets()
        masks = sorted(sets)
        assert len(masks) == 8 and masks[0] == 0 and masks[-1] == 2**12 - 1
        pairs = [roots_in(m) for m in masks[1:-1]]
        assert all(len(p) == 2 and p[0].length_class == p[1].length_class for p in pairs)
        assert sorted(r.coeffs for p in pairs for r in p) == [r.coeffs for r in root_system()]
        assert all(tau.den == 1 for tau in sets.values())
        assert sets[0] == CartanElement(TAU_GENERIC) and sets[SHORT_PAIR] == CartanElement.of(-1, 0, 1)

    @oracle_settings
    @given(rational_taus())
    def test_every_tau_has_one_of_the_sets(self, tau):
        mask = vanishing_mask(*tau.num)
        assert mask in vanishing_sets()
        assert roots_in(mask) == vanishing_by_fractions(tau)
        assert classify(tau).orbit_type == classify(vanishing_sets()[mask]).orbit_type

    @pytest.mark.parametrize("moved", [(0, 2, 0), (0, 3, 0)], ids=["twice", "three_times"])
    def test_two_pairs_on_one_line_raise(self, monkeypatch, moved):
        # the long pair moved onto the short pair's line, as a multiple of it
        a1, a2, a3 = moved
        other = canonical_root_coeffs((-a1, -a2, -a3))
        monkeypatch.setattr(roots, "root_system", lambda: roots_with({(0, 1, 2): moved, (2, 1, 0): other}))
        with pytest.raises(InternalInvariantError, match="lie on 5 lines"):
            vanishing_sets.__wrapped__()

    def test_a_root_off_its_pair_raises(self, monkeypatch):
        # (0,1,2) moved onto the line of (0,1,0): that line holds 3 roots
        monkeypatch.setattr(roots, "root_system", lambda: roots_with({(0, 1, 2): (0, 2, 0)}))
        with pytest.raises(InternalInvariantError, match="not 2 to a line on 6"):
            vanishing_sets.__wrapped__()

    def test_a_representative_off_its_set_raises(self, monkeypatch):
        monkeypatch.setattr(roots, "TAU_GENERIC", (1, 0, -1))
        with pytest.raises(InternalInvariantError, match=r"representatives \[\(1, 0, -1\)\]"):
            vanishing_sets.__wrapped__()


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
        # Cramer's rule divides by the Gram determinant twice per root, and
        # nothing else in root_system divides: TAU_GENERIC's den is 1
        calls = []
        quotient = roots._quotient
        monkeypatch.setattr(roots, "_quotient", lambda v, d: calls.append(d) or quotient(v, d))
        assert roots.root_system.__wrapped__() == root_system()  # uncached
        gram = cartan_gram_by_killing_form()
        assert calls == [gram.entry(0, 0) * gram.entry(1, 1) - gram.entry(0, 1) ** 2] * 24


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
        expected = [reflect_by_solve(r, tau) for r in root_system()]
        with pytest.MonkeyPatch.context() as monkeypatch:  # each root carries its coroot: no solve, no quotient
            monkeypatch.setattr(roots, "_quotient", lambda *args: pytest.fail("weyl_reflect solved a system"))
            for r, oracle in zip(root_system(), expected):
                image = weyl_reflect(r, tau)
                assert image == oracle
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
