import random
from fractions import Fraction

import pytest

from g2orbits import orbits
from g2orbits.derivations import derivation_basis, subalgebra_structure
from g2orbits.errors import InternalInvariantError, SumNonzeroError
from g2orbits.linalg import Matrix, rank
from g2orbits.orbits import (
    CONVENTION_DEFAULT,
    OrbitType,
    centralizer,
    classify,
    lattice_rows,
    scan,
)
from g2orbits.roots import (
    TAU_GENERIC,
    CartanElement,
    Root,
    root_system,
    roots_in,
    vanishing_roots,
    vanishing_sets,
    weyl_reflect,
)
from test_derivations import bracket, cartan_basis, is_zero_derivation


def F(n, d=1):
    return Fraction(n, d)


def reports(census) -> tuple:
    """The classify report of every lattice point of the census, in scan
    order: the per-point oracle its rows are checked against."""
    return tuple(classify(CartanElement.of(t1, t2, t3)) for t1, t2, t3, _, _ in lattice_rows(census.radius))


def random_cartan(rng):
    t1 = F(rng.randint(-6, 6), rng.randint(1, 4))
    t2 = F(rng.randint(-6, 6), rng.randint(1, 4))
    return CartanElement.of(t1, t2, -t1 - t2)


class TestCentralizer:
    @pytest.mark.parametrize(
        "tau,dim",
        [
            ((0, 0, 0), 14),
            ((1, 2, -3), 2),
            ((1, 0, -1), 4),
            ((1, 1, -2), 4),
        ],
    )
    def test_dimensions(self, tau, dim):
        assert len(centralizer(CartanElement.of(*tau))) == dim

    def test_contains_cartan(self):
        h1, h2 = cartan_basis()
        for tau in [(1, 2, -3), (1, 0, -1), (1, 1, -2)]:
            cent = centralizer(CartanElement.of(*tau))
            base = [derivation_basis().from_coordinates(v).flat() for v in cent]
            r = rank(Matrix.from_rows(base))
            assert rank(Matrix.from_rows(base + [h1.flat()])) == r
            assert rank(Matrix.from_rows(base + [h2.flat()])) == r

    def test_commutes_with_cartan_element(self):
        from g2orbits.roots import cartan_element

        tau = CartanElement.of(1, 0, -1)
        h = cartan_element(tau)
        for v in centralizer(tau):
            assert is_zero_derivation(bracket(h, derivation_basis().from_coordinates(v)))

    def test_bracket_closed(self):
        from g2orbits.derivations import subalgebra_structure

        b = derivation_basis()
        for tau in [(1, 2, -3), (1, 0, -1), (1, 1, -2)]:
            cent = centralizer(CartanElement.of(*tau))
            subalgebra_structure(cent, b)  # raises if not closed

    def test_sum_nonzero(self):
        with pytest.raises(SumNonzeroError):
            centralizer((1, 1, 1))


class TestClassify:
    def test_full(self):
        rep = classify(CartanElement.of(0, 0, 0))
        assert rep.orbit_type is OrbitType.FULL
        assert rep.orbit_label == "G2/G2"
        assert rep.stabilizer_dim == 14
        assert len(rep.vanishing) == 12

    def test_torus(self):
        rep = classify(CartanElement.of(1, 2, -3))
        assert rep.orbit_type is OrbitType.TORUS
        assert rep.orbit_label == "G2/(U(1)xU(1))"
        assert rep.stabilizer_dim == 2
        assert rep.structure.is_abelian

    def test_dim4_short(self):
        rep = classify(CartanElement.of(1, 0, -1))
        assert rep.orbit_type is OrbitType.DIM4_SHORT
        assert rep.stabilizer_dim == 4
        s = rep.structure
        assert (s.dim, s.derived_dim, s.center_dim) == (4, 3, 1)

    def test_dim4_long(self):
        rep = classify(CartanElement.of(2, -1, -1))
        assert rep.orbit_type is OrbitType.DIM4_LONG
        vr = {r.length_class for r in rep.vanishing}
        assert vr == {"long"}
        rep2 = classify(CartanElement.of(1, 1, -2))
        assert rep2.orbit_type is OrbitType.DIM4_LONG

    def test_convention_flag_swaps_dim4_labels(self):
        short_default = classify(CartanElement.of(1, 0, -1))
        long_default = classify(CartanElement.of(1, 1, -2))
        assert short_default.orbit_label == "G2/((Sp(1)xU(1))/Z2)"
        assert long_default.orbit_label == "G2/((U(1)xSp(1))/Z2)"
        short_alt = classify(CartanElement.of(1, 0, -1), convention="short=u1xsp1")
        long_alt = classify(CartanElement.of(1, 1, -2), convention="short=u1xsp1")
        assert short_alt.orbit_label == "G2/((U(1)xSp(1))/Z2)"
        assert long_alt.orbit_label == "G2/((Sp(1)xU(1))/Z2)"
        # the label never changes for FULL and TORUS
        assert classify(CartanElement.of(0, 0, 0), convention="short=u1xsp1").orbit_label == "G2/G2"

    def test_float_tau_rejected(self):
        # (0.1, 0.2, -0.3) as binary floats does not sum to zero; the float
        # itself is the error, not the sum
        with pytest.raises(TypeError):
            classify((0.1, 0.2, -0.3))

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            classify(CartanElement.of(1, 0, -1), convention="short=nonsense")

    def test_json_fields(self):
        rep = classify(CartanElement.of(1, 0, -1))
        d = rep.to_json_dict()
        assert set(d) == {
            "tau",
            "stabilizer_dim",
            "orbit_type",
            "orbit_label",
            "vanishing_roots",
            "structure",
            "convention",
        }
        assert d["tau"] == ["1", "0", "-1"]
        assert d["orbit_type"] == "DIM4_SHORT"
        assert set(d["structure"]) == {"dim", "derived_dim", "center_dim"}
        assert d["convention"] == CONVENTION_DEFAULT

    def test_scaling_invariance(self):
        rng = random.Random(50)
        for _ in range(10):
            tau = random_cartan(rng)
            rep = classify(tau)
            c = F(0)
            while c == 0:
                c = F(rng.randint(-5, 5), rng.randint(1, 5))
            rep2 = classify(tau.scaled(c))
            assert rep2.orbit_type == rep.orbit_type
            assert rep2.stabilizer_dim == rep.stabilizer_dim
            assert rep2.structure == rep.structure
            assert rep2.vanishing == rep.vanishing

    def test_weyl_invariance(self):
        rng = random.Random(51)
        roots = root_system()
        for _ in range(5):
            tau = random_cartan(rng)
            rep = classify(tau)
            for r in roots:
                assert classify(weyl_reflect(r, tau)).orbit_type == rep.orbit_type


class TestScan:
    def test_radius_validation(self):
        with pytest.raises(ValueError):
            scan(0)

    def test_radius_one_census(self):
        # hand oracle: tau=0 is FULL; the six nonzero points are the
        # permutations of (1, 0, -1), each with exactly one zero entry,
        # i.e. one short root pair vanishing.  No long point exists until
        # radius 2 ((1,1,-2)-type needs an entry of size 2), no torus
        # point until radius 3 ((1,2,-3)-type).
        census = scan(1)
        assert sum(census.counts.values()) == 7
        assert census.counts == {"FULL": 1, "TORUS": 0, "DIM4_SHORT": 6, "DIM4_LONG": 0}

    def test_radius_two_census(self):
        census = scan(2)
        assert sum(census.counts.values()) == 19
        assert census.counts["FULL"] == 1
        assert census.counts["DIM4_LONG"] == 6  # permutations of (2,-1,-1) and (1,1,-2)
        assert census.counts["TORUS"] == 0

    def test_radius_three_has_all_four(self):
        census = scan(3)
        assert all(census.counts[t.name] > 0 for t in OrbitType)

    def test_lexicographic_order(self):
        census = scan(1)
        taus = [tuple(int(t) for t in rep.tau.tau) for rep in reports(census)]
        assert taus == sorted(taus)

    def test_counts_weyl_invariant(self):
        # reflect every lattice point and reclassify: same counts
        census = scan(2)
        roots = root_system()
        for r in roots:
            counts = {t.name: 0 for t in OrbitType}
            for rep in reports(census):
                image = weyl_reflect(r, rep.tau)
                counts[classify(image).orbit_type.name] += 1
            assert counts == census.counts

    def test_reports_follow_the_rows(self):
        census = scan(3)
        rows = list(census.csv_rows())[1:]
        reps = reports(census)
        assert len(reps) == len(rows)
        for rep, row in zip(reps, rows):
            t = rep.tau.tau
            assert row == f"{t[0]},{t[1]},{t[2]},{rep.stabilizer_dim},{rep.orbit_type.value}"

    def test_csv_rows(self):
        census = scan(1)
        rows = list(census.csv_rows())
        assert rows[0] == "tau1,tau2,tau3,stabilizer_dim,orbit_type"
        assert len(rows) == 8
        assert "0,0,0,14,FULL" in rows

    def test_json_dict(self):
        census = scan(1)
        d = census.to_json_dict()
        assert d["radius"] == 1
        assert d["points"] == 7
        assert d["stabilizer_dims_ok"] is True
        assert d["counts"]["DIM4_SHORT"] == 6


def lattice_ball(radius):
    for t1 in range(-radius, radius + 1):
        for t2 in range(-radius, radius + 1):
            if abs(t1 + t2) <= radius:
                yield CartanElement.of(t1, t2, -t1 - t2)


def exact_report(tau):
    """(dim, orbit type, structure, vanishing roots) built for this one tau
    from its own centralizer kernel and the root rule."""
    b = derivation_basis()
    cent = centralizer(tau)
    van = tuple(r for r in root_system() if r.value(tau) == 0)
    classes = {r.length_class for r in van}
    if len(van) == 12:
        orbit_type = OrbitType.FULL
    elif not van:
        orbit_type = OrbitType.TORUS
    else:
        assert len(van) == 2 and len(classes) == 1, van
        orbit_type = OrbitType.DIM4_SHORT if classes == {"short"} else OrbitType.DIM4_LONG
    return len(cent), orbit_type, subalgebra_structure(cent, b), van


def representative_by_cases(van: tuple) -> tuple:
    """The memo's representative of the vanishing set van before
    vanishing_sets() read them off the root lines: the generic element,
    zero, or (1,1,1) x a for a pair with coefficients a."""
    if not van:
        rep = TAU_GENERIC
    elif len(van) == 12:
        rep = (0, 0, 0)
    else:
        a1, a2, a3 = van[0].coeffs
        rep = (a3 - a2, a1 - a3, a2 - a1)
    assert vanishing_roots(rep) == van, f"no representative for vanishing roots {[r.coeffs for r in van]}"
    return rep


def test_vanishing_sets_are_the_case_split_representatives():
    sets = vanishing_sets()
    assert {mask: CartanElement(representative_by_cases(roots_in(mask))) for mask in sets} == sets


class TestVanishingSetMemo:
    """classify reads each vanishing set's stabilizer from a memo; the
    per-point centralizer kernel is the oracle."""

    @staticmethod
    def assert_matches_oracle(tau):
        rep = classify(tau)
        assert (rep.stabilizer_dim, rep.orbit_type, rep.structure, rep.vanishing) == exact_report(tau), tau

    def test_every_point_of_radius_12(self):
        for tau in lattice_ball(12):
            self.assert_matches_oracle(tau)

    @pytest.mark.parametrize("base", [(0, 0, 0), (1, 2, -3), (1, 0, -1), (1, 1, -2)])
    def test_weyl_images_and_rescalings(self, base):
        rng = random.Random(repr(base))
        roots = root_system()
        for _ in range(8):
            tau = CartanElement.of(*base)
            for _ in range(rng.randint(1, 4)):
                tau = weyl_reflect(rng.choice(roots), tau)
            c = F(rng.choice((-1, 1)) * rng.randint(10**8, 10**9 - 1), rng.randint(10**8, 10**9 - 1))
            self.assert_matches_oracle(tau.scaled(c))

    def test_one_fill_per_vanishing_set(self):
        orbits._stabilizer.cache_clear()
        census = scan(12)
        info = orbits._stabilizer.cache_info()
        assert (info.misses, info.currsize) == (8, 8)
        assert info.hits == sum(census.counts.values()) - 8

    def test_full_memo_needs_no_kernel(self, monkeypatch):
        scan(3)  # every vanishing set occurs by radius 3

        def forbidden(*args):
            raise AssertionError("per-point kernel work in classify")

        monkeypatch.setattr(orbits, "kernel_basis", forbidden)
        monkeypatch.setattr(orbits, "rank", forbidden)
        monkeypatch.setattr(orbits, "subalgebra_structure", forbidden)
        assert scan(12).counts == closed_form_counts(12)

    def test_memo_lookup_hashes_no_root(self, monkeypatch):
        # the memo is keyed by the int mask of the vanishing roots, so a
        # scan hashes no Root record (and none of its Fraction lengths)
        scan(3)

        def forbidden(self):
            raise AssertionError("a Root was hashed on the scan path")

        monkeypatch.setattr(Root, "__hash__", forbidden)
        assert scan(12).counts == closed_form_counts(12)

    def test_scan_fills_no_structure(self, monkeypatch):
        orbits._stabilizer.cache_clear()
        orbits._structure.cache_clear()

        def forbidden(*args):
            raise AssertionError("scan built a centralizer basis or its fingerprint")

        monkeypatch.setattr(orbits, "centralizer", forbidden)
        monkeypatch.setattr(orbits, "subalgebra_structure", forbidden)
        assert scan(12).counts == closed_form_counts(12)
        assert orbits._stabilizer.cache_info().currsize == 8

    def test_stabilizer_dimension_off_the_theorem_aborts(self, monkeypatch):
        orbits._stabilizer.cache_clear()
        monkeypatch.setattr(orbits, "rank", lambda m: 11)  # dimension 3
        with pytest.raises(InternalInvariantError, match="stabilizer dimension 3"):
            scan(1)
        orbits._stabilizer.cache_clear()


def closed_form_counts(radius):
    """Lattice census of the ball of the given radius in closed form.  A
    short pair vanishes on the permutations of (a, -a, 0), a long pair on
    those of +-(a, a, -2a), 6 points for each a > 0 inside the ball; the
    rest is TORUS."""
    half = radius // 2
    return {
        "FULL": 1,
        "TORUS": 3 * radius * radius - 3 * radius - 6 * half,
        "DIM4_SHORT": 6 * radius,
        "DIM4_LONG": 6 * half,
    }


@pytest.mark.parametrize("radius", [1, 2, 3, 6, 7, 12])
def test_census_matches_closed_form(radius):
    census = scan(radius)
    assert sum(census.counts.values()) == 3 * radius * radius + 3 * radius + 1
    assert census.counts == closed_form_counts(radius)


@pytest.mark.parametrize("radius", [24, 100, 200])
def test_integer_scan_matches_closed_form(radius):
    counts = scan(radius).counts
    assert counts == closed_form_counts(radius)
    assert sum(counts.values()) == 3 * radius * radius + 3 * radius + 1


def test_every_scan_row_of_radius_12_matches_oracle():
    census = scan(12)
    rows = list(census.csv_rows())[1:]
    entries = census.to_json_dict()["census"]
    points = list(lattice_ball(12))
    assert len(rows) == len(entries) == len(points)
    for tau, row, entry in zip(points, rows, entries):
        dim, orbit_type, _, _ = exact_report(tau)
        t = [int(x) for x in tau.tau]
        assert row == "%d,%d,%d,%d,%s" % (*t, dim, orbit_type.value)
        assert entry == {"tau": t, "stabilizer_dim": dim, "orbit_type": orbit_type.value}
