"""End-to-end verification suite.

Each check function performs one acceptance-level verification and returns
a one-line summary; it raises AssertionError (with a descriptive message)
on failure.  The CLI `check` subcommand and the acceptance tests both run
these, so there is a single source of truth for what "correct" means.

All arithmetic is exact except check 11, which drives the floating-point
exponential bridge in plain Python floats and uses the 1e-9 residual
bound.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from operator import add, attrgetter, mul

from . import cayley
from .cayley import Octonion, from_complex_model, gamma1_matrix, gamma_matrix, to_complex_model
from .derivations import (
    derivation_basis,
    exp_derivation_numeric,
    fixed_subalgebra,
    leibniz_system,
    stabilizer_subalgebra,
    subalgebra_structure,
)
from .linalg import Matrix, det, rank
from .orbits import classify, lattice_rows, scan
from .roots import TAU_H1, TAU_H2, CartanElement, canonical_root_coeffs, root_system, vanishing_mask, weyl_reflect


#: the rescalings check 10 applies: a negative one, a fraction, and a ratio of
#: nine-digit integers like the benchmark's
SCALES = (Fraction(-1), Fraction(3, 7), Fraction(-271828183, 314159265))


@lru_cache(maxsize=1)
def _vanishing_representatives() -> dict:
    """The first point of the radius-6 ball with each vanishing set, keyed by
    its vanishing_mask, once per process.  The centralizer of tau depends only
    on that set, so one tau per set decides each orbit claim (notes/decisions.md)."""
    reps = {}
    for t1, t2, t3, _, _ in lattice_rows(6):
        mask = vanishing_mask(t1, t2, t3)
        if mask not in reps:
            reps[mask] = CartanElement.of(t1, t2, t3)
    assert len(reps) == 8, f"{len(reps)} vanishing sets in the radius-6 ball, not 8"
    return reps


def check_01_derivation_dimension() -> str:
    """Nullity of the 512x64 Leibniz system is exactly 14, in under 5s: its
    rank, 50, from one elimination, and the nullity 64 - 50 by rank-nullity."""
    system = leibniz_system()
    t0 = time.perf_counter()
    r = rank(system)
    elapsed = time.perf_counter() - t0
    nullity = system.cols - r
    assert nullity == 14, f"nullity {nullity} != 14"
    assert elapsed < 5.0, f"rank computation took {elapsed:.2f}s (budget 5s)"
    return "nullity 14, rank 50, kernel within the 5s budget"


def check_02_four_orbit_types() -> str:
    """scan --radius 6: dims only in {2,4,14}, FULL exactly once, all of
    TORUS / DIM4_SHORT / DIM4_LONG nonempty."""
    dims = {row[3] for row in lattice_rows(6)}
    assert dims <= {2, 4, 14}, f"unexpected stabilizer dims {dims - {2, 4, 14}}"
    counts = scan(6).counts
    assert counts["FULL"] == 1, f"FULL count {counts['FULL']} != 1"
    assert counts["DIM4_SHORT"] > 0, "no DIM4_SHORT points"
    assert counts["DIM4_LONG"] > 0, "no DIM4_LONG points"
    assert counts["TORUS"] > 0, "no TORUS points"
    return f"radius 6: {counts}"


def check_03_named_triples() -> str:
    """The four named example triples classify exactly as stated."""
    rep = classify(CartanElement.of(0, 0, 0))
    assert rep.stabilizer_dim == 14, rep
    rep = classify(CartanElement.of(1, 2, -3))
    assert rep.stabilizer_dim == 2, rep
    rep = classify(CartanElement.of(1, 0, -1))
    assert rep.stabilizer_dim == 4, rep
    assert {r.length_class for r in rep.vanishing} == {"short"}, rep
    rep = classify(CartanElement.of(1, 1, -2))
    assert rep.stabilizer_dim == 4, rep
    assert {r.length_class for r in rep.vanishing} == {"long"}, rep
    return "(0,0,0)->14, (1,2,-3)->2, (1,0,-1)->4 short, (1,1,-2)->4 long"


def check_04_root_system() -> str:
    """12 roots, 6 short + 6 long, length ratio exactly 3, Weyl reflections
    permute the root set preserving length."""
    roots = root_system()
    assert len(roots) == 12, f"{len(roots)} roots"
    short = [r for r in roots if r.length_class == "short"]
    long_ = [r for r in roots if r.length_class == "long"]
    assert len(short) == 6 and len(long_) == 6, "length classes not 6+6"
    ratio = Fraction(long_[0].killing_sq_length, short[0].killing_sq_length)
    assert ratio == 3, f"length ratio {ratio} != 3"
    by_coeffs = {r.coeffs: r for r in roots}
    for r in roots:
        # the image functional of each rp under the reflection in r is rp
        # on the images of H1 and H2, which do not depend on rp
        h1, h2 = (weyl_reflect(r, CartanElement(h)) for h in (TAU_H1, TAU_H2))
        for rp in roots:
            image = canonical_root_coeffs((rp.value(h1), Fraction(0), -rp.value(h2)))
            assert image in by_coeffs, f"reflection in {r.coeffs} maps {rp.coeffs} outside"
            assert by_coeffs[image].killing_sq_length == rp.killing_sq_length, (
                f"reflection in {r.coeffs} changed the length of {rp.coeffs}"
            )
    return "12 roots (6 short, 6 long), ratio 3, reflections permute preserving length"


def check_05_stabilizer_fingerprints() -> str:
    """Every DIM4 centralizer fingerprints as {derived 3, center 1} and every
    TORUS one is abelian of dim 2: one classify per vanishing set of the
    radius-6 ball, the point tallies from its census counts."""
    for tau in _vanishing_representatives().values():
        rep = classify(tau)
        s = rep.structure
        if rep.stabilizer_dim == 4:
            assert (s.dim, s.derived_dim, s.center_dim) == (4, 3, 1), (tau, s)
        elif rep.stabilizer_dim == 2:
            assert s.is_abelian and s.dim == 2 and s.center_dim == 2, (tau, s)
    # bracket closure is enforced inside subalgebra_structure (it raises)
    counts = scan(6).counts
    n4 = counts["DIM4_SHORT"] + counts["DIM4_LONG"]
    return f"{n4} DIM4 fingerprints (4,3,1), {counts['TORUS']} TORUS fingerprints abelian dim 2"


def check_06_involution_shadows() -> str:
    """Fixed subalgebra of gamma: dim 6, derived 6, center 0; of gamma1:
    asserted per the stated contract as dim 8, derived 8, center 0.

    The gamma1 half is expected to fail, so `g2orbits check` reports line 6
    as FAIL and exits 3: gamma and gamma1 are conjugate involutions, so
    both fixed subalgebras are isomorphic to su(2)+su(2) of dimension 6.
    The 8-dimensional su(3) lives in the algebra as the stabilizer of e1,
    which check 6b covers.  The acceptance test for criterion 6 does not
    call this function: it asserts the true (6, 6, 0) for both involutions
    and proves it with an exact conjugacy certificate (see
    notes/decisions.md).
    """
    b = derivation_basis()
    fg = fixed_subalgebra(gamma_matrix(), b)
    s = subalgebra_structure(fg, b)
    assert (s.dim, s.derived_dim, s.center_dim) == (6, 6, 0), f"gamma fixed: {s}"
    fg1 = fixed_subalgebra(gamma1_matrix(), b)
    s1 = subalgebra_structure(fg1, b)
    assert (s1.dim, s1.derived_dim, s1.center_dim) == (8, 8, 0), (
        f"gamma1 fixed subalgebra is {(s1.dim, s1.derived_dim, s1.center_dim)}, "
        "not (8, 8, 0): gamma1 is an involution conjugate to gamma, so its "
        "fixed subalgebra is 6-dimensional; the 8-dimensional su(3) is the "
        "stabilizer of e1 (see notes/decisions.md)"
    )
    return "gamma fixed (6,6,0); gamma1 fixed (8,8,0)"


def check_06b_su3_stabilizer_shadow() -> str:
    """The stabilizer of e1 is the 8-dimensional su(3): dim 8, derived 8,
    center 0 (the subgroup shadow that is actually 8-dimensional)."""
    b = derivation_basis()
    sub = stabilizer_subalgebra(Octonion.basis(1), b)
    s = subalgebra_structure(sub, b)
    assert (s.dim, s.derived_dim, s.center_dim) == (8, 8, 0), f"e1 stabilizer: {s}"
    return "stabilizer of e1 fingerprints (8,8,0)"


def check_07_cayley_laws() -> str:
    """Alternativity, composition and the conjugation anti-automorphism for
    all octonions, by their full linearisations on the units e0..e7, with one
    dense pair tying _product to its 64 unit products (notes/decisions.md);
    gamma/gamma1 are involutions and automorphisms on all 64 basis pairs."""
    m, dot, signs, sub = cayley._product, cayley._dot, cayley._signs, cayley._sub
    c, g, g1 = cayley._CONJ_SIGNS, cayley._GAMMA_SIGNS, cayley._GAMMA1_SIGNS
    e = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    t = [[m(x, y) for y in e] for x in e]
    # the associators A[i][j][k] = (e_i e_j) e_k - e_i (e_j e_k)
    a = [[[sub(m(t[i][j], z), m(x, t[j][k])) for k, z in enumerate(e)] for j in range(8)] for i, x in enumerate(e)]
    pairs = [(i, j) for i in range(8) for j in range(i, 8)]
    for i, j in pairs:  # x, z = e_i, e_j: each linearised law is symmetric in x and z
        for k in range(8):  # y = e_k: A(x, z, y) = -A(z, x, y) and A(y, x, z) = -A(y, z, x)
            assert not any(map(add, a[i][j][k], a[j][i][k])), f"left alternativity fails at {i, j, k}"
            assert not any(map(add, a[k][i][j], a[k][j][i])), f"right alternativity fails at {i, j, k}"
    # <xy, zw> + <xw, zy> = 2<x, z><y, w> on x, z, y, w = e_i, e_j, e_k, e_l, symmetric in x, z and in y, w
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
    return (
        "all octonions, linearised on the 8 units: alternative, composition, anti-automorphism; "
        "gamma, gamma1 automorphisms"
    )


def check_08_model_agreement() -> str:
    """The complex-vector product matches the doubling product on all 64
    basis pairs under the documented identification."""
    basis = [Octonion.basis(i) for i in range(8)]
    for i in range(8):
        for j in range(8):
            via = from_complex_model(to_complex_model(basis[i]) * to_complex_model(basis[j]))
            assert via == basis[i] * basis[j], f"models disagree on ({i},{j})"
    return "both products agree on all 64 basis pairs"


def check_09_lie_algebra_integrity() -> str:
    """Structure constants satisfy Jacobi exactly; Killing form symmetric
    and negative definite (leading minors); ad-invariant on all triples.

    The constants are antisymmetric by construction, so Jacobi is the
    cyclic sum over basis triples i < j < k, walking the nonzero c[i][j][l]:
    sum_l c[i][j][l] c[l][k] + c[j][k][l] c[l][i] + c[k][i][l] c[l][j] = 0.
    B([z, x], y) + B(x, [z, y]) is trilinear, so it vanishes everywhere
    exactly when T[k][i][j] = B([D_k, D_i], D_j) = sum_l c[k][i][l] G[l][j]
    is antisymmetric in (i, j), diagonal included."""
    b = derivation_basis()
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
    assert gram == gram.transpose(), "Killing Gram matrix not symmetric"
    neg = -gram
    for k in range(1, n + 1):
        minor = Matrix(k, k, [neg.entry(i, j) for i in range(k) for j in range(k)])
        assert det(minor) > 0, f"leading minor {k} of -B not positive"
    for k in range(n):
        t = Matrix.from_rows(c[k]) * gram
        assert (t + t.transpose()).is_zero(), f"Killing form not ad-invariant under D_{k}"
    return "Jacobi exact, -B positive definite (14 minors), ad-invariance on all basis triples (trilinear form)"


def check_10_weyl_scaling_invariance() -> str:
    """Orbit type is stable under all 12 Weyl reflections, and type, dim,
    structure and vanishing roots under each rescaling in SCALES, for one tau
    per vanishing set.  Both map vanishing sets to vanishing sets, so this
    covers every Cartan element (notes/decisions.md)."""
    roots = root_system()
    reps = _vanishing_representatives()
    summary = attrgetter("orbit_type", "stabilizer_dim", "structure", "vanishing")
    for tau in reps.values():
        rep = classify(tau)
        for r in roots:
            rep2 = classify(weyl_reflect(r, tau))
            assert rep2.orbit_type == rep.orbit_type, (tau.tau, r.coeffs)
        for c in SCALES:
            assert summary(classify(tau.scaled(c))) == summary(rep), (tau.tau, c)
    return f"{len(reps)} vanishing sets: 12 reflections + {len(SCALES)} rescalings leave the classification unchanged"


def check_11_numeric_bridge() -> str:
    """exp(tD) is numerically orthogonal and an algebra automorphism to
    1e-9 for 20 random derivations and times, in plain floats."""
    b = derivation_basis()
    m = cayley._product
    rng = random.Random(1618)
    worst_orth = worst_auto = 0.0

    def apply(a, u):
        return [sum(map(mul, row, u)) for row in a]

    def unit():
        u = [rng.uniform(-1, 1) for _ in range(8)]
        n = math.sqrt(sum(v * v for v in u))
        return [v / n for v in u]

    for _ in range(20):
        d = b.from_coordinates([rng.randint(-2, 2) for _ in range(b.dim)])
        t = rng.uniform(-2.0, 2.0)
        a = exp_derivation_numeric(d, t)
        cols = tuple(zip(*a))
        # each dot product is symmetric bit for bit, so the pairs i <= j suffice
        orth = max(abs(sum(map(mul, cols[i], cols[j])) - (i == j)) for i in range(8) for j in range(i, 8))
        x, y = unit(), unit()
        auto = max(abs(p - q) for p, q in zip(apply(a, m(x, y)), m(apply(a, x), apply(a, y))))
        worst_orth = max(worst_orth, orth)
        worst_auto = max(worst_auto, auto)
        assert orth < 1e-9, f"orthogonality residual {orth:.2e}"
        assert auto < 1e-9, f"automorphism residual {auto:.2e}"
    return f"20 samples: orthogonality <= {worst_orth:.1e}, automorphism <= {worst_auto:.1e}"


ALL_CHECKS = (
    ("1 derivation dimension", check_01_derivation_dimension),
    ("2 four orbit types", check_02_four_orbit_types),
    ("3 named triples", check_03_named_triples),
    ("4 root system", check_04_root_system),
    ("5 stabilizer fingerprints", check_05_stabilizer_fingerprints),
    ("6 involution shadows", check_06_involution_shadows),
    ("6b su(3) stabilizer shadow", check_06b_su3_stabilizer_shadow),
    ("7 cayley laws", check_07_cayley_laws),
    ("8 model agreement", check_08_model_agreement),
    ("9 lie algebra integrity", check_09_lie_algebra_integrity),
    ("10 weyl and scaling invariance", check_10_weyl_scaling_invariance),
    ("11 numeric bridge", check_11_numeric_bridge),
)


def run_all(out=print) -> bool:
    """Run every check, print one PASS/FAIL line each, return overall."""
    ok = True
    for name, fn in ALL_CHECKS:
        try:
            detail = fn()
        except AssertionError as exc:
            out(f"FAIL {name}: {exc}")
            ok = False
        else:
            out(f"PASS {name}: {detail}")
    return ok
