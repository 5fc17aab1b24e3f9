"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The check bodies live in g2orbits.checks so the CLI `check` subcommand runs
exactly the same verifications.

Criterion 6 is the one exception: its test does not call its checks.py
twin.  It asserts the true fingerprints (6, 6, 0) for the fixed
subalgebras of both gamma and gamma1, and proves the gamma1 figure with an
exact conjugacy certificate: a signed-permutation automorphism g with
g gamma = gamma1 g, whose adjoint action carries Fix(gamma) onto
Fix(gamma1).  The 8-dimensional su(3) is the stabilizer of e1, covered by
the extra check 6b.  `g2orbits check` still reports the stated
(8, 8, 0) contract for gamma1 as FAIL and exits 3.  See notes/decisions.md
at the repository root for the full analysis.
"""

from g2orbits import checks
from g2orbits.cayley import gamma1_matrix, gamma_matrix, is_automorphism_matrix
from g2orbits.derivations import Derivation, derivation_basis, fixed_subalgebra, subalgebra_structure
from g2orbits.linalg import Matrix, rank
from matrices import identity, product, transpose
from test_derivations import satisfies_leibniz


def _run(name, fn):
    try:
        detail = fn()
    except AssertionError as exc:
        print(f"ACCEPTANCE {name} FAIL: {exc}")
        raise
    print(f"ACCEPTANCE {name} PASS: {detail}")


def test_criterion_01_derivation_dimension():
    _run("1", checks.check_01_derivation_dimension)


def test_criterion_02_four_orbit_types():
    _run("2", checks.check_02_four_orbit_types)


def test_criterion_03_named_triples():
    _run("3", checks.check_03_named_triples)


def test_criterion_04_root_system():
    _run("4", checks.check_04_root_system)


def test_criterion_05_stabilizer_fingerprints():
    _run("5", checks.check_05_stabilizer_fingerprints)


#: e_j -> sign * e_image: an automorphism of O with g gamma = gamma1 g
_CERTIFICATE = {0: (0, 1), 1: (2, 1), 2: (4, 1), 3: (6, 1),
                4: (1, 1), 5: (3, -1), 6: (5, -1), 7: (7, 1)}


def _span_rank(derivations) -> int:
    return rank(Matrix.from_rows([d.flat() for d in derivations]))


def _involution_shadows() -> str:
    """Fixed subalgebras of gamma and gamma1: both (6, 6, 0), the gamma1
    figure proved by the conjugacy certificate g.

    g is an orthogonal automorphism with g gamma = gamma1 g, so
    Ad(g): D -> g D g^T is a Lie algebra isomorphism from Fix(gamma) onto
    Fix(gamma1).
    """
    b = derivation_basis()
    gamma, gamma1 = gamma_matrix(), gamma1_matrix()
    fix = fixed_subalgebra(gamma, b)
    fix1 = fixed_subalgebra(gamma1, b)
    s = subalgebra_structure(fix, b)
    s1 = subalgebra_structure(fix1, b)
    assert (s.dim, s.derived_dim, s.center_dim) == (6, 6, 0), f"gamma fixed: {s}"
    assert (s1.dim, s1.derived_dim, s1.center_dim) == (6, 6, 0), f"gamma1 fixed: {s1}"

    entries = [0] * 64
    for j, (i, sign) in _CERTIFICATE.items():
        entries[8 * i + j] = sign
    g = Matrix(8, 8, entries)
    gt = transpose(g)
    assert is_automorphism_matrix(g), "certificate g is not an automorphism"
    assert product(g, gt) == identity(8), "certificate g is not orthogonal"
    assert product(g, gamma) == product(gamma1, g), "certificate g does not conjugate gamma into gamma1"
    images = [Derivation(product(product(g, b.from_coordinates(v).matrix), gt)) for v in fix]
    assert all(satisfies_leibniz(d) for d in images), "Ad(g) image is not a derivation"
    assert all(product(gamma1, d.matrix) == product(d.matrix, gamma1) for d in images), (
        "Ad(g) image is not fixed by gamma1"
    )
    assert _span_rank(images) == 6, "Ad(g) images of Fix(gamma) do not span rank 6"
    fix1 = [b.from_coordinates(v) for v in fix1]
    assert _span_rank(images + fix1) == 6, "Ad(g) Fix(gamma) is not Fix(gamma1)"
    return "gamma fixed (6,6,0); gamma1 fixed (6,6,0) = Ad(g) of gamma's, g a signed-permutation automorphism"


def test_criterion_06_involution_shadows():
    # the true fingerprints, certified by conjugacy; the only criterion that
    # does not call its checks.py twin, whose gamma1 half asserts (8, 8, 0)
    _run("6", _involution_shadows)


def test_criterion_06b_su3_stabilizer_shadow():
    _run("6b", checks.check_06b_su3_stabilizer_shadow)


def test_criterion_07_cayley_laws():
    _run("7", checks.check_07_cayley_laws)


def test_criterion_08_model_agreement():
    _run("8", checks.check_08_model_agreement)


def test_criterion_09_lie_algebra_integrity():
    _run("9", checks.check_09_lie_algebra_integrity)


def test_criterion_10_weyl_scaling_invariance():
    _run("10", checks.check_10_weyl_scaling_invariance)


def test_criterion_11_numeric_bridge():
    _run("11", checks.check_11_numeric_bridge)
