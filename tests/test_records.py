"""The package's record classes: SubalgebraSummary, Root,
ClassificationReport and Census keep the equality, hashing, immutability
and repr text they had as frozen dataclasses."""

from fractions import Fraction

import pytest

from g2orbits.derivations import SubalgebraSummary, derivation_basis, subalgebra_structure
from g2orbits.orbits import Census, ClassificationReport, centralizer, classify, scan
from g2orbits.roots import CartanElement, Root, root_system


FIELDS = {
    SubalgebraSummary: ("dim", "derived_dim", "center_dim", "is_abelian"),
    Root: ("coeffs", "killing_sq_length", "length_class", "coroot"),
    ClassificationReport: (
        "tau", "stabilizer_dim", "orbit_type", "orbit_label", "vanishing", "structure", "convention",
    ),
    Census: ("radius", "counts"),
}


def fields(x) -> tuple:
    return tuple(getattr(x, n) for n in FIELDS[type(x)])


def records():
    """One instance of each record class, with a rebuilt equal twin."""
    summary = subalgebra_structure(centralizer((1, 0, -1)), derivation_basis())
    root = root_system()[0]
    report = classify((1, 0, -1))
    census = scan(1)
    return [
        (summary, SubalgebraSummary(4, 3, 1, False)),
        (root, Root((0, 0, 1), Fraction(1, 12), "short", CartanElement.of(-1, -1, 2))),
        (report, ClassificationReport(**dict(zip(FIELDS[ClassificationReport], fields(report))))),
        (census, Census(1, dict(census.counts))),
    ]


IDS = ["SubalgebraSummary", "Root", "ClassificationReport", "Census"]


def test_repr_text_of_the_dataclasses():
    assert [repr(x) for x, _ in records()] == [
        "SubalgebraSummary(dim=4, derived_dim=3, center_dim=1, is_abelian=False)",
        "Root(coeffs=(0, 0, 1), killing_sq_length=Fraction(1, 12), length_class='short', "
        "coroot=CartanElement(-1, -1, 2))",
        "ClassificationReport(tau=CartanElement(1, 0, -1), stabilizer_dim=4, "
        "orbit_type=<OrbitType.DIM4_SHORT: 'DIM4_SHORT'>, orbit_label='G2/((Sp(1)xU(1))/Z2)', "
        "vanishing=(Root(coeffs=(0, 1, 0), killing_sq_length=Fraction(1, 12), length_class='short', "
        "coroot=CartanElement(-1, 2, -1)), "
        "Root(coeffs=(1, 0, 1), killing_sq_length=Fraction(1, 12), length_class='short', "
        "coroot=CartanElement(1, -2, 1))), "
        "structure=SubalgebraSummary(dim=4, derived_dim=3, center_dim=1, is_abelian=False), "
        "convention='short=sp1xu1')",
        "Census(radius=1, counts={'FULL': 1, 'TORUS': 0, 'DIM4_SHORT': 6, 'DIM4_LONG': 0})",
    ]


@pytest.mark.parametrize("index", range(4), ids=IDS)
def test_equal_fields_give_equal_records(index):
    x, twin = records()[index]
    assert x == twin and not x != twin and x is not twin
    if isinstance(x, Census):
        with pytest.raises(TypeError):  # its counts are a dict, as before
            hash(x)
    else:
        assert hash(x) == hash(twin)


@pytest.mark.parametrize("index", range(4), ids=IDS)
def test_a_record_is_not_a_tuple_of_its_fields(index):
    x, _ = records()[index]
    assert x != fields(x) and fields(x) != x


def test_the_fields_are_the_slots():
    assert {cls: cls.__slots__ for cls in FIELDS} == FIELDS


def test_records_with_other_fields_differ():
    summary = SubalgebraSummary(4, 3, 1, False)
    assert summary != SubalgebraSummary(4, 3, 1, True)
    assert root_system()[0] != root_system()[1]
    assert len({root_system()[0], Root((0, 0, 1), Fraction(1, 12), "short", CartanElement.of(-1, -1, 2))}) == 1
    assert root_system()[0] != Root((0, 0, 1), Fraction(1, 12), "short", CartanElement.of(1, 1, -2))


@pytest.mark.parametrize("index", range(4), ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(index):
    x, twin = records()[index]
    name = FIELDS[type(x)][0]
    with pytest.raises(AttributeError):
        setattr(x, name, 0)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 0
    assert x == twin


def test_fields_must_match_exactly():
    with pytest.raises(TypeError):
        SubalgebraSummary(4, 3, 1)
    with pytest.raises(TypeError):
        SubalgebraSummary(4, 3, 1, False, 0)
    with pytest.raises(TypeError):
        Census(radius=3, counts={}, colour="red")
    assert SubalgebraSummary(dim=4, derived_dim=3, center_dim=1, is_abelian=False) == SubalgebraSummary(4, 3, 1, False)
