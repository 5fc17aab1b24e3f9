"""Adjoint orbit classification for Cartan elements.

The centralizer of a Cartan element is the Cartan subalgebra plus the root
spaces of the roots vanishing on it, so classification is keyed by the
vanishing roots (the 8 sets of roots.vanishing_sets(), read off the root
lines), and each set's stabilizer dimension is computed exactly once, from
the exact rank of the adjoint matrix t1 ad(H1) - t3 ad(H2) of that set's
representative, formed in the 14 coordinates (no 8x8 matrix is built
here).  It is 14 (zero element), 4 (exactly one root pair vanishes) or 2
(generic); anything else aborts with InternalInvariantError.
The two 4-dimensional cases are distinguished by the Killing length class of
the vanishing root pair, which is Weyl invariant.  Display labels for the two
length classes are attached by classify's naming convention, since the
pairing of labels with length classes is presentation, not mathematics; a
census carries orbit types only.
The vanishing roots are found with int dot products (on a rational tau's
stored numerators) as a bit mask, the memo's key, and a lattice census
streams its rows through the same memo without holding per-point data.
"""

from __future__ import annotations

import enum
from collections import Counter
from functools import lru_cache

from .derivations import G2_DIM, SubalgebraSummary, derivation_basis, subalgebra_structure
from .errors import InternalInvariantError
from .linalg import _Record, kernel_basis, rank
from .roots import _coerce_cartan, cartan_adjoint, roots_in, vanishing_mask, vanishing_sets


class OrbitType(enum.Enum):
    FULL = "FULL"
    TORUS = "TORUS"
    DIM4_SHORT = "DIM4_SHORT"
    DIM4_LONG = "DIM4_LONG"


CONVENTION_DEFAULT = "short=sp1xu1"

_DEFAULT_LABELS = {
    OrbitType.FULL: "G2/G2",
    OrbitType.TORUS: "G2/(U(1)xU(1))",
    OrbitType.DIM4_SHORT: "G2/((Sp(1)xU(1))/Z2)",
    OrbitType.DIM4_LONG: "G2/((U(1)xSp(1))/Z2)",
}

# the other convention swaps the labels of the two 4-dimensional classes
_LABELS = {
    CONVENTION_DEFAULT: _DEFAULT_LABELS,
    "short=u1xsp1": {
        **_DEFAULT_LABELS,
        OrbitType.DIM4_SHORT: _DEFAULT_LABELS[OrbitType.DIM4_LONG],
        OrbitType.DIM4_LONG: _DEFAULT_LABELS[OrbitType.DIM4_SHORT],
    },
}


def conventions():
    return tuple(_LABELS)


class ClassificationReport(_Record):
    __slots__ = ("tau", "stabilizer_dim", "orbit_type", "orbit_label", "vanishing", "structure", "convention")

    def to_json_dict(self) -> dict:
        return {
            "tau": [str(t) for t in self.tau.tau],
            "stabilizer_dim": self.stabilizer_dim,
            "orbit_type": self.orbit_type.value,
            "orbit_label": self.orbit_label,
            "vanishing_roots": [list(r.coeffs) for r in self.vanishing],
            "structure": {
                "dim": self.structure.dim,
                "derived_dim": self.structure.derived_dim,
                "center_dim": self.structure.center_dim,
            },
            "convention": self.convention,
        }


def centralizer(tau):
    """Canonical basis of the derivations commuting with cartan_element(tau),
    as 14-coordinate rows in derivation_basis()."""
    return kernel_basis(cartan_adjoint(tau))


@lru_cache
def _stabilizer(mask: int):
    """(stabilizer_dim, orbit_type) of every tau on which exactly the roots
    in mask vanish, from the exact rank of the adjoint matrix of that set's
    representative in vanishing_sets()."""
    van = roots_in(mask)
    dim = G2_DIM - rank(cartan_adjoint(vanishing_sets()[mask]))
    if dim not in (2, 4, 14) or dim != 2 + len(van):
        raise InternalInvariantError(f"stabilizer dimension {dim} with {len(van)} vanishing roots")
    if dim == 14:
        orbit_type = OrbitType.FULL
    elif dim == 2:
        orbit_type = OrbitType.TORUS
    elif van[0].length_class != van[1].length_class:
        raise InternalInvariantError("vanishing root pair of mixed length class")
    else:
        orbit_type = OrbitType.DIM4_SHORT if van[0].length_class == "short" else OrbitType.DIM4_LONG
    return dim, orbit_type


@lru_cache
def _structure(mask: int) -> SubalgebraSummary:
    """Structure fingerprint of the stabilizer of the vanishing set mask.

    Only classify reports it, so a lattice scan, which prints dimensions
    and types alone, pays for neither the centralizer basis nor its 196
    brackets for FULL.
    """
    return subalgebra_structure(centralizer(vanishing_sets()[mask]), derivation_basis())


def classify(tau, convention: str = CONVENTION_DEFAULT) -> ClassificationReport:
    """Full orbit-type report for a Cartan element, keyed by its vanishing
    roots in root_system(): the stabilizer dimension and the structure
    fingerprint of each of the 8 vanishing sets are computed once, from its
    representative in vanishing_sets().

    Raises SumNonzeroError for bad input and InternalInvariantError if the
    stabilizer dimension falls outside {2, 4, 14} (that would contradict
    the four-orbit-type classification and must abort loudly).
    """
    tau = _coerce_cartan(tau)
    if convention not in _LABELS:
        raise ValueError(f"unknown convention {convention!r}")
    mask = vanishing_mask(*tau.num)
    dim, orbit_type = _stabilizer(mask)
    return ClassificationReport(
        tau=tau,
        stabilizer_dim=dim,
        orbit_type=orbit_type,
        orbit_label=_LABELS[convention][orbit_type],
        vanishing=roots_in(mask),
        structure=_structure(mask),
        convention=convention,
    )


def lattice_rows(radius: int):
    """(t1, t2, t3, stabilizer_dim, orbit_type) for every integer triple
    with zero sum and max |t_i| <= radius, lexicographic in (t1, t2).

    Each point costs 12 int dot products (vanishing_mask) and one lookup
    in the vanishing-set memo; nothing is held between points.
    """
    for t1 in range(-radius, radius + 1):
        for t2 in range(max(-radius, -radius - t1), min(radius, radius - t1) + 1):
            t3 = -t1 - t2
            dim, orbit_type = _stabilizer(vanishing_mask(t1, t2, t3))
            yield t1, t2, t3, dim, orbit_type


#: one census entry as json.dumps(..., indent=2) lays it out
_JSON_ENTRY = """\
    {
      "tau": [
        %d,
        %d,
        %d
      ],
      "stabilizer_dim": %d,
      "orbit_type": "%s"
    }"""


class Census(_Record):
    """Orbit-type counts over the lattice ball of a radius.

    A census holds no per-point data: its rows and renderings are
    generated again from lattice_rows(radius) whenever they are asked for,
    so CSV and JSON stream in constant memory at any radius.
    """

    __slots__ = ("radius", "counts")

    def _header(self) -> dict:
        return {
            "radius": self.radius,
            "points": sum(self.counts.values()),
            "counts": dict(self.counts),
            "stabilizer_dims_ok": True,
        }

    def to_json_dict(self) -> dict:
        return {
            **self._header(),
            "census": [
                {"tau": [t1, t2, t3], "stabilizer_dim": dim, "orbit_type": orbit_type.value}
                for t1, t2, t3, dim, orbit_type in lattice_rows(self.radius)
            ],
        }

    def json_lines(self):
        """json.dumps(self.to_json_dict(), indent=2) as whole lines, one
        census entry per piece: joined by newlines they are that text."""
        import json

        yield json.dumps(self._header(), indent=2)[:-2] + ',\n  "census": ['
        entries = (
            _JSON_ENTRY % (t1, t2, t3, dim, orbit_type.value)
            for t1, t2, t3, dim, orbit_type in lattice_rows(self.radius)
        )
        entry = next(entries)  # every ball holds the origin
        for following in entries:
            yield entry + ","
            entry = following
        yield entry
        yield "  ]\n}"

    def csv_rows(self):
        yield "tau1,tau2,tau3,stabilizer_dim,orbit_type"
        for t1, t2, t3, dim, orbit_type in lattice_rows(self.radius):
            yield f"{t1},{t2},{t3},{dim},{orbit_type.value}"


def scan(radius: int) -> Census:
    """Count the orbit types of every integer triple with zero sum and
    max |t_i| <= radius, in one pass over lattice_rows(radius).  Rows and
    counts are orbit types, so no label convention enters a census.

    A radius of 3 or more fills all 8 vanishing-set stabilizers, and every
    further point costs 12 int dot products.  Any stabilizer dimension
    outside {2, 4, 14} raises InternalInvariantError from the memo, so
    every census reports stabilizer_dims_ok as true.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    tally = Counter(row[4] for row in lattice_rows(radius))
    return Census(radius=radius, counts={t.name: tally[t] for t in OrbitType})
