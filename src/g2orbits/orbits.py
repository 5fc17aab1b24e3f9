"""Adjoint orbit classification for Cartan elements.

The centralizer of a Cartan element is the Cartan subalgebra plus the root
spaces of the roots vanishing on it, so classification is keyed by the
vanishing roots (8 possible sets), and each set's centralizer is computed
exactly once.  Its dimension is 14 (zero element), 4 (exactly one root pair
vanishes) or 2 (generic); anything else aborts with InternalInvariantError.
The two 4-dimensional cases are distinguished by the Killing length class of
the vanishing root pair, which is Weyl invariant.  Display labels for the two
length classes are attached through a naming convention flag, since the
pairing of labels with length classes is presentation, not mathematics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .derivations import (
    SubalgebraSummary,
    adjoint_matrix,
    derivation_basis,
    subalgebra_structure,
)
from .errors import InternalInvariantError
from .linalg import kernel_basis
from .roots import TAU_GENERIC, CartanElement, _coerce_cartan, cartan_element, vanishing_roots


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


@dataclass(frozen=True)
class ClassificationReport:
    tau: CartanElement
    stabilizer_dim: int
    orbit_type: OrbitType
    orbit_label: str
    vanishing: tuple
    structure: SubalgebraSummary
    convention: str

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
    """Canonical basis of the derivations commuting with cartan_element(tau)."""
    b = derivation_basis()
    kern = kernel_basis(adjoint_matrix(cartan_element(tau), b))
    return tuple(b.from_coordinates(v) for v in kern)


@lru_cache
def _stabilizer(van: tuple):
    """(stabilizer_dim, orbit_type, structure) of every tau on which exactly
    the roots van vanish, from the centralizer of one such representative:
    the generic element, zero, or (1,1,1) x a for a pair with coefficients a.
    """
    if not van:
        rep = TAU_GENERIC
    elif len(van) == 12:
        rep = (0, 0, 0)
    else:
        a1, a2, a3 = van[0].coeffs
        rep = (a3 - a2, a1 - a3, a2 - a1)
    if vanishing_roots(rep) != van:
        raise InternalInvariantError(f"no representative for vanishing roots {[r.coeffs for r in van]}")
    cent = centralizer(rep)
    dim = len(cent)
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
    return dim, orbit_type, subalgebra_structure(cent, derivation_basis())


def classify(tau, convention: str = CONVENTION_DEFAULT) -> ClassificationReport:
    """Full orbit-type report for a Cartan element, keyed by its vanishing
    roots in root_system(): the stabilizer of each of the 8 vanishing sets
    is computed once, from the centralizer of one representative.

    Raises SumNonzeroError for bad input and InternalInvariantError if the
    stabilizer dimension falls outside {2, 4, 14} (that would contradict
    the four-orbit-type classification and must abort loudly).
    """
    tau = _coerce_cartan(tau)
    if convention not in _LABELS:
        raise ValueError(f"unknown convention {convention!r}")
    van = vanishing_roots(tau)
    dim, orbit_type, structure = _stabilizer(van)
    return ClassificationReport(
        tau=tau,
        stabilizer_dim=dim,
        orbit_type=orbit_type,
        orbit_label=_LABELS[convention][orbit_type],
        vanishing=van,
        structure=structure,
        convention=convention,
    )


@dataclass(frozen=True)
class Census:
    """Result of classifying every lattice point of a ball."""

    radius: int
    counts: dict
    reports: tuple

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "points": len(self.reports),
            "counts": dict(self.counts),
            "stabilizer_dims_ok": True,
            "census": [
                {
                    "tau": [int(t) for t in rep.tau.tau],
                    "stabilizer_dim": rep.stabilizer_dim,
                    "orbit_type": rep.orbit_type.value,
                }
                for rep in self.reports
            ],
        }

    def csv_rows(self):
        yield "tau1,tau2,tau3,stabilizer_dim,orbit_type"
        for rep in self.reports:
            t = rep.tau.tau
            yield f"{t[0]},{t[1]},{t[2]},{rep.stabilizer_dim},{rep.orbit_type.value}"


def scan(radius: int, convention: str = CONVENTION_DEFAULT) -> Census:
    """Classify every integer triple with zero sum and max |t_i| <= radius.

    Points are enumerated lexicographically in (t1, t2) and each is
    classified by classify, so a radius of 3 or more fills all 8
    vanishing-set stabilizers and every further point costs 12 root
    evaluations.  Any stabilizer dimension outside {2, 4, 14} raises
    InternalInvariantError from classify, so every census reports
    stabilizer_dims_ok as true.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    counts = {t.name: 0 for t in OrbitType}
    reports = []
    for t1 in range(-radius, radius + 1):
        for t2 in range(max(-radius, -radius - t1), min(radius, radius - t1) + 1):
            rep = classify(CartanElement.of(t1, t2, -t1 - t2), convention)
            counts[rep.orbit_type.name] += 1
            reports.append(rep)
    return Census(radius=radius, counts=counts, reports=tuple(reports))
