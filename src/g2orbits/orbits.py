"""Adjoint orbit classification for Cartan elements.

The centralizer of a Cartan element inside the derivation algebra has
dimension 14 (zero element), 4 (exactly one root pair vanishes) or 2
(generic); anything else aborts with InternalInvariantError.  The two
4-dimensional cases are distinguished by the Killing length class of the
vanishing root pair, which is Weyl invariant.  Display labels for the two
length classes are attached through a naming convention flag, since the
pairing of labels with length classes is presentation, not mathematics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .derivations import (
    Derivation,
    G2AlgebraBasis,
    SubalgebraSummary,
    adjoint_matrix,
    derivation_basis,
    subalgebra_structure,
)
from .errors import InternalInvariantError
from .linalg import Matrix, kernel_basis
from .roots import CartanElement, Root, _coerce_cartan, cartan_basis, root_system, vanishing_roots


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


@lru_cache(maxsize=1)
def _cartan_adjoints():
    """Adjoint matrices of H1, H2 in the canonical basis (entry tuples)."""
    b = derivation_basis()
    h1, h2 = cartan_basis()
    return adjoint_matrix(h1, b).entries, adjoint_matrix(h2, b).entries


def _ad_of_tau(tau: CartanElement, b: G2AlgebraBasis) -> Matrix:
    """ad(cartan_element(tau)) via linearity: tau = t1*H1 - t3*H2."""
    a1, a2 = _cartan_adjoints()
    t1 = tau.tau[0]
    mt3 = -tau.tau[2]
    ents = [t1 * x + mt3 * y for x, y in zip(a1, a2)]
    return Matrix(b.dim, b.dim, ents)


def centralizer(tau, b: G2AlgebraBasis = None):
    """Canonical basis of the derivations commuting with cartan_element(tau)."""
    tau = _coerce_cartan(tau)
    if b is None:
        b = derivation_basis()
    kern = kernel_basis(_ad_of_tau(tau, b))
    return tuple(b.from_coordinates(v) for v in kern)


def classify(tau, convention: str = CONVENTION_DEFAULT, b: G2AlgebraBasis = None) -> ClassificationReport:
    """Full orbit-type report for a Cartan element.

    Raises SumNonzeroError for bad input and InternalInvariantError if the
    computed stabilizer dimension falls outside {2, 4, 14} (that would
    contradict the four-orbit-type classification and must abort loudly).
    """
    tau = _coerce_cartan(tau)
    if convention not in _LABELS:
        raise ValueError(f"unknown convention {convention!r}")
    if b is None:
        b = derivation_basis()
    cent = centralizer(tau, b)
    dim = len(cent)
    if dim not in (2, 4, 14):
        raise InternalInvariantError(f"stabilizer dimension {dim} outside {{2, 4, 14}}")
    van = vanishing_roots(tau, root_system(b))
    expected_vanishing = {14: 12, 4: 2, 2: 0}[dim]
    if len(van) != expected_vanishing:
        raise InternalInvariantError(
            f"stabilizer dimension {dim} with {len(van)} vanishing roots"
        )
    if dim == 14:
        orbit_type = OrbitType.FULL
    elif dim == 2:
        orbit_type = OrbitType.TORUS
    else:
        classes = {r.length_class for r in van}
        if len(classes) != 1:
            raise InternalInvariantError("vanishing root pair of mixed length class")
        orbit_type = OrbitType.DIM4_SHORT if classes == {"short"} else OrbitType.DIM4_LONG
    structure = subalgebra_structure(cent, b)
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
    dims_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "points": len(self.reports),
            "counts": dict(self.counts),
            "stabilizer_dims_ok": self.dims_ok,
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


def scan(radius: int, convention: str = CONVENTION_DEFAULT, b: G2AlgebraBasis = None) -> Census:
    """Classify every integer triple with zero sum and max |t_i| <= radius.

    Points are enumerated lexicographically in (t1, t2).  Any stabilizer
    dimension outside {2, 4, 14} raises InternalInvariantError from
    classify, so a returned census always has dims_ok=True.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if b is None:
        b = derivation_basis()
    counts = {t.name: 0 for t in OrbitType}
    reports = []
    for t1 in range(-radius, radius + 1):
        for t2 in range(-radius, radius + 1):
            t3 = -t1 - t2
            if abs(t3) > radius:
                continue
            rep = classify(CartanElement.of(t1, t2, t3), convention, b)
            counts[rep.orbit_type.name] += 1
            reports.append(rep)
    return Census(radius=radius, counts=counts, reports=tuple(reports), dims_ok=True)
