"""Exact computation in the octonions and their derivation algebra.

The package constructs the octonion algebra over exact rationals, carves
out its 14-dimensional derivation Lie algebra (compact type G2) as the
kernel of the product-rule constraint system, fixes a Cartan subalgebra,
extracts the 12-root system from exact rational kernels, and classifies the
adjoint orbit type of any Cartan element into the four possible classes.
"""

from .cayley import (
    ComplexModelElement,
    MULT_TABLE,
    Octonion,
    from_complex_model,
    gamma,
    gamma1,
    gamma1_matrix,
    gamma_matrix,
    inner,
    norm,
    to_complex_model,
)
from .derivations import (
    Derivation,
    G2AlgebraBasis,
    SubalgebraSummary,
    adjoint_matrix,
    derivation_basis,
    exp_derivation_numeric,
    fixed_subalgebra,
    leibniz_system,
    stabilizer_subalgebra,
    subalgebra_structure,
)
from .errors import (
    InternalInvariantError,
    NotBracketClosedError,
    NotInSpanError,
    SumNonzeroError,
)
from .linalg import Matrix, det, kernel_basis, rank, rref, solve
from .orbits import (
    CONVENTION_DEFAULT,
    Census,
    ClassificationReport,
    OrbitType,
    centralizer,
    classify,
    scan,
)
from .roots import (
    CartanElement,
    Root,
    canonical_root_coeffs,
    cartan_basis,
    cartan_element,
    root_system,
    vanishing_roots,
    weyl_reflect,
)

__version__ = "0.1.0"

__all__ = [
    "CONVENTION_DEFAULT",
    "CartanElement",
    "Census",
    "ClassificationReport",
    "ComplexModelElement",
    "Derivation",
    "G2AlgebraBasis",
    "InternalInvariantError",
    "MULT_TABLE",
    "Matrix",
    "NotBracketClosedError",
    "NotInSpanError",
    "Octonion",
    "OrbitType",
    "Root",
    "SubalgebraSummary",
    "SumNonzeroError",
    "adjoint_matrix",
    "canonical_root_coeffs",
    "cartan_basis",
    "cartan_element",
    "centralizer",
    "classify",
    "derivation_basis",
    "det",
    "exp_derivation_numeric",
    "fixed_subalgebra",
    "from_complex_model",
    "gamma",
    "gamma1",
    "gamma1_matrix",
    "gamma_matrix",
    "inner",
    "kernel_basis",
    "leibniz_system",
    "norm",
    "rank",
    "root_system",
    "rref",
    "scan",
    "solve",
    "stabilizer_subalgebra",
    "subalgebra_structure",
    "to_complex_model",
    "vanishing_roots",
    "weyl_reflect",
]
