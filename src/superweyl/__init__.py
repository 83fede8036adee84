"""Exact-arithmetic tools for symplectic representations of quadratic Lie
algebras and their extensions to Lie superalgebras with an invariant form.

The decision procedure: lift the representation to quadratic elements of a
polynomial algebra carrying the symmetrized Weyl product, form the image of
the quadratic Casimir element, and read off its degree-four component.  The
extension exists exactly when that component vanishes, and is then unique,
with the odd bracket given by pairing against the quadratic lifts.
"""

__version__ = "0.1.0"

from .engine import (
    CheckResult,
    SuperAlgebraData,
    SymplecticRep,
    TestReport,
    casimir_image,
    construct_superalgebra,
    decide,
    jacobiator,
    quadratic_lift,
    quadratic_lift_adjoint,
    validate_rep,
    verify_superalgebra,
)
from .exactla import Matrix, Scalar, as_scalar
from .liealg import QuadraticLieAlgebra, casimir_pairs, validate_lie
from .spbridge import (
    quadratic_pairing,
    quadratic_to_sp,
    sp_to_quadratic,
    trace_ratio_constant,
)
from .symplectic import SymplecticSpace, standard_space, validate_space
from .weyl import (
    PolyElement,
    bilinear_form,
    contract,
    grade,
    weyl_commutator,
    weyl_product,
)

__all__ = [
    "CheckResult",
    "Matrix",
    "PolyElement",
    "QuadraticLieAlgebra",
    "Scalar",
    "SuperAlgebraData",
    "SymplecticRep",
    "SymplecticSpace",
    "TestReport",
    "as_scalar",
    "bilinear_form",
    "casimir_image",
    "casimir_pairs",
    "construct_superalgebra",
    "contract",
    "decide",
    "grade",
    "jacobiator",
    "quadratic_lift",
    "quadratic_lift_adjoint",
    "quadratic_pairing",
    "quadratic_to_sp",
    "sp_to_quadratic",
    "standard_space",
    "trace_ratio_constant",
    "validate_lie",
    "validate_rep",
    "validate_space",
    "verify_superalgebra",
    "weyl_commutator",
    "weyl_product",
    "__version__",
]
