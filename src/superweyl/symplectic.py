"""Even-dimensional rational vector spaces with a nonsingular alternating
form, which a space caches only as integer columns, its inverse included."""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from .exactla import (DimensionMismatch, IntegerColumns, Matrix, Scalar, SingularMatrix,
                      SuperweylError, as_scalar, integer_columns, invariance_violation, invert,
                      record)

Vector = tuple[Scalar, ...]

# The largest space dimension that the "standard" shorthand of problem files
# expands and that the catalog builds.
MAX_STANDARD_DIM = 16


class OddDimension(SuperweylError):
    def __init__(self, dim: int):
        self.dim = dim
        super().__init__(f"symplectic space must have even dimension, got {dim}")


class NotAlternating(SuperweylError):
    def __init__(self):
        super().__init__("form matrix is not antisymmetric")


class Singular(SuperweylError):
    def __init__(self, detail: str = "form matrix is singular"):
        super().__init__(detail)


@record
class SymplecticSpace:
    """A coordinate space with form matrix ``omega``, whose size is the dimension
    ``dim``: the form of vectors u, v is u^T omega v.  Construction only checks
    that ``omega`` is square; ``validate_space`` performs the mathematical checks.
    """

    omega: Matrix

    def __post_init__(self):
        if self.omega.rows != self.omega.cols:
            raise DimensionMismatch(
                f"omega must be square, got {self.omega.rows}x{self.omega.cols}")

    @property
    def dim(self) -> int:
        return self.omega.rows

    def basis_vector(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range for dimension {self.dim}")
        return tuple(as_scalar(1 if j == i else 0) for j in range(self.dim))

    @cached_property
    def omega_columns(self) -> IntegerColumns:
        """``omega`` and its transpose on the fraction-free kernel, once per space."""
        return integer_columns([self.omega, self.omega.transpose()])

    @cached_property
    def omega_inverse_columns(self) -> IntegerColumns:
        """The inverse of ``omega`` on the fraction-free kernel, once per
        space; raises ``SingularMatrix`` when there is none."""
        return integer_columns([invert(self.omega)])


def as_vector(space: SymplecticSpace, coords: Sequence) -> Vector:
    v = tuple(as_scalar(x) for x in coords)
    if len(v) != space.dim:
        raise DimensionMismatch(f"expected {space.dim} coordinates, got {len(v)}")
    return v


def standard_space(m: int) -> SymplecticSpace:
    """The 2m-dimensional space with basis e_1..e_m, f_1..f_m and (e_i, f_j) = delta_ij."""
    if m < 1:
        raise ValueError("standard space needs at least one hyperbolic pair")
    return SymplecticSpace(Matrix.from_entries({(i, m + i): 1 for i in range(m)}
                                               | {(m + i, i): -1 for i in range(m)}, 2 * m))


def validate_space(space: SymplecticSpace) -> None:
    """Check that ``omega`` is alternating and nonsingular on an even-dimensional
    space, on ``space.omega_columns`` and ``space.omega_inverse_columns``."""
    if space.dim % 2 != 0:
        raise OddDimension(space.dim)
    if any(c != {i: -x for i, x in t.items()} for c, t in zip(*space.omega_columns.columns)):
        raise NotAlternating()
    try:
        space.omega_inverse_columns
    except SingularMatrix as exc:
        raise Singular(str(exc)) from exc


def is_in_sp(space: SymplecticSpace, alpha: Matrix) -> bool:
    """Whether ``alpha`` is an infinitesimal symmetry of the form:
    alpha^T omega + omega alpha = 0, tested on integer columns of
    ``alpha`` and of ``space.omega_columns``."""
    if alpha.rows != space.dim or alpha.cols != space.dim:
        raise DimensionMismatch(
            f"expected a {space.dim}x{space.dim} matrix, got {alpha.rows}x{alpha.cols}")
    _, (a,) = integer_columns([alpha])
    _, (omega, omega_t) = space.omega_columns
    return invariance_violation(a, omega, omega_t) is None
