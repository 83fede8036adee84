"""Finite-dimensional Lie algebras over Q with an invariant nonsingular form;
an algebra caches its brackets and inverse form only as integer columns."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import combinations, product

from .exactla import (Column, DimensionMismatch, IntegerColumns, Matrix, Scalar,
                      SingularMatrix, SuperweylError, add_product, as_scalar, integer_columns,
                      integer_tables, invariance_violation, invert, record)

_ZERO = as_scalar(0)


class LieAlgebraError(SuperweylError):
    """Base class for defective Lie algebra data."""


class NotAntisymmetric(LieAlgebraError):
    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"bracket table is not antisymmetric at basis pair ({i}, {j})")


class JacobiFails(LieAlgebraError):
    def __init__(self, i: int, j: int, l: int):
        self.triple = (i, j, l)
        super().__init__(f"Jacobi identity fails on basis triple ({i}, {j}, {l})")


class FormSingular(LieAlgebraError):
    def __init__(self, detail: str = "invariant form matrix is singular"):
        super().__init__(detail)


class FormNotInvariant(LieAlgebraError):
    def __init__(self, i: int, j: int, l: int):
        self.triple = (i, j, l)
        super().__init__(f"form is not ad-invariant on basis triple ({i}, {j}, {l})")


@record
class QuadraticLieAlgebra:
    """Structure constants and a symmetric bilinear form on a fixed basis.

    ``brackets[i][j]`` maps l to the nonzero coefficients on x_l of the
    bracket of basis elements i and j: sparse column j of ad_i, in any k x k
    table, antisymmetric or not.  Construction checks shapes and refuses a
    zero coefficient, so equal algebras have equal tables; the mathematical
    axioms are checked by ``validate_lie``.
    """

    dim: int
    brackets: tuple[tuple[dict[int, Scalar], ...], ...]
    form: Matrix

    def __post_init__(self):
        k = self.dim
        if len(self.brackets) != k or any(len(row) != k for row in self.brackets):
            raise DimensionMismatch("bracket table must be dim x dim")
        if any(l not in range(k) for row in self.brackets for col in row for l in col):
            raise DimensionMismatch("bracket coordinates must lie in range(dim)")
        if not all(c for row in self.brackets for col in row for c in col.values()):
            raise ValueError("bracket table stores a zero coefficient")
        if self.form.rows != k or self.form.cols != k:
            raise DimensionMismatch("form matrix must be dim x dim")

    @classmethod
    def from_sparse(cls, dim: int, entries: Sequence[tuple[int, int, int, object]],
                    form: Matrix) -> "QuadraticLieAlgebra":
        """Build from sparse entries (i, j, l, value) with i < j meaning the
        bracket of x_i and x_j has coefficient value on x_l.  Repeated
        entries add up, and those that cancel are dropped.  The
        antisymmetric completion is automatic."""
        table = [[{} for _ in range(dim)] for _ in range(dim)]
        for i, j, l, value in entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= l < dim):
                raise IndexError(f"bracket entry ({i}, {j}, {l}) out of range")
            if i >= j:
                raise ValueError(f"sparse bracket entries need i < j, got ({i}, {j})")
            c = as_scalar(value)
            table[i][j][l] = table[i][j].get(l, _ZERO) + c
            table[j][i][l] = table[j][i].get(l, _ZERO) - c
        frozen = tuple(tuple({l: c for l, c in col.items() if c} for col in row) for row in table)
        return cls(dim, frozen, form)

    @classmethod
    def abelian(cls, dim: int, form: Matrix | None = None) -> "QuadraticLieAlgebra":
        if form is None:
            form = Matrix.identity(dim)
        return cls.from_sparse(dim, [], form)

    @cached_property
    def adjoint_columns(self) -> IntegerColumns:
        """The matrices ad_i on the fraction-free kernel: ``brackets`` with
        its denominators cleared.  Built once per algebra."""
        return integer_tables(self.brackets)

    @cached_property
    def form_inverse_columns(self) -> IntegerColumns:
        """The inverse of ``form`` on the fraction-free kernel, column i the
        dual vector x^i of ``casimir_pairs``; once per algebra.  Raises
        ``FormSingular``."""
        return integer_tables([[dict(enumerate(dual)) for dual in casimir_pairs(self)]])


def defect_columns(ad: IntegerColumns, rho: IntegerColumns, k: int, x: int, y: int,
                   columns: Iterable[int]) -> dict[int, Column]:
    """The nonzero columns z, among ``columns``, of the representation defect
    rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x) - sum_t (ad_x)_{ty} rho(t) of
    a superalgebra with adjoint matrices ``ad`` whose first k basis elements
    are even; it vanishes on every pair exactly when rho is a graded
    representation.  With A = d_A ad and R = d_R rho integral, column z is
    d_A (R_x R_y -+ R_y R_x) - d_R sum_t (A_x)_{ty} R_t, which is d_A d_R^2
    times the rational defect."""
    d_ad, a = ad
    d_rho, r = rho
    r_x, r_y = r[x], r[y]
    sign = 1 if x >= k and y >= k else -1
    bracket = a[x][y]
    out = {}
    for z in columns:
        col = add_product({}, r_x, r_y[z], d_ad)
        add_product(col, r_y, r_x[z], sign * d_ad)
        for t, c in bracket.items():
            factor = d_rho * c
            for i, v in r[t][z].items():
                col[i] = col.get(i, 0) - factor * v
        nonzero = {i: v for i, v in col.items() if v}
        if nonzero:
            out[z] = nonzero
    return out


def validate_lie(g: QuadraticLieAlgebra) -> None:
    """Check antisymmetry, the Jacobi identity, and that the form is
    symmetric, nonsingular and ad-invariant, as identities of the adjoint
    matrices on the integer columns of ``g.adjoint_columns``:
    ad_i e_j = -ad_j e_i, ``defect_columns(ad, ad, ...)`` is empty, and
    ad_i^T B + B ad_i = 0 (``invariance_violation``), B being symmetric on
    its integer columns and ``g.form_inverse_columns`` existing.  No
    ``Fraction`` product is formed.  Raises the first violation."""
    ad, k = g.adjoint_columns, g.dim
    cols = ad.columns
    for i, j in product(range(k), repeat=2):
        if cols[i][j] != {r: -c for r, c in cols[j][i].items()}:
            raise NotAntisymmetric(i, j)
    # with antisymmetry, column l of the defect on (i, j) is minus the
    # cyclic sum [[i,j],l] + [[j,l],i] + [[l,i],j]
    for i, j in combinations(range(k - 1), 2):
        defect = defect_columns(ad, ad, k, i, j, range(j + 1, k))
        if defect:
            raise JacobiFails(i, j, min(defect))
    _, (form,) = integer_columns([g.form])
    if any(form[i].get(j, 0) != x for j, col in enumerate(form) for i, x in col.items()):
        raise FormSingular("form matrix is not symmetric")
    g.form_inverse_columns
    for i, ad_i in enumerate(cols):
        hit = invariance_violation(ad_i, form, form)  # B is symmetric here
        if hit is not None:
            raise FormNotInvariant(i, *hit)


def casimir_pairs(g: QuadraticLieAlgebra) -> tuple[tuple[Scalar, ...], ...]:
    """Dual basis against the form: the coordinates of the i-th dual vector x^i
    are column i of the inverse form, so that form(x_i, x^j) = delta_ij, if any."""
    try:
        return tuple(invert(g.form).columns())
    except SingularMatrix as exc:
        raise FormSingular(str(exc)) from exc
