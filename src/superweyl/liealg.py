"""Finite-dimensional Lie algebras over Q with an invariant nonsingular form,
each bracket stored once per pair i < j, so antisymmetric by construction;
an algebra caches its brackets and inverse form only as integer columns.
``check_pairs`` checks and ``bracket_table`` expands the pair maps of both
parities, under the sign of [v, u] = -(-1)^{|u||v|} [u, v]."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property
from itertools import combinations

from .exactla import (Column, DimensionMismatch, IntegerColumns, Matrix, Scalar,
                      SingularMatrix, SuperweylError, add_product, as_scalar, integer_columns,
                      integer_tables, invariance_violation, invert, is_index, record)

_ZERO = as_scalar(0)


class JacobiFails(SuperweylError):
    def __init__(self, i: int, j: int, l: int):
        self.triple = (i, j, l)
        super().__init__(f"Jacobi identity fails on basis triple ({i}, {j}, {l})")


class FormSingular(SuperweylError):
    def __init__(self, detail: str = "invariant form matrix is singular"):
        super().__init__(detail)


class FormNotInvariant(SuperweylError):
    def __init__(self, i: int, j: int, l: int):
        self.triple = (i, j, l)
        super().__init__(f"form is not ad-invariant on basis triple ({i}, {j}, {l})")


@record
class QuadraticLieAlgebra:
    """Structure constants and a symmetric bilinear form ``form`` on a fixed
    basis, whose size is the dimension ``dim``.

    ``brackets[(i, j)]``, for i < j, maps l to the nonzero coefficients on
    x_l of [x_i, x_j], in the format of ``engine.SuperAlgebraData.odd_odd``;
    a zero bracket is absent, [x_j, x_i] is the negative and [x_i, x_i] zero.
    Construction refuses a non-square form or a malformed map (``check_pairs``),
    so equal algebras have equal records; ``validate_lie`` does the rest.
    """

    brackets: dict[tuple[int, int], dict[int, Scalar]]
    form: Matrix

    def __post_init__(self):
        if self.form.rows != self.form.cols:
            raise DimensionMismatch("form matrix must be square")
        check_pairs(self.brackets, self.dim, self.dim, -1)

    @property
    def dim(self) -> int:
        return self.form.rows

    @classmethod
    def from_sparse(cls, entries: Sequence[tuple[int, int, int, object]],
                    form: Matrix) -> "QuadraticLieAlgebra":
        """Build from sparse entries (i, j, l, value), each index an ``int``
        below the size of ``form`` and i < j, meaning that [x_i, x_j] has
        coefficient value on x_l.  Repeated entries add up, and those that
        cancel are dropped."""
        dim = form.rows
        sums: dict[tuple[int, int], dict[int, Scalar]] = {}
        for i, j, l, value in entries:
            if not all(map(is_index, (i, j, l))):
                raise TypeError(f"bracket entry {(i, j, l)!r} has an index that is not an int")
            if not (0 <= i < dim and 0 <= j < dim and 0 <= l < dim):
                raise IndexError(f"bracket entry ({i}, {j}, {l}) out of range")
            if i >= j:
                raise ValueError(f"sparse bracket entries need i < j, got ({i}, {j})")
            col = sums.setdefault((i, j), {})
            col[l] = col.get(l, _ZERO) + as_scalar(value)
        return cls({key: nonzero for key, col in sums.items()
                    if (nonzero := {l: c for l, c in col.items() if c})}, form)

    @cached_property
    def adjoint_columns(self) -> IntegerColumns:
        """The matrices ad_i on the fraction-free kernel: ``bracket_table``
        with its denominators cleared.  Built once per algebra."""
        return integer_tables(bracket_table(self.brackets, self.dim, -1))

    @cached_property
    def form_inverse_columns(self) -> IntegerColumns:
        """The inverse of ``form`` on the fraction-free kernel, column i the
        dual vector x^i of ``casimir_pairs``; once per algebra.  Raises
        ``FormSingular``."""
        return integer_tables([[dict(enumerate(dual)) for dual in casimir_pairs(self)]])


def check_pairs(pairs: Mapping[tuple[int, int], dict[int, Scalar]], size: int, k: int,
                sign: int) -> None:
    """Refuse a pair map whose key is not a pair a < b < size, or a <= b <
    size for the symmetric bracket (``sign`` +1), whose map has a coordinate
    outside range(k), or which stores a zero coefficient or an empty map;
    an index of a key or a coordinate that is not an ``int`` (``is_index``)
    raises ``TypeError``."""
    name, order = ("odd bracket", "a <= b") if sign > 0 else ("bracket", "i < j")
    gap = int(sign < 0)
    for key, col in pairs.items():
        if isinstance(key, tuple) and not all(map(is_index, (*key, *col))):
            raise TypeError(f"{name} {key!r} has an index that is not an int")
        if not (isinstance(key, tuple) and len(key) == 2
                and 0 <= key[0] <= key[1] - gap and key[1] < size):
            raise ValueError(f"{name} key {key!r} is not a pair {order} < {size}")
        if any(l not in range(k) for l in col):
            raise DimensionMismatch(f"{name} {key} has a coordinate outside range({k})")
        if not col or not all(col.values()):
            raise ValueError(f"{name} {key} stores a zero coefficient or an empty map")


def bracket_table(pairs: Mapping[tuple[int, int], dict[int, Scalar]], size: int, sign: int
                  ) -> list[list[dict[int, Scalar]]]:
    """The size x size table of ad columns of the pair map ``pairs``: entry
    [a][b] holds the nonzero coordinates of the bracket of basis elements a
    and b, the stored map for a stored pair (a, b) and its mirror for (b, a),
    which is the negative for ``sign`` -1 and the map itself for +1."""
    table: list[list[dict[int, Scalar]]] = [[{} for _ in range(size)] for _ in range(size)]
    for (a, b), col in pairs.items():
        table[a][b] = col
        table[b][a] = col if sign > 0 else {l: -c for l, c in col.items()}
    return table


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
    """Check the Jacobi identity, and that the form is symmetric, nonsingular
    and ad-invariant, as identities of the adjoint matrices on the integer
    columns of ``g.adjoint_columns``: ``defect_columns(ad, ad, ...)`` is
    empty, and ad_i^T B + B ad_i = 0 (``invariance_violation``), B being
    symmetric on its integer columns and ``g.form_inverse_columns`` existing.
    No ``Fraction`` product is formed.  Raises the first violation."""
    ad, k = g.adjoint_columns, g.dim
    # by antisymmetry, column l of the defect on (i, j) is minus the
    # cyclic sum [[i,j],l] + [[j,l],i] + [[l,i],j]
    for i, j in combinations(range(k - 1), 2):
        defect = defect_columns(ad, ad, k, i, j, range(j + 1, k))
        if defect:
            raise JacobiFails(i, j, min(defect))
    _, (form,) = integer_columns([g.form])
    if any(form[i].get(j, 0) != x for j, col in enumerate(form) for i, x in col.items()):
        raise FormSingular("form matrix is not symmetric")
    g.form_inverse_columns
    for i, ad_i in enumerate(ad.columns):
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
