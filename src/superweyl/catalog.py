"""Constructions of known families of instances.

Builders return ready-to-test representations: the orthogonal-symplectic
even pairs acting on a tensor product, whose summand forms are scaled to
cancel the obstruction (``calibrate_scales``: ``casimir_image`` on each
summand, then ``exactla.kernel_basis``), the two-dimensional diagonal
instance whose extension is the smallest nontrivial superalgebra with a
one-dimensional odd-odd image, the irreducible representations of the
three-dimensional simple algebra (symplectic exactly for odd highest
weight, with the smallest negative instance at weight three), and the
double of any verified superalgebra on the sum of the algebra and its dual
space.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence

from .engine import (SuperAlgebraData, SymplecticRep, casimir_image, construct_superalgebra,
                     verify_superalgebra)
from .exactla import Matrix, Scalar, as_scalar, kernel_basis, solve_overdetermined
from .liealg import QuadraticLieAlgebra
from .spbridge import NotSymplectic
from .symplectic import MAX_STANDARD_DIM, SymplecticSpace, standard_space

_ZERO = as_scalar(0)
_ONE = as_scalar(1)


class TooLarge(Exception):
    """Requested instance exceeds the supported size."""


class CalibrationFailed(Exception):
    """No rational scaling of the summand forms cancels the obstruction."""


class UnknownInstance(Exception):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no catalog instance named {name!r}")


class InvalidInput(ValueError):
    """Builder input does not satisfy its precondition."""


# -- matrix Lie algebra helpers --------------------------------------------


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, with the index convention (i, p) -> i * b.rows + p."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    data = [[_ZERO] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] == 0:
                continue
            for p in range(b.rows):
                for q in range(b.cols):
                    data[i * b.rows + p][j * b.cols + q] = a[i, j] * b[p, q]
    return Matrix(data, cols=cols)


def so_basis(m: int) -> list[Matrix]:
    """Antisymmetric matrices E_ij - E_ji (i < j); empty for m = 1."""
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            data = [[_ZERO] * m for _ in range(m)]
            data[i][j] = _ONE
            data[j][i] = -_ONE
            out.append(Matrix(data, cols=m))
    return out


def sp_basis(n: int) -> list[Matrix]:
    """Basis of the matrices preserving the standard alternating form in
    dimension 2n, in blocks [[A, B], [C, -A^T]] with B, C symmetric.
    For n = 1 the order is the usual (H, E, F)."""
    out = []
    dim = 2 * n
    for i in range(n):
        for j in range(n):
            data = [[_ZERO] * dim for _ in range(dim)]
            data[i][j] = _ONE
            data[n + j][n + i] = -_ONE
            out.append(Matrix(data, cols=dim))
    for i in range(n):
        for j in range(i, n):
            data = [[_ZERO] * dim for _ in range(dim)]
            data[i][n + j] = _ONE
            data[j][n + i] = _ONE
            out.append(Matrix(data, cols=dim))
    for i in range(n):
        for j in range(i, n):
            data = [[_ZERO] * dim for _ in range(dim)]
            data[n + i][j] = _ONE
            data[n + j][i] = _ONE
            out.append(Matrix(data, cols=dim))
    return out


def trace_gram(basis: Sequence[Matrix]) -> Matrix:
    return Matrix([[(a * b).trace() for b in basis] for a in basis], cols=len(basis))


def matrix_structure_constants(basis: Sequence[Matrix]
                               ) -> tuple[tuple[dict[int, Scalar], ...], ...]:
    """Expand commutators of basis matrices back in the basis, as the
    sparse table of ``QuadraticLieAlgebra.brackets``; the basis must be
    closed under commutators and linearly independent.  All k^2
    commutators are expanded by one row reduction, as right-hand columns."""
    if not basis:
        return ()
    k = len(basis)

    def flat(m: Matrix) -> tuple[Scalar, ...]:
        return tuple(x for row in m.data for x in row)

    commutators = [flat(a * b - b * a) for a in basis for b in basis]
    coords = solve_overdetermined(Matrix.from_columns([flat(b) for b in basis]),
                                  Matrix.from_columns(commutators))
    return tuple(tuple({l: c for l, c in enumerate(coords.col(i * k + j)) if c} for j in range(k))
                 for i in range(k))


def _summand(basis: Sequence[Matrix]) -> QuadraticLieAlgebra:
    """The matrix Lie algebra spanned by ``basis``, with its trace form."""
    return QuadraticLieAlgebra(len(basis), matrix_structure_constants(basis), trace_gram(basis))


def _direct_sum(summands: Sequence[QuadraticLieAlgebra],
                scales: Sequence[Scalar]) -> QuadraticLieAlgebra:
    """Direct sum with the block-diagonal form sum_s scales[s] B_s; cross
    brackets are zero, and each summand's bracket keys move by its offset."""
    total, offset = sum(g.dim for g in summands), 0
    brackets = [[{} for _ in range(total)] for _ in range(total)]
    form = [[_ZERO] * total for _ in range(total)]
    for g, scale in zip(summands, scales):
        end = offset + g.dim
        for i, row in enumerate(g.brackets):
            brackets[offset + i][offset:end] = [{offset + l: c for l, c in v.items()} for v in row]
            form[offset + i][offset:end] = [scale * x for x in g.form.row(i)]
        offset = end
    return QuadraticLieAlgebra(total, tuple(map(tuple, brackets)), Matrix(form, cols=total))


def calibrate_scales(space: SymplecticSpace,
                     summands: Sequence[tuple[QuadraticLieAlgebra, Sequence[Matrix]]]
                     ) -> list[Scalar]:
    """Scales lambda_s, the first 1, of the summand forms B_s such that the
    direct sum, each summand acting on ``space`` by its matrices, has no
    degree-four obstruction.  That obstruction is sum_s P_s / lambda_s for
    the obstructions P_s of ``casimir_image`` on each summand alone, so the
    1/lambda_s span the kernel (``kernel_basis``) of the matrix with columns
    P_s.  Raises ``CalibrationFailed`` unless the kernel is one line with no
    zero coordinate, which would make the form singular."""
    obstructions = [casimir_image(SymplecticRep(g, space, tuple(nus)))[0]
                    for g, nus in summands]
    monomials = sorted({exp for p in obstructions for exp in p.terms})
    kernel = kernel_basis(Matrix([[p.coefficient(exp) for p in obstructions]
                                  for exp in monomials], cols=len(obstructions)))
    if len(kernel) != 1:
        raise CalibrationFailed(f"the cancelling inverse scales span {len(kernel)} dimensions")
    inverse_scales = kernel[0].col(0)
    if not all(inverse_scales):
        raise CalibrationFailed("cancelling the obstruction needs a zero summand form")
    return [inverse_scales[0] / t for t in inverse_scales]


# -- instance builders -----------------------------------------------------


def build_osp_even(m: int, n: int) -> SymplecticRep:
    """Orthogonal summand of size m and symplectic summand of size 2n acting
    on the tensor product of their defining spaces.

    Each nonempty summand carries its trace form, scaled by
    ``calibrate_scales`` so that the degree-four obstruction cancels; the
    first keeps the plain trace form.  For m = 1 the orthogonal summand is
    zero-dimensional and is dropped.
    """
    if m < 1 or n < 1:
        raise InvalidInput("need m >= 1 and n >= 1")
    dim = m * 2 * n
    if dim > MAX_STANDARD_DIM:
        shown = dim if dim < 10 ** 100 else "above 10^100"  # str() stops at 4,300 digits
        raise TooLarge(f"tensor space dimension {shown} exceeds the supported {MAX_STANDARD_DIM}")
    space = SymplecticSpace(dim, kron(Matrix.identity(m), standard_space(n).omega))
    so_b, sp_b = so_basis(m), sp_basis(n)
    actions = ([kron(a, Matrix.identity(2 * n)) for a in so_b],
               [kron(Matrix.identity(m), b) for b in sp_b])
    summands = [(_summand(basis), nus) for basis, nus in zip((so_b, sp_b), actions) if basis]
    algebra = _direct_sum([g for g, _ in summands], calibrate_scales(space, summands))
    return SymplecticRep(algebra, space, tuple(nu for _, nus in summands for nu in nus))


def build_gl11_even() -> SymplecticRep:
    """Two-dimensional abelian algebra with form diag(1, -1) acting on the
    standard two-dimensional space by diag(1, -1) and diag(-1, 1).  This is
    the even part of the smallest type-I matrix superalgebra under its
    supertrace form."""
    algebra = QuadraticLieAlgebra.abelian(2, Matrix.diagonal([1, -1]))
    space = standard_space(1)
    matrices = (Matrix.diagonal([1, -1]), Matrix.diagonal([-1, 1]))
    return SymplecticRep(algebra, space, matrices)


def build_spin_rep(two_j: int) -> SymplecticRep:
    """Irreducible representation of the three-dimensional simple algebra
    with highest weight ``two_j``, on its invariant alternating form.

    Only odd ``two_j`` gives an alternating invariant form; even values
    raise ``NotSymplectic``.  Instances above ``two_j = 7`` are refused as
    out of scope."""
    if two_j < 1:
        raise InvalidInput("two_j must be positive")
    if two_j % 2 == 0:
        raise NotSymplectic("the invariant form is symmetric for even two_j")
    if two_j > 7:
        raise TooLarge("two_j above 7 is out of scope")
    algebra = QuadraticLieAlgebra.from_sparse(
        3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)],
        Matrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]]))
    size = two_j + 1
    h = [[_ZERO] * size for _ in range(size)]
    e = [[_ZERO] * size for _ in range(size)]
    f = [[_ZERO] * size for _ in range(size)]
    for k in range(size):
        h[k][k] = as_scalar(two_j - 2 * k)
        if k + 1 < size:
            e[k][k + 1] = as_scalar((k + 1) * (two_j - k))
            f[k + 1][k] = _ONE
    omega = [[_ZERO] * size for _ in range(size)]
    for i in range(size):
        omega[i][two_j - i] = as_scalar((-1) ** i)
    space = SymplecticSpace(size, Matrix(omega, cols=size))
    return SymplecticRep(algebra, space, (Matrix(h), Matrix(e), Matrix(f)))


def abelian_superalgebra(dim: int) -> SuperAlgebraData:
    """Purely even abelian superalgebra; the degenerate base case for doubles."""
    point = Matrix.zeros(0, 0)
    rep = SymplecticRep(QuadraticLieAlgebra.abelian(dim), SymplecticSpace(0, point),
                        (point,) * dim)
    return SuperAlgebraData(rep, {})


def build_double(s: SuperAlgebraData) -> SuperAlgebraData:
    """The double of ``s``: the sum of ``s`` and its dual space, with ``s``
    acting on functionals through the contragredient action, the dual an
    abelian ideal, and the hyperbolic form pairing the two halves.

    The odd bracket is written out by hand, so that the engine's
    reconstruction from ``.rep`` can be compared against it.  The sign of
    the odd pairing follows the rule (u, v) = -(v, u) for odd u, v applied
    to the canonical pairing of functionals against vectors, written in the
    order (functional, vector).
    """
    failures = [c for c in verify_superalgebra(s) if not c.passed]
    if failures:
        raise InvalidInput(f"input fails verification: {failures[0].name}")
    base = s.rep.algebra
    k, n = base.dim, s.rep.space.dim
    kk = 2 * k
    nn = 2 * n

    # even brackets: [x_i, x_l] from s, and [x_i, w_j] = -sum_l c_il^j w_l,
    # the contragredient action, for [x_i, x_l] = sum_j c_il^j x_j
    brackets = [[{} for _ in range(kk)] for _ in range(kk)]
    for i, row in enumerate(base.brackets):
        for l, col in enumerate(row):
            brackets[i][l] = dict(col)
            for j, c in col.items():
                brackets[i][k + j][k + l] = -c
                brackets[k + j][i][k + l] = c
    form_even = Matrix([[_ONE if abs(i - j) == k else _ZERO for j in range(kk)]
                        for i in range(kk)], cols=kk)
    even = QuadraticLieAlgebra(kk, tuple(map(tuple, brackets)), form_even)

    # odd form on basis (y_0..y_{n-1}, z_0..z_{n-1}): (y_b, z_a) = -delta
    form_odd = Matrix([[-_ONE if j == i + n else _ONE if i == j + n else _ZERO
                        for j in range(nn)] for i in range(nn)], cols=nn)

    # action of the doubled even part on the doubled odd space
    matrices: list[Matrix] = []
    for i in range(k):
        nu_i = s.rep.matrices[i]
        data = [[_ZERO] * nn for _ in range(nn)]
        for p in range(n):
            for q in range(n):
                data[p][q] = nu_i[p, q]
                data[n + p][n + q] = -nu_i[q, p]
        matrices.append(Matrix(data, cols=nn))
    # x_{k+j} sends y_b to sum_c [y_b, y_c]_j z_c, scattered from the stored maps
    duals = [[[_ZERO] * nn for _ in range(nn)] for _ in range(k)]
    for (b, c), col in s.odd_odd.items():
        for j, x in col.items():
            duals[j][n + c][b] = duals[j][n + b][c] = x
    matrices += [Matrix(data, cols=nn) for data in duals]
    rep = SymplecticRep(even, SymplecticSpace(nn, form_odd), tuple(matrices))

    # explicit odd-odd table of the double: [y_p, y_q] from s, and
    # [y_p, z_a] = -sum_l nu_l[a, p] w_l
    odd_odd = dict(s.odd_odd)
    for p in range(n):
        for a in range(n):
            col = {k + l: -x for l, nu in enumerate(s.rep.matrices) if (x := nu[a, p])}
            if col:
                odd_odd[(p, n + a)] = col
    return SuperAlgebraData(rep, odd_odd)


# -- registry --------------------------------------------------------------


_DOUBLE_BASES: dict[str, Callable[[], SuperAlgebraData]] = {
    "abelian1": lambda: abelian_superalgebra(1),
    "gl11": lambda: construct_superalgebra(build_gl11_even()),
    "osp12": lambda: construct_superalgebra(build_osp_even(1, 1)),
}


def double_base(name: str) -> SuperAlgebraData:
    if name not in _DOUBLE_BASES:
        raise UnknownInstance(f"double({name})")
    return _DOUBLE_BASES[name]()


def build_instance(name: str, parameters: Sequence) -> SymplecticRep:
    """Resolve a registry name and parameter list to a representation."""
    params = list(parameters)
    if name == "gl11":
        if params:
            raise InvalidInput("gl11 takes no parameters")
        return build_gl11_even()
    if name == "osp_even":
        if len(params) != 2:
            raise InvalidInput("osp_even takes two integer parameters")
        return build_osp_even(_as_int(params[0]), _as_int(params[1]))
    if name == "spin":
        if len(params) != 1:
            raise InvalidInput("spin takes one integer parameter")
        return build_spin_rep(_as_int(params[0]))
    if name == "double":
        if len(params) != 1:
            raise InvalidInput("double takes the name of a base instance")
        return build_double(double_base(str(params[0]))).rep
    raise UnknownInstance(name)


def _as_int(value) -> int:
    """A Python int other than a bool, or a string of ASCII digits with an
    optional leading minus; spaces, signs, underscores and other digits are
    refused, and more than 18 digits, far above every size guard, are too many."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        digits = len(value.lstrip("-"))
        if digits > 18:
            raise TooLarge(f"an integer parameter of {digits} digits is out of scope")
        return int(value)
    raise InvalidInput(f"expected an integer parameter, got {value!r}")
