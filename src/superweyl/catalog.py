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

Every builder lists the nonzero entries {(row, col): value} of its
matrices and forms, and ``_matrix`` is the one place where they become a
dense ``Matrix``.  A summand spanned by basis matrices takes its trace form
G as its invariant form, and G gives the structure constants too:
coordinate l of [b_i, b_j] is sum_m (G^-1)_lm tr([b_i, b_j] b_m), summed
in integers on the fraction-free kernel of the validators
(``matrix_structure_constants``).
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from .engine import (SuperAlgebraData, SymplecticRep, casimir_image, construct_superalgebra,
                     verify_superalgebra)
from .exactla import (LinAlgError, Matrix, Scalar, SuperweylError, add_product, as_scalar,
                      integer_columns, integer_tables, invert, kernel_basis)
from .liealg import QuadraticLieAlgebra, defect_columns
from .spbridge import NotSymplectic
from .symplectic import MAX_STANDARD_DIM, SymplecticSpace, standard_space

_ZERO = as_scalar(0)


class TooLarge(SuperweylError):
    """Requested instance exceeds the supported size."""


class CalibrationFailed(SuperweylError):
    """No rational scaling of the summand forms cancels the obstruction."""


class UnknownInstance(SuperweylError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no catalog instance named {name!r}")


class InvalidInput(SuperweylError, ValueError):
    """Builder input does not satisfy its precondition."""


# -- matrix Lie algebra helpers --------------------------------------------


def _entries(m: Matrix) -> dict[tuple[int, int], Scalar]:
    """The nonzero entries of ``m`` as {(row, col): value}."""
    return {(i, j): x for i, row in enumerate(m.data) for j, x in enumerate(row) if x}


def _matrix(entries: Mapping[tuple[int, int], Scalar | int], rows: int,
            cols: int | None = None) -> Matrix:
    """The matrix, square unless ``cols`` is given, with these nonzero entries."""
    cols = rows if cols is None else cols
    data = [[_ZERO] * cols for _ in range(rows)]
    for (i, j), x in entries.items():
        data[i][j] = x
    return Matrix(data, cols=cols)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, with the index convention (i, p) -> i * b.rows + p."""
    return _matrix({(i * b.rows + p, j * b.cols + q): x * y
                    for (i, j), x in _entries(a).items() for (p, q), y in _entries(b).items()},
                   a.rows * b.rows, a.cols * b.cols)


def so_basis(m: int) -> list[Matrix]:
    """Antisymmetric matrices E_ij - E_ji (i < j); empty for m = 1."""
    return [_matrix({(i, j): 1, (j, i): -1}, m) for i, j in combinations(range(m), 2)]


def sp_basis(n: int) -> list[Matrix]:
    """Basis of the matrices preserving the standard alternating form in
    dimension 2n, in blocks [[A, B], [C, -A^T]] with B, C symmetric.
    For n = 1 the order is the usual (H, E, F)."""
    dim, upper = 2 * n, list(combinations_with_replacement(range(n), 2))
    return ([_matrix({(i, j): 1, (n + j, n + i): -1}, dim) for i, j in product(range(n), repeat=2)]
            + [_matrix({(i, n + j): 1, (j, n + i): 1}, dim) for i, j in upper]
            + [_matrix({(n + i, j): 1, (n + j, i): 1}, dim) for i, j in upper])


def trace_gram(basis: Sequence[Matrix]) -> Matrix:
    """[tr(a b)] over the basis, summed over the nonzero entries of a."""
    entries = [_entries(m) for m in basis]
    return Matrix([[sum((x * b[j, i] for (i, j), x in a.items() if (j, i) in b), _ZERO)
                    for b in entries] for a in entries], cols=len(basis))


def matrix_structure_constants(basis: Sequence[Matrix], gram: Matrix
                               ) -> tuple[tuple[dict[int, Scalar], ...], ...]:
    """Expand commutators of basis matrices back in the basis, as the
    sparse table of ``QuadraticLieAlgebra.brackets``.  The basis must be
    closed under commutators and its trace form G, given as ``gram``
    (``trace_gram``), nonsingular: coordinate l of [b_i, b_j] is
    sum_m (G^-1)_lm tr([b_i, b_j] b_m).

    On the integer columns of d b_i, the commutators d^2 [b_i, b_j], for
    i < j, and their traces against d b_m are ints, and each coordinate is
    one division.  A singular G raises ``SingularMatrix``, as every
    dependent basis does.  The table is then checked as the representation
    defect of the basis (``liealg.defect_columns``); a basis that is not
    closed raises ``LinAlgError``."""
    if not basis:
        return ()
    k, size = len(basis), basis[0].rows
    d, b = integer_columns(basis)
    e, (inverse,) = integer_columns([invert(gram)])
    # against[r * size + z] maps m to d (b_m)_zr, the factor of C_rz in tr(C b_m)
    against: list[dict[int, int]] = [{} for _ in range(size * size)]
    for m, cols in enumerate(b):
        for r, col in enumerate(cols):
            for z, x in col.items():
                against[r * size + z][m] = x
    table = [[{} for _ in range(k)] for _ in range(k)]
    for i, j in combinations(range(k), 2):
        commutator = {r * size + z: c for z in range(size) for r, c in
                      add_product(add_product({}, b[i], b[j][z]), b[j], b[i][z], -1).items() if c}
        coords = add_product({}, inverse, add_product({}, against, commutator))
        table[i][j] = {l: Fraction(x, e * d ** 3) for l, x in coords.items() if x}
        table[j][i] = {l: -c for l, c in table[i][j].items()}
    ad = integer_tables(table)
    if any(defect_columns(ad, (d, b), k, i, j, range(size)) for i, j in combinations(range(k), 2)):
        raise LinAlgError("the basis is not closed under commutators")
    return tuple(map(tuple, table))


def _summand(basis: Sequence[Matrix]) -> QuadraticLieAlgebra:
    """The matrix Lie algebra spanned by ``basis``, with its trace form."""
    gram = trace_gram(basis)
    return QuadraticLieAlgebra(len(basis), matrix_structure_constants(basis, gram), gram)


def _direct_sum(summands: Sequence[QuadraticLieAlgebra],
                scales: Sequence[Scalar]) -> QuadraticLieAlgebra:
    """Direct sum with the block-diagonal form sum_s scales[s] B_s; cross
    brackets are zero, and each summand's bracket keys move by its offset."""
    total, offset = sum(g.dim for g in summands), 0
    brackets = [[{} for _ in range(total)] for _ in range(total)]
    form = {}
    for g, scale in zip(summands, scales):
        end = offset + g.dim
        for i, row in enumerate(g.brackets):
            brackets[offset + i][offset:end] = [{offset + l: c for l, c in v.items()} for v in row]
        form |= {(offset + i, offset + j): scale * x for (i, j), x in _entries(g.form).items()}
        offset = end
    return QuadraticLieAlgebra(total, tuple(map(tuple, brackets)), _matrix(form, total))


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
    size = two_j + 1
    h = _matrix({(r, r): two_j - 2 * r for r in range(size)}, size)
    e = _matrix({(r, r + 1): (r + 1) * (two_j - r) for r in range(two_j)}, size)
    f = _matrix({(r + 1, r): 1 for r in range(two_j)}, size)
    omega = _matrix({(r, two_j - r): (-1) ** r for r in range(size)}, size)
    return SymplecticRep(_summand(sp_basis(1)), SymplecticSpace(size, omega), (h, e, f))


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
    form_even = _matrix({(i, k + i): 1 for i in range(k)} | {(k + i, i): 1 for i in range(k)}, kk)
    even = QuadraticLieAlgebra(kk, tuple(map(tuple, brackets)), form_even)

    # odd form on basis (y_0..y_{n-1}, z_0..z_{n-1}): (y_b, z_a) = -delta
    form_odd = _matrix({(i, n + i): -1 for i in range(n)} | {(n + i, i): 1 for i in range(n)}, nn)

    # action of the doubled even part on the doubled odd space: nu_i and -nu_i^T
    matrices = []
    for nu_i in s.rep.matrices:
        entries = _entries(nu_i)
        entries |= {(n + q, n + p): -x for (p, q), x in entries.items()}
        matrices.append(_matrix(entries, nn))
    # x_{k+j} sends y_b to sum_c [y_b, y_c]_j z_c, scattered from the stored maps
    duals = [{} for _ in range(k)]
    for (b, c), col in s.odd_odd.items():
        for j, x in col.items():
            duals[j][n + c, b] = duals[j][n + b, c] = x
    matrices += [_matrix(entries, nn) for entries in duals]
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
