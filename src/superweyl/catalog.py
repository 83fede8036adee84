"""Constructions of known families of instances and related tools.

Builders return ready-to-test representations: the orthogonal-symplectic
even pairs acting on a tensor product, the two-dimensional diagonal
instance whose extension is the smallest nontrivial superalgebra with a
one-dimensional odd-odd image, the irreducible representations of the
three-dimensional simple algebra (symplectic exactly for odd highest
weight, with the smallest negative instance at weight three), and the
double of any verified superalgebra on the sum of the algebra and its dual
space.

Also here: the supertrace form of a graded matrix representation, the
adjoint representation of a table-defined superalgebra, and the quotient
by the radical of a degenerate invariant form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .engine import (IdentityViolated, NotARepresentation, SuperAlgebraData,
                     SymplecticRep, casimir_obstruction, construct_superalgebra,
                     form_invariance_witness, verify_superalgebra)
from .exactla import (Matrix, Scalar, as_scalar, in_span, invert, kernel_basis, rank,
                      solve_linear, solve_overdetermined)
from .liealg import QuadraticLieAlgebra, representation_defect
from .spbridge import NotSymplectic, SpElement, sp_to_quadratic
from .symplectic import SymplecticSpace, standard_space

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


class NotInvariant(Exception):
    """A supplied bilinear form fails supersymmetry or invariance."""


class NotAnIdeal(Exception):
    """The radical of the supplied form is not an ideal; this signals that
    the invariance validation itself is broken, since invariance forces the
    radical to be an ideal."""


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


def matrix_structure_constants(basis: Sequence[Matrix]) -> list[list[tuple[Scalar, ...]]]:
    """Expand commutators of basis matrices back in the basis; the basis
    must be closed under commutators and linearly independent."""
    if not basis:
        return []
    size = basis[0].rows * basis[0].cols
    flat = Matrix.from_columns(
        [[b[i, j] for i in range(b.rows) for j in range(b.cols)] for b in basis], rows=size)
    k = len(basis)
    table: list[list[tuple[Scalar, ...]]] = [[() for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            comm = basis[i] * basis[j] - basis[j] * basis[i]
            target = Matrix.column([comm[p, q] for p in range(comm.rows) for q in range(comm.cols)])
            coords = solve_overdetermined(flat, target)
            table[i][j] = coords.col(0)
    return table


def _block_algebra(blocks: Sequence[tuple[Sequence[Matrix], Matrix]]) -> QuadraticLieAlgebra:
    """Direct sum of matrix Lie algebras with a block-diagonal form.
    ``blocks`` is a list of (basis, form) pairs; cross brackets are zero."""
    total = sum(len(basis) for basis, _ in blocks)
    brackets = [[tuple([_ZERO] * total) for _ in range(total)] for _ in range(total)]
    form = [[_ZERO] * total for _ in range(total)]
    offset = 0
    for basis, gram in blocks:
        k = len(basis)
        table = matrix_structure_constants(basis)
        for i in range(k):
            for j in range(k):
                coords = [_ZERO] * total
                for l, c in enumerate(table[i][j]):
                    coords[offset + l] = c
                brackets[offset + i][offset + j] = tuple(coords)
            for j in range(k):
                form[offset + i][offset + j] = gram[i, j]
        offset += k
    return QuadraticLieAlgebra(total, tuple(tuple(row) for row in brackets),
                               Matrix(form, cols=total))


# -- instance builders -----------------------------------------------------


def build_osp_even(m: int, n: int) -> SymplecticRep:
    """Orthogonal summand of size m and symplectic summand of size 2n acting
    on the tensor product of their defining spaces.

    The relative scale of the two summand forms matters: the degree-four
    obstruction is linear in the two inverse scales, so the builder solves
    for the ratio that cancels it (``CalibrationFailed`` if none does) and
    normalizes the first summand to the plain trace form.  For m = 1 the
    orthogonal summand is zero-dimensional and the symplectic trace form is
    used as is.
    """
    if m < 1 or n < 1:
        raise InvalidInput("need m >= 1 and n >= 1")
    if m * 2 * n > 16:
        raise TooLarge(f"tensor space dimension {m * 2 * n} exceeds the supported 16")
    so_b = so_basis(m)
    sp_b = sp_basis(n)
    omega_2n = standard_space(n).omega
    space = SymplecticSpace(m * 2 * n, kron(Matrix.identity(m), omega_2n))
    nu_so = [kron(a, Matrix.identity(2 * n)) for a in so_b]
    nu_sp = [kron(Matrix.identity(m), b) for b in sp_b]

    def summand_obstruction(mats: Sequence[Matrix], gram: Matrix):
        lifts = [sp_to_quadratic(SpElement(space, m)).poly for m in mats]
        return casimir_obstruction(space, lifts, invert(gram).columns())

    gram_so, gram_sp = trace_gram(so_b), trace_gram(sp_b)
    p_so, p_sp = summand_obstruction(nu_so, gram_so), summand_obstruction(nu_sp, gram_sp)
    if p_so.is_zero() and p_sp.is_zero():
        lam_so, lam_sp = _ONE, _ONE
    elif p_so.is_zero() or p_sp.is_zero():
        raise CalibrationFailed("only one summand contributes to the obstruction")
    else:
        exp = p_sp.sorted_terms()[0][0]
        ratio = p_so.coefficient(exp) / p_sp.coefficient(exp)
        if ratio == 0 or p_so != ratio * p_sp:
            raise CalibrationFailed("summand obstructions are not proportional")
        lam_so, lam_sp = _ONE, -_ONE / ratio
    algebra = _block_algebra([(so_b, lam_so * gram_so), (sp_b, lam_sp * gram_sp)])
    return SymplecticRep(algebra, space, tuple(nu_so + nu_sp))


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


def abelian_superalgebra(dim: int, form: Matrix | None = None) -> SuperAlgebraData:
    """Purely even abelian superalgebra; the degenerate base case for doubles."""
    even = QuadraticLieAlgebra.abelian(dim, form)
    return SuperAlgebraData(
        even=even,
        odd_dim=0,
        even_odd=tuple(Matrix.zeros(0, 0) for _ in range(dim)),
        odd_odd={},
        form_even=even.form,
        form_odd=Matrix.zeros(0, 0),
    )


def build_double(s: SuperAlgebraData) -> tuple[SymplecticRep, SuperAlgebraData]:
    """The double of ``s``: the sum of ``s`` and its dual space, with ``s``
    acting on functionals through the contragredient action, the dual an
    abelian ideal, and the hyperbolic form pairing the two halves.

    Returns both presentations of the same object: the even part with its
    action on the odd space, and the explicit bracket tables.  The sign of
    the odd pairing follows the rule (u, v) = -(v, u) for odd u, v applied
    to the canonical pairing of functionals against vectors, written in the
    order (functional, vector).
    """
    failures = [c for c in verify_superalgebra(s) if not c.passed]
    if failures:
        raise InvalidInput(f"input fails verification: {failures[0].name}")
    k = s.even.dim
    n = s.odd_dim
    kk = 2 * k
    nn = 2 * n

    # even brackets: [x_i, x_j] from s, [x_i, w_j] the contragredient action
    brackets = [[[_ZERO] * kk for _ in range(kk)] for _ in range(kk)]
    for i in range(k):
        for j in range(k):
            for l, c in enumerate(s.even.bracket(i, j)):
                brackets[i][j][l] = c
    for i in range(k):
        for j in range(k):
            for l in range(k):
                c = -s.even.bracket(i, l)[j]
                brackets[i][k + j][k + l] = c
                brackets[k + j][i][k + l] = -c
    frozen = tuple(tuple(tuple(v) for v in row) for row in brackets)
    form_even = Matrix([[_ONE if abs(i - j) == k else _ZERO for j in range(kk)]
                        for i in range(kk)], cols=kk)
    even = QuadraticLieAlgebra(kk, frozen, form_even)

    # odd form on basis (y_0..y_{n-1}, z_0..z_{n-1}): (y_b, z_a) = -delta
    form_odd = Matrix([[_ZERO] * nn for _ in range(nn)], cols=nn)
    if n:
        form_odd = Matrix(
            [[-_ONE if j == i + n else _ONE if i == j + n else _ZERO for j in range(nn)]
             for i in range(nn)], cols=nn)

    # action of the doubled even part on the doubled odd space
    matrices: list[Matrix] = []
    for i in range(k):
        nu_i = s.even_odd[i]
        data = [[_ZERO] * nn for _ in range(nn)]
        for p in range(n):
            for q in range(n):
                data[p][q] = nu_i[p, q]
                data[n + p][n + q] = -nu_i[q, p]
        matrices.append(Matrix(data, cols=nn))
    for j in range(k):
        data = [[_ZERO] * nn for _ in range(nn)]
        for b in range(n):
            for c_idx in range(n):
                data[n + c_idx][b] = s.odd_bracket(b, c_idx)[j]
        matrices.append(Matrix(data, cols=nn))
    space = SymplecticSpace(nn, form_odd)
    rep = SymplecticRep(even, space, tuple(matrices))

    # explicit odd-odd table of the double
    odd_odd: dict[tuple[int, int], tuple[Scalar, ...]] = {}
    for p in range(nn):
        for q in range(p, nn):
            coords = [_ZERO] * kk
            if p < n and q < n:
                for l, c in enumerate(s.odd_bracket(p, q)):
                    coords[l] = c
            elif p < n <= q:
                a = q - n
                for l in range(k):
                    coords[k + l] = -s.even_odd[l][a, p]
            odd_odd[(p, q)] = tuple(coords)
    data = SuperAlgebraData(
        even=even,
        odd_dim=nn,
        even_odd=tuple(matrices),
        odd_odd=odd_odd,
        form_even=form_even,
        form_odd=form_odd,
    )
    return rep, data


# -- supertrace forms ------------------------------------------------------


def adjoint_representation(s: SuperAlgebraData) -> tuple[list[Matrix], list[tuple[Matrix, Matrix]]]:
    """The adjoint action of ``s`` on itself as a graded matrix
    representation: full matrices for even generators, (top-right,
    bottom-left) block pairs for odd ones."""
    k = s.even.dim
    ad = s.adjoint()
    rep_odd = [(Matrix([m.row(i)[k:] for i in range(k)], cols=s.odd_dim),
                Matrix([m.row(i)[:k] for i in range(k, s.dim)], cols=k)) for m in ad[k:]]
    return ad[:k], rep_odd


def _assemble_odd(top: Matrix, bottom: Matrix) -> Matrix:
    """The block matrix [[0, top], [bottom, 0]]."""
    d0, d1 = top.rows, top.cols
    return Matrix([(_ZERO,) * d0 + top.row(i) for i in range(d0)]
                  + [bottom.row(i) + (_ZERO,) * d1 for i in range(d1)], cols=d0 + d1)


def _supertrace(mat: Matrix, d0: int) -> Scalar:
    return (sum((mat[i, i] for i in range(d0)), _ZERO)
            - sum((mat[i, i] for i in range(d0, mat.rows)), _ZERO))


def supertrace_form(s: SuperAlgebraData, rep_even: Sequence[Matrix],
                    rep_odd_blocks: Sequence[tuple[Matrix, Matrix]]) -> tuple[Matrix, Matrix]:
    """Gram matrices of the supertrace form of a graded representation of
    ``s``: entry (i, j) is the supertrace of the product of the matrices of
    generators i and j, separately on the even and odd basis.

    Validates that rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x) = rho([x, y])
    on basis pairs x <= y and asserts invariance of the resulting form under
    the adjoint action."""
    if len(rep_even) != s.even.dim or len(rep_odd_blocks) != s.odd_dim:
        raise InvalidInput("need one matrix per generator")
    if rep_odd_blocks:
        d0, d1 = rep_odd_blocks[0][0].rows, rep_odd_blocks[0][0].cols
    elif rep_even:
        d0, d1 = rep_even[0].rows, 0
    else:
        d0 = d1 = 0
    total = d0 + d1
    for i, mat in enumerate(rep_even):
        if mat.rows != total or mat.cols != total:
            raise InvalidInput(f"even matrix {i} has the wrong size")
        for p in range(total):
            for q in range(total):
                if (p < d0) != (q < d0) and mat[p, q] != 0:
                    raise NotARepresentation(i, i, f"even matrix {i} does not preserve the grading")
    odd_full = []
    for a, (top, bottom) in enumerate(rep_odd_blocks):
        if top.rows != d0 or top.cols != d1 or bottom.rows != d1 or bottom.cols != d0:
            raise InvalidInput(f"odd block pair {a} has the wrong size")
        odd_full.append(_assemble_odd(top, bottom))
    rho = list(rep_even) + odd_full
    ad, k = s.adjoint(), s.even.dim
    for x in range(s.dim):
        for y in range(x, s.dim):
            if not representation_defect(ad, rho, k, x, y).is_zero():
                (p, i), (q, j) = s.label(x), s.label(y)
                raise NotARepresentation(
                    i, j, f"graded bracket fails at parities ({p}, {q}), indices ({i}, {j})")
    gram_even = Matrix([[_supertrace(rep_even[i] * rep_even[j], d0) for j in range(k)]
                        for i in range(k)], cols=k)
    gram_odd = Matrix([[_supertrace(odd_full[a] * odd_full[b], d0) for b in range(s.odd_dim)]
                       for a in range(s.odd_dim)], cols=s.odd_dim)
    witness = form_invariance_witness(s, form_even=gram_even, form_odd=gram_odd)
    if witness is not None:
        raise IdentityViolated(f"supertrace form is not invariant: {witness}")
    return gram_even, gram_odd


# -- quotient by the radical of a degenerate form --------------------------


def radical_quotient(s: SuperAlgebraData, form_even: Matrix,
                        form_odd: Matrix) -> SuperAlgebraData:
    """Quotient of ``s`` by the radical of a possibly-degenerate invariant
    supersymmetric form; the induced form on the quotient is nonsingular.

    Raises ``NotInvariant`` when the supplied form fails supersymmetry or
    invariance and ``NotAnIdeal`` when the radical fails to be an ideal,
    which can only happen if the invariance validation is broken."""
    if form_even.rows != s.even.dim or form_even.cols != s.even.dim:
        raise InvalidInput("even Gram matrix has the wrong size")
    if form_odd.rows != s.odd_dim or form_odd.cols != s.odd_dim:
        raise InvalidInput("odd Gram matrix has the wrong size")
    if form_even.transpose() != form_even:
        raise NotInvariant("even Gram matrix is not symmetric")
    if form_odd.transpose() != -form_odd:
        raise NotInvariant("odd Gram matrix is not antisymmetric")
    witness = form_invariance_witness(s, form_even=form_even, form_odd=form_odd)
    if witness is not None:
        raise NotInvariant(f"form is not invariant: {witness}")

    rad_even = [mat.col(0) for mat in kernel_basis(form_even)]
    rad_odd = [mat.col(0) for mat in kernel_basis(form_odd)]

    zero_k, zero_n = (_ZERO,) * s.even.dim, (_ZERO,) * s.odd_dim
    radical = [(*r, *zero_n) for r in rad_even] + [(*zero_k, *r) for r in rad_odd]
    if not all(in_span(radical, ad_t.apply(r)) for ad_t in s.adjoint() for r in radical):
        raise NotAnIdeal("radical is not stable under the bracket")

    def complement(dim: int, radical: list[tuple[Scalar, ...]]) -> tuple[list[int], Matrix | None]:
        chosen: list[int] = []
        cols = list(radical)
        current = rank(Matrix.from_columns(cols, rows=dim)) if cols else 0
        for idx in range(dim):
            unit = tuple(_ONE if t == idx else _ZERO for t in range(dim))
            attempt = cols + [unit]
            r = rank(Matrix.from_columns(attempt, rows=dim))
            if r > current:
                chosen.append(idx)
                cols = attempt
                current = r
        if dim == 0:
            return chosen, None
        units = [tuple(_ONE if t == idx else _ZERO for t in range(dim)) for idx in chosen]
        basis = Matrix.from_columns(units + list(radical), rows=dim)
        return chosen, basis

    chosen_even, basis_even = complement(s.even.dim, rad_even)
    chosen_odd, basis_odd = complement(s.odd_dim, rad_odd)

    def project(basis: Matrix | None, count: int, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if basis is None or count == 0:
            return tuple([_ZERO] * count)
        sol = solve_linear(basis, Matrix.column(vec))
        return tuple(sol[i, 0] for i in range(count))

    ke = len(chosen_even)
    ko = len(chosen_odd)
    brackets = [[tuple([_ZERO] * ke) for _ in range(ke)] for _ in range(ke)]
    for p, i in enumerate(chosen_even):
        for q, j in enumerate(chosen_even):
            brackets[p][q] = project(basis_even, ke, s.even.bracket(i, j))
    q_form_even = Matrix([[form_even[i, j] for j in chosen_even] for i in chosen_even], cols=ke)
    even = QuadraticLieAlgebra(ke, tuple(tuple(row) for row in brackets), q_form_even)
    even_odd = []
    for i in chosen_even:
        cols = []
        for d in chosen_odd:
            unit = tuple(_ONE if t == d else _ZERO for t in range(s.odd_dim))
            cols.append(project(basis_odd, ko, s.even_odd[i].apply(unit)))
        even_odd.append(Matrix.from_columns(cols, rows=ko))
    odd_odd = {}
    for p in range(ko):
        for q in range(p, ko):
            odd_odd[(p, q)] = project(basis_even, ke,
                                      s.odd_bracket(chosen_odd[p], chosen_odd[q]))
    q_form_odd = Matrix([[form_odd[i, j] for j in chosen_odd] for i in chosen_odd], cols=ko)
    return SuperAlgebraData(
        even=even,
        odd_dim=ko,
        even_odd=tuple(even_odd),
        odd_odd=odd_odd,
        form_even=q_form_even,
        form_odd=q_form_odd,
    )


# -- registry --------------------------------------------------------------


@dataclass(frozen=True)
class InstanceDescriptor:
    name: str
    parameters: tuple
    expected_verdict: bool
    expected_scalar: Scalar | None = None


CATALOG_INSTANCES: tuple[InstanceDescriptor, ...] = (
    InstanceDescriptor("gl11", (), True, as_scalar(0)),
    InstanceDescriptor("osp_even", (1, 1), True, as_scalar("-3/8")),
    InstanceDescriptor("osp_even", (2, 1), True),
    InstanceDescriptor("osp_even", (1, 2), True),
    InstanceDescriptor("spin", (1,), True, as_scalar("-3/8")),
    InstanceDescriptor("spin", (3,), False),
    InstanceDescriptor("double", ("abelian1",), True, as_scalar(0)),
    InstanceDescriptor("double", ("gl11",), True),
    InstanceDescriptor("double", ("osp12",), True),
)

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
        return build_double(double_base(str(params[0])))[0]
    raise UnknownInstance(name)


def _as_int(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"expected an integer parameter, got {value!r}") from exc
