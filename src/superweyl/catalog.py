"""Constructions of known families of instances.

Builders return ready-to-test representations: the orthogonal-symplectic
even pairs acting on a tensor product, under the supertrace form, which
cancels the degree-four obstruction (the trace form on the orthogonal
summand and minus the trace form on the symplectic one; Kac, "Lie
superalgebras", Adv. Math. 26, 1977); the two-dimensional diagonal
instance whose extension is the smallest nontrivial superalgebra with a
one-dimensional odd-odd image; the irreducible representations of the
three-dimensional simple algebra (symplectic exactly for odd highest
weight, with the smallest negative instance at weight three); and, for
any verified superalgebra, the problem whose extension is its double, the
sum of the superalgebra and its dual space, with no odd bracket of its own:
the engine constructs it.

Every builder lists the nonzero entries {(row, col): value} of its
matrices and forms, and ``Matrix.from_entries`` makes each of them a
``Matrix``.  A summand spanned by basis matrices takes its trace form
G as its invariant form, and G gives the structure constants too:
coordinate l of [b_i, b_j] is sum_m (G^-1)_lm tr([b_i, b_j] b_m).
``matrix_structure_constants`` builds the summand in one pass, in integers
on the fraction-free kernel of the validators, and checks each commutator
against its reconstruction from those coordinates.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from .engine import SuperAlgebraData, SymplecticRep, construct_superalgebra, verify_superalgebra
from .exactla import (LinAlgError, Matrix, Scalar, SuperweylError, add_product, integer_columns,
                      invert, is_index)
from .liealg import QuadraticLieAlgebra
from .spbridge import NotSymplectic
from .symplectic import MAX_STANDARD_DIM, SymplecticSpace, standard_space


class TooLarge(SuperweylError):
    """Requested instance exceeds the supported size."""


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


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, with the index convention (i, p) -> i * b.rows + p."""
    return Matrix.from_entries({(i * b.rows + p, j * b.cols + q): x * y
                                for (i, j), x in _entries(a).items()
                                for (p, q), y in _entries(b).items()},
                               a.rows * b.rows, a.cols * b.cols)


def so_basis(m: int) -> list[Matrix]:
    """Antisymmetric matrices E_ij - E_ji (i < j); empty for m = 1."""
    return [Matrix.from_entries({(i, j): 1, (j, i): -1}, m) for i, j in combinations(range(m), 2)]


def sp_basis(n: int) -> list[Matrix]:
    """Basis of the matrices preserving the standard alternating form in
    dimension 2n, in blocks [[A, B], [C, -A^T]] with B, C symmetric.
    For n = 1 the order is the usual (H, E, F)."""
    upper = list(combinations_with_replacement(range(n), 2))
    entries = ([{(i, j): 1, (n + j, n + i): -1} for i, j in product(range(n), repeat=2)]
               + [{(i, n + j): 1, (j, n + i): 1} for i, j in upper]
               + [{(n + i, j): 1, (n + j, i): 1} for i, j in upper])
    return [Matrix.from_entries(e, 2 * n) for e in entries]


def matrix_structure_constants(basis: Sequence[Matrix]) -> QuadraticLieAlgebra:
    """The matrix Lie algebra spanned by ``basis``, with its trace form G.
    The basis must be closed under commutators and G nonsingular: coordinate
    l of [b_i, b_j] is sum_m (G^-1)_lm tr([b_i, b_j] b_m).

    The basis is cleared once, to the integer columns of d b_i.  The entries
    of d^2 G, the commutators d^2 [b_i, b_j] for i < j and their traces
    against d b_m are ints, and each coordinate is one division.  A singular
    G raises ``SingularMatrix``, as every dependent basis does.  Each
    commutator is then compared, in integers, with its reconstruction
    sum_l c_l b_l from those coordinates; a basis that is not closed raises
    ``LinAlgError``."""
    k, size = len(basis), basis[0].rows if basis else 0
    d, b = integer_columns(basis)
    # flat[m] maps r * size + z to d (b_m)_rz, and against[r * size + z] maps
    # m to d (b_m)_zr, the factor of C_rz in tr(C b_m)
    flat, against = [{} for _ in range(k)], [{} for _ in range(size * size)]
    for m, cols in enumerate(b):
        for r, col in enumerate(cols):
            for z, x in col.items():
                against[r * size + z][m] = flat[m][z * size + r] = x
    gram = Matrix.from_entries({(i, m): Fraction(x, d * d) for i in range(k)
                                for m, x in add_product({}, against, flat[i]).items()}, k)
    e, (inverse,) = integer_columns([invert(gram)])
    brackets = {}
    for i, j in combinations(range(k), 2):
        commutator = {r * size + z: c for z in range(size) for r, c in
                      add_product(add_product({}, b[i], b[j][z]), b[j], b[i][z], -1).items() if c}
        coords = add_product({}, inverse, add_product({}, against, commutator))
        # coords holds e d^3 c_l: closed means sum_l e d^3 c_l d b_l = e d^2 d^2 [b_i, b_j]
        residue = add_product({p: e * d * d * c for p, c in commutator.items()}, flat, coords, -1)
        if any(residue.values()):
            raise LinAlgError("the basis is not closed under commutators")
        if col := {l: Fraction(x, e * d ** 3) for l, x in coords.items() if x}:
            brackets[i, j] = col
    return QuadraticLieAlgebra(brackets, gram)


def _direct_sum(summands: Sequence[QuadraticLieAlgebra],
                scales: Sequence[int]) -> QuadraticLieAlgebra:
    """Direct sum with the block-diagonal form sum_s scales[s] B_s, one scale
    per summand; cross brackets are zero, and each summand's bracket keys
    move by its offset."""
    total, offset = sum(g.dim for g in summands), 0
    brackets, form = {}, {}
    for g, scale in zip(summands, scales, strict=True):
        brackets |= {(offset + i, offset + j): {offset + l: c for l, c in col.items()}
                     for (i, j), col in g.brackets.items()}
        form |= {(offset + i, offset + j): scale * x for (i, j), x in _entries(g.form).items()}
        offset += g.dim
    return QuadraticLieAlgebra(brackets, Matrix.from_entries(form, total))


# -- instance builders -----------------------------------------------------


def build_osp_even(m: int, n: int) -> SymplecticRep:
    """Orthogonal summand of size m and symplectic summand of size 2n acting
    on the tensor product of their defining spaces, under the supertrace
    form: the plain trace form on the first summand and minus the trace
    form on the second (Kac 1977), so that the degree-four obstruction
    cancels.

    For m = 1 the orthogonal summand is zero-dimensional and is dropped, so
    the symplectic summand comes first and keeps its plain trace form: the
    supertrace form is fixed only up to an overall sign, and the first
    summand fixes it.
    """
    if m < 1 or n < 1:
        raise InvalidInput("need m >= 1 and n >= 1")
    dim = m * 2 * n
    if dim > MAX_STANDARD_DIM:
        shown = dim if dim < 10 ** 100 else "above 10^100"  # str() stops at 4,300 digits
        raise TooLarge(f"tensor space dimension {shown} exceeds the supported {MAX_STANDARD_DIM}")
    space = SymplecticSpace(kron(Matrix.identity(m), standard_space(n).omega))
    so_b, sp_b = so_basis(m), sp_basis(n)
    matrices = ([kron(a, Matrix.identity(2 * n)) for a in so_b]
                + [kron(Matrix.identity(m), b) for b in sp_b])
    summands = [matrix_structure_constants(basis) for basis in (so_b, sp_b) if basis]
    algebra = _direct_sum(summands, (1, -1)[:len(summands)])
    return SymplecticRep(algebra, space, tuple(matrices))


def build_gl11_even() -> SymplecticRep:
    """Two-dimensional abelian algebra with form diag(1, -1) acting on the
    standard two-dimensional space by diag(1, -1) and diag(-1, 1).  This is
    the even part of the smallest type-I matrix superalgebra under its
    supertrace form."""
    form = Matrix.from_entries({(0, 0): 1, (1, 1): -1}, 2)
    matrices = (form, Matrix.from_entries({(0, 0): -1, (1, 1): 1}, 2))
    return SymplecticRep(QuadraticLieAlgebra({}, form), standard_space(1), matrices)


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
    h = Matrix.from_entries({(r, r): two_j - 2 * r for r in range(size)}, size)
    e = Matrix.from_entries({(r, r + 1): (r + 1) * (two_j - r) for r in range(two_j)}, size)
    f = Matrix.from_entries({(r + 1, r): 1 for r in range(two_j)}, size)
    omega = Matrix.from_entries({(r, two_j - r): (-1) ** r for r in range(size)}, size)
    sl2 = matrix_structure_constants(sp_basis(1))
    return SymplecticRep(sl2, SymplecticSpace(omega), (h, e, f))


def abelian_superalgebra(dim: int) -> SuperAlgebraData:
    """Purely even abelian superalgebra; the degenerate base case for doubles."""
    point = Matrix.from_entries({}, 0)
    rep = SymplecticRep(QuadraticLieAlgebra({}, Matrix.identity(dim)), SymplecticSpace(point),
                        (point,) * dim)
    return SuperAlgebraData(rep, {})


def build_double(s: SuperAlgebraData) -> SymplecticRep:
    """The double of ``s``, the sum of ``s`` and its dual space with ``s``
    acting on functionals through the contragredient action, the dual an
    abelian ideal, and the hyperbolic form pairing the two halves, as the
    problem whose extension it is: the even part g0 + g0* represented on
    the odd part v + v*.  The engine constructs the odd bracket.

    The sign of the odd pairing follows the rule (u, v) = -(v, u) for odd
    u, v applied to the canonical pairing of functionals against vectors,
    written in the order (functional, vector).
    """
    failures = [c for c in verify_superalgebra(s) if not c.passed]
    if failures:
        raise InvalidInput(f"input fails verification: {failures[0].name}")
    base = s.rep.algebra
    k, n = base.dim, s.rep.space.dim
    nn = 2 * n

    # even brackets: [x_i, x_l] = sum_j c_il^j x_j from s, and the contragredient
    # action [x_i, w_j] = -sum_l c_il^j w_l, a pair i < l giving c_il and c_li = -c_il
    brackets = dict(base.brackets)
    for (i, l), col in base.brackets.items():
        for j, c in col.items():
            brackets.setdefault((i, k + j), {})[k + l] = -c
            brackets.setdefault((l, k + j), {})[k + i] = c
    form_even = Matrix.from_entries({(i, k + i): 1 for i in range(k)}
                                    | {(k + i, i): 1 for i in range(k)}, 2 * k)
    even = QuadraticLieAlgebra(brackets, form_even)

    # odd form on basis (y_0..y_{n-1}, z_0..z_{n-1}): (y_b, z_a) = -delta
    form_odd = Matrix.from_entries({(i, n + i): -1 for i in range(n)}
                                   | {(n + i, i): 1 for i in range(n)}, nn)

    # action of the doubled even part on the doubled odd space: nu_i and -nu_i^T
    matrices = []
    for nu_i in s.rep.matrices:
        entries = _entries(nu_i)
        entries |= {(n + q, n + p): -x for (p, q), x in entries.items()}
        matrices.append(Matrix.from_entries(entries, nn))
    # x_{k+j} sends y_b to sum_c [y_b, y_c]_j z_c, scattered from the stored maps
    duals = [{} for _ in range(k)]
    for (b, c), col in s.odd_odd.items():
        for j, x in col.items():
            duals[j][n + c, b] = duals[j][n + b, c] = x
    matrices += [Matrix.from_entries(entries, nn) for entries in duals]
    return SymplecticRep(even, SymplecticSpace(form_odd), tuple(matrices))


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
        return build_double(double_base(str(params[0])))
    raise UnknownInstance(name)


def _as_int(value) -> int:
    """A Python int other than a bool, or a string of ASCII digits with an
    optional leading minus; spaces, signs, underscores and other digits are
    refused, and more than 18 digits, far above every size guard, are too many."""
    if is_index(value):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        digits = len(value.lstrip("-"))
        if digits > 18:
            raise TooLarge(f"an integer parameter of {digits} digits is out of scope")
        return int(value)
    raise InvalidInput(f"expected an integer parameter, got {value!r}")
