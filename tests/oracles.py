"""Independent cross-checks used by the test suite.

Everything here recomputes quantities the library produces, but along a
different route: the symmetrized product via explicit averaging over
permutations of creation/annihilation chains, the pairing of products of
linear elements via the permanent formula, the quadratic lift of a matrix
by solving against the Gram matrix of the Weyl-product pairing,
representation-theoretic trace values from closed-form weight sums, the
trace ratio from the matrices of every pair of quadratic monomials, the
transpose of the lift by pairing every polynomial lift with a quadratic,
the structure constants of a matrix Lie algebra by flattening every
commutator and solving against the flattened basis, the reduced echelon
form by Gauss-Jordan elimination on ``Fraction`` rows, and the Lie algebra,
representation and superalgebra axioms by explicit
brackets of basis elements, pair by pair and triple by triple, in place of
adjoint-matrix identities.  Agreement between these
and the engine is the backbone of the suite.

The first section holds the plain ``Fraction`` helpers that only the tests
use: a changed copy of a record, the dense coordinates of an even or odd
basis bracket, the dense odd table, an algebra or a superalgebra from
dense brackets given once per pair,
linear combinations, the dense ``Matrix`` arithmetic that the package does
not define (sums, differences, negation, products, scalar multiples,
``mat_apply``, ``mat_trace`` and ``mat_is_zero``, with the shape errors
``DimensionMismatch`` gives), column matrices (``mat_column``), form
values, brackets of coordinate
vectors, the representation defect as a matrix, the dense adjoint matrices
of a superalgebra, the degree-four part of the Casimir image as a sum of
commutative products, and the derivation extending a matrix to polynomials.
"""

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import permutations, product

from superweyl.engine import CheckResult, NotARepresentation, SuperAlgebraData
from superweyl.exactla import (DimensionMismatch, Matrix, Scalar, SingularMatrix, as_scalar,
                               invert, solve_linear, solve_overdetermined)
from superweyl.liealg import FormNotInvariant, FormSingular, JacobiFails, QuadraticLieAlgebra
from superweyl.spbridge import (InconsistentRatio, NotSymplectic, quadratic_factors,
                                quadratic_monomials, quadratic_pairing, quadratic_to_sp)
from superweyl.symplectic import SymplecticSpace, as_vector, is_in_sp
from superweyl.weyl import PolyElement, bilinear_form, contract, linear_coordinates, sym_product

_ZERO = Fraction(0)


# -- reference helpers ------------------------------------------------------


def linear_combination(coeffs: Sequence[Scalar], items: Sequence, zero):
    """sum_j coeffs[j] items[j] for matrices, polynomials or anything else
    with + and scalar *, starting from ``zero``; zero coefficients are skipped."""
    total = zero
    for c, item in zip(coeffs, items):
        if c != 0:
            total = (mat_add(total, mat_scale(c, item)) if isinstance(item, Matrix)
                     else total + c * item)
    return total


def bilinear(m: Matrix, x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
    """The form value x^T M y, skipping zero entries of x."""
    total = _ZERO
    for xi, row in zip(x, m.data):
        if xi != 0:
            total += xi * sum((r * yj for r, yj in zip(row, y)), _ZERO)
    return total


def _same_shape(a: Matrix, b: Matrix) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """a + b."""
    _same_shape(a, b)
    return Matrix([[x + y if y else x for x, y in zip(r1, r2)]
                   for r1, r2 in zip(a.data, b.data)], cols=a.cols)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    """a - b."""
    _same_shape(a, b)
    return Matrix([[x - y if y else x for x, y in zip(r1, r2)]
                   for r1, r2 in zip(a.data, b.data)], cols=a.cols)


def mat_neg(a: Matrix) -> Matrix:
    """-a."""
    return Matrix([[-x for x in row] for row in a.data], cols=a.cols)


def mat_mul(a: Matrix, *factors: Matrix) -> Matrix:
    """The product a b c ... of ``a`` and ``factors``, from the left."""
    for b in factors:
        if a.cols != b.rows:
            raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
        out = []
        for row in a.data:
            acc = [_ZERO] * b.cols
            for x, b_row in zip(row, b.data):
                if x != 0:
                    acc = [t + x * y if y else t for t, y in zip(acc, b_row)]
            out.append(acc)
        a = Matrix(out, cols=b.cols)
    return a


def mat_scale(c, a: Matrix) -> Matrix:
    """c a for a scalar c, multiplying only the nonzero entries."""
    c = as_scalar(c)
    return Matrix([[c * x if x else x for x in row] for row in a.data], cols=a.cols)


def mat_apply(a: Matrix, vec: Sequence) -> tuple[Scalar, ...]:
    """The matrix-vector product a v as a coordinate tuple."""
    v = [as_scalar(x) for x in vec]
    if len(v) != a.cols:
        raise DimensionMismatch(f"cannot apply {a.rows}x{a.cols} matrix to length-{len(v)} vector")
    return tuple(sum((x * y for x, y in zip(row, v)), _ZERO) for row in a.data)


def mat_trace(a: Matrix) -> Scalar:
    if not a.is_square():
        raise DimensionMismatch("trace of a non-square matrix")
    return sum((a.data[i][i] for i in range(a.rows)), _ZERO)


def mat_is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a.data for x in row)


def mat_column(values: Sequence) -> Matrix:
    """The one-column matrix with these entries."""
    return Matrix([[v] for v in values], cols=1)


def mat_diagonal(values: Sequence) -> Matrix:
    """The square diagonal matrix with these entries."""
    return Matrix.from_entries({(i, i): v for i, v in enumerate(values)}, len(values))


def pair(space: SymplecticSpace, u: Sequence, v: Sequence) -> Scalar:
    """The form value u^T omega v."""
    return bilinear(space.omega, as_vector(space, u), as_vector(space, v))


def replace(obj, **changes):
    """A copy of the record ``obj`` with the named fields changed; the
    copy's ``__post_init__`` checks it as any new record."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._record_fields},
                        **changes})


def bracket(g: QuadraticLieAlgebra, i: int, j: int) -> tuple[Scalar, ...]:
    """The coordinates of [x_i, x_j] as a dense tuple: the stored pair for
    i < j, its negative for i > j, and zero for i = j."""
    if i > j:
        return tuple(-c for c in bracket(g, j, i))
    col = g.brackets.get((i, j), {})
    return tuple(col.get(l, _ZERO) for l in range(g.dim))


def algebra_from_table(table: Mapping[tuple[int, int], Sequence], form: Matrix
                       ) -> QuadraticLieAlgebra:
    """The algebra of dimension ``form.rows`` whose bracket [x_i, x_j],
    i < j, has the dense coordinates ``table[(i, j)]``, which may hold
    zeros; a pair left out of ``table`` has a zero bracket."""
    columns = {key: {l: Fraction(c) for l, c in enumerate(coords) if c}
               for key, coords in table.items()}
    return QuadraticLieAlgebra({key: col for key, col in columns.items() if col}, form)


def odd_bracket(s: SuperAlgebraData, a: int, b: int) -> tuple[Scalar, ...]:
    """The coordinates of [y_a, y_b] = [y_b, y_a] as a dense tuple."""
    col = s.odd_odd.get((min(a, b), max(a, b)), {})
    return tuple(col.get(l, _ZERO) for l in range(s.rep.algebra.dim))


def odd_table(s: SuperAlgebraData) -> dict[tuple[int, int], tuple[Scalar, ...]]:
    """``odd_bracket`` on every pair a <= b, zero brackets included."""
    n = s.rep.space.dim
    return {(a, b): odd_bracket(s, a, b) for a in range(n) for b in range(a, n)}


def superalgebra_from_table(rep, table: Mapping[tuple[int, int], Sequence]) -> SuperAlgebraData:
    """The superalgebra on ``rep`` whose odd bracket [y_a, y_b], a <= b, has
    the dense coordinates ``table[(a, b)]``, which may hold zeros; a pair
    left out of ``table`` has a zero bracket.  The inverse of ``odd_table``."""
    columns = {key: {l: Fraction(c) for l, c in enumerate(coords) if c}
               for key, coords in table.items()}
    return SuperAlgebraData(rep, {key: col for key, col in columns.items() if col})


def bracket_vectors(g: QuadraticLieAlgebra, x: Sequence[Scalar],
                    y: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Bilinear extension of the bracket of g to coordinate vectors: each
    stored pair i < j weighs [x_i, x_j] by x_i y_j - x_j y_i."""
    out = [_ZERO] * g.dim
    for (i, j), col in g.brackets.items():
        weight = x[i] * y[j] - x[j] * y[i]
        if weight:
            for l, c in col.items():
                out[l] += weight * c
    return tuple(out)


def form_value(g: QuadraticLieAlgebra, x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
    return bilinear(g.form, x, y)


def representation_defect(ad: Sequence[Matrix], rho: Sequence[Matrix], k: int,
                          x: int, y: int) -> Matrix:
    """rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x) - sum_t (ad_x)_{ty} rho(t)
    for basis elements x, y of a superalgebra with adjoint matrices ``ad``
    whose first k basis elements are even.  It vanishes on every pair exactly
    when rho is a graded representation; for rho = ad, its column z is
    [x,[y,z]] - (-1)^{|x||y|} [y,[x,z]] - [[x,y],z].

    This is the ``Fraction`` reference of ``liealg.defect_columns``."""
    yx = mat_mul(rho[y], rho[x])
    xy = mat_mul(rho[x], rho[y])
    supercommutator = mat_add(xy, yx) if x >= k and y >= k else mat_sub(xy, yx)
    return mat_sub(supercommutator, linear_combination(ad[x].col(y), rho,
                                                       Matrix.from_entries({}, xy.rows, xy.cols)))


def dense_adjoint(s) -> list[Matrix]:
    """The matrices ad_t of ``s.adjoint_columns`` as dense ``Fraction``
    matrices, for tests that multiply them."""
    d, ad = s.adjoint_columns
    return [Matrix.from_entries({(i, j): Fraction(x, d) for j, col in enumerate(cols)
                                 for i, x in col.items()}, s.dim) for cols in ad]


def casimir_obstruction(space: SymplecticSpace, lifts: Sequence[PolyElement],
                        dual_lifts: Sequence[PolyElement]) -> PolyElement:
    """Degree-four part sum_i lift_i . lift^i of the Casimir image, for the
    dual lifts lift^i.  The top-degree part of the noncommutative product of
    two quadratics is their commutative product.

    With the scalar sum_i ``quadratic_pairing``(lift_i, lift^i), this is the
    ``Fraction`` reference of ``engine.casimir_image``."""
    zero = PolyElement.zero(space)
    return sum((sym_product(lift, dual) for lift, dual in zip(lifts, dual_lifts)), zero)


def derivation_action(alpha: Matrix, a: PolyElement) -> PolyElement:
    """Extension of the matrix ``alpha`` to a degree-preserving derivation of
    the commutative product, acting on linear elements as the matrix does."""
    space = a.space
    if alpha.rows != space.dim or alpha.cols != space.dim:
        raise DimensionMismatch("matrix and polynomial live on spaces of different dimension")
    images = [PolyElement.from_vector(space, alpha.col(i)) for i in range(space.dim)]
    total = PolyElement.zero(space)
    for exp, coeff in a.terms.items():
        for i, k in enumerate(exp):
            if k == 0 or images[i].is_zero():
                continue
            rest = exp[:i] + (k - 1,) + exp[i + 1:]
            total = total + (coeff * k) * sym_product(images[i], PolyElement.monomial(space, rest, 1))
    return total


# -- exact linear algebra, by Gauss-Jordan on Fraction rows -----------------


def oracle_rref(a: Matrix) -> tuple[list[list[Scalar]], list[int]]:
    """The reduced row echelon form of ``a`` and its pivot columns, by
    Gauss-Jordan elimination on ``Fraction`` rows: each pivot row is divided
    by its pivot and subtracted from every other row.  The zero rows stay at
    the bottom."""
    m = [list(a.row(i)) for i in range(a.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(a.cols):
        if r == a.rows:
            break
        pr = next((i for i in range(r, a.rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


# -- the Weyl product, the lift and the trace ratio, the slow way ------------


def gamma_apply(u: PolyElement, z: PolyElement) -> PolyElement:
    """Multiply-then-contract action of a linear element: u * z + iota(u) z."""
    return u * z + contract(linear_coordinates(u), z)


def linear_factors(space: SymplecticSpace, exp: tuple[int, ...]) -> list[PolyElement]:
    out = []
    for i, k in enumerate(exp):
        out.extend(PolyElement.variable(space, i) for _ in range(k))
    return out


def oracle_weyl_product(a: PolyElement, b: PolyElement) -> PolyElement:
    """Symmetrized product computed the slow way: for each monomial of ``a``,
    average the chained gamma action of its linear factors over all
    orderings.  Repeated factors make some orderings coincide, but the
    repeats are uniform, so dividing by the factorial still averages."""
    space = a.space
    total = PolyElement.zero(space)
    for exp, coeff in a.sorted_terms():
        factors = linear_factors(space, exp)
        if not factors:
            total = total + coeff * b
            continue
        acc = PolyElement.zero(space)
        count = 0
        for order in permutations(range(len(factors))):
            term = b
            for idx in reversed(order):
                term = gamma_apply(factors[idx], term)
            acc = acc + term
            count += 1
        total = total + (coeff / count) * acc
    return total


def permanent_pairing(space: SymplecticSpace, us, vs) -> Fraction:
    """Pairing of two products of linear elements as a sum over matchings:
    sum over permutations of the product of pairwise linear pairings.
    Zero when the factor counts differ."""
    if len(us) != len(vs):
        return Fraction(0)
    if not us:
        return Fraction(1)
    total = Fraction(0)
    for sigma in permutations(range(len(vs))):
        prod = Fraction(1)
        for i, j in enumerate(sigma):
            prod *= pair(space, us[i], vs[j])
        total += prod
    return total


def sl2_casimir_trace(two_j: int) -> Fraction:
    """Trace of h^2/2 + ef + fe on the irreducible module of highest weight
    ``two_j``, from the eigenvalue (two_j)(two_j + 2)/2 of the quadratic
    Casimir element times the dimension two_j + 1."""
    return Fraction(two_j * (two_j + 2), 2) * (two_j + 1)


def oracle_sp_to_quadratic(space: SymplecticSpace, alpha: Matrix) -> PolyElement:
    """The quadratic w with (x_i x_j, w) = -1/2 (x_i, alpha x_j) for all
    i <= j, found by solving against the Gram matrix of ``bilinear_form``
    (the Weyl-product pairing) on the monomial basis of quadratics."""
    monomials = quadratic_monomials(space)
    if not monomials:
        return PolyElement.zero(space)
    gram = Matrix([[bilinear_form(p, q) for q in monomials] for p in monomials],
                  cols=len(monomials))
    rhs = [Fraction(-1, 2) * pair(space, space.basis_vector(i), alpha.col(j))
           for i in range(space.dim) for j in range(i, space.dim)]
    coeffs = solve_linear(gram, mat_column(rhs))
    total = PolyElement.zero(space)
    for k, mono in enumerate(monomials):
        total = total + coeffs[k, 0] * mono
    return total


def oracle_trace_ratio_constant(space: SymplecticSpace
                                ) -> tuple[Fraction, tuple[tuple[int, int], tuple[int, int]]]:
    """``trace_ratio_constant`` from the matrices: build A(p) with
    ``quadratic_to_sp`` for every quadratic monomial p, fit the constant with
    ``bilinear_form`` on the first pair with nonzero tr(A(p) A(q)), and
    require (p, q) = c tr(A(p) A(q)) through ``quadratic_pairing`` on all N^2
    pairs.  Returns the constant and that anchor pair, each monomial as its
    factors (i, j), i <= j."""
    monomials = quadratic_monomials(space)
    mats = [quadratic_to_sp(p).data for p in monomials]
    support = [[(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x != 0]
               for m in mats]

    def trace(p_idx: int, q_idx: int) -> Fraction:
        other = mats[q_idx]
        return sum((x * other[j][i] for i, j, x in support[p_idx]), Fraction(0))

    pairs = [(p, q) for p in range(len(monomials)) for q in range(len(monomials))]
    anchor = next(((p, q) for p, q in pairs if trace(p, q) != 0), None)
    if anchor is None:
        raise InconsistentRatio("trace pairing vanishes identically")
    constant = bilinear_form(monomials[anchor[0]], monomials[anchor[1]]) / trace(*anchor)
    for p, q in pairs:
        if quadratic_pairing(monomials[p], monomials[q]) != constant * trace(p, q):
            raise InconsistentRatio(f"pairing and trace form disagree on monomial pair ({p}, {q})")
    return constant, tuple(quadratic_factors(*monomials[k].terms) for k in anchor)


def oracle_quadratic_lift_adjoint(rep, w: PolyElement) -> tuple[Fraction, ...]:
    """t = sum_i (lift_i, w) x^i: ``quadratic_pairing`` of every polynomial
    lift of ``oracle_sp_to_quadratic`` with w, against the dual basis x^i of
    B, column i of B^-1."""
    lifts = [oracle_sp_to_quadratic(rep.space, m) for m in rep.matrices]
    coeffs = [quadratic_pairing(lift, w) for lift in lifts]
    duals = invert(rep.algebra.form).columns()
    return tuple(sum((c * dual[l] for c, dual in zip(coeffs, duals)), Fraction(0))
                 for l in range(rep.algebra.dim))


# -- the Lie algebra and representation axioms, tuple by tuple --------------


def oracle_structure_constants(basis: Sequence[Matrix]
                               ) -> dict[tuple[int, int], dict[int, Scalar]]:
    """The pair map of brackets of the matrix Lie algebra spanned by
    ``basis``: the commutators of the pairs i < j, flattened to columns,
    solved at once against the flattened basis.  Needs a closed, linearly
    independent basis, but no nonsingular trace form."""
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    if not pairs:
        return {}

    def flat(m: Matrix) -> tuple[Scalar, ...]:
        return tuple(x for row in m.data for x in row)

    commutators = [flat(mat_sub(mat_mul(basis[i], basis[j]), mat_mul(basis[j], basis[i])))
                   for i, j in pairs]
    coords = solve_overdetermined(Matrix([flat(b) for b in basis]).transpose(),
                                  Matrix(commutators).transpose())
    columns = {pair: {l: c for l, c in enumerate(coords.col(t)) if c}
               for t, pair in enumerate(pairs)}
    return {pair: col for pair, col in columns.items() if col}


def oracle_validate_lie(g) -> None:
    """``validate_lie`` through brackets of coordinate vectors: the cyclic
    Jacobi sum on every triple i < j < l, and ([x_i, x_j], x_l) +
    (x_j, [x_i, x_l]) = 0 on every triple, raising the first violation in
    that order."""
    k = g.dim
    units = [tuple(Fraction(int(t == l)) for t in range(k)) for l in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                total = [Fraction(0)] * k
                for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
                    outer = bracket_vectors(g, bracket(g, a, b), units[c])
                    total = [x + y for x, y in zip(total, outer)]
                if any(x != 0 for x in total):
                    raise JacobiFails(i, j, l)
    if g.form.transpose() != g.form:
        raise FormSingular("form matrix is not symmetric")
    try:
        invert(g.form)
    except SingularMatrix as exc:
        raise FormSingular(str(exc)) from exc
    for i in range(k):
        for j in range(k):
            for l in range(k):
                lhs = form_value(g, bracket(g, i, j), units[l])
                rhs = form_value(g, units[j], bracket(g, i, l))
                if lhs + rhs != 0:
                    raise FormNotInvariant(i, j, l)


def oracle_validate_rep(rep) -> None:
    """``validate_rep`` through matrix commutators: every matrix preserves
    the form, and [nu_i, nu_j] = sum_l c_ij^l nu_l for every pair i < j."""
    for i, m in enumerate(rep.matrices):
        if not is_in_sp(rep.space, m):
            raise NotSymplectic(index=i)
    k = rep.algebra.dim
    for i in range(k):
        for j in range(i + 1, k):
            commutator = mat_sub(mat_mul(rep.matrices[i], rep.matrices[j]),
                                 mat_mul(rep.matrices[j], rep.matrices[i]))
            expected = linear_combination(bracket(rep.algebra, i, j), rep.matrices,
                                          Matrix.from_entries({}, rep.space.dim))
            if commutator != expected:
                raise NotARepresentation(i, j)


# -- the superalgebra axioms, triple by triple ------------------------------
#
# Homogeneous elements are tagged (parity, coordinates): parity 0 lives in
# g0, parity 1 in the odd space.  Every bracket is computed from the tables
# of ``SuperAlgebraData`` one basis element at a time, with no matrices.


def _super_bracket(s, x, y):
    px, vx = x
    py, vy = y
    if px == 0 and py == 0:
        return (0, bracket_vectors(s.rep.algebra, vx, vy))
    if px == 0 and py == 1:
        out = [Fraction(0)] * s.rep.space.dim
        for i, c in enumerate(vx):
            if c != 0:
                image = mat_apply(s.rep.matrices[i], vy)
                out = [o + c * t for o, t in zip(out, image)]
        return (1, tuple(out))
    if px == 1 and py == 0:
        parity, vec = _super_bracket(s, y, x)
        return (parity, tuple(-t for t in vec))
    out_even = [Fraction(0)] * s.rep.algebra.dim
    for a, ca in enumerate(vx):
        for b, cb in enumerate(vy):
            if ca != 0 and cb != 0:
                for l, c in enumerate(odd_bracket(s, a, b)):
                    out_even[l] += ca * cb * c
    return (0, tuple(out_even))


def _super_form(s, x, y):
    if x[0] != y[0]:
        return Fraction(0)
    return bilinear(s.rep.algebra.form if x[0] == 0 else s.rep.space.omega, x[1], y[1])


def _unit(s, parity, index):
    dim = s.rep.algebra.dim if parity == 0 else s.rep.space.dim
    return (parity, tuple(Fraction(int(t == index)) for t in range(dim)))


def _labelled_basis(s):
    return ([(0, i, _unit(s, 0, i)) for i in range(s.rep.algebra.dim)]
            + [(1, a, _unit(s, 1, a)) for a in range(s.rep.space.dim)])


def _form_invariance_witness(s):
    """First basis triple, in basis order, with
    ([x,y], z) != -(-1)^{|x||y|} (y, [x,z])."""
    basis = _labelled_basis(s)
    for px, i, x in basis:
        for py, j, y in basis:
            sign = -1 if px and py else 1
            for pz, l, z in basis:
                lhs = _super_form(s, _super_bracket(s, x, y), z)
                rhs = -sign * _super_form(s, y, _super_bracket(s, x, z))
                if lhs != rhs:
                    return f"parities ({px}, {py}, {pz}), indices ({i}, {j}, {l})"
    return None


def _antisymmetric(s, x, y):
    """[x,y] = -(-1)^{|x||y|} [y,x]"""
    sign = -1 if x[0] and y[0] else 1
    parity, vec = _super_bracket(s, y, x)
    return _super_bracket(s, x, y) == (parity, tuple(-sign * t for t in vec))


def _jacobi_holds(s, parities, indices):
    """[x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]"""
    x, y, z = (_unit(s, p, t) for p, t in zip(parities, indices))
    lhs = _super_bracket(s, x, _super_bracket(s, y, z))
    r1 = _super_bracket(s, _super_bracket(s, x, y), z)
    r2 = _super_bracket(s, y, _super_bracket(s, x, z))
    sign = -1 if x[0] and y[0] else 1
    return lhs == (r1[0], tuple(a + sign * b for a, b in zip(r1[1], r2[1])))


def oracle_verify_superalgebra(s) -> list[CheckResult]:
    """The twelve checks of ``verify_superalgebra``, each evaluated on every
    basis pair or triple through explicit brackets of homogeneous elements;
    each witness is the first violating tuple in iteration order."""
    basis = _labelled_basis(s)
    checks = []

    witness = next((f"parities ({px}, {py}), indices ({i}, {j})"
                    for (px, i, x), (py, j, y) in product(basis, repeat=2)
                    if not _antisymmetric(s, x, y)), None)
    checks.append(CheckResult("graded_antisymmetry", witness is None, witness))

    for parities in product((0, 1), repeat=3):
        dims = [s.rep.algebra.dim if p == 0 else s.rep.space.dim for p in parities]
        witness = next((f"indices {t}" for t in product(*map(range, dims))
                        if not _jacobi_holds(s, parities, t)), None)
        checks.append(CheckResult("jacobi_" + "".join("eo"[p] for p in parities),
                                  witness is None, witness))

    witness = _form_invariance_witness(s)
    checks.append(CheckResult("form_invariance", witness is None, witness))

    supersymmetric = (s.rep.algebra.form.transpose() == s.rep.algebra.form
                      and s.rep.space.omega.transpose() == mat_neg(s.rep.space.omega))
    checks.append(CheckResult("form_supersymmetry", supersymmetric,
                              None if supersymmetric else "Gram symmetry pattern broken"))
    try:
        invert(s.rep.algebra.form)
        invert(s.rep.space.omega)
        nonsingular = True
    except SingularMatrix:
        nonsingular = False
    checks.append(CheckResult("form_nonsingular", nonsingular,
                              None if nonsingular else "a Gram block is singular"))
    return checks
