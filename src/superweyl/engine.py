"""Decide whether a quadratic Lie algebra with a symplectic representation
extends to a Lie superalgebra with an invariant supersymmetric form.

Given an even algebra g0 with invariant form B and a representation nu of
g0 on a symplectic space v, there is at most one way to put a Lie
superalgebra structure on g0 + v compatible with nu and with the direct-sum
form.  The paper's test lives in the noncommutative (Weyl) algebra on v:

1. lift each nu(x_i) to a quadratic polynomial (``quadratic_lift``),
2. push the Casimir element sum_i x_i x^i of g0 through the lift with the
   noncommutative product; the image is a degree-four part plus a constant,
   and ``casimir_image`` returns the two as (obstruction, scalar),
3. the extension exists exactly when the degree-four part vanishes; the
   constant is then the Casimir scalar, and the odd-odd bracket is
   recovered as ``[y, y'] = 2 quadratic_lift_adjoint(y.y')``; by invariance
   of B + omega, B([y_p, y_q], x) = -omega(y_p, nu(x) y_q), so coordinate l
   of [y_p, y_q] is -(omega mu_l)_pq for mu_l = nu(x^l), the one value that
   decision and construction share (``SymplecticRep.dual_columns``).

The Weyl product of ``weyl`` is the reference model.  The working path,
checked against it by the tests, uses closed forms: since the product of
quadratics a, b is a.b + 1/2 [a, b] + (a, b), ``casimir_image`` turns the
lifts lift_i of ``sp_to_quadratic`` and the dual lifts lift^i, each formed
once, into the obstruction sum_i lift_i . lift^i (commutative products)
and the scalar sum_i (lift_i, lift^i) (the permanent pairing
w_ia w_jb + w_ib w_ja), which ``decide`` reads directly.  These sums, the
mu_l, the degree-two leak test, the trace sum of the ``trace_identity``
diagnostic and ``quadratic_lift_adjoint`` run on the fraction-free kernel
of ``exactla``: operands scaled to integers by their common denominators,
int accumulation, and one ``Fraction`` per output term.

Every entry point takes its representation as validated (``validate_space``,
``validate_lie``, and ``validate_rep``, the one sp(omega) test of nu).
Unvalidated, a matrix outside sp(omega) still raises ``NotSymplectic`` in the
lift, and a degree-two part of the Casimir image ``InternalDegreeLeak(2)``;
any other defect goes unseen.

When the degree-four obstruction is nonzero, the candidate bracket still
exists but fails the odd-odd-odd super Jacobi identity, and the failure is
measured exactly by contracting the obstruction three times
(``jacobiator_from_obstruction``), which the tests compare with the cyclic
sum of brackets read off the constructed odd table.

Both brackets of a ``SuperAlgebraData`` are stored once per pair, as the
nonzero coordinates {l: c}: ``rep.algebra.brackets[(i, j)]`` of [x_i, x_j],
i < j, and ``odd_odd[(a, b)]`` of [y_a, y_b], a <= b, a zero bracket being
absent; ``liealg.check_pairs`` checks both maps and ``liealg.bracket_table``
expands both.  Its checks read ``adjoint_columns`` and ``gram_columns``,
taken off those maps and B and omega alone, never off a cached value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product

from .exactla import (Column, IntegerColumns, Matrix, Scalar, SuperweylError, add_product,
                      as_scalar, integer_columns, integer_tables, integer_vectors,
                      invariance_violation, is_nonsingular, record)
from .liealg import QuadraticLieAlgebra, bracket_table, check_pairs, defect_columns
from .spbridge import (NotSymplectic, quadratic_factors, quadratic_monomials, sp_to_quadratic,
                       trace_ratio_constant)
from .symplectic import SymplecticSpace, Vector
from .weyl import PolyElement, SpaceMismatch, contract, linear_coordinates

_ZERO = as_scalar(0)


class NotARepresentation(SuperweylError):
    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"matrix commutator disagrees with the bracket on basis pair ({i}, {j})")


class InternalDegreeLeak(SuperweylError):
    """The Casimir image acquired a component in degree 1, 2 or 3.

    This cannot happen for valid input; it signals a bug, not bad data.
    """

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"Casimir image has an impossible degree-{degree} component")


class NotSuperLieType(SuperweylError):
    """Construction was requested but the degree-four obstruction is nonzero."""

    def __init__(self, obstruction: PolyElement):
        self.obstruction = obstruction
        super().__init__("no Lie superalgebra extension exists; "
                         f"degree-four obstruction has {len(obstruction.terms)} terms")


@record
class SymplecticRep:
    """A quadratic Lie algebra acting on a symplectic space.

    ``matrices[i]`` is the action of basis element i.  Construction checks
    shapes; ``validate_rep`` checks the symmetry condition and the
    representation property.
    """

    algebra: QuadraticLieAlgebra
    space: SymplecticSpace
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.matrices) != self.algebra.dim:
            raise ValueError("need one matrix per basis element of the algebra")
        for m in self.matrices:
            if m.rows != self.space.dim or m.cols != self.space.dim:
                raise ValueError("representation matrices must be square of the space dimension")

    @cached_property
    def matrix_columns(self) -> IntegerColumns:
        """``matrices`` on the fraction-free kernel, once per representation."""
        return integer_columns(self.matrices)

    @cached_property
    def dual_columns(self) -> IntegerColumns:
        """The matrices mu_l = sum_i (B^-1)_li nu_i, so nu(x^l) for the dual
        basis x^i of B when B is symmetric, as integer columns at the scale
        d_nu d_B, for the scale d_nu of ``matrix_columns`` and d_B of
        ``algebra.form_inverse_columns``; once per representation."""
        d_nu, nus = self.matrix_columns
        d_b, (b_inverse,) = self.algebra.form_inverse_columns
        mus: list[list[Column]] = [[{} for _ in range(self.space.dim)]
                                   for _ in range(self.algebra.dim)]
        for nu, column in zip(nus, b_inverse):
            for l, c in column.items():
                for mu_col, nu_col in zip(mus[l], nu):
                    for r, x in nu_col.items():
                        mu_col[r] = mu_col.get(r, 0) + c * x
        return IntegerColumns(d_nu * d_b, [[{r: x for r, x in col.items() if x} for col in mu]
                                           for mu in mus])


def validate_rep(rep: SymplecticRep) -> None:
    """Check that every matrix preserves the form, nu^T omega + omega nu = 0
    (``invariance_violation``), and that the representation defect of the
    matrices against the adjoint matrices of the algebra vanishes on every
    basis pair (``defect_columns``), both on ``rep.matrix_columns``."""
    ad, rho, k = rep.algebra.adjoint_columns, rep.matrix_columns, rep.algebra.dim
    _, (omega, omega_t) = rep.space.omega_columns
    for i, nu in enumerate(rho.columns):
        if invariance_violation(nu, omega, omega_t) is not None:
            raise NotSymplectic(index=i)
    for i, j in combinations(range(k), 2):
        if defect_columns(ad, rho, k, i, j, range(rep.space.dim)):
            raise NotARepresentation(i, j)


def quadratic_lift(rep: SymplecticRep, i: int) -> PolyElement:
    """The quadratic polynomial acting on v as nu(x_i) does."""
    return sp_to_quadratic(rep.space, rep.matrices[i])


def _dual_commutator_sum(rep: SymplecticRep) -> bool:
    """Whether sum_l [nu_l, mu_l], which is -sum_i [nu_i, nu(x^i)], is
    nonzero, on integer columns."""
    _, nus = rep.matrix_columns
    _, mus = rep.dual_columns
    total: list[Column] = [{} for _ in range(rep.space.dim)]
    for nu, mu in zip(nus, mus):
        for z, col in enumerate(total):
            add_product(col, nu, mu[z])
            add_product(col, mu, nu[z], -1)
    return any(any(col.values()) for col in total)


def quadratic_lift_adjoint(rep: SymplecticRep, w: PolyElement) -> tuple[Scalar, ...]:
    """The element t = sum_i (lift(x_i), w) x^i of g0, so that
    B(x_i, t) = (lift(x_i), w) for all i.

    This is the transpose of the quadratic lift against the two invariant
    forms; it intertwines the actions on quadratics and on g0.  Since
    (lift(x_i), y_p y_q) = -1/2 (omega nu_i)_pq, for any nonsingular B it is
    t_l = -1/2 sum_{c y_p y_q in w} c (omega mu_l)_pq, mu_l = ``rep.dual_columns``[l],
    summed in integers on the scaled c, omega and mu_l.
    Raises ``ValueError`` unless ``w`` is homogeneous of degree two.
    """
    if w.space != rep.space:
        raise SpaceMismatch("the quadratic lives on a different space")
    if not w.is_homogeneous(2):
        raise ValueError("quadratic_lift_adjoint needs a homogeneous quadratic")
    d_w, (coeffs,) = integer_vectors([w.terms])
    d_omega, (_, omega_rows) = rep.space.omega_columns
    d_mu, mus = rep.dual_columns
    t = [0] * rep.algebra.dim
    for exp, c in coeffs.items():
        p, q = quadratic_factors(exp)
        row = omega_rows[p]
        for l, mu in enumerate(mus):
            t[l] += c * sum(x * row[r] for r, x in mu[q].items() if r in row)
    scale = -2 * d_w * d_omega * d_mu
    return tuple(Fraction(x, scale) if x else _ZERO for x in t)


def casimir_image(rep: SymplecticRep) -> tuple[PolyElement, Scalar]:
    """Image of the Casimir element of g0 under the quadratic lift, using
    dual bases for the form, as (obstruction, scalar): the degree-four part
    sum_i lift_i . lift^i and the constant sum_i (lift_i, lift^i).  For a
    ``rep`` that passed ``validate_space``, ``validate_lie`` and ``validate_rep``
    these are the whole image; unvalidated, only ``NotSymplectic`` and
    ``InternalDegreeLeak(2)`` are raised.

    The sums run in integers: the lifts L_i over one common denominator d_L,
    the dual lifts D_i = sum_j (d_B B^-1)_ji L_j, and the form w = d_omega
    omega.  A term c_p y_i y_j of L_l times a term c_q y_a y_b of D_l adds
    c_p c_q to the quartic y_i y_j y_a y_b, and c_p c_q (w_ia w_jb + w_ib w_ja)
    to the scalar, their pairing in ``weyl.bilinear_form``; each output term is
    then one division, by d_L^2 d_B for the obstruction and by
    d_L^2 d_B d_omega^2 for the scalar."""
    lifts = tuple(quadratic_lift(rep, i) for i in range(rep.algebra.dim))
    d_b, (duals,) = rep.algebra.form_inverse_columns
    # the degree-two part 1/2 sum_i [lift_i, lift^i] lifts sum_i [nu_i, nu(x^i)]
    if _dual_commutator_sum(rep):
        raise InternalDegreeLeak(2)
    n = rep.space.dim
    d_lift, terms = integer_vectors([lift.terms for lift in lifts])
    # a quadratic y_i y_j is keyed by its factors (i, j), i <= j, and packed
    # into an int with 4 bits per exponent, so that a sum of packed keys is
    # the packed key of the product (every exponent stays below 16)
    factors = {exp: quadratic_factors(exp) for lift in lifts for exp in lift.terms}
    integer_lifts = [{factors[exp]: c for exp, c in lift.items()} for lift in terms]
    packed = {(i, j): (1 << 4 * i) + (1 << 4 * j) for i, j in factors.values()}
    d_omega, (omega, _) = rep.space.omega_columns
    w = [[col.get(i, 0) for col in omega] for i in range(n)]

    quartic: dict[int, int] = {}
    scalar = 0
    for lift, dual in zip(integer_lifts, duals):
        dual_lift: dict[tuple[int, int], int] = {}
        for j, c in dual.items():
            for key, x in integer_lifts[j].items():
                dual_lift[key] = dual_lift.get(key, 0) + c * x
        right = [(a, b, packed[a, b], x) for (a, b), x in dual_lift.items() if x]
        for (i, j), c in lift.items():
            w_i, w_j, key = w[i], w[j], packed[i, j]
            for a, b, other, x in right:
                cx = c * x
                quartic[key + other] = quartic.get(key + other, 0) + cx
                scalar += cx * (w_i[a] * w_j[b] + w_i[b] * w_j[a])
    denominator = d_lift * d_lift * d_b
    obstruction = PolyElement(rep.space, {
        tuple((key >> 4 * t) & 15 for t in range(n)): Fraction(x, denominator)
        for key, x in quartic.items() if x})
    return obstruction, Fraction(scalar, denominator * d_omega * d_omega)


@record
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@record
class TestReport:
    """Outcome of the decision procedure.

    ``casimir_scalar`` is present exactly when ``verdict`` is true;
    ``obstruction`` is the degree-four component of the Casimir image
    (zero in the positive case)."""

    verdict: bool
    casimir_scalar: Scalar | None
    obstruction: PolyElement
    diagnostics: tuple[CheckResult, ...]


def decide(rep: SymplecticRep) -> TestReport:
    """Run the decision procedure; see the module docstring.  ``rep`` must
    have passed ``validate_space``, ``validate_lie`` and ``validate_rep``:
    unvalidated, only the errors of ``casimir_image`` are caught."""
    obstruction, scalar = casimir_image(rep)
    verdict = obstruction.is_zero()
    diagnostics = [CheckResult("degree_confinement", True)]
    if rep.space.dim >= 2:
        c = trace_ratio_constant(rep.space)
        diagnostics.append(CheckResult("trace_ratio_fitted", True, str(c)))
        diagnostics.append(CheckResult("trace_ratio_magnitude_eighth",
                                       abs(c) == as_scalar("1/8"), "1/8"))
        if verdict:
            rhs = c * _dual_trace_sum(rep)
            diagnostics.append(CheckResult("trace_identity", scalar == rhs, str(rhs)))
    return TestReport(verdict, scalar if verdict else None, obstruction, tuple(diagnostics))


def _dual_trace_sum(rep: SymplecticRep) -> Scalar:
    """sum_i tr(nu_i nu(x^i)), as sum_l tr(nu_l mu_l), summed in integers
    on ``rep.matrix_columns`` and ``rep.dual_columns``."""
    d_nu, nus = rep.matrix_columns
    d_mu, mus = rep.dual_columns
    total = sum(x * mu[p].get(q, 0) for nu, mu in zip(nus, mus)
                for q, col in enumerate(nu) for p, x in col.items())
    return Fraction(total, d_nu * d_mu)


# -- the superalgebra structure --------------------------------------------


@record
class SuperAlgebraData:
    """A Lie superalgebra on g0 + v: the representation ``rep`` of g0 on v,
    which holds the even brackets, nu and the forms B and omega, plus the
    odd bracket.

    ``odd_odd[(a, b)]``, for a <= b, maps l to the nonzero coefficients on
    x_l of the symmetric odd bracket [y_a, y_b], in the format of
    ``rep.algebra.brackets``: sparse column k + b of ad_{k+a}.  A pair whose
    bracket is zero is absent.  Construction refuses a malformed map
    (``check_pairs``), so equal superalgebras have equal records;
    ``verify_superalgebra`` checks the axioms on the derived views
    ``adjoint_columns``, whose basis is x_0..x_{k-1}, y_0..y_{n-1}, and
    ``gram_columns``, the Gram blocks B and omega.
    """

    rep: SymplecticRep
    odd_odd: dict[tuple[int, int], dict[int, Scalar]]

    def __post_init__(self):
        check_pairs(self.odd_odd, self.rep.space.dim, self.rep.algebra.dim, 1)

    @property
    def dim(self) -> int:
        return self.rep.algebra.dim + self.rep.space.dim

    def label(self, u: int) -> tuple[int, int]:
        """(parity, index within that parity) of basis element u."""
        k = self.rep.algebra.dim
        return (0, u) if u < k else (1, u - k)

    @cached_property
    def adjoint_columns(self) -> IntegerColumns:
        """The matrices ad_t of all basis elements on the fraction-free
        kernel, once per structure: column u of ad_t holds the coordinates
        of [e_t, e_u].  Read off ``rep.algebra.brackets``, ``rep.matrices``
        and ``odd_odd`` alone, never off a cache of the validators or the
        engine: the diagonal blocks are the rows of ``bracket_table`` on the
        even and the odd pairs, even ad_t adding nu_t below its row and odd
        ad_{k+a} the columns -nu_u e_a (u < k) before it."""
        algebra, nus = self.rep.algebra, self.rep.matrices
        k, n = algebra.dim, self.rep.space.dim
        # nu_t e_a for every t and a, on the odd rows k..k+n-1
        images = [[{k + i: row[a] for i, row in enumerate(nu.data) if row[a]} for a in range(n)]
                  for nu in nus]
        even = [row + image for row, image in zip(bracket_table(algebra.brackets, k, -1), images)]
        odd = [[{i: -x for i, x in image[a].items()} for image in images] + row
               for a, row in enumerate(bracket_table(self.odd_odd, n, 1))]
        return integer_tables(even + odd)

    @cached_property
    def gram_columns(self) -> IntegerColumns:
        """B, B^T, omega and omega^T on the fraction-free kernel, once per
        structure; read off ``rep.algebra.form`` and ``rep.space.omega``
        alone, never off a view that the algebra or the space caches."""
        form, omega = self.rep.algebra.form, self.rep.space.omega
        return integer_columns([form, form.transpose(), omega, omega.transpose()])


def construct_superalgebra_unchecked(rep: SymplecticRep) -> SuperAlgebraData:
    """Assemble the candidate structure with [y_a, y_b] = 2 lift^t(y_a y_b),
    keeping its nonzero coordinates, without testing the obstruction.
    Diagnostic tool: on a negative instance the result fails exactly the
    odd-odd-odd Jacobi sector.  ``rep`` must have passed ``validate_space``,
    ``validate_lie`` and ``validate_rep``."""
    columns = {quadratic_factors(exp): quadratic_lift_adjoint(rep, mono)
               for mono in quadratic_monomials(rep.space) for exp in mono.terms}
    return SuperAlgebraData(rep, {pair: {l: 2 * x for l, x in enumerate(col) if x}
                                  for pair, col in columns.items() if any(col)})


def construct_superalgebra(rep: SymplecticRep) -> SuperAlgebraData:
    """Construct the unique extension; raises ``NotSuperLieType`` with the
    degree-four obstruction when none exists.  ``rep`` must have passed
    ``validate_space``, ``validate_lie`` and ``validate_rep``, as for ``decide``."""
    report = decide(rep)
    if not report.verdict:
        raise NotSuperLieType(report.obstruction)
    return construct_superalgebra_unchecked(rep)


def verify_superalgebra(s: SuperAlgebraData) -> list[CheckResult]:
    """Check every axiom on basis elements, as identities of the adjoint
    matrices ad_x (column y is [x, y]) and the Gram matrix G, where |x| is
    the parity of x:

    - graded_antisymmetry: ad_x e_y = -(-1)^{|x||y|} ad_y e_x;
    - jacobi_pqr, one check per parity sector: column z of
      ad_x ad_y - (-1)^{|x||y|} ad_y ad_x - sum_t (ad_x)_{ty} ad_t vanishes
      for |x|, |y|, |z| = p, q, r, that is
      [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]];
    - form_invariance: ad_x^T G + S_x G ad_x = 0 with S_x = diag((-1)^{|x||y|}),
      that is ([x,y], z) = -(-1)^{|x||y|} (y, [x,z]);
    - form_supersymmetry: the even Gram block is symmetric and the odd one
      antisymmetric;
    - form_nonsingular: both Gram blocks are invertible, by fraction-free
      elimination on their integer columns (``is_nonsingular``).

    Each check reports the first violating tuple in basis order (even
    before odd), with indices counted within their parity.  Only the bracket
    tables and Gram blocks are read, never the engine's lifts.

    The identities are tested on ``s.adjoint_columns`` and ``s.gram_columns``,
    with no ``Fraction`` product or ``Matrix`` comparison.  Graded
    antisymmetry holds by construction, the brackets being stored once per
    pair; its check guards the expansion in ``adjoint_columns``.  So the
    Jacobi defect J(x, y, z) (column z of ``defect_columns`` on (x, y)) is
    totally graded-antisymmetric: swapping two neighbouring arguments u, w
    multiplies it by -(-1)^{|u||w|}, and J is computed once per sorted
    triple x <= y <= z, a nonzero one standing for all its permutations; a
    sector's witness is the first of these in basis order."""
    cols, k, basis = s.adjoint_columns, s.rep.algebra.dim, range(s.dim)
    c = cols.columns
    checks: list[CheckResult] = []

    witness = next((_located(s, x, y) for x, y in product(basis, repeat=2)
                    if c[x][y] != {r: v if x >= k and y >= k else -v
                                   for r, v in c[y][x].items()}), None)
    checks.append(CheckResult("graded_antisymmetry", witness is None, witness))

    parity = [s.label(u)[0] for u in basis]
    violations = (t for x in basis for y in range(x, s.dim)
                  for z in defect_columns(cols, cols, k, x, y, range(y, s.dim))
                  for t in permutations((x, y, z)))
    first: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for t in violations:
        sector = tuple(parity[u] for u in t)
        first[sector] = min(first.get(sector, t), t)
    witnesses = {sec: f"indices {tuple(s.label(u)[1] for u in t)}" for sec, t in first.items()}
    checks += [CheckResult("jacobi_" + "".join("eo"[p] for p in sector),
                           sector not in witnesses, witnesses.get(sector))
               for sector in product((0, 1), repeat=3)]

    witness = form_invariance_witness(s)
    checks.append(CheckResult("form_invariance", witness is None, witness))

    _, (b, b_t, w, w_t) = s.gram_columns
    sym_ok = b == b_t
    alt_ok = all(col == {i: -x for i, x in col_t.items()} for col, col_t in zip(w, w_t))
    checks.append(CheckResult("form_supersymmetry", sym_ok and alt_ok,
                              None if sym_ok and alt_ok else "Gram symmetry pattern broken"))

    nonsingular = is_nonsingular(b, k) and is_nonsingular(w, s.rep.space.dim)
    checks.append(CheckResult("form_nonsingular", nonsingular,
                              None if nonsingular else "a Gram block is singular"))
    return checks


def _located(s: SuperAlgebraData, *basis: int) -> str:
    labels = [s.label(u) for u in basis]
    return (f"parities {tuple(p for p, _ in labels)}, "
            f"indices {tuple(i for _, i in labels)}")


def form_invariance_witness(s: SuperAlgebraData) -> str | None:
    """First basis triple violating ([x,y], z) = -(-1)^{|x||y|} (y, [x,z]),
    read off ad_x^T G + S_x G ad_x on integer columns, or None; the columns
    of the block-diagonal G = B + omega and of G^T are those of the blocks
    in ``s.gram_columns``."""
    k, n = s.rep.algebra.dim, s.rep.space.dim
    _, (b, b_t, w, w_t) = s.gram_columns
    gram, gram_t = ([*even, *({k + i: x for i, x in col.items()} for col in odd)]
                    for even, odd in ((b, w), (b_t, w_t)))
    odd_signs = [1] * k + [-1] * n
    for x, ad_x in enumerate(s.adjoint_columns.columns):
        hit = invariance_violation(ad_x, gram, gram_t, odd_signs if x >= k else None)
        if hit is not None:
            return _located(s, x, *hit)
    return None


def jacobiator_from_obstruction(rep: SymplecticRep, obstruction: PolyElement,
                                a: int, b: int, c: int) -> Vector:
    """The cyclic sum [y_a,[y_b,y_c]] + [y_b,[y_c,y_a]] + [y_c,[y_a,y_b]] of
    odd basis elements, an odd coordinate vector, read off the obstruction:
    twice its triple contraction by the three basis vectors.  Zero for every
    triple exactly when the odd-odd-odd Jacobi sector holds."""
    space = rep.space
    contracted = contract(space.basis_vector(c),
                          contract(space.basis_vector(b),
                                   contract(space.basis_vector(a), obstruction)))
    return tuple(2 * x for x in linear_coordinates(contracted))


def first_failing_triple(rep: SymplecticRep, obstruction: PolyElement):
    """The first odd triple a <= b <= c, in lexicographic order, with nonzero
    ``jacobiator_from_obstruction``, as ((a, b, c), vector); None if none."""
    n = rep.space.dim
    triples = ((a, b, c) for a in range(n) for b in range(a, n) for c in range(b, n))
    return next(((t, vec) for t in triples
                 if any(vec := jacobiator_from_obstruction(rep, obstruction, *t))), None)
