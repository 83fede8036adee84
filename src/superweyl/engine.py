"""Decide whether a quadratic Lie algebra with a symplectic representation
extends to a Lie superalgebra with an invariant supersymmetric form.

Given an even algebra g0 with invariant form B and a representation nu of
g0 on a symplectic space v, there is at most one way to put a Lie
superalgebra structure on g0 + v compatible with nu and with the direct-sum
form.  The paper's test lives in the noncommutative (Weyl) algebra on v:

1. lift each nu(x_i) to a quadratic polynomial (``quadratic_lift``),
2. push the Casimir element sum_i x_i x^i of g0 through the lift with the
   noncommutative product (``casimir_image``); the image decomposes into a
   degree-four part plus a constant,
3. the extension exists exactly when the degree-four part vanishes; the
   constant is then the Casimir scalar, and the odd-odd bracket is
   recovered as ``[y, y'] = 2 quadratic_lift_adjoint(y.y')``.

The Weyl product of ``weyl`` is the reference model.  The working path,
checked against it by the tests, uses closed forms computed once per
problem by ``analyze``: the lifts of ``sp_to_quadratic``, and, since the
product of quadratics a, b is a.b + 1/2 [a, b] + (a, b), the obstruction
sum_i lift_i . lift^i (``casimir_obstruction``) and the constant
sum_i (lift_i, lift^i) (``quadratic_pairing``).

When the degree-four obstruction is nonzero, the candidate bracket still
exists but fails the odd-odd-odd super Jacobi identity, and the failure is
measured exactly by contracting the obstruction three times
(``jacobiator_from_obstruction``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .exactla import Matrix, Scalar, SingularMatrix, as_scalar, invert, linear_combination
from .liealg import QuadraticLieAlgebra, casimir_pairs
from .spbridge import (NotSymplectic, QuadraticElement, SpElement, quadratic_monomials,
                       quadratic_pairing, sp_to_quadratic, trace_ratio_constant)
from .symplectic import SymplecticSpace, Vector, is_in_sp
from .weyl import (GradedDecomposition, PolyElement, constant_term, contract,
                   grade, linear_coordinates, sym_product)

_ZERO = as_scalar(0)


class NotARepresentation(Exception):
    def __init__(self, i: int, j: int, detail: str | None = None):
        self.pair = (i, j)
        super().__init__(
            detail or f"matrix commutator disagrees with the bracket on basis pair ({i}, {j})")


class InternalDegreeLeak(Exception):
    """The Casimir image acquired a component in degree 1, 2 or 3.

    This cannot happen for valid input; it signals a bug, not bad data.
    """

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"Casimir image has an impossible degree-{degree} component")


class NotSuperLieType(Exception):
    """Construction was requested but the degree-four obstruction is nonzero."""

    def __init__(self, obstruction: PolyElement):
        self.obstruction = obstruction
        super().__init__("no Lie superalgebra extension exists; "
                         f"degree-four obstruction has {len(obstruction.terms)} terms")


class IdentityViolated(Exception):
    """An identity that should hold exactly failed; signals a bug."""


@dataclass(frozen=True)
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


def validate_rep(rep: SymplecticRep) -> None:
    """Check that every matrix preserves the form and that matrix
    commutators realize the bracket table."""
    for i, m in enumerate(rep.matrices):
        if not is_in_sp(rep.space, m):
            raise NotSymplectic(index=i)
    k = rep.algebra.dim
    for i in range(k):
        for j in range(i + 1, k):
            commutator = rep.matrices[i] * rep.matrices[j] - rep.matrices[j] * rep.matrices[i]
            expected = linear_combination(rep.algebra.bracket(i, j), rep.matrices,
                                          Matrix.zeros(rep.space.dim, rep.space.dim))
            if commutator != expected:
                raise NotARepresentation(i, j)


def quadratic_lift(rep: SymplecticRep, i: int) -> QuadraticElement:
    """The quadratic polynomial acting on v as nu(x_i) does."""
    return sp_to_quadratic(SpElement(rep.space, rep.matrices[i]))


def casimir_obstruction(space: SymplecticSpace, lifts: Sequence[PolyElement],
                        duals: Sequence[Sequence[Scalar]]) -> PolyElement:
    """Degree-four part sum_i lift_i . lift^i of the Casimir image, where
    lift^i = sum_j duals[i][j] lift_j.  The top-degree part of the
    noncommutative product of two quadratics is their commutative product."""
    zero = PolyElement.zero(space)
    return sum((sym_product(lift, linear_combination(dual, lifts, zero))
                for lift, dual in zip(lifts, duals)), zero)


@dataclass(frozen=True)
class Analysis:
    """What ``decide`` and the constructions read, computed once per problem
    by ``analyze``.  ``scalar`` is the constant term of the Casimir image;
    ``trace_constant`` is None when the space has dimension below two."""

    rep: SymplecticRep
    duals: tuple[tuple[Scalar, ...], ...]
    lifts: tuple[PolyElement, ...]
    obstruction: PolyElement
    scalar: Scalar
    trace_constant: Scalar | None


Problem = SymplecticRep | Analysis


def analyze(problem: Problem) -> Analysis:
    """Lift the representation and compute the Casimir image in closed form;
    an ``Analysis`` is returned unchanged.  The representation is taken as
    validated: on data that is not, a surviving degree-two part of the image
    raises ``InternalDegreeLeak(2)``."""
    if isinstance(problem, Analysis):
        return problem
    rep, space = problem, problem.space
    lifts = tuple(quadratic_lift(rep, i).poly for i in range(rep.algebra.dim))
    duals = tuple(dual for _, dual in casimir_pairs(rep.algebra).pairs)
    # the degree-two part 1/2 sum_i [lift_i, lift^i] lifts sum_i [nu_i, nu^i]
    if not sum((nu * d - d * nu for nu, d in zip(rep.matrices, _dual_matrices(rep, duals))),
               Matrix.zeros(space.dim, space.dim)).is_zero():
        raise InternalDegreeLeak(2)
    zero = PolyElement.zero(space)
    scalar = sum((quadratic_pairing(lift, linear_combination(dual, lifts, zero))
                  for lift, dual in zip(lifts, duals)), _ZERO)
    return Analysis(rep, duals, lifts, casimir_obstruction(space, lifts, duals), scalar,
                    trace_ratio_constant(space) if space.dim >= 2 else None)


def _dual_matrices(rep: SymplecticRep, duals: Sequence[Sequence[Scalar]]) -> list[Matrix]:
    zero = Matrix.zeros(rep.space.dim, rep.space.dim)
    return [linear_combination(dual, rep.matrices, zero) for dual in duals]


def quadratic_lift_adjoint(problem: Problem, w: QuadraticElement) -> tuple[Scalar, ...]:
    """The element t = sum_i (lift(x_i), w) x^i of g0, so that
    B(x_i, t) = (lift(x_i), w) for all i.

    This is the transpose of the quadratic lift against the two invariant
    forms; it intertwines the actions on quadratics and on g0.
    """
    a = analyze(problem)
    coeffs = [quadratic_pairing(lift, w.poly) for lift in a.lifts]
    return tuple(sum((c * d[l] for c, d in zip(coeffs, a.duals)), _ZERO)
                 for l in range(a.rep.algebra.dim))


def casimir_image(problem: Problem) -> GradedDecomposition:
    """Image of the Casimir element of g0 under the quadratic lift, using
    dual bases for the form.  The result always lies in degree four plus a
    constant; a degree-two component raises ``InternalDegreeLeak``."""
    a = analyze(problem)
    return grade(a.obstruction + PolyElement.constant(a.rep.space, a.scalar))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class TestReport:
    """Outcome of the decision procedure.

    ``casimir_scalar`` is present exactly when ``verdict`` is true;
    ``obstruction`` is the degree-four component of the Casimir image
    (zero in the positive case)."""

    verdict: bool
    casimir_scalar: Scalar | None
    obstruction: PolyElement
    diagnostics: tuple[CheckResult, ...]


def decide(problem: Problem) -> TestReport:
    """Run the decision procedure; see the module docstring."""
    a = analyze(problem)
    image = casimir_image(a)
    obstruction = image.component(4)
    verdict = obstruction.is_zero()
    scalar = constant_term(image.component(0)) if verdict else None
    diagnostics = [CheckResult("degree_confinement", True)]
    c = a.trace_constant
    if c is not None:
        diagnostics.append(CheckResult("trace_ratio_fitted", True, str(c)))
        diagnostics.append(CheckResult("trace_ratio_magnitude_eighth",
                                       abs(c) == as_scalar("1/8"), "1/8"))
        if verdict:
            rhs = c * _dual_trace_sum(a)
            diagnostics.append(CheckResult("trace_identity", scalar == rhs, str(rhs)))
    return TestReport(verdict, scalar, obstruction, tuple(diagnostics))


def _dual_trace_sum(a: Analysis) -> Scalar:
    return sum(((nu * nu_dual).trace()
                for nu, nu_dual in zip(a.rep.matrices, _dual_matrices(a.rep, a.duals))), _ZERO)


def trace_identity_check(problem: Problem) -> tuple[Scalar, Scalar, Scalar]:
    """For a positive instance, the Casimir scalar must equal the fitted
    trace-ratio constant times the trace of the Casimir in the matrix
    representation.  Returns (scalar, product, constant); raises
    ``IdentityViolated`` on mismatch."""
    a = analyze(problem)
    if not a.obstruction.is_zero():
        raise ValueError("trace identity only applies to positive instances")
    c = a.trace_constant
    rhs = c * _dual_trace_sum(a)
    if a.scalar != rhs:
        raise IdentityViolated(f"Casimir scalar {a.scalar} != {c} * trace sum ({rhs})")
    return a.scalar, rhs, c


# -- the superalgebra structure --------------------------------------------


@dataclass(frozen=True)
class SuperAlgebraData:
    """Bracket tables and Gram matrices of a Lie superalgebra on g0 + v.

    ``even_odd[i]`` is the matrix action of even basis element i on the odd
    space; ``odd_odd`` maps unordered index pairs (a <= b) to coordinates in
    g0 of the symmetric odd bracket.
    """

    even: QuadraticLieAlgebra
    odd_dim: int
    even_odd: tuple[Matrix, ...]
    odd_odd: dict[tuple[int, int], tuple[Scalar, ...]]
    form_even: Matrix
    form_odd: Matrix

    def odd_bracket(self, a: int, b: int) -> tuple[Scalar, ...]:
        key = (a, b) if a <= b else (b, a)
        return self.odd_odd.get(key, tuple([_ZERO] * self.even.dim))


def construct_superalgebra_unchecked(problem: Problem) -> SuperAlgebraData:
    """Assemble the candidate structure with [y_a, y_b] = 2 lift^t(y_a y_b)
    without testing the obstruction.  Diagnostic tool: on a negative
    instance the result fails exactly the odd-odd-odd Jacobi sector."""
    a = analyze(problem)
    rep, n = a.rep, a.rep.space.dim
    # quadratic_monomials lists the y_i y_j (i <= j) in this order
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    odd_odd = {pair: tuple(2 * x for x in quadratic_lift_adjoint(a, QuadraticElement(mono)))
               for pair, mono in zip(pairs, quadratic_monomials(rep.space))}
    return SuperAlgebraData(
        even=rep.algebra,
        odd_dim=rep.space.dim,
        even_odd=tuple(rep.matrices),
        odd_odd=odd_odd,
        form_even=rep.algebra.form,
        form_odd=rep.space.omega,
    )


def construct_superalgebra(problem: Problem) -> SuperAlgebraData:
    """Construct the unique extension; raises ``NotSuperLieType`` with the
    degree-four obstruction when none exists."""
    a = analyze(problem)
    report = decide(a)
    if not report.verdict:
        raise NotSuperLieType(report.obstruction)
    return construct_superalgebra_unchecked(a)


# Homogeneous elements are tagged (parity, coordinates): parity 0 lives in
# g0, parity 1 in the odd space.
Homogeneous = tuple[int, tuple[Scalar, ...]]


def _super_bracket(s: SuperAlgebraData, x: Homogeneous, y: Homogeneous) -> Homogeneous:
    px, vx = x
    py, vy = y
    if px == 0 and py == 0:
        return (0, s.even.bracket_vectors(vx, vy))
    if px == 0 and py == 1:
        out = [_ZERO] * s.odd_dim
        for i, c in enumerate(vx):
            if c != 0:
                image = s.even_odd[i].apply(vy)
                out = [o + c * t for o, t in zip(out, image)]
        return (1, tuple(out))
    if px == 1 and py == 0:
        parity, vec = _super_bracket(s, y, x)
        return (parity, tuple(-t for t in vec))
    out_even = [_ZERO] * s.even.dim
    for a, ca in enumerate(vx):
        if ca == 0:
            continue
        for b, cb in enumerate(vy):
            if cb == 0:
                continue
            for l, c in enumerate(s.odd_bracket(a, b)):
                if c != 0:
                    out_even[l] += ca * cb * c
    return (0, tuple(out_even))


def _super_form(s: SuperAlgebraData, x: Homogeneous, y: Homogeneous) -> Scalar:
    if x[0] != y[0]:
        return _ZERO
    return (s.form_even if x[0] == 0 else s.form_odd).bilinear(x[1], y[1])


def _basis_elements(s: SuperAlgebraData) -> list[Homogeneous]:
    return ([_unit(0, i, s) for i in range(s.even.dim)]
            + [_unit(1, a, s) for a in range(s.odd_dim)])


def _add_h(x: Homogeneous, y: Homogeneous) -> Homogeneous:
    assert x[0] == y[0]
    return (x[0], tuple(a + b for a, b in zip(x[1], y[1])))


def _neg_h(x: Homogeneous) -> Homogeneous:
    return (x[0], tuple(-a for a in x[1]))


def verify_superalgebra(s: SuperAlgebraData) -> list[CheckResult]:
    """Check every axiom on basis elements: graded antisymmetry, the super
    Jacobi identity in all eight parity sectors, invariance and
    supersymmetry of the form, and nonsingularity of both Gram blocks.
    Each check reports the first violating tuple in iteration order."""
    basis = _basis_elements(s)
    checks: list[CheckResult] = []

    witness = None
    for x in basis:
        for y in basis:
            # [x,y] = -(-1)^{|x||y|} [y,x]
            sign = -1 if (x[0] and y[0]) else 1
            lhs = _super_bracket(s, x, y)
            rhs = _super_bracket(s, y, x)
            expected = (rhs[0], tuple(-sign * t for t in rhs[1]))
            if lhs != expected and witness is None:
                witness = (f"parities ({x[0]}, {y[0]}), "
                           f"indices ({_unit_index(x)}, {_unit_index(y)})")
    checks.append(CheckResult("graded_antisymmetry", witness is None, witness))

    for parities in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
        name = "jacobi_" + "".join("eo"[p] for p in parities)
        witness = None
        dims = [s.even.dim if p == 0 else s.odd_dim for p in parities]
        for i in range(dims[0]):
            for j in range(dims[1]):
                for l in range(dims[2]):
                    x = _unit(parities[0], i, s)
                    y = _unit(parities[1], j, s)
                    z = _unit(parities[2], l, s)
                    lhs = _super_bracket(s, x, _super_bracket(s, y, z))
                    r1 = _super_bracket(s, _super_bracket(s, x, y), z)
                    r2 = _super_bracket(s, y, _super_bracket(s, x, z))
                    if parities[0] and parities[1]:
                        r2 = _neg_h(r2)
                    if lhs != _add_h(r1, r2) and witness is None:
                        witness = f"indices ({i}, {j}, {l})"
            if witness is not None:
                break
        checks.append(CheckResult(name, witness is None, witness))

    witness = form_invariance_witness(s)
    checks.append(CheckResult("form_invariance", witness is None, witness))

    sym_ok = s.form_even.transpose() == s.form_even
    alt_ok = s.form_odd.transpose() == -s.form_odd
    checks.append(CheckResult("form_supersymmetry", sym_ok and alt_ok,
                              None if sym_ok and alt_ok else "Gram symmetry pattern broken"))

    nonsingular = True
    try:
        invert(s.form_even)
        invert(s.form_odd)
    except SingularMatrix:
        nonsingular = False
    checks.append(CheckResult("form_nonsingular", nonsingular,
                              None if nonsingular else "a Gram block is singular"))
    return checks


def _unit(parity: int, index: int, s: SuperAlgebraData) -> Homogeneous:
    dim = s.even.dim if parity == 0 else s.odd_dim
    return (parity, tuple(as_scalar(1 if t == index else 0) for t in range(dim)))


def form_invariance_witness(s: SuperAlgebraData,
                            form_even: Matrix | None = None,
                            form_odd: Matrix | None = None) -> str | None:
    """First basis triple violating ([x,y], z) = -(-1)^{|x||y|} (y, [x,z]),
    or None.  Optional Gram overrides let callers test a different form
    against the same bracket tables."""
    probe = replace(s, form_even=form_even or s.form_even, form_odd=form_odd or s.form_odd)
    basis = _basis_elements(probe)
    for x in basis:
        for y in basis:
            sign = as_scalar(-1 if (x[0] and y[0]) else 1)
            for z in basis:
                lhs = _super_form(probe, _super_bracket(probe, x, y), z)
                rhs = -sign * _super_form(probe, y, _super_bracket(probe, x, z))
                if lhs != rhs:
                    return (f"parities ({x[0]}, {y[0]}, {z[0]}), indices "
                            f"({_unit_index(x)}, {_unit_index(y)}, {_unit_index(z)})")
    return None


def _unit_index(x: Homogeneous) -> int:
    return next(i for i, c in enumerate(x[1]) if c != 0)


def jacobiator(s: SuperAlgebraData, a: int, b: int, c: int) -> Vector:
    """Cyclic sum [y_a,[y_b,y_c]] + [y_b,[y_c,y_a]] + [y_c,[y_a,y_b]] for odd
    basis elements; the inner bracket lands in g0 and the outer one acts
    back on the odd space, so the result is an odd coordinate vector.
    Zero for every triple exactly when the odd-odd-odd Jacobi sector holds."""
    ya, yb, yc = (_unit(1, i, s) for i in (a, b, c))
    total = [_ZERO] * s.odd_dim
    for first, second, third in ((ya, yb, yc), (yb, yc, ya), (yc, ya, yb)):
        inner = _super_bracket(s, second, third)
        outer = _super_bracket(s, first, inner)
        total = [t + o for t, o in zip(total, outer[1])]
    return tuple(total)


def jacobiator_from_obstruction(rep: SymplecticRep, obstruction: PolyElement,
                                a: int, b: int, c: int) -> Vector:
    """The same cyclic sum computed from the other side: twice the triple
    contraction of the degree-four obstruction by the three basis vectors."""
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
