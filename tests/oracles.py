"""Independent cross-checks used by the test suite.

Everything here recomputes quantities the library produces, but along a
different route: the symmetrized product via explicit averaging over
permutations of creation/annihilation chains, the pairing of products of
linear elements via the permanent formula, the quadratic lift of a matrix
by solving against the Gram matrix of the Weyl-product pairing, and
representation-theoretic trace values from closed-form weight sums.  Agreement between these and
the engine is the backbone of the suite.
"""

from fractions import Fraction
from itertools import permutations

from superweyl.exactla import Matrix, solve_linear
from superweyl.spbridge import QuadraticElement, SpElement, quadratic_monomials
from superweyl.symplectic import SymplecticSpace, pair
from superweyl.weyl import PolyElement, bilinear_form, contract, linear_coordinates


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


def oracle_sp_to_quadratic(alpha: SpElement) -> QuadraticElement:
    """The quadratic w with (x_i x_j, w) = -1/2 (x_i, alpha x_j) for all
    i <= j, found by solving against the Gram matrix of ``bilinear_form``
    (the Weyl-product pairing) on the monomial basis of quadratics."""
    space = alpha.space
    monomials = quadratic_monomials(space)
    if not monomials:
        return QuadraticElement(PolyElement.zero(space))
    gram = Matrix([[bilinear_form(p, q) for q in monomials] for p in monomials],
                  cols=len(monomials))
    rhs = [Fraction(-1, 2) * pair(space, space.basis_vector(i), alpha.matrix.col(j))
           for i in range(space.dim) for j in range(i, space.dim)]
    coeffs = solve_linear(gram, Matrix.column(rhs))
    total = PolyElement.zero(space)
    for k, mono in enumerate(monomials):
        total = total + coeffs[k, 0] * mono
    return QuadraticElement(total)
