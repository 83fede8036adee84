"""Bridge between quadratic polynomials and the matrix algebra of the form.

A homogeneous quadratic polynomial w acts on linear elements through the
noncommutative commutator; concretely ``ad w (v) = -2 contract(v, w)``.
This action is an infinitesimal symmetry of the form, and the resulting map
A from quadratics to matrices is an isomorphism of Lie algebras (with the
commutator coming from the noncommutative product on the quadratic side).

The Weyl-product model in ``weyl`` defines everything here; the working
code uses closed forms that the test suite checks against it.  Writing
w = sum_ij S_ij x_i x_j with S symmetric, A(w) = 4 S omega, so the inverse
is ``sp_to_quadratic(alpha) = 1/4 sum_ij (alpha omega^-1)_ij x_i x_j``; and
the pairing of quadratics, the constant term of their noncommutative
product, is the permanent (x_i x_j, x_a x_b) = w_ia w_jb + w_ib w_ja of the
form matrix w, which ``engine.casimir_image`` sums inline.

Each map checks its own input: ``sp_to_quadratic`` refuses alpha when
alpha omega^-1 is not symmetric, for an alternating omega exactly when alpha
is outside sp(omega), and ``quadratic_to_sp`` refuses a non-quadratic.

There is also a scalar worth recording: on quadratics the pairing is
proportional to the matrix trace form, and for the conventions of this
package the constant is -1/8 in every dimension: since omega is
alternating, tr(A(p) A(q)) = -8 (p, q) holds identically on the monomial
basis.  ``trace_ratio_constant`` fits it on the anchor pair (x_0^2, x_q^2),
q the first row where column 0 of omega is nonzero, the first monomial pair
with nonzero trace, as tr(A(x_0^2) A(x_a x_b)) = -16 omega_0a omega_0b.  The
trace there is that closed form, which the tests check against
``quadratic_to_sp`` on every monomial pair; the pairing is one Weyl-product
pairing.  The sign is forced by the permanent expansion of the pairing,
under which the square of a mixed quadratic monomial such as e.f is
negative.  ``quadratic_factors`` reads the factors (i, j) off a quadratic
monomial, for ``engine``.  No verb calls ``quadratic_to_sp`` or
``ad_vector``; they serve the tests.
"""

from __future__ import annotations

from fractions import Fraction

from .exactla import (DimensionMismatch, Matrix, Scalar, SuperweylError, add_product, as_scalar,
                      integer_columns)
from .symplectic import SymplecticSpace, Vector, as_vector
from .weyl import PolyElement, bilinear_form, contract, linear_coordinates


class NotSymplectic(SuperweylError):
    """A matrix fails the infinitesimal symmetry condition."""

    def __init__(self, detail: str = "matrix does not preserve the form", index: int | None = None):
        self.index = index
        if index is not None:
            detail = f"{detail} (matrix {index})"
        super().__init__(detail)


class InconsistentRatio(SuperweylError):
    """The quadratic pairing failed to be a single multiple of the trace form."""


def quadratic_monomials(space: SymplecticSpace) -> list[PolyElement]:
    """Monomial basis x_i x_j (i <= j) of the quadratics, in lexicographic order."""
    n = space.dim
    return [PolyElement.monomial(space, [(t == i) + (t == j) for t in range(n)], 1)
            for i in range(n) for j in range(i, n)]


def quadratic_factors(exp) -> tuple[int, int]:
    """The factors (i, j), i <= j, of the quadratic monomial with exponents ``exp``."""
    i, j = (t for t, e in enumerate(exp) for _ in range(e))
    return i, j


def ad_vector(w: PolyElement, u) -> Vector:
    """Commutator action of a quadratic polynomial on a vector: -2 contract(u, w)."""
    return linear_coordinates(as_scalar(-2) * contract(as_vector(w.space, u), w))


def quadratic_to_sp(w: PolyElement) -> Matrix:
    """Matrix of the commutator action of ``w`` on linear elements, which
    preserves the form; raises ``ValueError`` unless ``w`` is homogeneous
    of degree two (or zero)."""
    if not w.is_homogeneous(2):
        raise ValueError("quadratic_to_sp needs a homogeneous quadratic")
    space = w.space
    cols = [ad_vector(w, space.basis_vector(j)) for j in range(space.dim)]
    return Matrix.from_entries({(i, j): x for j, col in enumerate(cols)
                                for i, x in enumerate(col) if x}, space.dim)


def sp_to_quadratic(space: SymplecticSpace, alpha: Matrix) -> PolyElement:
    """Inverse of ``quadratic_to_sp``: 1/4 sum_ij (alpha omega^-1)_ij x_i x_j.
    Raises ``NotSymplectic`` unless alpha omega^-1 is symmetric, which for an
    alternating omega is alpha preserving the form, and ``DimensionMismatch``
    on a wrong shape.  The product and the symmetry test run on integer
    columns, with ``space.omega_inverse_columns``; each coefficient is one
    division."""
    n = space.dim
    if alpha.rows != n or alpha.cols != n:
        raise DimensionMismatch(f"expected a {n}x{n} matrix, got {alpha.rows}x{alpha.cols}")
    # column j of S = (d_alpha alpha)(d omega^-1), an integer multiple of alpha omega^-1
    d_alpha, (a,) = integer_columns([alpha])
    d_inverse, (inverse,) = space.omega_inverse_columns
    s = [add_product({}, a, col) for col in inverse]
    if any(s[i].get(j, 0) != x for j, col in enumerate(s) for i, x in col.items()):
        raise NotSymplectic()
    # x_i x_j with i < j collects S_ij / 4 and S_ji / 4
    quarter, half = 4 * d_alpha * d_inverse, 2 * d_alpha * d_inverse
    terms = {tuple((t == i) + (t == j) for t in range(n)): Fraction(x, half if i < j else quarter)
             for j, col in enumerate(s) for i, x in col.items() if x and i <= j}
    return PolyElement(space, terms)


def trace_ratio_constant(space: SymplecticSpace) -> Scalar:
    """The constant c with (w, z) = c tr(A(w) A(z)) for all quadratics w, z,
    where A is ``quadratic_to_sp``, on a ``space`` taken as validated
    (``validate_space``).  Write w = d omega, integral for the common
    denominator d.  The closed forms on monomials are
    (x_i x_j, x_a x_b) = w_ia w_jb + w_ib w_ja, the permanent of the pairing,
    and tr(A(x_i x_j) A(x_a x_b)) = 4 (w_ja w_bi + w_jb w_ai + w_ia w_bj + w_ib w_aj);
    for an alternating w the trace is -8 times the pairing, so c = -1/8.
    Against x_0^2 the trace is -16 w_0a w_0b, so in the order of
    ``quadratic_monomials`` the first pair with nonzero trace is the anchor
    (x_0^2, x_q^2), q the first row of column 0 of w with w_q0 nonzero, where
    the trace is -16 w_q0^2 and the pairing 2 w_q0^2.  The trace is that
    closed form, over d^2; the pairing is ``weyl.bilinear_form``, compared
    with its closed form in integers, and fits c.  Raises
    ``InconsistentRatio`` if the pairing disagrees (a closed form has left
    the Weyl-product model) or if column 0 is empty, as only a singular w
    allows."""
    if space.dim < 2:
        raise ValueError("the trace ratio needs a space of dimension at least 2")
    n = space.dim
    scale, (columns, _) = space.omega_columns
    if not columns[0]:
        raise InconsistentRatio("trace pairing vanishes identically")
    q, w_q0 = min(columns[0].items())
    left, right = (PolyElement.monomial(space, [2 * (t == u) for t in range(n)], 1) for u in (0, q))
    pairing = bilinear_form(left, right)
    if pairing * scale ** 2 != 2 * w_q0 ** 2:
        raise InconsistentRatio("the closed-form pairing disagrees with bilinear_form "
                                f"on monomial pair {((0, 0), (q, q))}")
    return pairing / Fraction(-16 * w_q0 ** 2, scale ** 2)
