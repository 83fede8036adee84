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
product, is the permanent ``quadratic_pairing``.

Each map checks its own input: ``sp_to_quadratic`` refuses alpha when
alpha omega^-1 is not symmetric, for an alternating omega exactly when alpha
is outside sp(omega), and ``quadratic_to_sp`` refuses a non-quadratic.

There is also a scalar worth recording: on quadratics the pairing is
proportional to the matrix trace form, and ``trace_ratio_constant`` fits
the proportionality constant with one Weyl-product pairing, on one anchor
pair of monomials where it also checks the closed forms of both.  For the
conventions of this package the constant is -1/8 in every dimension: since
omega is alternating, tr(A(p) A(q)) = -8 (p, q) holds identically on the
monomial basis, so the anchor is the only pair compared.  The sign is forced
by the permanent expansion of the pairing, under which the square of a mixed
quadratic monomial such as e.f is negative.  ``quadratic_factors`` reads the
factors (i, j) off a quadratic monomial, for this module and ``engine``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .exactla import (DimensionMismatch, Matrix, Scalar, SuperweylError, add_product, as_scalar,
                      integer_columns)
from .symplectic import SymplecticSpace, Vector, as_vector
from .weyl import PolyElement, SpaceMismatch, bilinear_form, contract, linear_coordinates

_ZERO = as_scalar(0)


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
    return Matrix.from_columns(cols, rows=space.dim)


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


def quadratic_pairing(a: PolyElement, b: PolyElement) -> Scalar:
    """The pairing of two quadratics, equal to ``weyl.bilinear_form`` but
    read off the form matrix w: (x_i x_j, x_a x_b) = w_ia w_jb + w_ib w_ja."""
    if a.space != b.space:
        raise SpaceMismatch("quadratics live on different spaces")
    if not (a.is_homogeneous(2) and b.is_homogeneous(2)):
        raise ValueError("quadratic_pairing needs homogeneous quadratics")
    w = a.space.omega.data
    right = [(quadratic_factors(e), c) for e, c in b.terms.items()]
    total = _ZERO
    for e, c1 in a.terms.items():
        i, j = quadratic_factors(e)
        for (p, q), c2 in right:
            total += c1 * c2 * (w[i][p] * w[j][q] + w[i][q] * w[j][p])
    return total


def trace_ratio_constant(space: SymplecticSpace) -> Scalar:
    """The constant c with (w, z) = c tr(A(w) A(z)) for all quadratics w, z,
    where A is ``quadratic_to_sp``, on a ``space`` taken as validated
    (``validate_space``).  On the monomial basis both forms are read off the
    form matrix w: (x_i x_j, x_a x_b) = w_ia w_jb + w_ib w_ja, as in
    ``quadratic_pairing``, and
    tr(A(x_i x_j) A(x_a x_b)) = 4 (w_ja w_bi + w_jb w_ai + w_ia w_bj + w_ib w_aj).
    For an alternating w the trace is -8 times the pairing on every pair, so
    c = -1/8, and only one anchor is compared, the first monomial pair with
    nonzero trace, in integers on d w for the common denominator d of w: the
    closed-form trace against the matrices of ``quadratic_to_sp``, and the
    closed-form pairing against ``weyl.bilinear_form``, which fits c.  Raises
    ``InconsistentRatio`` if either disagrees: a closed form has left the
    Weyl-product model."""
    if space.dim < 2:
        raise ValueError("the trace ratio needs a space of dimension at least 2")
    n = space.dim
    scale, (columns, _) = space.omega_columns
    w = [[col.get(i, 0) for col in columns] for i in range(n)]
    # the factors (i, j) of the monomials, in the order of quadratic_monomials
    factors = [(i, j) for i in range(n) for j in range(i, n)]

    def trace(p: tuple[int, int], q: tuple[int, int]) -> int:
        (i, j), (a, b) = p, q
        return 4 * (w[j][a] * w[b][i] + w[j][b] * w[a][i] + w[i][a] * w[b][j] + w[i][b] * w[a][j])

    anchor = next((pair for pair in product(factors, repeat=2) if trace(*pair)), None)
    if anchor is None:
        raise InconsistentRatio("trace pairing vanishes identically")
    (i, j), (a, b) = anchor
    left, right = (PolyElement.monomial(space, [(t == u) + (t == v) for t in range(n)], 1)
                   for u, v in anchor)
    m_left, m_right = quadratic_to_sp(left), quadratic_to_sp(right)
    anchor_trace = sum((m_left[r, c] * m_right[c, r] for r in range(n) for c in range(n)), _ZERO)
    if anchor_trace * scale ** 2 != trace(*anchor):
        raise InconsistentRatio("the closed-form trace disagrees with quadratic_to_sp "
                                f"on monomial pair {anchor}")
    pairing = bilinear_form(left, right)
    if pairing * scale ** 2 != w[i][a] * w[j][b] + w[i][b] * w[j][a]:
        raise InconsistentRatio("the closed-form pairing disagrees with bilinear_form "
                                f"on monomial pair {anchor}")
    return pairing / anchor_trace
