"""Polynomials on a symplectic space carrying two products.

The same sparse coefficient data serves two algebra structures on the
polynomial ring in the coordinates of a symplectic space:

* the ordinary commutative product, and
* a noncommutative product with ``u v - v u = 2 (u, v)`` for linear u, v,
  where ``( , )`` is the form of the underlying space.

The bridge between them is the contraction ``contract(u, a)``: the unique
derivation of the commutative product sending a linear element v to the
scalar (u, v).  Multiplying by a linear element u in the noncommutative
sense is "multiply, then add the contraction by u", and the general
noncommutative product is obtained by peeling linear factors off the left
operand one at a time.

The pairing ``bilinear_form(a, b)`` is the constant term of the
noncommutative product.  On products of linear elements it expands as a
permanent: (u_1...u_n, v_1...v_n) = sum over permutations s of
prod_i (u_i, v_{s(i)}).  Note that with this convention the square of a
mixed quadratic monomial can be negative: in the standard two-dimensional
space, (e.f, e.f) = -1.

The noncommutative product is the reference semantics: ``engine`` uses
closed forms, which the tests check against ``weyl_product`` and ``grade``
(the nonzero homogeneous parts, by degree).  On the working path it runs
only inside ``bilinear_form``, the anchor of ``trace_ratio_constant``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .exactla import Scalar, SuperweylError, as_scalar
from .symplectic import SymplecticSpace, Vector, as_vector

_ZERO = as_scalar(0)

Exponent = tuple[int, ...]


class SpaceMismatch(SuperweylError):
    """Operands live on different symplectic spaces."""


class PolyElement:
    """Sparse polynomial: a map from exponent vectors to nonzero rationals.

    Instances are treated as immutable; all operations return new elements.
    Zero coefficients are dropped on construction, so the zero polynomial
    has an empty term map and equality is exact coefficient equality.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: SymplecticSpace, terms: Mapping[Exponent, Scalar]):
        clean: dict[Exponent, Scalar] = {}
        for exp, coeff in terms.items():
            c = as_scalar(coeff)
            if c == 0:
                continue
            e = tuple(int(k) for k in exp)
            if len(e) != space.dim:
                raise SpaceMismatch(
                    f"exponent vector of length {len(e)} on a space of dimension {space.dim}")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            clean[e] = c
        self.space = space
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: SymplecticSpace) -> "PolyElement":
        return cls(space, {})

    @classmethod
    def constant(cls, space: SymplecticSpace, value) -> "PolyElement":
        return cls(space, {tuple([0] * space.dim): as_scalar(value)})

    @classmethod
    def variable(cls, space: SymplecticSpace, i: int) -> "PolyElement":
        exp = [0] * space.dim
        exp[i] = 1
        return cls(space, {tuple(exp): as_scalar(1)})

    @classmethod
    def monomial(cls, space: SymplecticSpace, exp: Sequence[int], coeff) -> "PolyElement":
        return cls(space, {tuple(exp): as_scalar(coeff)})

    @classmethod
    def from_vector(cls, space: SymplecticSpace, coords: Sequence) -> "PolyElement":
        v = as_vector(space, coords)
        terms = {}
        for i, c in enumerate(v):
            if c != 0:
                exp = [0] * space.dim
                exp[i] = 1
                terms[tuple(exp)] = c
        return cls(space, terms)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponent, Scalar]]:
        return sorted(self.terms.items())

    def coefficient(self, exp: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exp), _ZERO)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PolyElement") -> "PolyElement":
        _same_space(self, other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, _ZERO) + coeff
        return PolyElement(self.space, out)

    def __sub__(self, other: "PolyElement") -> "PolyElement":
        _same_space(self, other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, _ZERO) - coeff
        return PolyElement(self.space, out)

    def __neg__(self) -> "PolyElement":
        return PolyElement(self.space, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PolyElement):
            return sym_product(self, other)
        c = as_scalar(other)
        return PolyElement(self.space, {e: c * v for e, v in self.terms.items()})

    def __rmul__(self, other):
        c = as_scalar(other)
        return PolyElement(self.space, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyElement) and self.space == other.space
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = [f"x{i}" if k == 1 else f"x{i}^{k}"
                       for i, k in enumerate(exp) if k]
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def _same_space(a: PolyElement, b: PolyElement) -> None:
    if a.space != b.space:
        raise SpaceMismatch("operands live on different symplectic spaces")


# -- products and contraction ---------------------------------------------


def sym_product(a: PolyElement, b: PolyElement) -> PolyElement:
    """Commutative polynomial product."""
    _same_space(a, b)
    out: dict[Exponent, Scalar] = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, _ZERO) + c1 * c2
    return PolyElement(a.space, out)


def contract(u: Sequence, a: PolyElement) -> PolyElement:
    """Contraction by the vector u: the degree -1 derivation with
    ``contract(u, v) = (u, v)`` on linear v and zero on constants."""
    space = a.space
    uu = as_vector(space, u)
    # s[i] = (u, x_i) = sum_j u_j omega_ji, precomputed once per call
    s = [sum((uj * row[i] for uj, row in zip(uu, space.omega.data) if uj != 0), _ZERO)
         for i in range(space.dim)]
    out: dict[Exponent, Scalar] = {}
    for exp, coeff in a.terms.items():
        for i, k in enumerate(exp):
            if k == 0 or s[i] == 0:
                continue
            e = exp[:i] + (k - 1,) + exp[i + 1:]
            out[e] = out.get(e, _ZERO) + coeff * k * s[i]
    return PolyElement(space, out)


def weyl_product(a: PolyElement, b: PolyElement) -> PolyElement:
    """Noncommutative product realized on polynomial representatives.

    Recursion on the left factor: for linear u,
    ``u o b = u.b + contract(u, b)``, and for a monomial u.y,
    ``(u.y) o b = u o (y o b) - contract(u, y) o b``.
    """
    _same_space(a, b)
    total = PolyElement.zero(a.space)
    for exp, coeff in a.sorted_terms():
        total = total + coeff * _weyl_monomial_times(a.space, exp, b)
    return total


def _weyl_monomial_times(space: SymplecticSpace, exp: Exponent, b: PolyElement) -> PolyElement:
    i = next((k for k, e in enumerate(exp) if e), None)
    if i is None:
        return b
    rest = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
    u = space.basis_vector(i)
    yb = _weyl_monomial_times(space, rest, b)
    first = sym_product(PolyElement.variable(space, i), yb) + contract(u, yb)
    correction = contract(u, PolyElement.monomial(space, rest, 1))
    if correction.is_zero():
        return first
    return first - weyl_product(correction, b)


def weyl_commutator(a: PolyElement, b: PolyElement) -> PolyElement:
    return weyl_product(a, b) - weyl_product(b, a)


def constant_term(a: PolyElement) -> Scalar:
    return a.terms.get(tuple([0] * a.space.dim), _ZERO)


def bilinear_form(a: PolyElement, b: PolyElement) -> Scalar:
    """Extension of the symplectic form to all polynomials: the constant
    term of the noncommutative product.  Distinct homogeneous degrees are
    orthogonal; on degree n the form is symmetric for even n and
    alternating for odd n."""
    return constant_term(weyl_product(a, b))


# -- grading --------------------------------------------------------------


def grade(a: PolyElement) -> dict[int, PolyElement]:
    """The nonzero homogeneous parts of ``a``, keyed by degree."""
    buckets: dict[int, dict[Exponent, Scalar]] = {}
    for exp, coeff in a.terms.items():
        buckets.setdefault(sum(exp), {})[exp] = coeff
    return {d: PolyElement(a.space, t) for d, t in buckets.items()}


def linear_coordinates(a: PolyElement) -> Vector:
    """Coordinates of a purely linear polynomial (or zero)."""
    coords = [_ZERO] * a.space.dim
    for exp, coeff in a.terms.items():
        if sum(exp) != 1:
            raise ValueError(f"polynomial has a term of degree {sum(exp)}, expected linear")
        coords[exp.index(1)] = coeff
    return tuple(coords)
