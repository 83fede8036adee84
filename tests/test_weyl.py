import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_weyl_product, pair, permanent_pairing
from superweyl.symplectic import standard_space
from superweyl.weyl import (PolyElement, SpaceMismatch, bilinear_form, constant_term,
                            contract, grade, linear_coordinates, weyl_commutator,
                            weyl_product)

S1 = standard_space(1)
S2 = standard_space(2)
E = PolyElement.variable(S1, 0)
F = PolyElement.variable(S1, 1)


def random_poly(rng, space, max_degree, terms=3):
    out = PolyElement.zero(space)
    for _ in range(terms):
        exp = [0] * space.dim
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(space.dim)] += 1
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + PolyElement.monomial(space, exp, coeff)
    return out


def random_linear(rng, space):
    return PolyElement.from_vector(
        space, [Fraction(rng.randint(-3, 3)) for _ in range(space.dim)])


# -- the defining relation and hand-checked products -----------------------


def test_defining_relation_on_basis():
    assert weyl_commutator(E, F) == PolyElement.constant(S1, 2)
    assert weyl_commutator(F, E) == PolyElement.constant(S1, -2)
    assert weyl_commutator(E, E).is_zero()


def test_defining_relation_random_linears():
    rng = random.Random(11)
    for _ in range(20):
        u = random_linear(rng, S2)
        v = random_linear(rng, S2)
        uc = linear_coordinates(u)
        vc = linear_coordinates(v)
        expected = PolyElement.constant(S2, 2 * pair(S2, uc, vc))
        assert weyl_commutator(u, v) == expected


def test_square_products_by_hand():
    e2, f2, ef = E * E, F * F, E * F
    assert weyl_product(e2, f2) == (e2 * f2 + 4 * ef
                                    + PolyElement.constant(S1, 2))
    assert weyl_product(f2, e2) == (e2 * f2 - 4 * ef
                                    + PolyElement.constant(S1, 2))
    assert weyl_product(ef, ef) == (e2 * f2 + PolyElement.constant(S1, -1))
    assert bilinear_form(e2, f2) == 2
    assert bilinear_form(ef, ef) == -1


def test_constants_act_as_scalars():
    c = PolyElement.constant(S1, Fraction(3, 2))
    a = E * E + F
    assert weyl_product(c, a) == Fraction(3, 2) * a
    assert weyl_product(a, c) == Fraction(3, 2) * a


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatch):
        weyl_product(E, PolyElement.variable(S2, 0))


# -- contraction -----------------------------------------------------------


def test_contract_on_linears_is_the_form():
    u = S2.basis_vector(0)
    for i in range(4):
        got = contract(u, PolyElement.variable(S2, i))
        assert got == PolyElement.constant(S2, pair(S2, u, S2.basis_vector(i)))


def test_contract_is_derivation_of_both_products():
    rng = random.Random(5)
    for _ in range(10):
        a = random_poly(rng, S2, 3)
        b = random_poly(rng, S2, 3)
        u = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        assert contract(u, a * b) == contract(u, a) * b + a * contract(u, b)
        assert (contract(u, weyl_product(a, b))
                == weyl_product(contract(u, a), b) + weyl_product(a, contract(u, b)))


def test_contractions_commute():
    rng = random.Random(7)
    for _ in range(10):
        a = random_poly(rng, S2, 4)
        u = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        assert contract(u, contract(v, a)) == contract(v, contract(u, a))


def test_contract_multiply_commutator_is_pairing():
    # [contract(u, .), multiply-by-v] = (u, v) * identity
    rng = random.Random(13)
    for _ in range(10):
        a = random_poly(rng, S1, 3)
        u = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        v = random_linear(rng, S1)
        lhs = contract(u, v * a) - v * contract(u, a)
        assert lhs == pair(S1, u, linear_coordinates(v)) * a


def test_contract_adjoint_to_multiplication():
    # (u.w, z) = (w, contract(u, z))
    rng = random.Random(17)
    for _ in range(10):
        w = random_poly(rng, S2, 3)
        z = random_poly(rng, S2, 4)
        u = S2.basis_vector(rng.randrange(4))
        lhs = bilinear_form(PolyElement.from_vector(S2, u) * w, z)
        assert lhs == bilinear_form(w, contract(u, z))


# -- the pairing -----------------------------------------------------------


def test_power_pairing_factorial():
    rng = random.Random(3)
    for n in range(6):
        u = random_linear(rng, S1)
        v = random_linear(rng, S1)
        un = PolyElement.constant(S1, 1)
        vn = PolyElement.constant(S1, 1)
        for _ in range(n):
            un = un * u
            vn = vn * v
        base = pair(S1, linear_coordinates(u), linear_coordinates(v))
        assert bilinear_form(un, vn) == math.factorial(n) * base ** n


def test_distinct_degrees_are_orthogonal():
    rng = random.Random(23)
    for d1 in range(4):
        for d2 in range(4):
            if d1 == d2:
                continue
            a = PolyElement.monomial(S1, (d1, 0), 1)
            b = PolyElement.monomial(S1, (0, d2), rng.randint(1, 5))
            assert bilinear_form(a, b) == 0


def test_pairing_symmetry_alternates_with_degree():
    rng = random.Random(29)
    for degree in range(5):
        for _ in range(5):
            a = PolyElement.zero(S2)
            b = PolyElement.zero(S2)
            for _ in range(2):
                ea = [0] * 4
                eb = [0] * 4
                for _ in range(degree):
                    ea[rng.randrange(4)] += 1
                    eb[rng.randrange(4)] += 1
                a = a + PolyElement.monomial(S2, ea, rng.randint(-3, 3))
                b = b + PolyElement.monomial(S2, eb, rng.randint(-3, 3))
            sign = -1 if degree % 2 else 1
            assert bilinear_form(a, b) == sign * bilinear_form(b, a)


def test_pairing_matches_permanent_oracle():
    rng = random.Random(31)
    for _ in range(30):
        k = rng.randint(0, 3)
        us = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)) for _ in range(k)]
        vs = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)) for _ in range(k)]
        a = PolyElement.constant(S2, 1)
        b = PolyElement.constant(S2, 1)
        for u in us:
            a = a * PolyElement.from_vector(S2, u)
        for v in vs:
            b = b * PolyElement.from_vector(S2, v)
        assert bilinear_form(a, b) == permanent_pairing(S2, us, vs)


# -- agreement with the symmetrization oracle ------------------------------


def test_product_matches_symmetrization_oracle():
    rng = random.Random(37)
    for _ in range(15):
        a = random_poly(rng, S1, 3)
        b = random_poly(rng, S1, 3)
        assert weyl_product(a, b) == oracle_weyl_product(a, b)
    for _ in range(5):
        a = random_poly(rng, S2, 2)
        b = random_poly(rng, S2, 3)
        assert weyl_product(a, b) == oracle_weyl_product(a, b)


_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def polys(draw, space=S1, max_degree=3):
    n = draw(st.integers(min_value=1, max_value=3))
    p = PolyElement.zero(space)
    for _ in range(n):
        exp = tuple(draw(st.integers(min_value=0, max_value=max_degree))
                    for _ in range(space.dim))
        if sum(exp) > max_degree:
            continue
        p = p + PolyElement.monomial(space, exp, draw(_coeffs))
    return p


@given(polys(), polys(), polys())
@settings(max_examples=30, deadline=None)
def test_product_is_associative(a, b, c):
    assert weyl_product(weyl_product(a, b), c) == weyl_product(a, weyl_product(b, c))


@given(polys(), polys())
@settings(max_examples=30, deadline=None)
def test_product_is_bilinear(a, b):
    two_a = a + a
    assert weyl_product(two_a, b) == weyl_product(a, b) + weyl_product(a, b)
    assert weyl_product(b, two_a) == weyl_product(b, a) + weyl_product(b, a)


# -- grading ---------------------------------------------------------------


def test_grade_reassembles():
    rng = random.Random(41)
    a = random_poly(rng, S2, 5, terms=6)
    g = grade(a)
    assert sum(g.values(), PolyElement.zero(S2)) == a
    for d, part in g.items():
        assert part.is_homogeneous(d)
        assert not part.is_zero()
    assert 99 not in g


def test_linear_coordinates_roundtrip():
    v = (Fraction(1), Fraction(-2), Fraction(0), Fraction(5))
    assert linear_coordinates(PolyElement.from_vector(S2, v)) == v
    with pytest.raises(ValueError):
        linear_coordinates(E * E)


def test_constant_term():
    a = E * F + PolyElement.constant(S1, Fraction(-7, 3))
    assert constant_term(a) == Fraction(-7, 3)
    assert constant_term(E) == 0
