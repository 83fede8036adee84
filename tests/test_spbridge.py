import random
import re
from fractions import Fraction

import pytest

from oracles import derivation_action, mat_diagonal, mat_mul, mat_scale, mat_sub
from superweyl import spbridge
from superweyl.exactla import DimensionMismatch, Matrix
from superweyl.spbridge import (InconsistentRatio, NotSymplectic, ad_vector,
                                quadratic_monomials, quadratic_to_sp,
                                sp_to_quadratic, trace_ratio_constant)
from superweyl.symplectic import SymplecticSpace, standard_space, validate_space
from superweyl.weyl import PolyElement, bilinear_form, linear_coordinates, weyl_commutator

S1 = standard_space(1)
E = PolyElement.variable(S1, 0)
F = PolyElement.variable(S1, 1)


def test_quadratic_to_sp_refuses_non_quadratics():
    quadratic_to_sp(E * F)
    quadratic_to_sp(PolyElement.zero(S1))
    with pytest.raises(ValueError):
        quadratic_to_sp(E)
    with pytest.raises(ValueError):
        quadratic_to_sp(E * E + PolyElement.constant(S1, 1))


def test_sp_to_quadratic_refuses_matrices_outside_sp():
    sp_to_quadratic(S1, mat_diagonal([1, -1]))
    with pytest.raises(NotSymplectic):
        sp_to_quadratic(S1, Matrix.identity(2))
    with pytest.raises(DimensionMismatch):
        sp_to_quadratic(S1, Matrix.from_entries({}, 2, 3))


def test_ad_vector_by_hand():
    # e.f scales e by -2 and f by 2; e^2 sends f to 4e and kills e
    ef = E * F
    assert ad_vector(ef, (1, 0)) == (-2, 0)
    assert ad_vector(ef, (0, 1)) == (0, 2)
    e2 = E * E
    assert ad_vector(e2, (1, 0)) == (0, 0)
    assert ad_vector(e2, (0, 1)) == (4, 0)


def test_ad_matches_weyl_commutator():
    rng = random.Random(3)
    for _ in range(10):
        w = sum((PolyElement.monomial(S1, (2 - k, k), rng.randint(-3, 3))
                 for k in range(3)), PolyElement.zero(S1))
        v = PolyElement.from_vector(
            S1, (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))))
        direct = weyl_commutator(w, v)
        assert linear_coordinates(direct) == ad_vector(w, linear_coordinates(v))


def test_quadratic_to_sp_values():
    assert quadratic_to_sp(E * F) == mat_diagonal([-2, 2])
    assert quadratic_to_sp(E * E) == Matrix([[0, 4], [0, 0]])
    assert quadratic_to_sp(F * F) == Matrix([[0, 0], [-4, 0]])


def test_map_is_lie_homomorphism():
    # commutator of quadratics (noncommutative product) maps to the matrix commutator
    rng = random.Random(9)
    s = standard_space(2)
    monos = quadratic_monomials(s)
    for _ in range(10):
        w = sum((rng.randint(-2, 2) * m for m in monos), PolyElement.zero(s))
        z = sum((rng.randint(-2, 2) * m for m in monos), PolyElement.zero(s))
        comm = weyl_commutator(w, z)
        assert comm.is_homogeneous(2)
        lhs = quadratic_to_sp(comm)
        aw = quadratic_to_sp(w)
        az = quadratic_to_sp(z)
        assert lhs == mat_sub(mat_mul(aw, az), mat_mul(az, aw))


def test_roundtrips_both_ways():
    rng = random.Random(15)
    for s in (S1, standard_space(2)):
        for _ in range(6):
            w = sum((rng.randint(-3, 3) * m for m in quadratic_monomials(s)),
                    PolyElement.zero(s))
            assert sp_to_quadratic(s, quadratic_to_sp(w)) == w
        alpha = quadratic_to_sp(
            sum((rng.randint(-2, 2) * m for m in quadratic_monomials(s)),
                PolyElement.zero(s)))
        assert quadratic_to_sp(sp_to_quadratic(s, alpha)) == alpha


def test_sp_to_quadratic_nonstandard_form():
    s = SymplecticSpace(Matrix([[0, 3], [-3, 0]]))
    alpha = mat_diagonal([5, -5])
    w = sp_to_quadratic(s, alpha)
    assert quadratic_to_sp(w) == alpha


def test_sp_to_quadratic_dimension_zero():
    s = SymplecticSpace(Matrix([], cols=0))
    w = sp_to_quadratic(s, Matrix([], cols=0))
    assert w.is_zero()


def test_derivation_action_extends_matrix():
    alpha = mat_diagonal([1, -1])
    # on linears: the matrix itself
    assert derivation_action(alpha, E) == E
    assert derivation_action(alpha, F) == -1 * F
    # derivation on a product
    assert derivation_action(alpha, E * E) == 2 * (E * E)
    assert derivation_action(alpha, E * F).is_zero()
    assert derivation_action(alpha, PolyElement.constant(S1, 5)).is_zero()


def test_derivation_action_agrees_with_commutator():
    # the derivation extension of A(w) is the commutator with w in every degree
    rng = random.Random(21)
    for _ in range(8):
        w = sum((PolyElement.monomial(S1, (2 - k, k), rng.randint(-2, 2))
                 for k in range(3)), PolyElement.zero(S1))
        alpha = quadratic_to_sp(w)
        a = sum((PolyElement.monomial(S1, (rng.randint(0, 2), rng.randint(0, 2)),
                                      rng.randint(-3, 3))
                 for _ in range(3)), PolyElement.zero(S1))
        assert derivation_action(alpha, a) == weyl_commutator(w, a)


# a dense form with d = 2; its anchor (x_0^2, x_q^2) has q = 1, not m = 2
H = Fraction(1, 2)
DENSE = SymplecticSpace(Matrix([[0, H, 2, 3], [-H, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]))


def test_trace_ratio_is_minus_one_eighth():
    validate_space(DENSE)
    for space in (standard_space(1), standard_space(2), standard_space(3), DENSE):
        assert trace_ratio_constant(space) == Fraction(-1, 8)


def test_trace_ratio_rejects_tiny_space():
    with pytest.raises(ValueError):
        trace_ratio_constant(SymplecticSpace(Matrix([], cols=0)))


# (space, q): q is the first row of omega's column 0 that is nonzero
ANCHORED_SPACES = [pytest.param(S1, 1, id="standard-plane"), pytest.param(DENSE, 1, id="dense")]


@pytest.mark.parametrize("space, q", ANCHORED_SPACES)
def test_trace_ratio_refuses_a_wrong_reference_pairing(space, q, monkeypatch):
    monkeypatch.setattr(spbridge, "bilinear_form", lambda a, b: -bilinear_form(a, b))
    message = ("closed-form pairing disagrees with bilinear_form "
               f"on monomial pair ((0, 0), ({q}, {q}))")
    with pytest.raises(InconsistentRatio, match=re.escape(message)):
        trace_ratio_constant(space)


@pytest.mark.parametrize("space, q", ANCHORED_SPACES)
def test_trace_ratio_refuses_a_wrong_reference_trace(space, q, monkeypatch):
    monkeypatch.setattr(spbridge, "quadratic_to_sp", lambda w: mat_scale(2, quadratic_to_sp(w)))
    message = ("closed-form trace disagrees with quadratic_to_sp "
               f"on monomial pair ((0, 0), ({q}, {q}))")
    with pytest.raises(InconsistentRatio, match=re.escape(message)):
        trace_ratio_constant(space)


def test_trace_ratio_refuses_an_empty_first_column():
    # singular, so never validated: the anchor x_0^2 pairs to zero with everything
    space = SymplecticSpace(Matrix([[0, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]))
    with pytest.raises(InconsistentRatio, match="trace pairing vanishes identically"):
        trace_ratio_constant(space)


def test_quadratics_closed_under_commutator():
    # degree is preserved: [S^2, S^2] stays in S^2 under the noncommutative bracket
    s = standard_space(2)
    monos = quadratic_monomials(s)
    for p in monos:
        for q in monos:
            assert weyl_commutator(p, q).is_homogeneous(2)
