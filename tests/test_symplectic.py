from fractions import Fraction

import pytest

from oracles import mat_diagonal, pair
from superweyl.exactla import DimensionMismatch, Matrix
from superweyl.symplectic import (NotAlternating, OddDimension, Singular,
                                  SymplecticSpace, as_vector, is_in_sp,
                                  standard_space, validate_space)


def test_standard_space_form():
    s = standard_space(2)
    assert s.dim == 4
    # pairing of the hyperbolic partners
    assert pair(s, s.basis_vector(0), s.basis_vector(2)) == 1
    assert pair(s, s.basis_vector(2), s.basis_vector(0)) == -1
    assert pair(s, s.basis_vector(0), s.basis_vector(1)) == 0
    validate_space(s)
    for i in (-1, 4):
        with pytest.raises(IndexError, match=f"basis index {i} out of range for dimension 4"):
            s.basis_vector(i)
    with pytest.raises(DimensionMismatch, match="expected 4 coordinates, got 3"):
        as_vector(s, (1, 0, 0))
    with pytest.raises(ValueError, match="at least one hyperbolic pair"):
        standard_space(0)


def test_pair_is_alternating_and_bilinear():
    s = standard_space(1)
    u = (Fraction(1), Fraction(2))
    v = (Fraction(3), Fraction(-1))
    assert pair(s, u, u) == 0
    assert pair(s, u, v) == -pair(s, v, u)
    w = (Fraction(1), Fraction(1))
    assert pair(s, u, tuple(a + b for a, b in zip(v, w))) == pair(s, u, v) + pair(s, u, w)


def test_validate_rejects_odd_dimension():
    with pytest.raises(OddDimension):
        validate_space(SymplecticSpace(Matrix([[0]])))


def test_validate_rejects_symmetric_form():
    with pytest.raises(NotAlternating):
        validate_space(SymplecticSpace(Matrix.identity(2)))


def test_validate_rejects_singular_form():
    with pytest.raises(Singular):
        validate_space(SymplecticSpace(Matrix.from_entries({}, 2)))


def test_zero_dimensional_space_is_fine():
    s = SymplecticSpace(Matrix([], cols=0))
    validate_space(s)


def test_omega_shape_is_checked_on_construction():
    for omega in (Matrix.from_entries({}, 2, 3), Matrix.from_entries({}, 3, 2),
                  Matrix([], cols=2)):
        with pytest.raises(DimensionMismatch, match="omega must be square"):
            SymplecticSpace(omega)


def test_is_in_sp():
    s = standard_space(1)
    # sl2 on the plane: diagonal, raising, lowering all preserve the area form
    assert is_in_sp(s, mat_diagonal([1, -1]))
    assert is_in_sp(s, Matrix([[0, 1], [0, 0]]))
    assert is_in_sp(s, Matrix([[0, 0], [1, 0]]))
    assert not is_in_sp(s, Matrix.identity(2))
    for alpha in (Matrix.identity(4), Matrix.from_entries({}, 2, 3)):
        with pytest.raises(DimensionMismatch, match="expected a 2x2 matrix"):
            is_in_sp(s, alpha)


def test_is_in_sp_nonstandard_form():
    omega = Matrix([[0, 2], [-2, 0]])
    s = SymplecticSpace(omega)
    validate_space(s)
    assert is_in_sp(s, mat_diagonal([3, -3]))
    assert not is_in_sp(s, mat_diagonal([1, 1]))
