import json
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import bracket, bracket_vectors, form_value, mat_diagonal, mat_scale
from superweyl import liealg
from superweyl.exactla import DimensionMismatch, Matrix
from superweyl.jsonio import load_problem
from superweyl.liealg import (FormNotInvariant, FormSingular, JacobiFails, QuadraticLieAlgebra,
                              casimir_pairs, validate_lie)

GOLDEN = Path(__file__).parent / "golden"
SL2_FORM = Matrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]])
SL2_ENTRIES = [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)]


def sl2():
    return QuadraticLieAlgebra.from_sparse(SL2_ENTRIES, SL2_FORM)


def test_sl2_structure():
    g = sl2()
    assert bracket(g, 0, 1) == (0, 2, 0)
    assert bracket(g, 1, 0) == (0, -2, 0)
    assert bracket(g, 1, 2) == (1, 0, 0)
    validate_lie(g)


def test_adjoint_is_built_once_per_algebra(monkeypatch):
    g = sl2()
    validate_lie(g)

    def refuse(*args, **kwargs):
        raise AssertionError("the adjoint was built again")

    monkeypatch.setattr(Matrix, "from_entries", refuse)
    monkeypatch.setattr(liealg, "integer_tables", refuse)
    assert g.adjoint_columns is g.adjoint_columns
    assert g.adjoint_columns.scale == 1
    assert g.adjoint_columns.columns[1][0] == {1: -2}
    with pytest.raises(AssertionError):
        sl2().adjoint_columns


def test_bracket_vectors_bilinear():
    g = sl2()
    h = (Fraction(1), Fraction(0), Fraction(0))
    e = (Fraction(0), Fraction(1), Fraction(0))
    f = (Fraction(0), Fraction(0), Fraction(1))
    ef = bracket_vectors(g, e, f)
    assert ef == (1, 0, 0)
    combo = tuple(2 * a + 3 * b for a, b in zip(e, f))
    assert bracket_vectors(g, h, combo) == (0, 4, -6)


def test_form_value():
    g = sl2()
    e = (Fraction(0), Fraction(1), Fraction(0))
    f = (Fraction(0), Fraction(0), Fraction(1))
    assert form_value(g, e, f) == 1
    assert form_value(g, e, e) == 0


def test_abelian_validates():
    validate_lie(QuadraticLieAlgebra({}, Matrix.identity(3)))
    validate_lie(QuadraticLieAlgebra({}, Matrix.identity(0)))
    validate_lie(QuadraticLieAlgebra({}, mat_diagonal([1, -1])))


def test_from_sparse_requires_lower_index_first():
    with pytest.raises(ValueError):
        QuadraticLieAlgebra.from_sparse([(1, 0, 0, 1)], Matrix.identity(2))
    with pytest.raises(IndexError):
        QuadraticLieAlgebra.from_sparse([(0, 1, 5, 1)], Matrix.identity(2))


def test_from_sparse_accumulates_duplicates():
    g = QuadraticLieAlgebra.from_sparse([(0, 1, 0, 1), (0, 1, 0, 2)], Matrix.identity(2))
    assert bracket(g, 0, 1) == (3, 0)


def test_table_stores_exactly_the_nonzero_entries():
    problems = [p for p in sorted(GOLDEN.glob("*.json"))
                if p.name.count(".") == 1 and p.name != "manifest.json"]
    assert len(problems) >= 10
    for path in problems:
        g = load_problem(str(path)).algebra
        entries = json.loads(path.read_text())["g0"]["brackets"]
        # each bracket is stored once per pair i < j, as the file lists it
        assert sum(len(col) for col in g.brackets.values()) == len(entries), path.name
    g = QuadraticLieAlgebra.from_sparse([(0, 1, 0, 1), (0, 1, 0, -1)], Matrix.identity(2))
    assert g.brackets == {}
    assert g == QuadraticLieAlgebra({}, Matrix.identity(2))
    one = {0: Fraction(1)}
    for key in [(1, 0), (0, 0), (0, 2)]:
        with pytest.raises(ValueError, match="is not a pair"):
            QuadraticLieAlgebra({key: one}, Matrix.identity(2))
    for col in [{}, {0: Fraction(0)}]:
        with pytest.raises(ValueError, match="zero coefficient or an empty map"):
            QuadraticLieAlgebra({(0, 1): col}, Matrix.identity(2))
    with pytest.raises(DimensionMismatch):
        QuadraticLieAlgebra({(0, 1): {2: Fraction(1)}}, Matrix.identity(2))


def test_jacobi_violation_detected():
    g = QuadraticLieAlgebra.from_sparse([(0, 1, 2, 1), (0, 2, 0, 1)], Matrix.identity(3))
    with pytest.raises(JacobiFails) as info:
        validate_lie(g)
    assert info.value.triple == (0, 1, 2)


def test_asymmetric_or_singular_form_detected():
    g = QuadraticLieAlgebra({}, Matrix([[0, 1], [0, 0]]))
    with pytest.raises(FormSingular):
        validate_lie(g)
    g = QuadraticLieAlgebra({}, Matrix.from_entries({}, 2))
    with pytest.raises(FormSingular):
        validate_lie(g)


def test_noninvariant_form_detected():
    g = QuadraticLieAlgebra.from_sparse(SL2_ENTRIES, Matrix.identity(3))
    with pytest.raises(FormNotInvariant):
        validate_lie(g)


def test_shape_errors():
    with pytest.raises(DimensionMismatch, match="form matrix must be square"):
        QuadraticLieAlgebra({}, Matrix.from_entries({}, 2, 3))
    with pytest.raises(DimensionMismatch, match="form matrix must be square"):
        QuadraticLieAlgebra.from_sparse([], Matrix.from_entries({}, 3, 2))


def test_casimir_pairs_sl2():
    duals = casimir_pairs(sl2())
    assert duals[0] == (Fraction(1, 2), 0, 0)
    assert duals[1] == (0, 0, 1)
    assert duals[2] == (0, 1, 0)
    # duality against the form
    g = sl2()
    for i, dual in enumerate(duals):
        for j in range(3):
            unit = tuple(Fraction(1 if t == j else 0) for t in range(3))
            assert form_value(g, unit, dual) == (1 if i == j else 0)


def test_casimir_pairs_scale_inversely_with_form():
    g = sl2()
    scaled = QuadraticLieAlgebra(g.brackets, mat_scale(3, g.form))
    validate_lie(scaled)
    for dual, sdual in zip(casimir_pairs(g), casimir_pairs(scaled)):
        assert tuple(3 * x for x in sdual) == dual


def test_casimir_pairs_need_nonsingular_form():
    with pytest.raises(FormSingular):
        casimir_pairs(QuadraticLieAlgebra({}, Matrix.from_entries({}, 2)))
