import json
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (mat_add, mat_apply, mat_column, mat_mul, mat_neg, mat_scale, mat_sub,
                     mat_trace, oracle_rref, replace)
from superweyl import jsonio
from superweyl.exactla import (DimensionMismatch, LinAlgError, Matrix, SingularMatrix, as_scalar,
                               integer_columns, invert, is_nonsingular, record, solve_linear,
                               solve_overdetermined)
from superweyl.jsonio import load_problem

GOLDEN = Path(__file__).parent / "golden"


def test_as_scalar_accepts_exact_inputs():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar("-3/8") == Fraction(-3, 8)
    assert as_scalar(Fraction(7, 2)) == Fraction(7, 2)


def test_as_scalar_rejects_floats():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(1.0)


def test_as_scalar_rejects_bools():
    # a bool is an int to Python, but never a coefficient
    for value in (True, False):
        with pytest.raises(TypeError):
            as_scalar(value)
    with pytest.raises(TypeError):
        Matrix([[True]])


def test_matrix_construction_and_access():
    m = Matrix([[1, 2], ["1/2", -1]])
    assert m.rows == 2 and m.cols == 2
    assert m[1, 0] == Fraction(1, 2)
    assert m.row(0) == (1, 2)
    assert m.col(1) == (2, -1)
    assert m.transpose().col(0) == (1, 2)


def test_matrix_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])


def test_empty_matrix_needs_explicit_width():
    m = Matrix([], cols=3)
    assert m.rows == 0 and m.cols == 3


def test_from_entries_fills_zeros():
    m = Matrix.from_entries({(0, 1): 2, (1, 0): "-1/2"}, 2)
    assert m == Matrix([[0, 2], ["-1/2", 0]])
    assert all(type(x) is Fraction for row in m.data for x in row)
    assert Matrix.from_entries({}, 2) == Matrix([[0, 0], [0, 0]])
    assert Matrix.identity(3) == Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_from_entries_shapes():
    m = Matrix.from_entries({(1, 2): 5}, 2, 3)
    assert (m.rows, m.cols) == (2, 3)
    assert m == Matrix([[0, 0, 0], [0, 0, 5]])
    empty = Matrix.from_entries({}, 0)
    assert (empty.rows, empty.cols) == (0, 0) and empty == Matrix([])
    wide = Matrix.from_entries({}, 0, 3)
    assert (wide.rows, wide.cols) == (0, 3)
    assert Matrix.from_entries({}, 2, 0).cols == 0


@pytest.mark.parametrize("key, rows, cols", [((-1, 0), 2, 3), ((0, -1), 2, 3), ((2, 0), 2, 3),
                                            ((0, 3), 2, 3), ((0, 0), 0, 0)],
                         ids=["negative-row", "negative-col", "row-past-end", "col-past-end",
                              "empty"])
def test_from_entries_refuses_indices_outside_the_shape(key, rows, cols):
    # a negative index is not read from the end, as a list would
    with pytest.raises(IndexError):
        Matrix.from_entries({key: 1}, rows, cols)


@pytest.mark.parametrize("key", [(True, 0), (0, False), (1.0, 0), (0, 0.0)])
def test_from_entries_refuses_indices_that_are_not_ints(key):
    # True is no row 1, as it would be for a list
    with pytest.raises(TypeError, match="has an index that is not an int"):
        Matrix.from_entries({key: 1}, 2)


@pytest.mark.parametrize("value", [0.5, 1.0, True, False])
def test_from_entries_refuses_floats_and_bools(value):
    with pytest.raises(TypeError):
        Matrix.from_entries({(0, 0): value}, 1)


def test_matrix_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert mat_add(a, b) == Matrix([[1, 3], [4, 4]])
    assert mat_sub(a, a) == Matrix.from_entries({}, 2)
    assert mat_neg(a) == Matrix([[-1, -2], [-3, -4]])
    assert mat_mul(a, b) == Matrix([[2, 1], [4, 3]])
    assert mat_mul(a, b, a) == Matrix([[5, 8], [13, 20]])
    assert mat_scale(2, a) == Matrix([[2, 4], [6, 8]])
    assert mat_trace(a) == 5


def test_matrix_shape_errors():
    a = Matrix([[1, 2]])
    with pytest.raises(DimensionMismatch, match="shape mismatch: 1x2 vs 2x1"):
        mat_add(a, Matrix([[1], [2]]))
    with pytest.raises(DimensionMismatch, match="cannot multiply 1x2 by 1x2"):
        mat_mul(a, a)
    with pytest.raises(DimensionMismatch, match="trace of a non-square matrix"):
        mat_trace(a)


def test_apply():
    a = Matrix([[1, 2], [3, 4]])
    assert mat_apply(a, [1, 0]) == (1, 3)
    assert mat_apply(a, ["1/2", 1]) == (Fraction(5, 2), Fraction(11, 2))
    with pytest.raises(DimensionMismatch):
        mat_apply(a, [1, 2, 3])


def test_solve_and_invert():
    a = Matrix([[2, 1], [1, 1]])
    x = solve_linear(a, mat_column([3, 2]))
    assert mat_mul(a, x) == mat_column([3, 2])
    assert mat_mul(a, invert(a)) == Matrix.identity(2)
    assert mat_mul(invert(a), a) == Matrix.identity(2)
    with pytest.raises(DimensionMismatch, match="coefficient matrix must be square"):
        solve_linear(Matrix([[1, 2]]), mat_column([1]))
    with pytest.raises(DimensionMismatch, match="right-hand side has wrong number of rows"):
        solve_linear(a, mat_column([1, 2, 3]))
    with pytest.raises(DimensionMismatch, match="only square matrices can be inverted"):
        invert(Matrix([[1, 2]]))


def test_singular_detected():
    with pytest.raises(SingularMatrix):
        invert(Matrix([[1, 2], [2, 4]]))


def test_solve_overdetermined():
    a = Matrix([[1, 0], [0, 1], [1, 1]])
    x = solve_overdetermined(a, mat_column([2, 3, 5]))
    assert x == mat_column([2, 3])
    with pytest.raises(LinAlgError):
        solve_overdetermined(a, mat_column([2, 3, 6]))
    with pytest.raises(SingularMatrix):
        solve_overdetermined(Matrix([[1, 2], [2, 4], [0, 0]]), mat_column([0, 0, 0]))
    with pytest.raises(DimensionMismatch, match="right-hand side has wrong number of rows"):
        solve_overdetermined(a, mat_column([2, 3]))


_scalars = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def square_matrices(draw, n=3):
    return Matrix([[draw(_scalars) for _ in range(n)] for _ in range(n)])


@given(square_matrices(), st.lists(_scalars, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solve_reproduces_rhs(a, rhs):
    b = mat_column(rhs)
    try:
        x = solve_linear(a, b)
    except SingularMatrix:
        assert len(oracle_rref(a)[1]) < a.rows
        return
    assert mat_mul(a, x) == b


# -- one elimination against the Fraction Gauss-Jordan ------------------------


def _augmented(a: Matrix, b: Matrix) -> Matrix:
    return Matrix([a.row(i) + b.row(i) for i in range(a.rows)], cols=a.cols + b.cols)


def _ref_solve(a: Matrix, b: Matrix):
    """``solve_linear`` read off the oracle's reduced form of [a | b]."""
    n = a.rows
    m, pivots = oracle_rref(_augmented(a, b))
    if pivots[:n] != list(range(n)):
        col = next(c for c in range(n) if c not in pivots)
        return SingularMatrix, f"no pivot available in column {col}"
    return Matrix([row[n:] for row in m], cols=b.cols)


def _ref_overdetermined(a: Matrix, b: Matrix):
    m, pivots = oracle_rref(_augmented(a, b))
    if any(p >= a.cols for p in pivots):
        return LinAlgError, "inconsistent system: no exact solution"
    if len(pivots) < a.cols:
        return SingularMatrix, "coefficient columns are linearly dependent"
    return Matrix([row[a.cols:] for row in m[:a.cols]], cols=b.cols)


def _outcome(fn, *args):
    """What the call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except LinAlgError as exc:
        return type(exc), str(exc)


def _elimination_outcomes(a: Matrix, b: Matrix) -> list:
    """Every elimination entry point on (a, b); the square ones only for square a."""
    out = [_outcome(solve_overdetermined, a, b)]
    if a.is_square():
        out += [_outcome(solve_linear, a, b), _outcome(invert, a),
                is_nonsingular(integer_columns([a]).columns[0], a.rows)]
    return out


def _elimination_references(a: Matrix, b: Matrix) -> list:
    out = [_ref_overdetermined(a, b)]
    if a.is_square():
        out += [_ref_solve(a, b), _ref_solve(a, Matrix.identity(a.rows)),
                len(oracle_rref(a)[1]) == a.rows]
    return out


# zero-heavy and signed, with some denominators above 2^64
_ELIMINATION_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-2**70, 2**70), st.sampled_from([2**64 + 13, 3**41])))


@st.composite
def systems(draw):
    """(a, b): square, wide or tall a with zero rows and columns and maybe a
    dependent last row, and b with 0..3 columns, consistent (b = a x) or
    drawn freely."""
    rows = draw(st.integers(0, 5))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 5))
    zero_rows = draw(st.sets(st.integers(0, 4), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 4), max_size=2))
    data = [[Fraction(0) if i in zero_rows or j in zero_cols else draw(_ELIMINATION_ENTRIES)
             for j in range(cols)] for i in range(rows)]
    if rows > 2 and draw(st.booleans()):
        c = draw(_ELIMINATION_ENTRIES)
        data[-1] = [x - c * y for x, y in zip(data[0], data[1])]
    a = Matrix(data, cols=cols)
    rhs = draw(st.integers(0, 3))
    if draw(st.booleans()):
        return a, mat_mul(a, Matrix([[draw(_ELIMINATION_ENTRIES) for _ in range(rhs)]
                                     for _ in range(cols)], cols=rhs))
    return a, Matrix([[draw(_ELIMINATION_ENTRIES) for _ in range(rhs)]
                      for _ in range(rows)], cols=rhs)


_HUGE = Fraction(2**70 + 1, 2**64 + 13)


@given(systems())
@settings(max_examples=200, deadline=None)
@example((Matrix([], cols=0), Matrix([], cols=2)))  # the 0 x 0 form of double abelian1
@example((Matrix([[0, -3, 1], [-2, 1, 0], [4, 0, -5]]),  # negative pivots
          Matrix([[1, 0], [0, 1], ["-1/2", 2]])))
@example((Matrix([[_HUGE, 1], [1, -_HUGE]]), mat_column([1, _HUGE])))  # above 2^64
@example((Matrix([[1, 2, 0, -1], [2, 4, 0, -2]]), mat_column([1, 2])))  # wide, dependent
@example((Matrix([[1, 2, 0, -1], [2, 4, 0, -2]]), mat_column([1, 3])))  # inconsistent
@example((Matrix([[0, 1], [0, 0], [0, -2]]), mat_column([1, 0, -2])))  # zero column
@example((Matrix([[1, "1/3"], [0, 0], [-2, 1]]), mat_column([2, 0, 1])))  # tall, zero row
def test_elimination_matches_fraction_gauss_jordan(system):
    a, b = system
    assert _elimination_outcomes(a, b) == _elimination_references(a, b)


def test_elimination_forms_no_fraction_arithmetic(monkeypatch):
    """solve_linear, invert, solve_overdetermined and is_nonsingular on
    every golden form and on a rank-deficient matrix, with Fraction
    products, differences and quotients refused: only the output entries
    are formed."""
    forms = []
    for entry in json.loads((GOLDEN / "manifest.json").read_text()):
        rep = load_problem(str(GOLDEN / f"{entry['stem']}.json"))
        forms += [rep.algebra.form, rep.space.omega]
    forms.append(Matrix([[1, "1/2", 3], [2, 1, 6], ["-1/3", 0, "7/5"]]))
    assert any(m.rows == 0 for m in forms)
    cases = [(m, Matrix.identity(m.rows)) for m in forms]
    cases.append((forms[-1], mat_column([1, 2, 3])))
    expected = [_elimination_references(a, b) for a, b in cases]
    # only the two cases of the rank-deficient matrix are singular
    assert [results[-1] for results in expected].count(False) == 2

    def refuse(self, other):
        raise AssertionError("the elimination formed Fraction arithmetic")

    for name in ("__mul__", "__sub__", "__truediv__"):
        monkeypatch.setattr(Fraction, name, refuse)
    for (a, b), results in zip(cases, expected, strict=True):
        assert _elimination_outcomes(a, b) == results
    with pytest.raises(AssertionError, match="Fraction arithmetic"):
        Fraction(1, 2) * Fraction(1, 3)


@st.composite
def matrices_with_zero_lines(draw):
    """Matrices with some rows and columns entirely zero, and zeros elsewhere."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    return Matrix([[0 if i in zero_rows or j in zero_cols else draw(_scalars)
                    for j in range(cols)] for i in range(rows)])


@given(matrices_with_zero_lines(),
       st.one_of(_scalars, st.integers(-3, 3), st.sampled_from(["0", "-3/8"])))
@settings(max_examples=60, deadline=None)
def test_scalar_product_is_entrywise(m, c):
    expected = Matrix([[as_scalar(c) * a for a in row] for row in m.data], cols=m.cols)
    assert mat_scale(c, m) == expected


# -- parsing rationals -----------------------------------------------------


def _strings(obj) -> list[str]:
    if isinstance(obj, str):
        return [obj]
    values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return [text for value in values for text in _strings(value)]


class _RecordingPattern:
    """A compiled pattern that records the text of every ``fullmatch``."""

    def __init__(self, pattern):
        self.pattern, self.seen = pattern, []

    def fullmatch(self, text):
        self.seen.append(text)
        return self.pattern.fullmatch(text)


@pytest.mark.parametrize("name", ["osp_even-1-2.json", "conj-osp_even-2-1.json"])
def test_problem_files_parse_zeros_without_the_rational_regex(monkeypatch, name):
    # every string of these files is a rational entry; "0" is the shared zero
    path = GOLDEN / name
    strings = _strings(json.loads(path.read_text()))
    assert "0" in strings
    expected = load_problem(str(path))
    recorder = _RecordingPattern(jsonio._RATIONAL)
    monkeypatch.setattr(jsonio, "_RATIONAL", recorder)
    assert load_problem(str(path)) == expected
    assert sorted(recorder.seen) == sorted(text for text in strings if text != "0")


# -- frozen records --------------------------------------------------------


@record
class _Pair:
    left: int
    right: Fraction = Fraction(0)

    def __post_init__(self):
        if self.left < 0:
            raise ValueError("left must not be negative")

    @cached_property
    def total(self):
        return self.left + self.right


def test_record_fields_defaults_and_checks():
    p = _Pair(1, Fraction(1, 2))
    assert (p.left, p.right) == (1, Fraction(1, 2))
    assert _Pair(2).right == 0
    assert _Pair(right=3, left=1) == _Pair(1, 3)
    assert repr(p) == "_Pair(left=1, right=Fraction(1, 2))"
    with pytest.raises(ValueError, match="negative"):
        _Pair(-1)
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"left": 1}), ((1,), {"other": 2})]:
        with pytest.raises(TypeError):
            _Pair(*args, **kwargs)


def test_record_equality_hash_and_immutability():
    p = _Pair(1, 2)
    assert p == _Pair(1, 2) and hash(p) == hash(_Pair(1, 2)) == hash((1, 2))
    assert p != _Pair(1, 3) and p != (1, 2)
    assert len({p, _Pair(1, 2), _Pair(2, 2)}) == 2
    with pytest.raises(AttributeError):
        p.left = 5
    with pytest.raises(AttributeError):
        del p.right
    assert p.total == 3 and p.total is p.total
    # the cached value is no field: equality and hash do not see it
    assert p == _Pair(1, 2) and hash(p) == hash((1, 2))


def test_replace_checks_the_copy():
    p = _Pair(1, 2)
    assert replace(p, right=5) == _Pair(1, 5) and p == _Pair(1, 2)
    with pytest.raises(ValueError, match="negative"):
        replace(p, left=-1)
    with pytest.raises(TypeError):
        replace(p, other=1)
