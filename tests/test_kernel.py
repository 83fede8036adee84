"""The fraction-free check kernel against the ``Fraction`` formulas it replaces.

``exactla.integer_columns`` scales a list of matrices by one common
denominator into sparse integer columns.  On random matrices with mixed
denominators from 1 to 12, the nonzero columns of ``liealg.defect_columns``
must be those of ``oracles.representation_defect``, scaled exactly, and
``exactla.invariance_violation`` and ``symplectic.is_in_sp`` must find what
a^T G + S G a finds.  ``verify_superalgebra`` must agree with the
triple-by-triple oracle on random tables, antisymmetric or not, so the
(y, x) shortcut it takes after graded antisymmetry passes never changes a
result.  Finally, the checks must not form a single ``Fraction`` matrix
product.
"""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_verify_superalgebra, representation_defect
from superweyl.catalog import build_instance
from superweyl.engine import (SuperAlgebraData, SymplecticRep, construct_superalgebra_unchecked,
                              validate_rep, verify_superalgebra)
from superweyl.exactla import Matrix, integer_columns, invariance_violation
from superweyl.jsonio import load_problem
from superweyl.liealg import QuadraticLieAlgebra, defect_columns, validate_lie
from superweyl.symplectic import SymplecticSpace, is_in_sp

GOLDEN = Path(__file__).parent / "golden"

# mostly zero, as real tables are; nonzero entries have denominators 1..12
ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 12)))


def matrices(rows, cols):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda data: Matrix(data, cols=cols))


def test_integer_columns_clear_one_common_denominator():
    scale, (a, b) = integer_columns([Matrix([["1/4", 0], [0, "-2/3"]]), Matrix([[5, "1/6"]])])
    assert scale == 12
    assert a == [{0: 3}, {1: -8}]
    assert b == [{0: 60}, {0: 2}]
    assert integer_columns([]) == (1, [])


@st.composite
def defect_data(draw):
    """d adjoint-like matrices ad_x (d x d) acting on d matrices rho_x (m x m),
    the first k of them even; no structure is assumed."""
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    k = draw(st.integers(0, d))
    ad = [draw(matrices(d, d)) for _ in range(d)]
    rho = [draw(matrices(m, m)) for _ in range(d)]
    return ad, rho, k


@given(defect_data())
@settings(max_examples=60, deadline=None)
def test_defect_columns_match_the_fraction_defect(data):
    ad, rho, k = data
    ad_cols, rho_cols = integer_columns(ad), integer_columns(rho)
    factor = ad_cols.scale * rho_cols.scale ** 2
    m = rho[0].rows
    for x, y in product(range(len(ad)), repeat=2):
        reference = representation_defect(ad, rho, k, x, y)
        expected = {z: {i: factor * v for i, v in enumerate(reference.col(z)) if v}
                    for z in range(m) if any(reference.col(z))}
        assert defect_columns(ad_cols, rho_cols, k, x, y, range(m)) == expected
        assert defect_columns(ad_cols, rho_cols, k, x, y, [m - 1]) == {
            z: col for z, col in expected.items() if z == m - 1}


def _first_nonzero(m: Matrix):
    return next(((j, l) for j, l in product(range(m.rows), repeat=2) if m[j, l] != 0), None)


@st.composite
def invariance_data(draw):
    n = draw(st.integers(1, 4))
    a, g = draw(matrices(n, n)), draw(matrices(n, n))
    signs = draw(st.one_of(st.none(), st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    return a, g, signs


@given(invariance_data())
@settings(max_examples=80, deadline=None)
def test_invariance_violation_matches_the_fraction_defect(data):
    a, g, signs = data
    s = Matrix.identity(a.rows) if signs is None else Matrix.diagonal(signs)
    expected = _first_nonzero(a.transpose() * g + s * g * a)
    _, (a_cols, g_cols, gt_cols) = integer_columns([a, g, g.transpose()])
    assert invariance_violation(a_cols, g_cols, gt_cols, signs) == expected


@st.composite
def form_and_matrix(draw):
    """A random alternating omega with a random matrix, mostly outside
    sp(omega), or the standard form J with J T for a symmetric T, which is
    in sp(J) since (J T)^T J + J J T = T - T."""
    half = draw(st.integers(1, 2))
    n = 2 * half
    upper = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    omega = Matrix([[upper[i][j] if i < j else -upper[j][i] if i > j else 0 for j in range(n)]
                    for i in range(n)])
    if draw(st.booleans()):
        return omega, draw(matrices(n, n))
    sym = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    t = Matrix([[sym[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    j = Matrix([[1 if c == r + half else -1 if r == c + half else 0 for c in range(n)]
                for r in range(n)])
    return j, j * t


@given(form_and_matrix())
@settings(max_examples=60, deadline=None)
def test_is_in_sp_matches_the_fraction_identity(data):
    omega, alpha = data
    space = SymplecticSpace(omega.rows, omega)
    assert is_in_sp(space, alpha) == (alpha.transpose() * omega + omega * alpha).is_zero()


@st.composite
def small_superalgebras(draw):
    """Random tables on g0 + v with k, n <= 2: the even table antisymmetric
    (from sparse entries) or arbitrary, random nu, odd bracket and forms.
    Mostly nothing holds; the checks and their witnesses must still agree."""
    k, n = draw(st.integers(1, 2)), draw(st.sampled_from([0, 2]))
    if draw(st.booleans()):
        entries = [(i, j, l, draw(ENTRIES)) for i in range(k) for j in range(i + 1, k)
                   for l in range(k)]
        algebra = QuadraticLieAlgebra.from_sparse(k, entries, draw(matrices(k, k)))
    else:
        table = tuple(tuple(tuple(draw(ENTRIES) for _ in range(k)) for _ in range(k))
                      for _ in range(k))
        algebra = QuadraticLieAlgebra(k, table, draw(matrices(k, k)))
    space = SymplecticSpace(n, draw(matrices(n, n)))
    rep = SymplecticRep(algebra, space, tuple(draw(matrices(n, n)) for _ in range(k)))
    odd_odd = {(a, b): tuple(draw(ENTRIES) for _ in range(k))
               for a in range(n) for b in range(a, n)}
    return SuperAlgebraData(rep, odd_odd)


@given(small_superalgebras())
@settings(max_examples=80, deadline=None)
def test_verify_matches_oracle_on_random_tables(s):
    assert verify_superalgebra(s) == oracle_verify_superalgebra(s)


def test_verify_reads_mirrored_pairs_only_after_antisymmetry():
    # [x0, x1] = x0 but [x1, x0] = 0: the table is not antisymmetric, and the
    # Jacobi witness must come from computing (1, 0) itself
    table = (((0, 0), (1, 0)), ((0, 0), (0, 0)))
    algebra = QuadraticLieAlgebra(2, table, Matrix.identity(2))
    rep = SymplecticRep(algebra, SymplecticSpace(0, Matrix([], cols=0)), (Matrix([], cols=0),) * 2)
    s = SuperAlgebraData(rep, {})
    checks = verify_superalgebra(s)
    assert checks == oracle_verify_superalgebra(s)
    assert not checks[0].passed and not checks[1].passed


def _problems():
    return [build_instance("osp_even", (1, 2))] + [
        load_problem(str(path)) for path in sorted(GOLDEN.glob("conj-*[0-9].json"))]


def test_checks_form_no_fraction_products(monkeypatch):
    expected = [verify_superalgebra(construct_superalgebra_unchecked(rep)) for rep in _problems()]
    # fresh objects, so nothing cached before the patch is reused
    reps = _problems()
    assert len(reps) >= 3
    structures = [construct_superalgebra_unchecked(rep) for rep in _problems()]

    def refuse(self, other):
        raise AssertionError("a check formed a Fraction matrix product")

    monkeypatch.setattr(Matrix, "__mul__", refuse)
    for rep, s, checks in zip(reps, structures, expected, strict=True):
        validate_lie(rep.algebra)
        validate_rep(rep)
        assert verify_superalgebra(s) == checks
    with pytest.raises(AssertionError, match="Fraction matrix product"):
        Matrix.identity(1) * Matrix.identity(1)
