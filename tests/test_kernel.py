"""The fraction-free check kernel against the ``Fraction`` formulas it replaces.

``exactla.integer_columns`` scales a list of matrices by one common
denominator into sparse integer columns, and ``integer_tables`` does so for
matrices given column by column.  On random matrices with mixed
denominators from 1 to 12, the nonzero columns of ``liealg.defect_columns``
must be those of ``oracles.representation_defect``, scaled exactly, and
``exactla.invariance_violation`` and ``symplectic.is_in_sp`` must find what
a^T G + S G a finds.  ``verify_superalgebra`` must agree with the
triple-by-triple oracle on random tables, so the sorted-triple shortcut it
takes never changes a result; both brackets are stored once per pair, so
graded antisymmetry holds on every drawn table.  Finally, the checks must
not form a single ``Fraction`` matrix product, compare or negate a
``Matrix``, nor form any dense ``Matrix`` with more rows than the larger of
the two Gram blocks: ``Matrix`` has no product or negation, and comparing
one is refused while the checks run.

The same kernel computes the Casimir image: the lifts of
``sp_to_quadratic``, the dual matrices and ``casimir_image`` sum in
integers and divide once per output term.  On every golden problem and on
random problems whose forms and matrices carry coprime denominators near
10^6, they must equal their ``Fraction`` references exactly (the matrix
product alpha omega^-1, ``oracles.casimir_obstruction`` and
``weyl.bilinear_form``) and the Weyl-product path, and the lift must still
refuse alpha when alpha omega^-1 misses symmetry by the smallest step.
``is_nonsingular`` must agree with ``invert``.
"""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (casimir_obstruction, linear_combination, mat_add, mat_diagonal, mat_is_zero,
                     mat_mul, oracle_sp_to_quadratic, oracle_verify_superalgebra,
                     representation_defect, superalgebra_from_table)
from superweyl.catalog import build_instance
from superweyl.engine import (SymplecticRep, casimir_image, construct_superalgebra_unchecked,
                              decide, form_invariance_witness, validate_rep, verify_superalgebra)
from superweyl.exactla import (Matrix, SingularMatrix, integer_columns, integer_tables,
                               invariance_violation, invert, is_nonsingular)
from superweyl.jsonio import load_problem
from superweyl.liealg import QuadraticLieAlgebra, casimir_pairs, defect_columns, validate_lie
from superweyl.spbridge import NotSymplectic, sp_to_quadratic
from superweyl.symplectic import SymplecticSpace, is_in_sp, validate_space
from superweyl.weyl import PolyElement, bilinear_form, constant_term, grade, weyl_product

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
    # the same matrices given column by column; a zero entry is dropped
    tables = [[{0: Fraction(1, 4), 1: Fraction(0)}, {1: Fraction(-2, 3)}],
              [{0: Fraction(5)}, {0: Fraction(1, 6)}]]
    assert integer_tables(tables) == (12, [a, b])
    assert integer_tables([]) == (1, [])


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
    s = Matrix.identity(a.rows) if signs is None else mat_diagonal(signs)
    expected = _first_nonzero(mat_add(mat_mul(a.transpose(), g), mat_mul(s, g, a)))
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
    return j, mat_mul(j, t)


@given(form_and_matrix())
@settings(max_examples=60, deadline=None)
def test_is_in_sp_matches_the_fraction_identity(data):
    omega, alpha = data
    space = SymplecticSpace(omega)
    assert is_in_sp(space, alpha) == mat_is_zero(mat_add(mat_mul(alpha.transpose(), omega),
                                                         mat_mul(omega, alpha)))


@st.composite
def small_superalgebras(draw):
    """Random tables on g0 + v with k, n <= 2: random even brackets (from
    sparse entries), nu, odd bracket and forms.  Mostly nothing holds; the
    checks and their witnesses must still agree."""
    k, n = draw(st.integers(1, 2)), draw(st.sampled_from([0, 2]))
    entries = [(i, j, l, draw(ENTRIES)) for i in range(k) for j in range(i + 1, k)
               for l in range(k)]
    algebra = QuadraticLieAlgebra.from_sparse(entries, draw(matrices(k, k)))
    space = SymplecticSpace(draw(matrices(n, n)))
    rep = SymplecticRep(algebra, space, tuple(draw(matrices(n, n)) for _ in range(k)))
    table = {(a, b): tuple(draw(ENTRIES) for _ in range(k))
             for a in range(n) for b in range(a, n)}
    return superalgebra_from_table(rep, table)


@given(small_superalgebras())
@settings(max_examples=80, deadline=None)
def test_verify_matches_oracle_on_random_tables(s):
    checks = verify_superalgebra(s)
    assert checks == oracle_verify_superalgebra(s)
    assert checks[0].name == "graded_antisymmetry" and checks[0].passed


def _problems():
    return [build_instance("osp_even", (1, 2))] + [
        load_problem(str(path)) for path in sorted(GOLDEN.glob("conj-*[0-9].json"))]


def _outcomes(rep):
    """What the validators, decide, construction and verify give on ``rep``,
    in terms that compare no ``Matrix``."""
    validate_space(rep.space)
    validate_lie(rep.algebra)
    validate_rep(rep)
    report = decide(rep)
    s = construct_superalgebra_unchecked(rep)
    return (report.verdict, report.casimir_scalar, report.obstruction.terms,
            report.diagnostics, s.odd_odd, verify_superalgebra(s))


def test_checks_form_no_fraction_products(monkeypatch):
    # no check multiplies, compares or negates a dense Matrix: every form
    # property is decided on integer columns.  Matrix defines no product or
    # negation at all, and comparing one is refused here
    assert [name for name in ("__mul__", "__rmul__", "__neg__") if hasattr(Matrix, name)] == []
    expected = [_outcomes(rep) for rep in _problems()]
    # fresh objects, so nothing cached before the patch is reused
    reps = _problems()
    assert len(reps) >= 3

    def refuse(self, *other):
        raise AssertionError("a check multiplied, compared or negated a Matrix")

    monkeypatch.setattr(Matrix, "__eq__", refuse)
    assert [_outcomes(rep) for rep in reps] == expected
    with pytest.raises(AssertionError, match="multiplied, compared or negated"):
        Matrix.identity(1) != Matrix.identity(1)


def _check_results(s):
    return verify_superalgebra(s), form_invariance_witness(s)


def test_checks_build_no_dense_matrix_that_grows_with_k_plus_n(monkeypatch):
    # the checks read the tables straight into integer columns: no Matrix
    # with more rows than max(k, n), such as a (k+n) x (k+n) adjoint
    # matrix or Gram matrix, is formed
    expected = [_check_results(construct_superalgebra_unchecked(rep)) for rep in _problems()]
    # fresh objects, so no view cached before the patch is reused
    structures = [construct_superalgebra_unchecked(rep) for rep in _problems()]
    limit = 0
    init = Matrix.__init__

    def bounded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.rows > limit:
            raise AssertionError(f"a Matrix with {self.rows} rows was formed")

    monkeypatch.setattr(Matrix, "__init__", bounded)
    for s, results in zip(structures, expected, strict=True):
        limit = max(s.rep.algebra.dim, s.rep.space.dim)
        assert _check_results(s) == results
    with pytest.raises(AssertionError, match="Matrix with"):
        Matrix.identity(limit + 1)


def test_casimir_image_forms_no_fraction_products(monkeypatch):
    # Matrix defines no product; the polynomial products are refused here
    assert [name for name in ("__mul__", "__rmul__", "__neg__") if hasattr(Matrix, name)] == []
    expected = [(casimir_image(rep), construct_superalgebra_unchecked(rep).odd_odd)
                for rep in _problems()]
    reps = _problems()

    def refuse(*args):
        raise AssertionError("a Fraction product of matrices or polynomials was formed")

    for name in ("__rmul__", "__add__"):
        monkeypatch.setattr(PolyElement, name, refuse)
    for rep, (image, odd_odd) in zip(reps, expected, strict=True):
        assert casimir_image(rep) == image
        assert construct_superalgebra_unchecked(rep).odd_odd == odd_odd


# -- the Casimir image against its Fraction reference --------------------------


def fraction_lift(space: SymplecticSpace, alpha: Matrix) -> PolyElement:
    """1/4 sum_ij (alpha omega^-1)_ij x_i x_j from the ``Fraction`` product."""
    s, n = mat_mul(alpha, invert(space.omega)).data, space.dim
    return PolyElement(space, {tuple((t == i) + (t == j) for t in range(n)):
                               s[i][j] / 4 if i == j else s[i][j] / 2
                               for i in range(n) for j in range(i, n)})


def fraction_casimir_image(rep: SymplecticRep, lifts) -> tuple[PolyElement, Fraction]:
    """(sum_i lift_i . lift^i, sum_i (lift_i, lift^i)) with the dual lifts
    formed by ``Fraction`` linear combinations."""
    zero = PolyElement.zero(rep.space)
    duals = [linear_combination(dual, lifts, zero) for dual in casimir_pairs(rep.algebra)]
    return (casimir_obstruction(rep.space, lifts, duals),
            sum(map(bilinear_form, lifts, duals), Fraction(0)))


# the problem files, not the reports, outputs or manifest
GOLDEN_PROBLEMS = sorted(path.name for path in GOLDEN.glob("*.json")
                         if len(path.suffixes) == 1 and path.name != "manifest.json")


@pytest.mark.parametrize("name", GOLDEN_PROBLEMS)
def test_casimir_image_equals_the_fraction_reference_on_golden_problems(name):
    rep = load_problem(str(GOLDEN / name))
    lifts = [fraction_lift(rep.space, m) for m in rep.matrices]
    assert [sp_to_quadratic(rep.space, m) for m in rep.matrices] == lifts
    assert casimir_image(rep) == fraction_casimir_image(rep, lifts)


def test_golden_problems_include_the_conjugated_ones():
    assert {"conj-osp_even-2-1.json", "conj-spin-3.json", "spin-7.json"} <= set(GOLDEN_PROBLEMS)


def _is_prime(p: int) -> bool:
    return all(p % d for d in range(2, int(p ** 0.5) + 1))


# distinct primes below 10^6: denominators drawn from them without
# repetition are pairwise coprime, so a common denominator is their product
PRIMES = [p for p in range(10 ** 6, 999_000, -1) if _is_prime(p)]


@st.composite
def large_denominator_reps(draw):
    """An abelian g0 of dimension k <= 3 with a symmetric form B acting on a
    space of dimension 2 or 4 by nu_i = omega^-1 T_i for symmetric T_i, so
    nu_i is in sp(omega).  Every nonzero entry of omega, B and T_i has its
    own prime denominator near 10^6.  With B symmetric the degree-two part
    sum_li (B^-1)_li [nu_l, nu_i] vanishes, so ``casimir_image`` answers."""
    n, k = 2 * draw(st.integers(1, 2)), draw(st.integers(1, 3))
    primes = iter(draw(st.permutations(PRIMES)))

    def entry(zero_allowed: bool) -> Fraction:
        if zero_allowed and draw(st.booleans()):
            return Fraction(0)
        return Fraction(draw(st.integers(1, 999)) * draw(st.sampled_from([1, -1])), next(primes))

    def symmetric(size: int, sparse: bool) -> Matrix:
        """Nonzero on the diagonal; off it, zero half the time if ``sparse``."""
        upper = {(i, j): entry(sparse and i != j) for i in range(size) for j in range(i, size)}
        return Matrix([[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)])

    upper = {(i, j): entry(False) for i in range(n) for j in range(i + 1, n)}
    omega = Matrix([[upper[i, j] if i < j else -upper[j, i] if i > j else 0 for j in range(n)]
                    for i in range(n)])
    form = symmetric(k, sparse=False)
    try:
        invert(form)
    except SingularMatrix:
        assume(False)
    omega_inverse = invert(omega)
    nus = tuple(mat_mul(omega_inverse, symmetric(n, sparse=True)) for _ in range(k))
    return SymplecticRep(QuadraticLieAlgebra({}, form), SymplecticSpace(omega), nus)


@given(large_denominator_reps())
@settings(max_examples=15, deadline=None)
def test_casimir_image_is_exact_beyond_64_bit_denominators(rep):
    assert integer_columns([*rep.matrices, rep.algebra.form, rep.space.omega]).scale > 2 ** 60
    lifts = [fraction_lift(rep.space, m) for m in rep.matrices]
    assert [sp_to_quadratic(rep.space, m) for m in rep.matrices] == lifts
    obstruction, scalar = casimir_image(rep)
    assert (obstruction, scalar) == fraction_casimir_image(rep, lifts)
    # the Weyl path, on the Gram-solve lifts of the oracle
    lifts = [oracle_sp_to_quadratic(rep.space, m) for m in rep.matrices]
    zero = PolyElement.zero(rep.space)
    duals = [linear_combination(dual, lifts, zero) for dual in casimir_pairs(rep.algebra)]
    image = grade(sum(map(weyl_product, lifts, duals), zero))
    assert set(image) <= {0, 4}
    assert obstruction == image.get(4, zero)
    assert scalar == constant_term(image.get(0, zero))


@given(large_denominator_reps(), st.data())
@settings(max_examples=15, deadline=None)
def test_lift_refuses_an_asymmetry_of_one_step_at_the_common_denominator(rep, data):
    space, n = rep.space, rep.space.dim
    s = mat_mul(rep.matrices[0], invert(space.omega))
    d = integer_columns([s]).scale
    i, j = data.draw(st.permutations(range(n)))[:2]
    step = Matrix([[Fraction(int((r, c) == (i, j)), d) for c in range(n)] for r in range(n)])
    asymmetric = mat_add(s, step)
    assert integer_columns([asymmetric]).scale == d
    assert asymmetric[i, j] - asymmetric[j, i] == Fraction(1, d)
    sp_to_quadratic(space, mat_mul(s, space.omega))
    with pytest.raises(NotSymplectic):
        sp_to_quadratic(space, mat_mul(asymmetric, space.omega))


@given(st.integers(0, 4).flatmap(lambda n: matrices(n, n)), st.booleans())
@settings(max_examples=80, deadline=None)
def test_is_nonsingular_agrees_with_invert(m, dependent):
    n = m.rows
    if dependent and n:
        # the last row the sum of the others, so m is singular
        rows = [list(row) for row in m.data]
        rows[-1] = [sum(col[:-1]) for col in zip(*rows)]
        m = Matrix(rows, cols=n)
    try:
        invert(m)
        invertible = True
    except SingularMatrix:
        invertible = False
    assert is_nonsingular(integer_columns([m]).columns[0], n) == invertible
