"""Differential tests: the closed forms of the working path against the
Weyl-product model.

The engine lifts matrices with 1/4 sum (alpha omega^-1)_ij x_i x_j, pairs
quadratics with the permanent (x_i x_j, x_a x_b) = w_ia w_jb + w_ib w_ja,
reads the Casimir image as commutative product plus pairing, fits the
trace ratio from closed forms of both bilinear forms, and reads the
transpose of the lift off omega and the dual matrices.  Each is compared
here with its definition: the Gram-solve lift of
``oracles.oracle_sp_to_quadratic``, ``weyl.bilinear_form``, the graded
parts of sums of ``weyl.weyl_product``, the matrix-by-matrix fit of
``oracles.oracle_trace_ratio_constant`` and the polynomial pairings of
``oracles.oracle_quadratic_lift_adjoint``.  Spaces are the standard ones or
their images under a random change of basis Q (omega -> Q^T omega Q), so
dense, non-standard form matrices are covered.  A change of basis P of g0
together with Q of v must carry verdict, scalar, obstruction and odd
bracket covariantly.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (algebra_from_table, bracket_vectors, casimir_obstruction, form_value,
                     linear_combination, mat_add, mat_apply, mat_diagonal, mat_mul, mat_scale,
                     odd_bracket, oracle_quadratic_lift_adjoint, oracle_sp_to_quadratic,
                     oracle_trace_ratio_constant)
from superweyl.catalog import (build_double, build_gl11_even, build_osp_even,
                               build_spin_rep, double_base)
from superweyl.engine import (SymplecticRep, casimir_image, construct_superalgebra, decide,
                              quadratic_lift, quadratic_lift_adjoint, validate_rep)
from superweyl.exactla import DimensionMismatch, Matrix, invert
from superweyl.jsonio import load_problem
from superweyl.liealg import QuadraticLieAlgebra, casimir_pairs, validate_lie
from superweyl.spbridge import (NotSymplectic, quadratic_monomials, quadratic_pairing,
                                quadratic_to_sp, sp_to_quadratic, trace_ratio_constant)
from superweyl.symplectic import SymplecticSpace, is_in_sp, standard_space, validate_space
from superweyl.weyl import (PolyElement, bilinear_form, constant_term, grade,
                            sym_product, weyl_commutator, weyl_product)

ENTRIES = st.sampled_from([Fraction(x)
                           for x in ("-2", "-1", "-1/2", "0", "0", "1/3", "1", "3/2")])
NONZERO = st.sampled_from([Fraction(x) for x in ("-2", "-1", "-1/3", "1/2", "1", "3")])


@st.composite
def changes_of_basis(draw, n):
    """A product L U of a unit lower and an upper triangular matrix with
    nonzero diagonal, so invertible by construction."""
    lower = Matrix([[1 if i == j else draw(ENTRIES) if j < i else 0 for j in range(n)]
                    for i in range(n)])
    upper = Matrix([[draw(NONZERO) if i == j else draw(ENTRIES) if j > i else 0
                     for j in range(n)] for i in range(n)])
    return mat_mul(lower, upper)


@st.composite
def spaces(draw, max_half=2):
    """A standard space, or its form rewritten in a random basis."""
    base = standard_space(draw(st.integers(1, max_half)))
    if not draw(st.booleans()):
        return base
    q = draw(changes_of_basis(base.dim))
    return SymplecticSpace(mat_mul(q.transpose(), base.omega, q))


@st.composite
def sp_elements(draw, space):
    """omega^-1 T for a random symmetric T: every element of sp(omega) has this form."""
    n = space.dim
    upper = [[draw(ENTRIES) if j >= i else 0 for j in range(n)] for i in range(n)]
    sym = Matrix([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    return mat_mul(invert(space.omega), sym)


@st.composite
def quadratics(draw, space):
    total = PolyElement.zero(space)
    for mono in quadratic_monomials(space):
        total = total + draw(ENTRIES) * mono
    return total


@st.composite
def space_with_sp_element(draw):
    space = draw(spaces(max_half=3))
    return space, draw(sp_elements(space))


@given(space_with_sp_element())
@settings(max_examples=40, deadline=None)
def test_lift_matches_gram_solve_oracle(data):
    space, alpha = data
    w = sp_to_quadratic(space, alpha)
    assert w == oracle_sp_to_quadratic(space, alpha)
    assert quadratic_to_sp(w) == alpha


@st.composite
def space_with_any_matrix(draw):
    """A space and a rational matrix on it: an element of sp(omega), one
    with a single entry moved, an arbitrary square matrix, or one of the
    wrong shape."""
    space = draw(spaces())
    n = space.dim
    kind = draw(st.sampled_from(["sp", "moved", "square", "wide", "tall"]))
    if kind in ("sp", "moved"):
        alpha = draw(sp_elements(space))
        if kind == "moved":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            alpha = mat_add(alpha, mat_scale(draw(NONZERO),
                                             Matrix([[int((r, c) == (i, j)) for c in range(n)]
                                                     for r in range(n)])))
        return space, alpha
    rows, cols = {"square": (n, n), "wide": (n, n + 1), "tall": (n + 1, n)}[kind]
    return space, Matrix([[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)], cols=cols)


@given(space_with_any_matrix())
@settings(max_examples=60, deadline=None)
def test_lift_refuses_exactly_the_matrices_outside_sp(data):
    # the lift's symmetry test on alpha omega^-1 stands in for is_in_sp
    space, alpha = data
    if (alpha.rows, alpha.cols) != (space.dim, space.dim):
        with pytest.raises(DimensionMismatch):
            sp_to_quadratic(space, alpha)
    elif is_in_sp(space, alpha):
        assert quadratic_to_sp(sp_to_quadratic(space, alpha)) == alpha
    else:
        with pytest.raises(NotSymplectic):
            sp_to_quadratic(space, alpha)


@st.composite
def space_with_two_quadratics(draw):
    space = draw(spaces())
    return draw(quadratics(space)), draw(quadratics(space))


@given(space_with_two_quadratics())
@settings(max_examples=40, deadline=None)
def test_quadratic_pairing_matches_bilinear_form(pair_of_quadratics):
    a, b = pair_of_quadratics
    assert quadratic_pairing(a, b) == bilinear_form(a, b)
    assert quadratic_pairing(a, b) == quadratic_pairing(b, a)


def check_trace_ratio_and_anchor(space):
    # the oracle's brute-force anchor is (x_0^2, x_q^2), q the first row with omega_q0 != 0
    constant, anchor = oracle_trace_ratio_constant(space)
    assert trace_ratio_constant(space) == constant == Fraction(-1, 8)
    q = next(i for i in range(space.dim) if space.omega[i, 0] != 0)
    assert anchor == ((0, 0), (q, q))


@given(spaces(max_half=4))
@settings(max_examples=12, deadline=None)
def test_trace_ratio_matches_matrix_oracle(space):
    check_trace_ratio_and_anchor(space)


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SPACES = {path.name: space for path in sorted(GOLDEN.glob("*.json"))
                 if len(path.suffixes) == 1 and path.name != "manifest.json"
                 for space in [load_problem(str(path)).space] if space.dim >= 2}


def test_golden_spaces_are_the_twelve_with_n_at_least_two():
    assert len(GOLDEN_SPACES) == 12
    assert {"conj-osp_even-2-1.json", "conj-spin-3.json"} <= GOLDEN_SPACES.keys()


@pytest.mark.parametrize("name", sorted(GOLDEN_SPACES))
def test_trace_ratio_anchor_on_golden_spaces(name):
    check_trace_ratio_and_anchor(GOLDEN_SPACES[name])


@st.composite
def casimir_data(draw):
    """Random elements alpha_1..alpha_k of sp(omega) and random dual
    coefficients; the graded split of the Casimir-like sum holds for any."""
    space = draw(spaces())
    k = draw(st.integers(1, 3))
    alphas = [draw(sp_elements(space)) for _ in range(k)]
    duals = [[draw(ENTRIES) for _ in range(k)] for _ in range(k)]
    return space, alphas, duals


@given(casimir_data())
@settings(max_examples=25, deadline=None)
def test_casimir_split_matches_weyl_products(data):
    space, alphas, duals = data
    lifts = [oracle_sp_to_quadratic(space, alpha) for alpha in alphas]
    dual_lifts = [sum((c * lift for c, lift in zip(dual, lifts)), PolyElement.zero(space))
                  for dual in duals]
    total = PolyElement.zero(space)
    commutators = PolyElement.zero(space)
    for lift, dual_lift in zip(lifts, dual_lifts):
        total = total + weyl_product(lift, dual_lift)
        commutators = commutators + weyl_commutator(lift, dual_lift)
    image, zero = grade(total), PolyElement.zero(space)
    assert set(image) <= {0, 2, 4}

    closed_lifts = [sp_to_quadratic(space, alpha) for alpha in alphas]
    closed_duals = [linear_combination(dual, closed_lifts, PolyElement.zero(space))
                    for dual in duals]
    assert casimir_obstruction(space, closed_lifts, closed_duals) == image.get(4, zero)
    scalar = sum((quadratic_pairing(a, b) for a, b in zip(closed_lifts, dual_lifts)), Fraction(0))
    assert scalar == constant_term(image.get(0, zero))
    assert image.get(2, zero) == Fraction(1, 2) * commutators


def _conjugate_space(rep: SymplecticRep, q: Matrix) -> SymplecticRep:
    """The same representation in the basis given by the columns of Q:
    omega -> Q^T omega Q and nu -> Q^-1 nu Q."""
    q_inv = invert(q)
    space = SymplecticSpace(mat_mul(q.transpose(), rep.space.omega, q))
    return SymplecticRep(rep.algebra, space, tuple(mat_mul(q_inv, m, q) for m in rep.matrices))


BASE_REPS = {
    "gl11": build_gl11_even,
    "osp_even(1,1)": lambda: build_osp_even(1, 1),
    "spin 3": lambda: build_spin_rep(3),
    "double gl11": lambda: build_double(double_base("gl11")).rep,
}


@st.composite
def conjugated_reps(draw):
    base = BASE_REPS[draw(st.sampled_from(sorted(BASE_REPS)))]()
    return base, _conjugate_space(base, draw(changes_of_basis(base.space.dim)))


@given(conjugated_reps())
@settings(max_examples=12, deadline=None)
def test_analysis_matches_weyl_path_in_random_symplectic_basis(reps):
    base, rep = reps
    lifts = [oracle_sp_to_quadratic(rep.space, m) for m in rep.matrices]
    assert [quadratic_lift(rep, i) for i in range(rep.algebra.dim)] == lifts
    total = PolyElement.zero(rep.space)
    for i, dual in enumerate(casimir_pairs(rep.algebra)):
        dual_lift = sum((c * lift for c, lift in zip(dual, lifts)), PolyElement.zero(rep.space))
        total = total + weyl_product(lifts[i], dual_lift)
    image, zero = grade(total), PolyElement.zero(rep.space)
    assert set(image) <= {0, 4}
    obstruction, scalar = casimir_image(rep)
    assert obstruction == image.get(4, zero)
    assert scalar == constant_term(image.get(0, zero))

    # the verdict and the scalar do not depend on the basis of v
    report, base_report = decide(rep), decide(base)
    assert report.verdict == base_report.verdict
    assert report.casimir_scalar == base_report.casimir_scalar


@st.composite
def reps_with_quadratic(draw):
    _, rep = draw(conjugated_reps())
    return rep, draw(quadratics(rep.space))


@given(reps_with_quadratic())
@settings(max_examples=12, deadline=None)
def test_lift_adjoint_matches_pairing_oracle(data):
    rep, w = data
    assert quadratic_lift_adjoint(rep, w) == oracle_quadratic_lift_adjoint(rep, w)


@given(quadratics(standard_space(2)))
@settings(max_examples=12, deadline=None)
def test_lift_adjoint_holds_for_an_asymmetric_form(w):
    # commuting nu, so the degree-two part vanishes for any B; with B not
    # symmetric the dual matrices are not nu(x^l), and the closed form must
    # still give B(x_i, t) = (lift_i, w)
    space = standard_space(2)
    algebra = QuadraticLieAlgebra({}, Matrix([[1, 2], [0, 1]]))
    rep = SymplecticRep(algebra, space, (mat_diagonal([1, 0, -1, 0]),
                                         mat_diagonal([1, 2, -1, -2])))
    t = quadratic_lift_adjoint(rep, w)
    assert t == oracle_quadratic_lift_adjoint(rep, w)
    for i, nu in enumerate(rep.matrices):
        unit = tuple(Fraction(int(l == i)) for l in range(2))
        lift = sp_to_quadratic(space, nu)
        assert form_value(algebra, unit, t) == bilinear_form(lift, w)


def _change_basis(rep: SymplecticRep, p: Matrix, q: Matrix) -> SymplecticRep:
    """The same problem in the basis x'_i = sum_j P_ji x_j of g0 and
    y'_a = sum_c Q_ca y_c of v: B' = P^T B P, brackets re-expanded through
    P^-1, nu'_i = sum_j P_ji Q^-1 nu_j Q and omega' = Q^T omega Q."""
    k, p_inv = rep.algebra.dim, invert(p)
    table = {(i, j): mat_apply(p_inv, bracket_vectors(rep.algebra, p.col(i), p.col(j)))
             for i in range(k) for j in range(i + 1, k)}
    algebra = algebra_from_table(table, mat_mul(p.transpose(), rep.algebra.form, p))
    conjugated = _conjugate_space(rep, q)
    zero = Matrix.from_entries({}, rep.space.dim)
    return SymplecticRep(algebra, conjugated.space,
                         tuple(linear_combination(p.col(i), conjugated.matrices, zero)
                               for i in range(k)))


def _substitute(poly: PolyElement, m: Matrix, space: SymplecticSpace) -> PolyElement:
    """``poly`` with each y_c replaced by sum_a m_ac y'_a, on ``space``."""
    images = [PolyElement.from_vector(space, m.col(c)) for c in range(space.dim)]
    total = PolyElement.zero(space)
    for exp, coeff in poly.terms.items():
        term = PolyElement.constant(space, coeff)
        for c, power in enumerate(exp):
            for _ in range(power):
                term = sym_product(term, images[c])
        total = total + term
    return total


@st.composite
def problems_in_new_bases(draw):
    base = BASE_REPS[draw(st.sampled_from(sorted(BASE_REPS)))]()
    p = draw(changes_of_basis(base.algebra.dim))
    q = draw(changes_of_basis(base.space.dim))
    return base, p, q, _change_basis(base, p, q)


@given(problems_in_new_bases())
@settings(max_examples=12, deadline=None)
def test_answers_are_covariant_under_change_of_basis(data):
    base, p, q, rep = data
    validate_space(rep.space)
    validate_lie(rep.algebra)
    validate_rep(rep)
    report, base_report = decide(rep), decide(base)
    assert report.verdict == base_report.verdict
    assert report.casimir_scalar == base_report.casimir_scalar
    assert report.obstruction == _substitute(base_report.obstruction, invert(q), rep.space)
    if not report.verdict:
        return
    s, base_s = construct_superalgebra(rep), construct_superalgebra(base)
    p_inv, n = invert(p), rep.space.dim
    for a in range(n):
        for b in range(a, n):
            old = [sum((q[c, a] * q[d, b] * odd_bracket(base_s, c, d)[l]
                        for c in range(n) for d in range(n)), Fraction(0))
                   for l in range(rep.algebra.dim)]
            assert odd_bracket(s, a, b) == mat_apply(p_inv, old)
