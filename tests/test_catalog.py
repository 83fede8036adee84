import sys
from fractions import Fraction

import pytest

import superweyl.catalog
import superweyl.engine
import superweyl.exactla
from oracles import (dense_adjoint, double_odd_table, linear_combination, mat_column,
                     mat_diagonal, mat_is_zero, mat_mul, mat_neg, mat_scale, odd_table,
                     oracle_rref, oracle_structure_constants, oracle_trace_gram,
                     poly_coefficient, representation_defect, superalgebra_from_table)
from superweyl.catalog import (InvalidInput, TooLarge, UnknownInstance, abelian_superalgebra,
                               build_double, build_instance, build_osp_even, build_spin_rep,
                               double_base, kron, matrix_structure_constants, so_basis, sp_basis)
from superweyl.engine import (SuperAlgebraData, SymplecticRep, casimir_image,
                              construct_superalgebra, decide, validate_rep, verify_superalgebra)
from superweyl.exactla import LinAlgError, Matrix, Scalar, SingularMatrix, as_scalar, record
from superweyl.liealg import validate_lie
from superweyl.spbridge import NotSymplectic
from superweyl.symplectic import is_in_sp, standard_space, validate_space

SL2_FORM = Matrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]])


def all_pass(s):
    return [c.name for c in verify_superalgebra(s) if not c.passed]


# -- matrix helpers --------------------------------------------------------


def test_kron_values_and_mixed_product():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.rows == 4 and k[0, 1] == 1 and k[0, 3] == 2 and k[2, 1] == 3
    c = Matrix([[1, 0], [1, 1]])
    d = Matrix([[2, 0], [0, 3]])
    assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)


def test_so_basis():
    assert so_basis(1) == []
    assert len(so_basis(2)) == 1
    assert len(so_basis(4)) == 6
    for mat in so_basis(3):
        assert mat.transpose() == mat_neg(mat)


def test_sp_basis():
    for n in (1, 2):
        basis = sp_basis(n)
        assert len(basis) == n * (2 * n + 1)
        space = standard_space(n)
        for mat in basis:
            assert is_in_sp(space, mat)
    h, e, f = sp_basis(1)
    assert h == mat_diagonal([1, -1])
    assert e == Matrix([[0, 1], [0, 0]])
    assert f == Matrix([[0, 0], [1, 0]])


def test_trace_gram_sl2():
    basis = sp_basis(1)
    assert matrix_structure_constants(basis).form == oracle_trace_gram(basis) == SL2_FORM


def test_structure_constants_sl2():
    assert matrix_structure_constants(sp_basis(1)).brackets == {
        (0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}


def test_structure_constants_refuse_open_or_dependent_bases():
    e11, e12, e21 = Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])
    # [E12, E21] = diag(1, -1) lies outside both spans: its projection under
    # the nonsingular trace form is zero on {E12, E21} and E11 on {E11, E12, E21}
    for basis in ([e12, e21], [e11, e12, e21]):
        with pytest.raises(LinAlgError) as info:
            matrix_structure_constants(basis)
        assert not isinstance(info.value, SingularMatrix), len(basis)
    with pytest.raises(SingularMatrix):
        matrix_structure_constants([e12, mat_scale(2, e12)])


def _recombined(basis):
    """b'_i = sum_j P_ij b_j for a rational unit lower-triangular P."""
    rows = [[Fraction(1) if j == i else Fraction(i - 2 * j, j + 2) if j < i else Fraction(0)
             for j in range(len(basis))] for i in range(len(basis))]
    return [linear_combination(row, basis, Matrix.from_entries({}, basis[0].rows, basis[0].cols))
            for row in rows]


def test_structure_constants_match_flatten_and_solve_oracle():
    bases = ([so_basis(m) for m in range(1, 6)] + [sp_basis(n) for n in range(1, 4)]
             + [_recombined(sp_basis(2)), _recombined(so_basis(4))])
    for basis in bases:
        assert matrix_structure_constants(basis).brackets == oracle_structure_constants(basis)


def test_structure_constants_refuse_a_degenerate_trace_form():
    # the Heisenberg algebra: closed and independent, [e12, e23] = e13, but
    # every product of two basis matrices is nilpotent, so its trace form is zero
    e12, e23, e13 = (Matrix([[int((r, c) == pos) for c in range(3)] for r in range(3)])
                     for pos in ((0, 1), (1, 2), (0, 2)))
    assert oracle_structure_constants([e12, e23, e13]) == {(0, 1): {2: 1}}
    with pytest.raises(SingularMatrix):
        matrix_structure_constants([e12, e23, e13])


def test_catalog_builds_without_the_overdetermined_solve(monkeypatch):
    # a build decides nothing: it never computes a Casimir image, and per
    # summand, in matrix_structure_constants, it inverts the trace form once
    # and clears two things once each, the basis and the inverse form
    def refuse(name):
        def refused(*args):
            raise AssertionError(f"{name} called")
        return refused

    for module in (superweyl.exactla, superweyl.engine, superweyl.catalog):
        for name in ("solve_overdetermined", "casimir_image"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    inverted, cleared = [], []
    invert, vectors = superweyl.exactla.invert, superweyl.exactla.integer_vectors

    def counted_invert(a):
        inverted.append(a.rows)
        return invert(a)

    def counted_vectors(arg):
        cleared.append(len(arg))
        return vectors(arg)

    for module in [m for key, m in sys.modules.items() if key.startswith("superweyl.")]:
        for name, original, counted in (("invert", invert, counted_invert),
                                        ("integer_vectors", vectors, counted_vectors)):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    # the summands of (2, 2) are so(2) and sp(4), those of (4, 1) so(4) and
    # sp(2); a summand of k basis matrices of size s clears k s basis columns,
    # then the k columns of the inverse form
    for (m, n), sizes, columns in (((2, 2), [1, 10], [2, 1, 40, 10]),
                                   ((4, 1), [6, 3], [24, 6, 6, 3])):
        inverted.clear()
        cleared.clear()
        rep = build_osp_even(m, n)
        assert inverted == sizes, (m, n)
        assert cleared == columns, (m, n)
    validate_lie(rep.algebra)
    validate_rep(rep)


# -- instance builders -----------------------------------------------------


def test_osp_even_1_1_equals_weight_one_spin():
    a = build_osp_even(1, 1)
    b = build_spin_rep(1)
    assert a.matrices == b.matrices
    assert a.space == b.space
    assert a.algebra.form == b.algebra.form
    assert a.algebra.brackets == b.algebra.brackets


def test_osp_even_instances_are_valid():
    for m, n in ((1, 1), (2, 1), (1, 2)):
        rep = build_osp_even(m, n)
        validate_space(rep.space)
        validate_lie(rep.algebra)
        validate_rep(rep)


# every (m, n) with 2mn <= 16, the size guard of the tensor space
IN_GUARD = [(m, n) for m in range(1, 9) for n in range(1, 9) if 2 * m * n <= 16]


def _block_diagonal(blocks):
    """The block-diagonal matrix of square ``blocks``."""
    size, rows = sum(b.rows for b in blocks), []
    for b in blocks:
        rows += [(0,) * len(rows) + row + (0,) * (size - len(rows) - b.cols) for row in b.data]
    return Matrix(rows, cols=size)


def test_osp_even_carries_the_supertrace_form():
    # orthogonal block keeps the plain trace form, symplectic block gets -1
    rep = build_osp_even(2, 1)
    expected = Matrix([[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    assert rep.algebra.form == expected
    assert len(IN_GUARD) == 20
    for m, n in IN_GUARD:
        rep = build_osp_even(m, n)
        # the trace form on so(m) and minus the trace form on sp(2n); for
        # m = 1 sp(2n) is the only summand and keeps its plain trace form
        bases = [basis for basis in (so_basis(m), sp_basis(n)) if basis]
        scales = (1, -1)[:len(bases)]
        assert rep.algebra.form == _block_diagonal(
            [mat_scale(t, oracle_trace_gram(basis)) for t, basis in zip(scales, bases)]), (m, n)
        assert decide(rep).verdict, (m, n)
        # the certificate: the obstructions P_s of the summands alone, each
        # under its plain trace form, have a one-line space of relations,
        # spanned by the inverse scales: sum_s P_s / scale_s = 0
        obstructions, start = [], 0
        for basis in bases:
            summand = matrix_structure_constants(basis)
            matrices = rep.matrices[start:start + len(basis)]
            obstructions.append(casimir_image(SymplecticRep(summand, rep.space, matrices))[0])
            start += len(basis)
        monomials = sorted({exp for p in obstructions for exp in p.terms})
        coefficients = Matrix([[poly_coefficient(p, exp) for p in obstructions]
                               for exp in monomials], cols=len(bases))
        assert len(oracle_rref(coefficients)[1]) == len(bases) - 1, (m, n)
        inverse_scales = mat_column([Fraction(1, t) for t in scales])
        assert mat_is_zero(mat_mul(coefficients, inverse_scales)), (m, n)


def test_osp_even_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_osp_even(0, 1)
    with pytest.raises(TooLarge):
        build_osp_even(3, 3)
    # a dimension too long to print is still refused as too large
    with pytest.raises(TooLarge):
        build_osp_even(1, 10**4300)
    with pytest.raises(TooLarge):
        build_osp_even(10**4300, 1)


def test_spin_rep_structure():
    rep = build_spin_rep(5)
    validate_space(rep.space)
    validate_rep(rep)
    assert rep.space.dim == 6
    h = rep.matrices[0]
    assert [h[i, i] for i in range(6)] == [5, 3, 1, -1, -3, -5]


def test_spin_rep_rejects_bad_weight():
    with pytest.raises(ValueError):
        build_spin_rep(0)
    with pytest.raises(NotSymplectic):
        build_spin_rep(2)
    with pytest.raises(TooLarge):
        build_spin_rep(9)


# -- doubles ---------------------------------------------------------------


def test_double_shapes_and_validity():
    for name in ("abelian1", "gl11", "osp12"):
        base = double_base(name)
        rep = build_double(base)
        assert rep.algebra.dim == 2 * base.rep.algebra.dim
        assert rep.space.dim == 2 * base.rep.space.dim
        validate_space(rep.space) if rep.space.dim else None
        validate_lie(rep.algebra)
        validate_rep(rep)
        # the structure the hand-written odd table defines is a superalgebra
        assert all_pass(SuperAlgebraData(rep, double_odd_table(base))) == []


def test_double_reconstruction_round_trip():
    for name in ("abelian1", "gl11", "osp12"):
        base = double_base(name)
        rep = build_double(base)
        assert decide(rep).verdict
        rebuilt = construct_superalgebra(rep)
        assert rebuilt.odd_odd == double_odd_table(base)
        assert rebuilt.rep is rep


def test_double_of_purely_even_input():
    rep = build_double(abelian_superalgebra(2))
    assert rep.space.dim == 0 and rep.algebra.dim == 4
    assert decide(rep).verdict


def test_double_rejects_broken_input():
    base = double_base("gl11")
    bad = superalgebra_from_table(base.rep, {**odd_table(base), (0, 0): (1, 0)})
    with pytest.raises(InvalidInput):
        build_double(bad)


# -- supertrace forms ------------------------------------------------------


def _gram_of_supertrace(mats, d0):
    """[str(M_i M_j)] with str(M) = sum_{u<d0} M_uu - sum_{u>=d0} M_uu."""
    def supertrace(m):
        return sum(m[u, u] for u in range(d0)) - sum(m[u, u] for u in range(d0, m.rows))
    return Matrix([[supertrace(mat_mul(a, b)) for b in mats] for a in mats], cols=len(mats))


def test_adjoint_supertrace_of_simple_superalgebra():
    # both blocks come out exactly three times the defining-normalized form
    s = double_base("osp12")
    ad, k = dense_adjoint(s), s.rep.algebra.dim
    assert _gram_of_supertrace(ad[:k], k) == mat_scale(3, s.rep.algebra.form)
    assert _gram_of_supertrace(ad[k:], k) == mat_scale(3, s.rep.space.omega)


def test_defining_supertrace_of_gl11():
    # E11, E22 even and E12, E21 odd represent the base, and their
    # supertrace forms are the forms the builder chose
    s = double_base("gl11")
    rho = [Matrix([[1, 0], [0, 0]]), Matrix([[0, 0], [0, 1]]),
           Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])]
    ad, k = dense_adjoint(s), s.rep.algebra.dim
    assert all(mat_is_zero(representation_defect(ad, rho, k, x, y))
               for x in range(s.dim) for y in range(s.dim))
    assert _gram_of_supertrace(rho[:k], 1) == s.rep.algebra.form == mat_diagonal([1, -1])
    assert _gram_of_supertrace(rho[k:], 1) == s.rep.space.omega == Matrix([[0, 1], [-1, 0]])


# -- registry --------------------------------------------------------------


@record
class InstanceDescriptor:
    name: str
    parameters: tuple
    expected_verdict: bool
    expected_scalar: Scalar | None = None


CATALOG_INSTANCES: tuple[InstanceDescriptor, ...] = (
    InstanceDescriptor("gl11", (), True, as_scalar(0)),
    InstanceDescriptor("osp_even", (1, 1), True, as_scalar("-3/8")),
    InstanceDescriptor("osp_even", (2, 1), True),
    InstanceDescriptor("osp_even", (1, 2), True),
    InstanceDescriptor("spin", (1,), True, as_scalar("-3/8")),
    InstanceDescriptor("spin", (3,), False),
    InstanceDescriptor("double", ("abelian1",), True, as_scalar(0)),
    InstanceDescriptor("double", ("gl11",), True),
    InstanceDescriptor("double", ("osp12",), True),
)


def test_registry_expectations():
    for desc in CATALOG_INSTANCES:
        rep = build_instance(desc.name, desc.parameters)
        report = decide(rep)
        assert report.verdict == desc.expected_verdict, desc
        if desc.expected_scalar is not None:
            assert report.casimir_scalar == desc.expected_scalar, desc


def test_build_instance_errors():
    with pytest.raises(UnknownInstance):
        build_instance("nonsense", ())
    with pytest.raises(UnknownInstance):
        double_base("nonsense")
    with pytest.raises(InvalidInput):
        build_instance("gl11", (1,))
    with pytest.raises(InvalidInput):
        build_instance("osp_even", (1,))
    with pytest.raises(InvalidInput):
        build_instance("spin", ("x",))
