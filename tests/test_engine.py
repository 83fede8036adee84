import json
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import superweyl.engine
import superweyl.exactla
import superweyl.spbridge
import superweyl.symplectic
from oracles import (bracket, bracket_vectors, dense_adjoint, form_value, linear_combination,
                     mat_add, mat_apply, mat_mul, mat_scale, odd_bracket, odd_table, replace,
                     superalgebra_from_table)
from superweyl.catalog import build_gl11_even, build_osp_even, build_spin_rep
from superweyl.cli import main
from superweyl.engine import (InternalDegreeLeak, NotARepresentation,
                              NotSuperLieType, SuperAlgebraData, SymplecticRep,
                              casimir_image, construct_superalgebra,
                              construct_superalgebra_unchecked, decide,
                              jacobiator, jacobiator_from_obstruction,
                              quadratic_lift, quadratic_lift_adjoint,
                              validate_rep, verify_superalgebra)
from superweyl.exactla import DimensionMismatch, Matrix, invert
from superweyl.jsonio import load_problem
from superweyl.liealg import QuadraticLieAlgebra, validate_lie
from superweyl.spbridge import NotSymplectic
from superweyl.symplectic import SymplecticSpace, standard_space, validate_space
from superweyl.weyl import PolyElement

GOLDEN = Path(__file__).resolve().parent / "golden"
S1 = standard_space(1)
E = PolyElement.variable(S1, 0)
F = PolyElement.variable(S1, 1)

VERIFY_NAMES = [
    "graded_antisymmetry",
    "jacobi_eee", "jacobi_eeo", "jacobi_eoe", "jacobi_eoo",
    "jacobi_oee", "jacobi_oeo", "jacobi_ooe", "jacobi_ooo",
    "form_invariance", "form_supersymmetry", "form_nonsingular",
]


def osp11():
    return build_osp_even(1, 1)


# -- validation ------------------------------------------------------------


def test_validate_rep_accepts_catalog_instances():
    for rep in (osp11(), build_gl11_even(), build_spin_rep(3)):
        validate_rep(rep)


def test_validate_rep_rejects_non_symplectic_matrix():
    g = QuadraticLieAlgebra.abelian(1)
    rep = SymplecticRep(g, S1, (Matrix.identity(2),))
    with pytest.raises(NotSymplectic) as info:
        validate_rep(rep)
    assert info.value.index == 0


def test_validate_rep_rejects_wrong_commutator():
    # abelian table but matrices with a nonzero commutator
    g = QuadraticLieAlgebra.abelian(2, Matrix.diagonal([1, -1]))
    rep = SymplecticRep(g, S1, (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])))
    with pytest.raises(NotARepresentation):
        validate_rep(rep)


def test_rep_shape_check():
    g = QuadraticLieAlgebra.abelian(2)
    with pytest.raises(ValueError, match="one matrix per basis element"):
        SymplecticRep(g, S1, (Matrix.zeros(2, 2),))
    with pytest.raises(ValueError, match="square of the space dimension"):
        SymplecticRep(g, S1, (Matrix.zeros(2, 2), Matrix.identity(3)))
    with pytest.raises(ValueError, match="square of the space dimension"):
        SymplecticRep(g, S1, (Matrix.zeros(2, 2), Matrix.zeros(2, 3)))


# -- quadratic lifts -------------------------------------------------------


def test_lift_values_for_sl2_action():
    rep = osp11()
    assert quadratic_lift(rep, 0) == Fraction(-1, 2) * (E * F)
    assert quadratic_lift(rep, 1) == Fraction(1, 4) * (E * E)
    assert quadratic_lift(rep, 2) == Fraction(-1, 4) * (F * F)


def test_lift_is_equivariant():
    # lifting intertwines the bracket with the noncommutative commutator
    from superweyl.weyl import weyl_commutator
    for rep in (osp11(), build_spin_rep(3)):
        lifts = [quadratic_lift(rep, i) for i in range(rep.algebra.dim)]
        for i in range(rep.algebra.dim):
            for j in range(rep.algebra.dim):
                expected = PolyElement.zero(rep.space)
                for l, c in enumerate(bracket(rep.algebra, i, j)):
                    if c != 0:
                        expected = expected + c * lifts[l]
                assert weyl_commutator(lifts[i], lifts[j]) == expected


def test_lift_adjoint_values():
    rep = osp11()
    assert quadratic_lift_adjoint(rep, E * E) == (0, Fraction(-1, 2), 0)
    assert quadratic_lift_adjoint(rep, E * F) == (Fraction(1, 4), 0, 0)
    assert quadratic_lift_adjoint(rep, F * F) == (0, 0, Fraction(1, 2))


def test_lift_adjoint_refuses_a_non_quadratic():
    rep = osp11()
    for w in (E, E * E + PolyElement.constant(S1, 1), E * E * F):
        with pytest.raises(ValueError, match="homogeneous quadratic"):
            quadratic_lift_adjoint(rep, w)


def test_lift_adjoint_defining_property():
    # B(x_i, t) = (lift_i, w) for every i
    from superweyl.weyl import bilinear_form
    rng = random.Random(4)
    rep = build_spin_rep(3)
    lifts = [quadratic_lift(rep, i) for i in range(3)]
    for _ in range(5):
        exp = [0] * 4
        exp[rng.randrange(4)] += 1
        exp[rng.randrange(4)] += 1
        w = PolyElement.monomial(rep.space, exp, rng.randint(1, 3))
        t = quadratic_lift_adjoint(rep, w)
        for i in range(3):
            unit = tuple(Fraction(1 if k == i else 0) for k in range(3))
            assert form_value(rep.algebra, unit, t) == bilinear_form(lifts[i], w)


# -- the Casimir image and the verdict -------------------------------------


def test_casimir_image_values():
    obstruction, scalar = casimir_image(osp11())
    assert obstruction.is_zero() and scalar == Fraction(-3, 8)

    obstruction, scalar = casimir_image(build_gl11_even())
    assert obstruction.is_zero() and scalar == 0

    obstruction, _ = casimir_image(build_spin_rep(3))
    assert not obstruction.is_zero()


def test_degree_leak_detected_on_corrupt_input():
    # an asymmetric "form" breaks the cancellation that confines the image
    # to degrees zero and four; the engine must refuse loudly
    g = QuadraticLieAlgebra.abelian(2, Matrix([[1, 1], [0, 1]]))
    rep = SymplecticRep(g, S1, (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])))
    with pytest.raises(InternalDegreeLeak):
        casimir_image(rep)


def test_decide_takes_its_input_as_validated():
    # two non-commuting sp(omega) matrices on an abelian g0 with B = I: the
    # lifts and the degree-two leak test pass, so decide answers (obstructed),
    # and only validate_rep sees that they do not represent the bracket
    rep = SymplecticRep(QuadraticLieAlgebra.abelian(2), S1,
                        (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])))
    assert decide(rep).obstruction == Fraction(1, 16) * (E * E * E * E + F * F * F * F)
    with pytest.raises(NotARepresentation):
        validate_rep(rep)


def test_one_analysis_per_representation(monkeypatch):
    # the lifts run once, in casimir_image, and omega and B are inverted
    # once each, however many of the validators and entry points read them;
    # nothing calls is_in_sp, since validate_rep tests nu against sp(omega)
    # on rep.matrix_columns, and the dual lifts and dual matrices are
    # integer sums, with no Fraction linear combination
    originals = {"sp_to_quadratic": superweyl.spbridge.sp_to_quadratic,
                 "solve_linear": superweyl.exactla.solve_linear,
                 "is_in_sp": superweyl.symplectic.is_in_sp,
                 "linear_combination": linear_combination}
    counts = dict.fromkeys(originals, 0)
    for module, name in ((superweyl.engine, "sp_to_quadratic"),
                         (superweyl.exactla, "solve_linear"),
                         (superweyl.engine, "is_in_sp"),
                         (superweyl.spbridge, "is_in_sp"),
                         (superweyl.engine, "linear_combination")):
        def counted(*args, _name=name):
            counts[_name] += 1
            return originals[_name](*args)
        # spbridge no longer imports is_in_sp; patching it anyway would count
        # a membership test brought back into the lift
        monkeypatch.setattr(module, name, counted, raising=False)
    rep = load_problem(str(GOLDEN / "osp_even-1-2.json"))
    validate_space(rep.space)
    validate_lie(rep.algebra)
    validate_rep(rep)
    assert decide(rep).verdict
    construct_superalgebra_unchecked(rep)
    assert rep.algebra.dim == 10
    assert counts == {"sp_to_quadratic": 10, "solve_linear": 2, "is_in_sp": 0,
                      "linear_combination": 0}


def _patch_everywhere(monkeypatch, name, original, replacement):
    """Replace ``original`` by ``replacement`` in every module of the package
    that holds it under ``name``."""
    modules = [module for key, module in sorted(sys.modules.items())
               if key.startswith("superweyl.") and getattr(module, name, None) is original]
    assert superweyl.exactla in modules
    for module in modules:
        monkeypatch.setattr(module, name, replacement)


def _nonzero(columns):
    return [frozenset((key, x) for key, x in col.items() if x) for col in columns]


def test_forms_and_inverses_are_cleared_once_per_side(monkeypatch):
    # every clearing of denominators ends in exactla.integer_vectors; B and
    # omega are cleared once for the validators and the engine and once for
    # verify, which reads none of their views, and B^-1 and omega^-1 once each
    rep = load_problem(str(GOLDEN / "conj-osp_even-2-1.json"))
    form, omega = rep.algebra.form, rep.space.omega
    targets = {name: _nonzero(dict(enumerate(col)) for col in m.columns())
               for name, m in (("B", form), ("omega", omega), ("B^-1", invert(form)),
                               ("omega^-1", invert(omega)))}
    cleared = dict.fromkeys(targets, 0)
    inverted = []
    vectors, inverse = superweyl.exactla.integer_vectors, superweyl.exactla.invert

    def counted_vectors(arg):
        seen = _nonzero(arg)
        for name, target in targets.items():
            if any(seen[i:i + len(target)] == target for i in range(len(seen))):
                cleared[name] += 1
        return vectors(arg)

    def counted_invert(a):
        inverted.append(a.rows)
        return inverse(a)

    _patch_everywhere(monkeypatch, "integer_vectors", vectors, counted_vectors)
    _patch_everywhere(monkeypatch, "invert", inverse, counted_invert)
    validate_space(rep.space)
    validate_lie(rep.algebra)
    validate_rep(rep)
    assert decide(rep).verdict
    s = construct_superalgebra_unchecked(rep)
    assert cleared == {"B": 1, "omega": 1, "B^-1": 1, "omega^-1": 1}
    assert all(check.passed for check in verify_superalgebra(s))
    assert cleared == {"B": 2, "omega": 2, "B^-1": 1, "omega^-1": 1}
    assert sorted(inverted) == [rep.space.dim, rep.algebra.dim]


@pytest.mark.parametrize("name", ["conj-osp_even-2-1", "conj-spin-3"])
def test_each_nu_is_cleared_once_to_validate_and_twice_to_test(monkeypatch, tmp_path, capsys,
                                                               name):
    # validate_rep tests nu against sp(omega) on rep.matrix_columns, the one
    # clearing of nu outside the lift; the lift in sp_to_quadratic clears each
    # nu_i once more.  verify clears nu again, on purpose, only as the odd
    # block of its own adjoint matrices, at other rows, which this does not count
    path = str(GOLDEN / f"{name}.json")
    targets = [_nonzero(dict(enumerate(col)) for col in m.columns())
               for m in load_problem(path).matrices]
    cleared = [0] * len(targets)
    vectors = superweyl.exactla.integer_vectors

    def counted_vectors(arg):
        seen = _nonzero(arg)
        for t, target in enumerate(targets):
            if any(seen[i:i + len(target)] == target for i in range(len(seen))):
                cleared[t] += 1
        return vectors(arg)

    _patch_everywhere(monkeypatch, "integer_vectors", vectors, counted_vectors)
    assert main(["validate", path]) == 0
    assert cleared == [1] * len(targets)
    cleared[:] = [0] * len(targets)
    assert main(["test", path, "--report", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert cleared == [2] * len(targets)


def test_decide_positive_instances():
    r = decide(osp11())
    assert r.verdict and r.casimir_scalar == Fraction(-3, 8)
    assert r.obstruction.is_zero()
    names = [c.name for c in r.diagnostics]
    assert names == ["degree_confinement", "trace_ratio_fitted",
                     "trace_ratio_magnitude_eighth", "trace_identity"]
    assert all(c.passed for c in r.diagnostics)

    r = decide(build_gl11_even())
    assert r.verdict and r.casimir_scalar == 0


def test_decide_negative_instance():
    r = decide(build_spin_rep(3))
    assert not r.verdict
    assert r.casimir_scalar is None
    assert r.obstruction.is_homogeneous(4) and not r.obstruction.is_zero()


def test_trace_identity():
    r = decide(osp11())
    diagnostics = {d.name: d for d in r.diagnostics}
    identity, fitted = diagnostics["trace_identity"], diagnostics["trace_ratio_fitted"]
    rhs, c = Fraction(identity.witness), Fraction(fitted.witness)
    assert identity.passed and r.casimir_scalar == rhs == Fraction(-3, 8)
    assert c == Fraction(-1, 8)
    # so the trace of the Casimir in the defining matrices is 3
    assert rhs / c == 3
    assert "trace_identity" not in {d.name for d in decide(build_spin_rep(3)).diagnostics}


def test_zero_dimensional_odd_space():
    g = QuadraticLieAlgebra.abelian(2, Matrix.diagonal([1, 1]))
    space = SymplecticSpace(0, Matrix([], cols=0))
    rep = SymplecticRep(g, space, (Matrix([], cols=0), Matrix([], cols=0)))
    validate_rep(rep)
    r = decide(rep)
    assert r.verdict and r.casimir_scalar == 0
    s = construct_superalgebra(rep)
    assert s.rep is rep and s.dim == 2
    assert all(c.passed for c in verify_superalgebra(s))


# -- construction ----------------------------------------------------------


def test_construct_matches_hand_tables_for_gl11():
    rep = build_gl11_even()
    s = construct_superalgebra(rep)
    assert s.rep is rep
    assert odd_bracket(s, 0, 1) == (1, 1)
    assert odd_bracket(s, 1, 0) == (1, 1)
    assert odd_bracket(s, 0, 0) == (0, 0)
    assert odd_bracket(s, 1, 1) == (0, 0)
    assert s.rep.algebra.form == Matrix([[1, 0], [0, -1]])
    assert s.rep.space.omega == Matrix([[0, 1], [-1, 0]])


def test_construct_matches_hand_tables_for_sl2_action():
    s = construct_superalgebra(osp11())
    assert odd_bracket(s, 0, 0) == (0, -1, 0)
    assert odd_bracket(s, 0, 1) == (Fraction(1, 2), 0, 0)
    assert odd_bracket(s, 1, 1) == (0, 0, 1)


def test_construct_refuses_negative_instance():
    with pytest.raises(NotSuperLieType) as info:
        construct_superalgebra(build_spin_rep(3))
    assert not info.value.obstruction.is_zero()


def test_verify_names_and_all_pass():
    for rep in (osp11(), build_gl11_even()):
        checks = verify_superalgebra(construct_superalgebra(rep))
        assert [c.name for c in checks] == VERIFY_NAMES
        assert all(c.passed for c in checks)


def test_unchecked_construction_fails_only_odd_jacobi():
    s = construct_superalgebra_unchecked(build_spin_rep(3))
    outcomes = {c.name: c.passed for c in verify_superalgebra(s)}
    assert not outcomes["jacobi_ooo"]
    assert all(ok for name, ok in outcomes.items() if name != "jacobi_ooo")


def test_odd_bracket_is_rigid():
    # perturbing any single odd-bracket coordinate, stored or zero, must
    # break some axiom
    rep = osp11()
    base = construct_superalgebra(rep)
    table = odd_table(base)
    trials = 0
    for key, coords in table.items():
        for l in range(3):
            perturbed = list(coords)
            perturbed[l] += 1
            trial = superalgebra_from_table(base.rep, {**table, key: perturbed})
            assert any(not c.passed for c in verify_superalgebra(trial))
            trials += 1
    assert trials == 9


# -- shape checks and the adjoint view ---------------------------------------


def test_superalgebra_shape_checks():
    s = construct_superalgebra(osp11())  # k = 3, n = 2
    for key in [(1, 0), (0, 2), (-1, 0), (0,)]:
        with pytest.raises(ValueError, match="odd bracket key"):
            replace(s, odd_odd={**s.odd_odd, key: {0: Fraction(1)}})
    with pytest.raises(DimensionMismatch, match="coordinate"):
        replace(s, odd_odd={**s.odd_odd, (0, 1): {3: Fraction(1)}})


def test_odd_table_stores_exactly_the_nonzero_entries():
    # the construct file writes every pair with all k coordinates; the
    # record keeps only the nonzero ones, and the report lists its pairs
    structures = sorted(GOLDEN.glob("*.super.json"))
    assert len(structures) >= 8
    for path in structures:
        stem = path.name.removesuffix(".super.json")
        s = construct_superalgebra(load_problem(str(GOLDEN / f"{stem}.json")))
        written = json.loads(path.read_text())["odd_brackets"]
        nonzero = {(a, b): {l: Fraction(c) for l, c in enumerate(coords) if c != "0"}
                   for a, b, coords in written}
        assert s.odd_odd == {key: col for key, col in nonzero.items() if col}, stem
        report = json.loads((GOLDEN / f"{stem}.report.json").read_text())
        assert [(a, b) for a, b, _ in report["odd_brackets"]] == sorted(s.odd_odd), stem
    s = construct_superalgebra(build_gl11_even())
    assert s.odd_odd == {(0, 1): {0: 1, 1: 1}}
    assert s.odd_bracket(1, 0) == {0: 1, 1: 1} and s.odd_bracket(1, 1) == {}
    for col in ({0: Fraction(0)}, {}, {0: Fraction(1), 1: Fraction(0)}):
        with pytest.raises(ValueError, match="zero coefficient or an empty map"):
            SuperAlgebraData(s.rep, {(0, 0): col})
    with pytest.raises(DimensionMismatch):
        SuperAlgebraData(s.rep, {(0, 0): {2: Fraction(1)}})


def test_adjoint_columns_read_the_tables():
    s = construct_superalgebra(osp11())
    algebra, nus = s.rep.algebra, s.rep.matrices
    k, n, ad = algebra.dim, s.rep.space.dim, dense_adjoint(s)
    assert s.adjoint_columns is s.adjoint_columns
    assert len(ad) == s.dim == k + n
    for t in range(k):
        for u in range(k):
            assert ad[t].col(u) == bracket(algebra, t, u) + (0,) * n
        for a in range(n):
            assert ad[t].col(k + a) == (0,) * k + nus[t].col(a)
            assert ad[k + a].col(t) == tuple(-x for x in ad[t].col(k + a))
    for a in range(n):
        for b in range(n):
            assert ad[k + a].col(k + b) == odd_bracket(s, a, b) + (0,) * n


# -- the jacobiator --------------------------------------------------------


def test_jacobiator_vanishes_on_positive_instance():
    s = construct_superalgebra(osp11())
    for a, b, c in combinations_with_replacement(range(2), 3):
        assert jacobiator(s, a, b, c) == (0, 0)


def test_jacobiator_matches_obstruction_contraction():
    rep = build_spin_rep(3)
    r = decide(rep)
    s = construct_superalgebra_unchecked(rep)
    for a, b, c in combinations_with_replacement(range(4), 3):
        assert (jacobiator(s, a, b, c)
                == jacobiator_from_obstruction(rep, r.obstruction, a, b, c))


# -- equivariance ----------------------------------------------------------


def _rescale_even_form(rep, factor):
    g = rep.algebra
    scaled = QuadraticLieAlgebra(g.dim, g.brackets, mat_scale(factor, g.form))
    return SymplecticRep(scaled, rep.space, rep.matrices)


def _rescale_omega(rep, factor):
    space = SymplecticSpace(rep.space.dim, mat_scale(factor, rep.space.omega))
    return SymplecticRep(rep.algebra, space, rep.matrices)


@pytest.mark.parametrize("factor", [Fraction(2), Fraction(-3), Fraction(1, 5)])
def test_even_form_rescaling(factor):
    for rep in (osp11(), build_gl11_even()):
        base = decide(rep)
        scaled = decide(_rescale_even_form(rep, factor))
        assert scaled.verdict == base.verdict
        assert scaled.casimir_scalar == base.casimir_scalar / factor
        s0 = construct_superalgebra(rep)
        s1 = construct_superalgebra(_rescale_even_form(rep, factor))
        assert odd_table(s1) == {key: tuple(x / factor for x in coords)
                                 for key, coords in odd_table(s0).items()}


@pytest.mark.parametrize("factor", [Fraction(2), Fraction(-1), Fraction(1, 3)])
def test_omega_rescaling(factor):
    rep = osp11()
    base = decide(rep)
    scaled_rep = _rescale_omega(rep, factor)
    validate_rep(scaled_rep)
    scaled = decide(scaled_rep)
    assert scaled.verdict == base.verdict
    assert scaled.casimir_scalar == base.casimir_scalar
    s0 = construct_superalgebra(rep)
    s1 = construct_superalgebra(scaled_rep)
    assert odd_table(s1) == {key: tuple(factor * x for x in coords)
                             for key, coords in odd_table(s0).items()}


def test_obstruction_scales_but_verdict_does_not():
    rep = build_spin_rep(3)
    base = decide(rep)
    scaled = decide(_rescale_even_form(rep, Fraction(7)))
    assert not scaled.verdict
    assert scaled.obstruction == Fraction(1, 7) * base.obstruction


def _change_even_basis(rep, p):
    """New basis x'_i = sum_j p[j, i] x_j, with all data rewritten."""
    g = rep.algebra
    k = g.dim
    pinv = invert(p)
    entries = []
    for i in range(k):
        for j in range(i + 1, k):
            old = bracket_vectors(g, p.col(i), p.col(j))
            for l, c in enumerate(mat_apply(pinv, old)):
                if c != 0:
                    entries.append((i, j, l, c))
    new_form = mat_mul(p.transpose(), g.form, p)
    new_alg = QuadraticLieAlgebra.from_sparse(k, entries, new_form)
    new_mats = []
    for i in range(k):
        m = Matrix.zeros(rep.space.dim, rep.space.dim)
        for j in range(k):
            if p[j, i] != 0:
                m = mat_add(m, mat_scale(p[j, i], rep.matrices[j]))
        new_mats.append(m)
    return SymplecticRep(new_alg, rep.space, tuple(new_mats)), pinv


def test_basis_independence():
    rng = random.Random(99)
    rep = osp11()
    base = decide(rep)
    s0 = construct_superalgebra(rep)
    for _ in range(3):
        while True:
            p = Matrix([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
            try:
                invert(p)
                break
            except Exception:
                continue
        changed, pinv = _change_even_basis(rep, p)
        validate_lie(changed.algebra)
        validate_rep(changed)
        r = decide(changed)
        assert r.verdict and r.casimir_scalar == base.casimir_scalar
        assert casimir_image(changed) == casimir_image(rep)
        s1 = construct_superalgebra(changed)
        assert odd_table(s1) == {key: mat_apply(pinv, coords)
                                 for key, coords in odd_table(s0).items()}
