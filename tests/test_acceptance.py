"""Acceptance suite: eleven end-to-end criteria, each printing one line.

Every comparison is exact; there are no tolerances anywhere.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from oracles import (derivation_action, mat_add, mat_mul, mat_scale, mat_sub, odd_bracket,
                     odd_table, oracle_weyl_product, pair, permanent_pairing, sl2_casimir_trace)
from superweyl.catalog import (build_double, build_gl11_even, build_osp_even,
                               build_spin_rep, double_base, sp_basis)
from superweyl.cli import main
from superweyl.engine import (construct_superalgebra,
                              construct_superalgebra_unchecked, decide,
                              jacobiator, jacobiator_from_obstruction,
                              verify_superalgebra)
from superweyl.exactla import Matrix
from superweyl.liealg import QuadraticLieAlgebra
from superweyl.spbridge import quadratic_to_sp, sp_to_quadratic, trace_ratio_constant
from superweyl.symplectic import standard_space
from superweyl.weyl import (PolyElement, bilinear_form, linear_coordinates,
                            weyl_commutator, weyl_product)


def announce(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS: {text}")


def _random_poly(rng, space, max_degree, terms):
    out = PolyElement.zero(space)
    for _ in range(terms):
        exp = [0] * space.dim
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(space.dim)] += 1
        out = out + PolyElement.monomial(space, exp, Fraction(rng.randint(-3, 3)))
    return out


def _random_linear(rng, space):
    return tuple(Fraction(rng.randint(-2, 2)) for _ in range(space.dim))


def test_criterion_01_product_relation_associativity_permanent():
    s2 = standard_space(1)
    s4 = standard_space(2)
    rng = random.Random(2024)

    for space in (s2, s4):
        for _ in range(25):
            u = PolyElement.from_vector(space, _random_linear(rng, space))
            v = PolyElement.from_vector(space, _random_linear(rng, space))
            uc, vc = linear_coordinates(u), linear_coordinates(v)
            assert weyl_commutator(u, v) == PolyElement.constant(
                space, 2 * pair(space, uc, vc))

    for _ in range(100):
        a = _random_poly(rng, s2, 4, 3)
        b = _random_poly(rng, s2, 4, 3)
        c = _random_poly(rng, s2, 4, 3)
        assert weyl_product(weyl_product(a, b), c) == weyl_product(a, weyl_product(b, c))

    for _ in range(100):
        k = rng.randint(0, 4)
        us = [_random_linear(rng, s4) for _ in range(k)]
        vs = [_random_linear(rng, s4) for _ in range(k)]
        a = PolyElement.constant(s4, 1)
        b = PolyElement.constant(s4, 1)
        for u in us:
            a = a * PolyElement.from_vector(s4, u)
        for v in vs:
            b = b * PolyElement.from_vector(s4, v)
        assert bilinear_form(a, b) == permanent_pairing(s4, us, vs)

    announce(1, "defining relation, associativity on 100 random triples, "
                "and the permanent expansion of the pairing on 100 products")


def test_criterion_02_power_pairing():
    space = standard_space(1)
    rng = random.Random(7)
    for n in range(6):
        for _ in range(10):
            u = _random_linear(rng, space)
            v = _random_linear(rng, space)
            un = PolyElement.constant(space, 1)
            vn = PolyElement.constant(space, 1)
            for _ in range(n):
                un = un * PolyElement.from_vector(space, u)
                vn = vn * PolyElement.from_vector(space, v)
            assert bilinear_form(un, vn) == math.factorial(n) * pair(space, u, v) ** n
    announce(2, "pairing of n-th powers equals n! times the n-th power of the "
                "linear pairing for n up to 5")


def test_criterion_03_quadratic_matrix_correspondence():
    rng = random.Random(12)
    for n in (1, 2, 3):
        space = standard_space(n)
        basis = sp_basis(n)
        quads = [sp_to_quadratic(space, mat) for mat in basis]
        # inverse on the matrix side
        for mat, w in zip(basis, quads):
            assert quadratic_to_sp(w) == mat
        # bracket correspondence on every basis pair
        for i, wi in enumerate(quads):
            for j, wj in enumerate(quads):
                comm = weyl_commutator(wi, wj)
                expected = mat_sub(mat_mul(basis[i], basis[j]), mat_mul(basis[j], basis[i]))
                assert quadratic_to_sp(comm) == expected
        # the derivation extension acts as the commutator in all degrees
        for _ in range(5):
            mat = basis[rng.randrange(len(basis))]
            w = sp_to_quadratic(space, mat)
            a = _random_poly(rng, space, 3, 3)
            assert derivation_action(mat, a) == weyl_commutator(w, a)
    announce(3, "quadratics and form-preserving matrices correspond as Lie "
                "algebras in dimensions 2, 4, 6, with inverse and derivation checks")


def test_criterion_04_trace_ratio():
    for n in (1, 2, 3):
        c = trace_ratio_constant(standard_space(n))
        assert c == Fraction(-1, 8)
        assert abs(c) == Fraction(1, 8)
    announce(4, "pairing-to-trace ratio on quadratics is exactly -1/8 in "
                "dimensions 2, 4, 6")


def test_criterion_05_smallest_positive_instance():
    rep = build_osp_even(1, 1)
    report = decide(rep)
    assert report.verdict
    assert report.casimir_scalar == Fraction(-3, 8)

    # independent recomputation from hand-written lifts, dual pairs and the
    # permutation-averaged product
    space = rep.space
    e = PolyElement.variable(space, 0)
    f = PolyElement.variable(space, 1)
    lift_h = Fraction(-1, 2) * (e * f)
    lift_e = Fraction(1, 4) * (e * e)
    lift_f = Fraction(-1, 4) * (f * f)
    casimir = (oracle_weyl_product(lift_h, Fraction(1, 2) * lift_h)
               + oracle_weyl_product(lift_e, lift_f)
               + oracle_weyl_product(lift_f, lift_e))
    assert casimir == PolyElement.constant(space, Fraction(-3, 8))

    s = construct_superalgebra(rep)
    checks = verify_superalgebra(s)
    assert len(checks) == 12 and all(c.passed for c in checks)

    diagnostics = {d.name: d for d in report.diagnostics}
    identity, fitted = diagnostics["trace_identity"], diagnostics["trace_ratio_fitted"]
    rhs, c = Fraction(identity.witness), Fraction(fitted.witness)
    assert identity.passed and (rhs, c) == (Fraction(-3, 8), Fraction(-1, 8))
    assert rhs / c == sl2_casimir_trace(1)
    announce(5, "three-dimensional simple algebra on the plane: verdict "
                "positive, scalar -3/8 confirmed by an independent oracle, "
                "all twelve structure checks pass, trace identity holds")


def test_criterion_06_abelian_two_parameter_instance():
    rep = build_gl11_even()
    report = decide(rep)
    assert report.verdict and report.casimir_scalar == 0
    s = construct_superalgebra(rep)
    assert all(c.passed for c in verify_superalgebra(s))

    # oracle: the defining 1|1 matrix picture, where odd brackets are
    # anticommutators of the odd matrices
    h = [Matrix([[1, 0], [0, 0]]), Matrix([[0, 0], [0, 1]])]
    y = [Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])]
    for a in range(2):
        for b in range(2):
            anti = mat_add(mat_mul(y[a], y[b]), mat_mul(y[b], y[a]))
            coords = odd_bracket(s, a, b)
            combo = mat_add(mat_scale(coords[0], h[0]), mat_scale(coords[1], h[1]))
            assert combo == anti
    assert odd_bracket(s, 0, 1) == (1, 1)
    announce(6, "two-parameter abelian instance: scalar 0 and odd brackets "
                "matching the matrix anticommutator oracle")


def test_criterion_07_negative_instance_structure():
    rep = build_spin_rep(3)
    report = decide(rep)
    assert not report.verdict
    assert report.casimir_scalar is None
    assert not report.obstruction.is_zero()
    assert report.obstruction.is_homogeneous(4)

    s = construct_superalgebra_unchecked(rep)
    outcomes = {c.name: c.passed for c in verify_superalgebra(s)}
    assert outcomes.pop("jacobi_ooo") is False
    assert all(outcomes.values())

    for a, b, c in combinations_with_replacement(range(4), 3):
        assert (jacobiator(s, a, b, c)
                == jacobiator_from_obstruction(rep, report.obstruction, a, b, c))
    announce(7, "weight-three instance is obstructed: only the odd-odd-odd "
                "Jacobi sector fails and the failure equals the contracted "
                "obstruction on all 20 triples")


def test_criterion_08_calibrated_instances_within_budget():
    for m, n in ((2, 1), (1, 2)):
        start = time.monotonic()
        rep = build_osp_even(m, n)
        report = decide(rep)
        assert report.verdict
        s = construct_superalgebra(rep)
        assert all(c.passed for c in verify_superalgebra(s))
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"osp_even({m},{n}) took {elapsed:.1f}s"
    announce(8, "mixed two-summand instances (2,1) and (1,2) extend, verify "
                "fully, and finish well under ten seconds each")


def test_criterion_09_double_round_trips():
    for name in ("abelian1", "gl11", "osp12"):
        expected = build_double(double_base(name))
        report = decide(expected.rep)
        assert report.verdict
        rebuilt = construct_superalgebra(expected.rep)
        assert rebuilt.odd_odd == expected.odd_odd
    assert decide(build_double(double_base("abelian1")).rep).casimir_scalar == 0
    announce(9, "doubles of three base structures extend and the engine "
                "reconstructs their explicit odd bracket tables")


def test_criterion_10_scale_equivariance():
    instances = [build_gl11_even(), build_osp_even(1, 1), build_osp_even(2, 1)]
    factors = [Fraction(2), Fraction(-3), Fraction(1, 5)]
    for rep in instances:
        base_report = decide(rep)
        base_s = construct_superalgebra(rep)
        for lam in factors:
            g = rep.algebra
            scaled_alg = QuadraticLieAlgebra(g.brackets, mat_scale(lam, g.form))
            scaled = type(rep)(scaled_alg, rep.space, rep.matrices)
            report = decide(scaled)
            assert report.verdict == base_report.verdict
            assert report.casimir_scalar == base_report.casimir_scalar / lam
            s = construct_superalgebra(scaled)
            assert odd_table(s) == {key: tuple(x / lam for x in coords)
                                    for key, coords in odd_table(base_s).items()}
    announce(10, "rescaling the even form by 2, -3, 1/5 preserves the verdict "
                 "and scales the scalar and odd brackets inversely")


def test_criterion_11_deterministic_reports(tmp_path):
    quiet = io.StringIO()
    problem = str(tmp_path / "problem.json")
    with contextlib.redirect_stdout(quiet):
        assert main(["catalog", "osp_even", "1", "1", "--out", problem]) == 0
    paths = [str(tmp_path / f"report{i}.json") for i in (1, 2)]
    for p in paths:
        with contextlib.redirect_stdout(quiet):
            assert main(["test", problem, "--report", p]) == 0
    blobs = [Path(p).read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    parsed = json.loads(blobs[0])
    assert parsed["verdict"] is True and parsed["casimir_scalar"] == "-3/8"
    announce(11, "repeated runs over the same input produce byte-identical "
                 "report files")
