"""``validate_lie`` and ``validate_rep`` are adjoint-matrix identities; the
oracles in ``tests/oracles.py`` check the same axioms tuple by tuple.  On
every single-entry perturbation of the inputs below, both routes must end
the same way: no exception, or the same exception type, message and index."""

from itertools import product

import pytest

from oracles import algebra_from_table, bracket, oracle_validate_lie, oracle_validate_rep
from superweyl.catalog import build_double, build_osp_even, build_spin_rep, double_base
from superweyl.engine import NotARepresentation, SymplecticRep, validate_rep
from superweyl.exactla import Matrix
from superweyl.liealg import (FormNotInvariant, FormSingular, JacobiFails, QuadraticLieAlgebra,
                              validate_lie)
from superweyl.spbridge import NotSymplectic

INSTANCES = {
    "osp_even(1,1)": lambda: build_osp_even(1, 1),
    "osp_even(2,1)": lambda: build_osp_even(2, 1),
    "double gl11": lambda: build_double(double_base("gl11")),
    "spin 3": lambda: build_spin_rep(3),
}


def outcome(check, arg):
    try:
        check(arg)
    except Exception as exc:  # the outcome under comparison
        return (type(exc), str(exc),
                *(getattr(exc, name, None) for name in ("pair", "triple", "index")))
    return None


def bumped(m: Matrix, *cells) -> Matrix:
    rows = [list(row) for row in m.data]
    for p, q in cells:
        rows[p][q] += 1
    return Matrix(rows, cols=m.cols)


def algebra_perturbations(g: QuadraticLieAlgebra):
    """+1 on one coordinate of one bracket [x_i, x_j], i < j (which moves
    [x_j, x_i] with it), +1 on one entry of the form, and +1 on a symmetric
    pair."""
    k = g.dim
    table = {(i, j): bracket(g, i, j) for i in range(k) for j in range(i + 1, k)}
    for (i, j), coords in table.items():
        for l in range(k):
            changed = tuple(x + (t == l) for t, x in enumerate(coords))
            yield algebra_from_table({**table, (i, j): changed}, g.form)
    for p, q in product(range(k), repeat=2):
        yield QuadraticLieAlgebra(g.brackets, bumped(g.form, (p, q)))
        if p < q:
            yield QuadraticLieAlgebra(g.brackets, bumped(g.form, (p, q), (q, p)))


def test_validate_lie_agrees_with_oracle():
    seen = set()
    for build in INSTANCES.values():
        g = build().algebra
        assert outcome(validate_lie, g) is outcome(oracle_validate_lie, g) is None
        for h in algebra_perturbations(g):
            expected = outcome(oracle_validate_lie, h)
            assert outcome(validate_lie, h) == expected
            seen.add(expected and expected[0])
    assert seen == {None, JacobiFails, FormSingular, FormNotInvariant}


@pytest.mark.parametrize("name", ["osp_even(1,1)", "double gl11", "spin 3"])
def test_validate_rep_agrees_with_oracle(name):
    rep = INSTANCES[name]()
    assert outcome(validate_rep, rep) is outcome(oracle_validate_rep, rep) is None
    n = rep.space.dim
    seen = set()
    for i, p, q in product(range(rep.algebra.dim), range(n), range(n)):
        matrices = list(rep.matrices)
        matrices[i] = bumped(matrices[i], (p, q))
        changed = SymplecticRep(rep.algebra, rep.space, tuple(matrices))
        expected = outcome(oracle_validate_rep, changed)
        assert outcome(validate_rep, changed) == expected
        seen.add(expected and expected[0])
    assert {NotSymplectic, NotARepresentation} <= seen
