"""``verify_superalgebra`` against the triple-by-triple oracle.

The library checks the axioms as identities of adjoint matrices; the
oracle brackets basis elements one triple at a time.  Both must return the
same twelve ``CheckResult`` values, witness strings included, on passing
structures, on candidates that fail the odd Jacobi sector, on dense
conjugated data, on every single-entry perturbation of small tables, and on
odd-bracket perturbations of the positive golden structures.  Both
brackets are stored once per pair, the even one for i < j and the odd one
for a <= b, so every perturbation keeps graded antisymmetry, and verify
computes each Jacobi triple once, sorted, and reads the violations of
every permutation off it.  Verify reads the
forms off the records themselves, so wrong views cached on the space and
the algebra change none of its results.
"""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from oracles import odd_table, oracle_verify_superalgebra, replace, superalgebra_from_table
from superweyl.catalog import build_instance
from superweyl.engine import construct_superalgebra_unchecked, verify_superalgebra
from superweyl.exactla import IntegerColumns, Matrix
from superweyl.jsonio import load_problem

GOLDEN = Path(__file__).parent / "golden"

EXTENDS_LADDER = [("gl11",), ("osp_even", 1, 1), ("osp_even", 2, 1), ("osp_even", 1, 2),
                  ("spin", 1), ("double", "abelian1"), ("double", "gl11"), ("double", "osp12")]


def _catalog_structure(name, *params):
    return construct_superalgebra_unchecked(build_instance(name, params))


def _assert_same_checks(s):
    assert verify_superalgebra(s) == oracle_verify_superalgebra(s)


@pytest.mark.parametrize("instance", EXTENDS_LADDER, ids=lambda t: "-".join(map(str, t)))
def test_ladder_instances_match_oracle(instance):
    s = _catalog_structure(*instance)
    checks = verify_superalgebra(s)
    assert all(c.passed and c.witness is None for c in checks)
    assert checks == oracle_verify_superalgebra(s)


@pytest.mark.parametrize("two_j", [3, 5])
def test_obstructed_candidates_match_oracle(two_j):
    s = _catalog_structure("spin", two_j)
    checks = verify_superalgebra(s)
    assert [c.name for c in checks if not c.passed] == ["jacobi_ooo"]
    assert checks == oracle_verify_superalgebra(s)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("conj-*[0-9].json")), ids=lambda p: p.stem)
def test_conjugated_golden_inputs_match_oracle(path):
    _assert_same_checks(construct_superalgebra_unchecked(load_problem(str(path))))


def _bumped(m: Matrix, i: int, j: int) -> Matrix:
    return Matrix([[x + (r == i and c == j) for c, x in enumerate(row)]
                   for r, row in enumerate(m.data)], cols=m.cols)


def _perturbations(s):
    """Every copy of ``s`` with one table or Gram entry increased by one:
    each odd coordinate of every pair a <= b, stored or zero, and each
    entry of nu, B and omega."""
    rep, table = s.rep, odd_table(s)
    for key, coords in table.items():
        for l in range(rep.algebra.dim):
            bumped = tuple(x + (t == l) for t, x in enumerate(coords))
            yield superalgebra_from_table(rep, {**table, key: bumped})
    for i, m in enumerate(rep.matrices):
        for p in range(m.rows):
            for q in range(m.cols):
                matrices = rep.matrices[:i] + (_bumped(m, p, q),) + rep.matrices[i + 1:]
                yield replace(s, rep=replace(rep, matrices=matrices))
    for p, q in product(range(rep.algebra.dim), repeat=2):
        algebra = replace(rep.algebra, form=_bumped(rep.algebra.form, p, q))
        yield replace(s, rep=replace(rep, algebra=algebra))
    for p, q in product(range(rep.space.dim), repeat=2):
        space = replace(rep.space, omega=_bumped(rep.space.omega, p, q))
        yield replace(s, rep=replace(rep, space=space))


@pytest.mark.parametrize("instance, trials, odd", [(("osp_even", 1, 1), 34, 9),
                                                   (("double", "gl11"), 136, 40)],
                         ids=["osp_even-1-1", "double-gl11"])
def test_single_entry_perturbations_match_oracle(instance, trials, odd):
    s = _catalog_structure(*instance)
    failing = count = odd_count = 0
    for trial in _perturbations(s):
        checks = verify_superalgebra(trial)
        assert checks == oracle_verify_superalgebra(trial)
        failing += any(not c.passed for c in checks)
        count += 1
        odd_count += trial.rep is s.rep
    assert failing > 0
    # every coordinate of every odd pair, not only the stored ones
    assert (count, odd_count) == (trials, odd)


POSITIVE_GOLDEN = [path.name.removesuffix(".super.json")
                   for path in sorted(GOLDEN.glob("*.super.json"))]


@pytest.mark.parametrize("stem", [stem for stem in POSITIVE_GOLDEN if stem != "double-abelian1"])
def test_odd_bracket_perturbations_keep_antisymmetry_and_match_oracle(stem):
    s = construct_superalgebra_unchecked(load_problem(str(GOLDEN / f"{stem}.json")))
    k, n, table = s.rep.algebra.dim, s.rep.space.dim, odd_table(s)
    failed = set()
    for key, l, step in [((0, 0), 0, Fraction(1, 3)), ((0, n - 1), k - 1, -2)]:
        bumped = tuple(x + step * (t == l) for t, x in enumerate(table[key]))
        trial = superalgebra_from_table(s.rep, {**table, key: bumped})
        checks = verify_superalgebra(trial)
        assert checks[0].name == "graded_antisymmetry" and checks[0].passed
        assert checks == oracle_verify_superalgebra(trial)
        failed |= {c.name for c in checks if not c.passed}
    # the sectors with an odd element before an even one hold no sorted triple
    assert {"jacobi_oeo", "jacobi_ooe"} <= failed


@pytest.mark.parametrize("stem", POSITIVE_GOLDEN)
def test_checks_read_no_view_cached_for_the_validators_or_engine(stem):
    problem = str(GOLDEN / f"{stem}.json")
    expected = verify_superalgebra(construct_superalgebra_unchecked(load_problem(problem)))
    assert all(c.passed for c in expected)
    s = construct_superalgebra_unchecked(load_problem(problem))
    space, algebra = s.rep.space, s.rep.algebra
    # zero views in place of omega, omega^T and B^-1, written past the cache
    space.__dict__["omega_columns"] = IntegerColumns(1, [[{}] * space.dim] * 2)
    algebra.__dict__["form_inverse_columns"] = IntegerColumns(1, [[{}] * algebra.dim])
    assert verify_superalgebra(s) == expected
