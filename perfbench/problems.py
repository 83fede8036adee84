"""The benchmark's workloads and the seeded generator of conjugated problems.

A workload is a list of problems.  Each problem is made by
``superweyl catalog`` from a catalog name; the ``conjugated`` workload then
rewrites each catalog problem in a random rational basis of g0 and of v,
so the program sees dense, fractional data for the same mathematical
object.  The generator is seeded and checks its own output with the
elimination in ``ratq``; it imports nothing from ``superweyl``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import ratq
from ratq import ZERO


@dataclass(frozen=True)
class Problem:
    pid: str                    # file stem, unique within a workload
    catalog: tuple[str, ...]    # arguments of ``superweyl catalog``
    extends: bool               # the known answer
    conjugated: bool = False    # rewritten in a random basis after the catalog call


def _catalog(*args: str, extends: bool, conjugated: bool = False) -> Problem:
    stem = "-".join(args)
    return Problem(("conj-" + stem) if conjugated else stem, args, extends, conjugated)


WORKLOADS: dict[str, tuple[Problem, ...]] = {
    # Every answer positive: construction, verify_superalgebra and the odd
    # bracket output do much of the work; osp_even(1,2) has k = 10.
    # osp_even(3,1) would double the run time on a slow host and is left to
    # ``run.py --one-off``.
    "extends": (
        _catalog("gl11", extends=True),
        _catalog("osp_even", "1", "1", extends=True),
        _catalog("osp_even", "2", "1", extends=True),
        _catalog("osp_even", "1", "2", extends=True),
        _catalog("spin", "1", extends=True),
        _catalog("double", "abelian1", extends=True),
        _catalog("double", "gl11", extends=True),
        _catalog("double", "osp12", extends=True),
    ),
    # Decide only: lifts, the Casimir image and the trace-ratio fit; spin 7
    # has n = 8.  Construction and verification never run here.
    "obstructed": (
        _catalog("spin", "3", extends=False),
        _catalog("spin", "5", extends=False),
        _catalog("spin", "7", extends=False),
    ),
    # The same layers on dense rational data with full-support obstructions.
    "conjugated": (
        _catalog("osp_even", "1", "1", extends=True, conjugated=True),
        _catalog("osp_even", "2", "1", extends=True, conjugated=True),
        _catalog("double", "gl11", extends=True, conjugated=True),
        _catalog("spin", "3", extends=False, conjugated=True),
        _catalog("spin", "5", extends=False, conjugated=True),
    ),
}


def ordered(workload: str, seed: int) -> list[Problem]:
    """The workload's problems in the order the seed fixes."""
    problems = list(WORKLOADS[workload])
    random.Random(f"order/{workload}/{seed}").shuffle(problems)
    return problems


# -- conjugation -----------------------------------------------------------

_OFF_DIAGONAL = tuple(Fraction(x) for x in ("-1", "-1/2", "1/2", "1", "2/3", "-3/2"))
_DIAGONAL = tuple(Fraction(x) for x in ("1", "-1", "2", "-1/2", "3/2"))


def random_change_of_basis(n: int, rng: random.Random) -> list[list[Fraction]]:
    """A dense product L U of a unit lower and an upper triangular matrix
    with small fractional entries: nonsingular by construction, with entry
    sizes that do not depend much on the seed."""
    lower = ratq.identity(n)
    upper = ratq.zeros(n, n)
    for i in range(n):
        upper[i][i] = rng.choice(_DIAGONAL)
        for j in range(n):
            if j < i:
                lower[i][j] = rng.choice(_OFF_DIAGONAL)
            elif j > i:
                upper[i][j] = rng.choice(_OFF_DIAGONAL)
    return ratq.mul(lower, upper)


@dataclass
class ParsedProblem:
    k: int
    n: int
    brackets: list        # brackets[i][j][l], fully antisymmetric
    form: list            # B, k x k
    omega: list           # n x n
    nu: list              # k matrices, n x n


def parse_problem(obj) -> ParsedProblem:
    n = obj["space"]["dim"]
    omega = obj["space"].get("omega", "standard")
    omega = ratq.standard_omega(n) if omega == "standard" else ratq.parse_matrix(omega)
    k = obj["g0"]["dim"]
    brackets = [[[ZERO] * k for _ in range(k)] for _ in range(k)]
    for i, j, l, c in obj["g0"].get("brackets", []):
        brackets[i][j][l] += ratq.q(c)
        brackets[j][i][l] -= ratq.q(c)
    return ParsedProblem(k, n, brackets, ratq.parse_matrix(obj["g0"]["form"]), omega,
                         [ratq.parse_matrix(m) for m in obj["nu"]])


class GeneratorCheckFailed(Exception):
    """The generator's own confirmation of a conjugated problem failed."""


def conjugate(obj, rng: random.Random) -> dict:
    """Rewrite a problem in random bases: P on g0 (B -> P^T B P, brackets
    and nu re-expressed), Q on v (omega -> Q^T omega Q, nu -> Q^-1 nu Q)."""
    base = parse_problem(obj)
    k, n = base.k, base.n
    p = random_change_of_basis(k, rng)
    qm = random_change_of_basis(n, rng)
    p_inv = ratq.inverse(p)
    q_inv = ratq.inverse(qm)

    form = ratq.mul(ratq.transpose(p), ratq.mul(base.form, p))
    omega = ratq.mul(ratq.transpose(qm), ratq.mul(base.omega, qm))
    # [x'_a, x'_b] = sum P_ia P_jb c_ij^l x_l, and x_l = sum (P^-1)_ml x'_m
    brackets = [[[ZERO] * k for _ in range(k)] for _ in range(k)]
    for a in range(k):
        for b in range(k):
            old = [ZERO] * k
            for i in range(k):
                if p[i][a] == 0:
                    continue
                for j in range(k):
                    coeff = p[i][a] * p[j][b]
                    if coeff == 0:
                        continue
                    for l, c in enumerate(base.brackets[i][j]):
                        if c != 0:
                            old[l] += coeff * c
            brackets[a][b] = [sum((p_inv[m][l] * old[l] for l in range(k)), ZERO)
                              for m in range(k)]
    nu = []
    for a in range(k):
        combo = ratq.zeros(n, n)
        for i in range(k):
            if p[i][a] != 0:
                combo = ratq.add(combo, ratq.scale(p[i][a], base.nu[i]))
        nu.append(ratq.mul(q_inv, ratq.mul(combo, qm)))

    _confirm(k, n, brackets, form, omega, nu)
    entries = [[a, b, l, str(c)]
               for a in range(k) for b in range(a + 1, k)
               for l, c in enumerate(brackets[a][b]) if c != 0]
    return {
        "space": {"dim": n, "omega": [[str(x) for x in row] for row in omega]},
        "g0": {"dim": k, "brackets": entries,
               "form": [[str(x) for x in row] for row in form]},
        "nu": [[[str(x) for x in row] for row in m] for m in nu],
    }


def _confirm(k, n, brackets, form, omega, nu) -> None:
    if ratq.transpose(form) != form:
        raise GeneratorCheckFailed("P^T B P is not symmetric")
    if ratq.determinant(form) == 0:
        raise GeneratorCheckFailed("P^T B P is singular")
    if any(omega[i][j] != -omega[j][i] for i in range(n) for j in range(n)):
        raise GeneratorCheckFailed("Q^T omega Q is not alternating")
    if ratq.determinant(omega) == 0:
        raise GeneratorCheckFailed("Q^T omega Q is singular")
    for a in range(k):
        preserved = ratq.add(ratq.mul(ratq.transpose(nu[a]), omega), ratq.mul(omega, nu[a]))
        if any(x != 0 for row in preserved for x in row):
            raise GeneratorCheckFailed(f"conjugated nu({a}) does not preserve omega")
        for b in range(a + 1, k):
            comm = ratq.add(ratq.mul(nu[a], nu[b]), ratq.scale(-1, ratq.mul(nu[b], nu[a])))
            expected = ratq.zeros(n, n)
            for m, c in enumerate(brackets[a][b]):
                if c != 0:
                    expected = ratq.add(expected, ratq.scale(c, nu[m]))
            if comm != expected:
                raise GeneratorCheckFailed(f"conjugated nu is not a representation at ({a}, {b})")
