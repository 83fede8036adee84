"""Independent answer checker for ``superweyl test`` and ``construct``.

Every check recomputes what it needs with plain ``fractions.Fraction`` and
reads only the problem file and the program's output files; nothing here
imports ``superweyl``.  A check returns a list of failures, each a string
``"<check>: <detail>"``; an empty list means the output is accepted.

Positive problems: the verdict is true; the Casimir scalar equals
-1/8 * sum_i tr(nu(x_i) nu(x^i)) with the dual basis from our own inverse of
B; the ``construct`` file repeats the input nu, B and omega; and the file's
tables satisfy the super-Jacobi identity in all eight parity sectors and
the invariance of the form.  Obstructed problems: ``construct`` exits 2 and
writes nothing; the obstruction is nonzero, of pure degree four, and killed
by the derivation each nu(x_i) induces on polynomials.
"""

from __future__ import annotations

import copy
import hashlib
from fractions import Fraction

import ratq
from problems import ParsedProblem, parse_problem
from ratq import ZERO

_MINUS_EIGHTH = Fraction(-1, 8)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_scalar(p: ParsedProblem) -> Fraction:
    """-1/8 * sum_i tr(nu(x_i) nu(x^i)), where x^i = sum_j (B^-1)_ji x_j."""
    b_inv = ratq.inverse(p.form)
    total = ZERO
    for i in range(p.k):
        dual = ratq.zeros(p.n, p.n)
        for j in range(p.k):
            if b_inv[j][i] != 0:
                dual = ratq.add(dual, ratq.scale(b_inv[j][i], p.nu[j]))
        total += ratq.trace(ratq.mul(p.nu[i], dual))
    return _MINUS_EIGHTH * total


def _program_checks(label: str, obj) -> list[str]:
    return [f"program_checks: {label} reports {c['name']} failing"
            for c in obj.get("checks", []) if c.get("pass") is not True]


def check_positive(problem_obj, problem_bytes: bytes, report, sup) -> list[str]:
    p = parse_problem(problem_obj)
    fails: list[str] = []
    if report.get("verdict") is not True:
        fails.append(f"verdict: expected true, report says {report.get('verdict')!r}")
    if report.get("obstruction") != []:
        fails.append("verdict: a positive report lists obstruction terms")
    scalar = report.get("casimir_scalar")
    want = expected_scalar(p)
    if scalar is None or ratq.q(scalar) != want:
        fails.append(f"casimir_scalar: report says {scalar!r}, -1/8 tr formula gives {want}")
    for label, obj in (("report", report), ("construct file", sup)):
        if obj.get("input_digest") != digest(problem_bytes):
            fails.append(f"input_digest: {label} digest does not match the problem file")
    fails += _program_checks("report", report) + _program_checks("construct file", sup)
    fails += _check_superalgebra(p, sup)
    fails += _check_report_brackets(report, sup)
    return fails


def _check_report_brackets(report, sup) -> list[str]:
    """The report's odd brackets are the nonzero rows of the construct file's."""
    nonzero = [[a, b, [ratq.q(c) for c in coords]] for a, b, coords in sup.get("odd_brackets", [])
               if any(ratq.q(c) != 0 for c in coords)]
    reported = [[a, b, [ratq.q(c) for c in coords]] for a, b, coords in report.get("odd_brackets") or []]
    if reported != nonzero:
        return ["odd_brackets: report and construct file disagree"]
    return []


def _check_superalgebra(p: ParsedProblem, sup) -> list[str]:
    fails = []
    k, n = p.k, p.n
    table = [[[ZERO] * k for _ in range(k)] for _ in range(k)]
    for i, j, l, c in sup["even"]["brackets"]:
        table[i][j][l] += ratq.q(c)
        table[j][i][l] -= ratq.q(c)
    if sup["even"]["dim"] != k or table != p.brackets:
        fails.append("construct_tables: even brackets differ from the input g0")
    if sup.get("odd_dim") != n:
        fails.append("construct_tables: odd dimension differs from the input")
        return fails
    if [ratq.parse_matrix(m) for m in sup["even_odd"]] != p.nu:
        fails.append("construct_tables: even_odd differs from the input nu")
    if ratq.parse_matrix(sup["form_even"]) != p.form:
        fails.append("construct_tables: form_even differs from B")
    if ratq.parse_matrix(sup["form_odd"]) != p.omega:
        fails.append("construct_tables: form_odd differs from omega")
    if fails:
        return fails

    odd = {}
    for a, b, coords in sup["odd_brackets"]:
        odd[(a, b)] = odd[(b, a)] = [ratq.q(c) for c in coords]
    # structure tensor of g0 + v on the basis x_0..x_{k-1}, y_0..y_{n-1};
    # t[a][b] maps basis index -> nonzero coefficient of [e_a, e_b]
    dim = k + n
    t = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(k):
        for j in range(k):
            t[i][j] = {l: c for l, c in enumerate(table[i][j]) if c != 0}
        for b in range(n):
            # [x_i, y_b] = nu_i y_b = sum_a nu_i[a][b] y_a; [y_b, x_i] = -[x_i, y_b]
            col = {k + a: p.nu[i][a][b] for a in range(n) if p.nu[i][a][b] != 0}
            t[i][k + b] = col
            t[k + b][i] = {key: -c for key, c in col.items()}
    for a in range(n):
        for b in range(n):
            coords = odd.get((a, b), [ZERO] * k)
            t[k + a][k + b] = {l: c for l, c in enumerate(coords) if c != 0}
    gram = ratq.zeros(dim, dim)
    for i in range(k):
        for j in range(k):
            gram[i][j] = p.form[i][j]
    for a in range(n):
        for b in range(n):
            gram[k + a][k + b] = p.omega[a][b]
    parity = [0] * k + [1] * n

    def left(a: int, vec: dict) -> dict:
        """[e_a, vec]"""
        out: dict = {}
        for d, v in vec.items():
            for key, c in t[a][d].items():
                out[key] = out.get(key, ZERO) + v * c
        return {key: c for key, c in out.items() if c != 0}

    def right(vec: dict, c_idx: int) -> dict:
        """[vec, e_c]"""
        out: dict = {}
        for d, v in vec.items():
            for key, c in t[d][c_idx].items():
                out[key] = out.get(key, ZERO) + v * c
        return {key: c for key, c in out.items() if c != 0}

    broken = set()
    for a in range(dim):
        for b in range(dim):
            sign = -1 if parity[a] and parity[b] else 1
            for c in range(dim):
                sector = "jacobi_" + "".join("eo"[parity[x]] for x in (a, b, c))
                if sector in broken:
                    continue
                # [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|} [b,[a,c]]
                lhs = left(a, t[b][c])
                r1 = right(t[a][b], c)
                r2 = left(b, t[a][c])
                rhs = dict(r1)
                for key, v in r2.items():
                    rhs[key] = rhs.get(key, ZERO) + sign * v
                rhs = {key: v for key, v in rhs.items() if v != 0}
                if lhs != rhs:
                    broken.add(sector)
                    fails.append(f"{sector}: fails on basis triple ({a}, {b}, {c})")
    invariance_broken = False
    for a in range(dim):
        for b in range(dim):
            ab = t[a][b]
            for c in range(dim):
                # ([e_a, e_b], e_c) = (e_a, [e_b, e_c])
                lhs = sum((v * gram[d][c] for d, v in ab.items()), ZERO)
                rhs = sum((gram[a][d] * v for d, v in t[b][c].items()), ZERO)
                if lhs != rhs and not invariance_broken:
                    invariance_broken = True
                    fails.append(f"form_invariance: fails on basis triple ({a}, {b}, {c})")
    return fails


def check_obstructed(problem_obj, problem_bytes: bytes, report, construct_exit: int,
                     construct_wrote: bool) -> list[str]:
    p = parse_problem(problem_obj)
    fails: list[str] = []
    if construct_exit != 2:
        fails.append(f"construct_exit: expected 2 on an obstructed problem, got {construct_exit}")
    if construct_wrote:
        fails.append("construct_exit: construct wrote a file for an obstructed problem")
    if report.get("verdict") is not False:
        fails.append(f"verdict: expected false, report says {report.get('verdict')!r}")
    if report.get("casimir_scalar") is not None or report.get("odd_brackets") is not None:
        fails.append("verdict: an obstructed report carries a scalar or odd brackets")
    if report.get("input_digest") != digest(problem_bytes):
        fails.append("input_digest: report digest does not match the problem file")
    fails += _program_checks("report", report)
    terms = {}
    for term in report.get("obstruction", []):
        exp = tuple(term["exp"])
        coeff = ratq.q(term["coeff"])
        if len(exp) != p.n or any(e < 0 for e in exp) or exp in terms:
            fails.append(f"obstruction_terms: malformed exponent {list(exp)}")
            continue
        if sum(exp) != 4:
            fails.append(f"obstruction_terms: term {list(exp)} has degree {sum(exp)}, not 4")
        if coeff == 0:
            fails.append(f"obstruction_terms: term {list(exp)} has coefficient 0")
        terms[exp] = coeff
    if not terms:
        fails.append("obstruction_nonzero: the reported obstruction is zero")
        return fails
    for i, m in enumerate(p.nu):
        image = derivation(m, terms)
        if image:
            fails.append(f"obstruction_invariance: nu({i}) does not kill the obstruction "
                         f"({len(image)} nonzero terms)")
    return fails


def derivation(m, poly: dict) -> dict:
    """Apply the derivation with x_j -> sum_l m[l][j] x_l to a polynomial
    given as {exponent tuple: coefficient}; returns the nonzero terms."""
    n = len(m)
    out: dict = {}
    for exp, coeff in poly.items():
        for j, e in enumerate(exp):
            if e == 0:
                continue
            for l in range(n):
                c = m[l][j]
                if c == 0:
                    continue
                new = list(exp)
                new[j] -= 1
                new[l] += 1
                key = tuple(new)
                out[key] = out.get(key, ZERO) + coeff * e * c
    return {key: c for key, c in out.items() if c != 0}


# -- self-test on corrupted outputs ----------------------------------------


def corrupt_odd_sign(report, sup):
    """Negate the first nonzero odd-bracket coordinate, in both files, so
    that only the structural checks can notice."""
    report, sup = copy.deepcopy(report), copy.deepcopy(sup)
    for row in sup["odd_brackets"]:
        a, b, coords = row
        for idx, c in enumerate(coords):
            if ratq.q(c) != 0:
                coords[idx] = str(-ratq.q(c))
                for rrow in report.get("odd_brackets") or []:
                    if rrow[0] == a and rrow[1] == b:
                        rrow[2][idx] = coords[idx]
                return report, sup
    return None


def corrupt_scalar(report):
    report = copy.deepcopy(report)
    report["casimir_scalar"] = str(ratq.q(report["casimir_scalar"]) + 1)
    return report


def corrupt_drop_term(report):
    report = copy.deepcopy(report)
    report["obstruction"] = report["obstruction"][:-1]
    return report


def self_test(positive=None, obstructed=None) -> list[str]:
    """Feed corrupted copies of real outputs to the checker.  ``positive`` is
    (problem_obj, problem_bytes, report, sup), ``obstructed`` is
    (problem_obj, problem_bytes, report).  Returns the cases the checker
    failed to reject with the expected check; empty means all were caught."""
    missed = []
    if positive is not None:
        problem_obj, raw, report, sup = positive
        flipped = corrupt_odd_sign(report, sup)
        if flipped is None:
            missed.append("odd_sign_flip: no nonzero odd bracket to corrupt")
        else:
            fails = check_positive(problem_obj, raw, *flipped)
            if not any(f.startswith(("jacobi_", "form_invariance")) for f in fails):
                missed.append("odd_sign_flip: accepted")
        fails = check_positive(problem_obj, raw, corrupt_scalar(report), sup)
        if not any(f.startswith("casimir_scalar") for f in fails):
            missed.append("wrong_scalar: accepted")
    if obstructed is not None:
        problem_obj, raw, report = obstructed
        fails = check_obstructed(problem_obj, raw, corrupt_drop_term(report), 2, False)
        if not any(f.startswith(("obstruction_invariance", "obstruction_nonzero")) for f in fails):
            missed.append("dropped_term: accepted")
    return missed
