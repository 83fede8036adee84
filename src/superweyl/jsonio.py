"""JSON serialization with canonical, byte-reproducible output.

Rationals are written as strings ``"p/q"`` (or ``"p"`` for integers),
polynomial terms as exponent/coefficient records sorted by exponent
vector, and every file is emitted through ``canonical_dumps`` so that the
same mathematical content always produces identical bytes.  Writes go
through a new temporary file in the target directory followed by an
atomic rename, so a crash cannot leave a half-written report behind.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Sequence

from .engine import (CheckResult, SuperAlgebraData, SymplecticRep, TestReport)
from .exactla import DimensionMismatch, Matrix, Scalar, SuperweylError, as_scalar
from .liealg import QuadraticLieAlgebra
from .symplectic import MAX_STANDARD_DIM, SymplecticSpace, standard_space
from .weyl import PolyElement


class ParseError(SuperweylError):
    """Malformed input file or object."""


def scalar_to_str(x: Scalar) -> str:
    return str(x)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_ZERO = as_scalar(0)


def scalar_from_str(text) -> Scalar:
    """A JSON integer or a string ``"p"`` or ``"p/q"`` of decimal digits with
    an optional leading minus; decimals, exponents, spaces and ``+`` are
    refused before any arithmetic.  The string ``"0"``, most entries of a
    dense matrix, is one shared zero."""
    if text == "0":
        return _ZERO
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ParseError(f"expected a rational string, got {text!r}")
    if isinstance(text, str) and not _RATIONAL.fullmatch(text):
        raise ParseError(f"bad rational {text!r}: expected \"p\" or \"p/q\"")
    try:
        return as_scalar(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc


def _known_keys(obj: dict, keys: tuple[str, ...], what: str) -> None:
    """Refuse a key outside ``keys``: a misspelt optional field is not absent."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ParseError(f"{what} has an unknown key {unknown[0]!r}")


def _integer(value, what: str) -> int:
    """A JSON integer; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[scalar_to_str(x) for x in m.row(i)] for i in range(m.rows)]


def matrix_from_json(obj, size: int) -> Matrix:
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise ParseError("matrix must be a list of rows")
    entries = [[scalar_from_str(x) for x in row] for row in obj]
    try:
        m = Matrix(entries, cols=size)
    except DimensionMismatch as exc:
        raise ParseError(f"bad matrix: {exc}") from exc
    if m.rows != size:
        raise ParseError(f"expected {size} rows, got {m.rows}")
    return m


def poly_to_json(p: PolyElement) -> list[dict]:
    return [{"exp": list(exp), "coeff": scalar_to_str(coeff)}
            for exp, coeff in p.sorted_terms()]


def space_to_json(space: SymplecticSpace) -> dict:
    return {"dim": space.dim, "omega": matrix_to_json(space.omega)}


def space_from_json(obj) -> SymplecticSpace:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ParseError("space needs a 'dim' field")
    _known_keys(obj, ("dim", "omega"), "space")
    dim = _integer(obj["dim"], "space dimension")
    if dim < 0:
        raise ParseError(f"bad space dimension {dim!r}")
    omega = obj.get("omega", "standard")
    if omega == "standard":
        if dim % 2 or dim == 0:
            raise ParseError("'standard' omega needs a positive even dimension")
        if dim > MAX_STANDARD_DIM:
            raise ParseError(f"'standard' omega is limited to dimension {MAX_STANDARD_DIM}, "
                             f"got {dim}")
        return standard_space(dim // 2)
    return SymplecticSpace(matrix_from_json(omega, dim))


def algebra_to_json(g: QuadraticLieAlgebra) -> dict:
    entries = [[i, j, l, scalar_to_str(c)] for (i, j), col in sorted(g.brackets.items())
               for l, c in sorted(col.items())]
    return {"dim": g.dim, "brackets": entries, "form": matrix_to_json(g.form)}


def algebra_from_json(obj) -> QuadraticLieAlgebra:
    if not isinstance(obj, dict) or "dim" not in obj or "form" not in obj:
        raise ParseError("algebra needs 'dim' and 'form' fields")
    _known_keys(obj, ("dim", "brackets", "form"), "algebra")
    dim = _integer(obj["dim"], "algebra dimension")
    if dim < 0:
        raise ParseError(f"bad algebra dimension {dim!r}")
    items = obj.get("brackets", [])
    if not isinstance(items, list):
        raise ParseError("'brackets' must be a list of [i, j, l, value] entries")
    entries = []
    for item in items:
        if not isinstance(item, list) or len(item) != 4:
            raise ParseError("each bracket entry must be [i, j, l, value]")
        *indices, value = item
        entries.append((*(_integer(t, "bracket index") for t in indices), scalar_from_str(value)))
    form = matrix_from_json(obj["form"], dim)
    try:
        return QuadraticLieAlgebra.from_sparse(entries, form)
    except (ValueError, IndexError) as exc:
        raise ParseError(str(exc)) from exc


def problem_to_json(rep: SymplecticRep) -> dict:
    return {
        "space": space_to_json(rep.space),
        "g0": algebra_to_json(rep.algebra),
        "nu": [matrix_to_json(m) for m in rep.matrices],
    }


def problem_from_json(obj) -> SymplecticRep:
    if not isinstance(obj, dict):
        raise ParseError("problem file must contain a JSON object")
    _known_keys(obj, ("space", "g0", "nu"), "problem file")
    for field in ("space", "g0", "nu"):
        if field not in obj:
            raise ParseError(f"problem file is missing {field!r}")
    space = space_from_json(obj["space"])
    algebra = algebra_from_json(obj["g0"])
    nu = obj["nu"]
    if not isinstance(nu, list) or len(nu) != algebra.dim:
        raise ParseError("'nu' must list one matrix per basis element of g0")
    matrices = tuple(matrix_from_json(m, space.dim) for m in nu)
    try:
        return SymplecticRep(algebra, space, matrices)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused if it names a key twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_problem(path: str) -> SymplecticRep:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests too deeply") from exc
    return problem_from_json(obj)


def checks_to_json(checks: Sequence[CheckResult]) -> list[dict]:
    return [{"name": c.name, "pass": c.passed, "witness": c.witness} for c in checks]


def _odd_entry(s: SuperAlgebraData, a: int, b: int) -> list:
    """[a, b, coordinates] for a <= b: the file format writes all k
    coordinates of [y_a, y_b], zeros included."""
    col = s.odd_odd.get((a, b), {})
    return [a, b, [scalar_to_str(col.get(l, 0)) for l in range(s.rep.algebra.dim)]]


def odd_brackets_to_json(s: SuperAlgebraData) -> list:
    """The nonzero odd brackets, the stored pairs of ``s.odd_odd`` in order."""
    return [_odd_entry(s, a, b) for a, b in sorted(s.odd_odd)]


def report_to_json(report: TestReport, checks: Sequence[CheckResult],
                   odd_brackets: list | None, version: str, digest: str) -> dict:
    return {
        "tool_version": version,
        "input_digest": digest,
        "verdict": report.verdict,
        "casimir_scalar": (scalar_to_str(report.casimir_scalar)
                           if report.casimir_scalar is not None else None),
        "obstruction": poly_to_json(report.obstruction),
        "odd_brackets": odd_brackets,
        "checks": checks_to_json(checks),
    }


def superalgebra_to_json(s: SuperAlgebraData, checks: Sequence[CheckResult],
                         version: str, digest: str) -> dict:
    """The structure as a file; its odd bracket lists every pair a <= b < n."""
    n = s.rep.space.dim
    return {
        "tool_version": version,
        "input_digest": digest,
        "even": algebra_to_json(s.rep.algebra),
        "odd_dim": n,
        "even_odd": [matrix_to_json(m) for m in s.rep.matrices],
        "odd_brackets": [_odd_entry(s, a, b) for a in range(n) for b in range(a, n)],
        "form_even": matrix_to_json(s.rep.algebra.form),
        "form_odd": matrix_to_json(s.rep.space.omega),
        "checks": checks_to_json(checks),
    }


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def write_json_atomic(path: str, obj) -> None:
    """Serialize canonically into a new file of mode 0600 beside ``path``
    and rename it into place, so readers never see a partial file; on any
    failure the temporary file is removed and ``path`` is left as it was;
    an ``OSError`` names ``path`` as given, never the temporary file."""
    text = canonical_dumps(obj)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) if exc.filename is not None else exc


def file_digest(path: str) -> str:
    import hashlib  # imported on first use: ``validate`` and ``catalog`` never need it

    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()
