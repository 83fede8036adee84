import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superweyl.cli
from oracles import poly_constant
from superweyl import __version__
from superweyl.catalog import build_osp_even, build_spin_rep
from superweyl.cli import main
from superweyl.engine import CheckResult
from superweyl.exactla import Matrix
from superweyl.jsonio import (ParseError, algebra_from_json, canonical_dumps,
                              matrix_from_json, matrix_to_json, poly_to_json,
                              problem_from_json, problem_to_json,
                              scalar_from_str, scalar_to_str, space_from_json,
                              space_to_json, write_json_atomic)
from superweyl.symplectic import standard_space
from superweyl.weyl import PolyElement


# -- serialization round trips ---------------------------------------------


def test_scalar_strings():
    assert scalar_to_str(Fraction(-3, 8)) == "-3/8"
    assert scalar_to_str(Fraction(4)) == "4"
    assert scalar_from_str("-3/8") == Fraction(-3, 8)
    assert scalar_from_str("7") == Fraction(7)
    assert scalar_from_str(3) == Fraction(3)
    # only "p" and "p/q" with an optional minus; Fraction alone accepts the last five
    for text in ("abc", None, "-1/-2", "1.5", " 1 ", "1e5", "+1", "1_000"):
        with pytest.raises(ParseError):
            scalar_from_str(text)


def test_matrix_round_trip():
    m = Matrix([[1, Fraction(1, 2)], [-3, 0]])
    assert matrix_from_json(matrix_to_json(m), 2) == m
    with pytest.raises(ParseError):
        matrix_from_json([[0.5]], 1)
    with pytest.raises(ParseError):
        matrix_from_json("nope", 1)
    with pytest.raises(ParseError):
        matrix_from_json([["1", "2"]], 2)
    for bad in ([["1", "2"], ["3"]], [["1.5"]]):
        with pytest.raises(ParseError):
            matrix_from_json(bad, 2)


def test_matrix_parse_lets_programming_errors_through(monkeypatch):
    # only malformed input becomes a ParseError; a bug inside Matrix does not
    import superweyl.exactla

    def broken(x):
        raise TypeError("simulated bug inside Matrix")

    monkeypatch.setattr(superweyl.exactla, "as_scalar", broken)
    with pytest.raises(TypeError, match="simulated bug"):
        matrix_from_json([["1", "2"], ["3", "4"]], 2)


def test_poly_round_trip():
    s = standard_space(1)
    p = (PolyElement.monomial(s, (2, 1), Fraction(3, 4))
         + poly_constant(s, -2))
    obj = poly_to_json(p)
    assert obj == [{"exp": [0, 0], "coeff": "-2"}, {"exp": [2, 1], "coeff": "3/4"}]
    assert sum((PolyElement.monomial(s, tuple(t["exp"]), scalar_from_str(t["coeff"]))
                for t in obj), PolyElement.zero(s)) == p
    assert poly_to_json(PolyElement.zero(s)) == []


def test_space_round_trip():
    s = standard_space(2)
    assert space_from_json(space_to_json(s)) == s
    assert space_from_json({"dim": 2, "omega": "standard"}) == standard_space(1)
    with pytest.raises(ParseError):
        space_from_json({"dim": 3, "omega": "standard"})
    with pytest.raises(ParseError):
        space_from_json({"omega": "standard"})


def test_problem_round_trip():
    rep = build_osp_even(1, 1)
    obj = problem_to_json(rep)
    back = problem_from_json(obj)
    assert back.algebra.brackets == rep.algebra.brackets
    assert back.algebra.form == rep.algebra.form
    assert back.space == rep.space
    assert back.matrices == rep.matrices


def test_problem_parse_errors():
    with pytest.raises(ParseError):
        problem_from_json({"space": {"dim": 2, "omega": "standard"}})
    rep = build_osp_even(1, 1)
    obj = problem_to_json(rep)
    obj["nu"] = obj["nu"][:2]
    with pytest.raises(ParseError):
        problem_from_json(obj)


def test_json_booleans_and_non_integer_exponents_are_refused():
    for value in (True, False, 1.0):
        with pytest.raises(ParseError):
            scalar_from_str(value)
    with pytest.raises(ParseError):
        space_from_json({"dim": True, "omega": [["0"]]})
    with pytest.raises(ParseError):
        algebra_from_json({"dim": True, "brackets": [], "form": [["1"]]})
    with pytest.raises(ParseError):
        algebra_from_json({"dim": 2, "brackets": [[False, True, 0, "1"]],
                           "form": [["1", "0"], ["0", "1"]]})
    with pytest.raises(ParseError):
        matrix_from_json([[True]], 1)


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    b = canonical_dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_atomic_write(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.json"
    write_json_atomic(str(target), {"x": 1})
    assert json.loads(target.read_text()) == {"x": 1}
    assert os.listdir(tmp_path) == ["out.json"]

    # a failed rename leaves no temporary file, and no target or the old one
    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    fresh = tmp_path / "fresh.json"
    for path in (fresh, target):
        with pytest.raises(OSError, match="simulated"):
            write_json_atomic(str(path), {"x": 2})
    assert os.listdir(tmp_path) == ["out.json"]
    assert target.read_text() == canonical_dumps({"x": 1})
    monkeypatch.undo()

    # a target in a missing directory, or one that is a directory, is an
    # OSError: exit 1 and one line that names the path as given, the same
    # on every run, never the random temporary file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    expected = {"missing/report.json": "FileNotFoundError: [Errno 2] No such file or directory: "
                                       "'missing/report.json'\n",
                "adir": "IsADirectoryError: [Errno 21] Is a directory: 'adir'\n"}
    for report, line in expected.items():
        for _ in range(2):
            assert main(["test", str(GOLDEN / "gl11.json"), "--report", report]) == 1
            assert capsys.readouterr() == ("", line)
    assert sorted(os.listdir(tmp_path)) == ["adir", "out.json"]
    assert os.listdir(tmp_path / "adir") == []


# -- command-line flows ----------------------------------------------------


def _write_instance(tmp_path, name, *params):
    path = str(tmp_path / f"{name}.json")
    assert main(["catalog", name, *params, "--out", path]) == 0
    return path


def test_validate_flow(tmp_path, capsys):
    path = _write_instance(tmp_path, "osp_even", "1", "1")
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_test_flow_writes_deterministic_report(tmp_path):
    path = _write_instance(tmp_path, "osp_even", "1", "1")
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    assert main(["test", path, "--report", r1]) == 0
    assert main(["test", path, "--report", r2]) == 0
    b1 = Path(r1).read_bytes()
    b2 = Path(r2).read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["verdict"] is True
    assert report["casimir_scalar"] == "-3/8"
    assert report["obstruction"] == []
    assert report["tool_version"] == __version__
    assert len(report["input_digest"]) == 64
    assert [0, 0, ["0", "-1", "0"]] in report["odd_brackets"]
    names = [c["name"] for c in report["checks"]]
    assert "jacobi_ooo" in names and "trace_identity" in names
    assert all(c["pass"] for c in report["checks"])


def test_test_flow_negative_instance(tmp_path):
    path = _write_instance(tmp_path, "spin", "3")
    report_path = str(tmp_path / "r.json")
    assert main(["test", path, "--report", report_path]) == 0
    report = json.loads(Path(report_path).read_text())
    assert report["verdict"] is False
    assert report["casimir_scalar"] is None
    assert report["odd_brackets"] is None
    assert report["obstruction"]


def test_construct_flow(tmp_path):
    path = _write_instance(tmp_path, "gl11")
    out = str(tmp_path / "s.json")
    assert main(["construct", path, "--out", out]) == 0
    data = json.loads(Path(out).read_text())
    assert [0, 1, ["1", "1"]] in data["odd_brackets"]
    assert data["even"]["dim"] == 2
    assert all(c["pass"] for c in data["checks"])


def test_failing_checks_fail_construct_but_not_test(tmp_path, capsys, monkeypatch):
    # construct writes its file and exits 1; test reports the failing check
    path = _write_instance(tmp_path, "gl11")
    capsys.readouterr()
    failing = CheckResult("jacobi_ooo", False, "indices (0, 0, 0)")
    monkeypatch.setattr(superweyl.cli, "verify_superalgebra", lambda s: [failing])
    out, report = tmp_path / "s.json", tmp_path / "r.json"
    assert main(["construct", path, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("constructed with failing checks: jacobi_ooo\n", "")
    entry = {"name": "jacobi_ooo", "pass": False, "witness": "indices (0, 0, 0)"}
    assert json.loads(out.read_text())["checks"] == [entry]
    assert main(["test", path, "--report", str(report)]) == 0
    assert capsys.readouterr() == (f"extends; report written to {report}\n", "")
    assert entry in json.loads(report.read_text())["checks"]


def test_construct_obstructed_exits_two(tmp_path, capsys):
    path = _write_instance(tmp_path, "spin", "3")
    out = str(tmp_path / "s.json")
    assert main(["construct", path, "--out", out]) == 2
    assert "obstructed" in capsys.readouterr().out
    assert not os.path.exists(out)


def test_construct_obstructed_names_first_failing_triple(tmp_path, capsys):
    # the named triple is the first a <= b <= c whose jacobiator, computed
    # from the unchecked bracket tables, is nonzero
    from itertools import combinations_with_replacement

    from oracles import jacobiator
    from superweyl.engine import construct_superalgebra_unchecked
    path = _write_instance(tmp_path, "spin", "3")
    capsys.readouterr()
    assert main(["construct", path, "--out", str(tmp_path / "s.json")]) == 2
    printed = capsys.readouterr().out
    s = construct_superalgebra_unchecked(build_spin_rep(3))
    for a, b, c in combinations_with_replacement(range(4), 3):
        vec = jacobiator(s, a, b, c)
        if any(x != 0 for x in vec):
            break
    expected = f"odd triple ({a}, {b}, {c}) has jacobiator [{', '.join(str(x) for x in vec)}]"
    assert printed.startswith("obstructed: ")
    assert expected in printed
    assert printed.count("\n") == 1


def test_catalog_to_stdout(tmp_path, capsys):
    assert main(["catalog", "gl11"]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["space"]["dim"] == 2


def test_error_paths_print_exception_names(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("ParseError:")

    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({
        "space": {"dim": 1, "omega": [["0"]]},
        "g0": {"dim": 0, "brackets": [], "form": []},
        "nu": []}))
    assert main(["validate", str(odd)]) == 1
    assert capsys.readouterr().err.startswith("OddDimension:")

    missing = str(tmp_path / "missing.json")
    assert main(["validate", missing]) == 1
    assert capsys.readouterr().err.startswith("ParseError:")

    assert main(["catalog", "nonsense"]) == 1
    assert capsys.readouterr().err.startswith("UnknownInstance:")

    assert main(["catalog", "spin", "2"]) == 1
    assert capsys.readouterr().err.startswith("NotSymplectic:")


def test_boolean_dimension_exits_one_with_one_line(tmp_path, capsys):
    # true would otherwise be read as the dimension 1 and the problem decided
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "space": {"dim": 2, "omega": "standard"},
        "g0": {"dim": True, "brackets": [], "form": [["1"]]},
        "nu": [[["0", "0"], ["0", "0"]]]}))
    report = tmp_path / "report.json"
    assert main(["test", str(path), "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ParseError:") and captured.err.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize("brackets", [5, None, "[]", {"0": [0, 1, 0, "1"]}])
def test_brackets_that_are_not_a_list_exit_one_with_one_line(tmp_path, capsys, brackets):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "space": {"dim": 2, "omega": "standard"},
        "g0": {"dim": 1, "brackets": brackets, "form": [["1"]]},
        "nu": [[["0", "0"], ["0", "0"]]]}))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ParseError:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("dim, status", [(16, 0), (18, 1)])
def test_standard_omega_is_limited_to_dimension_16(tmp_path, capsys, dim, status):
    # the shorthand expands to a dense form, so a short file must not ask for a huge one
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "space": {"dim": dim, "omega": "standard"},
        "g0": {"dim": 0, "brackets": [], "form": []},
        "nu": []}))
    assert main(["validate", str(path)]) == status
    captured = capsys.readouterr()
    if status:
        assert captured.out == ""
        assert captured.err.startswith("ParseError:") and captured.err.count("\n") == 1
    else:
        assert captured.err == ""


def test_validation_error_names_surface(tmp_path, capsys):
    # identity matrix does not preserve the form: the rep check must say so
    obj = {
        "space": {"dim": 2, "omega": "standard"},
        "g0": {"dim": 1, "brackets": [], "form": [["1"]]},
        "nu": [[["1", "0"], ["0", "1"]]],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("NotSymplectic:")


def test_too_wide_matrix_rows_exit_one_with_one_line(tmp_path, capsys):
    # every row of nu has three entries on a space of dimension 2
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "space": {"dim": 2, "omega": "standard"},
        "g0": {"dim": 1, "brackets": [], "form": [["1"]]},
        "nu": [[["0", "0", "0"], ["0", "0", "0"]]]}))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ParseError: bad matrix: declared column count does not match rows\n"


@pytest.mark.parametrize("keys, value, message", [
    (("nu", 0, 0, 0), "1/0", "bad rational '1/0': Fraction(1, 0)"),
    (("space", "dim"), -1, "bad space dimension -1"),
    (("g0", "dim"), -1, "bad algebra dimension -1"),
    (("g0", "brackets", 0), [0, 1, 1], "each bracket entry must be [i, j, l, value]"),
    (("g0", "brackets", 0), [0, 1, 7, "1"], "bracket entry (0, 1, 7) out of range"),
    (("g0", "brackets", 0), [1, 0, 1, "1"], "sparse bracket entries need i < j, got (1, 0)"),
    ((), [], "problem file must contain a JSON object"),
], ids=["zero-denominator", "negative-space-dim", "negative-dim", "three-items", "out-of-range", "unordered", "array"])
def test_edited_problem_file_exits_one_with_one_line(tmp_path, capsys, keys, value, message):
    # spin-1.json with the entry at ``keys`` replaced, or the whole file for no keys
    obj = json.loads((GOLDEN / "spin-1.json").read_text())
    if keys:
        container = obj
        for key in keys[:-1]:
            container = container[key]
        container[keys[-1]] = value
    else:
        obj = value
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"ParseError: {message}\n")


def test_invalid_catalog_parameters_exit_one_with_one_line(capsys):
    # int() would read the last four as 3: parameters are ASCII digits only
    for argv in (["catalog", "osp_even", "0", "1"], ["catalog", "spin", "0"],
                 *(["catalog", "spin", text] for text in ("\u0663", " 3", "0_3", "+3"))):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("InvalidInput:") and captured.err.count("\n") == 1
        assert captured.out == ""


def test_oversized_catalog_parameters_exit_one_with_one_line(capsys):
    # past the interpreter's 4300-digit limit, int() itself refuses the first,
    # and the size message of the second could not print its dimension
    for argv in (["catalog", "spin", "1" * 4301], ["catalog", "osp_even", "1", "9" * 4300]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("TooLarge:") and captured.err.count("\n") == 1
        assert captured.out == ""


def test_non_utf8_file_exits_one_with_one_line(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_bytes(b"\xff\xfe{")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ParseError:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("[" * 1000 + "]" * 1000, "nests too deeply"),
    ('{"space": {"dim": 2}, "g0": {"dim": 0, "form": []}, "nu": [], "nu": []}',
     "duplicate key 'nu'"),
    # a misspelt optional field would otherwise read as absent
    ('{"space": {"dim": 2}, "g0": {"dim": 0, "form": []}, "nu": [], "note": ""}',
     "problem file has an unknown key 'note'"),
    ('{"space": {"dim": 2, "omga": [["0", "2"], ["-2", "0"]]}, "g0": {"dim": 0, "form": []},'
     ' "nu": []}', "space has an unknown key 'omga'"),
    ('{"space": {"dim": 2}, "g0": {"dim": 0, "form": [], "brakets": [[0, 0, 0, "1"]]},'
     ' "nu": []}', "algebra has an unknown key 'brakets'"),
], ids=["deep", "duplicate", "unknown-top", "unknown-space", "unknown-g0"])
@pytest.mark.parametrize("verb", ["validate", "test", "construct"])
def test_deep_nesting_and_duplicate_keys_exit_one_with_one_line(tmp_path, capsys, verb,
                                                                 text, message):
    # json.load alone raises RecursionError on the first and keeps the last "nu"
    path, out = tmp_path / "p.json", tmp_path / "out.json"
    path.write_text(text)
    flags = {"validate": [], "test": ["--report", str(out)], "construct": ["--out", str(out)]}
    assert main([verb, str(path), *flags[verb]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ParseError:") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not out.exists()


def test_unwritable_report_exits_one_with_one_line(tmp_path, capsys):
    path = _write_instance(tmp_path, "gl11")
    capsys.readouterr()
    report = tmp_path / "missing" / "r.json"
    assert main(["test", path, "--report", str(report)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not report.exists()


def test_programming_errors_are_not_reported_as_bad_input(tmp_path, monkeypatch):
    # a ValueError from inside the library is a bug, not a verdict on the input
    import superweyl.cli

    def broken(problem):
        raise ValueError("bug")

    path = _write_instance(tmp_path, "gl11")
    monkeypatch.setattr(superweyl.cli, "decide", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["test", path, "--report", str(tmp_path / "r.json")])


# -- fuzzing problem files -------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
FUZZ_BASES = {stem: json.loads((GOLDEN / f"{stem}.json").read_text())
              for stem in ("gl11", "spin-3", "osp_even-1-1")}


def _locations(obj, path=()):
    """Every (path, value) below ``obj``, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _locations(value, path + (key,))


_DROP = object()
_OUT_OF_RANGE = st.one_of(st.integers(max_value=-1), st.integers(min_value=17, max_value=10 ** 30))


def _replaced(obj, path, value):
    """A copy of ``obj`` with ``value`` at ``path``, or that field removed."""
    out = copy.deepcopy(obj)
    target = out
    for key in path[:-1]:
        target = target[key]
    if value is _DROP:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return out


@st.composite
def mutated_problems(draw):
    """A golden problem file with one field dropped, one scalar, dimension
    or index replaced by a value of the wrong kind, or one matrix entry
    changed."""
    base = FUZZ_BASES[draw(st.sampled_from(sorted(FUZZ_BASES)))]
    where = dict(_locations(base))
    kind = draw(st.sampled_from(["drop", "wrong kind", "entry"]))
    if kind == "drop":
        return _replaced(base, draw(st.sampled_from([p for p in where if isinstance(p[-1], str)])),
                         _DROP)
    if kind == "wrong kind":
        # dimensions and indices are integers, scalars are strings
        leaf = draw(st.sampled_from([int, str]))
        path = draw(st.sampled_from([p for p, v in where.items() if type(v) is leaf]))
        value = draw(st.one_of(st.booleans(), st.floats(allow_nan=False), _OUT_OF_RANGE,
                               st.lists(st.sampled_from(["1", 0, "-1/2"]), max_size=2)))
        return _replaced(base, path, value)
    path = draw(st.sampled_from([p for p, v in where.items() if isinstance(v, str)]))
    change = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
    return _replaced(base, path, str(Fraction(where[path]) + change))


@given(mutated_problems())
@settings(max_examples=50, deadline=None)
def test_mutated_problem_files_exit_cleanly(problem):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(problem, handle)
        for argv in (["validate", path], ["test", path, "--report", os.path.join(tmp, "r.json")],
                     ["construct", path, "--out", os.path.join(tmp, "s.json")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            if code == 1:
                assert err.getvalue().count("\n") == 1


def _asks_for_help(text: str) -> bool:
    # -h, a cluster of short options that starts with it, or an abbreviation
    # of --help: argparse prints the help and exits 0
    return text.startswith("-h") or (len(text) > 2 and "--help".startswith(text))


# any other argument that starts with "-", an unknown option or --out, is drawn too
_ARGUMENT_TEXT = st.one_of(st.text(max_size=12), st.text(max_size=11).map("-".__add__),
                           st.just("--out")).filter(lambda text: not _asks_for_help(text))


@given(st.one_of(st.sampled_from(["gl11", "osp_even", "spin", "double"]), _ARGUMENT_TEXT),
       st.lists(st.one_of(st.integers(-2, 3).map(str), _ARGUMENT_TEXT,
                          st.sampled_from(["abelian1", "gl11", "osp12"])), max_size=3))
@settings(max_examples=80, deadline=None)
def test_catalog_arguments_exit_cleanly(name, params):
    # a drawn --out writes nowhere: the written object is kept here
    out, err, written = io.StringIO(), io.StringIO(), []
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          mock.patch.object(superweyl.cli, "write_json_atomic",
                            lambda path, obj: written.append(obj))):
        code = main(["catalog", name, *params])
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == "" and written == []
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""
        assert (written[0] if written else json.loads(out.getvalue()))["space"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["construct", "-h"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: superweyl")


@pytest.mark.parametrize("argv, message", [
    (["construct", "p.json"], "the following arguments are required: --out"),
    (["test", "p.json"], "the following arguments are required: --report"),
    (["frob", "p.json"], "argument command: invalid choice: 'frob'"),
    (["validate", "p.json", "--bogus"], "unrecognized arguments: --bogus"),
], ids=["no-out", "no-report", "unknown-verb", "unknown-option"])
def test_usage_error_exits_one_with_one_line(capsys, argv, message):
    # not argparse's usage text and status 2, which construct gives an
    # obstructed problem; the file is never opened
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"SuperweylError: {message}") and err.count("\n") == 1
