"""Byte identity of the command-line outputs against committed golden files.

``tests/golden`` holds problem files, the ``test --report`` and
``construct --out`` files written for them, and ``manifest.json`` with the
catalog arguments and the exit codes of both verbs.  They were written by
the engine that computed every lift by a Gram solve and the Casimir image
by Weyl products; the current command line must reproduce them byte for
byte.  Two problems (``conj-*``) are catalog instances rewritten in a
random rational basis of g0 and of v, so the form matrix is dense.
Catalog problems must also come out of ``superweyl catalog`` unchanged,
which covers the supertrace form of ``osp_even``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from superweyl.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def _run(*args: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(args))


@pytest.mark.parametrize("entry", MANIFEST, ids=[e["stem"] for e in MANIFEST])
def test_cli_outputs_match_golden_files(entry, tmp_path):
    stem = entry["stem"]
    problem = GOLDEN / f"{stem}.json"
    if entry["catalog"] is not None:
        rebuilt = tmp_path / "problem.json"
        assert _run("catalog", *entry["catalog"], "--out", str(rebuilt)) == 0
        assert rebuilt.read_bytes() == problem.read_bytes()

    report = tmp_path / "report.json"
    assert _run("test", str(problem), "--report", str(report)) == entry["test_exit"]
    assert report.read_bytes() == (GOLDEN / f"{stem}.report.json").read_bytes()

    out = tmp_path / "super.json"
    assert _run("construct", str(problem), "--out", str(out)) == entry["construct_exit"]
    expected = GOLDEN / f"{stem}.super.json"
    if expected.exists():
        assert out.read_bytes() == expected.read_bytes()
    else:
        assert not out.exists()
