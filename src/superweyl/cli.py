"""Command-line front end.

Verbs:
  validate  check the input file (space, algebra, representation) and exit
  test      decide extendability, write a JSON report
  construct build the superalgebra, write it as JSON (exit 2 if obstructed)
  catalog   emit a built-in instance as a problem file

Every error the package raises derives from ``exactla.SuperweylError``; it
and every failure to read or write a file exit with status 1 and a single
line naming the exception type, e.g. ``JacobiFails: ...``.  An obstructed
construction is not an error in that sense and gets its own exit status.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .engine import (construct_superalgebra_unchecked, decide, first_failing_triple,
                     validate_rep, verify_superalgebra)
from .exactla import SuperweylError
from .jsonio import (canonical_dumps, file_digest, load_problem, odd_brackets_to_json,
                     problem_to_json, report_to_json, superalgebra_to_json, write_json_atomic)
from .liealg import validate_lie
from .symplectic import validate_space


def _validated_problem(path: str):
    rep = load_problem(path)
    validate_space(rep.space)
    validate_lie(rep.algebra)
    validate_rep(rep)
    return rep


def cmd_validate(args) -> int:
    rep = _validated_problem(args.input)
    print(f"ok: algebra of dimension {rep.algebra.dim} "
          f"represented on a symplectic space of dimension {rep.space.dim}")
    return 0


def cmd_test(args) -> int:
    rep = _validated_problem(args.input)
    report = decide(rep)
    checks = list(report.diagnostics)
    odd_brackets = None
    if report.verdict:
        s = construct_superalgebra_unchecked(rep)
        checks.extend(verify_superalgebra(s))
        odd_brackets = odd_brackets_to_json(s)
    obj = report_to_json(report, checks, odd_brackets,
                         version=__version__, digest=file_digest(args.input))
    write_json_atomic(args.report, obj)
    verdict = "extends" if report.verdict else "obstructed"
    print(f"{verdict}; report written to {args.report}")
    return 0


def cmd_construct(args) -> int:
    rep = _validated_problem(args.input)
    report = decide(rep)
    if not report.verdict:
        (a, b, c), jacobiator = first_failing_triple(rep, report.obstruction)
        print("obstructed: the degree-four component of the Casimir image "
              f"has {len(report.obstruction.terms)} nonzero term(s); the odd "
              f"triple ({a}, {b}, {c}) has jacobiator "
              f"[{', '.join(str(x) for x in jacobiator)}]")
        return 2
    s = construct_superalgebra_unchecked(rep)
    checks = verify_superalgebra(s)
    obj = superalgebra_to_json(s, checks, version=__version__,
                               digest=file_digest(args.input))
    write_json_atomic(args.out, obj)
    failed = [c.name for c in checks if not c.passed]
    if failed:
        print(f"constructed with failing checks: {', '.join(failed)}")
        return 1
    print(f"constructed; superalgebra written to {args.out}")
    return 0


def cmd_catalog(args) -> int:
    # only this verb loads the catalog, so the others do not pay for importing it
    from .catalog import build_instance

    obj = problem_to_json(build_instance(args.name, args.parameters))
    if args.out:
        write_json_atomic(args.out, obj)
        print(f"instance {args.name} written to {args.out}")
    else:
        sys.stdout.write(canonical_dumps(obj))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superweyl",
        description="decide whether a quadratic Lie algebra with a symplectic "
                    "representation extends to a Lie superalgebra with an "
                    "invariant form, and build the extension when it does")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a problem file")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("test", help="decide extendability and write a report")
    p.add_argument("input")
    p.add_argument("--report", required=True, help="output path for the report")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("construct", help="build the superalgebra")
    p.add_argument("input")
    p.add_argument("--out", required=True, help="output path for the result")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("catalog", help="emit a built-in instance")
    p.add_argument("name", help="instance name, e.g. gl11, osp_even, spin, double")
    p.add_argument("parameters", nargs="*")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SuperweylError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
