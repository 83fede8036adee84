"""Ladder benchmark for the ``superweyl`` command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload extends --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --one-off osp_even 2 2

A run builds the workload's problem files with ``superweyl catalog`` (three
times, for ``setup_s``), then makes whole passes of ``superweyl test`` and
``superweyl construct`` over every problem, one fresh process per call and
one call at a time (a closed loop with one client), while the next pass is
expected to end within ``--seconds``.  Every output is then checked by
``check.py``, which does not import ``superweyl``.  With ``--trace 1`` the
same verbs run in this process under ``tracing.Tracer`` instead, and the
per-layer metrics are reported.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import problems  # noqa: E402
import ratq  # noqa: E402
from problems import Problem  # noqa: E402

SETUP_REPEATS = 3
RUN_DEADLINE_S = 170


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _interrupt(signum, frame):
    raise BenchmarkError(f"stopped by signal {signum}")


# -- running the program ---------------------------------------------------


class Program:
    """Runs ``python -m superweyl.cli`` from this checkout's ``src``."""

    def __init__(self, log_path: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.log = open(log_path, "a", encoding="utf-8")

    def close(self) -> None:
        self.log.close()

    def preflight(self) -> None:
        """Import the package from this checkout once, which also compiles
        its bytecode outside the timed region."""
        out = subprocess.run(
            [sys.executable, "-c",
             "import superweyl, superweyl.cli, superweyl.catalog; print(superweyl.__file__)"],
            env=self.env, capture_output=True, text=True, timeout=60)
        where = Path(out.stdout.strip() or ".").resolve()
        if out.returncode != 0 or SRC.resolve() not in where.parents:
            raise BenchmarkError(f"superweyl does not import from {SRC}: {out.stderr.strip()}")

    def call(self, *args: str) -> tuple[int, float, float]:
        """One verb in a fresh process: (exit status, wall seconds, max RSS in MB)."""
        self.log.write("superweyl " + " ".join(args) + "\n")
        self.log.flush()
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "superweyl.cli", *args], env=self.env,
                                 stdout=subprocess.DEVNULL, stderr=self.log)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        self.log.write(f"  exit {child.returncode}, {wall:.3f} s\n")
        return child.returncode, wall, usage.ru_maxrss / 1024.0


# -- outputs and their checks ---------------------------------------------


def _sha(path: Path) -> str:
    return check.digest(path.read_bytes())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "superweyl").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Outcome:
    """Operations attempted and failed, and every correctness finding."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}")
        return ok

    def finding(self, text: str) -> None:
        self.findings.append(text)
        print(f"incorrect: {text}")


def check_pass(outcome: Outcome, plist: list[Problem], inputs: Path, out: Path,
               construct_exit: dict[str, int]) -> None:
    """Check one pass's outputs, then feed corrupted copies of accepted ones
    to the checker, which must reject each."""
    positive = obstructed = None
    for p in plist:
        if p.pid not in construct_exit or not (out / f"{p.pid}.report.json").exists():
            continue  # an operation on it failed, and was counted as failed
        try:
            fails, sample = _check_problem(p, inputs, out, construct_exit[p.pid])
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            fails, sample = [f"malformed output: {type(exc).__name__}: {exc}"], None
        for f in fails:
            outcome.finding(f"{p.pid}: {f}")
        if fails:
            continue
        if not p.extends and obstructed is None:
            obstructed = sample
        elif p.extends and positive is None and any(
                any(ratq.q(c) != 0 for c in row[2]) for row in sample[3]["odd_brackets"]):
            positive = sample
    for missed in check.self_test(positive, obstructed):
        outcome.finding(f"checker self-test: {missed}")
    cases = (["odd_sign_flip", "wrong_scalar"] if positive else []) + \
            (["dropped_term"] if obstructed else [])
    print(f"checker self-test: corrupted {', '.join(cases)}; each must be rejected")


def _check_problem(p: Problem, inputs: Path, out: Path, construct_exit: int):
    """Failures found in one problem's outputs, and the parsed outputs."""
    raw = (inputs / f"{p.pid}.json").read_bytes()
    prob = json.loads(raw)
    report = json.loads((out / f"{p.pid}.report.json").read_bytes())
    sup_path = out / f"{p.pid}.super.json"
    if p.extends:
        if not sup_path.exists():
            return ["construct_exit: construct wrote no file for a positive problem"], None
        sample = (prob, raw, report, json.loads(sup_path.read_bytes()))
        fails = check.check_positive(*sample)
    else:
        sample = (prob, raw, report)
        fails = check.check_obstructed(prob, raw, report, construct_exit, sup_path.exists())
    if p.conjugated:
        base = json.loads((inputs / f"{p.pid}.base.json").read_bytes())
        fails += _check_against_base(p, report, base)
    return fails, sample


def _check_against_base(p: Problem, report, base_obj) -> list[str]:
    """A change of basis keeps the verdict and the Casimir scalar."""
    fails = []
    if report.get("verdict") is not p.extends:
        fails.append("conjugation: verdict differs from the unconjugated base instance")
    if p.extends:
        want = check.expected_scalar(problems.parse_problem(base_obj))
        got = report.get("casimir_scalar")
        if got is None or ratq.q(got) != want:
            fails.append(f"conjugation: scalar {got} differs from the base instance's {want}")
    return fails


def check_identical(outcome: Outcome, plist: list[Problem], dirs: list[Path],
                    names: list[str]) -> None:
    """Files of the same name in each directory must be byte-identical."""
    for p in plist:
        for suffix in names:
            digests = {_sha(d / f"{p.pid}{suffix}") for d in dirs if (d / f"{p.pid}{suffix}").exists()}
            if len(digests) > 1:
                outcome.finding(f"{p.pid}{suffix}: bytes differ between {', '.join(d.name for d in dirs)}")


def check_against_earlier_runs(outcome: Outcome, plist: list[Problem], inputs: Path,
                               out: Path) -> int:
    """Compare each output with the one an earlier run of the same sources
    wrote for the same input bytes, and record new ones.  This carries the
    byte-identity check across runs that make a single pass."""
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    seen = store.setdefault(source_digest(), {})
    compared = 0
    for p in plist:
        key = _sha(inputs / f"{p.pid}.json")
        for suffix in (".report.json", ".super.json"):
            path = out / f"{p.pid}{suffix}"
            if not path.exists():
                continue
            entry = seen.setdefault(key, {})
            digest = _sha(path)
            if suffix in entry:
                compared += 1
                if entry[suffix] != digest:
                    outcome.finding(f"{p.pid}{suffix}: bytes differ from an earlier run")
            entry[suffix] = digest
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, store_path)
    return compared


# -- the workload's problem files -----------------------------------------


def catalog_file(p: Problem) -> str:
    return f"{p.pid}.base.json" if p.conjugated else f"{p.pid}.json"


def make_inputs(plist: list[Problem], setup_dir: Path, inputs: Path, seed: int) -> None:
    """Copy the catalog files into ``inputs`` and write the conjugated ones."""
    inputs.mkdir()
    for p in plist:
        shutil.copyfile(setup_dir / catalog_file(p), inputs / catalog_file(p))
        if p.conjugated:
            base = json.loads((inputs / catalog_file(p)).read_bytes())
            obj = problems.conjugate(base, random.Random(f"conjugate/{seed}/{p.pid}"))
            (inputs / f"{p.pid}.json").write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


# -- untraced run ----------------------------------------------------------


def untraced_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    plist = problems.ordered(workload, seed)
    outcome = Outcome()
    program = Program(work / "program.log")
    try:
        program.preflight()
        setup_times, setup_dirs = [], []
        for r in range(SETUP_REPEATS):
            d = work / f"setup{r}"
            d.mkdir()
            setup_dirs.append(d)
            start = time.perf_counter()
            for p in plist:
                rc, _, _ = program.call("catalog", *p.catalog, "--out", str(d / catalog_file(p)))
                outcome.op(rc == 0, f"catalog {' '.join(p.catalog)} exited {rc}")
            setup_times.append(time.perf_counter() - start)
        make_inputs(plist, setup_dirs[0], work / "inputs", seed)

        passes = []
        measure_start = time.perf_counter()
        while True:
            passes.append(run_pass(program, outcome, plist, work / "inputs",
                                   work / f"pass{len(passes)}"))
            elapsed = time.perf_counter() - measure_start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        program.close()

    check_identical(outcome, plist, setup_dirs, [".json", ".base.json"])
    pass_dirs = [work / f"pass{i}" for i in range(len(passes))]
    check_identical(outcome, plist, pass_dirs, [".report.json", ".super.json"])
    check_pass(outcome, plist, work / "inputs", pass_dirs[0], passes[0]["construct_exit"])
    compared = check_against_earlier_runs(outcome, plist, work / "inputs", pass_dirs[0])
    print(f"{workload}: {len(plist)} problems, {len(passes)} pass(es), "
          f"{compared} output(s) matched against earlier runs")
    return _result(outcome, {
        "setup_s": (statistics.median(setup_times), "s"),
        "test_s": (statistics.median(p["test_s"] for p in passes), "s"),
        "construct_s": (statistics.median(p["construct_s"] for p in passes), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    })


def run_pass(program: Program, outcome: Outcome, plist: list[Problem], inputs: Path,
             out: Path) -> dict:
    out.mkdir()
    peak = 0.0
    start = time.perf_counter()
    for p in plist:
        rc, _, rss = program.call("test", str(inputs / f"{p.pid}.json"),
                                  "--report", str(out / f"{p.pid}.report.json"))
        peak = max(peak, rss)
        outcome.op(rc == 0, f"test {p.pid} exited {rc}")
    test_s = time.perf_counter() - start
    construct_exit = {}
    start = time.perf_counter()
    for p in plist:
        rc, _, rss = program.call("construct", str(inputs / f"{p.pid}.json"),
                                  "--out", str(out / f"{p.pid}.super.json"))
        peak = max(peak, rss)
        # exit 2 is the right answer on an obstructed problem
        if outcome.op(rc == (0 if p.extends else 2), f"construct {p.pid} exited {rc}"):
            construct_exit[p.pid] = rc
    construct_s = time.perf_counter() - start
    return {"test_s": test_s, "construct_s": construct_s, "peak_rss_mb": peak,
            "construct_exit": construct_exit}


def _result(outcome: Outcome, metrics: dict) -> dict:
    return {"correct": not outcome.findings, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


# -- traced run ------------------------------------------------------------


def traced_run(workload: str, seed: int, work: Path) -> dict:
    """Run the verbs in this process: catalog, test and construct under the
    tracer, plus one untraced test of each problem for the tracing overhead."""
    sys.path.insert(0, str(SRC))
    import superweyl.catalog  # noqa: F401  (loads every module the tracer wraps)
    import superweyl.cli as cli
    from tracing import Tracer
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchmarkError(f"superweyl does not import from {SRC}")

    plist = problems.ordered(workload, seed)
    outcome = Outcome()

    def verb(*args: str) -> int:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(list(args))
        except BenchmarkError:  # the deadline or a stop signal
            raise
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            print(f"{' '.join(args[:2])}: {type(exc).__name__}: {exc}")
            return -1

    tracer = Tracer()
    obs = Observations(tracer)
    setup, plain, out, inputs = (work / d for d in ("setup0", "untraced", "pass0", "inputs"))
    for d in (setup, plain, out):
        d.mkdir()
    construct_exit: dict[str, int] = {}

    def call(kind: str, p: Problem, target: Path, traced: bool) -> float:
        problem = str(inputs / f"{p.pid}.json")
        args = {"catalog": ("catalog", *p.catalog, "--out", str(target / catalog_file(p))),
                "test": ("test", problem, "--report", str(target / f"{p.pid}.report.json")),
                "construct": ("construct", problem, "--out",
                              str(target / f"{p.pid}.super.json"))}[kind]
        with tracer.installed() if traced else contextlib.nullcontext():
            start = time.perf_counter()
            with (tracer.span(f"verb.{kind}", f"{kind}:{p.pid}") if traced
                  else contextlib.nullcontext()):
                rc = verb(*args)
            elapsed = time.perf_counter() - start
        want = 2 if kind == "construct" and not p.extends else 0
        if outcome.op(rc == want, f"{kind} {p.pid} exited {rc}") and kind == "construct":
            construct_exit[p.pid] = rc
        return elapsed

    for p in plist:
        call("catalog", p, setup, traced=True)
    make_inputs(plist, setup, inputs, seed)
    # Each problem's test runs once untraced and once traced, back to back,
    # in alternating order, so the overhead is not a warm-up or drift effect.
    untraced_test_s = traced_test_s = 0.0
    for i, p in enumerate(plist):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed = call("test", p, out if traced else plain, traced)
            if traced:
                traced_test_s += elapsed
            else:
                untraced_test_s += elapsed
    for p in plist:
        call("construct", p, out, traced=True)

    check_identical(outcome, plist, [plain, out], [".report.json"])
    check_pass(outcome, plist, inputs, out, construct_exit)
    check_against_earlier_runs(outcome, plist, inputs, out)
    tracer.write_spans(str(work / "spans.jsonl"))
    table = stage_table(tracer, plist, inputs)
    (work / "stages.txt").write_text("\n".join(table) + "\n")
    print("\n".join(table))

    needed = 2 * sum(obs.dims.get(p.pid, 0) for p in plist)  # one lift per x_i per verb
    in_verbs = lambda prob: prob.startswith(("test:", "construct:"))  # noqa: E731
    total = tracer.total
    metrics = {
        "jsonio.load_problem_s": (total("jsonio.load_problem", "inclusive"), "s"),
        "jsonio.write_s": (sum(total(n, "inclusive") for n in (
            "jsonio.report_to_json", "jsonio.superalgebra_to_json",
            "jsonio.write_json_atomic")), "s"),
        "jsonio.bytes_written": (obs.bytes_written, "bytes"),
        "symplectic.validate_space_s": (total("symplectic.validate_space", "inclusive"), "s"),
        "liealg.validate_lie_s": (total("liealg.validate_lie", "inclusive"), "s"),
        "engine.validate_rep_s": (total("engine.validate_rep", "inclusive"), "s"),
        "spbridge.sp_to_quadratic_s": (total("spbridge.sp_to_quadratic", "inclusive"), "s"),
        "spbridge.sp_to_quadratic.calls": (total("spbridge.sp_to_quadratic", "calls"), "count"),
        "spbridge.lifts_per_needed": (
            total("spbridge.sp_to_quadratic", "calls", in_verbs) / max(needed, 1), "ratio"),
        "spbridge.trace_ratio_constant_s": (
            total("spbridge.trace_ratio_constant", "inclusive"), "s"),
        "spbridge.trace_ratio_constant.calls": (
            total("spbridge.trace_ratio_constant", "calls"), "count"),
        "weyl.weyl_product.calls": (total("weyl.weyl_product", "calls"), "count"),
        "weyl.bilinear_form.calls": (total("weyl.bilinear_form", "calls"), "count"),
        "weyl.bilinear_form_s": (total("weyl.bilinear_form", "inclusive"), "s"),
        "exactla.solve_linear.calls": (total("exactla.solve_linear", "calls"), "count"),
        "exactla.solve_linear_s": (total("exactla.solve_linear", "inclusive"), "s"),
        "exactla.solve_linear.max_rows": (obs.max_rows, "count"),
        "exactla.max_bits": (obs.max_bits, "bits"),
        "liealg.casimir_pairs.calls": (total("liealg.casimir_pairs", "calls"), "count"),
        "engine.decide.self_s": (total("engine.decide", "self_time"), "s"),
        "engine.casimir_image.self_s": (total("engine.casimir_image", "self_time"), "s"),
        "engine.construct.self_s": (
            total("engine.construct_superalgebra_unchecked", "self_time"), "s"),
        "engine.quadratic_lift_adjoint.calls": (
            total("engine.quadratic_lift_adjoint", "calls"), "count"),
        "engine.verify_superalgebra_s": (total("engine.verify_superalgebra", "inclusive"), "s"),
        "engine.obstruction_terms": (obs.obstruction_terms, "count"),
        "catalog.build_instance_s": (total("catalog.build_instance", "inclusive"), "s"),
        "trace.overhead_test_s": (traced_test_s - untraced_test_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    positive = any(p.extends for p in plist)
    for name in EVERY_PASS + (POSITIVE_ONLY if positive else ()):
        if total(name, "calls") == 0:
            outcome.finding(f"trace: no call of {name} was seen; a call path bypasses the wrappers")
    for name in () if positive else POSITIVE_ONLY:
        if total(name, "calls") != 0:
            outcome.finding(f"trace: {name} ran on a workload with no positive problem")
    print(f"{workload}: traced test pass {traced_test_s:.3f} s, untraced {untraced_test_s:.3f} s, "
          f"{len(tracer.spans)} spans written to {work / 'spans.jsonl'}")
    return _result(outcome, metrics)


# Functions every traced pass must reach, and those that only positive
# problems reach; a zero count in the first group means a wrapper was missed.
EVERY_PASS = ("catalog.build_instance", "jsonio.load_problem", "jsonio.write_json_atomic",
              "symplectic.validate_space", "liealg.validate_lie", "engine.validate_rep",
              "spbridge.sp_to_quadratic", "spbridge.trace_ratio_constant", "weyl.weyl_product",
              "weyl.bilinear_form", "exactla.solve_linear", "liealg.casimir_pairs",
              "engine.decide", "engine.casimir_image")
POSITIVE_ONLY = ("engine.construct_superalgebra_unchecked", "engine.quadratic_lift_adjoint",
                 "engine.verify_superalgebra", "jsonio.superalgebra_to_json")


class Observations:
    """Counters read from the arguments and results of wrapped calls."""

    def __init__(self, tracer):
        self.max_rows = 0
        self.max_bits = 0
        self.bytes_written = 0
        self.obstruction_terms = 0
        self.dims: dict[str, int] = {}
        tracer.observers["exactla.solve_linear"] = self._solve
        tracer.observers["jsonio.write_json_atomic"] = self._write
        tracer.observers["engine.decide"] = self._decide
        tracer.observers["jsonio.load_problem"] = self._load

    def _solve(self, args, kwargs, result) -> None:
        self.max_rows = max(self.max_rows, args[0].rows)
        for row in result.data:
            for x in row:
                self.max_bits = max(self.max_bits, x.numerator.bit_length(),
                                    x.denominator.bit_length())

    def _write(self, args, kwargs, result) -> None:
        self.bytes_written += os.path.getsize(args[0])

    def _decide(self, args, kwargs, result) -> None:
        self.obstruction_terms += len(result.obstruction.terms)

    def _load(self, args, kwargs, result) -> None:
        self.dims[Path(args[0]).name[:-len(".json")]] = result.algebra.dim


STAGES = (("build", "catalog", "catalog.build_instance"),
          ("lifts", "test", "spbridge.sp_to_quadratic"),
          ("casimir", "test", "engine.casimir_image"),
          ("trace_fit", "test", "spbridge.trace_ratio_constant"),
          ("decide", "test", "engine.decide"),
          ("construct", "test", "engine.construct_superalgebra_unchecked"),
          ("verify", "test", "engine.verify_superalgebra"))


def stage_table(tracer, plist: list[Problem], inputs: Path) -> list[str]:
    """Per problem, the inclusive time of each stage inside one traced
    ``catalog`` and one traced ``test`` call (seconds, tracing on)."""
    lines = ["stage table (s, traced): " + " ".join(
        f"{name:>9}" for name, _, _ in STAGES) + "   problem (k, n)"]
    for p in plist:
        obj = json.loads((inputs / f"{p.pid}.json").read_bytes())
        cells = []
        for _, verb_name, fn in STAGES:
            cells.append(f"{tracer.total(fn, 'inclusive', lambda x: x == f'{verb_name}:{p.pid}'):9.3f}")
        lines.append("stage table (s, traced): " + " ".join(cells)
                     + f"   {p.pid} ({obj['g0']['dim']}, {obj['space']['dim']})")
    return lines


# -- one-off measurement -----------------------------------------------------


def one_off(catalog_args: list[str], work: Path) -> None:
    """Time catalog, test and construct once each on one catalog instance."""
    program = Program(work / "program.log")
    try:
        program.preflight()
        problem = work / "problem.json"
        for args in (("catalog", *catalog_args, "--out", str(problem)),
                     ("test", str(problem), "--report", str(work / "report.json")),
                     ("construct", str(problem), "--out", str(work / "super.json"))):
            rc, wall, rss = program.call(*args)
            print(f"{args[0]:>9} {' '.join(catalog_args)}: {wall:8.2f} s, "
                  f"max RSS {rss:6.1f} MB, exit {rc}", flush=True)
            if args[0] == "catalog" and rc != 0:
                raise BenchmarkError("catalog failed")
    finally:
        program.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(problems.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-off", nargs="+", metavar="CATALOG_ARG",
                        help="time one catalog instance once, e.g. --one-off osp_even 2 2")
    args = parser.parse_args(argv)
    if args.workload is None and args.one_off is None:
        parser.error("give --workload or --one-off")

    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _interrupt)
    name = "one-off" if args.one_off else args.workload
    work = WORK / name
    try:
        if not (SRC / "superweyl" / "cli.py").is_file():
            raise BenchmarkError(f"no superweyl sources under {SRC}")
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        if args.one_off:
            one_off(args.one_off, work)
            return 0
        signal.alarm(RUN_DEADLINE_S)
        if args.trace:
            result = traced_run(args.workload, args.seed, work)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds, work)
        signal.alarm(0)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
