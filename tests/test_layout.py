"""Module layout of the ``superweyl`` package.

No module may import a private (``_``-prefixed, non-dunder) name from a
sibling module, at module level or inside a function: a name shared across
modules is part of the package's interface and must be public.  Every
function that the benchmark's tracer wraps must stay a module-level
callable of its module, and the benchmark's traced CLI calls must reach
every function its checker requires.  The package module binds no name
but ``__version__`` and its submodules, so each name has one import path,
from the module that defines it; every module, and every test module,
uses each name it imports, and reads each private constant it binds.  Every
exception class of the package derives from ``exactla.SuperweylError``, the
one class the command line catches for exit status 1.  Every
module-level function has a caller in the package or is traced by the
benchmark: a helper that only tests use lives in
``tests/oracles.py``.  A name read inside a function that binds the same
name, as a parameter, an assignment, or a loop or comprehension target, is
that local and no call.  Every method of every class of the package is a
value-type dunder or has a caller in the package; only the record hook
``__post_init__`` and the ``+``, ``-`` and scalar ``*`` that the package
applies to a ``PolyElement`` as operators are allowed by name.  So
``Matrix`` defines no arithmetic, which the tests take from
``tests/oracles.py``, and a ``PolyElement`` has no ``*`` of two
polynomials: its two products are ``sym_product`` and ``weyl_product``.  Importing the
command line loads only what its verbs run.  Every value a record caches is
a view on the fraction-free kernel: each ``cached_property`` returns
``IntegerColumns``.  The even and the odd bracket have one format: the
fields ``QuadraticLieAlgebra.brackets`` and ``SuperAlgebraData.odd_odd``
carry the same annotation, and one function, ``liealg.check_pairs``,
refuses a malformed pair map.  No record stores its size: a dimension is
read off the record's matrix, so no ``@record`` class annotates a field
``dim``.  ``Matrix`` has one dense constructor, ``Matrix(rows)``, and one
sparse one, ``Matrix.from_entries``: its only class methods are that and
``identity``.
"""

import ast
import builtins
import collections
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from collections.abc import Iterator
from pathlib import Path

import pytest

import superweyl
from superweyl import cli
from superweyl.engine import SuperAlgebraData
from superweyl.exactla import Matrix, SuperweylError
from superweyl.liealg import QuadraticLieAlgebra

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superweyl"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> bool:
    if node.level:
        return True
    return node.module is not None and node.module.split(".")[0] == "superweyl"


def private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno} imports {alias.name} "
            f"from {'.' * node.level}{node.module or ''}"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and _sibling(node)
            for alias in node.names if _private(alias.name)]


def test_no_private_names_cross_module_boundaries():
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"engine.py", "catalog.py", "cli.py"} <= {path.name for path in paths}
    assert [line for path in paths for line in private_imports(path)] == []


def test_detector_sees_function_local_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f():\n    from .engine import _hidden, public\n"
                      "from . import __version__\n")
    assert private_imports(sample) == ["sample.py:2 imports _hidden from .engine"]


def reexports(package: types.ModuleType) -> list[str]:
    """The public names of ``package`` that are not its own submodules."""
    return [name for name, value in vars(package).items() if not name.startswith("_")
            and getattr(value, "__name__", None) != f"{package.__name__}.{name}"]


def test_package_module_is_a_namespace():
    # a function or class is imported from the module that defines it
    assert isinstance(superweyl.__version__, str)
    assert {"engine", "cli"} <= vars(superweyl).keys()
    assert reexports(superweyl) == []
    assert not hasattr(superweyl, "__all__")


def test_reexport_detector():
    package = types.ModuleType("pkg")
    package.__version__, package.sub, package.engine = "1", types.ModuleType("pkg.sub"), object
    package.decide = types.ModuleType("other.decide")
    assert reexports(package) == ["engine", "decide"]


def error_classes(module) -> dict[str, bool]:
    """Each exception class defined in ``module``, and whether it derives
    from ``SuperweylError``."""
    return {name: issubclass(obj, SuperweylError) for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__}


def test_every_error_derives_from_superweyl_error():
    modules = [importlib.import_module("superweyl" if path.stem == "__init__"
                                       else f"superweyl.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py"))]
    errors = {f"{module.__name__}.{name}": ours for module in modules
              for name, ours in error_classes(module).items()}
    assert {"superweyl.exactla.SuperweylError", "superweyl.catalog.InvalidInput"} <= set(errors)
    assert [name for name, ours in errors.items() if not ours] == []
    # so the command line names no error class but the root and OSError
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    named = {node.id: getattr(cli, node.id, getattr(builtins, node.id, None))
             for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name for name, obj in named.items()
            if isinstance(obj, type) and issubclass(obj, BaseException)} == {
        "SuperweylError", "OSError"}


def test_error_root_detector(tmp_path):
    sample = tmp_path / "sample_errors.py"
    sample.write_text("from superweyl.exactla import LinAlgError, SuperweylError\n\n"
                      "class Oops(Exception):\n    pass\n\nclass Sub(Oops):\n    pass\n\n"
                      "class Fine(SuperweylError, ValueError):\n    pass\n\n"
                      "class Linear(LinAlgError):\n    pass\n")
    spec = importlib.util.spec_from_file_location("sample_errors", sample)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert error_classes(module) == {"Oops": False, "Sub": False, "Fine": True, "Linear": True}


def unused_imports(path: Path) -> list[str]:
    """Names bound by a module-level import of ``path`` and never referenced."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node in tree.body if isinstance(node, ast.Import | ast.ImportFrom)
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} imports {name} and never uses it"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [line for path in paths for line in unused_imports(path)] == []


def test_unused_import_detector(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from __future__ import annotations\nimport os.path\nimport re\n"
                      "from .engine import decide, verify as check\n\n"
                      "def f(x: check) -> None:\n    return os.sep\n")
    assert unused_imports(sample) == ["sample.py:3 imports re and never uses it",
                                      "sample.py:4 imports decide and never uses it"]


def cached_views(path: Path) -> list[tuple[str, str]]:
    """(name, return annotation) of every ``cached_property`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.name, ast.unparse(node.returns) if node.returns else "")
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            for decorator in node.decorator_list
            if ast.unparse(decorator) in ("cached_property", "functools.cached_property")]


def test_records_cache_only_integer_views():
    views = {path.name: cached_views(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert ("omega_columns", "IntegerColumns") in views["symplectic.py"]
    assert [f"{name}: {view} -> {returns or 'no annotation'}" for name, found in views.items()
            for view, returns in found if returns != "IntegerColumns"] == []


def pair_checkers(paths: list[Path]) -> list[str]:
    """``<file>:<function>`` of each function of ``paths`` that raises the
    error for a key that "is not a pair"."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    return [f"{path.name}:{node.name}" for path, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and any(isinstance(sub, ast.Raise) and "is not a pair" in ast.unparse(sub)
                    for sub in ast.walk(node))]


def test_both_brackets_have_one_format():
    even = QuadraticLieAlgebra.__annotations__["brackets"]
    assert even == SuperAlgebraData.__annotations__["odd_odd"]
    assert even == "dict[tuple[int, int], dict[int, Scalar]]"
    # and one checker, which both records call
    assert pair_checkers(sorted(PACKAGE.glob("*.py"))) == ["liealg.py:check_pairs"]


def record_fields(path: Path) -> dict[str, list[str]]:
    """The annotated fields, in order, of each ``@record`` class of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name: [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(ast.unparse(decorator) == "record" for decorator in node.decorator_list)}


def test_records_read_their_size_off_their_matrices():
    fields = {f"{path.stem}.{name}": names for path in sorted(PACKAGE.glob("*.py"))
              for name, names in record_fields(path).items()}
    assert fields["symplectic.SymplecticSpace"] == ["omega"]
    assert fields["liealg.QuadraticLieAlgebra"] == ["brackets", "form"]
    assert [name for name, names in fields.items() if "dim" in names] == []
    # an abelian algebra is QuadraticLieAlgebra({}, form), whose size is that of form
    assert not hasattr(QuadraticLieAlgebra, "abelian")


def test_record_field_detector(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("@record\nclass A:\n    dim: int\n    omega: Matrix = None\n\n"
                      "    @property\n    def size(self) -> int:\n        pass\n\n"
                      "class B:\n    dim: int\n")
    assert record_fields(sample) == {"A": ["dim", "omega"]}


def test_cached_view_detector(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import functools\nfrom functools import cached_property\n\n"
                      "class A:\n    @cached_property\n    def a(self) -> IntegerColumns:\n"
                      "        pass\n\n    @functools.cached_property\n    def b(self) -> Matrix:\n"
                      "        pass\n\n    @property\n    def c(self) -> Matrix:\n        pass\n")
    assert cached_views(sample) == [("a", "IntegerColumns"), ("b", "Matrix")]


def classmethods(cls: type) -> set[str]:
    """The names of the class methods that ``cls`` defines itself."""
    return {name for name, value in vars(cls).items() if isinstance(value, classmethod)}


def test_matrix_has_one_sparse_constructor():
    # Matrix(rows) builds dense; every sparse map of entries goes through from_entries
    assert classmethods(Matrix) == {"identity", "from_entries"}


def test_classmethod_detector():
    class Base:
        @classmethod
        def inherited(cls):
            pass

    class Sample(Base):
        @classmethod
        def made(cls):
            pass

        @staticmethod
        def helper():
            pass

        @property
        def size(self):
            pass

        def plain(self):
            pass

    assert classmethods(Sample) == {"made"}


# what a value type may define with no caller: construction, indexing,
# equality, hash and repr
VALUE_DUNDERS = {"__init__", "__getitem__", "__eq__", "__hash__", "__repr__"}


def _attributes(node: ast.AST) -> collections.Counter:
    return collections.Counter(sub.attr for sub in ast.walk(node)
                               if isinstance(sub, ast.Attribute))


def local_bindings(function: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """The names ``function`` binds itself: its parameters and every name it
    assigns, loop and comprehension targets included, but not the names
    bound inside the functions and classes nested in it."""
    args = function.args
    names = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if arg}
    stack = list(function.body) if isinstance(function.body, list) else [function.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
                            | ast.ClassDef):
            stack.extend(ast.iter_child_nodes(node))
    return names


def free_reads(node: ast.AST, bound: frozenset[str] = frozenset()) -> Iterator[str]:
    """The plain names read under ``node``, except where a function around
    the read binds the same name."""
    if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda):
        bound = bound | local_bindings(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from free_reads(child, bound)


def unread_constants(path: Path) -> list[str]:
    """Private names that a module-level assignment of ``path`` binds and no
    code of ``path`` reads (``free_reads``).  Only the module itself can read
    one, since no module imports a private name from a sibling."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {node.id: node.lineno for statement in tree.body
             if isinstance(statement, ast.Assign | ast.AnnAssign)
             for target in (statement.targets if isinstance(statement, ast.Assign)
                            else [statement.target])
             for node in ast.walk(target) if isinstance(node, ast.Name) and _private(node.id)}
    read = set(free_reads(tree))
    return [f"{path.name}:{line} binds {name} and nothing reads it"
            for name, line in bound.items() if name not in read]


def test_every_private_constant_is_read():
    paths = sorted(PACKAGE.glob("*.py"))
    assert [line for path in paths for line in unread_constants(path)] == []


def test_unread_constant_detector(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("_USED = 1\n_DEAD: int = 2\n_A, _B = 3, 4\nPUBLIC = _A\n_SHADOWED = 5\n"
                      "__dunder__ = 6\n\ndef f(_SHADOWED):\n    return _USED + _SHADOWED\n")
    assert unread_constants(sample) == ["sample.py:2 binds _DEAD and nothing reads it",
                                        "sample.py:3 binds _B and nothing reads it",
                                        "sample.py:5 binds _SHADOWED and nothing reads it"]


def uncalled_functions(paths: list[Path], exempt: set[str]) -> list[str]:
    """Module-level functions of ``paths`` whose name
    no file of ``paths`` reads as a plain name (``free_reads``), unless
    ``exempt`` holds the name or ``<module>.<name>``.  An attribute does not
    count: ``os.replace`` is no call of a module's own ``replace``; nor does
    a local of the same name.

    The methods of every module-level class are checked too, unless
    ``exempt`` holds the method's name or ``<module>.<class>.<name>``: a
    method other than a ``VALUE_DUNDERS`` one needs its name as an attribute
    somewhere in ``paths`` outside its own body, and any other dunder, such
    as an arithmetic operator, fails.  A method is matched by name alone, so
    another type's method of the same name counts as a call."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    referenced = {name for tree in trees.values() for name in free_reads(tree)}
    attributes = sum(map(_attributes, trees.values()), collections.Counter())
    dead = [f"{path.name}:{node.lineno} defines {node.name} and nothing calls it"
            for path, tree in trees.items() for node in tree.body if isinstance(node, ast.FunctionDef)
            and not {node.name, f"{path.stem}.{node.name}"} & (referenced | exempt)]
    for path, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, ast.FunctionDef) or node.name in VALUE_DUNDERS
                        or {node.name, f"{path.stem}.{cls.name}.{node.name}"} & exempt):
                    continue
                where = f"{path.name}:{node.lineno} defines {cls.name}.{node.name}"
                if node.name.startswith("__") and node.name.endswith("__"):
                    dead.append(f"{where}, which is no value-type dunder")
                elif attributes[node.name] <= _attributes(node)[node.name]:
                    dead.append(f"{where} and nothing calls it")
    return dead


def test_caller_detector(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n\ndef traced():\n    pass\n\n"
                                   "def exported():\n    pass\n\ndef dead():\n    pass\n\n"
                                   "def replace():\n    pass\n")
    (tmp_path / "b.py").write_text("import os\nfrom .a import used\n\n"
                                   "def f():\n    os.replace('x', 'y')\n    return used()\n")
    (tmp_path / "__init__.py").write_text("from .a import exported\n\n"
                                          "__all__ = ['exported']\n")
    paths = sorted(tmp_path.glob("*.py"))
    # an import and an entry of __all__ are no calls
    assert uncalled_functions(paths, {"a.traced"}) == [
        "a.py:7 defines exported and nothing calls it",
        "a.py:10 defines dead and nothing calls it",
        "a.py:13 defines replace and nothing calls it",
        "b.py:4 defines f and nothing calls it"]


def test_caller_detector_skips_locally_bound_names(tmp_path):
    (tmp_path / "a.py").write_text("".join(f"def {name}():\n    pass\n\n" for name in (
        "assigned", "parameter", "looped", "comprehended", "nested", "called")))
    (tmp_path / "b.py").write_text(
        "from .a import assigned, called, comprehended, looped, nested, parameter\n\n"
        "def f(parameter):\n    assigned = parameter\n    for looped in range(assigned):\n"
        "        pass\n    return [comprehended for comprehended in (looped,)]\n\n"
        "def g():\n    def inner(nested):\n        return nested\n\n"
        "    return called(), inner, nested\n\nVALUE = g()\n")
    paths = sorted(tmp_path.glob("*.py"))
    # a name bound by a nested function still counts where its parent reads it
    assert uncalled_functions(paths, set()) == [
        "a.py:1 defines assigned and nothing calls it",
        "a.py:4 defines parameter and nothing calls it",
        "a.py:7 defines looped and nothing calls it",
        "a.py:10 defines comprehended and nothing calls it",
        "b.py:3 defines f and nothing calls it"]


def test_caller_detector_on_methods(tmp_path):
    (tmp_path / "a.py").write_text(
        "class M:\n    def __init__(self):\n        pass\n\n    def __eq__(self, other):\n"
        "        pass\n\n    def __add__(self, other):\n        pass\n\n"
        "    def used(self):\n        pass\n\n    def recursive(self):\n"
        "        return self.recursive()\n\n    def only_here(self):\n        pass\n\n"
        "class Other:\n    def __add__(self, other):\n        pass\n\n"
        "    def __post_init__(self):\n        pass\n")
    (tmp_path / "b.py").write_text("def f(m):\n    return m.used(), m.only_here\n\n"
                                   "def g(m):\n    return f(m)\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert uncalled_functions(paths, {"g"}) == [
        "a.py:8 defines M.__add__, which is no value-type dunder",
        "a.py:14 defines M.recursive and nothing calls it",
        "a.py:21 defines Other.__add__, which is no value-type dunder",
        "a.py:24 defines Other.__post_init__, which is no value-type dunder"]
    # a bare name allows the method in every class, a qualified one in one class
    assert uncalled_functions(paths, {"g", "__post_init__", "a.Other.__add__"}) == [
        "a.py:8 defines M.__add__, which is no value-type dunder",
        "a.py:14 defines M.recursive and nothing calls it"]


def perfbench_constant(filename: str, name: str):
    """A literal module-level constant of ``perfbench/<filename>``, read
    without importing the file."""
    tree = ast.parse((ROOT / "perfbench" / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign | ast.Assign):
            targets = [node.target] if isinstance(node, ast.AnnAssign) else node.targets
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{filename} defines no {name}")


def traced_targets() -> dict[str, tuple[str, ...]]:
    return perfbench_constant("tracing.py", "TARGETS")


def test_traced_functions_exist():
    targets = traced_targets()
    assert {"liealg", "engine", "symplectic"} <= set(targets)
    missing = [f"{module}.{name}" for module, names in targets.items() for name in names
               if not callable(getattr(importlib.import_module(f"superweyl.{module}"), name, None))]
    assert missing == []


# methods that run with no attribute read: the hook that a record's
# ``__init__`` calls, and the operators of ``weyl_product``,
# ``_weyl_monomial_times`` and ``spbridge.ad_vector``
ALLOWED_METHODS = {"__post_init__", "weyl.PolyElement.__add__", "weyl.PolyElement.__sub__",
                   "weyl.PolyElement.__rmul__"}


def test_every_function_has_a_caller():
    # only the benchmark's traced names are exempt
    traced = {f"{module}.{name}" for module, names in traced_targets().items() for name in names}
    assert uncalled_functions(sorted(PACKAGE.glob("*.py")), traced | ALLOWED_METHODS) == []


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, positive", [(["gl11"], True), (["spin", "3"], False)])
def test_traced_call_paths_reach_every_required_function(tmp_path, capsys, argv, positive):
    # the benchmark's traced pass flags a result as incorrect when a required
    # function gets no call, or a positive-only one runs on a negative problem
    every_pass = perfbench_constant("run.py", "EVERY_PASS")
    positive_only = perfbench_constant("run.py", "POSITIVE_ONLY")
    problem, report, out = (str(tmp_path / name) for name in ("p.json", "r.json", "s.json"))
    tracer = _load_tracer_module().Tracer()
    with tracer.installed():
        assert cli.main(["catalog", *argv, "--out", problem]) == 0
        assert cli.main(["test", problem, "--report", report]) == 0
        assert cli.main(["construct", problem, "--out", out]) == (0 if positive else 2)
    capsys.readouterr()
    required = every_pass + (positive_only if positive else ())
    assert [name for name in required if tracer.total(name, "calls") == 0] == []
    if not positive:
        assert [name for name in positive_only if tracer.total(name, "calls") != 0] == []


@pytest.mark.parametrize("argv", [["gl11"], ["spin", "3"]])
def test_every_traced_lift_runs_inside_casimir_image(tmp_path, capsys, argv):
    # the lifts are part of the Casimir image, so the traced casimir and
    # decide stages include their time
    problem, report = str(tmp_path / "p.json"), str(tmp_path / "r.json")
    assert cli.main(["catalog", *argv, "--out", problem]) == 0
    tracer = _load_tracer_module().Tracer()
    with tracer.installed():
        assert cli.main(["test", problem, "--report", report]) == 0
    capsys.readouterr()

    def ancestors(index):
        while index >= 0:
            name, _, _, index, _ = tracer.spans[index]
            yield name

    lifts = [span for span in tracer.spans if span[0] == "spbridge.sp_to_quadratic"]
    assert lifts
    assert [span for span in lifts if "engine.casimir_image" not in ancestors(span[3])] == []


# modules that every CLI call would pay to import although no verb but
# ``catalog`` (or none at all) runs them
NOT_AT_STARTUP = ("dataclasses", "inspect", "typing", "tempfile", "hashlib", "superweyl.catalog")


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """``python -S`` in a new process with only this checkout's ``src`` on
    the path, so no site package is imported."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True,
                          timeout=60, check=True)


def test_cli_imports_only_what_verbs_need():
    out = _fresh_python("-c", "import sys, superweyl.cli; "
                        f"print(sorted(set({NOT_AT_STARTUP!r}) & set(sys.modules)))")
    assert out.stdout.decode().strip() == "[]"
    # the catalog verb imports the catalog itself
    out = _fresh_python("-m", "superweyl.cli", "catalog", "gl11")
    assert out.stdout == (ROOT / "tests" / "golden" / "gl11.json").read_bytes()
