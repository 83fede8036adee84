"""Module layout of the ``superweyl`` package.

No module may import a private (``_``-prefixed, non-dunder) name from a
sibling module, at module level or inside a function: a name shared across
modules is part of the package's interface and must be public.  Every
function that the benchmark's tracer wraps must stay a module-level
callable of its module.
"""

import ast
import importlib
from pathlib import Path

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


def traced_targets() -> dict[str, tuple[str, ...]]:
    """``TARGETS`` of ``perfbench/tracing.py``, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign | ast.Assign):
            targets = [node.target] if isinstance(node, ast.AnnAssign) else node.targets
            if any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_traced_functions_exist():
    targets = traced_targets()
    assert {"liealg", "engine", "symplectic"} <= set(targets)
    missing = [f"{module}.{name}" for module, names in targets.items() for name in names
               if not callable(getattr(importlib.import_module(f"superweyl.{module}"), name, None))]
    assert missing == []
