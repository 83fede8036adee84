"""Module layout of the ``superweyl`` package.

No module may import a private (``_``-prefixed, non-dunder) name from a
sibling module, at module level or inside a function: a name shared across
modules is part of the package's interface and must be public.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superweyl"


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
