"""Every module-level import in the repository's Python files is used.

A stdlib-``ast`` stand-in for a linter's unused-import rule. It checks the
files under ``src/``, ``tests/`` and ``tools/``, except ``__init__.py``
files (whose imports are the package's surface). An import counts as used
when its bound name is read anywhere in the file or listed in ``__all__``;
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src", "tests", "tools")


def module_imports(tree: ast.Module):
    """(bound name, line) of each import outside functions and classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # if TYPE_CHECKING:, try/except ImportError: and the like
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if isinstance(child, ast.stmt))


def exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return names


def unused_imports(path: Path, root: Path = REPO_ROOT) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported(tree)
    return [f"{path.relative_to(root)}:{line}: {name}"
            for name, line in sorted(module_imports(tree), key=lambda item: item[1])
            if name not in used]


def checked_files() -> list[Path]:
    return [path for d in CHECKED_DIRS for path in sorted((REPO_ROOT / d).rglob("*.py"))
            if path.name != "__init__.py"]


def test_no_unused_module_level_imports():
    files = checked_files()
    assert any(p.name == "sim_engine.py" for p in files)
    offenders = [entry for path in files for entry in unused_imports(path)]
    assert offenders == [], "unused imports:\n" + "\n".join(offenders)


def test_checker_flags_an_unused_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "from math import pi as PI, tau\n"
        "__all__ = ['tau']\n"
        "def f() -> OrderedDict:\n"
        "    import sys\n"
        "    return os.path.join(str(PI))\n"
    )
    assert unused_imports(source, tmp_path) == ["sample.py:3: json"]
