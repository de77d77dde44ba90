"""Every name a module under src/ or tests/ imports is used in that module, every top-level name of the package
has a use, and the CLI imports lightly."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never reads; names in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_the_checker_sees_unused_and_used_names():
    source = "import os\nimport xml.etree.ElementTree as ET\nfrom a import b, c\n__all__ = ['c']\nET.parse(os)\n"
    assert unused_imports(source) == ["line 3: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_names(source: str) -> set[str]:
    """The names that the top-level definitions and assignments of ``source`` bind."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def loaded_names(source: str) -> set[str]:
    """The names ``source`` loads: a name read, an attribute read such as ``module._x``, or an entry of ``__all__``.

    An import, an assignment or a definition is not a load.
    """
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            loaded.update(ast.literal_eval(node.value))
    return loaded


def unused_names(defining: list[str], loading: list[str], private: bool) -> list[str]:
    """Top-level private (``_x``) or public names that the ``defining`` sources bind but no ``loading`` source loads.

    Dunder names are neither.
    """
    defined = set().union(*map(top_level_names, defining))
    loaded = set().union(*map(loaded_names, loading))
    unused = (name for name in defined - loaded if not (name.startswith("__") and name.endswith("__")))
    return sorted(name for name in unused if name.startswith("_") == private)


CHECKER_SOURCES = [
    "_A = 1\n_b, (_c, d) = 2, (3, 4)\ndef _f():\n    return _A\nclass _K:\n    pass\n__all__ = ['E']\nE = 5\n",
    "import m\nfrom n import _c\nm._b = m._K\n_f()\n",
]


def test_the_checker_sees_unused_and_used_private_names():
    assert unused_names(CHECKER_SOURCES, CHECKER_SOURCES, private=True) == ["_b", "_c"]


def test_the_checker_sees_public_names_that_other_sources_load():
    assert unused_names(CHECKER_SOURCES, CHECKER_SOURCES, private=False) == ["d"]
    assert unused_names(CHECKER_SOURCES, [*CHECKER_SOURCES, "import m\nm.d\n"], private=False) == []


def read_sources(paths) -> list[str]:
    return [path.read_text(encoding="utf-8") for path in paths]


PACKAGE = read_sources(sorted((ROOT / "src" / "tmcsignal").glob("*.py")))


def test_every_private_helper_of_the_package_has_a_use():
    assert unused_names(PACKAGE, PACKAGE, private=True) == []


def test_every_public_name_of_the_package_has_a_use():
    """Each public top-level name of the package is loaded somewhere in src/, tests/, perfbench/ or tools/."""
    folders = ("src", "tests", "perfbench", "tools")
    users = read_sources(sorted(path for folder in folders for path in (ROOT / folder).rglob("*.py")))
    assert unused_names(PACKAGE, users, private=False) == []


def test_importing_the_cli_leaves_multiprocessing_out():
    """``rl.train`` imports multiprocessing only when it forks, so the CLI's start-up does not pay for it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, tmcsignal.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
