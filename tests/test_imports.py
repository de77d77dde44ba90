"""Every name a module under src/ or tests/ imports is used in that module, every private helper of src/ has a use,
and the CLI imports lightly."""

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


def unused_private_names(sources: list[str]) -> list[str]:
    """Top-level private names (``_x``, not dunders) the ``sources`` define but none of them loads.

    A load is a name read, or an attribute read such as ``module._x``; an
    import, an assignment or a definition is not.
    """
    defined, loaded = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return sorted(name for name in defined - loaded if name.startswith("_") and not name.endswith("__"))


def test_the_checker_sees_unused_and_used_private_names():
    sources = [
        "_A = 1\n_b, (_c, d) = 2, (3, 4)\ndef _f():\n    return _A\nclass _K:\n    pass\n__all__ = []\n",
        "import m\nfrom n import _c\nm._b = m._K\n_f()\n",
    ]
    assert unused_private_names(sources) == ["_b", "_c"]


def test_every_private_helper_of_the_package_has_a_use():
    package = sorted((ROOT / "src" / "tmcsignal").glob("*.py"))
    assert unused_private_names([path.read_text(encoding="utf-8") for path in package]) == []


def test_importing_the_cli_leaves_multiprocessing_out():
    """``rl.train`` imports multiprocessing only when it forks, so the CLI's start-up does not pay for it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, tmcsignal.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
