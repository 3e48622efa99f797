"""The package as a whole: importing it leaves the interpreter alone, the
demos run clean, and no module imports a name it never reads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_import_keeps_the_recursion_limit():
    code = ("import importlib, pkgutil, sys\n"
            "before = sys.getrecursionlimit()\n"
            "import churing\n"
            "names = [m.name for m in pkgutil.iter_modules(churing.__path__, 'churing.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "assert len(names) >= 12, names\n"
            "assert sys.getrecursionlimit() == before, sys.getrecursionlimit()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    """Each demo exits clean and prints what ``tests/demo_output/<demo>.txt`` holds."""
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=ENV, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    pinned = ROOT / "tests" / "demo_output" / f"{demo.stem}.txt"
    assert proc.stdout == pinned.read_text(), (
        f"{demo.name} printed other output than {pinned.name}; if the change is meant, "
        f"re-record: PYTHONPATH=src python3 demos/{demo.name} > tests/demo_output/{pinned.name}")


def _unread_imports(path: Path):
    """Names ``path`` imports and never reads: not as a name, not as the
    root of an attribute, not in ``__all__``."""
    imported, read = {}, set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted([*(ROOT / "src" / "churing").glob("*.py"),
                                         *(ROOT / "tests").glob("*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert _unread_imports(path) == []
