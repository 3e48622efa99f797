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


def _private_top_level_names(path: Path):
    """(line, name) of each private function, class or constant defined at
    the top level of ``path``."""
    out = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def test_every_private_top_level_name_is_read():
    """A private function, class or constant of a module in ``src/churing``
    is read: as a name in its own module, imported by name from it into
    another, or as an attribute."""
    paths = sorted((ROOT / "src" / "churing").glob("*.py"))
    local = {path.stem: set() for path in paths}  # module -> names it reads
    shared = set()  # attribute names, and module.name of each name imported by name
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                local[path.stem].add(node.id)
            elif isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                shared.update(f"{node.module}.{alias.name}" for alias in node.names)
    unread = [(path.name, line, name) for path in paths
              for line, name in _private_top_level_names(path)
              if name not in local[path.stem] and name not in shared
              and f"{path.stem}.{name}" not in shared]
    assert unread == []
