"""The package as a whole: importing it leaves the interpreter alone, and
the demos run clean."""

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
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=ENV, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
