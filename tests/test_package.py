"""The package as a whole: what ``import ivhs`` costs and exports."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import ivhs

HEAVY = ("networkx", "scipy", "sympy")


def test_import_loads_no_heavy_dependency():
    # ``import ivhs`` needs numpy alone; a fresh interpreter shows whether
    # anything on the import path pulls in a large optional library.
    src = str(Path(ivhs.__file__).resolve().parents[1])
    code = f"import sys, ivhs; print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(HEAVY)!r}))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_exports_resolve_and_are_listed():
    # A deletion cannot leave a dangling name in __all__, and every public
    # attribute of the package is exported on purpose.
    assert [name for name in ivhs.__all__ if not hasattr(ivhs, name)] == []
    assert len(set(ivhs.__all__)) == len(ivhs.__all__)
    public = {
        name
        for name, value in vars(ivhs).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(ivhs.__all__)


def test_every_import_is_used():
    # A name a module imports but never reads is dead code.  A name counts as
    # read when it appears as a name, or as a whole string (``__all__``
    # entries and quoted annotations).
    unused = []
    for path in sorted(Path(ivhs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{path.name}: {name}" for name in names if name not in used]
    assert unused == []
