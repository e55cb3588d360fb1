"""The package as a whole: what ``import ivhs`` costs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
