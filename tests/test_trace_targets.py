"""The benchmark's span recorder wraps ivhs functions by name: every name it
lists must exist, so that renaming or deleting one fails here and not only
in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _targets()])
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(f"ivhs.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # Methods are wrapped on their class, so they must be defined there.
    assert name in vars(owner), f"ivhs.{module}.{attr}"
