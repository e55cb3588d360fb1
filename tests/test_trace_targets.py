"""The benchmark's span recorder wraps ivhs functions by name: every name it
lists must exist, so that renaming or deleting one fails here and not only
in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _targets():
    return _tracing().TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _targets()])
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(f"ivhs.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # Methods are wrapped on their class, so they must be defined there.
    assert name in vars(owner), f"ivhs.{module}.{attr}"


@pytest.mark.parametrize("op", ["rref", "rank", "kernel_basis"])
def test_one_elimination_is_one_traced_call(op, monkeypatch):
    # The F_p elimination recurses on Schur complements; the recursion must
    # not go through a name the tracer wraps, or one elimination would
    # record nested linalg.elim spans.  Checked on both paths: two_rounds is
    # small enough for the scalar elimination, and with that path off it
    # takes two structural splits; the second input (2520 entries) takes one
    # split and hands its 12 x 30 complement to the scalar elimination.
    import numpy as np

    from ivhs.fields import FieldSpec
    from ivhs.linalg import Matrix
    from test_linalg import _each_path, _two_rounds

    tracing = _tracing()
    p = 10007
    rng = np.random.default_rng(3)
    # 30 structural rows in one dependency level, then 12 dense rows.
    s = np.zeros((30, 60), dtype=np.int64)
    s[np.arange(30), np.arange(30)] = rng.integers(1, p, size=30)
    s[:, 30:] = rng.integers(0, p, size=(30, 30))
    split = np.vstack([s, rng.integers(1, p, size=(12, 60))])
    mats = [Matrix.from_array(FieldSpec.prime(p), a) for a in (_two_rounds(rng, p), split)]
    for _ in _each_path(monkeypatch):
        for mat in mats:
            rec = tracing.SpanRecorder()
            tracer = tracing.Tracer(rec)
            tracer.install()
            try:
                getattr(mat, op)()
            finally:
                tracer.uninstall()
            names = [rec.names[i] for i in rec.name]
            assert names.count("linalg._fp_rref") == (0 if op == "rank" else 1)
            assert rec.counts["elim_calls"] == 1


def test_multiplication_map_counts_its_entries():
    # jacobian.action_entries adds rows x cols of what multiplication_map
    # returns: one traced call must count exactly the entries of its matrix.
    from ivhs import jacobian
    from ivhs.polyring import parse_poly

    tracing = _tracing()
    ctx = jacobian.JacobianContext.fermat(3, 4)
    g = parse_poly("x0*x1 + 3*x2^2", ctx.field, num_vars=ctx.num_vars)
    rec = tracing.SpanRecorder()
    tracer = tracing.Tracer(rec)
    tracer.install()
    try:
        mat = jacobian.multiplication_map(ctx, g, 2)
    finally:
        tracer.uninstall()
    assert [rec.names[i] for i in rec.name].count("jacobian.multiplication_map") == 1
    assert mat.shape == (ctx.piece(4).dim, ctx.piece(2).dim) and not mat.is_zero()
    assert rec.counts["action_entries"] == mat.rows * mat.cols
