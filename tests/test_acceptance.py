"""Acceptance gate: eight end-to-end checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every numeric claim is exact; the timing bounds are generous
ceilings, not benchmarks.
"""

import json
import re
import time
from fractions import Fraction

import numpy as np

from ivhs.cli import main as cli_main
from ivhs.fields import default_prime_field
from ivhs.hodge import (
    BlockMatrix,
    HodgeShape,
    IntegralElementCandidate,
    build_transpose_element,
    check_integral,
    lie_algebra_residual,
    polarization_matrix,
    project,
)
from ivhs.jacobian import JacobianContext, action_matrix, socle_check
from ivhs.linalg import Matrix, Subspace, random_matrix
from ivhs.polyring import HomogeneousPoly
from ivhs.symmetrizers import (
    CompositionSetting,
    SubspaceE,
    fiber_forward_check,
    genericity_experiment,
    lemma3_rank_one_construction,
    prop4_construction,
    symmetrizer_dimension,
)
from ivhs.theorem import (
    _certificate_closed,
    _certificate_expanded,
    base_case_terms,
    monotonicity_row,
    profile,
    ring_frame_candidate,
    verify_theorem,
)

F = default_prime_field()


def check(num, label, problems, elapsed, limit):
    ok = not problems and elapsed < limit
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)", flush=True)
    assert not problems, problems
    assert elapsed < limit, f"took {elapsed:.1f}s, limit {limit}s"


def test_acceptance_1_graded_dimensions_dense():
    t0 = time.monotonic()
    problems = []
    for n, d in [(3, 6), (4, 7), (5, 8)]:
        ctx = JacobianContext.fermat(n, d)
        prof = profile(n, d)
        expected = {
            d - n - 2: prof.h_n0,
            d: prof.dim_e,
            2 * d - n - 2: prof.h_n1_1,
        }
        for m, want in expected.items():
            got = ctx.piece(m, method="dense").dim
            if got != want:
                problems.append(f"fermat({n},{d}) dim R^{m}: rank gave {got}, closed form {want}")
    check(1, "graded dimensions match closed forms under dense elimination",
          problems, time.monotonic() - t0, 120)


def test_acceptance_2_gorenstein_duality():
    t0 = time.monotonic()
    problems = []
    ctx = JacobianContext.fermat(3, 6)
    for m in (7, 13):
        for method in ("auto", "dense"):
            got = ctx.piece(m, method=method).dim
            if got != 255:
                problems.append(f"dim R^{m} ({method}) = {got}, want 255")
    if ctx.piece(20).dim != 1:
        problems.append(f"socle dimension {ctx.piece(20).dim}, want 1")
    if not socle_check(ctx):
        problems.append("socle check rejected the Fermat sextic")
    check(2, "Gorenstein duality and one-dimensional socle",
          problems, time.monotonic() - t0, 300)


def test_acceptance_3_inequality_grid():
    t0 = time.monotonic()
    problems = []
    for n in range(3, 9):
        for d in range(n + 3, n + 21):
            prof = profile(n, d)
            ratio = 3 * Fraction(prof.h_n1_1, prof.h_n0)
            if not prof.dim_e >= prof.three_p:
                problems.append(f"({n},{d}): dim E {prof.dim_e} < 3p {prof.three_p}")
            if not Fraction(prof.dim_e) >= ratio + 6:
                problems.append(f"({n},{d}): dim E {prof.dim_e} < 3 h1/h0 + 6 = {ratio + 6}")
            if not ratio + 6 >= prof.three_p:
                problems.append(f"({n},{d}): strong bound does not imply the floor bound")
    for n in range(3, 11):
        a_n, b_n = base_case_terms(n)
        prof = profile(n, n + 3)
        diff = Fraction(prof.dim_e) - 3 * Fraction(prof.h_n1_1, prof.h_n0)
        if diff != a_n + b_n:
            problems.append(f"base case n={n}: difference {diff} != A+B = {a_n + b_n}")
    check(3, "dimension inequalities and base-case identity on the full grid",
          problems, time.monotonic() - t0, 10)


def test_acceptance_4_monotonicity_grid():
    t0 = time.monotonic()
    problems = []
    for n in range(3, 9):
        ratios = {}
        for d in range(n + 3, n + 22):
            prof = profile(n, d)
            ratios[d] = Fraction(prof.h_n1_1, prof.h_n0)
        for d in range(n + 3, n + 21):
            row = monotonicity_row(n, d)
            closed = _certificate_closed(n, d)[0]
            expanded = _certificate_expanded(n, d)
            if closed != expanded:
                problems.append(f"({n},{d}): certificate forms disagree: {closed} vs {expanded}")
            diff = ratios[d] - ratios[d + 1]
            sign = (diff > 0) - (diff < 0)
            s_sign = (row.s_d > 0) - (row.s_d < 0)
            if sign != s_sign:
                problems.append(f"({n},{d}): sign(r(d)-r(d+1))={sign} but sign(s_d)={s_sign}")
            if not diff > 0:
                problems.append(f"({n},{d}): ratio not strictly decreasing")
    check(4, "ratio monotonicity certificates on the full grid",
          problems, time.monotonic() - t0, 10)


def test_acceptance_5_symmetrizer_rank_lemmas():
    t0 = time.monotonic()
    problems = []
    for g0 in range(2, 6):
        for g2 in range(1, 5):
            dim = symmetrizer_dimension(lemma3_rank_one_construction(g0, g2, F))
            if dim != 0:
                problems.append(f"rank-one witness g0={g0} g2={g2}: dim {dim} != 0")
    for g0 in range(2, 6):
        for g1 in range(1, 8):
            for g2 in range(1, 5):
                setting = CompositionSetting(g0, g1, g2, field=F)
                dim = symmetrizer_dimension(prop4_construction(setting))
                if dim != 0:
                    problems.append(f"direct-sum witness ({g0},{g1},{g2}): dim {dim} != 0")
    # random subspaces at and above the threshold are almost always generic
    for g0, g1 in [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4),
                   (4, 1), (4, 2), (4, 3), (4, 4)]:
        for g2 in (1, 2):
            setting = CompositionSetting(g0, g1, g2, field=F)
            candidates = {setting.multiplication_threshold, g0 * g1}
            for k in sorted(candidates):
                if not setting.multiplication_threshold <= k <= g0 * g1:
                    continue
                report = genericity_experiment(setting, k, trials=100, seed=11)
                if report.zero_fraction < 0.99:
                    problems.append(
                        f"({g0},{g1},{g2}) k={k}: only {report.zero_fraction:.0%} zero"
                    )
    # k = 1 control: a single alpha imposes no symmetry, dim is g1*g2 always
    for g0, g1, g2 in [(2, 3, 2), (3, 2, 1), (4, 4, 2)]:
        setting = CompositionSetting(g0, g1, g2, field=F)
        report = genericity_experiment(setting, 1, trials=20, seed=5)
        if any(dim != g1 * g2 for dim in report.dimensions):
            problems.append(f"k=1 control ({g0},{g1},{g2}): dims {set(report.dimensions)}")
    check(5, "symmetrizer rank lemmas and genericity experiments",
          problems, time.monotonic() - t0, 300)


def test_acceptance_6_nongenericity_witness():
    t0 = time.monotonic()
    problems = []
    ctx = JacobianContext.fermat(3, 6)
    report = verify_theorem(ctx, seed=0, pair_sample=60)
    if report.verdict != "NonGenericityWitnessed":
        problems.append(f"verdict {report.verdict}")
    if not (report.dims_match and report.inequality_holds):
        problems.append("closed forms or inequality failed")
    for b, name in [(1, "p0"), (8, "p1")]:
        rank = action_matrix(ctx, 6, b).rank()
        if rank != 185:
            problems.append(f"{name} action rank {rank} != 185")
    if not report.canonical_symmetrizer_nonzero:
        problems.append("canonical symmetrizer rejected")
    if report.symmetrizer_pairs_checked < 50:
        problems.append(f"only {report.symmetrizer_pairs_checked} pairs sampled")
    check(6, "non-genericity witness on the Fermat sextic",
          problems, time.monotonic() - t0, 900)


def _dense(x: BlockMatrix) -> Matrix:
    s = x.shape
    rows = [
        Matrix.hstack([x.block(i, j) for j in range(s.weight + 1)])
        for i in range(s.weight + 1)
    ]
    return Matrix.vstack(rows)


def _random_isometry_member(shape, rng):
    n = shape.weight
    blocks = {}
    for i in range(n + 1):
        for j in range(n + 1):
            partner = (n - j, n - i)
            if (i, j) == partner:
                r = random_matrix(F, shape.h(i), shape.h(j), rng)
                blocks[(i, j)] = r + r.transpose() if n % 2 else r - r.transpose()
            elif (i, j) < partner:
                blocks[(i, j)] = random_matrix(F, shape.h(i), shape.h(j), rng)
    for (i, j) in list(blocks):
        partner = (n - j, n - i)
        if (i, j) < partner:
            sign = -1 if (j - i) % 2 == 0 else 1
            blocks[partner] = blocks[(i, j)].transpose().scale(sign)
    return BlockMatrix(shape, F, blocks)


def test_acceptance_7_hodge_machinery():
    t0 = time.monotonic()
    problems = []

    shapes = [
        HodgeShape(2, (2, 3, 2)),
        HodgeShape(3, (1, 2, 2, 1)),
        HodgeShape(4, (2, 1, 3, 1, 2)),
        HodgeShape(5, (1, 2, 2, 2, 2, 1)),
    ]
    for trial in range(200):
        rng = np.random.default_rng((701, trial))
        shape = shapes[trial % len(shapes)]
        if trial % 3 == 0:
            x = _random_isometry_member(shape, rng)
        else:
            blocks = {
                (i, j): random_matrix(F, shape.h(i), shape.h(j), rng)
                for i in range(shape.weight + 1)
                for j in range(shape.weight + 1)
            }
            x = BlockMatrix(shape, F, blocks)
        sigma = _dense(polarization_matrix(shape, F))
        residual_empty = lie_algebra_residual(x) == []
        equation_zero = (_dense(x).transpose() @ sigma + sigma @ _dense(x)).is_zero()
        if residual_empty != equation_zero:
            problems.append(f"trial {trial}: residual {residual_empty} vs equation {equation_zero}")

    for weight in (3, 4, 5, 6):
        dims = [2] + [3] * (weight - 1) + [2]
        shape = HodgeShape(weight, tuple(dims))
        rng = np.random.default_rng((703, weight))
        rows = [random_matrix(F, 3, 2, rng).flatten() for _ in range(2)]
        e0 = Subspace.from_rows(F, rows, ambient_dimension=6)
        if e0.dim != 2:
            continue
        cand = build_transpose_element(e0, shape, F)
        fresh = IntegralElementCandidate(shape, F, cand.basis)
        if not check_integral(fresh).ok:
            problems.append(f"weight {weight} transpose lift is not integral")
        if project(cand, 0) != e0:
            problems.append(f"weight {weight} transpose lift does not recover its slot-0 span")

    from ivhs.hodge import ChartData, theta, theta_inverse

    shape3 = HodgeShape(3, (2, 3, 3, 2))
    rng = np.random.default_rng(705)
    rows = [random_matrix(F, 3, 2, rng).flatten() for _ in range(2)]
    e0 = Subspace.from_rows(F, rows, ambient_dimension=6)
    chart = ChartData(shape3, e0)
    for trial in range(50):
        trng = np.random.default_rng((707, trial))
        w_part = random_matrix(F, 2, chart.w.dim, trng)
        sym_rows = []
        for _ in range(2):
            m = random_matrix(F, 3, 3, trng)
            m = m + m.transpose()
            sym_rows.append(m.flatten())
        part1 = Matrix.from_rows(F, sym_rows, cols=9)
        cand = theta(chart, w_part, [part1])
        coords = theta_inverse(cand, chart)
        if coords.w_part != w_part or coords.parts[0] != part1:
            problems.append(f"theta round-trip failed on trial {trial}")
            break

    lift3 = build_transpose_element(e0, shape3, F)
    fixtures = [lift3]
    shape4 = HodgeShape(4, (2, 3, 4, 3, 2))
    rng4 = np.random.default_rng(709)
    rows4 = [random_matrix(F, 3, 2, rng4).flatten() for _ in range(2)]
    e04 = Subspace.from_rows(F, rows4, ambient_dimension=6)
    fixtures.append(build_transpose_element(e04, shape4, F))
    ctx3 = JacobianContext.fermat(3, 3)
    gens = [
        HomogeneousPoly.from_terms(F, 5, {tuple(1 if j == i else 0 for j in range(5)): 1})
        for i in range(3)
    ]
    fixtures.append(ring_frame_candidate(ctx3, 1, 3, gens, spacing=1))
    for idx, fixture in enumerate(fixtures):
        result = fiber_forward_check(fixture)
        if not result.holds:
            problems.append(f"fiber check failed on commuting fixture {idx}")

    check(7, "Hodge frame machinery properties",
          problems, time.monotonic() - t0, 60)


def test_acceptance_8_cli_determinism(capsys):
    t0 = time.monotonic()
    problems = []
    commands = [
        ["profile", "--n", "3..5", "--d-offset", "3..5"],
        ["monotonicity", "--n", "3", "--d-min", "6", "--d-max", "16"],
        ["jacobian", "--fermat", "3", "6", "--m", "1,6,7,13"],
        ["symm", "--dims", "2", "2", "2", "--k", "3", "--trials", "50", "--seed", "7"],
        ["symm", "--construction", "prop4", "--dims", "2", "3", "1", "--seed", "1"],
        ["symm", "--geometric", "fermat", "3", "6", "--seed", "2"],
        ["verify-theorem", "--fermat", "3", "6", "--seed", "0"],
    ]
    stamp = re.compile(r'"generated_at":"[^"]*"')
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli_main(argv)
            captured = capsys.readouterr()
            if code != 0:
                problems.append(f"{argv[0]}: exit {code}")
            outputs.append(stamp.sub('"generated_at":"-"', captured.out))
        if outputs[0] != outputs[1]:
            problems.append(f"{' '.join(argv)}: outputs differ between runs")
        if not json.loads(outputs[0].replace('"generated_at":"-"', '"generated_at":"0"')):
            problems.append(f"{argv[0]}: output is not JSON")
    with capsys.disabled():
        check(8, "repeated CLI runs are byte-identical up to the timestamp",
              problems, time.monotonic() - t0, 600)
