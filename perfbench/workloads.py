"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of rounds of operations (its
inputs), runs one operation through the public ``ivhs`` API, and checks the
result
against truth computed here, independently of the code under test: closed
binomial forms, the known standard monomials of Fermat rings, and
dimensions that follow from the definitions.

Every operation builds a fresh ``JacobianContext``, as each CLI invocation
does; the process-wide ``polyring.basis`` cache is the only program state
that carries over from one operation to the next.  Calls go through the
``ivhs`` package attributes at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Any, Callable

import numpy as np

import ivhs

FIELD = ivhs.default_prime_field()


@dataclass(frozen=True)
class Workload:
    name: str
    # seed -> rounds of operations; the runner cycles through them and stops
    # only between rounds, so every run measures the same mix of operations.
    make_rounds: Callable[[int], list[list]]
    run: Callable[[Any], Any]  # operation -> program output
    check: Callable[[Any, Any], str | None]  # (operation, output) -> mismatch or None


# ---------------------------------------------------------------------------
# independent truth
# ---------------------------------------------------------------------------


def closed_form_dims(n: int, d: int) -> dict:
    """h^{n,0}, h^{n-1,1} and dim E of a smooth degree-d n-fold, from binomials."""
    return {
        "h_n0": comb(d - 1, n + 1),
        "h_n1_1": comb(2 * d - 1, n + 1) - (n + 2) * comb(d, n + 1),
        "dim_E": comb(d + n + 1, n + 1) - (n + 2) ** 2,
    }


def monomials(num_vars: int, degree: int, max_exp: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the given degree with every exponent <= max_exp."""
    if num_vars == 1:
        return [(degree,)] if degree <= max_exp else []
    return [
        (e,) + rest
        for e in range(min(degree, max_exp), -1, -1)
        for rest in monomials(num_vars - 1, degree - e, max_exp)
    ]


def _report_mismatch(rep, n: int, d: int) -> str | None:
    if rep.dims != closed_form_dims(n, d) or not rep.dims_match:
        return f"graded dims {rep.dims} differ from the closed forms"
    if rep.socle_mode != "full":
        return f"socle mode {rep.socle_mode!r}, want 'full'"
    return None


# ---------------------------------------------------------------------------
# verify-fermat: the headline pipeline on the Fermat sextic threefold
# ---------------------------------------------------------------------------

FERMAT = (3, 6)
ROUNDS = 32


@dataclass(frozen=True)
class VerifyOp:
    n: int
    d: int
    seed: int
    pair_sample: int
    terms: tuple = ()  # extra (exponents, coefficient) terms on top of Fermat
    poly: Any = None  # the perturbed polynomial, built during set-up


def _fermat_rounds(seed: int) -> list[list[VerifyOp]]:
    rng = np.random.default_rng((seed, 1))
    n, d = FERMAT
    return [
        [VerifyOp(n, d, int(rng.integers(0, 2**31)), int(rng.integers(50, 71)))]
        for _ in range(ROUNDS)
    ]


def _run_fermat(op: VerifyOp):
    ctx = ivhs.JacobianContext.fermat(op.n, op.d)
    return ivhs.verify_theorem(ctx, seed=op.seed, pair_sample=op.pair_sample)


def _check_fermat(op: VerifyOp, rep) -> str | None:
    mismatch = _report_mismatch(rep, op.n, op.d)
    if mismatch:
        return mismatch
    if rep.verdict != "NonGenericityWitnessed":
        return f"verdict {rep.verdict}"
    dim_e = closed_form_dims(op.n, op.d)["dim_E"]
    if rep.symmetrizer_pairs_checked != min(op.pair_sample, comb(dim_e, 2)):
        return f"{rep.symmetrizer_pairs_checked} symmetrizer pairs checked"
    return None


# ---------------------------------------------------------------------------
# verify-dense: non-monomial quartic surfaces, the dense ideal-piece path
# ---------------------------------------------------------------------------

DENSE = (2, 4)
EXTRA_TERMS = 3


def _dense_rounds(seed: int) -> list[list[VerifyOp]]:
    rng = np.random.default_rng((seed, 2))
    n, d = DENSE
    nv = n + 2
    mixed = monomials(nv, d, d - 1)  # every monomial but the pure powers
    rounds = []
    for _ in range(ROUNDS):
        picks = rng.choice(len(mixed), size=EXTRA_TERMS, replace=False)
        terms = tuple(
            (mixed[int(i)], int(rng.integers(1, FIELD.modulus))) for i in sorted(picks)
        )
        poly_terms = {tuple(d if j == i else 0 for j in range(nv)): 1 for i in range(nv)}
        poly_terms.update(dict(terms))
        poly = ivhs.HomogeneousPoly.from_terms(FIELD, nv, poly_terms)
        rounds.append(
            [VerifyOp(n, d, int(rng.integers(0, 2**31)), int(rng.integers(50, 71)), terms, poly)]
        )
    return rounds


def _run_dense(op: VerifyOp):
    ctx = ivhs.JacobianContext(op.poly)
    return ivhs.verify_theorem(ctx, seed=op.seed, pair_sample=op.pair_sample)


def _check_dense(op: VerifyOp, rep) -> str | None:
    mismatch = _report_mismatch(rep, op.n, op.d)
    if mismatch:
        return mismatch
    if not (rep.p0_injective and rep.p1_injective and rep.canonical_symmetrizer_nonzero):
        return "p_0, p_1 or the canonical symmetrizer failed on a smooth surface"
    return None


# ---------------------------------------------------------------------------
# symm-grid: the acceptance-5 symmetrizer grid, many small eliminations
# ---------------------------------------------------------------------------

GENERIC_PAIRS = [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4),
                 (4, 1), (4, 2), (4, 3), (4, 4)]
CONTROLS = [(2, 3, 2), (3, 2, 1), (4, 4, 2)]
TRIALS = 1
SYMM_ROUNDS = 4


@dataclass(frozen=True)
class SymmOp:
    kind: str  # "prop4", "generic" or "control"
    g0: int
    g1: int
    g2: int
    k: int  # dim E: the Prop. 4 value for "prop4", the sampled k otherwise
    seed: int


def _p(g0: int, g1: int) -> int:
    return (g1 - 1) // g0 + 1


def prop4_dimension(g0: int, g1: int) -> int:
    """dim E of the Prop. 4 witness: 3p, or 3p - 1 when the fractional block
    G^1 / (G^0)^(p-1) is a line."""
    p = _p(g0, g1)
    return 3 * p - 1 if g1 - (p - 1) * g0 == 1 else 3 * p


def _grid() -> list[tuple]:
    points = [
        ("prop4", g0, g1, g2, prop4_dimension(g0, g1))
        for g0 in range(2, 6) for g1 in range(1, 8) for g2 in range(1, 5)
    ]
    for g0, g1 in GENERIC_PAIRS:
        for g2 in (1, 2):
            for k in sorted({3 * _p(g0, g1), g0 * g1}):
                if 3 * _p(g0, g1) <= k <= g0 * g1:
                    points.append(("generic", g0, g1, g2, k))
    return points + [("control", g0, g1, g2, 1) for g0, g1, g2 in CONTROLS]


def _symm_rounds(seed: int) -> list[list[SymmOp]]:
    """Each round is the whole grid in a seeded order with fresh seeds.  A
    few grid points hold most of the time, so only whole rounds give every
    run the same mix."""
    rng = np.random.default_rng((seed, 3))
    rounds = []
    for _ in range(SYMM_ROUNDS):
        grid = _grid()
        rng.shuffle(grid)
        rounds.append([SymmOp(*point, int(rng.integers(0, 2**31))) for point in grid])
    return rounds


def _run_symm(op: SymmOp):
    setting = ivhs.CompositionSetting(op.g0, op.g1, op.g2, FIELD)
    if op.kind == "prop4":
        e = ivhs.prop4_construction(setting, seed=op.seed)
        return e.k, ivhs.symmetrizer_dimension(e)
    return ivhs.genericity_experiment(setting, op.k, trials=TRIALS, seed=op.seed).dimensions


def _check_symm(op: SymmOp, out) -> str | None:
    if op.kind == "prop4":
        k, dim = out
        if (k, dim) != (op.k, 0):
            return f"witness of dim {k} with symmetrizer dim {dim}, want ({op.k}, 0)"
        return None
    dims = tuple(out)
    if len(dims) != TRIALS:
        return f"{len(dims)} trials reported, want {TRIALS}"
    if op.kind == "control":
        # A single alpha imposes no condition: every q(alpha) is allowed.
        want = op.g1 * op.g2
        return None if all(x == want for x in dims) else f"control dims {dims}, want {want}"
    if op.k == op.g0 * op.g1:
        # E is all of Hom(G^0, G^1); with g0 >= 2 the unit maps force q = 0.
        return None if all(x == 0 for x in dims) else f"full-Hom dims {dims}, want 0"
    # k = 3p: generic vanishing is probabilistic; only the trivial bounds hold.
    upper = op.k * op.g1 * op.g2
    lower = max(0, upper - comb(op.k, 2) * op.g2 * op.g0)
    return None if all(lower <= x <= upper for x in dims) else f"dims {dims} out of range"


# ---------------------------------------------------------------------------
# frame-fiber: geometric Hodge frame plus the chart-based fiber check
# ---------------------------------------------------------------------------

FRAME = (3, 5)


@dataclass(frozen=True)
class FrameOp:
    n: int
    d: int
    exponents: tuple  # k standard monomials of R^d ...
    multipliers: tuple  # ... and the same monomials as ring elements


def _frame_rounds(seed: int) -> list[list[FrameOp]]:
    """Each round holds one operation for each k = 2..5, in a seeded order."""
    rng = np.random.default_rng((seed, 4))
    n, d = FRAME
    nv = n + 2
    # The Fermat Jacobian ideal is (x_i^(d-1)), so the standard monomials of
    # R^d are exactly those with every exponent at most d - 2.
    std = monomials(nv, d, d - 2)
    rounds = []
    for _ in range(ROUNDS // 4):
        ops = []
        for k in rng.permutation([2, 3, 4, 5]):
            picks = sorted(rng.choice(len(std), size=int(k), replace=False))
            exps = tuple(std[int(i)] for i in picks)
            mults = tuple(ivhs.HomogeneousPoly.from_terms(FIELD, nv, {e: 1}) for e in exps)
            ops.append(FrameOp(n, d, exps, mults))
        rounds.append(ops)
    return rounds


def _run_frame(op: FrameOp):
    ctx = ivhs.JacobianContext.fermat(op.n, op.d)
    cand = ivhs.geometric_frame_candidate(ctx, op.multipliers)
    return cand, ivhs.fiber_forward_check(cand)


def _check_frame(op: FrameOp, out) -> str | None:
    cand, fiber = out
    dims = closed_form_dims(op.n, op.d)
    want = (dims["h_n0"], dims["h_n1_1"], dims["h_n1_1"], dims["h_n0"])
    if cand.shape.hodge_numbers != want:
        return f"frame shape {cand.shape.hodge_numbers}, want {want}"
    k = len(op.exponents)
    if not (cand.verified and fiber.holds and fiber.pairs_checked == comb(k, 2)):
        return f"fiber check {fiber} on a verified={cand.verified} candidate, k={k}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-fermat", _fermat_rounds, _run_fermat, _check_fermat),
        Workload("verify-dense", _dense_rounds, _run_dense, _check_dense),
        Workload("symm-grid", _symm_rounds, _run_symm, _check_symm),
        Workload("frame-fiber", _frame_rounds, _run_frame, _check_frame),
    )
}
