"""Symmetrizer spaces of composition settings G^0 -> G^1 -> G^2.

Given a subspace E of Hom(G^0, G^1) with basis (alpha_1, ..., alpha_k), a
symmetrizer is a linear map q: E -> Hom(G^1, G^2) with

    q(alpha_b) . alpha_a  =  q(alpha_a) . alpha_b      for all pairs a < b.

The conditions assemble into one linear system over the field: unknowns are
the k stacked row-major vectorizations of the q(alpha_a), and each pair
contributes the block [I_{g2} (x) t(alpha_a)] against column group b minus
[I_{g2} (x) t(alpha_b)] against column group a.  The symmetrizer space is
its kernel.

Witness constructions: an explicit rank-one pair when dim G^1 = 1, and the
direct-sum construction for arbitrary (g0, g1) built from verified random
witnesses in the divisible regime, with deterministic seed derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, PreconditionError, unknowns_budget
from .fields import FieldSpec, default_prime_field
from .hodge import HodgeShape, IntegralElementCandidate, check_integral, project, theta_inverse, ChartData
from .linalg import Matrix, Subspace, random_matrix, standard_complement


@dataclass(frozen=True)
class CompositionSetting:
    """Dimensions (g0, g1, g2) of the three spaces and the base field."""

    g0: int
    g1: int
    g2: int
    field: FieldSpec

    def __post_init__(self):
        if self.g0 < 1 or self.g1 < 0 or self.g2 < 0:
            raise PreconditionError("need g0 >= 1 and nonnegative g1, g2")

    @property
    def hom_dimension(self) -> int:
        return self.g0 * self.g1

    @property
    def multiplication_threshold(self) -> int:
        """3p with p = ceil(g1 / g0): the generic-vanishing threshold."""
        return 3 * self.p

    @property
    def p(self) -> int:
        if self.g1 == 0:
            return 0
        return (self.g1 - 1) // self.g0 + 1


@dataclass(frozen=True)
class SubspaceE:
    """A subspace of Hom(G^0, G^1) with a chosen independent basis of
    g1 x g0 matrices."""

    setting: CompositionSetting
    basis: tuple[Matrix, ...]

    def __post_init__(self):
        s = self.setting
        for m in self.basis:
            if m.shape != (s.g1, s.g0):
                raise PreconditionError(f"basis maps must be {s.g1} x {s.g0}, got {m.shape}")
            if m.field != s.field:
                raise PreconditionError("basis field mismatch")
        if self.basis:
            flat = Matrix.vstack([m.reshape(1, s.g0 * s.g1) for m in self.basis])
            if flat.rank() != len(self.basis):
                raise PreconditionError("basis maps are linearly dependent")

    @property
    def k(self) -> int:
        return len(self.basis)


def _kron_identity_transpose(copies: int, alpha: Matrix) -> Matrix:
    """Block-diagonal matrix of ``copies`` copies of t(alpha)."""
    at = alpha.transpose()
    zero = Matrix.zeros(alpha.field, at.rows, at.cols)
    return Matrix.vstack(
        [Matrix.hstack([at if c == r else zero for c in range(copies)]) for r in range(copies)]
    )


def symmetrizer_system(e: SubspaceE) -> Matrix:
    """Coefficient matrix of the symmetrizer conditions.

    Rows: one block of g2*g0 equations per pair a < b; columns: k groups of
    g2*g1 unknowns (row-major vec of each q(alpha_a)).
    """
    s = e.setting
    k = e.k
    field = s.field
    n_unknowns = k * s.g2 * s.g1
    n_rows = (k * (k - 1) // 2) * s.g2 * s.g0
    if k < 2 or n_rows == 0 or n_unknowns == 0:
        return Matrix.zeros(field, n_rows, n_unknowns)
    blocks = []
    zero_block = Matrix.zeros(field, s.g2 * s.g0, s.g2 * s.g1)
    for a in range(k):
        for b in range(a + 1, k):
            row_groups = [zero_block] * k
            row_groups[b] = _kron_identity_transpose(s.g2, e.basis[a])
            row_groups[a] = -_kron_identity_transpose(s.g2, e.basis[b])
            blocks.append(Matrix.hstack(row_groups))
    return Matrix.vstack(blocks)


@dataclass(frozen=True)
class SymmetrizerSpace:
    """Kernel of the symmetrizer system: each basis element is a map
    q: E -> Hom(G^1, G^2) stored as a k x (g2*g1) coordinate matrix."""

    subspace: SubspaceE
    dimension: int
    basis: tuple[Matrix, ...]

    def element_maps(self, idx: int) -> list[Matrix]:
        """The values q(alpha_a) of basis element ``idx`` as g2 x g1 matrices."""
        s = self.subspace.setting
        coord = self.basis[idx]
        return [coord.row_select([a]).reshape(s.g2, s.g1) for a in range(coord.rows)]


def symmetrizer_space(e: SubspaceE, max_unknowns: int | None = None) -> SymmetrizerSpace:
    """Solve the symmetrizer system exactly and re-verify every kernel element."""
    s = e.setting
    cap = unknowns_budget() if max_unknowns is None else max_unknowns
    n_unknowns = e.k * s.g2 * s.g1
    if n_unknowns > cap:
        raise BudgetExceededError(
            f"symmetrizer system has {n_unknowns} unknowns, beyond the cap of {cap} "
            "(raise IVHS_MAX_UNKNOWNS to override)"
        )
    system = symmetrizer_system(e)
    kernel = system.kernel_basis()  # n_unknowns x dim
    dim = kernel.cols
    basis = tuple(kernel.col_select([j]).reshape(e.k, s.g2 * s.g1) for j in range(dim))
    space = SymmetrizerSpace(e, dim, basis)
    for j in range(dim):
        result = verify_candidate_symmetrizer(list(e.basis), space.element_maps(j))
        if not result.holds:
            raise AssertionError("kernel element fails the symmetrizer identity")
    return space


def symmetrizer_dimension(e: SubspaceE, max_unknowns: int | None = None) -> int:
    return symmetrizer_space(e, max_unknowns=max_unknowns).dimension


@dataclass(frozen=True)
class VerificationResult:
    holds: bool
    pairs_checked: int


def verify_candidate_symmetrizer(
    e_basis: Sequence[Matrix], q_values: Sequence[Matrix], pairs: Sequence[tuple[int, int]] | None = None
) -> VerificationResult:
    """Check q(alpha_b) . alpha_a == q(alpha_a) . alpha_b pair by pair.

    ``q_values[a]`` is the value of the candidate on ``e_basis[a]``.  When
    ``pairs`` is omitted, all k(k-1)/2 pairs are checked.
    """
    if len(e_basis) != len(q_values):
        raise PreconditionError("need one q value per basis element")
    k = len(e_basis)
    if pairs is None:
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    checked = 0
    for a, b in pairs:
        if not (0 <= a < k and 0 <= b < k):
            raise PreconditionError(f"pair ({a}, {b}) out of range")
        lhs = q_values[b] @ e_basis[a]
        rhs = q_values[a] @ e_basis[b]
        if lhs != rhs:
            return VerificationResult(False, checked)
        checked += 1
    return VerificationResult(True, checked)


# ---------------------------------------------------------------------------
# witness constructions
# ---------------------------------------------------------------------------


def lemma3_rank_one_construction(g0: int, g2: int = 1, field: FieldSpec | None = None) -> SubspaceE:
    """Two rank-one maps onto a line (g1 = 1) whose symmetrizers vanish.

    The basis maps are the coordinate rows e_0^t and e_1^t; the pair
    condition puts the two q-columns in different coordinate columns, so
    the symmetrizer space is zero for every g2.
    """
    if g0 < 2:
        raise PreconditionError("need g0 >= 2 for two independent rank-one maps")
    fld = field if field is not None else default_prime_field()
    setting = CompositionSetting(g0, 1, g2, fld)
    rows = []
    for idx in (0, 1):
        m = [[fld.one() if j == idx else fld.zero() for j in range(g0)]]
        rows.append(Matrix.from_rows(fld, m, cols=g0))
    return SubspaceE(setting, tuple(rows))


def _pad_rows(m: Matrix, total_rows: int, row_offset: int) -> Matrix:
    """Embed a block of rows into a taller zero matrix."""
    field = m.field
    top = Matrix.zeros(field, row_offset, m.cols)
    bottom = Matrix.zeros(field, total_rows - row_offset - m.rows, m.cols)
    parts = [p for p in (top, m, bottom) if p.rows > 0]
    return Matrix.vstack(parts) if len(parts) > 1 else parts[0]


def _pad_cols(m: Matrix, total_cols: int) -> Matrix:
    """Append zero columns (precompose with the projection onto the first
    coordinates)."""
    if m.cols == total_cols:
        return m
    right = Matrix.zeros(m.field, m.rows, total_cols - m.cols)
    return Matrix.hstack([m, right])


def _sampled_divisible_witness(
    g0: int, copies: int, g2: int, field: FieldSpec, seed_path: tuple[int, ...]
) -> list[Matrix]:
    """A verified dim-3*copies subspace of Hom(G^0, (G^0)^copies) with zero
    symmetrizer space.  Sampled, then checked exactly; resampled on the
    rare failure."""
    if g0 < 2:
        raise PreconditionError("divisible-regime witnesses need g0 >= 2")
    dim_e = 3 * copies
    setting = CompositionSetting(g0, copies * g0, g2, field)
    for attempt in range(64):
        rng = np.random.default_rng((0x1E, *seed_path, attempt))
        mats = [random_matrix(field, copies * g0, g0, rng) for _ in range(dim_e)]
        try:
            cand = SubspaceE(setting, tuple(mats))
        except PreconditionError:
            continue
        if symmetrizer_space(cand).dimension == 0:
            return mats
    raise AssertionError(
        f"no verified witness after 64 attempts for (g0={g0}, copies={copies}, g2={g2})"
    )


def prop4_construction(setting: CompositionSetting, seed: int = 0) -> SubspaceE:
    """A subspace of Hom(G^0, G^1) with zero symmetrizer space and dimension

        3p      if g0 divides g1 or the fractional block has dim > 1,
        3p - 1  if the fractional block is a line (and p > 1),
        2       if g1 = 1 (p = 1, rank-one pair),

    where p = ceil(g1 / g0).  Every returned witness is re-verified exactly.
    """
    g0, g1, g2, field = setting.g0, setting.g1, setting.g2, setting.field
    if g0 < 2:
        raise PreconditionError("construction needs dim G^0 >= 2")
    if g1 < 1:
        raise PreconditionError("construction needs dim G^1 >= 1")
    p = setting.p
    mats: list[Matrix]
    if g1 == p * g0:
        mats = _sampled_divisible_witness(g0, p, g2, field, (seed, 0))
    else:
        tail = g1 - (p - 1) * g0  # dimension of the fractional block, in [1, g0)
        tail_maps: list[Matrix]
        if tail == 1:
            pair = lemma3_rank_one_construction(g0, g2, field)
            tail_maps = list(pair.basis)
        else:
            small = _sampled_divisible_witness(tail, 1, g2, field, (seed, 1))
            tail_maps = [_pad_cols(m, g0) for m in small]
        tail_maps = [_pad_rows(m, g1, (p - 1) * g0) for m in tail_maps]
        free_maps: list[Matrix] = []
        if p > 1:
            free = _sampled_divisible_witness(g0, p - 1, g2, field, (seed, 2))
            free_maps = [_pad_rows(m, g1, 0) for m in free]
        mats = free_maps + tail_maps
    out = SubspaceE(setting, tuple(mats))
    if symmetrizer_space(out).dimension != 0:
        if seed < 16:
            return prop4_construction(setting, seed=seed + 101)
        raise AssertionError(f"construction failed to verify for {setting}")
    return out


# ---------------------------------------------------------------------------
# random experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    setting: CompositionSetting
    k: int
    trials: int
    seed: int
    dimensions: tuple[int, ...]
    threshold: int  # 3p

    @property
    def zero_fraction(self) -> float:
        if not self.dimensions:
            return 0.0
        return sum(1 for d in self.dimensions if d == 0) / len(self.dimensions)

    @property
    def at_or_above_threshold(self) -> bool:
        return self.k >= self.threshold

    def as_dict(self) -> dict:
        return {
            "g0": self.setting.g0,
            "g1": self.setting.g1,
            "g2": self.setting.g2,
            "k": self.k,
            "trials": self.trials,
            "seed": self.seed,
            "threshold": self.threshold,
            "dimensions": list(self.dimensions),
            "zero_fraction": self.zero_fraction,
        }


def genericity_experiment(
    setting: CompositionSetting, k: int, trials: int, seed: int = 0
) -> ExperimentReport:
    """Sample independent k-tuples in Hom(G^0, G^1) and record symmetrizer
    dimensions; deterministic per (seed, trial) derivation."""
    if not 1 <= k <= setting.hom_dimension:
        raise PreconditionError(
            f"k must lie in [1, {setting.hom_dimension}] for this setting"
        )
    if trials < 1:
        raise PreconditionError("need at least one trial")
    dims = []
    for t in range(trials):
        for attempt in range(16):
            rng = np.random.default_rng((seed, t, attempt))
            mats = [random_matrix(setting.field, setting.g1, setting.g0, rng) for _ in range(k)]
            try:
                e = SubspaceE(setting, tuple(mats))
            except PreconditionError:
                continue
            break
        else:
            raise AssertionError("could not sample an independent basis")
        dims.append(symmetrizer_space(e).dimension)
    return ExperimentReport(setting, k, trials, seed, tuple(dims), setting.multiplication_threshold)


# ---------------------------------------------------------------------------
# Hodge-frame bridge
# ---------------------------------------------------------------------------


def hodge_symmetrizer_setting(shape: HodgeShape, e0) -> tuple[CompositionSetting, SubspaceE]:
    """Read a slot-0 subspace as a symmetrizer setting: G^0, G^1, G^2 are
    the first three frame summands and E sits in Hom(G^0, G^1)."""
    if shape.weight < 3:
        raise PreconditionError("need weight >= 3 for a three-step setting")
    g0, g1, g2 = shape.hodge_numbers[0], shape.hodge_numbers[1], shape.hodge_numbers[2]
    if isinstance(e0, Subspace):
        field = e0.field
        mats = [e0.basis.row_select([i]).reshape(g1, g0) for i in range(e0.dim)]
    else:
        mats = list(e0)
        if not mats:
            raise PreconditionError("empty slot-0 basis")
        field = mats[0].field
    setting = CompositionSetting(g0, g1, g2, field)
    return setting, SubspaceE(setting, tuple(mats))


def fiber_forward_check(candidate: IntegralElementCandidate, chart: ChartData | None = None) -> VerificationResult:
    """Integral element => chart coordinate q is a symmetrizer of p_0(E).

    Verifies the forward implication on a concrete candidate: refuses
    non-commuting input, then checks the symmetrizer identity of the
    slot-1 part of the chart coordinates against the slot-0 basis.
    """
    shape = candidate.shape
    if shape.weight < 3:
        raise PreconditionError("fiber check needs weight >= 3")
    if not candidate.verified:
        report = check_integral(candidate)
        if not report.ok:
            raise PreconditionError(
                f"candidate is not an integral element: pairs {report.failing_pairs} do not commute"
            )
    if chart is None:
        e0 = project(candidate, 0)
        if e0.dim != candidate.k:
            raise PreconditionError("slot-0 projection drops dimension; choose a chart explicitly")
        chart = ChartData(shape, candidate.field, e0, standard_complement(e0))
    coords = theta_inverse(candidate, chart)
    g1, g0 = shape.slot_shape(0)
    e_maps = [chart.e0.basis.row_select([a]).reshape(g1, g0) for a in range(chart.k)]
    q_maps = coords.part_maps(1)
    return verify_candidate_symmetrizer(e_maps, q_maps)
