"""Symmetrizer spaces of composition settings G^0 -> G^1 -> G^2.

Given a subspace E of Hom(G^0, G^1) with basis (alpha_1, ..., alpha_k), a
symmetrizer is a linear map q: E -> Hom(G^1, G^2) with

    q(alpha_b) . alpha_a  =  q(alpha_a) . alpha_b      for all pairs a < b.

Each row of q(alpha) in Hom(G^1, G^2) obeys the same conditions, independently
of the other rows, so the space is Sym(E; F) (x) G^2: the conditions are
assembled and solved for one row of q.  The unknowns of that system are the
k stacked rows y_a of q(alpha_a), and each pair contributes g0 equations,
t(alpha_a) against column group b minus t(alpha_b) against column group a.
The kernel is verified once, its rows stacked as one q, and the g2-fold
basis is built only when it is read.  A subspace keeps its solved space.

Witness constructions: an explicit rank-one pair when dim G^1 = 1, and the
direct-sum construction for arbitrary (g0, g1) built from verified random
witnesses in the divisible regime, with deterministic seed derivation.  A
direct sum is certified by its blocks and its cross-block system.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, PreconditionError, unknowns_budget
from .fields import FieldSpec, default_prime_field
from .hodge import HodgeShape, IntegralElementCandidate, project, theta_inverse, ChartData
from .linalg import Matrix, QuotientMap, Subspace, random_matrix


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
    g1 x g0 matrices.  Its symmetrizer space, once solved, is kept with it
    as the kernel and free unknowns ``symmetrizer_space`` found."""

    setting: CompositionSetting
    basis: tuple[Matrix, ...]
    _solved: tuple[Matrix, tuple[int, ...]] | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

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


def symmetrizer_system(e: SubspaceE) -> Matrix:
    """Coefficient matrix of the symmetrizer conditions on one row of q.

    Rows: one block of g0 equations per pair a < b; columns: k groups of g1
    unknowns (the row of q(alpha_a) in group a).
    """
    s = e.setting
    k = e.k
    n_rows = (k * (k - 1) // 2) * s.g0
    if n_rows == 0:
        return Matrix.zeros(s.field, 0, k * s.g1)
    # Blocks of g0 rows: t(alpha_0..alpha_{k-1}), their negatives, then zero.
    at = Matrix.vstack([alpha.transpose() for alpha in e.basis])
    blocks = Matrix.vstack([at, -at, Matrix.zeros(s.field, s.g0, s.g1)])
    i = np.arange(k)
    a, b = (x[:, None] for x in np.nonzero(i[:, None] < i))  # pairs a < b, row-major
    c = i[None, :]
    block = np.where(c == b, a, np.where(c == a, k + b, 2 * k))  # (pair, column group)
    index = block[:, None, :] * s.g0 + np.arange(s.g0)[None, :, None]  # (pair, j, column group)
    return blocks.row_select(index.ravel()).reshape(n_rows, k * s.g1)


@dataclass(frozen=True)
class SymmetrizerSpace:
    """Sym(E; F) (x) G^2: ``kernel`` holds the dim Sym(E; F) solutions of
    the one-row system, row j free at unknown ``free[j]``.  Each basis
    element places one kernel row in one row i of q; it is a map
    q: E -> Hom(G^1, G^2) stored as a k x (g2*g1) coordinate matrix, listed
    by its free unknown (a, i, t) and built only when read."""

    subspace: SubspaceE
    kernel: Matrix
    free: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.kernel.rows * self.subspace.setting.g2

    @property
    def basis(self) -> tuple[Matrix, ...]:
        return tuple(self._element(i, j) for i, j in self._order())

    def element_maps(self, idx: int) -> list[Matrix]:
        """The values q(alpha_a) of basis element ``idx`` as g2 x g1 matrices."""
        s = self.subspace.setting
        coord = self._element(*self._order()[idx])
        return [coord.row_select([a]).reshape(s.g2, s.g1) for a in range(coord.rows)]

    def _order(self) -> list[tuple[int, int]]:
        """(row i of q, kernel row j) of each element, in (a, i, t) order."""
        g1, g2 = self.subspace.setting.g1, self.subspace.setting.g2
        return [(i, j) for _, i, j in sorted((c // g1, i, j) for j, c in enumerate(self.free) for i in range(g2))]

    def _element(self, i: int, j: int) -> Matrix:
        s, k = self.subspace.setting, self.subspace.k
        zero = Matrix.zeros(s.field, k, s.g1)
        return Matrix.hstack([zero] * i + [self.kernel.row_select([j]).reshape(k, s.g1)] + [zero] * (s.g2 - 1 - i))


def _refuse_over_budget(e: SubspaceE) -> None:
    """Refuse a subspace whose q has more unknowns than IVHS_MAX_UNKNOWNS.
    Counted over all of q, the width of each basis element, so that k = 1
    with a huge g2 is still refused."""
    cap = unknowns_budget()
    n_unknowns = e.k * e.setting.g2 * e.setting.g1
    if n_unknowns > cap:
        raise BudgetExceededError(
            f"symmetrizer system has {n_unknowns} unknowns, beyond the cap of {cap} "
            "(raise IVHS_MAX_UNKNOWNS to override)"
        )


def _keep(e: SubspaceE, kernel: Matrix, free: tuple[int, ...]) -> SymmetrizerSpace:
    object.__setattr__(e, "_solved", (kernel, free))
    return SymmetrizerSpace(e, kernel, free)


def symmetrizer_space(e: SubspaceE) -> SymmetrizerSpace:
    """Solve the symmetrizer system exactly, once per subspace.

    A system with full column rank has a zero kernel, proven by that one
    rank.  Otherwise the system is reduced to RREF and its kernel is
    verified against the symmetrizer identity once, its rows stacked into
    one q: stacked rows are a symmetrizer exactly when each row is.  The
    subspace keeps what was solved, and later calls return it.
    """
    _refuse_over_budget(e)
    if e._solved is not None:
        return SymmetrizerSpace(e, *e._solved)
    s = e.setting
    system = symmetrizer_system(e)
    n = system.cols
    # A wide system has a kernel by counting, so only a tall or square one is
    # ranked first.
    if system.rows >= n and system.rank() == n:
        return _keep(e, Matrix.zeros(s.field, 0, n), ())
    r, pivots = system.rref()
    quotient = QuotientMap.of_rref(s.field, n, pivots, r)
    kernel = quotient.classes(range(n))  # one row of q per free unknown
    q_values = [kernel.col_select(range(a * s.g1, (a + 1) * s.g1)) for a in range(e.k)]
    if not verify_candidate_symmetrizer(list(e.basis), q_values).holds:
        raise AssertionError("kernel fails the symmetrizer identity")
    return _keep(e, kernel, tuple(quotient.free.tolist()))


def symmetrizer_dimension(e: SubspaceE) -> int:
    return symmetrizer_space(e).dimension


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
    bottom = total_rows - row_offset - m.rows
    return Matrix.vstack([Matrix.zeros(m.field, row_offset, m.cols), m, Matrix.zeros(m.field, bottom, m.cols)])


def _pad_cols(m: Matrix, total_cols: int) -> Matrix:
    """Append zero columns (precompose with the projection onto the first
    coordinates)."""
    if m.cols == total_cols:
        return m
    right = Matrix.zeros(m.field, m.rows, total_cols - m.cols)
    return Matrix.hstack([m, right])


def _sampled_divisible_witness(
    g0: int, copies: int, g2: int, field: FieldSpec, seed_path: tuple[int, ...]
) -> SubspaceE:
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
            return cand
    raise AssertionError(
        f"no verified witness after 64 attempts for (g0={g0}, copies={copies}, g2={g2})"
    )


def _cross_block_system(e: SubspaceE, k0: int, r0: int) -> Matrix:
    """The cross-pair equations of a two-block E, on their own unknowns.

    Let E = E_0 + E_1, with basis maps 0..k0-1 landing in the rows B_0 =
    [0, r0) of G^1 and the rest in B_1 = [r0, g1).  Split each unknown row
    y_a into its B_0 and B_1 columns.  A pair inside E_i sees only the B_i
    columns of its own unknowns, and a cross pair (a < k0 <= b) gives
    y_b^{B_0} alpha_a = y_a^{B_1} alpha_b, which sees only the other
    columns.  These are the rows of ``symmetrizer_system(e)`` for the cross
    pairs, restricted to the cross columns, where all their nonzero entries
    lie.  The system is block diagonal, so

        dim Sym(E) = dim Sym(E_0|B_0) + dim Sym(E_1|B_1) + dim ker(cross).
    """
    s, k = e.setting, e.k
    i = np.arange(k)
    a, b = np.nonzero(i[:, None] < i)  # pairs a < b, in the system's row order
    pairs = np.flatnonzero((a < k0) & (b >= k0))
    rows = (pairs[:, None] * s.g0 + np.arange(s.g0)).ravel()
    unknown = np.arange(k * s.g1)
    cols = np.flatnonzero((unknown // s.g1 < k0) == (unknown % s.g1 >= r0))
    return symmetrizer_system(e).row_select(rows).col_select(cols)


def prop4_construction(setting: CompositionSetting, seed: int = 0) -> SubspaceE:
    """A subspace of Hom(G^0, G^1) with zero symmetrizer space and dimension

        3p      if g0 divides g1 or the fractional block has dim > 1,
        3p - 1  if the fractional block is a line (and p > 1),
        2       if g1 = 1 (p = 1, rank-one pair),

    where p = ceil(g1 / g0).  Every returned witness is verified exactly and
    keeps its zero symmetrizer space: a divisible one is the sampled subspace
    its check solved.  A direct sum of a free block and a tail block is
    certified by the solves of its two blocks and the full column rank of
    its cross-block system (``_cross_block_system``); it is not solved whole.
    """
    g0, g1, g2, field = setting.g0, setting.g1, setting.g2, setting.field
    if g0 < 2:
        raise PreconditionError("construction needs dim G^0 >= 2")
    if g1 < 1:
        raise PreconditionError("construction needs dim G^1 >= 1")
    p = setting.p
    if g1 == p * g0:
        return _sampled_divisible_witness(g0, p, g2, field, (seed, 0))
    tail = g1 - (p - 1) * g0  # dimension of the fractional block, in [1, g0)
    if tail == 1:
        tail_e = lemma3_rank_one_construction(g0, g2, field)
        tail_maps = list(tail_e.basis)
    else:
        tail_e = _sampled_divisible_witness(tail, 1, g2, field, (seed, 1))
        tail_maps = [_pad_cols(m, g0) for m in tail_e.basis]
    tail_maps = [_pad_rows(m, g1, (p - 1) * g0) for m in tail_maps]
    blocks, free_maps = [tail_e], []
    if p > 1:
        free = _sampled_divisible_witness(g0, p - 1, g2, field, (seed, 2))
        blocks.append(free)
        free_maps = [_pad_rows(m, g1, 0) for m in free.basis]
    out = SubspaceE(setting, tuple(free_maps + tail_maps))
    _refuse_over_budget(out)
    # The zero-padded columns of a tail map add only zero equations, so each
    # block's restriction to its rows has the symmetrizer space of the block
    # solved here (a sampled block kept it from its check).
    cross = _cross_block_system(out, len(free_maps), (p - 1) * g0)
    if any(symmetrizer_space(block).dimension for block in blocks) or cross.rank() != cross.cols:
        if seed < 16:
            return prop4_construction(setting, seed=seed + 101)
        raise AssertionError(f"construction failed to verify for {setting}")
    _keep(out, Matrix.zeros(field, 0, out.k * g1), ())
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
        raise PreconditionError(
            f"candidate is not an integral element: pairs {candidate.integrality.failing_pairs} do not commute"
        )
    if chart is None:
        e0 = project(candidate, 0)
        if e0.dim != candidate.k:
            raise PreconditionError("slot-0 projection drops dimension; choose a chart explicitly")
        chart = ChartData(shape, e0)
    coords = theta_inverse(candidate, chart)
    g1, g0 = shape.slot_shape(0)
    e_maps = [chart.e0.basis.row_select([a]).reshape(g1, g0) for a in range(chart.k)]
    q_maps = coords.part_maps(1)
    return verify_candidate_symmetrizer(e_maps, q_maps)
