"""Block matrices in a polarized Hodge frame and horizontal subspaces.

A weight-n frame splits a vector space into summands indexed q = 0..n with
dimensions h_q; endomorphisms are block matrices A = (A^i_j) with A^i_j
mapping summand j to summand i.  The polarization normal form is the
anti-diagonal block matrix whose (i, n-i) block is (-1)^(n-i) times the
identity; the infinitesimal isometries are exactly the block matrices with

    (-1)^(n-i) t(A^i_j) + (-1)^(n-j) A^(n-j)_(n-i) = 0   for all i, j,

equivalently tX S + S X = 0 for the polarization S.  Horizontal elements
are the degree (+1 in q) part: subdiagonal blocks A^(j+1)_j with the forced
relation A^(n-j)_(n-j-1) = t(A^(j+1)_j), so an element is determined by its
first r+1 slots, r = floor((n-1)/2), with a symmetric middle slot when the
weight is odd.  An element is stored by those free slots alone, and the
transposes above them are made when read.  A Grassmannian chart of
horizontal k-planes is stored by its base E0, a k-dimensional subspace of
slot-0 maps; its complement W, the coordinate complement of E0, is derived.

Integrality is a slot identity: horizontal X and Y, with slots X_j = A^(j+1)_j,
commute iff X_(j+1) Y_j = Y_(j+1) X_j for every j < n // 2.  Proof.  The only
blocks of [X, Y] are (j+2, j) = X_(j+1) Y_j - Y_(j+1) X_j for j = 0..n-2.  The
isometries form a Lie algebra, so [X, Y] is one, and by the relations above
its block (n-j, n-j-2) is plus or minus the transpose of block (j+2, j).  So
block j pairs with block n-2-j, and the blocks j < n // 2 determine the rest;
at even n the middle block j = (n-2)/2 pairs with itself and is checked.  A
candidate's ``verified`` is computed from this identity, never set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .errors import PreconditionError
from .fields import FieldSpec
from .linalg import Matrix, Subspace, standard_complement

Blocks = dict[tuple[int, int], Matrix]


@dataclass(frozen=True)
class HodgeShape:
    """Weight and summand dimensions (h_0, ..., h_n) of a Hodge frame."""

    weight: int
    hodge_numbers: tuple[int, ...]

    def __post_init__(self):
        if self.weight < 1:
            raise PreconditionError("weight must be at least 1")
        if len(self.hodge_numbers) != self.weight + 1:
            raise PreconditionError(
                f"need {self.weight + 1} summand dimensions, got {len(self.hodge_numbers)}"
            )
        if any(h < 0 for h in self.hodge_numbers):
            raise PreconditionError("summand dimensions must be nonnegative")

    @property
    def is_symmetric(self) -> bool:
        h = self.hodge_numbers
        return all(h[i] == h[self.weight - i] for i in range(self.weight + 1))

    def h(self, q: int) -> int:
        return self.hodge_numbers[q]

    @property
    def free_slot_count(self) -> int:
        """r + 1 where r = floor((weight-1)/2): slots that determine a
        horizontal element."""
        return (self.weight - 1) // 2 + 1

    def slot_shape(self, j: int) -> tuple[int, int]:
        """Shape of the subdiagonal block A^(j+1)_j."""
        return (self.hodge_numbers[j + 1], self.hodge_numbers[j])


class BlockMatrix:
    """Sparse-by-block endomorphism of a Hodge frame."""

    __slots__ = ("shape", "field", "blocks")

    def __init__(self, shape: HodgeShape, field: FieldSpec, blocks: Blocks | None = None):
        self.shape = shape
        self.field = field
        self.blocks: Blocks = {}
        if blocks:
            for (i, j), m in blocks.items():
                self._validate_position(i, j, m)
                if not m.is_zero():
                    self.blocks[(i, j)] = m

    def _validate_position(self, i: int, j: int, m: Matrix) -> None:
        n = self.shape.weight
        if not (0 <= i <= n and 0 <= j <= n):
            raise PreconditionError(f"block position ({i}, {j}) out of range")
        want = (self.shape.hodge_numbers[i], self.shape.hodge_numbers[j])
        if m.shape != want:
            raise PreconditionError(f"block ({i}, {j}) must be {want}, got {m.shape}")
        if m.field != self.field:
            raise PreconditionError("block field mismatch")

    def block(self, i: int, j: int) -> Matrix:
        got = self.blocks.get((i, j))
        if got is not None:
            return got
        return Matrix.zeros(self.field, self.shape.hodge_numbers[i], self.shape.hodge_numbers[j])

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.field == other.field
            and self.blocks == other.blocks
        )

    __hash__ = None

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._check_compatible(other)
        out: Blocks = dict(self.blocks)
        for pos, m in other.blocks.items():
            out[pos] = out[pos] + m if pos in out else m
        return BlockMatrix(self.shape, self.field, out)

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        return self + (-other)

    def __neg__(self) -> "BlockMatrix":
        return BlockMatrix(self.shape, self.field, {pos: -m for pos, m in self.blocks.items()})

    def scale(self, c) -> "BlockMatrix":
        return BlockMatrix(self.shape, self.field, {pos: m.scale(c) for pos, m in self.blocks.items()})

    def _check_compatible(self, other: "BlockMatrix") -> None:
        if self.shape != other.shape or self.field != other.field:
            raise PreconditionError("block matrices live on different frames")

    def compose(self, other: "BlockMatrix") -> "BlockMatrix":
        """Matrix product self @ other."""
        self._check_compatible(other)
        out: Blocks = {}
        for (i, k), a in self.blocks.items():
            for (k2, j), b in other.blocks.items():
                if k == k2:
                    prod = a @ b
                    pos = (i, j)
                    out[pos] = out[pos] + prod if pos in out else prod
        return BlockMatrix(self.shape, self.field, out)

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        return self.compose(other)

    def transpose(self) -> "BlockMatrix":
        return BlockMatrix(
            self.shape, self.field, {(j, i): m.transpose() for (i, j), m in self.blocks.items()}
        )


def polarization_matrix(shape: HodgeShape, field: FieldSpec) -> BlockMatrix:
    """Anti-diagonal polarization normal form: block (i, n-i) is (-1)^(n-i) I."""
    if not shape.is_symmetric:
        raise PreconditionError("polarization needs h_q == h_(n-q)")
    n = shape.weight
    blocks: Blocks = {}
    for i in range(n + 1):
        h = shape.hodge_numbers[i]
        if h == 0:
            continue
        sign = 1 if (n - i) % 2 == 0 else -1
        blocks[(i, n - i)] = Matrix.identity(field, h).scale(sign)
    return BlockMatrix(shape, field, blocks)


def lie_algebra_residual(x: BlockMatrix) -> list[tuple[tuple[int, int], Matrix]]:
    """Nonzero defects of the infinitesimal-isometry relations of x.

    Empty exactly when tX S + S X = 0 for the polarization S.
    """
    shape = x.shape
    if not shape.is_symmetric:
        raise PreconditionError("isometry relations need a symmetric shape")
    n = shape.weight
    out = []
    seen = set()
    for (i, j) in set(x.blocks) | {(n - j, n - i) for (i, j) in x.blocks}:
        if (i, j) in seen:
            continue
        seen.add((i, j))
        a = x.block(i, j).transpose()
        b = x.block(n - j, n - i)
        sign_a = 1 if (n - i) % 2 == 0 else -1
        sign_b = 1 if (n - j) % 2 == 0 else -1
        res = a.scale(sign_a) + b.scale(sign_b)
        if not res.is_zero():
            out.append(((i, j), res))
    return out


class HorizontalElement:
    """A degree-(+1) infinitesimal isometry, stored by its free slots 0..r.

    Slot j holds A^(j+1)_j.  The slots above r are the forced transposes
    A^(n-j)_(n-j-1) = t(A^(j+1)_j), made when read: ``slot`` is the one
    place the transpose relations are written.  Construction checks the
    symmetric middle slot of an odd weight, so every instance is a genuine
    horizontal isometry.
    """

    __slots__ = ("shape", "field", "free")

    def __init__(self, shape: HodgeShape, field: FieldSpec, free: Sequence[Matrix]):
        if not shape.is_symmetric:
            raise PreconditionError("horizontal elements need h_q == h_(n-q)")
        r1 = shape.free_slot_count
        if len(free) != r1:
            raise PreconditionError(f"need {r1} free slots for weight {shape.weight}, got {len(free)}")
        for j, m in enumerate(free):
            want = shape.slot_shape(j)
            if m.shape != want:
                raise PreconditionError(f"slot {j} must be {want}, got {m.shape}")
            if m.field != field:
                raise PreconditionError("slot field mismatch")
        if shape.weight % 2 == 1 and free[-1] != free[-1].transpose():
            raise PreconditionError("middle slot must be symmetric for odd weight")
        self.shape = shape
        self.field = field
        self.free = tuple(free)

    def slot(self, j: int) -> Matrix:
        n = self.shape.weight
        if not 0 <= j < n:
            raise PreconditionError(f"slot index {j} out of range for weight {n}")
        return self.free[j] if j < len(self.free) else self.free[n - 1 - j].transpose()

    def as_block_matrix(self) -> BlockMatrix:
        return BlockMatrix(
            self.shape, self.field, {(j + 1, j): self.slot(j) for j in range(self.shape.weight)}
        )

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.free)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HorizontalElement):
            return NotImplemented
        return self.shape == other.shape and self.field == other.field and self.free == other.free

    __hash__ = None


def commutator(x: BlockMatrix, y: BlockMatrix) -> BlockMatrix:
    """x @ y - y @ x on a shared frame."""
    return x.compose(y) - y.compose(x)


@dataclass(frozen=True)
class IntegralElementCandidate:
    """A tuple of horizontal elements proposed as a basis of an abelian
    (pairwise commuting) horizontal subspace."""

    shape: HodgeShape
    field: FieldSpec
    basis: tuple[HorizontalElement, ...]

    def __post_init__(self):
        for e in self.basis:
            if e.shape != self.shape or e.field != self.field:
                raise PreconditionError("basis element on a different frame")

    @property
    def k(self) -> int:
        return len(self.basis)

    @cached_property
    def integrality(self) -> "IntegralityReport":
        """``check_integral`` of this candidate, computed once."""
        return check_integral(self)

    @property
    def verified(self) -> bool:
        """Whether the basis pairwise commutes."""
        return self.integrality.ok


@dataclass(frozen=True)
class IntegralityReport:
    ok: bool
    failing_pairs: tuple[tuple[int, int], ...]


def check_integral(candidate: IntegralElementCandidate) -> IntegralityReport:
    """The index pairs of the basis that fail to commute, by the slot
    identity X_(j+1) Y_j = Y_(j+1) X_j for j < n // 2 (module docstring)."""
    half = candidate.shape.weight // 2
    slots = [[e.slot(j) for j in range(half + 1)] for e in candidate.basis]
    pairs = combinations(enumerate(slots), 2)
    failures = tuple((a, b) for (a, x), (b, y) in pairs if any(x[j + 1] @ y[j] != y[j + 1] @ x[j] for j in range(half)))
    return IntegralityReport(not failures, failures)


def project(candidate: IntegralElementCandidate, i: int) -> Subspace:
    """p_i: the subspace of slot-i blocks, flattened row-major; canonical."""
    n = candidate.shape.weight
    if not 0 <= i < n:
        raise PreconditionError(f"slot index {i} out of range for weight {n}")
    return Subspace.from_rows(candidate.field, _slot_rows(candidate, i))


def _slot_rows(candidate: IntegralElementCandidate, i: int) -> Matrix:
    """One row per basis element: its slot-i block flattened row-major."""
    h_to, h_from = candidate.shape.slot_shape(i)
    if not candidate.basis:
        return Matrix.zeros(candidate.field, 0, h_to * h_from)
    return Matrix.vstack([e.slot(i).reshape(1, h_to * h_from) for e in candidate.basis])


def _row_maps(rows: Matrix, shape: tuple[int, int]) -> list[Matrix]:
    """Each row of ``rows`` regrouped row-major into a matrix of ``shape``."""
    return [rows.row_select([a]).reshape(*shape) for a in range(rows.rows)]


def build_transpose_element(
    e0_rows, shape: HodgeShape, field: FieldSpec
) -> IntegralElementCandidate:
    """Lift a subspace of slot-0 maps to horizontal elements alpha + t(alpha).

    Each basis map alpha occupies slot 0 and the free slots 1..r are zero,
    so slots 1..n-2 vanish and slot n-1 carries t(alpha).  For weight >= 3
    the lifts pairwise commute (products hit only vanishing slots), so the
    result is a verified integral element.
    """
    n = shape.weight
    if n < 3:
        raise PreconditionError("transpose lift needs weight >= 3")
    if not shape.is_symmetric:
        raise PreconditionError("transpose lift needs a symmetric shape")
    h1, h0 = shape.slot_shape(0)
    if isinstance(e0_rows, Subspace):
        e0_rows = e0_rows.basis
    if isinstance(e0_rows, Matrix):
        mats = _row_maps(e0_rows, (h1, h0))
    else:
        mats = [
            m if isinstance(m, Matrix) else Matrix.from_rows(field, [list(m)]).reshape(h1, h0)
            for m in e0_rows
        ]
    zeros = [Matrix.zeros(field, *shape.slot_shape(j)) for j in range(1, shape.free_slot_count)]
    elements = [HorizontalElement(shape, field, [alpha, *zeros]) for alpha in mats]
    candidate = IntegralElementCandidate(shape, field, tuple(elements))
    if not candidate.verified:
        raise PreconditionError("transpose lifts fail to commute")
    return candidate


# ---------------------------------------------------------------------------
# Grassmannian chart around a slot-0 subspace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartData:
    """A chart of horizontal k-planes around a base subspace E0 of slot-0
    maps.  Its complement W = standard_complement(E0), the unit vectors at
    E0's free columns, is derived from E0 once."""

    shape: HodgeShape
    e0: Subspace

    def __post_init__(self):
        h1, h0 = self.shape.slot_shape(0)
        if self.e0.ambient_dimension != h1 * h0:
            raise PreconditionError("chart base lives in the wrong Hom space")

    @property
    def field(self) -> FieldSpec:
        return self.e0.field

    @cached_property
    def w(self) -> Subspace:
        return standard_complement(self.e0)

    @property
    def k(self) -> int:
        return self.e0.dim


def in_chart(candidate: IntegralElementCandidate, chart: ChartData) -> bool:
    """Chart precondition: the slot-0 projection has dimension k and meets
    W only at zero, i.e. its columns at E0's pivots have rank k."""
    if candidate.shape != chart.shape or candidate.field != chart.field:
        raise PreconditionError("candidate lives on a different frame")
    return _slot_rows(candidate, 0).col_select(chart.e0.pivots).rank() == candidate.k


@dataclass(frozen=True)
class ThetaCoordinates:
    """Chart coordinates of a horizontal k-plane: a linear map from E0 into
    W plus the free slots 1..r, one coordinate row per E0 basis element."""

    chart: ChartData
    w_part: Matrix  # k x dim W, coordinates in the basis of W
    parts: tuple[Matrix, ...]  # slot m = 1..r, each k x (h_{m+1} h_m), row-major

    @property
    def k(self) -> int:
        return self.chart.k

    def part_maps(self, m: int) -> list[Matrix]:
        """Slot-m images of the E0 basis elements as matrices (m >= 1)."""
        return _row_maps(self.parts[m - 1], self.chart.shape.slot_shape(m))

    def is_zero(self) -> bool:
        return self.w_part.is_zero() and all(m.is_zero() for m in self.parts)


def theta(chart: ChartData, w_part: Matrix, parts: Sequence[Matrix]) -> IntegralElementCandidate:
    """The k-plane with the given chart coordinates (graph over E0).

    Integrality is not implied; the result is an unverified candidate.
    """
    shape, field = chart.shape, chart.field
    n = shape.weight
    r1 = shape.free_slot_count
    if len(parts) != r1 - 1:
        raise PreconditionError(f"need {r1 - 1} slot parts for weight {n}")
    k = chart.k
    if w_part.shape != (k, chart.w.dim):
        raise PreconditionError("w_part has the wrong shape")
    for m, pm in enumerate(parts, start=1):
        h_to, h_from = shape.slot_shape(m)
        if pm.shape != (k, h_to * h_from):
            raise PreconditionError(f"slot-{m} part has the wrong shape")
    # W's rows are the unit rows at its pivots, so w_part @ W is w_part's
    # columns placed there, with a zero column everywhere else.
    at = {c: i for i, c in enumerate(chart.w.pivots)}
    padded = Matrix.hstack([w_part, Matrix.zeros(field, k, 1)])
    slot0_rows = chart.e0.basis + padded.col_select([at.get(j, chart.w.dim) for j in range(chart.e0.ambient_dimension)])
    free_maps = [_row_maps(slot0_rows, shape.slot_shape(0))]
    free_maps += [_row_maps(pm, shape.slot_shape(m)) for m, pm in enumerate(parts, start=1)]
    elements = [HorizontalElement(shape, field, free) for free in zip(*free_maps)]
    return IntegralElementCandidate(shape, field, tuple(elements))


def theta_inverse(candidate: IntegralElementCandidate, chart: ChartData) -> ThetaCoordinates:
    """Chart coordinates of a candidate lying in the chart around E0."""
    k = candidate.k
    if k != chart.k:
        raise PreconditionError(
            f"candidate spans {k} elements but the chart base has dimension {chart.k}"
        )
    if not in_chart(candidate, chart):
        raise PreconditionError("candidate is not in this chart")
    # The slot-0 rows are C (E0 + w_part W) for an invertible C.  E0 is the
    # identity on its pivot columns and W vanishes there, so those columns
    # give C; W is the identity on its own pivot columns, which gives w_part.
    p0 = _slot_rows(candidate, 0)
    t = p0.col_select(chart.e0.pivots).inverse()
    w_part = (t @ p0).col_select(chart.w.pivots) - chart.e0.basis.col_select(chart.w.pivots)
    parts = [t @ _slot_rows(candidate, m) for m in range(1, chart.shape.free_slot_count)]
    return ThetaCoordinates(chart, w_part, tuple(parts))
