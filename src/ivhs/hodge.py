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
weight is odd.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import PreconditionError
from .fields import FieldSpec
from .linalg import Matrix, Subspace

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

    def block_degrees(self) -> set[int]:
        """The set of i - j over nonzero blocks (grading of the support)."""
        return {i - j for (i, j) in self.blocks}


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
    """A degree-(+1) infinitesimal isometry, stored by its subdiagonal slots.

    Slot j holds A^(j+1)_j; construction enforces the transpose relations
    (and the symmetric middle slot for odd weight), so every instance is a
    genuine horizontal isometry.
    """

    __slots__ = ("shape", "field", "slots")

    def __init__(self, shape: HodgeShape, field: FieldSpec, slots: Sequence[Matrix]):
        n = shape.weight
        if len(slots) != n:
            raise PreconditionError(f"need {n} subdiagonal slots, got {len(slots)}")
        for j, m in enumerate(slots):
            want = shape.slot_shape(j)
            if m.shape != want:
                raise PreconditionError(f"slot {j} must be {want}, got {m.shape}")
            if m.field != field:
                raise PreconditionError("slot field mismatch")
        for j in range(n):
            forced = slots[j].transpose()
            if slots[n - 1 - j] != forced and n - 1 - j != j:
                raise PreconditionError(
                    f"slot {n - 1 - j} must be the transpose of slot {j}"
                )
            if n - 1 - j == j and slots[j] != forced:
                raise PreconditionError("middle slot must be symmetric for odd weight")
        self.shape = shape
        self.field = field
        self.slots = tuple(slots)

    def slot(self, j: int) -> Matrix:
        return self.slots[j]

    def as_block_matrix(self) -> BlockMatrix:
        return BlockMatrix(
            self.shape, self.field, {(j + 1, j): m for j, m in enumerate(self.slots)}
        )

    def free_flat(self) -> list:
        """Concatenated row-major entries of the determining slots 0..r."""
        out: list = []
        for j in range(self.shape.free_slot_count):
            out.extend(self.slots[j].flatten())
        return out

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HorizontalElement):
            return NotImplemented
        return self.shape == other.shape and self.field == other.field and self.slots == other.slots

    __hash__ = None


def complete_horizontal(
    shape: HodgeShape, field: FieldSpec, free_blocks: Sequence[Matrix]
) -> HorizontalElement:
    """Extend free subdiagonal slots 0..r to a full horizontal element.

    The middle slot must be symmetric when the weight is odd; the remaining
    slots are the forced transposes.
    """
    n = shape.weight
    r1 = shape.free_slot_count
    if len(free_blocks) != r1:
        raise PreconditionError(f"need {r1} free blocks for weight {n}")
    slots: list[Matrix | None] = [None] * n
    for j, m in enumerate(free_blocks):
        slots[j] = m
    for j in range(r1):
        pos = n - 1 - j
        forced = free_blocks[j].transpose()
        if pos == j:
            if free_blocks[j] != forced:
                raise PreconditionError("middle slot must be symmetric for odd weight")
            continue
        slots[pos] = forced
    return HorizontalElement(shape, field, [m for m in slots])


def zero_horizontal(shape: HodgeShape, field: FieldSpec) -> HorizontalElement:
    return complete_horizontal(
        shape,
        field,
        [Matrix.zeros(field, *shape.slot_shape(j)) for j in range(shape.free_slot_count)],
    )


def commutator(x: BlockMatrix, y: BlockMatrix) -> BlockMatrix:
    """x @ y - y @ x on a shared frame."""
    return x.compose(y) - y.compose(x)


def horizontal_commutator(a: HorizontalElement, b: HorizontalElement) -> BlockMatrix:
    return commutator(a.as_block_matrix(), b.as_block_matrix())


@dataclass(frozen=True)
class IntegralElementCandidate:
    """A tuple of horizontal elements proposed as a basis of an abelian
    (pairwise commuting) horizontal subspace."""

    shape: HodgeShape
    field: FieldSpec
    basis: tuple[HorizontalElement, ...]
    verified: bool = False

    def __post_init__(self):
        for e in self.basis:
            if e.shape != self.shape or e.field != self.field:
                raise PreconditionError("basis element on a different frame")

    @property
    def k(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class IntegralityReport:
    ok: bool
    failing_pairs: tuple[tuple[int, int], ...]


def check_integral(candidate: IntegralElementCandidate) -> IntegralityReport:
    """Pairwise commutators of the basis; reports the failing index pairs."""
    failures = []
    basis = [e.as_block_matrix() for e in candidate.basis]
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            if not commutator(basis[a], basis[b]).is_zero():
                failures.append((a, b))
    return IntegralityReport(not failures, tuple(failures))


def verified_candidate(candidate: IntegralElementCandidate) -> IntegralElementCandidate:
    """The same candidate with ``verified`` set per an integrality check."""
    report = check_integral(candidate)
    return replace(candidate, verified=report.ok)


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

    Each basis map alpha occupies slot 0, slots 1..n-2 vanish, and slot n-1
    carries t(alpha).  For weight >= 3 the lifts pairwise commute (products
    hit only vanishing slots), so the result is a verified integral element.
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
    elements = []
    for alpha in mats:
        slots = [Matrix.zeros(field, *shape.slot_shape(j)) for j in range(n)]
        slots[0] = alpha
        slots[n - 1] = alpha.transpose()
        elements.append(HorizontalElement(shape, field, slots))
    candidate = IntegralElementCandidate(shape, field, tuple(elements))
    report = check_integral(candidate)
    if not report.ok:
        raise PreconditionError("transpose lifts fail to commute")
    return replace(candidate, verified=True)


# ---------------------------------------------------------------------------
# Grassmannian chart around a slot-0 subspace
# ---------------------------------------------------------------------------


@dataclass
class ChartData:
    """A chart of horizontal k-planes: a base subspace E0 of slot-0 maps
    and a complement W of it in the slot-0 Hom space."""

    shape: HodgeShape
    field: FieldSpec
    e0: Subspace
    w: Subspace

    def __post_init__(self):
        h1, h0 = self.shape.slot_shape(0)
        ambient = h1 * h0
        if self.e0.ambient_dimension != ambient or self.w.ambient_dimension != ambient:
            raise PreconditionError("chart subspaces live in the wrong Hom space")
        if not self.w.is_complement_of(self.e0):
            raise PreconditionError("W must be a complement of E0")
        self._solver = None

    @property
    def k(self) -> int:
        return self.e0.dim

    def _coordinate_solver(self) -> Matrix:
        if self._solver is None:
            stacked = Matrix.vstack([self.e0.basis, self.w.basis])
            self._solver = stacked.inverse()
        return self._solver


def in_chart(candidate: IntegralElementCandidate, w: Subspace) -> bool:
    """Chart precondition: slot-0 projection has full dimension and meets
    the complement W only at zero."""
    p0_rows = _slot_rows(candidate, 0)
    if p0_rows.rank() != candidate.k:
        return False
    if w.dim == 0:
        return True
    stacked = Matrix.vstack([p0_rows, w.basis])
    return stacked.rank() == candidate.k + w.dim


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
    slot0_rows = chart.e0.basis + (w_part @ chart.w.basis if chart.w.dim else Matrix.zeros(field, k, chart.e0.ambient_dimension))
    free_maps = [_row_maps(slot0_rows, shape.slot_shape(0))]
    free_maps += [_row_maps(pm, shape.slot_shape(m)) for m, pm in enumerate(parts, start=1)]
    elements = [complete_horizontal(shape, field, free) for free in zip(*free_maps)]
    return IntegralElementCandidate(shape, field, tuple(elements))


def theta_inverse(candidate: IntegralElementCandidate, chart: ChartData) -> ThetaCoordinates:
    """Chart coordinates of a candidate lying in the chart around E0."""
    shape, field = chart.shape, chart.field
    if candidate.shape != shape or candidate.field != field:
        raise PreconditionError("candidate lives on a different frame")
    k = candidate.k
    if k != chart.k:
        raise PreconditionError(
            f"candidate spans {k} elements but the chart base has dimension {chart.k}"
        )
    if not in_chart(candidate, chart.w):
        raise PreconditionError("candidate is not in this chart")
    coords = _slot_rows(candidate, 0) @ chart._coordinate_solver()
    c0 = coords.col_select(range(k))
    cw = coords.col_select(range(k, coords.cols))
    t = c0.inverse()
    w_part = t @ cw
    parts = [t @ _slot_rows(candidate, m) for m in range(1, shape.free_slot_count)]
    return ThetaCoordinates(chart, w_part, tuple(parts))
