"""Graded pieces of Jacobian rings R = S / (df/dx_0, ..., df/dx_{N-1}).

Each graded piece is presented by its standard monomials (non-pivot columns
of the row-reduced ideal piece) together with the projector expressing any
degree-m polynomial in those classes.  Monomial ideals (Fermat fixtures)
take a combinatorial path: the ideal piece is spanned by distinct monomials,
so ranks are set counts and projectors are selection matrices.  Everything
else goes through exact dense elimination, guarded by the entry budget.

A smooth hypersurface of degree d in P^{n+1} has one-dimensional socle in
degree sigma = (n+2)(d-2) and zero beyond; socle_check tests exactly that.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, PreconditionError, check_dense_budget
from .fields import FieldSpec, Scalar, default_prime_field
from .linalg import Matrix
from .polyring import (
    Exponents,
    HomogeneousPoly,
    MonomialBasis,
    basis,
    graded_dimension,
    multiply,
    partial_derivative,
)

#: Guard for socle_check: refuse ambient graded pieces beyond this size.
SOCLE_DIMENSION_GUARD = 10_000_000


class JacobianContext:
    """A homogeneous polynomial together with cached quotient-ring pieces.

    Thread-safe for readers: the piece cache is filled under a lock and
    pieces are immutable once published.
    """

    def __init__(self, f: HomogeneousPoly):
        if f.degree < 2:
            raise PreconditionError("hypersurface degree must be at least 2")
        self.f = f
        self.field: FieldSpec = f.field
        self.num_vars = f.num_vars
        self.d = f.degree
        self.generators: tuple[HomogeneousPoly, ...] = tuple(
            partial_derivative(f, i) for i in range(f.num_vars)
        )
        self._pieces: dict[int, GradedQuotientPiece] = {}
        self._lock = threading.Lock()

    @staticmethod
    def fermat(n: int, d: int, field: FieldSpec | None = None) -> "JacobianContext":
        """sum of pure d-th powers in n+2 variables."""
        if n < 1 or d < 2:
            raise PreconditionError("need n >= 1 and d >= 2")
        fld = field if field is not None else default_prime_field()
        nv = n + 2
        terms = {tuple(d if j == i else 0 for j in range(nv)): 1 for i in range(nv)}
        return JacobianContext(HomogeneousPoly.from_terms(fld, nv, terms))

    @property
    def n(self) -> int:
        """Projective dimension of the hypersurface (num_vars - 2)."""
        return self.num_vars - 2

    @property
    def socle_degree(self) -> int:
        return self.num_vars * (self.d - 2)

    @property
    def has_monomial_ideal(self) -> bool:
        return all(sum(1 for _ in g.terms()) <= 1 for g in self.generators)

    def piece(self, m: int, method: str = "auto") -> "GradedQuotientPiece":
        if m < 0:
            raise PreconditionError("degree must be nonnegative")
        if method not in ("auto", "monomial", "dense"):
            raise PreconditionError(f"unknown method {method!r}")
        if method == "auto":
            with self._lock:
                cached = self._pieces.get(m)
            if cached is not None:
                return cached
            piece = self._build_piece(m, "monomial" if self.has_monomial_ideal else "dense")
            with self._lock:
                return self._pieces.setdefault(m, piece)
        return self._build_piece(m, method)

    # -- piece construction -------------------------------------------------

    def _build_piece(self, m: int, method: str) -> "GradedQuotientPiece":
        amb = basis(self.num_vars, m)
        src_deg = m - (self.d - 1)
        if src_deg < 0:
            return _piece_from_pivots(self.field, m, amb, [], None)
        if method == "monomial":
            if not self.has_monomial_ideal:
                raise PreconditionError("generators are not all monomials")
            return self._build_piece_monomial(m, amb, src_deg)
        return self._build_piece_dense(m, amb, src_deg)

    def _build_piece_monomial(self, m: int, amb: MonomialBasis, src_deg: int) -> "GradedQuotientPiece":
        src = basis(self.num_vars, src_deg)
        terms = [t for g in self.generators for t, _ in g.terms()]
        # Distinct monomials span the ideal piece: their columns are the
        # pivots, and the reduced rows are unit vectors.
        pivots = sorted(set(amb.sum_index(src.monomials, terms).ravel().tolist()))
        return _piece_from_pivots(self.field, m, amb, pivots, None)

    def _build_piece_dense(self, m: int, amb: MonomialBasis, src_deg: int) -> "GradedQuotientPiece":
        src = basis(self.num_vars, src_deg)
        nrows = src.dim * self.num_vars
        check_dense_budget(nrows, amb.dim, what=f"ideal piece in degree {m}")
        entries = []
        for gi, g in enumerate(self.generators):
            terms = list(g.terms())
            cols = amb.sum_index(src.monomials, [t for t, _ in terms])
            for s, row in enumerate(cols.tolist()):
                entries += [(gi * src.dim + s, j, c) for j, (_, c) in zip(row, terms)]
        rref, pivots = Matrix.from_entries(self.field, nrows, amb.dim, entries).rref()
        return _piece_from_pivots(self.field, m, amb, pivots, rref)


def _piece_from_pivots(
    fld: FieldSpec, m: int, amb: MonomialBasis, pivots: Sequence[int], rref: Matrix | None
) -> "GradedQuotientPiece":
    """The quotient piece of an ideal piece with the given pivot columns.

    ``rref`` is the row-reduced ideal piece, or None when its pivot rows are
    unit vectors.  Standard monomials are the non-pivot columns; the
    projector row of standard column j is e_j minus the entries of column j
    in the pivot rows, placed at the pivot columns.
    """
    piv_set = set(pivots)
    std_cols = [j for j in range(amb.dim) if j not in piv_set]
    std = tuple(amb.monomials[j] for j in std_cols)
    if rref is None:
        units = [(r, j, 1) for r, j in enumerate(std_cols)]
        projector = Matrix.from_entries(fld, len(std_cols), amb.dim, units)
    else:
        reduced = rref.col_select(std_cols).row_select(range(len(pivots)))
        # Columns come out in the order std_cols + pivots; put them back in
        # ambient order.
        stacked = Matrix.hstack([Matrix.identity(fld, len(std_cols)), -reduced.transpose()])
        projector = stacked.col_select(np.argsort(std_cols + list(pivots)).tolist())
    return GradedQuotientPiece(fld, m, amb, len(pivots), std, projector)


@dataclass(frozen=True)
class GradedQuotientPiece:
    """Degree-m piece of the quotient ring in standard-monomial coordinates."""

    field: FieldSpec
    degree: int
    ambient: MonomialBasis
    ideal_rank: int
    standard_monomials: tuple[Exponents, ...]
    projector: Matrix  # dim x ambient.dim
    _std_index: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self._std_index.update({e: i for i, e in enumerate(self.standard_monomials)})

    @property
    def dim(self) -> int:
        return len(self.standard_monomials)

    def std_index(self, exponents: Exponents) -> int | None:
        return self._std_index.get(tuple(exponents))

    def project_poly(self, g: HomogeneousPoly) -> list[Scalar]:
        """Coordinates of [g] in the standard-monomial basis."""
        if g.degree != self.degree or g.num_vars != self.ambient.num_vars:
            raise PreconditionError("polynomial does not live in this piece")
        vec = Matrix.from_rows(self.field, [list(g.coeffs)])
        return (self.projector @ vec.transpose()).transpose().row(0)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def ideal_piece_rank(ctx: JacobianContext, m: int, method: str = "auto") -> int:
    """dim of the degree-m piece of the Jacobian ideal."""
    return ctx.piece(m, method=method).ideal_rank


def quotient_piece(ctx: JacobianContext, m: int, method: str = "auto") -> GradedQuotientPiece:
    """Standard monomials and projector for the degree-m quotient piece."""
    return ctx.piece(m, method=method)


def quotient_dimension(ctx: JacobianContext, m: int) -> int:
    return ctx.piece(m).dim


@dataclass(frozen=True)
class MultiplicationMap:
    """Multiplication by a fixed class: R^a -> R^{a+e} on standard bases."""

    ctx: JacobianContext
    multiplier: HomogeneousPoly
    source_degree: int
    matrix: Matrix

    @property
    def target_degree(self) -> int:
        return self.source_degree + self.multiplier.degree

    def compose(self, other: "MultiplicationMap") -> Matrix:
        """Matrix of self after other (degrees must chain)."""
        if other.target_degree != self.source_degree:
            raise PreconditionError("composition degrees do not chain")
        return self.matrix @ other.matrix


def multiplication_map(ctx: JacobianContext, g: HomogeneousPoly, a: int) -> MultiplicationMap:
    """The map [u] -> [g u] from R^a to R^{a + deg g}."""
    if g.num_vars != ctx.num_vars or g.field != ctx.field:
        raise PreconditionError("multiplier lives in a different ring")
    src = ctx.piece(a)
    tgt = ctx.piece(a + g.degree)
    terms = list(g.terms())
    # Column u of the map is sum_t c_t * (projector column of u * x^t).
    cols = tgt.ambient.sum_index(src.standard_monomials, [t for t, _ in terms])
    out = Matrix.zeros(ctx.field, tgt.dim, src.dim)
    for k, (_, c) in enumerate(terms):
        out = out + tgt.projector.col_select(cols[:, k]).scale(c)
    return MultiplicationMap(ctx, g, a, out)


def action_matrix(ctx: JacobianContext, a: int, b: int) -> Matrix:
    """Stacked action of R^a on R^b: column i is vec(mult by the i-th
    standard monomial of R^a, as a map R^b -> R^{a+b})."""
    src_a = ctx.piece(a)
    src_b = ctx.piece(b)
    tgt = ctx.piece(a + b)
    check_dense_budget(tgt.dim * src_b.dim, max(src_a.dim, 1), what="stacked multiplication action")
    # Row i * dim R^b + u of the gather is the projector column of m_i * u.
    cols = tgt.ambient.sum_index(src_a.standard_monomials, src_b.standard_monomials)
    gathered = tgt.projector.transpose().row_select(cols.ravel())
    # Column i is the column-major vec of the (dim R^{a+b} x dim R^b) map:
    # row index u * dim R^{a+b} + r.
    return gathered.reshape(src_a.dim, src_b.dim * tgt.dim).transpose()


def macaulay_injectivity_check(ctx: JacobianContext, a: int, b: int) -> bool:
    """Whether R^a -> Hom(R^b, R^{a+b}) by multiplication is injective."""
    dim_a = ctx.piece(a).dim
    if dim_a == 0:
        return True
    return action_matrix(ctx, a, b).rank() == dim_a


def socle_check(ctx: JacobianContext) -> bool:
    """dim R^sigma == 1 and dim R^(sigma+1) == 0 for sigma = (n+2)(d-2)."""
    sigma = ctx.socle_degree
    amb_dim = graded_dimension(ctx.num_vars, sigma + 1)
    if amb_dim > SOCLE_DIMENSION_GUARD:
        raise BudgetExceededError(
            f"socle check needs the degree-{sigma + 1} piece of dimension {amb_dim}, "
            f"beyond the guard of {SOCLE_DIMENSION_GUARD}"
        )
    return ctx.piece(sigma).dim == 1 and ctx.piece(sigma + 1).dim == 0


@dataclass(frozen=True)
class SmoothnessProbe:
    """Outcome of random-point singularity probing.

    ``consistent`` is False when a rational point of the hypersurface with
    vanishing gradient was found (a definite singularity over F_p);
    True only means no witness was found among the sampled points.
    """

    consistent: bool
    points_checked: int


def smoothness_probe(ctx: JacobianContext, trials: int = 12, seed=0) -> SmoothnessProbe:
    """Search random lines for hypersurface points with vanishing gradient."""
    fld = ctx.field
    if not fld.is_prime_field:
        raise PreconditionError("the probe samples points over a prime field")
    p = fld.modulus
    nv = ctx.num_vars
    rng = np.random.default_rng((_int_seed(seed), 0x51E))
    checked = 0
    ts = np.arange(p, dtype=np.int64)
    for _ in range(trials):
        u = [int(x) for x in rng.integers(0, p, size=nv)]
        v = [int(x) for x in rng.integers(0, p, size=nv)]
        coeffs = _line_restriction(ctx.f, u, v)
        vals = np.zeros(p, dtype=np.int64)
        power = np.ones(p, dtype=np.int64)
        for c in coeffs:
            if c:
                vals = (vals + c * power) % p
            power = (power * ts) % p
        for t0 in np.nonzero(vals == 0)[0]:
            pt = [(ui + int(t0) * vi) % p for ui, vi in zip(u, v)]
            if all(x == 0 for x in pt):
                continue
            checked += 1
            grads = [g.evaluate(pt) for g in ctx.generators]
            if all(gv == 0 for gv in grads):
                return SmoothnessProbe(False, checked)
    return SmoothnessProbe(True, checked)


def _int_seed(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise PreconditionError("seed must be an integer")


def _line_restriction(f: HomogeneousPoly, u: Sequence[int], v: Sequence[int]) -> list[int]:
    """Coefficients of t -> f(u + t v) over F_p, exact."""
    p = f.field.modulus
    out = [0] * (f.degree + 1)
    for e, c in f.terms():
        # product over variables of (u_i + t v_i)^{e_i}
        poly = [int(c) % p]
        for ui, vi, k in zip(u, v, e):
            for _ in range(k):
                nxt = [0] * (len(poly) + 1)
                for idx, a in enumerate(poly):
                    if a:
                        nxt[idx] = (nxt[idx] + a * ui) % p
                        nxt[idx + 1] = (nxt[idx + 1] + a * vi) % p
                poly = nxt
        for idx, a in enumerate(poly):
            out[idx] = (out[idx] + a) % p
    return out


def graded_table(ctx: JacobianContext, degrees: Sequence[int]) -> list[dict]:
    """Rows of {m, dimS, dimJ, dimR} for the requested degrees."""
    rows = []
    for m in degrees:
        piece = ctx.piece(m)
        rows.append(
            {
                "m": int(m),
                "dimS": piece.ambient.dim,
                "dimJ": piece.ideal_rank,
                "dimR": piece.dim,
            }
        )
    return rows
