"""Graded pieces of Jacobian rings R = S / (df/dx_0, ..., df/dx_{N-1}).

Each graded piece is presented by its standard monomials (non-pivot columns
of the row-reduced ideal piece) and its normal form, a ``linalg.QuotientMap``
from the ambient monomials onto the classes, which alone knows how classes
are encoded.  Products with classes are applied by its scatter: the
multiplication maps, and the products q(g) alpha(g') of the canonical
symmetrizer check, are sums of (monomial, column, coefficient) triplets, and
classes(cols) is built only where a class matrix is needed.  Monomial
ideals (Fermat fixtures) take a combinatorial path: the ideal piece is
spanned by distinct monomials, so ranks are set counts and pivot monomials
have class zero.  Everything else goes through exact dense
elimination, guarded by the entry budget.

f is smooth exactly when the partials have no common zero, that is when
R = S/J is Artinian, which the single piece R^(sigma+1) = 0 decides for
sigma = (n+2)(d-2): then the N = n+2 partials of degree d-1 generate an
ideal primary to the irrelevant one, so they form a regular sequence and R
has Hilbert series ((1-t^(d-1))/(1-t))^N, a one-dimensional socle in degree
sigma and nothing beyond, in every characteristic.  A monomial ideal is
Artinian iff every variable has a pure power among the generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, PreconditionError, check_dense_budget
from .fields import FieldSpec, Scalar, default_prime_field
from .linalg import Matrix, QuotientMap, _zeros
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
    """A homogeneous polynomial together with cached quotient-ring pieces."""

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
        self.has_monomial_ideal = all(sum(1 for _ in g.terms()) <= 1 for g in self.generators)
        self._pieces: dict[int, GradedQuotientPiece] = {}

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

    def piece(self, m: int, method: str = "auto") -> "GradedQuotientPiece":
        if m < 0:
            raise PreconditionError("degree must be nonnegative")
        if method not in ("auto", "monomial", "dense"):
            raise PreconditionError(f"unknown method {method!r}")
        if method != "auto":
            return self._build_piece(m, method)
        piece = self._pieces.get(m)
        if piece is None:
            piece = self._pieces[m] = self._build_piece(
                m, "monomial" if self.has_monomial_ideal else "dense"
            )
        return piece

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
        return self._build_piece_dense(m, amb)

    def _build_piece_monomial(self, m: int, amb: MonomialBasis, src_deg: int) -> "GradedQuotientPiece":
        src = basis(self.num_vars, src_deg)
        terms = [t for g in self.generators for t, _ in g.terms()]
        # Distinct monomials span the ideal piece: their columns are the
        # pivots, and the reduced rows are unit vectors.
        pivots = sorted(set(amb.sum_index(src.monomials, terms).ravel().tolist()))
        return _piece_from_pivots(self.field, m, amb, pivots, None)

    def _build_piece_dense(self, m: int, amb: MonomialBasis) -> "GradedQuotientPiece":
        rref, pivots = self._ideal_matrix(amb).rref()
        return _piece_from_pivots(self.field, m, amb, pivots, rref)

    def _ideal_matrix(self, amb: MonomialBasis) -> Matrix:
        """The ideal piece in the degree of ``amb``, at least d - 1: one row
        per generator times monomial, one column per ambient monomial."""
        src = basis(self.num_vars, amb.degree - (self.d - 1))
        check_dense_budget(src.dim * self.num_vars, amb.dim, what=f"ideal piece in degree {amb.degree}")
        terms = [list(g.terms()) for g in self.generators]
        # Term k (of all generators' terms in turn) of generator i times
        # monomial s is row (i, s), column cols[s, k]: no position twice.
        cols = amb.sum_index(src.monomials, [t for ts in terms for t, _ in ts])
        gen = np.repeat(np.arange(self.num_vars), [len(ts) for ts in terms])
        arr = _zeros(self.field, (self.num_vars, src.dim, amb.dim))
        arr[gen, np.arange(src.dim)[:, None], cols] = [c for ts in terms for _, c in ts]
        return Matrix(self.field, arr.reshape(-1, amb.dim))


def _piece_from_pivots(
    fld: FieldSpec, m: int, amb: MonomialBasis, pivots: Sequence[int], rref: Matrix | None
) -> "GradedQuotientPiece":
    """The quotient piece of an ideal piece with the given pivot columns and
    reduced rows ``rref`` (None: unit rows)."""
    std = tuple(amb.monomials[j] for j in np.delete(np.arange(amb.dim), list(pivots)).tolist())
    return GradedQuotientPiece(fld, m, amb, len(pivots), std, QuotientMap.of_rref(fld, amb.dim, pivots, rref))


@dataclass(frozen=True, eq=False)
class GradedQuotientPiece:
    """Degree-m piece of the quotient ring in standard-monomial coordinates."""

    field: FieldSpec
    degree: int
    ambient: MonomialBasis
    ideal_rank: int
    standard_monomials: tuple[Exponents, ...]
    # Ambient monomials onto standard-monomial coordinates.
    quotient: QuotientMap = dc_field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.standard_monomials)

    def classes(self, cols) -> Matrix:
        """dim x len(cols): column c is the class of ambient monomial cols[c]."""
        return self.quotient.classes(cols)

    def class_sums(self, cols, coeffs: Sequence[Scalar]) -> Matrix:
        """dim x len(cols) for a 2-d ``cols``: column u is the sum over k of
        coeffs[k] times the class of ambient monomial cols[u, k]."""
        cols = np.asarray(cols, dtype=np.intp)
        width, k = cols.shape
        vals = _zeros(self.field, (k,))
        vals[:] = [self.field.coerce(c) for c in coeffs]
        return self.quotient.scatter(width, cols.ravel(), np.repeat(np.arange(width), k), np.tile(vals, width))

    def project_poly(self, g: HomogeneousPoly) -> list[Scalar]:
        """Coordinates of [g] in the standard-monomial basis."""
        if g.degree != self.degree or g.num_vars != self.ambient.num_vars:
            raise PreconditionError("polynomial does not live in this piece")
        support = [j for j, c in enumerate(g.coeffs) if c != 0]
        return self.class_sums([support], [g.coeffs[j] for j in support]).flatten()


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


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
    if not terms:
        return MultiplicationMap(ctx, g, a, Matrix.zeros(ctx.field, tgt.dim, src.dim))
    # Column u of the map is sum_t c_t * (class of u * x^t): one scatter of
    # (class, u, c_t) triplets.
    cols = tgt.ambient.sum_index(src.standard_monomials, [t for t, _ in terms])
    return MultiplicationMap(ctx, g, a, tgt.class_sums(cols, [c for _, c in terms]))


def action_matrix(ctx: JacobianContext, a: int, b: int) -> Matrix:
    """Stacked action of R^a on R^b: column i is vec(mult by the i-th
    standard monomial of R^a, as a map R^b -> R^{a+b})."""
    src_a = ctx.piece(a)
    src_b = ctx.piece(b)
    tgt = ctx.piece(a + b)
    check_dense_budget(tgt.dim * src_b.dim, max(src_a.dim, 1), what="stacked multiplication action")
    # Row i * dim R^b + u of the gather is the class of m_i * u.
    cols = tgt.ambient.sum_index(src_a.standard_monomials, src_b.standard_monomials)
    gathered = tgt.classes(cols.ravel()).transpose()
    # Column i is the column-major vec of the (dim R^{a+b} x dim R^b) map:
    # row index u * dim R^{a+b} + r.
    return gathered.reshape(src_a.dim, src_b.dim * tgt.dim).transpose()


def macaulay_injectivity_check(ctx: JacobianContext, a: int, b: int) -> bool:
    """Whether R^a -> Hom(R^b, R^{a+b}) by multiplication is injective.

    Certificate first: if g -> g u is injective on R^a for a single u in R^b,
    so is the action.  u is a sum of s standard monomials of R^b with
    nonzero coefficients, both drawn from a generator seeded by (a, b); s
    starts at 16 and doubles until the map has full rank or u uses every
    standard monomial.  Only then is the stacked action ranked, which is the
    one path that can answer False.
    """
    dim_a = ctx.piece(a).dim
    if dim_a == 0:
        return True
    src_b = ctx.piece(b)
    if 0 < src_b.dim and dim_a <= ctx.piece(a + b).dim:
        rng = np.random.default_rng((a, b, 0x1AC))
        order = rng.permutation(src_b.dim)
        high = ctx.field.modulus if ctx.field.is_prime_field else 2**31
        coeffs = rng.integers(1, high, size=src_b.dim).tolist()
        s = min(16, src_b.dim)
        while True:
            terms = {src_b.standard_monomials[i]: coeffs[i] for i in order[:s]}
            u = HomogeneousPoly.from_terms(ctx.field, ctx.num_vars, terms, degree=b)
            if multiplication_map(ctx, u, a).matrix.rank() == dim_a:
                return True
            if s == src_b.dim:
                break
            s = min(2 * s, src_b.dim)
    return action_matrix(ctx, a, b).rank() == dim_a


def socle_check(ctx: JacobianContext) -> bool:
    """dim R^sigma == 1 and dim R^(sigma+1) == 0 for sigma = (n+2)(d-2).

    Both hold iff R^(sigma+1) == 0: that makes R Artinian, so the n+2
    partials are a regular sequence and R is a complete intersection with
    Hilbert series ((1-t^(d-1))/(1-t))^(n+2), whose top coefficient is 1 in
    degree sigma, in every characteristic.  A monomial ideal is Artinian iff
    each variable has a nonzero pure-power generator, a set test that builds
    no piece; any other ideal ranks its degree-(sigma+1) matrix and caches
    no piece.
    """
    if ctx.has_monomial_ideal:
        powers = {i for g in ctx.generators for e, _ in g.terms() for i, k in enumerate(e) if k == sum(e)}
        return len(powers) == ctx.num_vars
    sigma = ctx.socle_degree
    amb_dim = graded_dimension(ctx.num_vars, sigma + 1)
    if amb_dim > SOCLE_DIMENSION_GUARD:
        raise BudgetExceededError(
            f"socle check needs the degree-{sigma + 1} piece of dimension {amb_dim}, "
            f"beyond the guard of {SOCLE_DIMENSION_GUARD}"
        )
    # R^(sigma+1) = 0 iff the ideal fills its ambient space.  sigma + 1 =
    # (n+2)(d-2) + 1 is at least d - 1, so the ideal piece has rows.
    return ctx._ideal_matrix(basis(ctx.num_vars, sigma + 1)).rank() == amb_dim


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
