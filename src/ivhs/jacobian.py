"""Graded pieces of Jacobian rings R = S / (df/dx_0, ..., df/dx_{N-1}).

Each graded piece is its ambient monomials and its normal form, a
``linalg.QuotientMap`` onto the classes, which alone knows how classes are
encoded; the standard monomials are its free (non-pivot) columns, and the
rest of the piece is read from those two.  Products with classes are applied
by its scatter: the multiplication maps, and the products q(g) alpha(g') of
the canonical symmetrizer check, are sums of (monomial, column, coefficient)
triplets, and classes(cols) is built only where a class matrix is needed.
Monomial ideals (Fermat fixtures) take a combinatorial path: the ideal piece
is spanned by distinct monomials, so its pivots are one mask over the ambient
monomials, pivot monomials have class zero, and the class of a product of
monomials is 0 or a unit vector, so the injectivity of a multiplication
action is a count of supports, with no matrix built.  Everything else goes
through exact dense elimination, guarded by the entry budget.

f is smooth exactly when the partials have no common zero, that is when
R = S/J is Artinian, which the single piece R^(sigma+1) = 0 decides for
sigma = (n+2)(d-2): then the N = n+2 partials of degree d-1 generate an
ideal primary to the irrelevant one, so they form a regular sequence and R
has Hilbert series ((1-t^(d-1))/(1-t))^N, a one-dimensional socle in degree
sigma and nothing beyond, in every characteristic.  A monomial ideal is
Artinian iff every variable has a pure power among the generators.

Any other ideal reads R^(sigma+1) off the piece R^sigma, by the Koszul
isomorphism for m >= d - 1:

    R^(m+1) = (R^m)^N / span{ [x_j v] e_i - [x_i v] e_j : i < j, v in S_(m-1) }.

Proof.  (v_k) -> sum_k x_k v_k maps (S_m)^N onto S_(m+1) and J_m^N into
J_(m+1), so it induces a surjection (R^m)^N -> R^(m+1).  J is generated in
degree d - 1 <= m, so J_(m+1) = S_1 J_m: if sum_k x_k v_k lies in J_(m+1),
it equals sum_k x_k u_k with u_k in J_m, and by exactness of the Koszul
complex of x_0, ..., x_(N-1) the tuple (v_k - u_k) is a sum of the
relations above.  So dim R^(m+1) = N dim R^m - rank K_m, K_m the matrix of
those relations (``koszul_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import PreconditionError, check_dense_budget
from .fields import FieldSpec, Scalar, default_prime_field
from .linalg import Matrix, QuotientMap, _zeros
from .polyring import (
    HomogeneousPoly,
    MonomialBasis,
    basis,
    graded_dimension,
    partial_derivative,
)

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
        self.has_monomial_ideal = all(len(g.terms()) <= 1 for g in self.generators)
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
        src_deg = m - (self.d - 1)
        if src_deg >= 0 and method == "dense":  # refused before any monomial is listed
            rows = graded_dimension(self.num_vars, src_deg) * self.num_vars
            check_dense_budget(rows, graded_dimension(self.num_vars, m), what=f"ideal piece in degree {m}")
        amb = basis(self.num_vars, m)
        if src_deg < 0:
            quotient = QuotientMap.of_rref(self.field, amb.dim, (), None)
        elif method == "monomial":
            if not self.has_monomial_ideal:
                raise PreconditionError("generators are not all monomials")
            quotient = self._monomial_quotient(amb, src_deg)
        else:
            rref, pivots = self._ideal_matrix(amb).rref()
            quotient = QuotientMap.of_rref(self.field, amb.dim, pivots, rref)
        return GradedQuotientPiece(m, amb, quotient)

    def _monomial_quotient(self, amb: MonomialBasis, src_deg: int) -> QuotientMap:
        src = basis(self.num_vars, src_deg)
        terms = [t for g in self.generators for t, _ in g.terms()]
        # Distinct monomials span the ideal piece: their columns are the
        # pivots, and the reduced rows are unit vectors.
        mask = np.zeros(amb.dim, dtype=bool)
        mask[amb.sum_index(src.exponents, terms)] = True
        return QuotientMap.of_rref(self.field, amb.dim, mask.nonzero()[0], None)

    def _ideal_matrix(self, amb: MonomialBasis) -> Matrix:
        """The ideal piece in the degree of ``amb``, at least d - 1: one row
        per generator times monomial, one column per ambient monomial."""
        src = basis(self.num_vars, amb.degree - (self.d - 1))
        terms = [g.terms() for g in self.generators]
        # Term k (of all generators' terms in turn) of generator i times
        # monomial s is row (i, s), column cols[s, k]: no position twice.
        cols = amb.sum_index(src.exponents, [t for ts in terms for t, _ in ts])
        gen = np.repeat(np.arange(self.num_vars), [len(ts) for ts in terms])
        arr = _zeros(self.field, (self.num_vars, src.dim, amb.dim))
        arr[gen, np.arange(src.dim)[:, None], cols] = [c for ts in terms for _, c in ts]
        return Matrix(self.field, arr.reshape(-1, amb.dim))


@dataclass(frozen=True, eq=False)
class GradedQuotientPiece:
    """Degree-m piece of the quotient ring in standard-monomial coordinates,
    held by its ambient monomials and the quotient map onto their classes."""

    degree: int
    ambient: MonomialBasis
    # Ambient monomials onto standard-monomial coordinates.
    quotient: QuotientMap = dc_field(repr=False)

    @property
    def field(self) -> FieldSpec:
        return self.quotient.field

    @property
    def dim(self) -> int:
        return self.quotient.dim

    @property
    def ideal_rank(self) -> int:
        return self.ambient.dim - self.dim

    @cached_property
    def standard_exponents(self) -> np.ndarray:
        """The standard monomials, one exponent row each in ambient order."""
        return self.ambient.exponents[self.quotient.free]

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


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def multiplication_map(ctx: JacobianContext, g: HomogeneousPoly, a: int) -> Matrix:
    """The map [u] -> [g u] from R^a to R^{a + deg g}, on standard bases."""
    if g.num_vars != ctx.num_vars or g.field != ctx.field:
        raise PreconditionError("multiplier lives in a different ring")
    src = ctx.piece(a)
    tgt = ctx.piece(a + g.degree)
    terms = g.terms()
    if not terms:
        return Matrix.zeros(ctx.field, tgt.dim, src.dim)
    # Column u of the map is sum_t c_t * (class of u * x^t): one scatter of
    # (class, u, c_t) triplets.
    cols = tgt.ambient.sum_index(src.standard_exponents, [t for t, _ in terms])
    return tgt.class_sums(cols, [c for _, c in terms])


def action_matrix(ctx: JacobianContext, a: int, b: int) -> Matrix:
    """Stacked action of R^a on R^b: column i is vec(mult by the i-th
    standard monomial of R^a, as a map R^b -> R^{a+b})."""
    src_a = ctx.piece(a)
    src_b = ctx.piece(b)
    tgt = ctx.piece(a + b)
    check_dense_budget(tgt.dim * src_b.dim, max(src_a.dim, 1), what="stacked multiplication action")
    # Row i * dim R^b + u of the gather is the class of m_i * u.
    cols = tgt.ambient.sum_index(src_a.standard_exponents, src_b.standard_exponents)
    gathered = tgt.classes(cols.ravel()).transpose()
    # Column i is the column-major vec of the (dim R^{a+b} x dim R^b) map:
    # row index u * dim R^{a+b} + r.
    return gathered.reshape(src_a.dim, src_b.dim * tgt.dim).transpose()


# Standard monomials of R^b tried at a time by the monomial injectivity test.
_INJECTIVITY_BLOCK = 64


def macaulay_injectivity_check(ctx: JacobianContext, a: int, b: int) -> bool:
    """Whether R^a -> Hom(R^b, R^{a+b}) by multiplication is injective.

    A monomial ideal needs no rank: the map is injective iff every standard
    monomial g of R^a has a standard monomial v of R^b with g v nonzero in
    R^{a+b}.  Proof: the ideal piece is spanned by monomials, so the class
    of a monomial is 0 or the unit vector of a standard monomial.  Column g
    of the stacked action (``action_matrix``) has its nonzeros at the rows
    (v, g v) with g v standard, and two columns g != g' share no row, since
    g v = g' v forces g = g'.  Columns with disjoint supports are
    independent unless zero, over any field, so the stacked rank is the
    number of nonzero columns, and it is dim R^a iff no column is zero.
    R^b is walked in blocks of ``_INJECTIVITY_BLOCK`` monomials, keeping
    only the g still without a partner; R^b = 0 leaves every g without one.

    Any other ideal takes a certificate first: if g -> g u is injective on
    R^a for a single u in R^b, so is the action.  u is a sum of s standard
    monomials of R^b with nonzero coefficients, both drawn from a generator
    seeded by (a, b); s starts at 16 and doubles until the map has full rank
    or u uses every standard monomial.  Only then is the stacked action
    ranked, which is the one path that can answer False.
    """
    dim_a = ctx.piece(a).dim
    if dim_a == 0:
        return True
    if ctx.has_monomial_ideal:
        return _monomial_injectivity(ctx, a, b)
    src_b = ctx.piece(b)
    if 0 < src_b.dim and dim_a <= ctx.piece(a + b).dim:
        rng = np.random.default_rng((a, b, 0x1AC))
        order = rng.permutation(src_b.dim)
        high = ctx.field.modulus if ctx.field.is_prime_field else 2**31
        coeffs = rng.integers(1, high, size=src_b.dim).tolist()
        s = min(16, src_b.dim)
        while True:
            terms = {tuple(src_b.standard_exponents[i].tolist()): coeffs[i] for i in order[:s]}
            u = HomogeneousPoly.from_terms(ctx.field, ctx.num_vars, terms, degree=b)
            if multiplication_map(ctx, u, a).rank() == dim_a:
                return True
            if s == src_b.dim:
                break
            s = min(2 * s, src_b.dim)
    return action_matrix(ctx, a, b).rank() == dim_a


def _monomial_injectivity(ctx: JacobianContext, a: int, b: int) -> bool:
    """``macaulay_injectivity_check`` for a monomial ideal, by supports."""
    src_b = ctx.piece(b)
    tgt = ctx.piece(a + b)
    unpartnered = ctx.piece(a).standard_exponents
    for start in range(0, src_b.dim, _INJECTIVITY_BLOCK):
        block = src_b.standard_exponents[start : start + _INJECTIVITY_BLOCK]
        partnered = tgt.quotient.nonzero(tgt.ambient.sum_index(unpartnered, block)).any(axis=1)
        unpartnered = unpartnered[~partnered]
        if unpartnered.shape[0] == 0:
            return True
    return False


def koszul_matrix(ctx: JacobianContext, m: int) -> Matrix:
    """The Koszul relations K_m on (R^m)^N, for m >= d - 1 and N = num_vars.

    Row p * dim S_(m-1) + s, for the p-th pair i < j in row-major order and
    the s-th monomial v of S_(m-1), is [x_j v] e_i - [x_i v] e_j: column
    block k (columns k * dim R^m onwards) holds the coordinates of e_k.  By
    the module docstring its rank is N dim R^m - dim R^(m+1).
    """
    piece = ctx.piece(m)
    nv, dim = ctx.num_vars, piece.dim
    src = basis(nv, m - 1)
    i, j = np.triu_indices(nv, 1)
    check_dense_budget(i.size * src.dim, nv * dim, what=f"Koszul relations in degree {m}")
    # Row s * nv + k of the table is the class of x_k times monomial s of
    # S_(m-1), row half + s * nv + k its negative, and the last row zero.
    cls = piece.classes(piece.ambient.sum_index(src.exponents, basis(nv, 1).exponents).ravel()).transpose()
    half = cls.rows
    table = Matrix.vstack([cls, -cls, Matrix.zeros(ctx.field, 1, dim)])
    # Block k of row (p, s) is table row pick[p, s, k].
    pick = np.full((i.size, src.dim, nv), 2 * half, dtype=np.intp)
    s = nv * np.arange(src.dim)
    pick[np.arange(i.size), :, i] = s + j[:, None]
    pick[np.arange(i.size), :, j] = half + s + i[:, None]
    return table.row_select(pick.ravel()).reshape(i.size * src.dim, nv * dim)


def socle_check(ctx: JacobianContext) -> bool:
    """dim R^sigma == 1 and dim R^(sigma+1) == 0 for sigma = (n+2)(d-2).

    Both hold iff R^(sigma+1) == 0: that makes R Artinian, so the n+2
    partials are a regular sequence and R is a complete intersection with
    Hilbert series ((1-t^(d-1))/(1-t))^(n+2), whose top coefficient is 1 in
    degree sigma, in every characteristic.  A monomial ideal is Artinian iff
    each variable has a nonzero pure-power generator, a set test that builds
    no piece.  Any other ideal builds and caches the piece R^sigma, which
    must have dimension 1, and then R^(sigma+1) = 0 iff the Koszul
    relations K_sigma on (R^sigma)^N have rank N (module docstring); no
    degree-(sigma+1) matrix is built.  Only d = 2 has sigma < d - 1, where
    the isomorphism does not apply: there the piece R^(sigma+1) = R^1 is
    built and cached instead.
    """
    if ctx.has_monomial_ideal:
        powers = {i for g in ctx.generators for e, _ in g.terms() for i, k in enumerate(e) if k == sum(e)}
        return len(powers) == ctx.num_vars
    sigma = ctx.socle_degree
    if sigma < ctx.d - 1:
        return ctx.piece(sigma + 1).dim == 0
    # An Artinian R is a complete intersection, with dim R^sigma = 1.
    if ctx.piece(sigma).dim != 1:
        return False
    return koszul_matrix(ctx, sigma).rank() == ctx.num_vars


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
