"""Graded pieces of polynomial rings in N variables over an exact field.

Monomials of a fixed degree are ordered graded-lexicographically
(x0 > x1 > ... > x_{N-1}, descending lex within the degree).  A basis of
a graded piece is its exponent array, one row per monomial in that order,
and a homogeneous polynomial is its nonzero terms in the same order; only
the dense constructor ``HomogeneousPoly(field, N, m, coeffs)`` enumerates a
basis.  The zero polynomial carries a degree so graded maps stay well
typed.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError
from .fields import FieldSpec, Scalar

Exponents = tuple[int, ...]
Term = tuple[Exponents, Scalar]


def _exponents_desc_lex(num_vars: int, degree: int) -> np.ndarray:
    """All exponent rows of total ``degree``, in descending lex order.

    Built from the last variable forwards.  In k + 1 variables the monomials
    of degree j are a_0 = j, j - 1, ..., 0 followed by the k-variable
    monomials of degree j - a_0, so their tails are the k-variable blocks of
    degrees 0, 1, ..., j in turn: a prefix of all the blocks stacked.
    """
    dtype = np.min_scalar_type(degree)
    blocks = [np.full((1, 1), j, dtype=dtype) for j in range(degree + 1)]
    for k in range(2, num_vars + 1):
        tails = np.concatenate(blocks)
        sizes = [len(b) for b in blocks]
        ends = np.cumsum(sizes)
        # Only the full degree is needed in all num_vars variables.
        blocks = [
            np.hstack([np.repeat(np.arange(j, -1, -1, dtype=dtype), sizes[: j + 1])[:, None], tails[: ends[j]]])
            for j in (range(degree + 1) if k < num_vars else (degree,))
        ]
    return blocks[-1]


# Most entries of one digit table: a group takes as many digits as fit, and
# at least one, whose table has degree + 1 entries.
_TABLE_ENTRIES = 2**16


class MonomialBasis:
    """All monomials of a fixed total degree as one read-only exponent array,
    one row each, in descending lex order.

    Its dtype is the smallest unsigned one that holds ``degree``: bases stay
    cached.  The digit tables of ``sum_index`` are built by its first lookup
    and stay with the basis.
    """

    __slots__ = ("num_vars", "degree", "exponents", "_tables")

    def __init__(self, num_vars: int, degree: int):
        if num_vars < 1:
            raise PreconditionError("need at least one variable")
        if degree < 0:
            raise PreconditionError("degree must be nonnegative")
        self.num_vars = num_vars
        self.degree = degree
        e = _exponents_desc_lex(num_vars, degree)
        e.flags.writeable = False
        self.exponents: np.ndarray = e
        self._tables: tuple[np.ndarray, list[np.ndarray]] | None = None

    def __len__(self) -> int:
        return self.exponents.shape[0]

    @property
    def dim(self) -> int:
        return self.exponents.shape[0]

    def index(self, exponents: Sequence[int]) -> int:
        """Position of one monomial; KeyError for anything not in the basis."""
        return int(self.sum_index([exponents], [(0,) * self.num_vars])[0, 0])

    def _digit_tables(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Key weights (one column per group) and the digit tables.

        With D the degree, N the arity and s_i = e_0 + ... + e_{i-1}, the
        index of e is the sum over positions i < N - 1 of
        C(D - s_{i+1} - 1 + N-1-i, N-1-i), the number of monomials that agree
        with e before position i and exceed it there (0 when s_{i+1} = D).
        The positions split into consecutive groups [a..b].  The terms of a
        group depend only on the digits s_{a+1}, e_{a+1}, ..., e_b, each in
        [0, D]; its key reads them in base D + 1 and is linear in e.  The
        digits of a sum of exponent tuples of total degree D are at most D,
        so key(u + v) = key(u) + key(v).  A group's table maps its key to the
        sum of its terms, scattered from the basis rows, in which every
        digit tuple of a degree-D monomial occurs; when one group holds all
        positions that sum is the row's index.
        """
        if self._tables is None:
            n, d = self.num_vars, self.degree
            base, positions = d + 1, n - 1
            width = 1
            while width < positions and base ** (width + 1) <= _TABLE_ENTRIES:
                width += 1
            groups = [(a, min(a + width, positions)) for a in range(0, positions, width)]
            # Keys are below max(2^16, D + 1), and D + 1 < 2^31 for any basis
            # with a table (N >= 2, so at least D + 1 rows): int32 keys halve
            # the temporary sums of a lookup.
            weights = np.zeros((n, len(groups)), dtype=np.int32)
            for g, (a, end) in enumerate(groups):
                top = end - 1 - a  # place of the s_{a+1} digit
                weights[: a + 1, g] = base**top
                weights[a + 1 : end, g] = base ** np.arange(top - 1, -1, -1)
            keys = self.exponents @ weights
            s = np.zeros(self.dim, dtype=np.int64)  # s_{i+1} of every row
            tables = []
            for g, (a, end) in enumerate(groups):
                if len(groups) == 1:
                    value = np.arange(self.dim, dtype=np.int64)
                else:
                    value = np.zeros(self.dim, dtype=np.int64)
                    for i in range(a, end):
                        s += self.exponents[:, i]
                        r = n - 1 - i
                        # The term of position i by the value of s_{i+1}.
                        value += np.array([comb(d - t - 1 + r, r) for t in range(d)] + [0], dtype=np.int64)[s]
                table = np.zeros(base ** (end - a), dtype=np.int64)
                table[keys[:, g]] = value
                tables.append(table)
            self._tables = (weights, tables)
        return self._tables

    def _exponent_keys(
        self, monomials: Sequence[Exponents] | np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Group keys of homogeneous ``monomials`` (one row per group) and
        their common degree."""
        e = np.asarray(monomials)
        unsigned = e.dtype.kind == "u"  # needs no negativity pass
        e = (e if unsigned else e.astype(np.int64, copy=False)).reshape(len(monomials), -1)
        degrees = e.sum(axis=1)
        if e.shape[1] != self.num_vars or (not unsigned and e.min() < 0) or (degrees != degrees[0]).any():
            raise KeyError("monomials must be homogeneous exponent tuples of the basis arity")
        return (e @ weights).astype(np.int32, copy=False).T, int(degrees[0])

    def sum_index(
        self, left: Sequence[Exponents] | np.ndarray, right: Sequence[Exponents] | np.ndarray
    ) -> np.ndarray:
        """Index of u + v in this basis for u in ``left`` and v in ``right``,
        as an int64 array of shape (len(left), len(right)).  Either side may
        be exponent tuples or an integer array of them, one row each, such
        as ``MonomialBasis.exponents``.

        The group keys are linear in the exponents, so the index of u + v is
        one gather per digit table at key(u) + key(v): one gather in all but
        the widest bases.  Raises KeyError when the degrees of ``left`` and
        ``right`` do not add up to ``degree``.
        """
        if len(left) == 0 or len(right) == 0:
            return np.zeros((len(left), len(right)), dtype=np.int64)
        weights, tables = self._digit_tables()
        lk, ldeg = self._exponent_keys(left, weights)
        rk, rdeg = self._exponent_keys(right, weights)
        if ldeg + rdeg != self.degree:
            raise KeyError(f"degrees {ldeg} + {rdeg} do not add up to {self.degree}")
        if not tables:  # one variable
            return np.zeros((len(left), len(right)), dtype=np.int64)
        index = tables[0][lk[0][:, None] + rk[0]]
        for table, lg, rg in zip(tables[1:], lk[1:], rk[1:]):
            index += table[lg[:, None] + rg]
        return index


@lru_cache(maxsize=None)
def basis(num_vars: int, degree: int) -> MonomialBasis:
    """The (cached) monomial basis of the degree-``degree`` graded piece."""
    return MonomialBasis(num_vars, degree)


def graded_dimension(num_vars: int, degree: int) -> int:
    """dim of the degree-m piece: C(m + N - 1, m), without enumeration."""
    return comb(degree + num_vars - 1, degree)


class HomogeneousPoly:
    """A homogeneous polynomial as its nonzero terms: (exponent tuple,
    canonical coefficient) pairs in descending lex order of the exponents,
    so equal polynomials hold equal terms."""

    __slots__ = ("field", "num_vars", "degree", "_terms")

    def __init__(self, field: FieldSpec, num_vars: int, degree: int, coeffs: Sequence[Scalar]):
        """From a dense vector: coeffs[i] multiplies monomial i of
        ``basis(num_vars, degree)``."""
        b = basis(num_vars, degree)
        if len(coeffs) != b.dim:
            raise PreconditionError(f"expected {b.dim} coefficients, got {len(coeffs)}")
        self.field = field
        self.num_vars = num_vars
        self.degree = degree
        coerced = [field.coerce(c) for c in coeffs]
        self._terms: tuple[Term, ...] = tuple((tuple(e), c) for e, c in zip(b.exponents.tolist(), coerced) if c)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _canonical(cls, field: FieldSpec, num_vars: int, degree: int, terms: Iterable[Term]) -> "HomogeneousPoly":
        """From terms with distinct exponent tuples of ints and coefficients
        already canonical in ``field`` (as ``field.coerce`` and the field
        operations return them), in any order; zero terms are dropped."""
        poly = object.__new__(cls)
        poly.field = field
        poly.num_vars = num_vars
        poly.degree = degree
        # Canonical coefficients are zero exactly when falsy: ints in [0, p)
        # and Fractions alike.
        poly._terms = tuple(sorted((t for t in terms if t[1]), key=operator.itemgetter(0), reverse=True))
        return poly

    @staticmethod
    def zero(field: FieldSpec, num_vars: int, degree: int) -> "HomogeneousPoly":
        return HomogeneousPoly.from_terms(field, num_vars, {}, degree=degree)

    @staticmethod
    def from_terms(field: FieldSpec, num_vars: int, terms: dict[Exponents, Scalar], degree: int | None = None) -> "HomogeneousPoly":
        if num_vars < 1:
            raise PreconditionError("need at least one variable")
        exps = [tuple(map(operator.index, e)) for e in terms]
        for e in exps:
            if len(e) != num_vars or min(e) < 0:
                raise PreconditionError(f"exponent tuple {e} is not {num_vars} nonnegative integers")
        degrees = {sum(e) for e in exps}
        if len(degrees) > 1:
            raise PreconditionError(f"terms of mixed degrees {sorted(degrees)} are not homogeneous")
        if degree is None:
            if not degrees:
                raise PreconditionError("degree required for the empty term dict")
            degree = degrees.pop()
        elif degrees and degrees.pop() != degree:
            raise PreconditionError("terms do not match the stated degree")
        if degree < 0:
            raise PreconditionError("degree must be nonnegative")
        return HomogeneousPoly._canonical(field, num_vars, degree, zip(exps, map(field.coerce, terms.values())))

    @staticmethod
    def monomial(field: FieldSpec, exponents: Sequence[int], coeff: Scalar = 1, num_vars: int | None = None) -> "HomogeneousPoly":
        e = tuple(exponents)
        nv = num_vars if num_vars is not None else len(e)
        return HomogeneousPoly.from_terms(field, nv, {e: coeff})

    # -- structure -------------------------------------------------------------

    def terms(self) -> tuple[Term, ...]:
        """The nonzero terms (exponents, coefficient), in descending lex order."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.num_vars == other.num_vars
            and self.degree == other.degree
            and self._terms == other._terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"HomogeneousPoly({self.to_text()!r})"

    # -- arithmetic -------------------------------------------------------------

    def _check_compatible(self, other: "HomogeneousPoly") -> None:
        if self.field != other.field or self.num_vars != other.num_vars:
            raise PreconditionError("polynomials live in different rings")

    def _combine(self, other: "HomogeneousPoly", op, what: str) -> "HomogeneousPoly":
        """Termwise ``op`` (the field's add or sub) of two polynomials."""
        self._check_compatible(other)
        if self.degree != other.degree:
            raise PreconditionError(f"cannot {what} pieces of different degrees")
        zero = self.field.zero()
        out = dict(self._terms)
        for e, c in other._terms:
            out[e] = op(out.get(e, zero), c)
        return HomogeneousPoly._canonical(self.field, self.num_vars, self.degree, out.items())

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self._combine(other, self.field.add, "add")

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self._combine(other, self.field.sub, "subtract")

    def scale(self, c: Scalar) -> "HomogeneousPoly":
        f = self.field
        c = f.coerce(c)
        return HomogeneousPoly._canonical(f, self.num_vars, self.degree, ((e, f.mul(c, a)) for e, a in self._terms))

    def __mul__(self, other):
        if isinstance(other, HomogeneousPoly):
            return multiply(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Value at a point with coordinates in the field."""
        if len(point) != self.num_vars:
            raise PreconditionError("point has wrong arity")
        f = self.field
        pt = [f.coerce(x) for x in point]
        total = f.zero()
        for e, c in self._terms:
            v = c
            for x, k in zip(pt, e):
                for _ in range(k):
                    v = f.mul(v, x)
            total = f.add(total, v)
        return total

    # -- text form ----------------------------------------------------------------

    def to_text(self) -> str:
        parts: list[str] = []
        for e, c in self._terms:
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"x{i}")
                elif k > 1:
                    factors.append(f"x{i}^{k}")
            mono = "*".join(factors)
            neg = (isinstance(c, Fraction) and c < 0)
            mag = -c if neg else c
            coeff_str = str(mag)
            if mono and mag == 1:
                term = mono
            elif mono:
                term = f"{coeff_str}*{mono}"
            else:
                term = coeff_str
            if not parts:
                parts.append(("-" if neg else "") + term)
            else:
                parts.append(("-" if neg else "+") + term)
        if not parts:
            return "0"
        return "".join(parts)


_TERM_RE = re.compile(r"[+-]?[^+-]+")
_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_COEFF_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def parse_poly(text: str, field: FieldSpec, num_vars: int | None = None) -> HomogeneousPoly:
    """Parse ``c*x0^e0*...`` terms joined by + and - into a homogeneous poly.

    Whitespace is ignored.  Coefficients are integers or a/b rationals;
    an omitted coefficient means 1.  The variable count is inferred from
    the highest index seen unless given explicitly.
    """
    s = "".join(text.split())
    if not s:
        raise PreconditionError("empty polynomial text")
    terms: dict[Exponents, list] = {}
    max_var = -1
    raw_terms = _TERM_RE.findall(s)
    if "".join(raw_terms) != s:
        raise PreconditionError(f"cannot parse polynomial text {text!r}")
    parsed: list[tuple[int, Scalar, dict[int, int]]] = []
    for raw in raw_terms:
        sign = 1
        body = raw
        if body[0] == "+":
            body = body[1:]
        elif body[0] == "-":
            sign = -1
            body = body[1:]
        if not body:
            raise PreconditionError(f"dangling sign in {text!r}")
        coeff: Scalar = 1
        powers: dict[int, int] = {}
        for factor in body.split("*"):
            if not factor:
                raise PreconditionError(f"empty factor in term {raw!r}")
            fm = _FACTOR_RE.match(factor)
            if fm:
                idx = int(fm.group(1))
                exp = int(fm.group(2)) if fm.group(2) else 1
                powers[idx] = powers.get(idx, 0) + exp
                max_var = max(max_var, idx)
                continue
            cm = _COEFF_RE.match(factor)
            if cm:
                num = int(cm.group(1))
                den = int(cm.group(2)) if cm.group(2) else 1
                if den == 0:
                    raise PreconditionError("zero denominator")
                coeff = Fraction(num, den) if den != 1 else num
                continue
            raise PreconditionError(f"cannot parse factor {factor!r}")
        parsed.append((sign, coeff, powers))
    nv = num_vars if num_vars is not None else max_var + 1
    if nv < 1:
        nv = 1
    if max_var >= nv:
        raise PreconditionError(f"variable x{max_var} out of range for {nv} variables")
    term_dict: dict[Exponents, Scalar] = {}
    for sign, coeff, powers in parsed:
        e = tuple(powers.get(i, 0) for i in range(nv))
        c = coeff if sign == 1 else -coeff
        if e in term_dict:
            term_dict[e] = term_dict[e] + c
        else:
            term_dict[e] = c
    degrees = {sum(e) for e in term_dict}
    if len(degrees) > 1:
        raise PreconditionError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
    return HomogeneousPoly.from_terms(field, nv, term_dict)


def multiply(f: HomogeneousPoly, g: HomogeneousPoly) -> HomogeneousPoly:
    """Product in the graded ring; degree adds."""
    f._check_compatible(g)
    fld = f.field
    out: dict[Exponents, Scalar] = {}
    for ef, cf in f.terms():
        for eg, cg in g.terms():
            e = tuple(a + b for a, b in zip(ef, eg))
            prod = fld.mul(cf, cg)
            if e in out:
                out[e] = fld.add(out[e], prod)
            else:
                out[e] = prod
    return HomogeneousPoly._canonical(fld, f.num_vars, f.degree + g.degree, out.items())


def partial_derivative(f: HomogeneousPoly, i: int) -> HomogeneousPoly:
    """d/dx_i; maps degree m to degree m-1 (constants map to the zero constant)."""
    if not 0 <= i < f.num_vars:
        raise PreconditionError(f"variable index {i} out of range")
    fld = f.field
    if f.degree == 0:
        return HomogeneousPoly.zero(fld, f.num_vars, 0)
    out = (
        (e[:i] + (e[i] - 1,) + e[i + 1 :], fld.mul(c, fld.coerce(e[i])))
        for e, c in f.terms()
        if e[i]
    )
    return HomogeneousPoly._canonical(fld, f.num_vars, f.degree - 1, out)
