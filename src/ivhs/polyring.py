"""Graded pieces of polynomial rings in N variables over an exact field.

Monomials of a fixed degree are ordered graded-lexicographically
(x0 > x1 > ... > x_{N-1}, descending lex within the degree), and a
homogeneous polynomial is a dense coordinate vector over that basis.
The zero polynomial carries a degree so graded maps stay well typed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .errors import PreconditionError
from .fields import FieldSpec, Scalar

Exponents = tuple[int, ...]


def _monomials_desc_lex(num_vars: int, degree: int) -> list[Exponents]:
    if num_vars == 1:
        return [(degree,)]
    out: list[Exponents] = []
    for e0 in range(degree, -1, -1):
        for rest in _monomials_desc_lex(num_vars - 1, degree - e0):
            out.append((e0,) + rest)
    return out


class MonomialBasis:
    """All exponent tuples of a fixed total degree, in descending lex order."""

    __slots__ = ("num_vars", "degree", "monomials", "_index")

    def __init__(self, num_vars: int, degree: int):
        if num_vars < 1:
            raise PreconditionError("need at least one variable")
        if degree < 0:
            raise PreconditionError("degree must be nonnegative")
        self.num_vars = num_vars
        self.degree = degree
        self.monomials: tuple[Exponents, ...] = tuple(_monomials_desc_lex(num_vars, degree))
        self._index = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self) -> int:
        return len(self.monomials)

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def index(self, exponents: Sequence[int]) -> int:
        return self._index[tuple(exponents)]

    def sum_index(self, left: Sequence[Exponents], right: Sequence[Exponents]) -> np.ndarray:
        """Index of u + v in this basis for u in ``left`` and v in ``right``,
        as an int64 array of shape (len(left), len(right))."""
        idx = self._index
        table = (idx[tuple(a + b for a, b in zip(u, v))] for u in left for v in right)
        size = len(left) * len(right)
        return np.fromiter(table, dtype=np.int64, count=size).reshape(len(left), len(right))

    def __contains__(self, exponents) -> bool:
        return tuple(exponents) in self._index


@lru_cache(maxsize=None)
def basis(num_vars: int, degree: int) -> MonomialBasis:
    """The (cached) monomial basis of the degree-``degree`` graded piece."""
    return MonomialBasis(num_vars, degree)


def graded_dimension(num_vars: int, degree: int) -> int:
    """dim of the degree-m piece: C(m + N - 1, m), without enumeration."""
    return comb(degree + num_vars - 1, degree)


class HomogeneousPoly:
    """A homogeneous polynomial as a dense vector over its monomial basis."""

    __slots__ = ("field", "num_vars", "degree", "coeffs")

    def __init__(self, field: FieldSpec, num_vars: int, degree: int, coeffs: Sequence[Scalar]):
        b = basis(num_vars, degree)
        if len(coeffs) != b.dim:
            raise PreconditionError(f"expected {b.dim} coefficients, got {len(coeffs)}")
        self.field = field
        self.num_vars = num_vars
        self.degree = degree
        self.coeffs = tuple(field.coerce(c) for c in coeffs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec, num_vars: int, degree: int) -> "HomogeneousPoly":
        return HomogeneousPoly(field, num_vars, degree, [field.zero()] * basis(num_vars, degree).dim)

    @staticmethod
    def from_terms(field: FieldSpec, num_vars: int, terms: dict[Exponents, Scalar], degree: int | None = None) -> "HomogeneousPoly":
        degrees = {sum(e) for e in terms}
        if len(degrees) > 1:
            raise PreconditionError(f"terms of mixed degrees {sorted(degrees)} are not homogeneous")
        if degree is None:
            if not degrees:
                raise PreconditionError("degree required for the empty term dict")
            degree = degrees.pop()
        elif degrees and degrees.pop() != degree:
            raise PreconditionError("terms do not match the stated degree")
        b = basis(num_vars, degree)
        coeffs = [field.zero()] * b.dim
        for e, c in terms.items():
            if len(e) != num_vars:
                raise PreconditionError(f"exponent tuple {e} has wrong arity")
            coeffs[b.index(e)] = field.add(coeffs[b.index(e)], field.coerce(c))
        return HomogeneousPoly(field, num_vars, degree, coeffs)

    @staticmethod
    def monomial(field: FieldSpec, exponents: Sequence[int], coeff: Scalar = 1, num_vars: int | None = None) -> "HomogeneousPoly":
        e = tuple(exponents)
        nv = num_vars if num_vars is not None else len(e)
        return HomogeneousPoly.from_terms(field, nv, {e: coeff})

    # -- structure -------------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, Scalar]]:
        b = basis(self.num_vars, self.degree)
        for e, c in zip(b.monomials, self.coeffs):
            if not self.field.is_zero(c):
                yield e, c

    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.num_vars == other.num_vars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"HomogeneousPoly({self.to_text()!r})"

    # -- arithmetic -------------------------------------------------------------

    def _check_compatible(self, other: "HomogeneousPoly") -> None:
        if self.field != other.field or self.num_vars != other.num_vars:
            raise PreconditionError("polynomials live in different rings")

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        self._check_compatible(other)
        if self.degree != other.degree:
            raise PreconditionError("cannot add pieces of different degrees")
        f = self.field
        return HomogeneousPoly(
            f, self.num_vars, self.degree, [f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        self._check_compatible(other)
        if self.degree != other.degree:
            raise PreconditionError("cannot subtract pieces of different degrees")
        f = self.field
        return HomogeneousPoly(
            f, self.num_vars, self.degree, [f.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def scale(self, c: Scalar) -> "HomogeneousPoly":
        f = self.field
        c = f.coerce(c)
        return HomogeneousPoly(f, self.num_vars, self.degree, [f.mul(c, a) for a in self.coeffs])

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
        for e, c in self.terms():
            v = c
            for x, k in zip(pt, e):
                for _ in range(k):
                    v = f.mul(v, x)
            total = f.add(total, v)
        return total

    # -- text form ----------------------------------------------------------------

    def to_text(self) -> str:
        parts: list[str] = []
        for e, c in self.terms():
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
    return HomogeneousPoly.from_terms(fld, f.num_vars, out, degree=f.degree + g.degree)


def partial_derivative(f: HomogeneousPoly, i: int) -> HomogeneousPoly:
    """d/dx_i; maps degree m to degree m-1 (constants map to the zero constant)."""
    if not 0 <= i < f.num_vars:
        raise PreconditionError(f"variable index {i} out of range")
    fld = f.field
    if f.degree == 0:
        return HomogeneousPoly.zero(fld, f.num_vars, 0)
    out: dict[Exponents, Scalar] = {}
    for e, c in f.terms():
        if e[i] == 0:
            continue
        new_e = e[:i] + (e[i] - 1,) + e[i + 1 :]
        out[new_e] = fld.mul(c, fld.coerce(e[i]))
    return HomogeneousPoly.from_terms(fld, f.num_vars, out, degree=f.degree - 1)


def euler_sum(f: HomogeneousPoly) -> HomogeneousPoly:
    """sum_i x_i * df/dx_i, which must equal deg(f) * f."""
    if f.degree == 0:
        return HomogeneousPoly.zero(f.field, f.num_vars, 0)
    total = HomogeneousPoly.zero(f.field, f.num_vars, f.degree)
    for i in range(f.num_vars):
        xi = HomogeneousPoly.monomial(f.field, tuple(1 if j == i else 0 for j in range(f.num_vars)))
        total = total + multiply(xi, partial_derivative(f, i))
    return total
