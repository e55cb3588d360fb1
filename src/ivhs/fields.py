"""Exact coefficient fields: the rationals and prime fields F_p.

A FieldSpec is a value object naming the field every matrix and polynomial
in this package is defined over.  Rational arithmetic uses
:class:`fractions.Fraction`; prime-field arithmetic uses Python ints reduced
into ``[0, p)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]

# Moduli are capped so that (p-1)^2 fits comfortably in int64 products and
# single products are exact in float64.
MAX_MODULUS = 2**31


def is_prime(m: int) -> bool:
    """Deterministic primality test by trial division (moduli are < 2^31)."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """An exact field: ``FieldSpec.rationals()`` or ``FieldSpec.prime(p)``."""

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "rationals":
            if self.modulus is not None:
                raise ValueError("rational field takes no modulus")
        elif self.kind == "prime":
            p = self.modulus
            if p is None or p <= 2 or p >= MAX_MODULUS or not is_prime(p):
                raise ValueError(
                    f"modulus must be an odd prime in (2, 2^31), got {p!r}"
                )
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("rationals")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime", p)

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime"

    # -- scalar arithmetic ------------------------------------------------

    def coerce(self, x: Scalar) -> Scalar:
        """Canonical representative of ``x`` in this field.

        Over F_p, rationals with denominator coprime to p are accepted
        (denominator inverted mod p).
        """
        if self.kind == "prime":
            p = self.modulus
            if isinstance(x, Fraction):
                num, den = x.numerator, x.denominator
                if den % p == 0:
                    raise ZeroDivisionError(f"denominator divisible by {p}")
                return (num * pow(den, p - 2, p)) % p
            return int(x) % p
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    def zero(self) -> Scalar:
        return 0 if self.kind == "prime" else Fraction(0)

    def one(self) -> Scalar:
        return 1 if self.kind == "prime" else Fraction(1)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        if self.kind == "prime":
            return (a + b) % self.modulus
        return a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        if self.kind == "prime":
            return (a - b) % self.modulus
        return a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        if self.kind == "prime":
            return (a * b) % self.modulus
        return a * b


#: Default prime used across the package and the CLI.
DEFAULT_PRIME = 10007

QQ = FieldSpec.rationals()


def default_prime_field() -> FieldSpec:
    return FieldSpec.prime(DEFAULT_PRIME)
