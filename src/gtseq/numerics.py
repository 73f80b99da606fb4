"""Exact-arithmetic helpers shared across the package.

Most maps in this package are rational functions plus k-th roots.  The
convention throughout is: arithmetic is polymorphic over the input types,
so passing `fractions.Fraction` values gives the exact-rational backend
and passing floats gives the ordinary 64-bit backend.  Where an exact
value is irrational (a k-th root), the root is either extracted exactly
(perfect powers) or carried symbolically via :class:`Scale`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Number = int | float | Fraction


def is_exact(x: Number) -> bool:
    return isinstance(x, (int, Fraction))


def as_fraction(x: Number) -> Fraction:
    """Exact conversion; floats map to their exact binary value."""
    return x if isinstance(x, Fraction) else Fraction(x)


def int_nth_root(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0, and whether it is exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in (0, 1) or k == 1:
        return n, True
    # Integer Newton iteration seeded above the root (n < 2^bits), so it only descends
    # to the floor root; a float seed can land below it past float precision.
    x = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * x + n // x ** (k - 1)) // k
        if nxt >= x:
            return x, x ** k == n
        x = nxt


def rational_root(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of x >= 0 if x is a perfect k-th power, else None."""
    if x < 0:
        raise DomainError(f"negative radicand {x} for {k}-th root")
    rn, okn = int_nth_root(x.numerator, k)
    if not okn:
        return None
    rd, okd = int_nth_root(x.denominator, k)
    if not okd:
        return None
    return Fraction(rn, rd)


def kth_root(x: Number, k: int) -> Number:
    """k-th root of x >= 0; exact Fraction when possible, float otherwise."""
    if isinstance(x, float):
        if x < 0:
            raise DomainError(f"negative radicand {x} for {k}-th root")
        return x ** (1.0 / k)
    xf = as_fraction(x)
    r = rational_root(xf, k)
    if r is not None:
        return r
    return float(xf) ** (1.0 / k)


def rational_pow(base: Fraction, exponent: Fraction) -> Fraction | None:
    """base**exponent as an exact Fraction when representable, else None."""
    if base <= 0:
        raise DomainError(f"nonpositive base {base} for rational power")
    if exponent.denominator == 1:
        return base ** exponent.numerator
    if base == 1:
        return Fraction(1)
    root = rational_root(base, exponent.denominator)
    if root is None:
        return None
    return root ** exponent.numerator


@dataclass(frozen=True)
class Scale:
    """Exact scalar of the form coeff * base**exponent with rational parts.

    Covers every multiplier arising from normalized affine powers
    (a0 + a.mu)^xi = a0^xi * (1 + (a/a0).mu)^xi.  Construction folds the
    power into `coeff` whenever it is exactly rational, so `base != 1`
    implies the radical part is genuinely irrational.
    """

    coeff: Fraction = Fraction(1)
    base: Fraction = Fraction(1)
    exponent: Fraction = Fraction(0)

    def __post_init__(self):
        coeff = as_fraction(self.coeff)
        base = as_fraction(self.base)
        exponent = as_fraction(self.exponent)
        if coeff == 0 or exponent == 0 or base == 1:
            base, exponent = Fraction(1), Fraction(0)
        else:
            exact = rational_pow(base, exponent)
            if exact is not None:
                coeff *= exact
                base, exponent = Fraction(1), Fraction(0)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    @property
    def is_rational(self) -> bool:
        return self.base == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coeff

    def radical_key(self) -> tuple[Fraction, Fraction]:
        return (self.base, self.exponent)

    def __float__(self) -> float:
        if self.is_rational:
            return float(self.coeff)
        return float(self.coeff) * float(self.base) ** float(self.exponent)

    def __mul__(self, other: "Scale | Number") -> "Scale":
        if not isinstance(other, Scale):
            return Scale(self.coeff * as_fraction(other), self.base, self.exponent)
        if other.is_rational:
            return Scale(self.coeff * other.coeff, self.base, self.exponent)
        if self.is_rational:
            return Scale(self.coeff * other.coeff, other.base, other.exponent)
        if self.base == other.base:
            return Scale(self.coeff * other.coeff, self.base, self.exponent + other.exponent)
        if self.exponent == other.exponent:
            return Scale(self.coeff * other.coeff, self.base * other.base, self.exponent)
        if self.exponent == -other.exponent:
            return Scale(self.coeff * other.coeff, self.base / other.base, self.exponent)
        raise ArithmeticError(f"cannot combine radical scales {self} and {other}")

    __rmul__ = __mul__

    def __neg__(self) -> "Scale":
        return Scale(-self.coeff, self.base, self.exponent)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"Scale({self.coeff})"
        return f"Scale({self.coeff} * {self.base}**{self.exponent})"


ONE = Scale()


def multinomial_coeff(total: int, parts: tuple[int, ...]) -> int:
    """Exact multinomial coefficient total! / prod(parts!) with sum(parts) == total."""
    rem = total
    out = 1
    for p in parts:
        out *= math.comb(rem, p)
        rem -= p
    return out
