"""Floored modular arithmetic and residue progressions.

Everything downstream reduces to two operations on integers: the floored
modulus ``x - floor(x/y)*y`` (what Python's ``%`` already does, spelled out
here so the convention is explicit and testable) and its complement
``ceil(x/y)*y - x``.  The progression helpers capture how a residue sequence
``k*X mod Y`` decomposes into arithmetic progressions; they are the building
blocks for the closed-form age distributions.  ``floor_sum`` adds up the
ceilings in a family's progression starts without listing them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "floor_mod",
    "comp_mod",
    "ceil_div",
    "floor_sum",
    "ArithmeticProgression",
    "Multiset",
    "residue_orbit",
    "ap_reduce_mod",
    "pairing_classes",
]

# A multiset of integers, stored value -> multiplicity.
Multiset = Counter


def floor_mod(x: int, y: int) -> int:
    """Floored modulus: x - floor(x/y)*y, always in [0, y). Requires y >= 1."""
    if y < 1:
        raise ValueError(f"modulus must be >= 1, got {y}")
    return x % y


def comp_mod(x: int, y: int) -> int:
    """Complementary modulus: ceil(x/y)*y - x, equal to (-x) mod y."""
    if y < 1:
        raise ValueError(f"modulus must be >= 1, got {y}")
    return (-x) % y


def ceil_div(x: int, y: int) -> int:
    """Exact ceiling division for integers, y >= 1."""
    if y < 1:
        raise ValueError(f"divisor must be >= 1, got {y}")
    return -((-x) // y)


def floor_sum(n: int, m: int, alpha: int, beta: int) -> int:
    """sum_{j<n} floor((alpha*j + beta)/m), exact, in O(log m) steps; n >= 0, m >= 1.

    Euclid-like: once 0 <= alpha, beta < m, the sum counts lattice points
    under a line, and swapping the axes turns it into a floor sum with
    modulus alpha (as ``floor_sum`` in the AtCoder Library).
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n = {n}, m = {m}")
    total = 0
    while n:
        q, alpha = divmod(alpha, m)
        total += q * (n * (n - 1) // 2)
        q, beta = divmod(beta, m)
        total += q * n
        top = alpha * n + beta
        if top < m:
            break
        n, beta = divmod(top, m)
        m, alpha = alpha, m
    return total


@dataclass(frozen=True)
class ArithmeticProgression:
    """The multiset <start, step, count> = {start + i*step : 0 <= i < count}."""

    start: int
    step: int
    count: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def elements(self) -> range:
        return range(self.start, self.start + self.step * self.count, self.step)

    def last(self) -> int:
        return self.start + self.step * (self.count - 1)

    def sum(self) -> int:
        return self.count * self.start + self.step * (self.count * (self.count - 1) // 2)

    def mean(self) -> Fraction:
        return Fraction(self.sum(), self.count)


def residue_orbit(x: int, y: int) -> Multiset:
    """Multiset {k*x mod y : 1 <= k <= y} for coprime x, y.

    Coprimality makes the orbit a permutation of {0, ..., y-1}; without it
    whole residue classes go missing, so non-coprime inputs are rejected.
    """
    if x < 1 or y < 1:
        raise ValueError("x and y must be >= 1")
    if gcd(x, y) != 1:
        raise ValueError(f"x and y must be coprime, got gcd {gcd(x, y)}")
    return Counter((k * x) % y for k in range(1, y + 1))


def ap_reduce_mod(y: int, x: int, big_x: int, negate: bool = False) -> ArithmeticProgression:
    """Reduce the progression <y, x, X> (or <-y, x, X>) modulo X*x.

    The result is <y mod x, x, X> (or, negated, <comp_mod(y, x), x, X>): as a
    multiset, shifting a full-length progression by y modulo X*x only moves
    its starting offset within [0, x).
    """
    if x < 1 or big_x < 1:
        raise ValueError("step and count must be >= 1")
    start = comp_mod(y, x) if negate else floor_mod(y, x)
    return ArithmeticProgression(start, x, big_x)


def pairing_classes(x: int, y: int) -> set[tuple[int, int]]:
    """Index pairs (i, j), 1 <= i <= x, 1 <= j <= y, with i = j (mod gcd(x, y)).

    Two cyclic index sequences of periods x and y co-occur at exactly these
    pairs over x*y/gcd(x, y) steps, each pair once.
    """
    if x < 1 or y < 1:
        raise ValueError("ranges must be >= 1")
    z = gcd(x, y)
    return {
        (i, j)
        for i in range(1, x + 1)
        for j in range(1, y + 1)
        if (i - j) % z == 0
    }
