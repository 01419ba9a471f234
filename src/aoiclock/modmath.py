"""Floored moduli and floor sums.

Everything downstream reduces to two operations on integers: the floored
modulus ``x - floor(x/y)*y`` (what Python's ``%`` already does, spelled out
here so the convention is explicit and testable) and its complement
``ceil(x/y)*y - x``.  ``floor_sum`` adds up the ceilings in a family's
progression starts without listing them.
"""

from __future__ import annotations

__all__ = [
    "floor_mod",
    "comp_mod",
    "floor_sum",
]


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
