"""Floor sums.

``floor_sum`` adds up the ceilings in a family's progression starts without
listing them: a hyperperiod age sum of either model takes one floor sum for
each i < a.
"""

from __future__ import annotations

__all__ = [
    "floor_sum",
]


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
