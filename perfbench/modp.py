"""Independent output checks in plain Python integers mod p.

The benchmark checks every proof's public outputs against values it
computes itself.  This module does that arithmetic with Python's
unbounded integers and one final ``% P`` per result, sharing no code
with ``repro.field``, so a fault in the program's field arithmetic
cannot hide behind the check that is meant to catch it.
"""

from __future__ import annotations

from typing import Sequence

#: The Goldilocks prime 2^64 - 2^32 + 1.
P = (1 << 64) - (1 << 32) + 1


def matvec(matrix: Sequence[Sequence[int]], vec: Sequence[int]) -> list:
    """``matrix @ vec`` mod p, rows reduced once at the end."""
    if any(len(row) != len(vec) for row in matrix):
        raise ValueError("matvec dimension mismatch")
    return [sum(int(a) * int(b) for a, b in zip(row, vec)) % P for row in matrix]


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    """``sum(a[i] * b[i])`` mod p."""
    if len(a) != len(b):
        raise ValueError("dot length mismatch")
    return sum(int(x) * int(y) for x, y in zip(a, b)) % P


def fibonacci(k: int) -> int:
    """``F_k`` mod p with ``F_0 = 0``, ``F_1 = 1`` (fast doubling)."""

    def _fd(n: int) -> tuple:
        if n == 0:
            return 0, 1
        a, b = _fd(n >> 1)
        c = a * (2 * b - a) % P
        d = (a * a + b * b) % P
        return (d, (c + d) % P) if n & 1 else (c, d)

    return _fd(k)[0]
