"""Small exact linear algebra over Q on plain nested lists of Fractions.

Shared by the conjugation generator and the answer checker.  It imports
nothing from ``superweyl`` on purpose: both use it to confirm the
program's inputs and outputs by a route of their own.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def q(text) -> Fraction:
    """Parse a rational as the problem and report files write it."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ValueError(f"expected a rational string, got {text!r}")
    return Fraction(text)


def parse_matrix(obj) -> list[list[Fraction]]:
    return [[q(x) for x in row] for row in obj]


def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def standard_omega(dim: int) -> list[list[Fraction]]:
    m = dim // 2
    return [[ONE if j == i + m else -ONE if i == j + m else ZERO for j in range(dim)]
            for i in range(dim)]


def mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), ZERO) for j in range(cols)]
            for i in range(len(a))]


def add(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def scale(c, a):
    return [[c * x for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def zeros(rows: int, cols: int):
    return [[ZERO] * cols for _ in range(rows)]


def inverse(a):
    """Gauss-Jordan inverse; raises ``ZeroDivisionError`` when singular."""
    n = len(a)
    aug = [list(a[i]) + identity(n)[i] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError(f"singular matrix: no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = ONE / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def determinant(a) -> Fraction:
    """Determinant by fraction-exact elimination with row swaps."""
    m = [list(row) for row in a]
    n = len(m)
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det
