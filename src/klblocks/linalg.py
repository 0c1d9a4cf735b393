"""Small exact linear algebra over Fraction.

Everything here works on lists of lists of Fractions and uses plain
Gaussian elimination with first-nonzero pivoting, so results are
deterministic.  Matrix sizes in this package stay under ~50x50.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["rref", "rank", "solve"]

Matrix = list[list[Fraction]]


def _copy(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = _copy(rows)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def solve(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """One exact solution of rows * x = rhs, or None if inconsistent.

    Underdetermined systems get the particular solution with zeros in
    all free columns, which makes the choice deterministic.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x

