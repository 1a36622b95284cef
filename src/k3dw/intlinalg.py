"""Exact linear algebra over the integers and rationals.

Matrices are plain lists of lists.  Everything here is fraction-free or
Fraction-based; no floats enter at any point.  Sizes in this package are at
most 22 x 22, so cubic algorithms are plenty.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .arith import xgcd


def det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by the Bareiss algorithm."""
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            # pivot search keeps the algorithm fraction-free
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel {x in Z^n : A x = 0} of an m x n matrix.

    Row-reduces the transpose against an identity tag block with unimodular
    row operations; tag rows whose data part hits zero form a basis.  The
    returned list may be empty (trivial kernel).
    """
    m = len(rows)
    if m == 0:
        raise ValueError("need at least one row (the width is read off the rows)")
    n = len(rows[0])
    # work row i = [ (A e_i) | e_i ]; invariant: left block = A * right block
    work = [[rows[k][i] for k in range(m)] + [1 if j == i else 0 for j in range(n)]
            for i in range(n)]
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, n):
            b = work[i][c]
            if b == 0:
                continue
            a = work[r][c]
            g, x, y = xgcd(a, b)
            p, q = a // g, b // g
            rr, ri = work[r], work[i]
            for j in range(m + n):
                s, t = rr[j], ri[j]
                rr[j] = x * s + y * t
                ri[j] = -q * s + p * t
        r += 1
    return [row[m:] for row in work[r:]]


def clear_denominators(row) -> list[int]:
    """Scale a rational row by the positive lcm of denominators."""
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * scale) for f in fracs]


def rational_kernel_integer_basis(rows) -> list[list[int]]:
    """Integer basis of the rational kernel of a matrix with rational entries."""
    return integer_kernel([clear_denominators(r) for r in rows])


def symmetric_signature(rows) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric rational matrix.

    Diagonalizes by simultaneous row and column operations (congruence), so
    the counts are exact by Sylvester's law of inertia.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    for i in range(n):
        if any(a[i][j] != a[j][i] for j in range(n)):
            raise ValueError("matrix is not symmetric")
    pos = neg = zero = 0
    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                # a[j][j] = 0 here, so adding basis j to basis i gives
                # diagonal entry 2*a[i][j] != 0
                for t in range(n):
                    a[i][t] += a[j][t]
                for t in range(n):
                    a[t][i] += a[t][j]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if a[i][j] != 0:
                f = a[i][j] / d
                for t in range(n):
                    a[j][t] -= f * a[i][t]
                for t in range(n):
                    a[t][j] -= f * a[t][i]
    return pos, neg, zero
