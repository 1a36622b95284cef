"""Classes whose rows sit only at large content, which the sampler never draws.

With Delta_0 = b_0^2 + 2*square(rep_0) for the primitive core of gamma = D*x,
three families over L = A1 have closed-form rows.  The lifting D*x + m*L has
content gcd(D, m), square D^2*square(x) + 2*D*m*pair(x, L) - 2*m^2 and
L-pairing D*pair(x, L) - 2*m, and it is valid for

* x = e1, isotropic (Delta_0 = 0): m = 0 and m = +-c for every c | D, so
  2*tau(D) + 1 rows;
* x = A3, pair(x, L) = 1 (Delta_0 = -3): m = 0 and m = D, both of content D;
* x = A5, orthogonal to L (Delta_0 = -4): m = 0 alone, a zero-weight wall.

The representative D*x + j*L counts the same liftings from k = m - j.
tests/test_walls.py walks every chamber of these classes for D <= 12.
"""

from math import gcd

from _oracles import brute_force_liftings
from k3dw import (
    BoundaryClass,
    RelativeClass,
    Vector,
    content,
    pair,
    square,
)
from k3dw.arith import divisors
from k3dw.relative import _lifting_rows

A1 = Vector.basis(0)
L = BoundaryClass(A1)
FAMILIES = (  # x and the offsets m of the valid liftings of D*x: e1, r, r'
    (Vector.basis(16), lambda D: [0, *divisors(D), *(-c for c in divisors(D))]),
    (Vector.basis(2), lambda D: [0, D]),
    (Vector.basis(4), lambda D: [0]),
)
DIVISIBILITIES = (1, 2, 3, 4, 5, 6, 12, 30, 210, 2**10, 3**6, 10**4)
SHIFTS = (0, -3, 5)


def sparse_classes(max_divisibility):
    """(gamma, its rows in closed form) over every family, D and shift."""
    for x, offsets in FAMILIES:
        sx, px = square(x), pair(x, A1)
        for D in DIVISIBILITIES:
            if D > max_divisibility:
                continue
            for j in SHIFTS:
                rows = sorted(
                    (m - j, gcd(D, m), D * D * sx + 2 * D * m * px - 2 * m * m, D * px - 2 * m)
                    for m in offsets(D)
                )
                yield RelativeClass(D * x + j * A1, L), rows


def test_sparse_rows_in_closed_form():
    for gamma, rows in sparse_classes(10**4):
        assert _lifting_rows(gamma) == rows


def test_sparse_rows_match_a_literal_scan():
    for gamma, rows in sparse_classes(10**3):
        window = max(abs(k) for k, *_ in rows) + 3
        literal = [
            (k, content(v), square(v), pair(A1, v))
            for k, v in brute_force_liftings(gamma, window=window)
        ]
        assert _lifting_rows(gamma) == literal
