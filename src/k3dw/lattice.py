"""The K3 lattice and exact vector arithmetic on it.

The second integral cohomology of a K3 surface is the unique even unimodular
lattice of signature (3, 19).  We fix the basis

    coordinates  1..8   first E8 block, negated Cartan pairing
    coordinates  9..16  second E8 block, negated Cartan pairing
    coordinates 17..18, 19..20, 21..22   three hyperbolic planes U

(1-based in prose, 0-based in code).  E8 nodes follow the Bourbaki order:
the chain is 1-3-4-5-6-7-8 with node 2 hanging off node 4, so the negated
Cartan matrix has -2 on the diagonal and +1 exactly at the adjacent pairs.
A hyperbolic plane U pairs its two generators e, f by e.e = f.f = 0,
e.f = 1.

All arithmetic is exact: vector entries are ints or Fractions, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from numbers import Integral

from .arith import xgcd
from .errors import ConsistencyError, LatticeError

DIM = 22

# Negated E8 Cartan matrix, Bourbaki node order.  Written out in full so the
# pairing is pinned bit for bit.
_E8_NEG = (
    (-2, 0, 1, 0, 0, 0, 0, 0),
    (0, -2, 0, 1, 0, 0, 0, 0),
    (1, 0, -2, 1, 0, 0, 0, 0),
    (0, 1, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 1, -2, 1),
    (0, 0, 0, 0, 0, 0, 1, -2),
)

_U = ((0, 1), (1, 0))


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, entry in enumerate(row):
                rows[at + i][at + j] = entry
        at += len(b)
    return tuple(tuple(r) for r in rows)


GRAM = _block_diagonal(_E8_NEG, _E8_NEG, _U, _U, _U)

# sparse view of the Gram rows, used by the pairing hot path
_GRAM_NONZERO = tuple(
    tuple((j, g) for j, g in enumerate(row) if g) for row in GRAM
)


def gram_matrix() -> list[list[int]]:
    """A fresh mutable copy of the 22 x 22 Gram matrix."""
    return [list(row) for row in GRAM]


def _normalize_entry(x):
    if type(x) is int:  # the common case; skips the ABC checks below
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, Integral):
        return int(x)
    raise LatticeError(
        f"vector entries must be integers or Fractions, got {type(x).__name__}"
    )


class Vector:
    """An element of the K3 lattice, or of its rational span.

    Immutable and hashable.  Entries are ints where possible, Fractions
    otherwise.  Floats are rejected outright.

    >>> v = Vector.basis(0) + Vector.basis(2)
    >>> v.square()
    -2
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(_normalize_entry(x) for x in coords)
        if len(coords) != DIM:
            raise LatticeError(f"expected {DIM} coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @classmethod
    def zero(cls) -> "Vector":
        return cls((0,) * DIM)

    @classmethod
    def basis(cls, i: int) -> "Vector":
        """The i-th standard basis vector, 0-based."""
        if not 0 <= i < DIM:
            raise LatticeError(f"basis index out of range: {i}")
        return cls(tuple(1 if j == i else 0 for j in range(DIM)))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector(tuple(-a for a in self.coords))

    def __mul__(self, c) -> "Vector":
        c = _normalize_entry(c)
        return Vector(tuple(c * a for a in self.coords))

    __rmul__ = __mul__

    def exact_div(self, d: int) -> "Vector":
        """Divide by a nonzero integer, requiring every entry to stay integral."""
        if d == 0:
            raise LatticeError("division by zero")
        out = []
        for a in self.coords:
            q, r = divmod(a, d)
            if r:
                raise LatticeError(f"entry {a} is not divisible by {d}")
            out.append(q)
        return Vector(out)

    # -- predicates ---------------------------------------------------------

    @property
    def is_integral(self) -> bool:
        return all(isinstance(a, int) for a in self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self) -> str:
        return f"Vector({list(self.coords)!r})"

    # -- lattice operations as methods, delegating to module functions ------

    def square(self):
        return pair(self, self)

    def content(self) -> int:
        return content(self)


def pair(u: Vector, v: Vector):
    """The symmetric bilinear form of the K3 lattice.

    Exact; returns an int on integral input and a Fraction otherwise.

    >>> pair(Vector.basis(16), Vector.basis(17))
    1
    """
    uc, vc = u.coords, v.coords
    total = 0
    for i, nonzero in enumerate(_GRAM_NONZERO):
        ui = uc[i]
        if ui:
            for j, g in nonzero:
                total += ui * g * vc[j]
    return total


def square(v: Vector):
    """Self-pairing of a vector; always even on integral vectors."""
    return pair(v, v)


def gram_times(v: Vector) -> tuple:
    """Coordinates of the linear functional pair(. , v)."""
    return tuple(
        sum(g * v.coords[j] for j, g in nonzero) for nonzero in _GRAM_NONZERO
    )


def content(v: Vector) -> int:
    """gcd of the coordinates of an integral vector; 0 for the zero vector."""
    if not v.is_integral:
        raise LatticeError("content is defined for integral vectors only")
    return gcd(*v.coords)


def reflect(v: Vector, r: Vector) -> Vector:
    """Reflection of v in the hyperplane of a (-2)-vector r.

    v + pair(v, r) * r; an isometry of the lattice of order two.
    """
    if not r.is_integral:
        raise LatticeError("reflection vector must be integral")
    if square(r) != -2:
        raise LatticeError(f"reflection needs a vector of square -2, got {square(r)}")
    return v + pair(v, r) * r


@lru_cache(maxsize=128)
def _completion(coords: tuple) -> tuple[tuple, tuple]:
    """Extend a primitive integer vector to a Z-basis of the lattice.

    Returns (columns, inverse_rows): 22 basis columns with columns[0] equal
    to the input, and the rows of the inverse matrix, so that inverse_rows
    applied to the input gives the first standard basis vector.  Both are
    integer matrices with determinant +-1.

    The construction runs the extended Euclid step on the coordinate vector
    while mirroring each elementary operation on the basis and its inverse.
    """
    n = DIM
    a = list(coords)
    bcols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    urows = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    for j in range(1, n):
        if a[j] == 0:
            continue
        a0, aj = a[0], a[j]
        g, x, y = xgcd(a0, aj)
        p, q = a0 // g, aj // g
        b0, bj = bcols[0], bcols[j]
        bcols[0] = [p * s + q * t for s, t in zip(b0, bj)]
        bcols[j] = [-y * s + x * t for s, t in zip(b0, bj)]
        u0, uj = urows[0], urows[j]
        urows[0] = [x * s + y * t for s, t in zip(u0, uj)]
        urows[j] = [-q * s + p * t for s, t in zip(u0, uj)]
        a[0], a[j] = g, 0
    if a[0] < 0:
        a[0] = -a[0]
        bcols[0] = [-t for t in bcols[0]]
        urows[0] = [-t for t in urows[0]]
    if a[0] != 1:
        raise LatticeError(
            f"vector has content {a[0]}; basis extension needs a primitive vector"
        )
    if tuple(bcols[0]) != coords:
        raise ConsistencyError(f"basis completion lost its first column {coords}")
    return tuple(tuple(c) for c in bcols), tuple(tuple(r) for r in urows)


def extend_to_unimodular_basis(p: Vector) -> list[Vector]:
    """A Z-basis of the K3 lattice whose first member is the given vector.

    The input must be integral, nonzero, and primitive (content 1).  The
    change-of-basis matrix from the standard basis has determinant +-1.
    """
    if not p.is_integral:
        raise LatticeError("basis extension needs an integral vector")
    if p.is_zero:
        raise LatticeError("cannot extend the zero vector to a basis")
    cols, _ = _completion(p.coords)
    return [Vector(c) for c in cols]
