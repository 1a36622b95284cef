"""Relative curve classes: the lattice modulo its rigid boundary class.

A boundary condition is a primitive (-2)-class L (a rigid rational curve; its
special-Lagrangian representative is unique, so relative classes need no
extra framing data).  Classes of disks ending on it live in the quotient
lattice by Z*L, and each relative class gamma has a fiber of liftings
gamma~ = representative + k*L back in the full lattice.

A lifting is *valid* when it supports honest holomorphic curves, i.e. when
its primitive reduction satisfies the rational-curve bound:

    square(gamma~) >= -2 * content(gamma~)^2.

Only finitely many liftings are valid: the left side is a downward parabola
in k while the right side is bounded below by -2*D^2, D the divisibility of
gamma in the quotient.  In L's completion basis rep + k*L has coordinates
(x0 + k, quotient coordinates), so its content is gcd(D, x0 + k), a divisor
of D, and the lifting rows are ints, with no Vector per candidate.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, isqrt

from .errors import LatticeError, ValidationError
from .intlinalg import integer_kernel, rational_kernel_integer_basis
from .lattice import Vector, _completion, _Value, content, pair, square


class BoundaryClass(_Value):
    """A primitive class of square -2, the boundary curve class."""

    _fields = ("L",)

    def __init__(self, L: Vector):
        if not L.is_integral:
            raise LatticeError("boundary class must be integral")
        if square(L) != -2:
            raise LatticeError(f"boundary class must have square -2, got {square(L)}")
        if content(L) != 1:
            raise LatticeError(
                f"boundary class must be primitive, got content {content(L)}"
            )
        self.__dict__["L"] = L


def _completion_coords(v: Vector, boundary: BoundaryClass) -> tuple[int, ...]:
    """(x0, quotient coordinates): the inverse of L's completion applied to v."""
    _, urows = _completion(boundary.L.coords)
    return tuple(sum(r * c for r, c in zip(row, v.coords)) for row in urows)


class RelativeClass(_Value):
    """A class in the quotient lattice, carried by an explicit representative.

    Two instances are equal when they have the same boundary and their
    representatives differ by an integer multiple of L.  Lifting offsets k
    are always counted from the instance's own representative.
    """

    _fields = ("representative", "boundary")

    def __init__(self, representative: Vector, boundary: BoundaryClass):
        if not representative.is_integral:
            raise ValidationError("relative classes must have integral representatives")
        self.__dict__.update(representative=representative, boundary=boundary)

    @cached_property  # reads only the frozen fields, so it never goes stale
    def completion_coords(self) -> tuple[int, ...]:
        return _completion_coords(self.representative, self.boundary)

    @cached_property
    def quotient_coords(self) -> tuple[int, ...]:
        return self.completion_coords[1:]

    @property
    def is_zero(self) -> bool:
        return not any(self.quotient_coords)

    def lifting(self, k: int) -> Vector:
        rep, L = self.representative.coords, self.boundary.L.coords
        return Vector(tuple(r + k * x for r, x in zip(rep, L)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelativeClass):
            return NotImplemented
        return (
            self.boundary == other.boundary
            and self.quotient_coords == other.quotient_coords
        )

    def __hash__(self) -> int:
        return hash((self.boundary.L.coords, self.quotient_coords))

    def __add__(self, other: "RelativeClass") -> "RelativeClass":
        self._require_same_boundary(other)
        return RelativeClass(self.representative + other.representative, self.boundary)

    def __sub__(self, other: "RelativeClass") -> "RelativeClass":
        self._require_same_boundary(other)
        return RelativeClass(self.representative - other.representative, self.boundary)

    def __neg__(self) -> "RelativeClass":
        return RelativeClass(-self.representative, self.boundary)

    def __mul__(self, c: int) -> "RelativeClass":
        return RelativeClass(c * self.representative, self.boundary)

    __rmul__ = __mul__

    def _require_same_boundary(self, other: "RelativeClass") -> None:
        if self.boundary != other.boundary:
            raise ValidationError("relative classes have different boundary classes")


def same_class(u: Vector, v: Vector, boundary: BoundaryClass) -> bool:
    """Whether two lattice vectors represent the same relative class."""
    d = u - v
    if not d.is_integral:
        raise ValidationError("representatives must be integral")
    return RelativeClass(d, boundary).is_zero


def relative_divisibility(gamma: RelativeClass) -> int:
    """Largest m with gamma = m * (integral class); error on the zero class."""
    qc = gamma.quotient_coords
    m = gcd(*qc)
    if m == 0:
        raise ValidationError("the zero relative class has no divisibility")
    return m


def divide(gamma: RelativeClass, d: int) -> RelativeClass:
    """The relative class gamma/d; d must divide the divisibility.

    Its representative is (rep - x0*L)/d: L is the first column of its
    completion basis, so rep - x0*L is the sum of q_i * column_i over the
    quotient coordinates q, and gamma/d inherits the coordinates (0, q/d).
    """
    if d < 1:
        raise ValidationError(f"divisor must be a positive integer, got {d}")
    x0, *qc = gamma.completion_coords
    m = gcd(*qc)
    if m == 0:
        raise ValidationError("cannot divide the zero relative class")
    if m % d:
        raise ValidationError(f"{d} does not divide the class divisibility {m}")
    sub = RelativeClass(gamma.lifting(-x0).exact_div(d), gamma.boundary)
    sub.__dict__["completion_coords"] = (0, *(c // d for c in qc))  # seeds the cache
    return sub


def _lifting_rows(gamma: RelativeClass) -> list[tuple[int, int, int, int]]:
    """(k, content, square, pair(L, .)) of each valid lifting rep + k*L, by k.

    Candidates k span an integer-square-root window of b^2 + 2*square(rep) +
    4*D^2 (b = pair(rep, L), D the divisibility) and each is tested exactly,
    so the window only needs to be safe, not sharp.
    """
    rep = gamma.representative
    D = relative_divisibility(gamma)
    x0 = gamma.completion_coords[0]
    sq0 = square(rep)
    b = pair(rep, gamma.boundary.L)
    disc = b * b + 2 * sq0 + 4 * D * D
    if disc < 0:
        return []
    s = isqrt(disc)
    rows = []
    for k in range((b - s) // 2 - 2, (b + s) // 2 + 3):
        c, sq = gcd(D, x0 + k), sq0 + 2 * b * k - 2 * k * k
        if sq >= -2 * c * c:
            rows.append((k, c, sq, b - 2 * k))
    return rows


def valid_liftings(gamma: RelativeClass) -> list[tuple[int, Vector]]:
    """(k, representative + k*L) for every valid lifting, sorted by k."""
    return [(k, gamma.lifting(k)) for k, _, _, _ in _lifting_rows(gamma)]


def _strongly_primitive_given_kernel(qgamma, kernel_rows) -> bool:
    """Core of the strong-primitivity test, on quotient coordinates.

    kernel_rows spans the (saturated) sublattice N of charge-silent classes.
    With N = 0 no decomposition gamma = k*gamma' + gamma'' with a nonzero
    silent part exists at all.  Only direct calls reach that case: a rational
    period point always leaves N nonzero, and then gamma = k*gamma' splits as
    k*(gamma' - n) + k*n for any nonzero n in N, so a strongly primitive class
    is primitive in the quotient.  Otherwise gamma is decomposable exactly
    when its image in the free quotient by N is divisible by some k >= 2 (or
    is zero), and that divisibility equals the gcd of a dual basis of the
    annihilator of N evaluated on gamma.
    """
    if not kernel_rows:
        return True
    annihilator = integer_kernel([list(r) for r in kernel_rows])
    if not annihilator:
        # N of full rank: the quotient by N is finite, so k*x = gamma is
        # solvable for any k prime to the order; never strongly primitive.
        return False
    dbar = gcd(*(sum(f * c for f, c in zip(phi, qgamma)) for phi in annihilator))
    return dbar == 1


def strongly_primitive(gamma: RelativeClass, period) -> bool:
    """Whether gamma admits no splitting k*gamma' + gamma'' (k >= 2) with
    gamma'' nonzero and charge-silent for the given period point."""
    from . import periods  # deferred; periods imports this module

    periods.validate_period(period)
    if period.boundary != gamma.boundary:
        raise ValidationError("period point and class have different boundary classes")
    if gamma.is_zero:
        raise ValidationError("strong primitivity applies to nonzero classes")
    basis = [Vector(c) for c in _completion(gamma.boundary.L.coords)[0][1:]]
    charge_rows = [
        [pair(b, period.re) for b in basis],
        [pair(b, period.im) for b in basis],
    ]
    kernel_rows = rational_kernel_integer_basis(charge_rows)
    return _strongly_primitive_given_kernel(gamma.quotient_coords, kernel_rows)
