"""Period points, central charges, and exact hyperkahler rotation.

A period point for a boundary class L is a holomorphic two-form written as
Omega = re + i*im with rational classes re, im subject to

    Omega . Omega = 0        (square(re) == square(im), pair(re, im) == 0)
    Omega . conj(Omega) > 0  (square(re) + square(im) > 0)
    Omega . L = 0            (the boundary class stays Lagrangian)

The central charge of a relative class gamma is Z = pair(rep, re) +
i*pair(rep, im), independent of the representative because L pairs to zero
with both parts.  Walls are loci where two charges align along a ray.

Rotation by an exact unit angle (c, s) with c^2 + s^2 = 1 produces the
Kahler data of the rotated complex structure:

    omega_theta = s*re - c*im,      Omega_theta = omega - i*(c*re + s*im),

and the twistor-family form at zeta on the unit circle matches it:

    Omega_zeta = -(i/(2*zeta))*Omega + omega - (i/2)*zeta*conj(Omega).

Everything is Fraction arithmetic; there is no floating point and hence no
phase tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    OMEGA_BOUNDARY,
    OMEGA_NORM,
    OMEGA_SQUARE,
    NormalizationError,
    PeriodError,
    ValidationError,
)
from .lattice import Vector, _Value, pair, square
from .relative import BoundaryClass, RelativeClass


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise ValidationError("floating point input is not accepted; use Fraction")
    return Fraction(x)


class GaussianRational(_Value):
    """A complex number with rational real and imaginary parts."""

    _fields = ("re", "im")

    def __init__(self, re=0, im=0):
        self.__dict__.update(re=_as_fraction(re), im=_as_fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_square(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm_square()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / n, -self.im / n)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero


class UnitAngle(_Value):
    """An exact point (c, s) on the rational unit circle."""

    _fields = ("c", "s")

    def __init__(self, c, s):
        c, s = _as_fraction(c), _as_fraction(s)
        if c * c + s * s != 1:
            raise ValidationError(f"({c}, {s}) is not on the unit circle")
        self.__dict__.update(c=c, s=s)

    @classmethod
    def from_parameter(cls, t) -> "UnitAngle":
        """Rational circle point via the tangent half-angle map.

        t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)); every rational circle point
        except (-1, 0) arises this way.
        """
        t = _as_fraction(t)
        d = 1 + t * t
        return cls((1 - t * t) / d, 2 * t / d)

    def as_complex(self) -> GaussianRational:
        return GaussianRational(self.c, self.s)


class PeriodPoint(_Value):
    """A rational period point Omega = re + i*im for a boundary class."""

    _fields = ("re", "im", "boundary")

    def __init__(self, re: Vector, im: Vector, boundary: BoundaryClass):
        self.__dict__.update(re=re, im=im, boundary=boundary)


def validate_period(s: PeriodPoint) -> PeriodPoint:
    """Check the three defining constraints, with distinct error codes.

    Order: the square-zero condition, then positivity of the norm, then
    orthogonality to the boundary class.  Returns the input unchanged.
    """
    sq_re, sq_im, cross = square(s.re), square(s.im), pair(s.re, s.im)
    if sq_re != sq_im or cross != 0:
        raise PeriodError(
            OMEGA_SQUARE,
            "Omega^2 != 0: need square(re) == square(im) and pair(re, im) == 0, "
            f"got squares ({sq_re}, {sq_im}) and cross pairing {cross}",
        )
    if sq_re + sq_im <= 0:
        raise PeriodError(
            OMEGA_NORM,
            f"Omega . conj(Omega) = {sq_re + sq_im} is not positive",
        )
    L = s.boundary.L
    if pair(s.re, L) != 0 or pair(s.im, L) != 0:
        raise PeriodError(
            OMEGA_BOUNDARY,
            "Omega must pair to zero with the boundary class, got "
            f"({pair(s.re, L)}, {pair(s.im, L)})",
        )
    return s


def central_charge(s: PeriodPoint, gamma: RelativeClass) -> GaussianRational:
    """Z(gamma) = pair(rep, re) + i*pair(rep, im); representative-independent."""
    validate_period(s)
    if gamma.boundary != s.boundary:
        raise ValidationError("period point and class have different boundary classes")
    rep = gamma.representative
    return GaussianRational(pair(rep, s.re), pair(rep, s.im))


def is_on_wall_pair(s: PeriodPoint, gamma1: RelativeClass, gamma2: RelativeClass) -> bool:
    """Whether two charges lie on a common ray from the origin.

    Exact test: with w = Z1 * conj(Z2), alignment means Im(w) == 0 and
    Re(w) > 0.  Both charges must be nonzero.
    """
    z1 = central_charge(s, gamma1)
    z2 = central_charge(s, gamma2)
    if z1.is_zero or z2.is_zero:
        raise ValidationError("wall test needs nonzero central charges")
    w = z1 * z2.conjugate()
    return w.im == 0 and w.re > 0


def wall_decompositions(
    s: PeriodPoint, gamma: RelativeClass, candidates
) -> list[RelativeClass]:
    """Candidate splittings gamma = gamma1 + gamma2 whose charges align.

    Scans a caller-supplied iterable of gamma1 candidates (the quotient is a
    rank-21 lattice, so any honest enumeration must be bounded by the
    caller).  Pairs where either part is zero or charge-silent are skipped;
    those are degenerations, not walls.
    """
    validate_period(s)
    found = []
    for gamma1 in candidates:
        gamma2 = gamma - gamma1
        if gamma1.is_zero or gamma2.is_zero:
            continue
        if central_charge(s, gamma1).is_zero or central_charge(s, gamma2).is_zero:
            continue
        if is_on_wall_pair(s, gamma1, gamma2):
            found.append(gamma1)
    return found


def _check_rotation_input(omega: Vector, s: PeriodPoint) -> None:
    validate_period(s)
    if pair(omega, s.re) != 0 or pair(omega, s.im) != 0:
        raise NormalizationError(
            "Kahler form must be orthogonal to both parts of Omega, got pairings "
            f"({pair(omega, s.re)}, {pair(omega, s.im)})"
        )
    if 2 * square(omega) != square(s.re) + square(s.im):
        raise NormalizationError(
            "Kahler form normalization 2*omega^2 == Omega . conj(Omega) failed: "
            f"{2 * square(omega)} != {square(s.re) + square(s.im)}"
        )


def rotate(
    omega: Vector, s: PeriodPoint, theta: UnitAngle
) -> tuple[Vector, tuple[Vector, Vector]]:
    """Hyperkahler rotation by an exact angle.

    Returns (omega_theta, (re_theta, im_theta)) with

        omega_theta = s*re - c*im          (the rotated Kahler form)
        Omega_theta = omega - i*(c*re + s*im)

    The input omega must be orthogonal to re and im and normalized by
    2*omega^2 = Omega . conj(Omega).  The output satisfies the same period
    constraints with omega_theta as the new Kahler direction.
    """
    _check_rotation_input(omega, s)
    c, sn = theta.c, theta.s
    omega_theta = sn * s.re - c * s.im
    new_im = -(c * s.re + sn * s.im)
    return omega_theta, (omega, new_im)


def twistor_form(
    omega: Vector, s: PeriodPoint, zeta: GaussianRational
) -> tuple[Vector, Vector]:
    """The twistor-family two-form at parameter zeta != 0.

    Omega_zeta = -(i/(2*zeta))*Omega + omega - (i/2)*zeta*conj(Omega),
    returned as (real part, imaginary part).  At zeta = c + i*s on the unit
    circle this equals the Omega_theta of rotate(); on the whole punctured
    plane it still squares to zero.
    """
    _check_rotation_input(omega, s)
    if zeta.is_zero:
        raise ValidationError("twistor parameter must be nonzero")
    half_i = GaussianRational(0, Fraction(1, 2))
    a = -half_i * zeta.inverse()
    b = -half_i * zeta
    re_part = a.re * s.re - a.im * s.im + omega + b.re * s.re + b.im * s.im
    im_part = a.re * s.im + a.im * s.re - b.re * s.im + b.im * s.re
    return re_part, im_part


def disc_angle_direction(s: PeriodPoint, gamma: RelativeClass) -> GaussianRational:
    """The special-Lagrangian disk direction i*Z(gamma).

    The returned d satisfies Im(conj(d) * Z) < 0, the side on which the
    holomorphic disk sits.  Requires a nonzero charge.
    """
    z = central_charge(s, gamma)
    if z.is_zero:
        raise ValidationError("disk direction needs a nonzero central charge")
    return GaussianRational(-z.im, z.re)
