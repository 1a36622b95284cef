"""Reduced closed Gromov-Witten invariants of K3 classes.

For a nonzero class beta with self-intersection beta^2 and content m (the
divisibility of beta in the lattice), the reduced genus-zero invariant is
the multiple-cover sum

    N(beta) = sum_{d | m} d^(-3) * G_{beta^2/(2 d^2) + 1},

where G is the Yau-Zaslow coefficient table and terms with a negative or
non-integer index vanish.  Every term is an integer over m^3, so the sum is
computed as the int m^3 * N(beta) (scaled_gw_profile) and divided once.  The
invariant depends only on the pair
(beta^2, m); this module follows the generic-deformation convention, where
that profile determines the count for every class of the given square and
content.

For d = content the top term G_{(beta/m)^2/2 + 1} is the primitive count, so
N(beta) > 0 exactly when the primitive reduction satisfies the rational-curve
bound (beta/m)^2 >= -2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import divisors
from .errors import ValidationError
from .lattice import Vector, content, square
from .series import SeriesTable, yz_coefficient


def scaled_gw_profile(
    beta_square: int, m: int, *, table: SeriesTable | None = None
) -> int:
    """m^3 * reduced_gw_profile(beta_square, m) for m >= 1, as an int: the sum
    over d | m with 2 d^2 | beta_square of (m/d)^3 * G_{beta_square/(2 d^2) + 1}."""
    total = 0
    for d in divisors(m):
        index, rest = divmod(beta_square, 2 * d * d)
        if not rest:
            total += (m // d) ** 3 * yz_coefficient(index + 1, table=table)
    return total


def reduced_gw_profile(
    beta_square: int, divisibility: int, *, table: SeriesTable | None = None
) -> Fraction:
    """Multiple-cover sum for a class of the given square and content."""
    if divisibility < 1:
        raise ValidationError(
            f"divisibility must be a positive integer, got {divisibility}"
        )
    return Fraction(
        scaled_gw_profile(beta_square, divisibility, table=table), divisibility**3
    )


def reduced_gw(beta: Vector, *, table: SeriesTable | None = None) -> Fraction:
    """Reduced genus-zero invariant of a nonzero integral class."""
    if not beta.is_integral:
        raise ValidationError("curve classes must be integral")
    m = content(beta)
    if m == 0:
        raise ValidationError("the zero class has no reduced invariant")
    return reduced_gw_profile(square(beta), m, table=table)


def two_divisible_check(beta: Vector, *, table: SeriesTable | None = None) -> Fraction:
    """Closed-form invariant G_{4g-3} + G_g / 8 for a class of content two.

    Here g = beta^2/8 + 1 is the arithmetic genus of the primitive half.
    Agrees with reduced_gw on every content-two class; kept as a separate
    route so the two can be checked against each other.
    """
    if not beta.is_integral:
        raise ValidationError("curve classes must be integral")
    if content(beta) != 2:
        raise ValidationError(
            f"this closed form needs a class of content 2, got content {content(beta)}"
        )
    g = square(beta) // 8 + 1  # beta = 2 * beta', beta'^2 even: 8 | beta^2
    return yz_coefficient(4 * g - 3, table=table) + Fraction(
        yz_coefficient(g, table=table), 8
    )


@dataclass(frozen=True)
class ClosedInvariant:
    """A (square, content) profile together with its invariant."""

    beta_square: int
    divisibility: int
    value: Fraction

    @classmethod
    def of(cls, beta: Vector, *, table: SeriesTable | None = None) -> "ClosedInvariant":
        value = reduced_gw(beta, table=table)  # validates beta first
        return cls(square(beta), content(beta), value)
