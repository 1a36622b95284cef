"""Valid hyperplanes, chamber sums, wall-crossing, and BPS extraction.

Each valid lifting gamma~ of a relative class cuts the hyperplane
pair(kappa, gamma~) = 0 in the cone of Kahler classes kappa.  Off these
walls the reduced open invariant is the chamber sum

    open(gamma, kappa) = sum over valid liftings with pair(kappa, gamma~) > 0
                         of pair(L, gamma~) * reduced_gw(gamma~),

the symmetric convention: liftings pair up under reflection in L with equal
closed invariant and opposite L-pairing, so this equals the antisymmetrized
half-sum and the jump across a wall is

    delta = (sgn(pair(kappa1, gamma~)) - sgn(pair(kappa0, gamma~))) / 2
            * pair(L, gamma~) * reduced_gw(gamma~),

summed over walls, which telescopes along any chamber path.  The same
convention makes open(-gamma) = open(gamma) on the nose.

BPS numbers come out by stripping multiple covers:

    open(gamma, kappa) = sum_{d | D} d^(-2) * bps(gamma/d, kappa),

with D the divisibility of gamma.  bps_invariant computes the inversion of
this relation and, independently, the direct sum over liftings satisfying
the primitive curve bound square(gamma~) >= -2; the two must agree and be
an integer, else a ConsistencyError is raised.

Walls whose lifting pairs to zero with L carry weight zero; they are listed
(they are genuine boundaries) but never block a chamber evaluation.

Each public call reads gamma's valid liftings once, as relative._lifting_rows'
int rows (k, content = gcd(D, x0 + k), square, pair(L, .)) of rep + k*L.  The
series cap holds per class: it is decided once, before the series grows and
before any chamber is read, and the error names the first row in k order past
it.  One test decides kappa's chamber for every public call, chamber_check
included: the signs of pair(n * kappa, rep + k*L) on the rows.  Closed
invariants are computed on demand, memoized per profile.
d * (gamma/d)~ runs over exactly the liftings of gamma whose content d
divides, and validity, the side of every kappa and the L-pairing all scale by
d.  So gamma/d is read off the same table (its rows with d | content,
L-pairing, square and content divided by d, d^2 and d), and one table serves
chamber sum, crossing, both BPS routes for every divisor, and the
reconstruction.

The sums are exact ints until one division at the end.  A row's closed
invariant is kept as c^3 * reduced_gw (closed.scaled_gw_profile), and every
content of gamma/d divides D/d, so a chamber sum of gamma/d is an int over
(D/d)^3.  A rational kappa is decided through n * kappa, n the lcm of its
denominators: a positive multiple, so with an integral vector and the same
sign and zero of every pairing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import lcm

from .arith import divisors, mobius
from .closed import scaled_gw_profile
from .errors import ConsistencyError, OnWallError, ValidationError
from .lattice import Vector, pair, square
from .periods import validate_period
from .relative import RelativeClass, _lifting_rows, relative_divisibility
from .series import SeriesTable, default_table, yz_coefficient


@dataclass(frozen=True)
class KahlerVector:
    """A rational Kahler class kappa, kept as its coordinate vector."""

    coords: Vector


@dataclass(frozen=True)
class WallRecord:
    """One valid hyperplane: the lifting, its L-pairing, and its invariant."""

    k: int
    lifting: Vector
    pairing_with_L: int
    closed_invariant: Fraction


def _as_kahler(kappa) -> KahlerVector:
    if isinstance(kappa, KahlerVector):
        return kappa
    if isinstance(kappa, Vector):
        return KahlerVector(kappa)
    raise ValidationError(
        f"expected a KahlerVector or Vector, got {type(kappa).__name__}"
    )


def validate_kahler(
    kappa,
    boundary,
    *,
    period=None,
    allow_nonpositive_boundary: bool = False,
) -> KahlerVector:
    """Check the Kahler-vector invariants against a boundary class.

    square(kappa) > 0 always; pair(kappa, L) > 0 unless the caller opts out
    (chambers on the far side of the boundary wall are legitimate, but the
    default guards against accidental sign slips); and, when a period point
    is supplied, that it is valid (periods.validate_period), has the same
    boundary class, and pairs to zero with kappa in both parts (the (1,1)
    condition).
    """
    kappa = _as_kahler(kappa)
    _integral_kahler(kappa, boundary, period, allow_nonpositive_boundary)
    return kappa


def _integral_kahler(kappa, boundary, period, allow_nonpositive_boundary) -> Vector:
    """n * kappa for the lcm n of kappa's denominators, once validate_kahler's
    checks pass on it; the error messages print kappa's own values."""
    v = _as_kahler(kappa).coords
    n = lcm(*(x.denominator for x in v))
    w = v if n == 1 else Vector([x.numerator * (n // x.denominator) for x in v])
    if square(w) <= 0:
        raise ValidationError(f"Kahler class needs positive square, got {square(v)}")
    if pair(w, boundary.L) <= 0 and not allow_nonpositive_boundary:
        raise ValidationError(
            f"Kahler class pairs nonpositively ({pair(v, boundary.L)}) with the "
            "boundary class; pass allow_nonpositive_boundary=True if this chamber "
            "is intended"
        )
    if period is not None:
        validate_period(period)
        if period.boundary != boundary:
            raise ValidationError("period point and class have different boundary classes")
        if pair(w, period.re) != 0 or pair(w, period.im) != 0:
            raise ValidationError(
                "Kahler class must pair to zero with the period point, got "
                f"({pair(v, period.re)}, {pair(v, period.im)})"
            )
    return w


class _WallTable:
    """The valid liftings of one class as int rows, from one enumeration.

    The series cap is decided once for the class, before the series grows:
    the largest index any row reads is its d = 1 term square/2 + 1, and the
    first row in k order whose term is past both the cap and the series'
    order raises SeriesCapError.  Closed invariants are computed on demand.
    """

    def __init__(self, gamma: RelativeClass, series: SeriesTable | None):
        self.gamma, self.series = gamma, series
        self.D = relative_divisibility(gamma)
        self.rows = _lifting_rows(gamma)
        self.closed = cache(partial(scaled_gw_profile, table=series))  # c^3 * N
        (series or default_table())._reserve([sq // 2 + 1 for _, _, sq, _ in self.rows])

    def records(self) -> list[WallRecord]:
        """One WallRecord per row, sorted by offset k."""
        return [
            WallRecord(k, self.gamma.lifting(k), lp, Fraction(self.closed(sq, c), c**3))
            for k, c, sq, lp in self.rows
        ]

    def signs(self, w: Vector, shift: int = 0) -> list[bool]:
        """Whether pair(w, rep + kL) = p + k*q > 0, for every row, w = n * kappa.

        Raises OnWallError with the offsets k + shift of the weight-carrying
        walls kappa lies on.
        """
        p, q = pair(w, self.gamma.representative), pair(w, self.gamma.boundary.L)
        values = [p + k * q for k, _, _, _ in self.rows]
        on = [k + shift for (k, _, _, lp), v in zip(self.rows, values) if lp and not v]
        if on:
            raise OnWallError(on)
        return [v > 0 for v in values]

    def weighted(self, d: int, factors: list[int]) -> Fraction:
        """Sum of factor * pair(L, .) * closed invariant over the rows of gamma/d."""
        dd, m = d * d, self.D // d
        weights = Counter()  # per (square, content) profile of gamma/d
        for (_, c, sq, lp), f in zip(self.rows, factors):
            if f and lp and c % d == 0:
                weights[sq // dd, c // d] += f * lp // d
        # every content c of gamma/d divides m, so each term is an int over m^3
        total = sum(
            w * (m // c) ** 3 * self.closed(sq, c)
            for (sq, c), w in weights.items()
            if w
        )
        return Fraction(total, m**3)

    def bps(self, e: int, positive: list[bool], opens: dict) -> int:
        """bps(gamma/e) by both routes; opens[d] memoizes route (a)'s chamber
        sum open(gamma/d) across the caller's divisors."""
        by_inversion = Fraction(0)
        for d in divisors(self.D // e):
            mu = mobius(d)
            if mu:
                if e * d not in opens:
                    opens[e * d] = self.weighted(e * d, positive)
                by_inversion += Fraction(mu, d * d) * opens[e * d]
        ee = e * e
        direct = 0
        for (_, c, sq, lp), p in zip(self.rows, positive):
            if lp and p and c % e == 0 and sq >= -2 * ee:
                direct += lp // e * yz_coefficient(sq // ee // 2 + 1, table=self.series)
        if by_inversion != direct or by_inversion.denominator != 1:
            raise ConsistencyError(
                "BPS extraction disagrees: Mobius inversion gives "
                f"{by_inversion}, direct lifting sum gives {direct}"
            )
        return int(by_inversion)


def _chamber(gamma, kappa, period, allow_nonpositive_boundary, table, shift=0):
    """Validate kappa once, then gamma's wall table and kappa's flags in it."""
    w = _integral_kahler(kappa, gamma.boundary, period, allow_nonpositive_boundary)
    t = _WallTable(gamma, table)
    return t, t.signs(w, shift)


def valid_hyperplanes(
    gamma: RelativeClass, *, table: SeriesTable | None = None
) -> list[WallRecord]:
    """One WallRecord per valid lifting of gamma, sorted by offset k."""
    return _WallTable(gamma, table).records()


def chamber_check(
    gamma: RelativeClass,
    kappa,
    *,
    period=None,
    allow_nonpositive_boundary: bool = False,
    table: SeriesTable | None = None,
) -> list[WallRecord]:
    """Verify kappa avoids every weight-carrying wall of gamma.

    Decides kappa's chamber exactly as open_invariant does, and returns the
    wall records of gamma.  Raises OnWallError listing the offsets k of the
    violated walls; walls with pairing_with_L == 0 have weight zero and never
    raise.
    """
    t, _ = _chamber(gamma, kappa, period, allow_nonpositive_boundary, table)
    return t.records()


def open_invariant(
    gamma: RelativeClass,
    kappa,
    *,
    period=None,
    allow_nonpositive_boundary: bool = False,
    table: SeriesTable | None = None,
) -> Fraction:
    """Reduced open invariant of gamma in the chamber of kappa."""
    t, positive = _chamber(gamma, kappa, period, allow_nonpositive_boundary, table)
    return t.weighted(1, positive)


def crossing_delta(
    gamma: RelativeClass,
    kappa0,
    kappa1,
    *,
    period=None,
    allow_nonpositive_boundary: bool = False,
    table: SeriesTable | None = None,
) -> Fraction:
    """Total wall-crossing jump from the chamber of kappa0 to that of kappa1.

    Sum over walls of (sgn(pair(kappa1, gamma~)) - sgn(pair(kappa0, gamma~)))/2
    * pair(L, gamma~) * reduced_gw(gamma~).  Equals the difference of the two
    chamber sums, and is antisymmetric in its endpoints.
    """
    t, positive0 = _chamber(gamma, kappa0, period, allow_nonpositive_boundary, table)
    w1 = _integral_kahler(kappa1, gamma.boundary, period, allow_nonpositive_boundary)
    # a weight-carrying row is on neither wall, so (sgn1 - sgn0) / 2 = p1 - p0
    flips = [p1 - p0 for p0, p1 in zip(positive0, t.signs(w1))]
    return t.weighted(1, flips)


def bps_invariant(
    gamma: RelativeClass,
    kappa,
    *,
    period=None,
    allow_nonpositive_boundary: bool = False,
    table: SeriesTable | None = None,
) -> int:
    """The BPS integer of gamma in the chamber of kappa, computed twice.

    Route (a): Mobius inversion of the multiple-cover relation, i.e.
    sum_{d | D} mu(d) * d^(-2) * open(gamma/d, kappa).  Route (b): the direct
    sum over liftings gamma~ satisfying the primitive curve bound
    square(gamma~) >= -2 with pair(kappa, gamma~) > 0 of
    pair(L, gamma~) * G_{square(gamma~)/2 + 1}.  A chamber of gamma is a
    chamber of every gamma/d, so the inner evaluations cannot hit a wall.
    """
    t, positive = _chamber(gamma, kappa, period, allow_nonpositive_boundary, table)
    return t.bps(1, positive, {})


def _multiple_cover_terms(gamma, kappa, period, allow_nonpositive_boundary, table=None):
    """(D, {d: bps(gamma/d, kappa) for d | D}, open(gamma, kappa)), one table."""
    D = relative_divisibility(gamma)  # a zero class fails before kappa is read
    # on-wall offsets count from divide(gamma, 1)'s representative, rep - x0*L
    x0 = gamma.completion_coords[0]
    t, positive = _chamber(gamma, kappa, period, allow_nonpositive_boundary, table, x0)
    opens = {}  # route (a)'s chamber sums, shared by every divisor
    bps = {d: t.bps(d, positive, opens) for d in divisors(D)}
    return D, bps, opens[1]


def multiple_cover_reconstruction(
    gamma: RelativeClass,
    kappa,
    *,
    period=None,
    allow_nonpositive_boundary: bool = False,
    table: SeriesTable | None = None,
) -> Fraction:
    """sum_{d | D} d^(-2) * bps(gamma/d, kappa); equals open_invariant."""
    _, bps, _ = _multiple_cover_terms(
        gamma, kappa, period, allow_nonpositive_boundary, table
    )
    return sum((Fraction(b, d * d) for d, b in bps.items()), Fraction(0))
