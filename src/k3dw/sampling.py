"""Seeded random instances: vectors, roots, classes, periods, chambers.

Distributions are documented here once and relied on by the check suites:

* lattice vectors draw each coordinate uniformly from [-10, 10], resampling
  the zero vector; primitive vectors divide out the content afterwards;
* (-2)-roots start from a pool of simple roots (the sixteen E8 nodes and
  e_j - f_j in each hyperbolic plane) and walk through a few random
  reflections, which preserve square and content;
* boundary classes walk inside the two E8 blocks only, so the hyperbolic
  planes stay orthogonal to L and can seed period points;
* period triples apply a rational SO(3) matrix (integer quaternion, Cayley
  style) to the three positive classes e_j + f_j, then a few reflections by
  roots orthogonal to L; this reaches non-block periods while keeping every
  constraint exact;
* Kahler representatives of a chamber meet the two pairing conditions with
  a prescribed threshold by Cramer's rule on two coordinates (the solution
  Gauss-Jordan gives with every free coordinate zero), then add a
  positive-square correction from the orthogonal positive 3-space until
  square(kappa) > 0.

Everything takes an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ConsistencyError, ValidationError
from .intlinalg import rational_kernel_integer_basis
from .lattice import DIM, Vector, content, gram_times, pair, reflect, square
from .periods import PeriodPoint, UnitAngle
from .relative import (
    BoundaryClass,
    RelativeClass,
    _lifting_rows,
    divide,
    relative_divisibility,
)
from .walls import KahlerVector

# simple-root pool: 16 E8 nodes, then e_j - f_j of the three U blocks
_E8_POOL = tuple(Vector.basis(i) for i in range(16))
_U_POOL = tuple(
    Vector.basis(16 + 2 * j) - Vector.basis(17 + 2 * j) for j in range(3)
)
ROOT_POOL = _E8_POOL + _U_POOL

# the standard positive-definite 3-space: e_j + f_j, mutually orthogonal,
# each of square 2, orthogonal to both E8 blocks
POSITIVE_TRIPLE = tuple(
    Vector.basis(16 + 2 * j) + Vector.basis(17 + 2 * j) for j in range(3)
)


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def random_lattice_vector(rng: random.Random, bound: int = 10) -> Vector:
    while True:
        v = Vector(tuple(rng.randint(-bound, bound) for _ in range(DIM)))
        if not v.is_zero:
            return v


def random_primitive_vector(rng: random.Random) -> Vector:
    v = random_lattice_vector(rng)
    return v.exact_div(content(v))


def random_root(
    rng: random.Random,
    *,
    pool=ROOT_POOL,
    orthogonal_to: Vector | None = None,
    steps: int = 4,
) -> Vector:
    """A (-2)-vector: a reflection walk from the simple-root pool.

    With orthogonal_to set, both the start and the reflecting roots are
    restricted to that vector's orthogonal complement, so the result stays
    orthogonal too.
    """
    if orthogonal_to is not None:
        pool = [r for r in pool if pair(r, orthogonal_to) == 0]
        if not pool:
            raise ValidationError("no pool roots orthogonal to the constraint")
    v = rng.choice(pool)
    for _ in range(steps):
        v = reflect(v, rng.choice(pool))
    return v


def random_boundary(rng: random.Random) -> BoundaryClass:
    """A boundary class inside the E8 blocks (keeps the U planes free)."""
    return BoundaryClass(random_root(rng, pool=_E8_POOL))


def random_relative_class(
    rng: random.Random,
    boundary: BoundaryClass,
    *,
    divisibility: int = 1,
    with_liftings: bool = True,
) -> RelativeClass:
    """A relative class of exactly the requested divisibility.

    A class admits valid liftings exactly when its primitive core gamma_0
    satisfies 2*square(rep_0) + pair(rep_0, L)^2 >= -3 (the projection of
    rep_0 away from L then clears the curve bound at the nearest integer
    offset).  Uniform small vectors essentially never do: their squares are
    dominated by the negative-definite root blocks, and every downstream
    invariant of such a class vanishes.  With with_liftings=True (default)
    the sample is pushed along a random hyperbolic direction, which raises
    the square past the bound while keeping entries small; pass False to get
    the raw distribution, liftings or not.
    """
    if divisibility < 1:
        raise ValidationError(f"divisibility must be positive, got {divisibility}")
    # resample until the quotient class is nonzero
    while True:
        v = Vector(tuple(rng.randint(-3, 3) for _ in range(DIM)))
        gamma = RelativeClass(v, boundary)
        if not gamma.is_zero:
            break
    primitive = divide(gamma, relative_divisibility(gamma)).representative
    if with_liftings:
        j = rng.randrange(3)
        u = (rng.randint(1, 3) * Vector.basis(16 + 2 * j)
             + rng.randint(1, 3) * Vector.basis(17 + 2 * j))
        target = 2 * rng.randint(0, 6) - 3
        step = 1
        while 2 * square(primitive) + pair(primitive, boundary.L) ** 2 < target:
            gamma = RelativeClass(gamma.representative + step * u, boundary)
            step *= 2
            primitive = divide(gamma, relative_divisibility(gamma)).representative
    rep = divisibility * primitive
    # random representative shift exercises representative independence
    rep = rep + rng.randint(-2, 2) * boundary.L
    gamma = RelativeClass(rep, boundary)
    if (drawn := relative_divisibility(gamma)) != divisibility:
        raise ConsistencyError(f"drew divisibility {drawn}, want {divisibility}")
    return gamma


def rational_rotation(rng: random.Random) -> list[list[Fraction]]:
    """A random rational SO(3) matrix from an integer quaternion."""
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        n = a * a + b * b + c * c + d * d
        if n:
            break
    return [
        [
            Fraction(a * a + b * b - c * c - d * d, n),
            Fraction(2 * (b * c - a * d), n),
            Fraction(2 * (b * d + a * c), n),
        ],
        [
            Fraction(2 * (b * c + a * d), n),
            Fraction(a * a - b * b + c * c - d * d, n),
            Fraction(2 * (c * d - a * b), n),
        ],
        [
            Fraction(2 * (b * d - a * c), n),
            Fraction(2 * (c * d + a * b), n),
            Fraction(a * a - b * b - c * c + d * d, n),
        ],
    ]


def _rotated_triple(rng: random.Random, boundary: BoundaryClass):
    """Three pairwise-orthogonal square-equal positive vectors, all
    orthogonal to the boundary class, with exact rational entries."""
    rot = rational_rotation(rng)
    scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    vecs = []
    for row in rot:
        v = Vector.zero()
        for coeff, base in zip(row, POSITIVE_TRIPLE):
            if coeff:
                v = v + (scale * coeff) * base
        vecs.append(v)
    for _ in range(3):
        r = random_root(rng, orthogonal_to=boundary.L, steps=2)
        vecs = [reflect(v, r) for v in vecs]
    return vecs


def random_period(rng: random.Random, boundary: BoundaryClass) -> PeriodPoint:
    re, im, _ = _rotated_triple(rng, boundary)
    return PeriodPoint(re=re, im=im, boundary=boundary)


def random_rotation_instance(rng: random.Random, boundary: BoundaryClass):
    """(omega, period) with omega a correctly normalized Kahler direction."""
    re, im, omega = _rotated_triple(rng, boundary)
    return omega, PeriodPoint(re=re, im=im, boundary=boundary)


def random_unit_angle(rng: random.Random) -> UnitAngle:
    t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    return UnitAngle.from_parameter(t)


def chamber_threshold(rng: random.Random, gamma: RelativeClass) -> Fraction:
    """A half-integer threshold t; the chamber is {k > t} among liftings.

    Half-integers never collide with the integer wall offsets, so the
    resulting Kahler class is never on a wall of gamma (nor of any gamma/d).
    """
    rows = _lifting_rows(gamma)
    if rows:
        lo, hi = rows[0][0], rows[-1][0]
    else:
        lo = hi = 0
    m = rng.randint(lo - 2, hi + 1)
    return Fraction(2 * m + 1, 2)


def kahler_in_chamber(
    rng: random.Random,
    gamma: RelativeClass,
    threshold: Fraction,
    *,
    boundary_pairing: int = 1,
) -> KahlerVector:
    """A Kahler class with pair(kappa, rep + k*L) = B*(k - threshold).

    B = boundary_pairing = pair(kappa, L); with B > 0 the kappa-positive
    liftings are exactly those with k > threshold, with B < 0 those with
    k < threshold.

    The two conditions pair(kappa, rep) = -threshold*B and pair(kappa, L) = B
    are rows a = G*rep and b = G*L.  They are independent unless gamma is
    zero (rep a multiple of L).  The base solution is nonzero only at i, the
    first coordinate where a or b is nonzero, and j, the first later one where
    a_i*b_j != a_j*b_i, and is found there by Cramer's rule.  Then enough of
    a positive direction orthogonal to both rep and L is added to make
    square(kappa) positive (such a direction always exists: the positive
    3-space cannot intersect a corank-2 subspace trivially).

    rng is not read: kappa is a pure function of gamma, the threshold and B.
    The parameter stays because its callers pass it: the check suites, the
    equivalence probe and the benchmark's workloads.
    """
    if boundary_pairing == 0:
        raise ValidationError("boundary pairing must be nonzero")
    if gamma.is_zero:
        raise ValidationError("the zero relative class has no chambers")
    rep = gamma.representative
    L = gamma.boundary.L
    a, b = gram_times(rep), gram_times(L)
    p, q = -threshold * boundary_pairing, boundary_pairing
    i = next(i for i in range(DIM) if a[i] or b[i])
    j = next(j for j in range(i + 1, DIM) if a[i] * b[j] != a[j] * b[i])
    det = a[i] * b[j] - a[j] * b[i]
    coords = [0] * DIM
    coords[i] = Fraction(p * b[j] - a[j] * q, det)
    coords[j] = Fraction(a[i] * q - p * b[i], det)
    base = Vector(coords)
    # positive direction within span(e_j + f_j) orthogonal to rep and L
    constraint = [
        [pair(v, rep) for v in POSITIVE_TRIPLE],
        [pair(v, L) for v in POSITIVE_TRIPLE],
    ]
    kernel = rational_kernel_integer_basis(constraint)
    coeffs = kernel[0]
    w = Vector.zero()
    for c, v in zip(coeffs, POSITIVE_TRIPLE):
        if c:
            w = w + c * v
    if square(w) <= 0:  # else the doubling below never ends
        raise ConsistencyError(f"positive direction {w!r} has square {square(w)}")
    lam = 1
    while square(base + lam * w) <= 0:
        lam *= 2
    return KahlerVector(base + lam * w)
