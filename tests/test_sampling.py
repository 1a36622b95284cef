"""The sampler's Kahler draw: pinned classes and its two pairing conditions.

Every value net downstream records invariants only, and any kappa in the
same chamber gives the same invariants, so the draws are pinned here.
"""

from fractions import Fraction as F

import pytest

from k3dw import (
    BoundaryClass,
    KahlerVector,
    RelativeClass,
    ValidationError,
    Vector,
    pair,
    sampling,
    square,
)

A1, A3, E1 = Vector.basis(0), Vector.basis(2), Vector.basis(16)

# (divisibility, boundary pairing, threshold, kappa's nonzero coordinates),
# drawn in turn from seeded(2026)
SEEDED_DRAWS = [
    (1, 1, F(17, 2), {0: F(19, 10), 1: -1, 18: 4, 19: 4}),
    (2, -1, F(15, 2), {0: F(-1, 4), 8: F(1, 2), 16: -17, 17: -17, 18: 1, 19: 1}),
    (3, 2, F(63, 2), {0: F(-107, 3), 14: -2, 16: 2, 17: 2, 18: 42, 19: 42}),
    (6, -3, F(-11, 2), {0: F(15, 4), 8: F(3, 2), 16: -15, 17: -15, 18: 1, 19: 1}),
]


def nonzero(kappa: KahlerVector) -> dict:
    return {i: x for i, x in enumerate(kappa.coords.coords) if x}


def test_seeded_kahler_draws_are_pinned():
    rng = sampling.seeded(2026)
    for D, B, threshold, want in SEEDED_DRAWS:
        boundary = sampling.random_boundary(rng)
        gamma = sampling.random_relative_class(rng, boundary, divisibility=D)
        assert sampling.chamber_threshold(rng, gamma) == threshold
        kappa = sampling.kahler_in_chamber(rng, gamma, threshold, boundary_pairing=B)
        assert nonzero(kappa) == want


def test_hand_made_kahler_draws_are_pinned():
    L = BoundaryClass(A1)
    rng = sampling.seeded(0)
    # pair(., E1) vanishes on the first coordinate, so L alone sets it
    kappa = sampling.kahler_in_chamber(rng, RelativeClass(E1, L), F(1, 2))
    assert nonzero(kappa) == {0: F(-1, 2), 17: F(-1, 2), 18: 1, 19: 1}
    kappa = sampling.kahler_in_chamber(
        rng, RelativeClass(3 * A3 + 2 * A1, L), F(-7, 2), boundary_pairing=-2
    )
    assert nonzero(kappa) == {0: F(5, 3), 2: F(4, 3), 16: 2, 17: 2}


def test_kahler_draws_meet_both_pairing_conditions():
    for seed in range(30):
        rng = sampling.seeded(seed)
        boundary = sampling.random_boundary(rng)
        gamma = sampling.random_relative_class(rng, boundary, divisibility=1 + seed % 6)
        for B in (1, -1, 3, -2):
            for threshold in (sampling.chamber_threshold(rng, gamma), F(rng.randint(-9, 9))):
                kappa = sampling.kahler_in_chamber(rng, gamma, threshold, boundary_pairing=B)
                v = kappa.coords
                assert pair(v, gamma.representative) == -threshold * B
                assert pair(v, boundary.L) == B
                assert square(v) > 0


def test_the_zero_class_has_no_kahler_draw():
    # rep = c*L makes the two pairing conditions dependent, and at
    # threshold -c consistent, so the guard comes before the solve
    L = BoundaryClass(A1)
    for c in (0, 2, -1):
        gamma = RelativeClass(c * A1, L)
        for threshold in (F(-c), F(1, 2)):
            with pytest.raises(ValidationError, match="zero relative class"):
                sampling.kahler_in_chamber(sampling.seeded(0), gamma, threshold)
