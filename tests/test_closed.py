"""Closed reduced invariants: multiple-cover sums and the content-2 form."""

import random
from fractions import Fraction
from math import lcm

import pytest

from k3dw import (
    ClosedInvariant,
    ValidationError,
    Vector,
    reduced_gw,
    reduced_gw_profile,
    reflect,
    two_divisible_check,
    yz_coefficients,
)
from k3dw.closed import scaled_gw_profile

from _oracles import closed_oracle, divisor_list

A1, A3 = Vector.basis(0), Vector.basis(2)
A5 = Vector.basis(4)
E1, F1 = Vector.basis(16), Vector.basis(17)


def test_worked_values():
    assert reduced_gw(A3) == 1  # primitive, square -2
    assert reduced_gw(E1) == 24  # primitive, square 0
    assert reduced_gw(E1 + F1) == 324  # primitive, square 2
    assert reduced_gw(2 * A3) == Fraction(1, 8)  # double of a (-2)-class
    assert reduced_gw(2 * E1) == 27  # 24 + 24/8


def test_profile_grid_against_oracle():
    g = yz_coefficients(40)
    for m in range(1, 7):
        for sq in range(-2 * m * m, 41, 2):
            assert reduced_gw_profile(sq, m) == closed_oracle(sq, m, g), (sq, m)


def test_scaled_profile_against_oracle():
    # m^3 * N as an int, also on squares that 2 m^2 does not divide
    g = yz_coefficients(40)
    for m in range(1, 9):
        for sq in range(-2 * m * m - 8, 61, 2):
            value = scaled_gw_profile(sq, m)
            assert type(value) is int, (sq, m)
            assert value == m**3 * closed_oracle(sq, m, g), (sq, m)


def test_depends_only_on_square_and_content():
    rng = random.Random(21)
    roots = [A1, Vector.basis(5), E1 - F1, Vector.basis(18) - Vector.basis(19)]
    for _ in range(50):
        v = Vector([rng.randint(-5, 5) for _ in range(22)])
        if v.is_zero:
            continue
        w = v
        for _ in range(4):
            w = reflect(w, rng.choice(roots))
        assert reduced_gw(v) == reduced_gw(w)
        assert reduced_gw(-v) == reduced_gw(v)


def test_positivity_criterion():
    # positive exactly when the primitive reduction has square >= -2
    assert reduced_gw_profile(-2, 1) > 0
    assert reduced_gw_profile(-4, 1) == 0
    assert reduced_gw_profile(-8, 2) > 0
    assert reduced_gw_profile(-12, 2) == 0
    assert reduced_gw_profile(-18, 3) > 0
    assert reduced_gw_profile(-20, 3) == 0


def test_denominator_bound():
    rng = random.Random(22)
    for _ in range(100):
        m = rng.randint(1, 8)
        sq = 2 * rng.randint(-m * m, 20)
        value = reduced_gw_profile(sq, m)
        bound = lcm(*(d**3 for d in divisor_list(m)))
        assert (value * bound).denominator == 1


def test_two_divisible_matches_multiple_cover():
    rng = random.Random(23)
    for _ in range(60):
        v = Vector([rng.randint(-4, 4) for _ in range(22)])
        if v.is_zero:
            continue
        beta = 2 * v.exact_div(v.content())
        assert two_divisible_check(beta) == reduced_gw(beta)


def test_two_divisible_worked_values():
    assert two_divisible_check(2 * E1) == 27
    assert two_divisible_check(2 * A3) == Fraction(1, 8)


def test_two_divisible_rejects_other_content():
    with pytest.raises(ValidationError):
        two_divisible_check(A3)
    with pytest.raises(ValidationError):
        two_divisible_check(3 * A3)


def test_input_validation():
    with pytest.raises(ValidationError):
        reduced_gw(Vector.zero())
    with pytest.raises(ValidationError):
        reduced_gw(Fraction(1, 2) * A1)
    with pytest.raises(ValidationError):
        reduced_gw_profile(-2, 0)


def test_closed_invariant_record():
    inv = ClosedInvariant.of(2 * A3)
    assert (inv.beta_square, inv.divisibility, inv.value) == (-8, 2, Fraction(1, 8))
    with pytest.raises(ValidationError, match="^curve classes must be integral$"):
        ClosedInvariant.of(Fraction(1, 2) * A1)
    with pytest.raises(ValidationError, match="^the zero class has no reduced invariant$"):
        ClosedInvariant.of(Vector.zero())
