"""Relative classes: quotient arithmetic, liftings, strong primitivity."""

import random
from fractions import Fraction

import pytest

from k3dw import (
    BoundaryClass,
    LatticeError,
    PeriodPoint,
    RelativeClass,
    ValidationError,
    Vector,
    divide,
    relative_divisibility,
    same_class,
    strongly_primitive,
    valid_liftings,
)
from k3dw import relative
from k3dw.arith import divisors
from k3dw.relative import _strongly_primitive_given_kernel
from k3dw.sampling import (
    random_boundary,
    random_lattice_vector,
    random_relative_class,
    seeded,
)

from _oracles import brute_force_liftings

A1, A3, A4, A5 = Vector.basis(0), Vector.basis(2), Vector.basis(3), Vector.basis(4)
E1, F1 = Vector.basis(16), Vector.basis(17)
E2, F2 = Vector.basis(18), Vector.basis(19)

L = BoundaryClass(A1)
PERIOD = PeriodPoint(re=E1 + F1, im=E2 + F2, boundary=L)


def rel(v):
    return RelativeClass(v, L)


def test_boundary_validation():
    BoundaryClass(A1)
    with pytest.raises(LatticeError):
        BoundaryClass(2 * A1)  # imprimitive
    with pytest.raises(LatticeError):
        BoundaryClass(E1)  # square 0
    with pytest.raises(LatticeError):
        BoundaryClass(E1 + F1)  # square 2


def test_same_class():
    assert same_class(A3, A3 + 5 * A1, L)
    assert same_class(A3, A3, L)
    assert not same_class(A3, A4, L)
    assert not same_class(A3, A3 + A1 + A4, L)
    assert rel(A3) == rel(A3 - 7 * A1)
    assert rel(A3) != rel(A4)
    assert hash(rel(A3)) == hash(rel(A3 + A1))
    rng = seeded(11)
    outcomes = set()
    for _ in range(200):
        boundary = random_boundary(rng)
        u = random_lattice_vector(rng, bound=3)
        k = rng.randint(-5, 5)
        assert same_class(u, u + k * boundary.L, boundary)
        v = u + k * boundary.L + rng.randint(0, 1) * random_lattice_vector(rng, 1)
        same = same_class(u, v, boundary)
        assert same == (RelativeClass(u, boundary) == RelativeClass(v, boundary))
        outcomes.add(same)
        half = u + Fraction(2 * k + 1, 2) * boundary.L
        with pytest.raises(ValidationError, match="representatives must be integral"):
            same_class(u, half, boundary)
    assert outcomes == {True, False}


def test_zero_class():
    assert rel(3 * A1).is_zero
    assert not rel(A3).is_zero
    with pytest.raises(ValidationError):
        relative_divisibility(rel(-2 * A1))


def test_relative_divisibility():
    assert relative_divisibility(rel(A3)) == 1
    assert relative_divisibility(rel(2 * A3)) == 2
    assert relative_divisibility(rel(A3 + 5 * A1)) == 1
    assert relative_divisibility(rel(6 * E1 + 4 * F2)) == 2
    # invariant under change of representative
    rng = random.Random(31)
    for _ in range(50):
        v = Vector([rng.randint(-4, 4) for _ in range(22)])
        if rel(v).is_zero:
            continue
        k = rng.randint(-10, 10)
        assert relative_divisibility(rel(v)) == relative_divisibility(rel(v + k * A1))


def test_divide():
    assert divide(rel(2 * A3), 2) == rel(A3)
    assert divide(rel(2 * A3), 1) == rel(2 * A3)
    assert divide(rel(6 * A3 + 5 * A1), 3) == rel(2 * A3)
    assert 2 * divide(rel(6 * A3), 2) == rel(6 * A3)
    with pytest.raises(ValidationError):
        divide(rel(2 * A3), 3)
    with pytest.raises(ValidationError):
        divide(rel(2 * A3), 0)
    with pytest.raises(ValidationError):
        divide(rel(Vector.zero()), 1)


def test_divide_names_a_divisor_that_does_not_divide():
    # checked before any division, so the error is not the lattice's own
    with pytest.raises(ValidationError) as e:
        divide(rel(6 * A3 + A1), 4)
    assert str(e.value) == "4 does not divide the class divisibility 6"
    assert type(e.value) is ValidationError


def test_divide_inherits_its_completion_coordinates():
    # gamma/d is built with its coordinates (0, q/d) seeded, not walked
    rng = seeded(21)
    for _ in range(24):
        boundary = random_boundary(rng)
        gamma = random_relative_class(rng, boundary, divisibility=rng.randint(1, 6))
        for d in divisors(relative_divisibility(gamma)):
            sub = divide(gamma, d)
            assert sub.completion_coords == relative._completion_coords(
                sub.representative, boundary
            )


def test_valid_liftings_worked_examples():
    assert valid_liftings(rel(A3)) == [(0, A3), (1, A3 + A1)]
    assert valid_liftings(rel(2 * A3)) == [(0, 2 * A3), (2, 2 * A3 + 2 * A1)]
    ks = [k for k, _ in valid_liftings(rel(E1))]
    assert ks == [-1, 0, 1]
    # a class whose discriminant is negative: no valid liftings at all
    assert valid_liftings(rel(A3 + A5)) == []


def test_valid_liftings_offsets_track_representative():
    base = valid_liftings(rel(A3))
    shifted = valid_liftings(rel(A3 + 3 * A1))
    assert [k for k, _ in shifted] == [k - 3 for k, _ in base]
    assert [v for _, v in shifted] == [v for _, v in base]


def test_valid_liftings_against_brute_force():
    rng = random.Random(32)
    for _ in range(60):
        v = Vector([rng.randint(-3, 3) for _ in range(22)])
        gamma = rel(v)
        if gamma.is_zero:
            continue
        assert valid_liftings(gamma) == brute_force_liftings(gamma, window=50)


def test_liftings_reflect_closure():
    # reflect in L maps the lifting set to itself, negating the L-pairing
    from k3dw import pair, reflect

    for gamma in (rel(A3), rel(2 * A3), rel(E1), rel(2 * E1), rel(A3 + E1 + F2)):
        vecs = {v for _, v in valid_liftings(gamma)}
        assert {reflect(v, A1) for v in vecs} == vecs
        negated = sorted(pair(A1, reflect(v, A1)) for v in vecs)
        assert negated == sorted(-pair(A1, v) for v in vecs)


def test_liftings_negate_with_class():
    for gamma in (rel(A3), rel(2 * E1), rel(A3 + 2 * E1 - F2)):
        direct = {v for _, v in valid_liftings(-gamma)}
        assert direct == {-v for _, v in valid_liftings(gamma)}


def test_strongly_primitive_examples():
    # charge-silent classes decompose trivially
    assert not strongly_primitive(rel(A4), PERIOD)
    assert not strongly_primitive(rel(2 * A3 + A4), PERIOD)
    # nonzero charge, silent residual available at k = 2
    assert not strongly_primitive(rel(2 * F1 + A4), PERIOD)
    # gcd of dual functionals is 1
    assert strongly_primitive(rel(F1 + A4), PERIOD)
    assert strongly_primitive(rel(F1), PERIOD)
    assert strongly_primitive(rel(E1 + 3 * F2), PERIOD)


def test_strongly_primitive_strict_flag():
    rng = random.Random(33)
    for _ in range(30):
        v = Vector([rng.randint(-3, 3) for _ in range(22)])
        gamma = rel(v)
        if gamma.is_zero:
            continue
        # a rational period leaves a nonzero silent sublattice, and then a
        # strongly primitive class is primitive in the quotient
        if strongly_primitive(gamma, PERIOD):
            assert relative_divisibility(gamma) == 1


def test_strongly_primitive_kernel_free_branch():
    # unreachable through rational periods: with no silent directions every
    # class is strongly primitive under the literal reading
    assert _strongly_primitive_given_kernel((2,) + (0,) * 20, [])
    assert _strongly_primitive_given_kernel((5, 10) + (0,) * 19, [])
    # one silent direction: divisibility of the image decides
    kernel = [[1] + [0] * 20]
    assert _strongly_primitive_given_kernel((7, 1) + (0,) * 19, kernel)
    assert not _strongly_primitive_given_kernel((7, 2) + (0,) * 19, kernel)
    assert not _strongly_primitive_given_kernel((7,) + (0,) * 20, kernel)


def test_strongly_primitive_validation():
    with pytest.raises(ValidationError):
        strongly_primitive(rel(Vector.zero()), PERIOD)
    other = BoundaryClass(A5)
    with pytest.raises(ValidationError):
        strongly_primitive(RelativeClass(A3, other), PERIOD)
    bad = PeriodPoint(re=E1 + F1, im=E1 + F1, boundary=L)
    with pytest.raises(ValidationError):
        strongly_primitive(rel(A3), bad)


def test_class_arithmetic_boundary_mismatch():
    other = BoundaryClass(A5)
    with pytest.raises(ValidationError):
        rel(A3) + RelativeClass(A3, other)
