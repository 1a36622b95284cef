"""End-to-end acceptance gates.

Each test here pins one advertised guarantee of the library at full sample
size: exact golden values, law-level identities on seeded random instances,
and agreement between independent computation routes.  Everything is exact
arithmetic; there are no tolerances anywhere.
"""

import time
from fractions import Fraction

from k3dw import (
    BoundaryClass,
    RelativeClass,
    Vector,
    bps_invariant,
    crossing_delta,
    divide,
    multiple_cover_reconstruction,
    open_invariant,
    pair,
    reduced_gw,
    reflect,
    rotate,
    square,
    twistor_form,
    valid_liftings,
    yz_coefficient,
)
from k3dw.intlinalg import det, symmetric_signature
from k3dw.lattice import content, gram_matrix
from k3dw.relative import _lifting_rows
from k3dw.sampling import (
    chamber_threshold,
    kahler_in_chamber,
    random_boundary,
    random_lattice_vector,
    random_primitive_vector,
    random_relative_class,
    random_root,
    random_rotation_instance,
    random_unit_angle,
    seeded,
)
from k3dw.series import SeriesTable

GOLDEN = [1, 24, 324, 3200, 25650, 176256]


def test_series_golden_prefix_and_deep_prefix_speed():
    start = time.perf_counter()
    table = SeriesTable()
    deep = table.coefficients(5000)
    elapsed = time.perf_counter() - start
    assert deep[:6] == GOLDEN
    # scale regression anchor (value produced by this library, not external)
    assert len(str(deep[5000])) == 361
    assert all(c > 0 for c in deep)
    assert elapsed < 60.0
    print(f"PASS series: golden prefix exact, 5001 coefficients in {elapsed:.2f}s")


def test_closed_primitive_law_and_content_two_form():
    rng = seeded(101)
    for _ in range(100):
        beta = random_primitive_vector(rng)
        expected = Fraction(yz_coefficient(square(beta) // 2 + 1))
        assert reduced_gw(beta) == expected
    for _ in range(100):
        beta = 2 * random_primitive_vector(rng)
        g = square(beta) // 8 + 1
        expected = yz_coefficient(4 * g - 3) + Fraction(yz_coefficient(g), 8)
        assert reduced_gw(beta) == expected
    print("PASS closed: primitive law on 100 classes, content-2 form on 100")


def test_closed_depends_only_on_square_and_content():
    rng = seeded(102)
    for _ in range(100):
        beta = random_lattice_vector(rng)
        other = beta
        for _ in range(3):
            other = reflect(other, random_root(rng))
        if rng.random() < 0.5:
            other = -other
        assert square(other) == square(beta)
        assert reduced_gw(other) == reduced_gw(beta)
    print("PASS closed: square/content dependence on 100 isometric pairs")


def test_lattice_axioms():
    g = gram_matrix()
    assert abs(det(g)) == 1
    assert symmetric_signature(g) == (3, 19, 0)
    rng = seeded(103)
    for _ in range(1000):
        v = random_lattice_vector(rng)
        assert square(v) % 2 == 0
    for _ in range(200):
        u = random_lattice_vector(rng)
        v = random_lattice_vector(rng)
        r = random_root(rng)
        assert pair(reflect(u, r), reflect(v, r)) == pair(u, v)
        assert square(reflect(u, r)) == square(u)
    print("PASS lattice: unimodular, signature (3,19), even on 1000, "
          "reflections isometric on 200 triples")


def test_wall_crossing_equals_chamber_difference_and_telescopes():
    rng = seeded(104)
    for _ in range(100):
        boundary = random_boundary(rng)
        gamma = random_relative_class(rng, boundary, divisibility=rng.randint(1, 3))
        kappas = [
            kahler_in_chamber(
                rng,
                gamma,
                chamber_threshold(rng, gamma),
                boundary_pairing=rng.choice((1, -1)) * rng.randint(1, 3),
            )
            for _ in range(4)
        ]
        opens = [
            open_invariant(gamma, k, allow_nonpositive_boundary=True) for k in kappas
        ]
        deltas = [
            crossing_delta(
                gamma, kappas[i], kappas[i + 1], allow_nonpositive_boundary=True
            )
            for i in range(3)
        ]
        for i in range(3):
            assert deltas[i] == opens[i + 1] - opens[i]
        assert sum(deltas) == crossing_delta(
            gamma, kappas[0], kappas[3], allow_nonpositive_boundary=True
        )
    print("PASS crossing: delta == chamber difference and telescopes on "
          "100 three-step paths")


def test_reality_of_open_invariants():
    rng = seeded(105)
    for _ in range(200):
        boundary = random_boundary(rng)
        gamma = random_relative_class(rng, boundary, divisibility=rng.randint(1, 3))
        kappa = kahler_in_chamber(
            rng,
            gamma,
            chamber_threshold(rng, gamma),
            boundary_pairing=rng.choice((1, -1)) * rng.randint(1, 3),
        )
        assert open_invariant(-gamma, kappa, allow_nonpositive_boundary=True) == (
            open_invariant(gamma, kappa, allow_nonpositive_boundary=True)
        )
    print("PASS reality: open(-gamma) == open(gamma) on 200 instances")


def test_bps_integrality_and_multiple_cover_reconstruction():
    rng = seeded(106)
    for _ in range(100):
        boundary = random_boundary(rng)
        gamma = random_relative_class(rng, boundary, divisibility=rng.randint(1, 6))
        kappa = kahler_in_chamber(
            rng,
            gamma,
            chamber_threshold(rng, gamma),
            boundary_pairing=rng.choice((1, -1)) * rng.randint(1, 3),
        )
        # bps_invariant computes both extraction routes and raises unless
        # they agree on an integer
        value = bps_invariant(gamma, kappa, allow_nonpositive_boundary=True)
        assert isinstance(value, int)
        assert multiple_cover_reconstruction(
            gamma, kappa, allow_nonpositive_boundary=True
        ) == open_invariant(gamma, kappa, allow_nonpositive_boundary=True)

    # worked double class: open 1/4 splits into BPS pair (0, 1)
    A1, A3 = Vector.basis(0), Vector.basis(2)
    E1, F1 = Vector.basis(16), Vector.basis(17)
    gamma = RelativeClass(2 * A3, BoundaryClass(A1))
    kappa = 3 * (E1 + F1) + A1
    assert open_invariant(
        gamma, kappa, allow_nonpositive_boundary=True
    ) == Fraction(1, 4)
    assert bps_invariant(gamma, kappa, allow_nonpositive_boundary=True) == 0
    assert (
        bps_invariant(divide(gamma, 2), kappa, allow_nonpositive_boundary=True) == 1
    )
    print("PASS bps: both routes agree on integers and reconstruct open "
          "invariants on 100 instances up to divisibility 6")


def test_rotation_identities():
    rng = seeded(107)
    for _ in range(100):
        boundary = random_boundary(rng)
        omega, period = random_rotation_instance(rng, boundary)
        for _ in range(20):
            theta = random_unit_angle(rng)
            omega_t, (re_t, im_t) = rotate(omega, period, theta)
            assert square(omega_t) == square(omega)
            assert square(re_t) == square(im_t)
            assert pair(re_t, im_t) == 0
            assert twistor_form(omega, period, theta.as_complex()) == (re_t, im_t)
    print("PASS rotation: norm, holomorphicity, and twistor agreement on "
          "100 triples x 20 angles")


def test_lifting_enumeration_matches_brute_force():
    from _oracles import brute_force_liftings

    rng = seeded(108)
    empties = 0
    for i in range(100):
        boundary = random_boundary(rng)
        gamma = random_relative_class(
            rng,
            boundary,
            divisibility=rng.randint(1, 6),
            with_liftings=(i % 3 != 0),
        )
        expected = brute_force_liftings(gamma, window=200)
        assert valid_liftings(gamma) == expected
        assert _lifting_rows(gamma) == [
            (k, content(v), square(v), pair(boundary.L, v)) for k, v in expected
        ]
        empties += not expected
    assert 0 < empties < 100  # both populated and empty sets were exercised
    print(f"PASS liftings: quadratic window equals |k| <= 200 brute force "
          f"on 100 classes ({empties} empty)")
