"""Chamber sums, wall-crossing, and BPS integers on worked examples.

The hand-frozen numbers below all live over the boundary class L = first
simple root of the leading E8 block.  Kahler classes are built from the
hyperbolic planes plus small root-block corrections, tuned to land in a
named chamber; the chamber of a class [v] is determined by the signs of the
pairings with its valid liftings.
"""

from fractions import Fraction
from math import lcm

import pytest

from k3dw import (
    BoundaryClass,
    ConsistencyError,
    KahlerVector,
    OnWallError,
    RelativeClass,
    SeriesCapError,
    SeriesTable,
    ValidationError,
    Vector,
    WallRecord,
    bps_invariant,
    chamber_check,
    cli,
    content,
    crossing_delta,
    divide,
    jsonio,
    multiple_cover_reconstruction,
    open_invariant,
    pair,
    relative,
    relative_divisibility,
    square,
    valid_hyperplanes,
    valid_liftings,
    validate_kahler,
    walls,
)
from k3dw.arith import divisors
from k3dw.sampling import (
    chamber_threshold,
    kahler_in_chamber,
    random_boundary,
    random_relative_class,
    seeded,
)
from test_sparse import sparse_classes

A1, A3, A5 = Vector.basis(0), Vector.basis(2), Vector.basis(4)
E1, F1 = Vector.basis(16), Vector.basis(17)
E2, F2 = Vector.basis(18), Vector.basis(19)
E3, F3 = Vector.basis(20), Vector.basis(21)

L = BoundaryClass(A1)
W = 3 * (E1 + F1)

# chambers for [A3], indexed by the pairing signs with the two liftings
# (x, y) = (pair(kappa, A3), pair(kappa, A1)); liftings pair to x and x + y
KAPPA_PLUS_PLUS = W - 2 * A1 - 3 * A3  # x = 4, y = 1
KAPPA_ZERO_PLUS = W - A1 - A3  # x = 1, y = 1
KAPPA_MINUS = W - A1  # x = -1, y = 2
KAPPA_FLIP = W + A1  # x = 1, y = -2: beyond the boundary wall


def rel(v):
    return RelativeClass(v, L)


def test_wall_records_frozen():
    assert valid_hyperplanes(rel(A3)) == [
        WallRecord(0, A3, 1, Fraction(1)),
        WallRecord(1, A3 + A1, -1, Fraction(1)),
    ]
    assert valid_hyperplanes(rel(2 * A3)) == [
        WallRecord(0, 2 * A3, 2, Fraction(1, 8)),
        WallRecord(2, 2 * A3 + 2 * A1, -2, Fraction(1, 8)),
    ]
    assert valid_hyperplanes(rel(2 * E1)) == [
        WallRecord(-2, 2 * E1 - 2 * A1, 4, Fraction(1, 8)),
        WallRecord(-1, 2 * E1 - A1, 2, Fraction(1)),
        WallRecord(0, 2 * E1, 0, Fraction(27)),
        WallRecord(1, 2 * E1 + A1, -2, Fraction(1)),
        WallRecord(2, 2 * E1 + 2 * A1, -4, Fraction(1, 8)),
    ]
    assert valid_hyperplanes(rel(A3 + A5)) == []


def test_validate_kahler():
    assert isinstance(validate_kahler(KAPPA_MINUS, L), KahlerVector)
    assert validate_kahler(KahlerVector(KAPPA_MINUS), L).coords == KAPPA_MINUS
    with pytest.raises(ValidationError):
        validate_kahler(A3, L)  # negative square
    with pytest.raises(ValidationError):
        validate_kahler(KAPPA_FLIP, L)  # pairs negatively with L
    validate_kahler(KAPPA_FLIP, L, allow_nonpositive_boundary=True)
    with pytest.raises(ValidationError):
        validate_kahler("kappa", L)


def test_validate_kahler_against_period():
    from k3dw import PeriodPoint

    period = PeriodPoint(re=E1 + F1, im=E2 + F2, boundary=L)
    omega = E3 + F3
    validate_kahler(2 * omega - A1, L, period=period)
    with pytest.raises(ValidationError):
        validate_kahler(2 * omega + E1 - A1, L, period=period)


def test_chamber_calls_validate_their_period():
    # each bad period raises what central_charge raises on it, after kappa's
    # own checks and before the orthogonality check
    from k3dw import PeriodPoint, central_charge

    zero = Vector.zero()
    bad = [
        PeriodPoint(re=zero, im=zero, boundary=L),  # OMEGA_NORM
        PeriodPoint(re=E2 + F2, im=2 * (E3 + F3), boundary=L),  # OMEGA_SQUARE
        # OMEGA_BOUNDARY: both squares 6, but pair(re, L) = -2
        PeriodPoint(re=2 * (E2 + F2) + A1, im=E3 + F3 + E1 + 2 * F1, boundary=L),
        PeriodPoint(re=E2 + F2, im=E3 + F3, boundary=BoundaryClass(A3)),  # valid, for A3
    ]
    calls = [
        lambda p: validate_kahler(KAPPA_MINUS, L, period=p),
        lambda p: chamber_check(rel(A3), KAPPA_MINUS, period=p),
        lambda p: open_invariant(rel(A3), KAPPA_MINUS, period=p),
        lambda p: crossing_delta(rel(A3), KAPPA_MINUS, KAPPA_MINUS, period=p),
        lambda p: bps_invariant(rel(A3), KAPPA_MINUS, period=p),
        lambda p: multiple_cover_reconstruction(rel(A3), KAPPA_MINUS, period=p),
    ]
    codes = []
    for period in bad:
        with pytest.raises(ValidationError) as want:
            central_charge(period, rel(A3))
        codes.append(getattr(want.value, "code", None))
        for call in calls:
            with pytest.raises(type(want.value)) as got:
                call(period)
            assert str(got.value) == str(want.value)
            assert getattr(got.value, "code", None) == codes[-1]
        # kappa's own square and L-pairing errors come first
        with pytest.raises(ValidationError, match="positive square"):
            open_invariant(rel(A3), A3, period=period)
        with pytest.raises(ValidationError, match="pairs nonpositively"):
            open_invariant(rel(A3), KAPPA_FLIP, period=period)
    assert codes == ["OMEGA_NORM", "OMEGA_SQUARE", "OMEGA_BOUNDARY", None]
    good = PeriodPoint(re=E2 + F2, im=E3 + F3, boundary=L)
    assert open_invariant(rel(A3), KAPPA_MINUS, period=good) == -1


def test_open_invariant_four_chambers():
    gamma = rel(A3)
    assert open_invariant(gamma, KAPPA_PLUS_PLUS) == 0
    assert open_invariant(gamma, KAPPA_ZERO_PLUS) == 0
    assert open_invariant(gamma, KAPPA_MINUS) == -1
    assert (
        open_invariant(gamma, KAPPA_FLIP, allow_nonpositive_boundary=True) == 1
    )


def test_open_invariant_imprimitive_chamber():
    gamma = rel(2 * A3)
    assert (
        open_invariant(gamma, KAPPA_FLIP, allow_nonpositive_boundary=True)
        == Fraction(1, 4)
    )
    assert open_invariant(gamma, KAPPA_PLUS_PLUS) == 0


def test_no_wall_class_is_chamber_free():
    gamma = rel(A3 + A5)
    for kappa in (KAPPA_PLUS_PLUS, KAPPA_ZERO_PLUS, KAPPA_MINUS):
        assert chamber_check(gamma, kappa) == []
        assert open_invariant(gamma, kappa) == 0
        assert bps_invariant(gamma, kappa) == 0


def test_on_wall_error():
    # pair(kappa, A3) = 0 puts kappa exactly on the k = 0 wall of [A3]
    kappa = W + Fraction(-2, 3) * A1 + Fraction(-1, 3) * A3
    with pytest.raises(OnWallError) as e:
        chamber_check(rel(A3), kappa)
    assert e.value.offsets == (0,)
    with pytest.raises(OnWallError):
        open_invariant(rel(A3), kappa)
    with pytest.raises(OnWallError):
        bps_invariant(rel(A3), kappa)
    with pytest.raises(OnWallError):
        crossing_delta(rel(A3), KAPPA_MINUS, kappa)


def test_weightless_wall_never_blocks():
    # kappa pairs to zero with the k = 0 lifting of [E1], whose L-pairing
    # vanishes; that wall carries no weight and must not raise
    kappa = 3 * (E2 + F2) - A1
    records = chamber_check(rel(E1), kappa)
    assert [r.k for r in records] == [-1, 0, 1]
    assert open_invariant(rel(E1), kappa) == -2


def test_chamber_check_returns_the_wall_records():
    rng = seeded(5)
    for gamma, _ in sampled_classes():
        records = valid_hyperplanes(gamma)
        for sign in (1, -1):  # both signs of pair(kappa, L)
            kappa = kahler_in_chamber(
                rng, gamma, chamber_threshold(rng, gamma), boundary_pairing=sign
            )
            assert (sign > 0) == (pair(kappa.coords, gamma.boundary.L) > 0)
            assert chamber_check(gamma, kappa, allow_nonpositive_boundary=True) == records


def test_crossing_matches_chamber_difference():
    gamma = rel(A3)
    assert crossing_delta(gamma, KAPPA_MINUS, KAPPA_MINUS) == 0
    assert crossing_delta(gamma, KAPPA_ZERO_PLUS, KAPPA_MINUS) == -1
    assert crossing_delta(gamma, KAPPA_MINUS, KAPPA_ZERO_PLUS) == 1
    assert (
        crossing_delta(gamma, KAPPA_MINUS, KAPPA_FLIP, allow_nonpositive_boundary=True)
        == 2
    )
    assert crossing_delta(gamma, KAPPA_PLUS_PLUS, KAPPA_ZERO_PLUS) == 0


def kappa_scanning(p):
    """pair(kappa, 2*E1 + k*A1) = 2*p + 4*k: positive liftings are k > -p/2."""
    return 3 * (E2 + F2) - 2 * A1 + p * F1


def test_bps_jumps_wall_by_wall():
    gamma = rel(2 * E1)
    half = kappa_scanning(-1)  # threshold 1/2
    three_halves = kappa_scanning(-3)
    five_halves = kappa_scanning(-5)

    assert open_invariant(gamma, half) == Fraction(-5, 2)
    assert open_invariant(gamma, three_halves) == Fraction(-1, 2)
    assert open_invariant(gamma, five_halves) == 0

    assert bps_invariant(gamma, half) == -2
    assert bps_invariant(gamma, three_halves) == 0
    assert bps_invariant(gamma, five_halves) == 0

    sub = divide(gamma, 2)
    assert bps_invariant(sub, half) == -2
    assert bps_invariant(sub, three_halves) == -2
    assert bps_invariant(sub, five_halves) == 0

    # crossing the k = 1 wall moves the primitive BPS number only; crossing
    # the k = 2 wall moves only the imprimitive one (its lifting has square
    # -8, below the primitive curve bound)
    assert crossing_delta(gamma, half, three_halves) == 2
    assert crossing_delta(sub, half, three_halves) == 0
    assert crossing_delta(sub, three_halves, five_halves) == 2


def test_bps_worked_double_class():
    gamma = rel(2 * A3)
    assert bps_invariant(gamma, KAPPA_FLIP, allow_nonpositive_boundary=True) == 0
    assert (
        bps_invariant(divide(gamma, 2), KAPPA_FLIP, allow_nonpositive_boundary=True)
        == 1
    )
    assert (
        multiple_cover_reconstruction(
            gamma, KAPPA_FLIP, allow_nonpositive_boundary=True
        )
        == Fraction(1, 4)
    )


def test_reconstruction_equals_open():
    for gamma, kappa in (
        (rel(2 * E1), kappa_scanning(-1)),
        (rel(2 * E1), kappa_scanning(-3)),
        (rel(A3), KAPPA_MINUS),
        (rel(3 * A3), KAPPA_MINUS),
    ):
        assert multiple_cover_reconstruction(gamma, kappa) == open_invariant(
            gamma, kappa
        )


def test_reality_of_bps():
    for gamma, kappa in (
        (rel(2 * E1), kappa_scanning(-1)),
        (rel(A3), KAPPA_MINUS),
        (rel(2 * A3), KAPPA_PLUS_PLUS),
    ):
        assert open_invariant(-gamma, kappa) == open_invariant(gamma, kappa)
        assert bps_invariant(-gamma, kappa) == bps_invariant(gamma, kappa)


def test_random_chambers_reconstruct():
    rng = seeded(51)
    for _ in range(12):
        boundary = random_boundary(rng)
        gamma = random_relative_class(rng, boundary, divisibility=rng.choice((1, 2)))
        kappa = kahler_in_chamber(rng, gamma, chamber_threshold(rng, gamma))
        opened = open_invariant(gamma, kappa)
        assert multiple_cover_reconstruction(gamma, kappa) == opened
        assert open_invariant(-gamma, kappa) == opened
        d = relative_divisibility(gamma)
        if d == 1:
            assert bps_invariant(gamma, kappa) == opened


def test_bps_consistency_guard_is_quiet_on_valid_input():
    # ConsistencyError exists for internal disagreement; exercising every
    # worked chamber here documents that it stays silent on honest input
    try:
        for kappa in (KAPPA_PLUS_PLUS, KAPPA_ZERO_PLUS, KAPPA_MINUS):
            for v in (A3, 2 * A3, 3 * A3, 2 * E1, E1 + F2):
                bps_invariant(rel(v), kappa)
    except ConsistencyError as exc:  # pragma: no cover
        pytest.fail(f"consistency guard fired on valid input: {exc}")


def test_bps_guard_fires_on_a_corrupted_route_b_series_lookup(monkeypatch):
    real = walls.yz_coefficient
    monkeypatch.setattr(walls, "yz_coefficient", lambda n, **kw: real(n, **kw) + 1)
    with pytest.raises(ConsistencyError, match="gives -1, direct lifting sum gives -2"):
        bps_invariant(rel(A3), KAPPA_MINUS)


def test_bps_guard_fires_on_a_corrupted_route_a_closed_invariant(monkeypatch):
    # walls reads c^3 * N, so adding c^3 is the same +1 on N
    real = walls.scaled_gw_profile
    monkeypatch.setattr(
        walls, "scaled_gw_profile", lambda sq, c, **kw: real(sq, c, **kw) + c**3
    )
    with pytest.raises(ConsistencyError, match="gives -2, direct lifting sum gives -1"):
        bps_invariant(rel(A3), KAPPA_MINUS)


def bps_cli(gamma, kappa):
    """Exit code of `k3dw bps` on gamma and kappa given inline."""
    return cli.main(
        [
            "bps",
            "--gamma",
            jsonio.dumps(jsonio.relative_class_to_payload(gamma)),
            "--kappa",
            jsonio.dumps(jsonio.kahler_to_payload(KahlerVector(kappa))),
        ]
    )


def test_one_enumeration_per_public_call(monkeypatch):
    calls = []
    real = walls._lifting_rows
    monkeypatch.setattr(walls, "_lifting_rows", lambda g: calls.append(g) or real(g))
    gamma, k0, k1 = rel(2 * E1), kappa_scanning(-1), kappa_scanning(-3)
    for evaluate in (
        lambda: open_invariant(gamma, k0),
        lambda: crossing_delta(gamma, k0, k1),
        lambda: bps_invariant(gamma, k0),
        lambda: multiple_cover_reconstruction(gamma, k0),
        lambda: bps_cli(gamma, k0),
    ):
        calls.clear()
        evaluate()
        assert calls == [gamma]
    # the rows are ints: no Vector is built for a fresh class
    built = []
    real_init = Vector.__init__
    monkeypatch.setattr(
        Vector, "__init__", lambda v, c: built.append(c) or real_init(v, c)
    )
    for evaluate in (
        lambda g: open_invariant(g, k0),
        lambda g: crossing_delta(g, k0, k1),
        lambda g: bps_invariant(g, k0),
        lambda g: multiple_cover_reconstruction(g, k0),
    ):
        fresh = rel(2 * E1)
        built.clear()
        evaluate(fresh)
        assert built == []


def test_one_quotient_walk_per_fresh_class(monkeypatch):
    calls = []
    real = relative._completion_coords
    monkeypatch.setattr(
        relative, "_completion_coords", lambda v, b: calls.append(v) or real(v, b)
    )
    for evaluate in (bps_invariant, multiple_cover_reconstruction):
        calls.clear()
        evaluate(rel(2 * E1), kappa_scanning(-1))
        assert calls == [2 * E1]


def test_one_route_a_scan_per_distinct_divisor(monkeypatch):
    rng = seeded(2)
    gamma = random_relative_class(rng, random_boundary(rng), divisibility=6)
    kappa = kahler_in_chamber(rng, gamma, chamber_threshold(rng, gamma)).coords
    scans = []
    real = walls._WallTable.weighted
    monkeypatch.setattr(
        walls._WallTable, "weighted", lambda t, d, f: scans.append(d) or real(t, d, f)
    )
    multiple_cover_reconstruction(gamma, kappa)
    assert sorted(scans) == [1, 2, 3, 6]
    scans.clear()
    assert bps_cli(gamma, kappa) == 0
    assert sorted(scans) == [1, 2, 3, 6]


def test_reconstruction_on_wall_offsets_count_from_divide_representative(capsys):
    # [A3] carried by A3 + A1: kappa lies on the wall of the lifting A3, at
    # k = -1 from this representative and k = 0 from divide(gamma, 1)'s
    kappa = W + Fraction(-2, 3) * A1 + Fraction(-1, 3) * A3
    gamma = rel(A3 + A1)
    assert divide(gamma, 1).representative == A3
    for evaluate, offsets in (
        (open_invariant, (-1,)),
        (bps_invariant, (-1,)),
        (multiple_cover_reconstruction, (0,)),
    ):
        with pytest.raises(OnWallError) as e:
            evaluate(gamma, kappa)
        assert e.value.offsets == offsets
    assert bps_cli(gamma, kappa) == 2
    assert "wall(s) at k=[0]" in capsys.readouterr().err


def sampled_classes(max_order=1200):
    """One seeded class for each D = 1..6 whose liftings need a low order,
    with two chambers."""
    rng = seeded(2)  # every D gets a chamber with a nonzero open invariant
    for D in range(1, 7):
        while True:
            gamma = random_relative_class(rng, random_boundary(rng), divisibility=D)
            liftings = valid_liftings(gamma)
            if liftings and max(square(v) // 2 + 1 for _, v in liftings) <= max_order:
                break
        kappas = [
            kahler_in_chamber(rng, gamma, chamber_threshold(rng, gamma))
            for _ in range(2)
        ]
        yield gamma, kappas


def test_divisor_views_match_independent_enumeration():
    for gamma, kappas in sampled_classes():
        liftings = [v for _, v in valid_liftings(gamma)]
        subs = {d: divide(gamma, d) for d in divisors(relative_divisibility(gamma))}
        for d, sub in subs.items():
            assert [d * r.lifting for r in valid_hyperplanes(sub)] == [
                v for v in liftings if content(v) % d == 0
            ]
        for kappa in kappas:
            by_views = sum(
                (Fraction(bps_invariant(sub, kappa), d * d) for d, sub in subs.items()),
                Fraction(0),
            )
            opened = open_invariant(gamma, kappa)
            assert by_views == multiple_cover_reconstruction(gamma, kappa) == opened


def exact_sides(gamma, kappa):
    """pair(kappa, rep + kL) as a Fraction for each row k of gamma's table."""
    t = walls._WallTable(gamma, None)
    return t, [(k, lp, pair(kappa, gamma.lifting(k))) for k, _, _, lp in t.rows]


def test_integral_kahler_sides_match_exact_pairings():
    # n * kappa is decided on ints; each row's side must be that of kappa
    rng = seeded(11)
    big = (10**12 + 39, 2**61 - 1, 7**15, 3 * 10**9 + 19)
    for gamma, kappas in sampled_classes():
        tilt = [Fraction(rng.randint(-9, 9), rng.choice(big)) for _ in range(22)]
        threshold = chamber_threshold(rng, gamma)
        far = kahler_in_chamber(rng, gamma, threshold, boundary_pairing=-1)
        tilted = kappas[0].coords + Vector(tilt)
        assert lcm(*(x.denominator for x in tilted)) > 10**30  # large and mixed
        for kappa in [kv.coords for kv in kappas] + [far.coords, tilted]:
            w = walls._integral_kahler(kappa, gamma.boundary, None, True)
            # an integral, positive multiple of kappa
            assert w.is_integral and pair(w, kappa) > 0
            assert all(
                w[i] * kappa[j] == w[j] * kappa[i] for i in range(22) for j in range(i)
            )
            t, sides = exact_sides(gamma, kappa)
            assert t.signs(w) == [v > 0 for _, _, v in sides]


def test_rational_kappa_on_a_wall_reports_its_offsets():
    rng = seeded(5)
    for gamma, _ in sampled_classes():
        t = walls._WallTable(gamma, None)
        weighted = [k for k, _, _, lp in t.rows if lp]
        if not weighted:
            continue
        k = weighted[len(weighted) // 2]
        for sign in (1, -1):
            sampled = kahler_in_chamber(rng, gamma, Fraction(k), boundary_pairing=sign)
            kappa = Fraction(1, 7) * sampled.coords  # the same walls, and rational
            assert any(x.denominator > 1 for x in kappa)
            _, sides = exact_sides(gamma, kappa)
            on = tuple(j for j, lp, v in sides if lp and v == 0)
            assert on == (k,)
            x0 = gamma.completion_coords[0]
            kw = dict(allow_nonpositive_boundary=sign < 0)
            for evaluate, offsets in (
                (open_invariant, on),
                (bps_invariant, on),
                (chamber_check, on),
                (multiple_cover_reconstruction, (k + x0,)),
            ):
                with pytest.raises(OnWallError) as e:
                    evaluate(gamma, kappa, **kw)
                assert e.value.offsets == offsets


def test_validate_kahler_messages_print_the_rational_kappa():
    with pytest.raises(ValidationError) as e:
        validate_kahler(Fraction(1, 2) * E1 + Fraction(1, 3) * A3, L)
    assert str(e.value) == "Kahler class needs positive square, got -2/9"
    with pytest.raises(ValidationError) as e:
        validate_kahler(Fraction(1, 3) * W + Fraction(1, 5) * A1, L)
    assert str(e.value) == (
        "Kahler class pairs nonpositively (-2/5) with the boundary class; "
        "pass allow_nonpositive_boundary=True if this chamber is intended"
    )


def test_boundary_wall_needs_the_opt_in():
    kappa = E1 + F1  # square 2 and pair(kappa, L) = 0: on the boundary wall
    with pytest.raises(ValidationError) as e:
        validate_kahler(kappa, L)
    assert str(e.value) == (
        "Kahler class pairs nonpositively (0) with the boundary class; "
        "pass allow_nonpositive_boundary=True if this chamber is intended"
    )
    validate_kahler(kappa, L, allow_nonpositive_boundary=True)


def test_series_cap_fires_from_rows_no_sum_reads():
    # kappa lies past the highest row, so no chamber sum reads a row; the cap
    # is still decided over every row's d = 1 index, and the error names the
    # first row in k order past it
    rng = seeded(13)
    for gamma, _ in sampled_classes():
        rows = relative._lifting_rows(gamma)
        tops = [sq // 2 + 1 for _, _, sq, _ in rows]
        kappa = kahler_in_chamber(rng, gamma, Fraction(2 * rows[-1][0] + 1, 2))
        ranked = sorted(set(tops))
        for cap in {0, max(0, ranked[len(ranked) // 2] - 1), ranked[-1] - 1}:
            first = next(i for i, n in enumerate(tops) if n > cap)
            for evaluate in (
                lambda t: open_invariant(gamma, kappa, table=t),
                lambda t: crossing_delta(gamma, kappa, kappa, table=t),
                lambda t: bps_invariant(gamma, kappa, table=t),
                lambda t: multiple_cover_reconstruction(gamma, kappa, table=t),
            ):
                table = SeriesTable(cap=cap)
                with pytest.raises(SeriesCapError) as e:
                    evaluate(table)
                assert str(e.value).startswith(
                    f"order {tops[first]} exceeds the series cap {cap};"
                )
                assert table.order == 0  # the cap is decided before any growth


def test_series_cap_after_a_lowered_limit(monkeypatch):
    # a table grown under a higher cap keeps what it has; lowered, the cap
    # fires at the first row in k order past max(cap, order)
    rng = seeded(17)
    for gamma, _ in sampled_classes():
        rows = relative._lifting_rows(gamma)
        tops = [sq // 2 + 1 for _, _, sq, _ in rows]
        kappa = kahler_in_chamber(rng, gamma, Fraction(2 * rows[-1][0] + 1, 2))
        assert max(tops) > 0
        for grown in {max(0, tops[0]), max(tops) - 1}:
            for cap in {0, grown // 2}:
                monkeypatch.setenv("K3DW_SERIES_CAP", str(max(tops)))
                table = SeriesTable()
                table.coefficients(grown)
                monkeypatch.setenv("K3DW_SERIES_CAP", str(cap))
                first = next(n for n in tops if n > max(cap, grown))
                with pytest.raises(SeriesCapError) as e:
                    open_invariant(gamma, kappa, table=table)
                assert str(e.value).startswith(
                    f"order {first} exceeds the series cap {cap};"
                )
                assert table.order == grown


def test_every_chamber_of_a_class():
    # rows k and b - k have equal profiles and opposite L-pairings, so the
    # outermost chambers read 0 and the two sides of a cut read opposite values
    rng = seeded(7)
    classes = [gamma for gamma, _ in sampled_classes()]
    classes += [gamma for gamma, _ in sparse_classes(12)]
    skipped = 0  # unit steps of the cut that cross no row (6 * A3: k = 1..5)
    for gamma in classes:
        records = {r.k: r for r in valid_hyperplanes(gamma)}
        subs = [divide(gamma, d) for d in divisors(relative_divisibility(gamma))]
        opens, below = [], None
        for m in range(min(records) - 1, max(records) + 1):
            cut = Fraction(2 * m + 1, 2)
            up = kahler_in_chamber(rng, gamma, cut)  # rows k > cut
            down = kahler_in_chamber(rng, gamma, cut, boundary_pairing=-1)
            opened = open_invariant(gamma, up)
            opposite = open_invariant(gamma, down, allow_nonpositive_boundary=True)
            assert opposite == -opened
            if below is not None:  # the step from cut - 1 crosses the row k = m
                r = records.get(m)
                skipped += r is None
                step = -r.pairing_with_L * r.closed_invariant if r else 0
                assert opened - opens[-1] == crossing_delta(gamma, below, up) == step
            opens.append(opened)
            below = up
            for sub in subs:  # raises ConsistencyError unless the routes agree
                bps_invariant(sub, up)
                bps_invariant(sub, down, allow_nonpositive_boundary=True)
        assert opens[0] == opens[-1] == 0
    assert skipped
