"""Check suites: the instances they draw and how they are looked up."""

import itertools
import json

import pytest

from k3dw import Vector, checks, cli, sampling
from k3dw.relative import _lifting_rows


def inline_instance(rng, max_divisibility, chambers):
    """The draw spelled out call by call: boundary, divisibility, class, then
    per chamber a threshold, a sign and a boundary pairing."""
    boundary = sampling.random_boundary(rng)
    div = rng.randint(1, max_divisibility)
    gamma = sampling.random_relative_class(rng, boundary, divisibility=div)
    kappas = []
    for _ in range(chambers):
        threshold = sampling.chamber_threshold(rng, gamma)
        sign = rng.choice((1, -1))
        pairing = sign * rng.randint(1, 3)
        kappas.append(
            sampling.kahler_in_chamber(rng, gamma, threshold, boundary_pairing=pairing)
        )
    return gamma, kappas


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("chambers", [1, 3])
def test_random_instance_keeps_the_draw_order(seed, chambers):
    drawn, spelled = sampling.seeded(seed), sampling.seeded(seed)
    for max_divisibility in (1, 3, 6):
        gamma, kappas = checks._random_instance(drawn, max_divisibility, chambers)
        want_gamma, want_kappas = inline_instance(spelled, max_divisibility, chambers)
        assert gamma.representative == want_gamma.representative
        assert gamma.boundary == want_gamma.boundary
        assert kappas == want_kappas
        assert drawn.getstate() == spelled.getstate()


def test_run_suite_rejects_an_unknown_name():
    with pytest.raises(KeyError):
        checks.run_suite("no-such-suite")


def test_chamber_threshold_builds_no_vector(monkeypatch):
    rng = sampling.seeded(1)
    gamma = sampling.random_relative_class(
        rng, sampling.random_boundary(rng), divisibility=4
    )
    built = []
    real_init = Vector.__init__
    monkeypatch.setattr(
        Vector, "__init__", lambda v, c: built.append(c) or real_init(v, c)
    )
    rows = _lifting_rows(gamma)
    assert rows
    threshold = sampling.chamber_threshold(rng, gamma)
    assert rows[0][0] - 2 < threshold < rows[-1][0] + 2
    assert built == []


SUITE_ARGS = {"trials": 2, "seed": 3, "max_divisibility": 2}


def check_cli(capsys, name):
    code = cli.main(
        ["check", "--suite", name, "--trials", "2", "--seed", "3",
         "--max-divisibility", "2"]
    )
    out, err = capsys.readouterr()
    return code, json.loads(out), err


@pytest.mark.parametrize("name", checks.suite_names())
def test_every_suite_passes(name):
    report = checks.run_suite(name, **SUITE_ARGS)
    assert (report["passed"], report["failure_count"], report["failures"]) == (True, 0, [])


def shifted(real, by):
    """real with `by(args)` added to its value."""
    return lambda *args, **kwargs: real(*args, **kwargs) + by(args)


def corrupt_lattice(monkeypatch):
    # an asymmetric pairing
    monkeypatch.setattr(checks, "pair", shifted(checks.pair, lambda a: a[0].coords[0]))


def corrupt_reality(monkeypatch):
    # exactly one of gamma and -gamma is read one too high
    monkeypatch.setattr(checks, "open_invariant", shifted(
        checks.open_invariant,
        lambda a: a[0].quotient_coords > (-a[0]).quotient_coords,
    ))


def corrupt_integrality(monkeypatch):
    # the multiple-cover reconstruction is off by one
    monkeypatch.setattr(checks, "multiple_cover_reconstruction", shifted(
        checks.multiple_cover_reconstruction, lambda a: 1
    ))


def corrupt_telescoping(monkeypatch):
    # of each trial's three crossings, only the first (kappa0 to kappa1) is
    # off by one, so only the telescoping check can see it
    calls = itertools.count()
    monkeypatch.setattr(checks, "crossing_delta", shifted(
        checks.crossing_delta, lambda a: next(calls) % 3 == 0
    ))


def corrupt_crossing_sign(monkeypatch):
    # a sign slip in every crossing: it still telescopes, but no longer
    # equals the difference of the chamber sums
    real = checks.crossing_delta
    monkeypatch.setattr(checks, "crossing_delta", lambda *a, **kw: -real(*a, **kw))


def corrupt_rotation(monkeypatch):
    # an off-by-one in the rotated Kahler class
    real = checks.rotate

    def rotate(omega, s, theta):
        omega_t, period_t = real(omega, s, theta)
        return omega_t + Vector.basis(16), period_t

    monkeypatch.setattr(checks, "rotate", rotate)


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("lattice", corrupt_lattice),
        ("reality", corrupt_reality),
        ("integrality", corrupt_integrality),
        ("path-independence", corrupt_telescoping),
        ("path-independence", corrupt_crossing_sign),
        ("rotation", corrupt_rotation),
    ],
    ids=["lattice", "reality", "integrality", "telescoping", "crossing-sign", "rotation"],
)
def test_a_corrupted_identity_fails_its_suite(capsys, monkeypatch, name, corrupt):
    corrupt(monkeypatch)
    report = checks.run_suite(name, **SUITE_ARGS)
    assert report["passed"] is False and report["failure_count"] > 0
    code, printed, err = check_cli(capsys, name)
    assert (code, printed, err) == (3, report, "")
