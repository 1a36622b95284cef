"""Check suites: the instances they draw and how they are looked up."""

import pytest

from k3dw import Vector, checks, sampling
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
