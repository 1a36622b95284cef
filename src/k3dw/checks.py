"""Named self-check suites, runnable from the CLI and from tests.

Each suite draws seeded random instances, verifies the advertised identity
exactly, and reports a machine-readable summary.  The series oracle here is
deliberately the slow route (literal geometric-series products), independent
of the recurrence used by the production table.
"""

from __future__ import annotations

from fractions import Fraction

from . import sampling
from .errors import K3dwError
from .intlinalg import det, symmetric_signature
from .lattice import (
    Vector,
    content,
    extend_to_unimodular_basis,
    gram_matrix,
    pair,
    reflect,
    square,
)
from .periods import GaussianRational, PeriodPoint, twistor_form, rotate, validate_period
from .series import yz_coefficients
from .walls import (
    bps_invariant,
    crossing_delta,
    multiple_cover_reconstruction,
    open_invariant,
)


def naive_yz_coefficients(order: int) -> list[int]:
    """Coefficients of prod (1-q^k)^(-24) by repeated geometric products.

    Quadratic-ish and slow, which is the point: an algorithm with nothing in
    common with the production recurrence.
    """
    coeffs = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(24):
            for i in range(k, order + 1):
                coeffs[i] += coeffs[i - k]
    return coeffs


def _suite_lattice(rng, trials: int, failures: list[str], **_):
    g = gram_matrix()
    if abs(det(g)) != 1:
        failures.append(f"Gram determinant is {det(g)}, want +-1")
    if symmetric_signature(g) != (3, 19, 0):
        failures.append(f"Gram signature is {symmetric_signature(g)}, want (3, 19, 0)")
    for _ in range(trials):
        u = sampling.random_lattice_vector(rng)
        v = sampling.random_lattice_vector(rng)
        if square(u) % 2:
            failures.append(f"odd square {square(u)} at {u!r}")
        if pair(u, v) != pair(v, u):
            failures.append(f"asymmetric pairing at {u!r}, {v!r}")
        r = sampling.random_root(rng)
        if square(r) != -2:
            failures.append(f"root walk left square -2: {r!r}")
        if pair(reflect(u, r), reflect(v, r)) != pair(u, v):
            failures.append(f"reflection is not an isometry at root {r!r}")
        if content(reflect(u, r)) != content(u):
            failures.append(f"reflection changed content at root {r!r}")
    for _ in range(max(1, trials // 20)):
        p = sampling.random_primitive_vector(rng)
        basis = extend_to_unimodular_basis(p)
        if basis[0] != p:
            failures.append(f"basis extension lost its seed vector {p!r}")
        m = [[b.coords[i] for b in basis] for i in range(len(basis))]
        if abs(det(m)) != 1:
            failures.append(f"basis extension determinant {det(m)} at {p!r}")


def _suite_series_oracle(rng, trials: int, failures: list[str], **_):
    del rng, trials  # deterministic suite
    order = 32
    fast = yz_coefficients(order)
    slow = naive_yz_coefficients(order)
    if fast != slow:
        first = next(i for i, (a, b) in enumerate(zip(fast, slow)) if a != b)
        failures.append(
            f"recurrence and product disagree first at order {first}: "
            f"{fast[first]} != {slow[first]}"
        )
    if fast[:6] != [1, 24, 324, 3200, 25650, 176256]:
        failures.append(f"leading coefficients are {fast[:6]}")


def _random_instance(rng, max_divisibility: int, chambers: int):
    """A class gamma and one Kahler class in each of `chambers` drawn chambers."""
    boundary = sampling.random_boundary(rng)
    div = rng.randint(1, max_divisibility)
    gamma = sampling.random_relative_class(rng, boundary, divisibility=div)
    kappas = [
        sampling.kahler_in_chamber(
            rng,
            gamma,
            sampling.chamber_threshold(rng, gamma),
            boundary_pairing=rng.choice((1, -1)) * rng.randint(1, 3),
        )
        for _ in range(chambers)
    ]
    return gamma, kappas


def _suite_reality(rng, trials: int, failures: list[str], max_divisibility: int, **_):
    for _ in range(trials):
        gamma, (kappa,) = _random_instance(rng, max_divisibility, 1)
        plus = open_invariant(gamma, kappa, allow_nonpositive_boundary=True)
        minus = open_invariant(-gamma, kappa, allow_nonpositive_boundary=True)
        if plus != minus:
            failures.append(
                f"reality fails: open(gamma)={plus}, open(-gamma)={minus} "
                f"at {gamma.quotient_coords}"
            )


def _suite_integrality(
    rng, trials: int, failures: list[str], max_divisibility: int, **_
):
    for _ in range(trials):
        gamma, (kappa,) = _random_instance(rng, max_divisibility, 1)
        try:
            bps = bps_invariant(gamma, kappa, allow_nonpositive_boundary=True)
        except K3dwError as err:
            failures.append(f"bps failed at {gamma.quotient_coords}: {err}")
            continue
        if not isinstance(bps, int):
            failures.append(f"bps returned {type(bps).__name__}")
        recon = multiple_cover_reconstruction(
            gamma, kappa, allow_nonpositive_boundary=True
        )
        direct = open_invariant(gamma, kappa, allow_nonpositive_boundary=True)
        if recon != direct:
            failures.append(
                f"multiple-cover reconstruction {recon} != open invariant {direct}"
            )


def _suite_path_independence(
    rng, trials: int, failures: list[str], max_divisibility: int, **_
):
    for _ in range(trials):
        gamma, kappas = _random_instance(rng, max_divisibility, 3)
        d01 = crossing_delta(gamma, kappas[0], kappas[1], allow_nonpositive_boundary=True)
        d12 = crossing_delta(gamma, kappas[1], kappas[2], allow_nonpositive_boundary=True)
        d02 = crossing_delta(gamma, kappas[0], kappas[2], allow_nonpositive_boundary=True)
        if d01 + d12 != d02:
            failures.append(f"telescoping fails: {d01} + {d12} != {d02}")
        opens = [
            open_invariant(gamma, k, allow_nonpositive_boundary=True) for k in kappas
        ]
        if d02 != opens[2] - opens[0]:
            failures.append(f"delta {d02} != open difference {opens[2] - opens[0]}")


def _suite_rotation(rng, trials: int, failures: list[str], **_):
    for _ in range(trials):
        boundary = sampling.random_boundary(rng)
        omega, period = sampling.random_rotation_instance(rng, boundary)
        theta = sampling.random_unit_angle(rng)
        omega_t, (re_t, im_t) = rotate(omega, period, theta)
        rotated = PeriodPoint(re=re_t, im=im_t, boundary=boundary)
        try:
            validate_period(rotated)
        except K3dwError as err:
            failures.append(f"rotated period invalid: {err}")
            continue
        if square(omega_t) != square(omega):
            failures.append("rotation changed the Kahler norm")
        if pair(omega_t, re_t) != 0 or pair(omega_t, im_t) != 0:
            failures.append("rotated Kahler form not orthogonal to rotated Omega")
        if 2 * square(omega_t) != square(re_t) + square(im_t):
            failures.append("rotated normalization 2w^2 = Omega.conj(Omega) fails")
        z = GaussianRational(theta.c, theta.s)
        tw = twistor_form(omega, period, z)
        if tw != (re_t, im_t):
            failures.append("twistor form at zeta=e^(i theta) differs from rotation")
        zeta = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        if zeta.is_zero:
            zeta = GaussianRational(1, 1)
        tr, ti = twistor_form(omega, period, zeta)
        if square(tr) != square(ti) or pair(tr, ti) != 0:
            failures.append(f"twistor form does not square to zero at zeta={zeta}")


_SUITES = {
    "lattice": _suite_lattice,
    "series-oracle": _suite_series_oracle,
    "reality": _suite_reality,
    "integrality": _suite_integrality,
    "path-independence": _suite_path_independence,
    "rotation": _suite_rotation,
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def run_suite(
    name: str,
    *,
    trials: int = 100,
    seed: int = 0,
    max_divisibility: int = 3,
) -> dict:
    """Run one named suite; returns a JSON-ready report dict."""
    suite = _SUITES[name]
    rng = sampling.seeded(seed)
    failures: list[str] = []
    suite(rng, trials, failures, max_divisibility=max_divisibility)
    return {
        "schema": "k3dw/1",
        "suite": name,
        "seed": seed,
        "trials": trials,
        "max_divisibility": max_divisibility,
        "failures": failures[:20],
        "failure_count": len(failures),
        "passed": not failures,
    }
