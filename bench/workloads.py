"""The three workloads of the k3dw benchmark.

Each workload turns a seed into a plan: one cycle of operations, each with a
timed call, an untimed check of its output and a canonical text of that
output for the run's digest.  Inputs come from ``k3dw.sampling`` only, and
the library is used through its public names only.

* ``chamber-walk``: chamber steps of classes with divisibility 1..6 against a
  warm series (walls, lifting enumeration, closed invariants, lattice).
* ``series-cold``: a fresh ``SeriesTable`` grown to a log-uniform order
  (series growth alone).
* ``cli-mix``: one ``python -m k3dw.cli`` process per operation, a
  round-robin over all eight subcommands (interpreter, import, cold series,
  JSON I/O).
"""

from __future__ import annotations

import bisect
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every class is drawn until its liftings, and those of each gamma/d, need
# series order at most a cap.  cli-mix draws D <= 3 classes, of which under
# 1% need more than order 4096, the top of the series-cold range.  The order
# grows with D^2, so chamber-walk's cap is higher: about 2% of D = 5 draws
# and 12% of D = 6 draws need more than 8192, none of D <= 4 (300 draws per
# D), while half of the D = 6 draws need more than 4096.  Its set-up grows
# the series to the cap, about 7 s; the D = 6 tail, up to order 16500, would
# cost 30 s or more per set-up.
CLI_MAX_ORDER = 4096
CHAMBER_MAX_ORDER = 8192

# Op cost varies about 0.7 (coefficient of variation) from class to class,
# so a run must see many classes for its mean to hold still from seed to
# seed: one timed run takes one chamber step of each of about 150 classes.
CHAMBER_CLASSES = 144  # 24 per divisibility 1..6, each six in a row has all six
# Quartiles of the series order a class of each divisibility needs, over 300
# draws per D (seed 12345, redrawn past CHAMBER_MAX_ORDER).  Within each D
# the log of an operation's time follows the log of that order closely
# (correlation 0.83 to 0.97), so chamber-walk takes a quarter of each D's
# classes from each quarter of orders.  With plain draws, how many heavy
# classes a seed happened to get moved op_p90_ms.
CHAMBER_ORDER_QUARTILES = {
    1: (27, 75, 151),
    2: (118, 304, 632),
    3: (183, 587, 1223),
    4: (373, 1227, 2132),
    5: (752, 1807, 3571),
    6: (910, 2112, 4087),
}
CHAMBERS_PER_CLASS = 2
SERIES_LOW, SERIES_HIGH = 256, 4096
SERIES_STRATA = 25  # orders per cycle: midpoints of equal strata of log n
SERIES_CYCLES = 8
ORACLE_ORDER = 160  # fresh tables are compared to the product oracle up to here
CLI_CYCLES = 18  # three rotations through the six check suites
CLI_CHECK_TRIALS = 3
CLI_CLASS_SEED = 0  # cli-mix classes come from this seed, not the run's


@dataclass
class Op:
    """One operation: ``run`` is timed; ``check`` returns an error or None."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    text: Callable[[object], str]
    argv: list[str] | None = None  # CLI arguments, for cli-mix only


@dataclass
class Plan:
    ops: list[Op]
    block: int  # a timed run ends on a multiple of this many operations
    trace_ops: int  # operations in the traced phase and in the digest
    note: str = ""  # printed with the run's results


def import_k3dw():
    """Import the library from the checkout's ``src``; None if it is absent."""
    if not (SRC / "k3dw" / "__init__.py").is_file():
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import k3dw
    import k3dw.arith
    import k3dw.checks
    import k3dw.jsonio
    import k3dw.sampling

    return k3dw


def _needed_order(gamma, k3dw) -> int:
    """Largest series index the liftings of gamma use.

    The liftings of each gamma/d need no more: d^2 times a lifting of gamma/d
    is a lifting of gamma, so its square is d^2 times as large.
    """
    liftings = k3dw.valid_liftings(gamma)
    return max((k3dw.square(v) // 2 + 1 for _, v in liftings), default=0)


def _draw_class(
    rng, divisibility: int, k3dw, max_order: int, draws: Counter,
    accept: Callable[[int], bool] = lambda order: True,
):
    """A class as the acceptance gate draws it, redrawn past ``max_order``
    and while ``accept`` refuses the order it needs.

    ``draws`` counts the draws of each D as ``(D, "drawn")``, those past
    ``max_order`` as ``(D, "redrawn")`` and those refused as
    ``(D, "refused")``.
    """
    s = k3dw.sampling
    boundary = s.random_boundary(rng)
    while True:
        gamma = s.random_relative_class(rng, boundary, divisibility=divisibility)
        draws[divisibility, "drawn"] += 1
        order = _needed_order(gamma, k3dw)
        if order > max_order:
            draws[divisibility, "redrawn"] += 1
        elif accept(order):
            return gamma
        else:
            draws[divisibility, "refused"] += 1


def _redrawn(draws: Counter, max_order: int) -> str:
    divs = sorted({d for d, _ in draws})
    shares = ", ".join(f"D={d} {draws[d, 'redrawn']}/{draws[d, 'drawn']}" for d in divs)
    note = f"draws redrawn past order {max_order}: {shares}"
    if any(draws[d, "refused"] for d in divs):
        refused = ", ".join(f"D={d} {draws[d, 'refused']}" for d in divs)
        note += f"; redrawn for a full quarter: {refused}"
    return note


def _kappa(rng, gamma, sign: int, k3dw):
    s = k3dw.sampling
    return s.kahler_in_chamber(
        rng,
        gamma,
        s.chamber_threshold(rng, gamma),
        boundary_pairing=sign * rng.randint(1, 3),
    )


# -- chamber-walk ------------------------------------------------------------


def chamber_walk(seed: int, k3dw) -> Plan:
    rng = k3dw.sampling.seeded(seed)
    divs = []
    for _ in range(CHAMBER_CLASSES // 6):
        six = [1, 2, 3, 4, 5, 6]
        rng.shuffle(six)
        divs += six
    classes, draws = [], Counter()
    # classes still to draw from each quarter of orders, for each D
    left = {d: [CHAMBER_CLASSES // 24] * 4 for d in CHAMBER_ORDER_QUARTILES}

    def in_open_quarter(d: int):
        def accept(order: int) -> bool:
            quarter = bisect.bisect_right(CHAMBER_ORDER_QUARTILES[d], order)
            if not left[d][quarter]:
                return False
            left[d][quarter] -= 1
            return True

        return accept

    for d in divs:
        gamma = _draw_class(rng, d, k3dw, CHAMBER_MAX_ORDER, draws, in_open_quarter(d))
        # chambers alternate the sign of pair(kappa, L)
        kappas = [
            _kappa(rng, gamma, 1 if j % 2 == 0 else -1, k3dw)
            for j in range(CHAMBERS_PER_CLASS)
        ]
        classes.append((gamma, kappas))
    # the cap, not the largest order drawn, so that the cost of set-up does
    # not move with the seed's heaviest class
    table = k3dw.SeriesTable()
    table.coefficients(CHAMBER_MAX_ORDER)

    opens: dict[tuple[int, int], object] = {}
    kw = {"allow_nonpositive_boundary": True, "table": table}

    def make(c: int, j: int) -> Op:
        gamma, kappas = classes[c]
        kappa, prev = kappas[j], kappas[j - 1]
        divisors = k3dw.arith.divisors(k3dw.relative_divisibility(gamma))

        def run():
            value = k3dw.open_invariant(gamma, kappa, **kw)
            delta = k3dw.crossing_delta(gamma, prev, kappa, **kw)
            bps = {
                d: k3dw.bps_invariant(k3dw.divide(gamma, d), kappa, **kw)
                for d in divisors
            }
            recon = k3dw.multiple_cover_reconstruction(gamma, kappa, **kw)
            return value, delta, bps, recon

        def check(out):
            value, delta, bps, recon = out
            if recon != value:
                return f"reconstruction {recon} != open {value}"
            if any(not isinstance(b, int) for b in bps.values()):
                return f"non-integer BPS values {bps}"
            opens[c, j] = value
            before = (c, (j - 1) % CHAMBERS_PER_CLASS)
            if before not in opens:
                opens[before] = k3dw.open_invariant(gamma, prev, **kw)
            if delta != value - opens[before]:
                return f"crossing {delta} != open difference {value - opens[before]}"
            return None

        def text(out):
            value, delta, bps, recon = out
            return f"{value}|{delta}|{sorted(bps.items())}|{recon}"

        return Op(f"class{c}/chamber{j}", run, check, text)

    ops = [make(c, j) for j in range(CHAMBERS_PER_CLASS) for c in range(len(classes))]
    return Plan(ops, block=6, trace_ops=48, note=_redrawn(draws, CHAMBER_MAX_ORDER))


# -- series-cold -------------------------------------------------------------


def series_orders(rng) -> list[int]:
    """SERIES_CYCLES cycles of the SERIES_STRATA stratum midpoints of log n,
    each cycle shuffled.

    Midpoints rather than a random point in each stratum: with one draw per
    stratum the median order, and so op_p50_ms, moved by about 10% from seed
    to seed.  The seed decides the order in which the orders run.
    """
    span = math.log(SERIES_HIGH / SERIES_LOW)
    cycle = [
        round(SERIES_LOW * math.exp(span * (i + 0.5) / SERIES_STRATA))
        for i in range(SERIES_STRATA)
    ]
    orders = []
    for _ in range(SERIES_CYCLES):
        rng.shuffle(cycle)
        orders.extend(cycle)
    return orders


def series_cold(seed: int, k3dw) -> Plan:
    orders = series_orders(k3dw.sampling.seeded(seed))
    warm = k3dw.SeriesTable().coefficients(max(orders))
    oracle = k3dw.checks.naive_yz_coefficients(ORACLE_ORDER)
    if warm[: ORACLE_ORDER + 1] != oracle:
        raise RuntimeError("warm series table disagrees with the product oracle")

    def make(n: int) -> Op:
        def check(out):
            if out[: ORACLE_ORDER + 1] != oracle:
                return f"order {n}: fresh table disagrees with the product oracle"
            if out != warm[: n + 1]:
                return f"order {n}: fresh table is not a prefix of the warm table"
            return None

        return Op(
            f"order{n}",
            lambda: k3dw.SeriesTable().coefficients(n),
            check,
            lambda out: f"{n}:{out[-1]:x}",
        )

    return Plan([make(n) for n in orders], block=SERIES_STRATA, trace_ops=SERIES_STRATA)


# -- cli-mix -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("K3DW_SERIES_CAP", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv: list[str], env: dict) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "k3dw.cli", *argv],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def cli_mix(seed: int, k3dw) -> Plan:
    """The seed draws the yz orders and the rotation instances.  Classes and
    chambers come from CLI_CLASS_SEED, and each check suite's instances from
    its cycle number: their cost varies a lot from draw to draw, and set-up
    computes each class's reference values, so drawing them from the seed
    made set-up time and the latencies move from seed to seed.
    """
    j = k3dw.jsonio
    s = k3dw.sampling
    rng = s.seeded(seed)
    fixed = s.seeded(CLI_CLASS_SEED)
    table = k3dw.SeriesTable()
    suites = k3dw.checks.suite_names()
    env = child_env()
    cases: list[tuple[list[str], str]] = []
    draws = Counter()

    def draw(rng):
        return _draw_class(rng, rng.randint(1, 3), k3dw, CLI_MAX_ORDER, draws)

    def relative(rng, chambers: int):
        gamma = draw(rng)
        signs = [rng.choice((1, -1)) for _ in range(chambers)]
        kappas = [_kappa(rng, gamma, sign, k3dw) for sign in signs]
        flag = ["--allow-nonpositive-boundary"] if -1 in signs else []
        return gamma, kappas, flag

    for cycle in range(CLI_CYCLES):
        n = round(16 * math.exp(math.log(32) * rng.random()))
        cases.append((["yz", "--max", str(n), "--format", "json"],
                      j.dumps(table.coefficients(n))))

        gamma = draw(fixed)
        _, beta = fixed.choice(k3dw.valid_liftings(gamma) or [(0, gamma.representative)])
        cases.append((["closed", "--beta", j.dumps(j.encode_vector(beta))],
                      str(j.encode_rational(k3dw.reduced_gw(beta, table=table)))))

        gamma = draw(fixed)
        records = k3dw.valid_hyperplanes(gamma, table=table)
        cases.append((["walls", "--gamma", j.dumps(j.relative_class_to_payload(gamma))],
                      j.dumps([j.wall_record_to_payload(r) for r in records])))

        gamma, (kappa,), flag = relative(fixed, 1)
        value = k3dw.open_invariant(gamma, kappa, allow_nonpositive_boundary=True,
                                    table=table)
        cases.append((["open", "--gamma", j.dumps(j.relative_class_to_payload(gamma)),
                       "--kappa", j.dumps(j.kahler_to_payload(kappa)), *flag],
                      str(j.encode_rational(value))))

        gamma, (k0, k1), flag = relative(fixed, 2)
        value = k3dw.crossing_delta(gamma, k0, k1, allow_nonpositive_boundary=True,
                                    table=table)
        cases.append((["cross", "--gamma", j.dumps(j.relative_class_to_payload(gamma)),
                       "--from", j.dumps(j.kahler_to_payload(k0)),
                       "--to", j.dumps(j.kahler_to_payload(k1)), *flag],
                      str(j.encode_rational(value))))

        gamma, (kappa,), flag = relative(fixed, 1)
        total = k3dw.relative_divisibility(gamma)
        report = {
            "schema": j.SCHEMA,
            "divisibility": total,
            "bps": {
                str(d): k3dw.bps_invariant(k3dw.divide(gamma, d), kappa,
                                           allow_nonpositive_boundary=True, table=table)
                for d in k3dw.arith.divisors(total)
            },
            "open_invariant": j.encode_rational(
                k3dw.open_invariant(gamma, kappa, allow_nonpositive_boundary=True,
                                    table=table)
            ),
        }
        cases.append((["bps", "--gamma", j.dumps(j.relative_class_to_payload(gamma)),
                       "--kappa", j.dumps(j.kahler_to_payload(kappa)), *flag],
                      j.dumps(report)))

        boundary = s.random_boundary(rng)
        omega, period = s.random_rotation_instance(rng, boundary)
        angle = s.random_unit_angle(rng)
        omega_t, (re_t, im_t) = k3dw.rotate(omega, period, angle)
        cases.append((["rotate",
                       "--omega", j.dumps({"schema": j.SCHEMA,
                                          "omega": j.encode_vector(omega)}),
                       "--period", j.dumps(j.period_to_payload(period)),
                       "--angle", j.dumps(j.angle_to_payload(angle))],
                      j.dumps({"schema": j.SCHEMA,
                               "omega_theta": j.encode_vector(omega_t),
                               "Omega_theta": {"re": j.encode_vector(re_t),
                                               "im": j.encode_vector(im_t)}})))

        # the suite draws its own instances, whose cost varies a lot, from
        # its seed; a seed fixed by the cycle keeps that cost out of the
        # seed-to-seed spread
        suite = suites[cycle % len(suites)]
        report = k3dw.checks.run_suite(suite, trials=CLI_CHECK_TRIALS, seed=cycle)
        cases.append((["check", "--suite", suite, "--trials", str(CLI_CHECK_TRIALS),
                       "--seed", str(cycle)],
                      j.dumps(report)))

    def make(i: int, argv: list[str], expected: str) -> Op:
        want = (0, (expected + "\n").encode())

        def check(out):
            if out[0] != want[0]:
                return f"{argv[0]}: exit code {out[0]}"
            if out[1] != want[1]:
                return f"{argv[0]}: stdout differs from the library value"
            return None

        return Op(
            f"op{i}:{argv[0]}",
            lambda: run_cli(argv, env),
            check,
            lambda out: f"{out[0]}:{out[1].decode()}",
            argv=argv,
        )

    ops = [make(i, argv, expected) for i, (argv, expected) in enumerate(cases)]
    # a run ends on a whole rotation through the check suites
    return Plan(ops, block=6 * 8, trace_ops=6 * 8, note=_redrawn(draws, CLI_MAX_ORDER))


WORKLOADS = {
    "chamber-walk": chamber_walk,
    "series-cold": series_cold,
    "cli-mix": cli_mix,
}
