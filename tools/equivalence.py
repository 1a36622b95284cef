"""Equivalence probe: pin every library value and CLI output on a fixed grid.

    python tools/equivalence.py           # compare with tools/equivalence.json
    python tools/equivalence.py --write   # re-pin after an intended change

The library grid is seeds 0-39 x divisibility D = 1..6.  Each class gets a
Kahler class on each side of the boundary wall and one on a weight-carrying
wall.  For every series cap in {5, 40, 300, 3000}, each call gets a fresh
SeriesTable(cap).  The probe records the value, or the exception type and
text, of open_invariant, crossing_delta, bps_invariant of every gamma/d,
multiple_cover_reconstruction, valid_hyperplanes and chamber_check, and the
table's order after each call.  It also records the representative and
coordinates of every divide(gamma, d), and the draw itself: gamma's
representative and each Kahler class, since any kappa in the same chamber
gives the same values.  A draw that raises is the record of every call in its
grid cell, so a broken sampler ends in a differing record, not a traceback.

The sparse part walks three hand-built families whose rows sit only at large
content (Delta_0 = b_0^2 + 2*square(rep_0) = 0, -3 and -4: D*e1, D*r with
pair(r, L) = 1, D*r' with r' orthogonal to L), which the sampler almost never
draws, for D up to 10^4 and shifted representatives.  It records each class's
wall records and, for D <= 12, the values of every chamber.

The CLI part runs a fixed argv list through k3dw.cli.main in process and
records exit code, stdout and stderr.  The list includes a grid of valid,
malformed and missing payloads for open, cross and bps.

Prints one sha256 per entry point and one over all of them.  When a digest
differs from the pinned file, it prints the first differing record and exits
1.  To find that record without keeping the records, the pinned file holds
one check character (6 bits of a sha256) per record; the first record whose
character moved is the first differing record unless an earlier one's moved
to the same character, a 1-in-64 chance.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "equivalence.json"
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("K3DW_SERIES_CAP", None)  # every cap below is explicit

from k3dw import cli, jsonio, sampling  # noqa: E402
from k3dw.arith import divisors  # noqa: E402
from k3dw.lattice import Vector, pair  # noqa: E402
from k3dw.relative import (  # noqa: E402
    BoundaryClass,
    RelativeClass,
    divide,
    relative_divisibility,
    valid_liftings,
)
from k3dw.series import SeriesTable  # noqa: E402
from k3dw.walls import (  # noqa: E402
    bps_invariant,
    chamber_check,
    crossing_delta,
    multiple_cover_reconstruction,
    open_invariant,
    valid_hyperplanes,
)

SEEDS = range(40)
DIVISIBILITIES = range(1, 7)
CAPS = (5, 40, 300, 3000)
B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
MISSING = "no-such-dir/k3dw-equivalence-missing.json"
KAPPAS = ("plus", "minus", "wall")
SPARSE_D = (1, 2, 3, 4, 5, 6, 12, 30, 210, 2**10, 3**6, 10**4)
SPARSE_SHIFTS = (0, -3, 5)
ENTRY_POINTS = (
    "draw", "open", "crossing", "bps", "reconstruction", "valid_hyperplanes",
    "chamber_check", "order", "divide", "sparse", "cli",
)


def show(x) -> str:
    """A canonical text for a value: no hash-ordered container reaches it."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, Vector):
        return "(" + ",".join(show(c) for c in x.coords) + ")"
    if isinstance(x, (list, tuple)):
        return "[" + ";".join(show(v) for v in x) + "]"
    if hasattr(x, "closed_invariant"):  # a WallRecord
        return show((x.k, x.lifting, x.pairing_with_L, x.closed_invariant))
    return str(x)


def caught(err: Exception) -> tuple[str, str]:
    """(the exception's type and text, its type)."""
    return f"{type(err).__name__}: {err}", type(err).__name__


def outcome(call) -> tuple[str, str]:
    """(text of the value or of the exception, the exception's type or '')."""
    try:
        return show(call()), ""
    except Exception as err:  # noqa: BLE001 - the type and text are the record
        return caught(err)


def draw(seed: int, D: int):
    """gamma of divisibility D and its Kahler classes: 'plus' and 'minus' on
    the two sides of the boundary wall, 'wall' on a weight-carrying wall."""
    rng = sampling.seeded(100 * seed + D)
    boundary = sampling.random_boundary(rng)
    gamma = sampling.random_relative_class(rng, boundary, divisibility=D)
    L = boundary.L
    weighted = [k for k, v in valid_liftings(gamma) if pair(v, L)]
    on = Fraction(weighted[len(weighted) // 2] if weighted else 0)
    kappas = {
        "plus": sampling.kahler_in_chamber(
            rng, gamma, sampling.chamber_threshold(rng, gamma),
            boundary_pairing=rng.randint(1, 3),
        ),
        "minus": sampling.kahler_in_chamber(
            rng, gamma, sampling.chamber_threshold(rng, gamma),
            boundary_pairing=-rng.randint(1, 3),
        ),
        "wall": sampling.kahler_in_chamber(rng, gamma, on),
    }
    return gamma, kappas


def library_records():
    """(entry point, key, text) for the whole library grid, in a fixed order."""
    for seed in SEEDS:
        for D in DIVISIBILITIES:
            cell = f"s{seed} D{D}"
            try:
                gamma, kappas = draw(seed, D)
            except Exception as err:  # noqa: BLE001 - the record of every call below
                failed = caught(err)
                gamma, kappas = None, dict.fromkeys(KAPPAS)
                subs = [(d, None) for d in divisors(D)]
            else:
                failed = None
                subs = [(d, divide(gamma, d)) for d in divisors(relative_divisibility(gamma))]
                yield "draw", f"{cell} gamma", show(gamma.representative)
                for name, kappa in kappas.items():
                    yield "draw", f"{cell} {name}", show(kappa.coords)
            if failed:
                for name in ("gamma", *KAPPAS):
                    yield "draw", f"{cell} {name}", failed[0]
            for d, sub in subs:
                yield "divide", f"{cell} d{d}", failed[0] if failed else show(
                    (sub.representative, sub.completion_coords)
                )
            plus, minus, wall = kappas["plus"], kappas["minus"], kappas["wall"]
            for cap in CAPS:
                calls = [("valid_hyperplanes", "", lambda t: valid_hyperplanes(gamma, table=t))]
                for name, kappa in kappas.items():
                    calls += [
                        ("open", name, lambda t, k=kappa: open_invariant(
                            gamma, k, allow_nonpositive_boundary=True, table=t)),
                        ("chamber_check", name, lambda t, k=kappa: chamber_check(
                            gamma, k, allow_nonpositive_boundary=True, table=t)),
                        ("chamber_check", name + " strict", lambda t, k=kappa: chamber_check(
                            gamma, k, table=t)),
                        ("reconstruction", name, lambda t, k=kappa: multiple_cover_reconstruction(
                            gamma, k, allow_nonpositive_boundary=True, table=t)),
                    ]
                    calls += [
                        ("bps", f"{name} d{d}", lambda t, k=kappa, s=sub: bps_invariant(
                            s, k, allow_nonpositive_boundary=True, table=t))
                        for d, sub in subs
                    ]
                for name, k0, k1 in (("plus>minus", plus, minus), ("minus>wall", minus, wall),
                                     ("wall>plus", wall, plus)):
                    calls.append(("crossing", name, lambda t, a=k0, b=k1: crossing_delta(
                        gamma, a, b, allow_nonpositive_boundary=True, table=t)))
                for entry, name, call in calls:
                    table = SeriesTable(cap)
                    text, raised = failed or outcome(lambda: call(table))
                    key = f"{cell} cap{cap} {name}".rstrip()
                    yield entry, key, text
                    after = f" after {raised}" if raised else ""
                    yield "order", f"{key} {entry}{after}", str(table.order)


def sparse_classes():
    """(key, class) for D*e1, D*r and D*r' over L = A1, shifted by j*L."""
    A1 = Vector.basis(0)
    boundary = BoundaryClass(A1)
    for family, x in (("e1", Vector.basis(16)), ("r", Vector.basis(2)), ("r'", Vector.basis(4))):
        for D in SPARSE_D:
            for j in SPARSE_SHIFTS:
                yield f"{family} D{D} j{j}", RelativeClass(D * x + j * A1, boundary)


def chamber_values(gamma, table):
    """(cut, text) for each chamber k > cut of gamma, lowest cut first: open on
    both sides of the boundary wall, the crossing between them, the
    reconstruction and bps of every gamma/d."""
    rng = sampling.seeded(0)
    subs = [divide(gamma, d) for d in divisors(relative_divisibility(gamma))]
    ks = [k for k, _ in valid_liftings(gamma)]
    for m in (min(ks, default=0) - 1, *ks):
        cut = Fraction(2 * m + 1, 2)

        def values():
            up = sampling.kahler_in_chamber(rng, gamma, cut)
            down = sampling.kahler_in_chamber(rng, gamma, cut, boundary_pairing=-1)
            flip = dict(allow_nonpositive_boundary=True, table=table)
            return (
                open_invariant(gamma, up, table=table),
                open_invariant(gamma, down, **flip),
                crossing_delta(gamma, down, up, **flip),
                multiple_cover_reconstruction(gamma, up, table=table),
                [bps_invariant(s, up, table=table) for s in subs],
            )

        yield cut, outcome(values)[0]


def sparse_records():
    for key, gamma in sparse_classes():
        table = SeriesTable(3000)
        yield "sparse", f"{key} rows", outcome(lambda: valid_hyperplanes(gamma, table=table))[0]
        if relative_divisibility(gamma) <= 12:
            for cut, text in chamber_values(gamma, table):
                yield "sparse", f"{key} cut {show(cut)}", text


def cli_argvs():
    """The fixed argv list: worked subcommands, then the bad-payload grid."""
    argvs = [
        ["yz", "--max", "12"], ["yz", "--max", "12", "--format", "json"],
        ["yz", "--max", "4", "--format", "text"], ["yz", "--max", "9", "--cap", "8"],
        ["yz", "--max", "-1"], ["closed", "--square", "2", "--content", "1"],
        ["closed", "--square", "8", "--content", "2"],
        ["closed", "--square", "6", "--content", "2"], ["closed", "--square", "0"],
        ["check", "--suite", "series-oracle", "--trials", "1"],
    ]
    argvs += [["check", "--suite", s, "--trials", "2", "--seed", "3",
               "--max-divisibility", "2"]
              for s in ("lattice", "reality", "integrality", "path-independence", "rotation")]
    for seed in range(6):
        try:
            gamma, kappas = draw(seed, 1 + seed % 3)
        except Exception as err:  # noqa: BLE001 - recorded in place of its argvs
            argvs.append(err)
            continue
        g = jsonio.dumps(jsonio.relative_class_to_payload(gamma))
        k = {n: jsonio.dumps(jsonio.kahler_to_payload(v)) for n, v in kappas.items()}
        for fmt in ("json", "csv", "text"):
            argvs.append(["walls", "--gamma", g, "--format", fmt])
        for name in ("plus", "minus", "wall"):
            argvs += [["open", "--gamma", g, "--kappa", k[name]],
                      ["open", "--gamma", g, "--kappa", k[name], "--allow-nonpositive-boundary"],
                      ["bps", "--gamma", g, "--kappa", k[name], "--allow-nonpositive-boundary"]]
        argvs.append(["cross", "--gamma", g, "--from", k["plus"], "--to", k["minus"],
                      "--allow-nonpositive-boundary"])
    rng = sampling.seeded(5)
    boundary = sampling.random_boundary(rng)
    omega, period = sampling.random_rotation_instance(rng, boundary)
    argvs.append(["rotate",
                  "--omega", jsonio.dumps({"schema": jsonio.SCHEMA,
                                           "omega": jsonio.encode_vector(omega)}),
                  "--period", jsonio.dumps(jsonio.period_to_payload(period)),
                  "--angle", jsonio.dumps(jsonio.angle_to_payload(
                      sampling.random_unit_angle(rng)))])
    return argvs + bad_payload_argvs()


def bad_payload_argvs():
    """open, cross and bps with each payload valid, malformed or missing."""
    A1, A3 = Vector.basis(0), Vector.basis(2)
    E1, F1, E2, F2, E3, F3 = (Vector.basis(i) for i in range(16, 22))
    gamma = jsonio.relative_class_to_payload(RelativeClass(A3, BoundaryClass(A1)))
    kappa = {"schema": jsonio.SCHEMA, "kappa": jsonio.encode_vector(3 * (E1 + F1) - A1)}
    kappa_to = {"schema": jsonio.SCHEMA,
                "kappa": jsonio.encode_vector(3 * (E1 + F1) - A1 - A3)}
    period = {"schema": jsonio.SCHEMA, "L": jsonio.encode_vector(A1),
              "re": jsonio.encode_vector(E2 + F2), "im": jsonio.encode_vector(E3 + F3)}

    def variants(payload):
        return (json.dumps(payload), json.dumps({**payload, "schema": "k3dw/999"}), MISSING)

    argvs = []
    for g in variants(gamma):
        for k in variants(kappa):
            for p in variants(period):
                argvs.append(["open", "--gamma", g, "--kappa", k, "--period", p])
                argvs.append(["bps", "--gamma", g, "--kappa", k, "--period", p])
                for k1 in variants(kappa_to):
                    argvs.append(["cross", "--gamma", g, "--from", k, "--to", k1,
                                  "--period", p])
    return argvs


def cli_records():
    for i, argv in enumerate(cli_argvs()):
        if isinstance(argv, Exception):
            yield "cli", f"argv{i} draw", caught(argv)[0]
            continue
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        yield "cli", f"argv{i} {argv[0]}", f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def probe() -> dict:
    """{entry point: [(key, text), ...]} over the whole grid."""
    records = {e: [] for e in ENTRY_POINTS}
    for source in (library_records(), sparse_records(), cli_records()):
        for entry, key, text in source:
            records[entry].append((key, text))
    return records


def digest(pairs) -> str:
    h = hashlib.sha256()
    for key, text in pairs:
        h.update(f"{key}\0{text}\0".encode())
    return h.hexdigest()


def check_chars(pairs) -> str:
    """One base64 character (6 bits of sha256) per record."""
    return "".join(
        B64[hashlib.sha256(f"{k}\0{t}".encode()).digest()[0] >> 2] for k, t in pairs
    )


def main(argv: list[str]) -> int:
    records = probe()
    digests = {e: digest(records[e]) for e in ENTRY_POINTS}
    digests["all"] = digest(sorted(digests.items()))
    for entry, value in digests.items():
        n = len(records.get(entry, ())) or sum(map(len, records.values()))
        print(f"{entry:18} {n:6} records  {value}")
    if argv == ["--write"]:
        pinned = {"digests": digests,
                  "check_chars": {e: check_chars(records[e]) for e in ENTRY_POINTS}}
        PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
        print(f"pinned to {PINNED.name}")
        return 0
    pinned = json.loads(PINNED.read_text())
    if pinned["digests"] == digests:
        print("all digests match")
        return 0
    for entry in ENTRY_POINTS:
        if pinned["digests"][entry] == digests[entry]:
            continue
        old, new = pinned["check_chars"][entry], check_chars(records[entry])
        at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        print(f"MISMATCH {entry}: {len(old)} records pinned, {len(new)} now")
        if at < len(new):
            key, text = records[entry][at]
            print(f"first record whose check character moved, #{at} ({key}):\n{text}")
        return 1
    print("MISMATCH in the combined digest only")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
