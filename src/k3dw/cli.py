"""Command-line interface.

Subcommands:

    yz      coefficients of the Yau-Zaslow series up to an order
    closed  reduced closed invariant of a curve class
    walls   valid hyperplanes of a relative class
    open    reduced open invariant in the chamber of a Kahler class
    cross   wall-crossing delta between two Kahler classes
    bps     BPS integers of a class and its subdivisions
    rotate  hyperkahler rotation of (omega, Omega) by an exact angle
    check   run a named randomized self-check suite

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage
error, or output cut short because the reader closed stdout (as in
``k3dw ... | head``; the run then exits quietly), 2 bad input (validation,
unreadable payload, on-wall, series cap), 3 internal consistency failure.
Identical invocations produce byte-identical output; every number printed is
an exact integer or a rational "p/q".
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checks, jsonio
from .closed import reduced_gw, reduced_gw_profile
from .errors import ConsistencyError, K3dwError, ValidationError
from .periods import rotate as rotate_op
from .series import SeriesTable
from .walls import (
    _multiple_cover_terms,
    crossing_delta,
    open_invariant,
    valid_hyperplanes,
)


class UsageError(Exception):
    """A problem argparse cannot see (bad value ranges, flag combinations)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; this interface reserves
    # 2 for validation failures, so usage problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _payloads(*sources) -> list:
    """Load every source (inline JSON or file path) before decoding any; an
    absent source (None) stays None."""
    return [src if src is None else jsonio.load_payload(src) for src in sources]


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def cmd_yz(args) -> int:
    if args.max < 0:
        raise UsageError("--max must be a nonnegative integer")
    table = SeriesTable(cap=args.cap)
    values = table.coefficients(args.max)
    if args.format == "json":
        _emit(jsonio.dumps(values))
    else:
        # csv and text both print exact decimal index,value lines
        for i, v in enumerate(values):
            _emit(f"{i},{v}")
    return 0


def cmd_closed(args) -> int:
    chosen = [s is not None for s in (args.beta_file, args.beta, args.square)]
    if sum(chosen) != 1:
        raise UsageError("give exactly one of --beta-file, --beta, or --square")
    if args.square is not None:
        if args.content is None:
            raise UsageError("--square needs --content")
        if args.content < 1:
            raise UsageError("--content must be a positive integer")
        if args.square % (2 * args.content**2):
            raise ValidationError(
                f"no class of content {args.content} has square {args.square}: "
                "a class of content m has square divisible by 2*m^2"
            )
        value = reduced_gw_profile(args.square, args.content)
    else:
        source = args.beta if args.beta_file is None else args.beta_file
        beta = jsonio.beta_from_payload(jsonio.load_payload(source))
        value = reduced_gw(beta)
    _emit(str(jsonio.encode_rational(value)))
    return 0


def cmd_walls(args) -> int:
    gamma = jsonio.load_payload(args.gamma)
    records = valid_hyperplanes(jsonio.relative_class_from_payload(gamma))
    if args.format == "csv":
        for r in records:
            _emit(f"{r.k},{r.pairing_with_L},{jsonio.encode_rational(r.closed_invariant)}")
    elif args.format == "text":
        for r in records:
            _emit(
                f"k={r.k} pairing_with_L={r.pairing_with_L} "
                f"closed_invariant={jsonio.encode_rational(r.closed_invariant)}"
            )
    else:
        _emit(jsonio.dumps([jsonio.wall_record_to_payload(r) for r in records]))
    return 0


def _chamber_call(func, args, *kappa_sources):
    """func of the gamma, kappas and period of a chamber request.

    Every given source loads before any decodes; then gamma, the kappas and
    the period decode in that order.
    """
    gamma, *kappas, period = _payloads(args.gamma, *kappa_sources, args.period)
    return func(
        jsonio.relative_class_from_payload(gamma),
        *[jsonio.kahler_from_payload(k) for k in kappas],
        period=None if args.period is None else jsonio.period_from_payload(period),
        allow_nonpositive_boundary=args.allow_nonpositive_boundary,
    )


def cmd_open(args) -> int:
    value = _chamber_call(open_invariant, args, args.kappa)
    _emit(str(jsonio.encode_rational(value)))
    return 0


def cmd_cross(args) -> int:
    value = _chamber_call(crossing_delta, args, args.kappa_from, args.kappa_to)
    _emit(str(jsonio.encode_rational(value)))
    return 0


def cmd_bps(args) -> int:
    total, values, open_value = _chamber_call(_multiple_cover_terms, args, args.kappa)
    _emit(
        jsonio.dumps(
            {
                "schema": jsonio.SCHEMA,
                "divisibility": total,
                "bps": {str(d): b for d, b in values.items()},
                "open_invariant": jsonio.encode_rational(open_value),
            }
        )
    )
    return 0


def cmd_rotate(args) -> int:
    omega, period, angle = _payloads(args.omega, args.period, args.angle)
    omega = jsonio.omega_from_payload(omega)
    s = jsonio.period_from_payload(period)
    theta = jsonio.angle_from_payload(angle)
    omega_t, (re_t, im_t) = rotate_op(omega, s, theta)
    _emit(
        jsonio.dumps(
            {
                "schema": jsonio.SCHEMA,
                "omega_theta": jsonio.encode_vector(omega_t),
                "Omega_theta": {
                    "re": jsonio.encode_vector(re_t),
                    "im": jsonio.encode_vector(im_t),
                },
            }
        )
    )
    return 0


def cmd_check(args) -> int:
    if args.trials < 0:
        raise UsageError("--trials must be a nonnegative integer")
    if args.max_divisibility < 1:
        raise UsageError("--max-divisibility must be a positive integer")
    report = checks.run_suite(
        args.suite,
        trials=args.trials,
        seed=args.seed,
        max_divisibility=args.max_divisibility,
    )
    _emit(jsonio.dumps(report))
    return 0 if report["passed"] else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="k3dw", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("yz", help="Yau-Zaslow series coefficients")
    p.add_argument("--max", type=int, required=True, help="largest order to print")
    p.add_argument("--cap", type=int, default=None, help="series cap override")
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.set_defaults(func=cmd_yz)

    p = sub.add_parser("closed", help="reduced closed invariant of a curve class")
    p.add_argument("--beta-file", help="JSON file with the class")
    p.add_argument("--beta", help="inline JSON or file path with the class")
    p.add_argument("--square", type=int, help="self-intersection number")
    p.add_argument("--content", type=int, help="divisibility of the class")
    p.set_defaults(func=cmd_closed)

    def relative_flags(p):
        p.add_argument("--gamma", required=True, help="relative class (file or JSON)")
        p.add_argument("--kappa", required=True, help="Kahler class (file or JSON)")
        p.add_argument("--period", default=None, help="optional period point")
        p.add_argument(
            "--allow-nonpositive-boundary",
            action="store_true",
            help="accept Kahler classes pairing nonpositively with L",
        )

    p = sub.add_parser("walls", help="valid hyperplanes of a relative class")
    p.add_argument("--gamma", required=True, help="relative class (file or JSON)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=cmd_walls)

    p = sub.add_parser("open", help="reduced open invariant in a chamber")
    relative_flags(p)
    p.set_defaults(func=cmd_open)

    p = sub.add_parser("cross", help="wall-crossing delta between two chambers")
    p.add_argument("--gamma", required=True, help="relative class (file or JSON)")
    p.add_argument("--from", dest="kappa_from", required=True, help="starting chamber")
    p.add_argument("--to", dest="kappa_to", required=True, help="ending chamber")
    p.add_argument("--period", default=None, help="optional period point")
    p.add_argument("--allow-nonpositive-boundary", action="store_true")
    p.set_defaults(func=cmd_cross)

    p = sub.add_parser("bps", help="BPS integers of a class and its divisors")
    relative_flags(p)
    p.set_defaults(func=cmd_bps)

    p = sub.add_parser("rotate", help="hyperkahler rotation by an exact angle")
    p.add_argument("--omega", required=True, help="Kahler direction (file or JSON)")
    p.add_argument("--period", required=True, help="period point (file or JSON)")
    p.add_argument("--angle", required=True, help="unit angle (file or JSON)")
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("check", help="run a named self-check suite")
    p.add_argument("--suite", required=True, choices=checks.suite_names())
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-divisibility", type=int, default=3)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush of what
        # is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as err:
        sys.stderr.write(f"k3dw {args.command}: error: {err}\n")
        return 1
    except ConsistencyError as err:
        sys.stderr.write(f"k3dw {args.command}: consistency failure: {err}\n")
        return 3
    except K3dwError as err:
        sys.stderr.write(f"k3dw {args.command}: {err}\n")
        return 2


def main_exit() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
