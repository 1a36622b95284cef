"""JSON serialization: versioned payloads, exact rationals, no floats.

Wire conventions, shared by files and inline JSON arguments:

* lattice vectors are arrays of 22 numbers in the documented basis order;
  integers appear as JSON numbers, other rationals as strings "p/q" in
  lowest terms with positive denominator;
* object payloads carry a "schema": "k3dw/1" tag and exactly the documented
  fields; unknown fields are rejected rather than ignored;
* floats never appear, in either direction.

Payload shapes:

    relative class   {"schema", "representative": [...], "L": [...]}
    period point     {"schema", "re": [...], "im": [...], "L": [...]}
    unit angle       {"schema", "c": "p/q", "s": "r/t"}
    Kahler class     {"schema", "kappa": [...]}
    Kahler direction {"schema", "omega": [...]}
    curve class      bare [... 22 ints ...] or {"schema", "beta": [...]}
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import SchemaError
from .lattice import DIM, Vector
from .periods import PeriodPoint, UnitAngle
from .relative import BoundaryClass, RelativeClass
from .walls import KahlerVector, WallRecord

SCHEMA = "k3dw/1"


def encode_rational(x):
    """An int as itself, any other rational as the string "p/q"."""
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def decode_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise SchemaError("booleans are not numbers here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise SchemaError(f"floating point values are not accepted: {x!r}")
    if isinstance(x, str):
        parts = x.split("/")
        try:
            if len(parts) == 1:
                return Fraction(int(parts[0]))
            if len(parts) == 2:
                num, den = int(parts[0]), int(parts[1])
                if den <= 0:
                    raise SchemaError(f"denominator must be positive in {x!r}")
                return Fraction(num, den)
        except ValueError:
            pass
        raise SchemaError(f"not a rational literal: {x!r}")
    raise SchemaError(f"not a rational value: {x!r}")


def encode_vector(v: Vector) -> list:
    return [encode_rational(c) for c in v.coords]


def decode_vector(arr, *, integral: bool = False) -> Vector:
    if not isinstance(arr, list) or len(arr) != DIM:
        raise SchemaError(f"a lattice vector is an array of {DIM} numbers")
    entries = [decode_rational(x) for x in arr]
    if integral and any(e.denominator != 1 for e in entries):
        raise SchemaError("this vector must have integer entries")
    return Vector(entries)


def _check_fields(obj: dict, required: tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what}: expected a JSON object")
    if obj.get("schema") != SCHEMA:
        raise SchemaError(
            f'{what}: missing or wrong schema tag, need "schema": "{SCHEMA}"'
        )
    missing = [f for f in required if f not in obj]
    if missing:
        raise SchemaError(f"{what}: missing fields {missing}")
    unknown = [f for f in obj if f != "schema" and f not in required]
    if unknown:
        raise SchemaError(f"{what}: unknown fields {unknown}")


def load_payload(source: str):
    """Parse inline JSON (starts with '{' or '[') or read a UTF-8 JSON file.

    Every failure to find, read, decode or parse the payload is a SchemaError.
    """
    text = source.strip()
    if not text.startswith(("{", "[")):
        path = Path(source)
        if not path.exists():
            raise SchemaError(f"no such file: {source}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise SchemaError(f"cannot read {source}: {err}") from None
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except SchemaError:
        raise
    except (ValueError, RecursionError) as err:
        # also an integer past the int string limit, or nesting too deep
        raise SchemaError(f"invalid JSON: {err}") from None


def _reject_float(token):
    raise SchemaError(f"floating point literals are not accepted: {token}")


def relative_class_from_payload(obj) -> RelativeClass:
    _check_fields(obj, ("representative", "L"), "relative class")
    boundary = BoundaryClass(decode_vector(obj["L"], integral=True))
    return RelativeClass(decode_vector(obj["representative"], integral=True), boundary)


def relative_class_to_payload(gamma: RelativeClass) -> dict:
    return {
        "schema": SCHEMA,
        "representative": encode_vector(gamma.representative),
        "L": encode_vector(gamma.boundary.L),
    }


def period_from_payload(obj) -> PeriodPoint:
    _check_fields(obj, ("re", "im", "L"), "period point")
    boundary = BoundaryClass(decode_vector(obj["L"], integral=True))
    return PeriodPoint(
        re=decode_vector(obj["re"]), im=decode_vector(obj["im"]), boundary=boundary
    )


def period_to_payload(s: PeriodPoint) -> dict:
    return {
        "schema": SCHEMA,
        "re": encode_vector(s.re),
        "im": encode_vector(s.im),
        "L": encode_vector(s.boundary.L),
    }


def angle_from_payload(obj) -> UnitAngle:
    _check_fields(obj, ("c", "s"), "unit angle")
    return UnitAngle(decode_rational(obj["c"]), decode_rational(obj["s"]))


def angle_to_payload(theta: UnitAngle) -> dict:
    return {
        "schema": SCHEMA,
        "c": encode_rational(theta.c),
        "s": encode_rational(theta.s),
    }


def kahler_from_payload(obj) -> KahlerVector:
    _check_fields(obj, ("kappa",), "Kahler class")
    return KahlerVector(decode_vector(obj["kappa"]))


def kahler_to_payload(kappa: KahlerVector) -> dict:
    return {"schema": SCHEMA, "kappa": encode_vector(kappa.coords)}


def omega_from_payload(obj) -> Vector:
    _check_fields(obj, ("omega",), "Kahler direction")
    return decode_vector(obj["omega"])


def beta_from_payload(obj) -> Vector:
    """A curve class: bare 22-int array, or an object with a "beta" field."""
    if isinstance(obj, list):
        return decode_vector(obj, integral=True)
    _check_fields(obj, ("beta",), "curve class")
    return decode_vector(obj["beta"], integral=True)


def wall_record_to_payload(record: WallRecord) -> dict:
    return {
        "k": record.k,
        "lifting": encode_vector(record.lifting),
        "pairing_with_L": record.pairing_with_L,
        "closed_invariant": encode_rational(record.closed_invariant),
    }


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, no floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
