"""Command-line interface: payloads, worked outputs, exit codes."""

import json
import os
import subprocess
import sys
from importlib.metadata import (
    EntryPoint,
    PackageNotFoundError,
    distribution,
    entry_points,
)
from pathlib import Path

import pytest

from k3dw import Vector
from k3dw import cli, walls
from k3dw.cli import main
from k3dw.series import default_table

A1, A3 = Vector.basis(0), Vector.basis(2)
E1, F1 = Vector.basis(16), Vector.basis(17)
E2, F2 = Vector.basis(18), Vector.basis(19)
E3, F3 = Vector.basis(20), Vector.basis(21)

SCHEMA = "k3dw/1"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def coords(v):
    return [int(c) for c in v.coords]


def gamma_payload(rep, L=A1):
    return {"schema": SCHEMA, "representative": coords(rep), "L": coords(L)}


def kappa_payload(v):
    return {"schema": SCHEMA, "kappa": coords(v)}


KAPPA_MINUS = kappa_payload(3 * (E1 + F1) - A1)
KAPPA_ZERO_PLUS = kappa_payload(3 * (E1 + F1) - A1 - A3)
KAPPA_FLIP = kappa_payload(3 * (E1 + F1) + A1)
KAPPA_SCAN = kappa_payload(3 * (E2 + F2) - 2 * A1 - F1)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_yz_csv(capsys):
    code, out, err = run(capsys, "yz", "--max", "5")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "0,1",
        "1,24",
        "2,324",
        "3,3200",
        "4,25650",
        "5,176256",
    ]
    code, out, _ = run(capsys, "yz", "--max", "0")
    assert code == 0 and out == "0,1\n"


def test_yz_json(capsys):
    code, out, _ = run(capsys, "yz", "--max", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == [1, 24, 324, 3200, 25650, 176256]


def test_yz_errors(capsys):
    code, _, err = run(capsys, "yz", "--max", "-1")
    assert code == 1 and "--max" in err
    code, _, err = run(capsys, "yz", "--max", "10", "--cap", "5")
    assert code == 2 and "cap" in err


def test_closed_profile(capsys):
    assert run(capsys, "closed", "--square", "-2", "--content", "1")[:2] == (0, "1\n")
    assert run(capsys, "closed", "--square", "0", "--content", "1")[:2] == (0, "24\n")
    assert run(capsys, "closed", "--square", "0", "--content", "2")[:2] == (0, "27\n")
    assert run(capsys, "closed", "--square", "-8", "--content", "2")[:2] == (
        0,
        "1/8\n",
    )
    # a class of content m has square divisible by 2*m^2
    for square, content in (("1", "1"), ("-3", "2")):
        code, out, err = run(capsys, "closed", "--square", square, "--content", content)
        assert (code, out) == (2, "")
        assert f"no class of content {content} has square {square}" in err


def test_closed_beta_sources(capsys, tmp_path):
    bare = json.dumps(coords(A3))
    assert run(capsys, "closed", "--beta", bare)[:2] == (0, "1\n")
    tagged = json.dumps({"schema": SCHEMA, "beta": coords(2 * E1)})
    assert run(capsys, "closed", "--beta", tagged)[:2] == (0, "27\n")
    f = tmp_path / "beta.json"
    f.write_text(bare)
    assert run(capsys, "closed", "--beta-file", str(f))[:2] == (0, "1\n")


def test_closed_usage_errors(capsys):
    code, _, _ = run(capsys, "closed", "--square", "-2")
    assert code == 1  # --content missing
    code, _, _ = run(capsys, "closed")
    assert code == 1  # no source at all
    code, _, _ = run(
        capsys, "closed", "--beta", json.dumps(coords(A3)), "--square", "-2"
    )
    assert code == 1  # conflicting sources
    code, _, _ = run(capsys, "closed", "--square", "-2", "--content", "0")
    assert code == 1


def test_schema_violations_exit_2(capsys):
    bad_tag = json.dumps({"schema": "k3dw/999", "beta": coords(A3)})
    assert run(capsys, "closed", "--beta", bad_tag)[0] == 2
    extra = json.dumps({"schema": SCHEMA, "beta": coords(A3), "note": "hi"})
    assert run(capsys, "closed", "--beta", extra)[0] == 2
    fractional = json.dumps(coords(A3)[:-1] + [0.5])
    assert run(capsys, "closed", "--beta", fractional)[0] == 2
    assert run(capsys, "closed", "--beta", "[1,2,3]")[0] == 2
    assert run(capsys, "closed", "--beta", "not json at {all")[0] == 2
    assert run(capsys, "closed", "--beta-file", "/nonexistent.json")[0] == 2


def test_unreadable_payload_paths_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "closed", "--beta", str(tmp_path))
    assert code == 2 and "cannot read" in err
    latin1 = tmp_path / "beta.json"
    latin1.write_bytes(b'{"schema": "k3dw/1", "note": "\xe9"}')
    code, _, err = run(capsys, "closed", "--beta-file", str(latin1))
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize(
    "text",
    ["[" + "9" * 5000 + "]", "[" * 50_000 + "]" * 50_000],
    ids=["int-past-string-limit", "deep-nesting"],
)
def test_unparseable_payloads_exit_2(capsys, tmp_path, text):
    # json.loads raises ValueError and RecursionError here, not JSONDecodeError
    payload = tmp_path / "beta.json"
    payload.write_text(text)
    for argv in (("--beta-file", str(payload)), ("--beta", text)):
        code, out, err = run(capsys, "closed", *argv)
        assert (code, out) == (2, "") and "invalid JSON" in err


def test_empty_beta_file_name_is_read_as_a_path(capsys):
    # "" names the working directory, as with --beta ""
    for flag in ("--beta-file", "--beta"):
        code, _, err = run(capsys, "closed", flag, "")
        assert code == 2 and "cannot read" in err


def test_walls_json(capsys):
    code, out, _ = run(capsys, "walls", "--gamma", json.dumps(gamma_payload(2 * E1)))
    assert code == 0
    records = json.loads(out)
    assert [r["k"] for r in records] == [-2, -1, 0, 1, 2]
    assert [r["pairing_with_L"] for r in records] == [4, 2, 0, -2, -4]
    assert [r["closed_invariant"] for r in records] == ["1/8", 1, 27, 1, "1/8"]
    assert records[0]["lifting"] == coords(2 * E1 - 2 * A1)


def test_walls_csv(capsys):
    code, out, _ = run(
        capsys, "walls", "--gamma", json.dumps(gamma_payload(A3)), "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["0,1,1", "1,-1,1"]


def test_walls_text(capsys):
    code, out, err = run(
        capsys, "walls", "--gamma", json.dumps(gamma_payload(2 * E1)), "--format", "text"
    )
    assert (code, err) == (0, "")
    assert out == (
        "k=-2 pairing_with_L=4 closed_invariant=1/8\n"
        "k=-1 pairing_with_L=2 closed_invariant=1\n"
        "k=0 pairing_with_L=0 closed_invariant=27\n"
        "k=1 pairing_with_L=-2 closed_invariant=1\n"
        "k=2 pairing_with_L=-4 closed_invariant=1/8\n"
    )


def test_open_worked_chambers(capsys, tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps(gamma_payload(A3)))
    kappa = tmp_path / "kappa.json"
    kappa.write_text(json.dumps(KAPPA_MINUS))
    code, out, _ = run(capsys, "open", "--gamma", str(gamma), "--kappa", str(kappa))
    assert (code, out) == (0, "-1\n")

    code, out, _ = run(
        capsys,
        "open",
        "--gamma",
        json.dumps(gamma_payload(2 * A3)),
        "--kappa",
        json.dumps(KAPPA_FLIP),
        "--allow-nonpositive-boundary",
    )
    assert (code, out) == (0, "1/4\n")
    # same chamber without the opt-in flag is a validation failure
    code, _, err = run(
        capsys,
        "open",
        "--gamma",
        json.dumps(gamma_payload(2 * A3)),
        "--kappa",
        json.dumps(KAPPA_FLIP),
    )
    assert code == 2 and "nonpositive" in err


def test_open_on_wall_exits_2(capsys):
    on_wall = {
        "schema": SCHEMA,
        "kappa": ["-2/3", 0, "-1/3"] + [0] * 13 + [3, 3, 0, 0, 0, 0],
    }
    code, _, err = run(
        capsys,
        "open",
        "--gamma",
        json.dumps(gamma_payload(A3)),
        "--kappa",
        json.dumps(on_wall),
    )
    assert code == 2 and "wall" in err


def test_cross(capsys):
    gamma = json.dumps(gamma_payload(A3))
    code, out, _ = run(
        capsys,
        "cross",
        "--gamma",
        gamma,
        "--from",
        json.dumps(KAPPA_ZERO_PLUS),
        "--to",
        json.dumps(KAPPA_MINUS),
    )
    assert (code, out) == (0, "-1\n")
    code, out, _ = run(
        capsys,
        "cross",
        "--gamma",
        gamma,
        "--from",
        json.dumps(KAPPA_MINUS),
        "--to",
        json.dumps(KAPPA_MINUS),
    )
    assert (code, out) == (0, "0\n")


def test_bps_report(capsys):
    code, out, _ = run(
        capsys,
        "bps",
        "--gamma",
        json.dumps(gamma_payload(2 * E1)),
        "--kappa",
        json.dumps(KAPPA_SCAN),
    )
    assert code == 0
    report = json.loads(out)
    assert report == {
        "schema": SCHEMA,
        "divisibility": 2,
        "bps": {"1": -2, "2": -2},
        "open_invariant": "-5/2",
    }


CHAMBER_SLOTS = {  # the payload flags of each command, in load and decode order
    "open": ("--gamma", "--kappa", "--period"),
    "cross": ("--gamma", "--from", "--to", "--period"),
    "bps": ("--gamma", "--kappa", "--period"),
}
PERIOD = {"schema": SCHEMA, "re": coords(E2 + F2), "im": coords(E3 + F3), "L": coords(A1)}


@pytest.mark.parametrize("command", sorted(CHAMBER_SLOTS))
def test_chamber_payloads_load_before_they_decode_in_order(capsys, tmp_path, command):
    flags = CHAMBER_SLOTS[command]
    good = [gamma_payload(A3)] + [KAPPA_MINUS] * (len(flags) - 2) + [PERIOD]
    # each slot's defect names the slot: an unknown field, or a missing file
    bad = [json.dumps({**p, f"slot{i}": 0}) for i, p in enumerate(good)]
    missing = [str(tmp_path / f"slot{i}.json") for i in range(len(flags))]

    def call(**defects):
        payloads = [defects.get(f"s{i}", json.dumps(p)) for i, p in enumerate(good)]
        return run(capsys, command, *(x for pair in zip(flags, payloads) for x in pair))

    assert call()[0] == 0
    for i in range(len(flags)):
        for j in range(len(flags)):
            if i == j:
                continue
            code, out, err = call(**{f"s{i}": bad[i], f"s{j}": missing[j]})
            assert (code, out) == (2, "") and f"no such file: {missing[j]}" in err
            if i < j:  # the earlier slot's schema error is the one reported
                code, out, err = call(**{f"s{i}": bad[i], f"s{j}": bad[j]})
                assert (code, out) == (2, "") and f"['slot{i}']" in err
                code, out, err = call(**{f"s{i}": missing[i], f"s{j}": missing[j]})
                assert (code, out) == (2, "") and f"no such file: {missing[i]}" in err


@pytest.mark.parametrize("command", sorted(CHAMBER_SLOTS))
def test_chamber_commands_validate_their_period(capsys, command):
    # the texts are those of rotate and central_charge on the same periods
    flags = CHAMBER_SLOTS[command]
    good = [gamma_payload(A3)] + [KAPPA_MINUS] * (len(flags) - 2)
    zero = [0] * 22
    for period, text in (
        (PERIOD, None),
        ({**PERIOD, "re": zero, "im": zero}, "Omega . conj(Omega) = 0 is not positive"),
        ({**PERIOD, "L": coords(A3)}, "period point and class have different boundary classes"),
    ):
        payloads = [json.dumps(p) for p in (*good, period)]
        code, out, err = run(capsys, command, *(x for pair in zip(flags, payloads) for x in pair))
        if text is None:
            assert (code, err) == (0, "")
        else:
            assert (code, out, err) == (2, "", f"k3dw {command}: {text}\n")


def test_rotate_worked(capsys):
    omega = {"schema": SCHEMA, "omega": coords(E3 + F3)}
    period = {
        "schema": SCHEMA,
        "re": coords(E1 + F1),
        "im": coords(E2 + F2),
        "L": coords(A1),
    }
    angle = {"schema": SCHEMA, "c": 0, "s": 1}
    code, out, _ = run(
        capsys,
        "rotate",
        "--omega",
        json.dumps(omega),
        "--period",
        json.dumps(period),
        "--angle",
        json.dumps(angle),
    )
    assert code == 0
    assert json.loads(out) == {
        "schema": SCHEMA,
        "omega_theta": coords(E1 + F1),
        "Omega_theta": {"re": coords(E3 + F3), "im": coords(-(E2 + F2))},
    }


def test_rotate_rejects_bad_angle(capsys):
    omega = {"schema": SCHEMA, "omega": coords(E3 + F3)}
    period = {
        "schema": SCHEMA,
        "re": coords(E1 + F1),
        "im": coords(E2 + F2),
        "L": coords(A1),
    }
    angle = {"schema": SCHEMA, "c": 1, "s": 1}
    code, _, err = run(
        capsys,
        "rotate",
        "--omega",
        json.dumps(omega),
        "--period",
        json.dumps(period),
        "--angle",
        json.dumps(angle),
    )
    assert code == 2 and "unit circle" in err


def test_check_suite(capsys):
    code, out, _ = run(
        capsys, "check", "--suite", "series-oracle", "--trials", "5", "--seed", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["suite"] == "series-oracle"
    assert report["failure_count"] == 0
    code, out, _ = run(capsys, "check", "--suite", "reality", "--trials", "0")
    assert code == 0 and json.loads(out)["trials"] == 0
    code, _, _ = run(capsys, "check", "--suite", "no-such-suite")
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--suite", "integrality", "--max-divisibility", "0", "--trials", "2"],
            "--max-divisibility must be a positive integer",
        ),
        (
            ["--suite", "reality", "--trials", "-3"],
            "--trials must be a nonnegative integer",
        ),
    ],
    ids=["max-divisibility-0", "negative-trials"],
)
def test_check_flag_ranges_exit_1(capsys, argv, message):
    assert run(capsys, "check", *argv) == (1, "", f"k3dw check: error: {message}\n")


def test_check_series_cap_fires_before_the_series_grows(capsys, monkeypatch):
    monkeypatch.delenv("K3DW_SERIES_CAP", raising=False)
    before = default_table().order
    code, out, err = run(
        capsys, "check", "--suite", "reality", "--trials", "2",
        "--max-divisibility", "1000",
    )
    assert (code, out) == (2, "")
    assert err.startswith("k3dw check: order 101410 exceeds the series cap 100000;")
    assert default_table().order == before


def test_usage_exit_codes(capsys):
    assert run(capsys, )[0] == 1  # no subcommand
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "open", "--gamma", json.dumps(gamma_payload(A3)))[0] == 1


def test_consistency_failures_exit_3(capsys, monkeypatch):
    # route (b) of the BPS extraction reads every series value one too high
    real = walls.yz_coefficient
    monkeypatch.setattr(walls, "yz_coefficient", lambda n, **kw: real(n, **kw) + 1)
    code, _, err = run(
        capsys,
        "bps",
        "--gamma",
        json.dumps(gamma_payload(A3)),
        "--kappa",
        json.dumps(KAPPA_MINUS),
    )
    assert code == 3 and "consistency" in err


def test_deterministic_output(capsys):
    args = (
        "bps",
        "--gamma",
        json.dumps(gamma_payload(2 * E1)),
        "--kappa",
        json.dumps(KAPPA_SCAN),
    )
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_no_floats_anywhere_in_output(capsys):
    for args in (
        ("yz", "--max", "8", "--format", "json"),
        ("walls", "--gamma", json.dumps(gamma_payload(2 * E1))),
        ("bps", "--gamma", json.dumps(gamma_payload(2 * E1)), "--kappa",
         json.dumps(KAPPA_SCAN)),
    ):
        code, out, _ = run(capsys, *args)
        assert code == 0

        def no_floats(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    no_floats(v)
            elif isinstance(node, list):
                for v in node:
                    no_floats(v)

        no_floats(json.loads(out))


def distribution_installed(name):
    try:
        distribution(name)
    except PackageNotFoundError:
        return False
    return True


def test_console_script_registered():
    # The registration's source is the project's own declaration, so this
    # runs from a source checkout without an install.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"k3dw": "k3dw.cli:main_exit"}
    script = EntryPoint(name="k3dw", value=scripts["k3dw"], group="console_scripts")
    assert script.load() is cli.main_exit


@pytest.mark.skipif(
    not distribution_installed("k3dw"),
    reason="the k3dw distribution is not installed (PackageNotFoundError)",
)
def test_console_script_installed():
    eps = entry_points(group="console_scripts")
    (script,) = [e for e in eps if e.name == "k3dw"]
    assert script.value == "k3dw.cli:main_exit"
    assert script.load() is cli.main_exit


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "k3dw.cli", "yz", "--max", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0,1\n1,24\n2,324\n"


def test_cli_import_loads_every_module_and_neither_dataclasses_nor_inspect():
    # bench/child.py wraps the layers right after `import k3dw.cli`, so a
    # module loaded later would lose its metrics; and start-up stays clear of
    # dataclasses, which pulls in inspect, ast, dis and tokenize
    src = PYPROJECT.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, k3dw.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = set(proc.stdout.split())
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)
    stems = [p.stem for p in (src / "k3dw").glob("*.py")]
    assert len(stems) >= 14
    modules = {"k3dw" if s == "__init__" else f"k3dw.{s}" for s in stems}
    assert modules <= loaded, sorted(modules - loaded)


@pytest.mark.parametrize(
    "argv",
    [
        ["yz", "--max", "3000"],
        ["check", "--suite", "lattice", "--trials", "50"],
    ],
)
def test_broken_pipe_exits_1_quietly(argv):
    # the reader is gone before the child writes, as with `| head -c0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "k3dw.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
