"""Run the k3dw benchmark: one workload, or all of them, and print metrics.

    python3 bench/run.py --workload chamber-walk --seed 1 --trace 0
    python3 bench/run.py --workload all --trace 0     # every end-to-end metric
    python3 bench/run.py --workload all --trace 1     # every per-layer metric

The load is a closed loop: one client in one process, each operation starts
when the previous one has ended, and cli-mix children run one at a time.

``--trace 0`` sets up the workload SETUP_REPEATS times (set-up time is the
median), and after each set-up times the next share of the operations, until
the k-th window ends on a whole block with k/SETUP_REPEATS of ``--seconds``
of operation time spent; the last also needs MIN_OPS operations.
``--seconds`` defaults to ``run_seconds`` from BENCHMARK.json.

Other tenants of the host slow it by up to 1.8x for seconds at a time, so
every time is scaled to a reference speed: short calibration chunks run
between operations, each latency is divided by the slow-down of the chunks
next to it, and set-up time by the run's mean slow-down (see
``calibration_chunk``).  Window ends use the scaled time too.  The unscaled
values are printed as well.  Every output is checked, and the outputs of
the first ``trace_ops`` operations are hashed and compared with the digest
recorded for the seed, when one is.

``--trace 1`` runs the first ``trace_ops`` operations untraced, then the same
operations with every layer wrapped, and reports per-layer metrics and the
overhead of tracing.  Spans go to ``.bench_out/`` in the checkout.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any output is wrong,
and 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, child_env, import_k3dw

SETUP_REPEATS = 2
MIN_OPS = 100
# measuring stops this long after start-up, whatever the op count, so that a
# much slower commit still exits within the 180 s a run may take
WALL_LIMIT_S = 150.0
HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".bench_out"
# timed metrics are scaled to the speed at which one calibration chunk takes
# this long, about its time on an idle 2-vCPU Xeon host (see calibration_chunk)
CAL_REF_S = 0.0017
CAL_REPS = 170
CAL_SHARE = 0.05  # calibration time after an operation, as a share of its time
CAL_MIN, CAL_MAX = 3, 16  # chunks after one operation
_CAL_MOD = 7**400
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Outcome:
    """Latencies, failures and digest text of a sequence of operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.texts: list[str] = []
        self.seen: dict[str, str] = {}  # output text by input, across windows
        self.calibration: list[float] = []  # every calibration chunk's seconds
        self.scaled: list[float] = []  # latencies at the reference speed

    @property
    def spent(self) -> float:
        return sum(self.latencies)

    def calibrate(self, chunks: int) -> list[float]:
        times = [calibration_chunk() for _ in range(chunks)]
        self.calibration += times
        return times

    @property
    def slowdown(self) -> float:
        """How much slower than CAL_REF_S the calibration ran, on average."""
        return statistics.fmean(self.calibration) / CAL_REF_S


def calibration_chunk() -> float:
    """Seconds a fixed piece of standard-library work takes now.

    Other tenants of a shared host slow it on and off, for milliseconds to
    seconds at a time, and CPU time slows with wall time.  Chunks run right
    before and after every timed operation (about CAL_SHARE of its time), so
    they see the slow-down the operation saw; the operation's latency is
    divided by their mean time over CAL_REF_S.  The work is like k3dw's
    (tuples of 22 ints, a bilinear form, Fractions, big ints, a dict) but
    uses no k3dw code, so a change to the library leaves it alone.
    """
    t0 = time.perf_counter()
    v = tuple(range(-11, 11))
    total = Fraction(0)
    big = _CAL_MOD - 1
    seen = {}
    for i in range(CAL_REPS):
        w = tuple(a * (i + 3) - b for a, b in zip(v, reversed(v)))
        s = 0
        for j, x in enumerate(w):
            if x:
                s += x * v[21 - j]
        seen[w] = s
        total += Fraction(s, i + 1)
        big = (big * (s | 1) + i) % _CAL_MOD
        v = tuple(x % 61 - 30 for x in w)
    return time.perf_counter() - t0


def _verify(op, out, outcome: Outcome) -> str:
    if isinstance(out, Exception):
        error = f"{type(out).__name__}: {out}"
    else:
        try:
            error = op.check(out)
        except Exception as err:  # a check that cannot run is a failed op
            error = f"check raised {type(err).__name__}: {err}"
    text = "" if error else op.text(out)
    if not error and outcome.seen.setdefault(op.key, text) != text:
        error = "output differs from an earlier run of the same input"
    if error:
        outcome.failed += 1
        outcome.errors.append(f"{op.key}: {error}")
    return text


def measure(plan, stop, outcome=None, run=None, deadline=float("inf")) -> Outcome:
    """Run operations in order until ``stop(count, spent)`` or the deadline
    (a ``perf_counter`` value); check each one.  ``spent`` is operation time
    scaled to the reference speed, so that a busier host does not change
    which operations a run covers; with ``run`` given, no calibration runs
    and it stays 0.

    Given an ``outcome``, the count, the time spent and the operations go on
    from where it ends.  ``run(op)`` replaces ``op.run()``; when it is given,
    outputs are checked only after the loop, so checks never run under the
    tracer.
    """
    outcome = outcome or Outcome()
    outputs = []
    i = len(outcome.latencies)
    after = None
    while not stop(i, sum(outcome.scaled)) and time.perf_counter() < deadline:
        op = plan.ops[i % len(plan.ops)]
        if not run:
            before = after or outcome.calibrate(CAL_MIN)
        t0 = time.perf_counter()
        try:
            out = run(op) if run else op.run()
        except Exception as err:  # an operation that raises counts as failed
            out = err
        latency = time.perf_counter() - t0
        outcome.latencies.append(latency)
        if run:
            outputs.append((op, out))
        else:
            chunks = round(CAL_SHARE * latency / CAL_REF_S)
            after = outcome.calibrate(max(CAL_MIN, min(CAL_MAX, chunks)))
            local = statistics.fmean(before + after) / CAL_REF_S
            outcome.scaled.append(latency / local)
            outcome.texts.append(_verify(op, out, outcome))
        i += 1
    for op, out in outputs:
        outcome.texts.append(_verify(op, out, outcome))
    return outcome


def run_child(argv: list[str], env: dict, tracer: Tracer) -> tuple[int, bytes]:
    """One cli-mix operation through the traced child runner."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"child-{os.getpid()}.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(path), "--", *argv],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=120,
    )
    child = json.loads(path.read_text())
    path.unlink()
    tracer.merge(child, (child["start"] - started) * 1e3)
    return proc.returncode, proc.stdout


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def check_digest(workload: str, seed: int, value: str) -> str | None:
    """An error when a digest was recorded for this seed and differs."""
    recorded = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.is_file() else {}
    want = recorded.get(str(seed))
    if want is None:
        print(f"  (no recorded digest for {workload} seed {seed})")
        return None
    return None if want == value else f"digest {value[:12]} != recorded {want[:12]}"


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def set_up(name: str, seed: int, k3dw):
    """A fresh plan and the seconds its set-up took."""
    gc.collect()
    t0 = time.perf_counter()
    plan = WORKLOADS[name](seed, k3dw)
    return plan, time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, k3dw) -> dict:
    deadline = time.perf_counter() + WALL_LIMIT_S
    if not trace:
        outcome, setups, plan = Outcome(), [], None
        for k in range(1, SETUP_REPEATS + 1):
            plan = None  # freed before the next set-up runs
            plan, took = set_up(name, seed, k3dw)
            setups.append(took)
            last = k == SETUP_REPEATS
            measure(
                plan,
                lambda i, spent: spent >= seconds * k / SETUP_REPEATS
                and i % plan.block == 0
                and (i >= MIN_OPS or not last),
                outcome=outcome,
                deadline=deadline,
            )
        n = plan.trace_ops
        lat = outcome.latencies
        slow = outcome.slowdown

        def timings(latencies, setup):
            return {
                "setup_s": setup,
                "ops_per_s": len(latencies) / sum(latencies),
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            }

        wall = timings(lat, statistics.median(setups))
        metrics = timings(outcome.scaled, wall["setup_s"] / slow)
        metrics["peak_rss_mb"] = peak_rss_mb(name == "cli-mix")
        units = dict(END_TO_END)
        print(f"  host slow-down {slow:.3f} (calibration chunks {len(outcome.calibration)});"
              " unscaled: " + ", ".join(f"{k} {v:.4f}" for k, v in wall.items()))
    else:
        plan, _ = set_up(name, seed, k3dw)
        n = plan.trace_ops
        outcome = measure(plan, lambda i, spent: i >= n, deadline=deadline)
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            WORKLOADS[name](seed, k3dw)
        finally:
            setup_tracer.uninstall()
        tracer = Tracer()
        if name == "cli-mix":
            env = child_env()

            def traced(op):
                tracer.op += 1
                return run_child(op.argv, env, tracer)
        else:
            tracer.install()

            def traced(op):
                tracer.op += 1
                return op.run()

        try:
            traced_outcome = measure(
                plan, lambda i, spent: i >= n, run=traced, deadline=deadline
            )
        finally:
            tracer.uninstall()
        outcome.failed += traced_outcome.failed
        outcome.errors += traced_outcome.errors
        if traced_outcome.texts != outcome.texts:
            outcome.errors.append("traced outputs differ from untraced outputs")
        layers = layer_metrics(tracer, setup_tracer, n)
        if traced_outcome.spent:
            layers["trace.overhead_ratio"] = (
                1 - outcome.spent / traced_outcome.spent, "ratio"
            )
        metrics = {k: v for k, (v, _) in layers.items()}
        units = {k: u for k, (_, u) in layers.items()}
        write_spans(name, seed, tracer)
        outcome.latencies += traced_outcome.latencies
    if len(outcome.texts) >= n:
        error = check_digest(name, seed, digest(outcome.texts[:n]))
        if error:
            outcome.errors.append(error)
    attempted, failed = len(outcome.latencies), outcome.failed
    print(f"{name}  seed {seed}  ops {attempted}  failed {failed}")
    if plan.note:
        print(f"  {plan.note}")
    for error in outcome.errors[:10]:
        print(f"  FAIL {error}")
    for key, value in metrics.items():
        print(f"  {key:<28} {value:>14.4f} {units[key]}")
    print(f"  {'failed_ratio':<28} {failed / attempted:>14.4f} ratio")
    return {
        "correct": not outcome.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_spans(name: str, seed: int, tracer: Tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    with path.open("w") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("K3DW_SERIES_CAP", None)
    k3dw = import_k3dw()
    if k3dw is None:
        sys.stderr.write(f"error: no k3dw sources under {ROOT / 'src'}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), k3dw)
        correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
