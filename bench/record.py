"""Record the benchmark's reference data for the commit in the checkout.

    python3 bench/record.py digests --seeds 0-20
    python3 bench/record.py baseline --seeds 1-10

``digests`` runs the first ``trace_ops`` operations of each workload for each
seed, checks them, and writes the hash of their outputs to
``bench/digests.json``; every later run with one of these seeds must
reproduce it.  ``baseline`` runs ``bench/run.py`` once per workload and
seed, and writes every result, the median and quartiles of each metric, and
the machine's facts to ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import digest, measure
from workloads import ROOT, WORKLOADS, import_k3dw

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_digests(seeds: list[int]) -> int:
    os.environ.pop("K3DW_SERIES_CAP", None)
    k3dw = import_k3dw()
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    for name, build in WORKLOADS.items():
        for seed in seeds:
            plan = build(seed, k3dw)
            outcome = measure(plan, lambda i, spent: i >= plan.trace_ops)
            if outcome.errors:
                print(f"{name} seed {seed}: {outcome.errors[:3]}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = digest(outcome.texts)
            print(f"{name} seed {seed}: {table[name][str(seed)][:16]}", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.is_file() else []
    model = next(
        (line.split(":", 1)[1].strip() for line in lines
         if line.startswith("model name")),
        platform.processor(),
    )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "commit": commit or "unknown",
    }


def record_baseline(seeds: list[int]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for w in spec["workloads"]:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": w["name"], "seed": seed, "result": result})
            print(w["name"], seed, {k: round(v["value"], 4)
                                    for k, v in result["metrics"].items()}, flush=True)
            if proc.returncode or not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
    summary = {}
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in runs if r["workload"] == w["name"]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            summary.setdefault(w["name"], {})[m["name"]] = {
                "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                "bound": m["bound"], "unit": m["unit"],
            }
    baseline = {"machine": machine(), "run_seconds": spec["run_seconds"],
                "seeds": seeds, "summary": summary, "runs": runs}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("digests", "baseline"))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    if args.what == "digests":
        return record_digests(args.seeds)
    return record_baseline(args.seeds)


if __name__ == "__main__":
    sys.exit(main())
