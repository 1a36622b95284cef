"""Compare two commits on the benchmark, by the rule for claiming a gain.

    python3 bench/compare.py --parent ../k3dw-parent --change . --pairs 10
    python3 bench/compare.py --results .bench_out/compare.jsonl

The first form runs ``bench/run.py`` in both checkouts, for every workload,
``--pairs`` times with seeds ``--seed``, ``--seed`` + 1, ...; the side that
runs first alternates from pair to pair.  Both checkouts must hold the same
benchmark code, and the parent's ``bench/digests.json`` must have a digest
for every seed, so that every run also checks that the outputs are
unchanged.  The default seeds, 1 to 10, are those of ``bench/baseline.json``.
Every result is appended to ``--results`` and then reported; the second
form only reports.

For each workload and end-to-end metric the report gives each side's median
and quartiles, the pairs the change won (ties count for neither side) and a
verdict:

* ``better``: at least MIN_PAIRS pairs ran, the change won at least 9/10 of
  them, and its median beats the parent's by more than the parent's spread
  (third minus first quartile);
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound from BENCHMARK.json;
* ``unresolved``: the parent's spread exceeds the bound, unless every change
  run beats every parent run;
* ``same``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = ("run.py", "workloads.py", "tracing.py", "child.py")
MIN_PAIRS = 10


def same_benchmark(a: Path, b: Path) -> bool:
    return all(
        (a / "bench" / f).read_bytes() == (b / "bench" / f).read_bytes()
        for f in BENCH_FILES
    )


def missing_digests(checkout: Path, seeds: range) -> list[str]:
    recorded = json.loads((checkout / "bench" / "digests.json").read_text())
    return [
        f"{w['name']} seed {s}" for w in SPEC["workloads"] for s in seeds
        if str(s) not in recorded.get(w["name"], {})
    ]


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def collect(parent: Path, change: Path, pairs: int, seed: int, results: Path) -> None:
    workloads = [w["name"] for w in SPEC["workloads"]]
    with results.open("a") as out:
        for p in range(pairs):
            sides = [("parent", parent), ("change", change)]
            if p % 2:
                sides.reverse()
            for workload in workloads:
                for side, checkout in sides:
                    result = run_side(checkout, workload, seed + p)
                    row = {"pair": p, "side": side, "workload": workload,
                           "seed": seed + p, "result": result}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print(f"pair {p} {workload} {side}: correct={result['correct']}",
                          flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            bound: float, lower_is_better: bool) -> str:
    sign = -1 if lower_is_better else 1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    everywhere = all(sign * (c - p) > 0 for c in change for p in parent)
    if gain < -bound * abs(pm):
        return "worse"
    if (p3 - p1) > bound * abs(pm) and not everywhere:
        return "unresolved"
    if pairs >= MIN_PAIRS and wins >= 0.9 * pairs and gain > p3 - p1:
        return "better"
    return "same"


def report(results: Path) -> int:
    rows = [json.loads(line) for line in results.read_text().splitlines() if line]
    failures = [r for r in rows if not r["result"]["correct"] or r["result"]["failed"]]
    print(f"{'workload':<14} {'metric':<12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for workload in dict.fromkeys(r["workload"] for r in rows):
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            by_pair: dict[int, dict[str, float]] = {}
            for r in rows:
                if r["workload"] == workload and name in r["result"]["metrics"]:
                    value = r["result"]["metrics"][name]["value"]
                    by_pair.setdefault(r["pair"], {})[r["side"]] = value
            full = [v for v in by_pair.values() if len(v) == 2]
            if not full:
                continue
            lower = metric["better"] == "lower"
            parent = [v["parent"] for v in full]
            change = [v["change"] for v in full]
            wins = sum((v["change"] < v["parent"]) if lower else
                       (v["change"] > v["parent"]) for v in full)
            cells = []
            for values in (parent, change):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {metric['unit']}")
            word = verdict(parent, change, wins, len(full), metric["bound"], lower)
            print(f"{workload:<14} {name:<12} {cells[0]:>32} {cells[1]:>32} "
                  f"{wins:>3}/{len(full):<2}  {word}")
    for r in failures:
        print(f"FAILED: pair {r['pair']} {r['workload']} {r['side']}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--results", type=Path, default=ROOT / ".bench_out" / "compare.jsonl")
    args = parser.parse_args(argv)
    if (args.parent is None) != (args.change is None):
        parser.error("give both --parent and --change, or neither")
    if args.parent is not None:
        if not same_benchmark(args.parent, args.change):
            parser.error("the two checkouts hold different benchmark code")
        missing = missing_digests(args.parent, range(args.seed, args.seed + args.pairs))
        if missing:
            parser.error(f"no recorded digest for {', '.join(missing)}")
        args.results.parent.mkdir(exist_ok=True)
        collect(args.parent, args.change, args.pairs, args.seed, args.results)
    return report(args.results)


if __name__ == "__main__":
    sys.exit(main())
