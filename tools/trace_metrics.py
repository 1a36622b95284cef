"""Check that a traced benchmark run reports every per-layer metric.

    python3 bench/run.py --workload all --seed 0 --seconds 2 --trace 1 > trace.txt
    python tools/trace_metrics.py trace.txt      # or pipe the run's output in

For each workload bench/run.py prints a header line "<workload>  seed ..."
and, after its metrics, one JSON result line.  This reads those lines and
exits 1 when a workload of BENCHMARK.json printed no result, or when a
result lacks a per_layer metric that BENCHMARK.json names.  The tracer
leaves out a metric whose wrapped target it did not find (bench/tracing.py),
so a function renamed away from it, or a module first imported after it is
installed, shows up here as a missing name.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def missing_metrics(lines, benchmark: dict) -> dict[str, list[str]]:
    """{workload: per_layer names absent from its result}, for every workload
    of the benchmark; a workload with no result line misses every name."""
    names = [m["name"] for m in benchmark["per_layer"]]
    workloads = [w["name"] for w in benchmark["workloads"]]
    found: dict[str, set] = {}
    current = None
    for line in lines:
        head = line.split("  seed ", 1)[0]
        if head in workloads:
            current = head
        elif line.startswith("{") and current is not None:
            found[current] = set(json.loads(line)["metrics"])
            current = None
    return {
        w: [n for n in names if n not in found.get(w, ())] for w in workloads
    }


def main(argv: list[str]) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    text = Path(argv[0]).read_text() if argv else sys.stdin.read()
    missing = missing_metrics(text.splitlines(), benchmark)
    for workload, names in missing.items():
        if names:
            print(f"{workload}: {len(names)} per-layer metrics missing: {', '.join(names)}")
        else:
            print(f"{workload}: all {len(benchmark['per_layer'])} per-layer metrics present")
    return 1 if any(missing.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
