"""Mutation gate: every mutant in tools/mutants.json must fail tier-1.

    python tools/mutation_gate.py

Copies the tree to a temporary directory, checks that tier-1 passes there
unmutated, then applies one mutant at a time to its module in src/k3dw and
runs tier-1 with -x.  A mutant is an exact text substitution; its old text
must occur exactly once in the module, so a refactor that moves the code
updates the list instead of silently skipping the mutant.

Under -x tier-1 names only the first failing test, so a mutant may also
carry a "test" field: a pytest node id (a file, or file::test) written to
catch it.  After a kill the gate runs that node alone on the mutated tree,
and reports the mutant STRAY if the node passes.  Every named node must pass
on the unmutated tree, which also rejects a node id that names nothing.

Exits 0 when every mutant is killed, 1 on any survivor, any stray, any
mutant whose old text no longer matches, or when the unmutated tree fails
tier-1 or a named node.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
TIMEOUT_S = 600
TIER1 = ("-x", "--continue-on-collection-errors")


def run_pytest(tree: Path, *args: str) -> tuple[int, str]:
    """(exit code, first FAILED line) of pytest with args in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines() or [""]
    failed = [ln for ln in lines if ln.startswith(("FAILED", "ERROR"))]
    return proc.returncode, (failed or lines[-1:])[0]


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    with tempfile.TemporaryDirectory(prefix="k3dw-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".bench_out")
        shutil.copytree(ROOT, tree, ignore=skip)
        code, detail = run_pytest(tree, *TIER1)
        if code != 0:
            print(f"unmutated tree fails tier-1 (exit {code}): {detail}")
            return 1
        nodes = sorted({m["test"] for m in mutants if "test" in m})
        code, detail = run_pytest(tree, *nodes) if nodes else (0, "")
        if code != 0:
            print(f"unmutated tree fails a named node (exit {code}): {detail}")
            return 1
        bad = 0
        for i, m in enumerate(mutants, 1):
            path = tree / "src" / "k3dw" / f"{m['module']}.py"
            source = path.read_text()
            if source.count(m["old"]) != 1:
                print(f"[{i:2}] STALE     {m['module']}: {m['why']} "
                      f"(old text found {source.count(m['old'])} times)")
                bad += 1
                continue
            path.write_text(source.replace(m["old"], m["new"]))
            start = time.perf_counter()
            try:
                code, detail = run_pytest(tree, *TIER1)
                verdict = "SURVIVED" if code == 0 else "killed"
                if code and "test" in m:
                    alone = "passes" if run_pytest(tree, m["test"])[0] == 0 else "fails"
                    verdict = "STRAY" if alone == "passes" else verdict
                    detail = f"{detail}; {m['test']} {alone} alone"
            except subprocess.TimeoutExpired:
                verdict, detail = "killed", f"timed out after {TIMEOUT_S} s"
            finally:
                path.write_text(source)
            bad += verdict != "killed"
            print(f"[{i:2}] {verdict:9} {m['module']}: {m['why']} "
                  f"({time.perf_counter() - start:.1f} s) {detail}", flush=True)
    print(f"{len(mutants)} mutants, {bad} survived, stray or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
