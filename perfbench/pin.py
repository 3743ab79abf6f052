"""Rewrite answers.json from the default seed of every workload.

    python3 perfbench/pin.py

Run it from the root of a checkout only when an output format changes on
purpose.  Every answer must first pass the benchmark's own checks; the
table then pins the exit code and stdout sha256 of each operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import checks
from run import WORKLOADS, Bench

UNPINNED = "no pinned answer for a seed-independent operation"


def main() -> int:
    root = Path.cwd()
    tmp = root / ".perfbench_tmp" / f"pin-{os.getpid()}"
    tmp.mkdir(parents=True)
    answers: dict[str, dict] = {}
    try:
        bench = Bench(root, 0, tmp)
        bench.pinned = {}
        for workload in WORKLOADS:
            ops, cache, _ = bench.setup(workload, 1)
            _, results = bench.run_pass(ops, cache)
            for r in results:
                problems = [p for p in r.get("problems", ["no answer"]) if p != UNPINNED]
                if problems:
                    print(f"{r['op_id']}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                answers[r["key"]] = {"exit": r["exit"], "sha256": r["stdout_sha256"]}
    finally:
        shutil.rmtree(tmp)
    checks.ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(answers)} answers in {checks.ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
