"""Self-check: a wrong pinned digest must show up as a failed operation.

    python3 perfbench/selfcheck.py

Run it from the root of a checkout.  It runs four cheap operations of the
queries workload twice: once against the pinned table as committed, where
none may fail, and once with one digest deliberately corrupted, where
exactly that operation must fail while the run goes on.  Exit code 0 means
the answer gate works.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

from run import Bench

PICK = ("dyck-n10", "sequences-20", "signature-132-n10", "enumerate-hit-132-321")


def fail_frac(root: Path, tmp: Path, corrupt: str | None) -> tuple[int, list]:
    bench = Bench(root, 0, tmp)
    ops, cache, _ = bench.setup("queries", 1)
    ops = [op for op in ops if op["op_id"] in PICK]
    if corrupt is not None:
        key = next(" ".join(op["argv"]) for op in ops if op["op_id"] == corrupt)
        bench.pinned[key] = dict(bench.pinned[key], sha256="0" * 64)
    bench.run_pass(ops, cache)
    return bench.attempted, bench.failures


def main() -> int:
    root = Path.cwd()
    tmp = root / ".perfbench_tmp" / f"selfcheck-{os.getpid()}"
    try:
        attempted, clean = fail_frac(root, tmp / "clean", None)
        print(f"pinned table as committed: fail_frac {len(clean)}/{attempted}")
        _, broken = fail_frac(root, tmp / "corrupt", "sequences-20")
        print(f"one digest corrupted:      fail_frac {len(broken)}/{attempted} {broken}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ok = (attempted == len(PICK) and not clean
          and [op_id for op_id, _ in broken] == ["sequences-20"])
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
