"""The stacksort benchmark: CLI workloads end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload {scan,verify,queries,all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ./src.

Every operation is `python3 -m stacksort.cli ...` in a fresh process, run
in a closed loop with one client: the next operation starts when the
previous one has finished.  The child environment drops
STACKSORT_CACHE_DIR and XDG_CACHE_HOME and every enumerate gets an
explicit --cache-dir under ./.perfbench_tmp, so no user cache can turn a
scan into cache hits.  Each answer is checked (checks.py); a wrong answer
or exit code counts as a failed operation and never stops the run.

--trace 0 runs whole passes of the workload's schedule for --seconds
(at least one) and prints the end-to-end metrics.  --trace 1 runs one
untraced pass of the workload, then traced passes of all three workloads
(each operation in a fresh process that records spans around the layer
calls, see spans.py) and the layer timings of layers.py, and prints the
per-layer metrics, each layer's self time, the share of the workload's
wall time the spans cover, and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report
and the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import schedule
import spans

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 5
OP_TIMEOUT_S = 150
TAIL_BEYOND = 10
IMPORT_REPS = 5
WORKLOADS = tuple(schedule.WORKLOADS)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The mean of the samples beyond the highest percentile that has at
    least TAIL_BEYOND samples beyond it, as (value, percentile, samples);
    the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return statistics.fmean(ordered[rank:]), 100.0 * rank / n, n


def run_record(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "not a git checkout"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((root / "src" / "stacksort").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "limits": [
            "nothing controls CPU frequency or the load of neighbouring processes",
            "CPUs are not pinned and the page cache is not dropped; "
            "an unprivileged process cannot do either",
        ],
    }


class Bench:
    def __init__(self, root: Path, seed: int, tmp: Path) -> None:
        self.root, self.seed, self.tmp = root, seed, tmp
        self.src = root / "src"
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("STACKSORT_CACHE_DIR", "XDG_CACHE_HOME", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(self.src)
        self.pinned = checks.load_answers()
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self._dirs = 0

    def fresh_dir(self, tag: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{tag}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def python(self, args: list, timeout: float = OP_TIMEOUT_S) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *map(str, args)], env=self.env,
                              capture_output=True, text=True, timeout=timeout)

    def record(self, op_id: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((op_id, problems))

    # ---- set-up --------------------------------------------------------

    def setup(self, workload: str, reps: int) -> tuple[list[dict], Path, list[float]]:
        """Import, input generation and (queries) the read cache, `reps` times
        in fresh processes; the last repetition's cache is the one used."""
        times, schedules, cache = [], [], None
        for _ in range(reps):
            if cache is not None:
                shutil.rmtree(cache)
            cache = self.fresh_dir(f"{workload}-read-cache")
            start = time.perf_counter()
            proc = self.python([BENCH / "schedule.py", workload, self.seed, cache, self.src])
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise BenchError(f"set-up of {workload} failed:\n{proc.stderr}")
            schedules.append(proc.stdout)
        if len(set(schedules)) != 1:
            raise BenchError("set-up is not deterministic for one seed")
        return json.loads(schedules[0]), cache, times

    # ---- operations ----------------------------------------------------

    def run_op(self, op: dict, cache: Path, images: dict, traced: bool) -> dict:
        """Run one operation; its answer is checked later, outside the timing."""
        op = dict(op)
        result = {"op": op, "op_id": op["op_id"], "kind": op["kind"], "latency": math.nan,
                  "cache_dir": None}
        argv = list(op["argv"])
        if op["perm_from"]:
            image = images.get(op["perm_from"])
            if image is None:
                result["problems"] = [f"{op['perm_from']} gave no image"]
                return result
            argv = [schedule.fmt(image) if a == "{perm}" else a for a in argv]
        op["key"] = result["key"] = " ".join(argv)
        if "--perm" in argv:
            op["perm"] = checks.parse_word(argv[argv.index("--perm") + 1])
        if op["cache"] == "fresh":
            result["cache_dir"] = self.fresh_dir(op["op_id"])
            argv += ["--cache-dir", str(result["cache_dir"])]
        elif op["cache"] == "shared":
            argv += ["--cache-dir", str(cache)]
        cmd = [BENCH / "spans.py", op["op_id"], *argv] if traced else ["-m", "stacksort.cli", *argv]
        start = time.perf_counter_ns()
        try:
            proc = self.python(cmd)
        except subprocess.TimeoutExpired:
            result["problems"] = [f"no answer within {OP_TIMEOUT_S} s"]
            return result
        end = time.perf_counter_ns()
        result.update(start=start, end=end, latency=(end - start) / 1e9)
        if traced:
            try:
                data = json.loads(proc.stdout)
            except ValueError:
                result["problems"] = [f"traced child failed: {proc.stderr[-500:]}"]
                return result
            result.update(exit=data["exit"], stdout=data["stdout"], stderr=data["stderr"],
                          spans=data["spans"], cache_hits=data["cache_hits"])
        else:
            result.update(exit=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)
        if op["kind"] == "west-map" and result["exit"] == 0:
            try:
                images[op["op_id"]] = checks.parse_word(result["stdout"].splitlines()[0])
            except (ValueError, IndexError):
                pass
        return result

    def run_pass(self, ops: list[dict], cache: Path, traced: bool = False,
                 keep_dirs: bool = False) -> tuple[float, list[dict]]:
        """Run the operations back to back, then check every answer."""
        images: dict = {}
        start = time.perf_counter()
        results = [self.run_op(op, cache, images, traced) for op in ops]
        wall = time.perf_counter() - start
        for r in results:
            if "problems" not in r:
                files = sorted(r["cache_dir"].glob("*.json")) if r["cache_dir"] else None
                r["stdout_sha256"] = checks.digest(r["stdout"].encode())
                r["problems"] = checks.check_answer(
                    r["op"], r["exit"], r["stdout"], r["stderr"], self.pinned, files)
        by_id = {r["op_id"]: r for r in results}
        for r in results:
            other = r["op"]["check"].get("same_stdout_as")
            if other and r.get("stdout_sha256") != by_id[other].get("stdout_sha256"):
                r["problems"].append(f"stdout differs from {other}")
            self.record(r["op_id"], r["problems"])
            if r["cache_dir"] and not keep_dirs:
                shutil.rmtree(r["cache_dir"])
        return wall, results

    # ---- the timed run -------------------------------------------------

    def timed(self, workload: str, seconds: float) -> tuple[dict, list[str]]:
        ops, cache, setup_times = self.setup(workload, SETUP_REPS)
        deadline = time.perf_counter() + seconds
        passes = []
        while True:
            passes.append(self.run_pass(ops, cache))
            if deadline - time.perf_counter() < passes[-1][0]:
                break
        walls = [wall for wall, _ in passes]
        lat = [[r["latency"] for r in results if not math.isnan(r["latency"])]
               for _, results in passes]
        if not all(lat):
            raise BenchError("no operation of a pass completed")
        # The tail is the mean beyond the percentile, not the percentile: p80
        # of queries falls on the edge between the cheap queries and the ten
        # that build a signature index or Dyck paths, so it moved by 14%
        # between runs of the same code.  Each operation counts with its
        # median over the passes, so one slow process start does not count.
        by_op = zip(*([r["latency"] for r in results] for _, results in passes))
        op_medians = [statistics.median(ok) for ok in
                      ([x for x in runs if not math.isnan(x)] for runs in by_op) if ok]
        tail_s, pct, samples = tail(op_medians)
        wall_s = statistics.median(walls)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "query_p50_s": (statistics.median(statistics.median(x) for x in lat), "s"),
            "query_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        }
        report = [
            f"workload {workload}: {len(ops)} operations per pass, {len(passes)} pass(es), "
            f"seed {self.seed}, closed loop with one client",
            f"  setup_s       {metrics['setup_s'][0]:.4f} s  (median of {SETUP_REPS})",
            f"  wall_s        {wall_s:.4f} s  (median pass)",
        ]
        if workload == "scan":
            perms = sum(math.factorial(int(op["argv"][op["argv"].index("--n") + 1]))
                        for op in ops)
            report.append(f"  perms_per_s   {perms / wall_s:.1f} 1/s  "
                          f"({perms} permutations per pass)")
        report += [
            f"  query_p50_s   {metrics['query_p50_s'][0]:.4f} s  "
            "(median over passes of the pass median)",
            f"  query_tail_s  {metrics['query_tail_s'][0]:.4f} s  "
            f"({'max' if pct == 100 else f'mean beyond p{pct:.0f}'} of {samples} operations, "
            "each its median over passes)",
            f"  fail_frac     {len(self.failures)}/{self.attempted} = "
            f"{len(self.failures) / self.attempted:.4f}",
            f"  peak_rss_mb   {metrics['peak_rss_mb'][0]:.1f} MB  (largest child, getrusage)",
        ]
        return metrics, report

    # ---- the traced run ------------------------------------------------

    def cli_import_s(self) -> float:
        def median_start(code: str) -> float:
            times = []
            for _ in range(IMPORT_REPS):
                start = time.perf_counter()
                if self.python(["-c", code]).returncode != 0:
                    raise BenchError(f"python -c {code!r} failed")
                times.append(time.perf_counter() - start)
            return statistics.median(times)

        return median_start("import stacksort.cli") - median_start("pass")

    def traced(self, workload: str) -> tuple[dict, list[str]]:
        ops = {}
        caches = {}
        for name in WORKLOADS:
            ops[name], caches[name], _ = self.setup(name, 1)
        untraced_wall, untraced = self.run_pass(ops[workload], caches[workload])
        passes = {}
        for name in WORKLOADS:
            passes[name] = self.run_pass(ops[name], caches[name], traced=True,
                                         keep_dirs=name == "scan")
        spec = {
            "trace_inputs": [[op["check"]["perm"], op["check"]["machine"]]
                             for op in ops["queries"] if op["kind"] == "trace"],
            "sequences_n_max": schedule.QUERY_LENGTHS["sequences"],
            "scan_cache": [[r_op["check"]["machine"], r_op["check"]["n"], str(r["cache_dir"])]
                           for r_op, r in zip(ops["scan"], passes["scan"][1])],
        }
        proc = self.python([BENCH / "layers.py", json.dumps(spec)])
        if proc.returncode != 0:
            raise BenchError(f"layer timings failed:\n{proc.stderr}")
        layers = json.loads(proc.stdout)
        self.record("layers", layers["problems"])
        for r in passes["scan"][1]:
            shutil.rmtree(r["cache_dir"])
        import_s = self.cli_import_s()
        return self.layer_metrics(workload, untraced_wall, untraced, passes, layers, import_s)

    def layer_metrics(self, workload, untraced_wall, untraced, passes, layers, import_s):
        def total(spans_, name):
            return sum((s["end"] - s["start"]) / 1e9 for s in spans_ if s["name"] == name)

        lay = layers["spans"]
        counts = layers["counts"]
        m: dict[str, tuple[float, str]] = {
            "machine.pass_s": (total(lay, "machine.pass"), "s"),
            "machine.is_sortable_s": (total(lay, "machine.is_sortable"), "s"),
            "machine.west_pass_s": (total(lay, "machine.west_pass"), "s"),
            "machine.blocked_pops": (counts["blocked_pops"], "count"),
            "machine.sortable_frac": (counts["sortable"] / counts["scanned"], "ratio"),
            "machine.trace_s": (total(lay, "machine.trace"), "s"),
            "perms.avoiders_s": (total(lay, "perms.avoiders"), "s"),
            "perms.avoiders_emitted": (counts["avoiders_emitted"], "count"),
            "perms.contains_s": (total(lay, "perms.contains"), "s"),
            "signatures.signature_s": (total(lay, "signatures.signature"), "s"),
            "signatures.west_map_cold_s": (total(lay, "signatures.west_map.cold"), "s"),
            "signatures.west_map_warm_s": (statistics.median(
                (s["end"] - s["start"]) / 1e9 for s in lay
                if s["name"] == "signatures.west_map.warm"), "s"),
            "dyck.rotem_map_s": (total(lay, "dyck.rotem_map"), "s"),
            "dyck.paths_s": (total(lay, "dyck.paths"), "s"),
            "dyck.count_avoiding_s": (total(lay, "dyck.count_avoiding"), "s"),
            "sequences.tables_s": (total(lay, "sequences.tables"), "s"),
            "harness.cache_load_s": (total(lay, "harness.cache_load"), "s"),
            "cli.import_s": (import_s, "s"),
        }
        scan = {r["op_id"]: r for r in passes["scan"][1]}
        engine = {op_id: total(r.get("spans", []), "harness.enumerate_sortable")
                  for op_id, r in scan.items()}
        m["harness.enumerate_s"] = (sum(v for k, v in engine.items() if not k.endswith("-w2")), "s")
        for op_id in sorted(engine):
            m[f"harness.enumerate_s.{op_id}"] = (engine[op_id], "s")
        w1, w2 = engine["enumerate-132-321-n9-w1"], engine["enumerate-132-321-n9-w2"]
        m["harness.pool_speedup"] = (w1 / w2 if w2 else 0.0, "ratio")
        m["harness.cache_store_s"] = (
            sum(total(r.get("spans", []), "harness.cache_store") for r in scan.values()), "s")
        verify_spans = [s for r in passes["verify"][1] for s in r.get("spans", [])]
        for suite in ("characterization", "west", "dyck", "structure", "tables", "conjecture"):
            m[f"harness.suite_s.{suite}"] = (total(verify_spans, f"harness.suite.{suite}"), "s")
        by_kind: dict[str, list[float]] = {}
        for r in passes["queries"][1]:
            by_kind.setdefault(r["kind"], []).append(total(r.get("spans", []), "cli.run"))
        for kind, values in sorted(by_kind.items()):
            m[f"cli.run_s.{kind}"] = (statistics.median(values), "s")

        # self time per layer over the three traced passes; coverage and
        # overhead for this workload's pass
        nested = {}
        for name, (_, results_) in passes.items():
            tree = nested[name] = []
            for r in results_:
                if "spans" not in r:
                    continue
                base = len(tree)
                tree.append({"id": base, "parent": None, "name": f"process.{r['kind']}",
                             "start": r["start"], "end": r["end"], "op": r["op_id"]})
                tree.extend(dict(s, id=base + 1 + s["id"],
                                 parent=base if s["parent"] is None else base + 1 + s["parent"])
                            for s in r["spans"])
        selfs = {name: spans.self_times(tree) for name, tree in nested.items()}
        for layer in spans.LAYERS:
            m[f"self_s.{layer}"] = (sum(selfs[name][layer] for name in selfs), "s")
        traced_wall, results = passes[workload]
        all_spans = nested[workload]
        covered = sum((s["end"] - s["start"]) / 1e9 for s in all_spans
                      if s["parent"] is not None and all_spans[s["parent"]]["parent"] is None)
        m["trace.coverage"] = (covered / untraced_wall, "ratio")
        m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        m["trace.spans"] = (sum(map(len, nested.values())), "count")
        own = selfs[workload]

        report = [
            f"traced run of workload {workload}, seed {self.seed}",
            f"  untraced pass {untraced_wall:.3f} s, traced pass {traced_wall:.3f} s, "
            f"overhead {traced_wall - untraced_wall:+.3f} s",
            f"  spans inside the CLI processes cover {covered / untraced_wall:.1%} "
            f"of the untraced wall_s; the rest is interpreter start and exit (process)",
            "  self time by layer: " + ", ".join(
                f"{layer} {own[layer]:.3f} s" for layer in spans.LAYERS),
            "  calls that ran warm, as hits on process-level caches:",
        ]
        for name, (_, results_) in passes.items():
            hits = Counter()
            for r in results_:
                hits.update(r.get("cache_hits", {}))
            report.append(f"    traced {name} pass: {dict(+hits) or 'none'}")
        report.append(f"    layer timings: {layers['cache_hits']}; "
                      "signatures.west_map_warm_s reuses the index its cold call built")
        if workload == "queries":
            bare = statistics.median(
                r["latency"] - total(r.get("spans", []), "cli.import")
                - total(r.get("spans", []), "cli.run") for r in results if "spans" in r)
            for kind, values in sorted(by_kind.items()):
                measured = statistics.median(r["latency"] for r in untraced if r["kind"] == kind)
                report.append(
                    f"  {kind:<14} untraced {measured:.4f} s ~ start+exit {bare:.4f} "
                    f"+ cli.import_s {import_s:.4f} + cli.run_s {statistics.median(values):.4f}")
        return m, report


def run_workload(bench: Bench, workload: str, seconds: float, trace: bool) -> dict:
    metrics, report = bench.traced(workload) if trace else bench.timed(workload, seconds)
    for op_id, problems in bench.failures:
        report.append(f"  FAILED {op_id}: {'; '.join(problems)}")
    print("\n".join(report))
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "stacksort" / "cli.py").is_file():
        print("error: run from the root of a stacksort checkout (no src/stacksort)",
              file=sys.stderr)
        return 2
    tmp = root / ".perfbench_tmp" / f"{os.getpid()}"
    try:
        print("record " + json.dumps(run_record(root)))
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            tmp.mkdir(parents=True)
            try:
                result = run_workload(Bench(root, args.seed, tmp), workload,
                                      args.seconds, bool(args.trace))
            finally:
                shutil.rmtree(tmp)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tmp.parent.exists() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
