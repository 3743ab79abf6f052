"""The enumeration engine, its result cache, and verification reports.

``enumerate_sortable`` scans S_n for the permutations one machine sorts.
Scans partition S_n by first entry into n blocks.  Blocks are merged in
first-entry order and the merge is plain summation, so results do not
depend on how many workers processed them; reports and results serialize
to the same bytes whatever the worker count.  ``enumerate_cached`` answers
from a checksummed file per (machine, n) when it can and scans otherwise.
Lengths above ``perms.DEFAULT_GENERATION_CAP`` are refused before any scan.

``_report`` builds every suite's report from the claims it declares and
the failures it yields.  ``conjecture_tables`` compares the (132,213) and
(213,312) machines on each statistic of ``STATISTICS``; that tuple alone
names the statistics, their claim ids, JSON keys and text labels.  A failed
check is reported with counterexamples rather than raised, so a false claim
shows up loudly in the report and in the exit code without taking the rest
of the suite down with it; a claim whose length range is empty is reported
as skipped.

Importing this module loads only ``perms``.  The engine loads ``machine``
when it scans and ``run_suites`` loads ``suites`` when it first runs, so a
cache hit touches no other layer.  The names of ``suites`` still resolve
here, through the module ``__getattr__``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .perms import (
    DEFAULT_GENERATION_CAP,
    LengthTooLarge,
    PATTERN_132,
    PATTERN_213,
    PATTERN_312,
    PatternSet,
    Permutation,
    SUITE_CAPS,
    _Frozen,
    format_permutation,
    index_of,
    parse_permutation,
    pattern_name,
)

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

#: Above this length, enumerate_sortable and enumerate_single_machine drop
#: the witnesses and return the count alone.
WITNESS_DEFAULT_MAX = 8

ENGINE_VERSION = "1"
CACHE_ENV_VAR = "STACKSORT_CACHE_DIR"


class CorruptCacheEntry(UserWarning):
    """A cache file exists but cannot be trusted; it is treated as a miss."""


class CacheStoreFailed(UserWarning):
    """A result could not be written to the cache; it is returned all the same."""


# ---- enumeration --------------------------------------------------------


class EnumerationResult(_Frozen):
    """Count (and optionally the members) of one machine's sortable set."""

    __slots__ = ("machine", "n", "count", "witnesses", "worker_partitions")
    machine: tuple[str, ...]
    n: int
    count: int
    witnesses: tuple[Permutation, ...] | None
    worker_partitions: int

    def __init__(
        self,
        machine: tuple[str, ...],
        n: int,
        count: int,
        witnesses: tuple[Permutation, ...] | None,
        worker_partitions: int,
    ) -> None:
        self._freeze(machine, n, count, witnesses, worker_partitions)
        if witnesses is not None and len(witnesses) != count:
            raise ValueError("witness list disagrees with the count")
        for w in witnesses or ():
            if len(w) != n:
                raise ValueError(f"witness {w} has length {len(w)}, not n={n}")

    def to_json_dict(self) -> dict:
        return {
            "machine": list(self.machine),
            "n": self.n,
            "count": self.count,
            "witnesses": None
            if self.witnesses is None
            else [format_permutation(w) for w in self.witnesses],
            "worker_partitions": self.worker_partitions,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EnumerationResult":
        witnesses = data["witnesses"]
        if witnesses is not None and not all(isinstance(w, str) for w in witnesses):
            raise TypeError("witnesses must be permutation strings")
        return cls(
            tuple(data["machine"]),
            data["n"],
            data["count"],
            None if witnesses is None else tuple(parse_permutation(w) for w in witnesses),
            data["worker_partitions"],
        )


def _scan_block(args: tuple[int, int, tuple[Permutation, ...], bool]) -> tuple[int, tuple]:
    """Count sortable permutations of S_n whose first entry is fixed."""
    # machine is imported where the engine scans, not at module level: a
    # cache hit then loads no layer beyond perms
    from .machine import _compile, _sortable_word

    n, first, patterns, keep = args
    compiled = _compile(PatternSet.of(*patterns))
    rest = [v for v in range(1, n + 1) if v != first]
    count = 0
    found = []
    for tail in itertools.permutations(rest):
        word = (first, *tail)
        if _sortable_word(word, compiled):
            count += 1
            if keep:
                found.append(word)
    return count, tuple(found)


def _require_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _enumerate(
    n: int,
    patterns: tuple[Permutation, ...],
    keep: bool,
    workers: int,
) -> EnumerationResult:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DEFAULT_GENERATION_CAP:
        raise LengthTooLarge(f"n={n} above the enumeration cap {DEFAULT_GENERATION_CAP}")
    _require_workers(workers)
    tokens = tuple(pattern_name(p) for p in patterns)
    if n == 0:
        witnesses = (Permutation(()),) if keep else None
        return EnumerationResult(tokens, 0, 1, witnesses, 1)

    blocks = [(n, first, patterns, keep) for first in range(1, n + 1)]
    if workers == 1:
        parts = [_scan_block(block) for block in blocks]
    else:
        # imported only here: the pool loads multiprocessing and logging, which
        # would otherwise slow the start of every CLI process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
            parts = list(pool.map(_scan_block, blocks))

    count = sum(part_count for part_count, _ in parts)
    witnesses = (
        tuple(Permutation(w) for _, words in parts for w in words) if keep else None
    )
    return EnumerationResult(tokens, n, count, witnesses, len(blocks))


def enumerate_sortable(
    n: int,
    sigma: Permutation,
    tau: Permutation,
    workers: int = 1,
) -> EnumerationResult:
    """Scan S_n for the permutations the (sigma, tau) machine sorts."""
    from .machine import _compile_pair

    _compile_pair(sigma, tau)
    return _enumerate(n, (sigma, tau), n <= WITNESS_DEFAULT_MAX, workers)


def enumerate_single_machine(
    n: int,
    sigma: Permutation,
    workers: int = 1,
) -> EnumerationResult:
    """Same scan with a one-pattern stack."""
    from .machine import _compile

    _compile(PatternSet.of(sigma))
    return _enumerate(n, (sigma,), n <= WITNESS_DEFAULT_MAX, workers)


# ---- reports -------------------------------------------------------------


class VerificationReport(_Frozen):
    """Outcome of one claim checked over a range of lengths.

    A claim fails exactly when it has counterexamples.  One whose range is
    empty examined nothing and is skipped, which does not fail its suite.
    """

    __slots__ = ("claim_id", "n_range", "status", "counterexamples", "detail")
    claim_id: str
    n_range: tuple[int, int]
    status: str
    counterexamples: tuple[str, ...]
    detail: str

    def __init__(
        self,
        claim_id: str,
        n_range: tuple[int, int],
        status: str,
        counterexamples: tuple[str, ...] = (),
        detail: str = "",
    ) -> None:
        self._freeze(claim_id, n_range, status, counterexamples, detail)
        if self.status not in (PASS, FAIL, SKIP):
            raise ValueError(f"unknown claim status {self.status!r}")
        if (self.status == FAIL) != bool(self.counterexamples):
            raise ValueError("a claim fails exactly when it has counterexamples")

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "n_range": list(self.n_range),
            "status": self.status,
            "counterexamples": list(self.counterexamples),
            "detail": self.detail,
        }


class SuiteReport(NamedTuple):
    """All claims of one verification suite, in a fixed order."""

    suite: str
    n_max: int
    claims: tuple[VerificationReport, ...]

    @property
    def passed(self) -> bool:
        return all(claim.status != FAIL for claim in self.claims)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n_max": self.n_max,
            "passed": self.passed,
            "claims": [claim.to_json_dict() for claim in self.claims],
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite} (n_max={self.n_max}): "
                 f"{'all claims hold' if self.passed else 'FAILURES'}"]
        for claim in self.claims:
            lo, hi = claim.n_range
            mark = {PASS: "ok  ", FAIL: "FAIL", SKIP: "skip"}[claim.status]
            suffix = f"  [{claim.detail}]" if claim.detail else ""
            lines.append(f"  {mark} {claim.claim_id} (n={lo}..{hi}){suffix}")
            for ce in claim.counterexamples:
                lines.append(f"         {ce}")
        return "\n".join(lines)


_COUNTEREXAMPLE_LIMIT = 5

#: One counterexample a suite yields to ``_report``: (claim id, n, detail).
Failure = tuple[str, int, str]


def _claim(
    claim_id: str,
    lo: int,
    hi: int,
    counterexamples: Sequence[str],
    detail: str = "",
) -> VerificationReport:
    shown = tuple(counterexamples[:_COUNTEREXAMPLE_LIMIT])
    overflow = len(counterexamples) - len(shown)
    if overflow > 0:
        shown += (f"... and {overflow} more",)
    if counterexamples:
        status = FAIL
    else:
        status = PASS if lo <= hi else SKIP
    return VerificationReport(claim_id, (lo, hi), status, shown, detail)


def _report(
    suite: str,
    n_max: int,
    claims: Sequence[tuple[str, int]],
    failures: Iterable[Failure],
    fixed: Sequence[VerificationReport] = (),
) -> SuiteReport:
    """A suite's report: the ``fixed`` claims, then each (claim id, first
    length) of ``claims`` checked up to n_max, failed by the (claim id, n,
    detail) tuples of ``failures`` that name it.  A failure outside the
    declared claims and lengths is a bug in the suite, so it raises."""
    first = dict(claims)
    found: dict[str, list[str]] = {claim_id: [] for claim_id in first}
    for claim_id, n, detail in failures:
        if claim_id not in first or not first[claim_id] <= n <= n_max:
            raise RuntimeError(f"suite {suite} has no claim {claim_id!r} at n={n}")
        found[claim_id].append(f"n={n}: {detail}")
    checked = (_claim(claim_id, lo, n_max, found[claim_id]) for claim_id, lo in claims)
    return SuiteReport(suite, n_max, (*fixed, *checked))


def _require_n_max(n_max: int, suite: str) -> None:
    cap = SUITE_CAPS[suite]
    if not 0 <= n_max <= cap:
        raise ValueError(f"{suite} runs for n_max in 0..{cap}, got {n_max}")


# ---- the equidistribution conjecture -------------------------------------


class Statistic(NamedTuple):
    """One statistic the conjecture suite refines the sortable sets by."""

    claim_id: str
    key: str  # JSON key of its distribution
    label: str  # text label of its distribution
    value: Callable[[Permutation], int]  # 0 on the empty permutation


STATISTICS = (
    Statistic("first-entry-distributions-agree", "by_first_entry", "by first entry",
              lambda x: x.entries[0] if len(x) else 0),
    Statistic("max-position-distributions-agree", "by_position_of_max", "by position of max",
              lambda x: index_of(x, len(x)) if len(x) else 0),
)


class DistributionTable(NamedTuple):
    """A machine's sortable set counted by each of ``STATISTICS``.

    ``distributions`` maps each statistic's key to its value -> count table,
    in increasing value order.
    """

    machine: tuple[str, ...]
    n: int
    total: int
    distributions: Mapping[str, Mapping[int, int]]

    def to_json_dict(self) -> dict:
        document = {"machine": list(self.machine), "n": self.n}
        for key, counts in self.distributions.items():
            document[key] = {str(k): v for k, v in counts.items()}
        return document

    def render_text(self) -> str:
        lines = [f"machine {'+'.join(self.machine)}, n={self.n}, total {self.total}"]
        for stat in STATISTICS:
            counts = ", ".join(f"{k}:{v}" for k, v in self.distributions[stat.key].items())
            lines.append(f"  {stat.label + ':':<20} {counts or '-'}")
        return "\n".join(lines)


def _distribution(n: int, patterns: tuple[Permutation, ...], workers: int) -> DistributionTable:
    scan = _enumerate(n, patterns, True, workers)
    distributions = {
        stat.key: dict(sorted(Counter(map(stat.value, scan.witnesses)).items()))
        for stat in STATISTICS
    }
    return DistributionTable(scan.machine, n, scan.count, distributions)


#: The conjecture suite's claims, in report order.
CONJECTURE_CLAIMS = (
    "totals-agree",
    *(stat.claim_id for stat in STATISTICS),
    "statistics-partition-the-totals",
)


def _conjecture_pair(n: int, workers: int) -> tuple[DistributionTable, ...]:
    machines = ((PATTERN_132, PATTERN_213), (PATTERN_213, PATTERN_312))
    return tuple(_distribution(n, patterns, workers) for patterns in machines)


def _conjecture_failures(n: int, tables: Sequence[DistributionTable]) -> Iterator[Failure]:
    """(claim id, n, detail) for each conjecture claim the pair breaks at n."""
    compared = [("totals-agree", [t.total for t in tables])] + [
        (stat.claim_id, [t.distributions[stat.key] for t in tables]) for stat in STATISTICS
    ]
    for claim_id, (a, b) in compared:
        if a != b:
            yield claim_id, n, f"{a} vs {b}"
    for t in tables:
        if any(sum(counts.values()) != t.total for counts in t.distributions.values()):
            yield "statistics-partition-the-totals", n, f"{t.machine} tables sum differently"


def conjecture_tables(
    n: int, workers: int = 1
) -> tuple[DistributionTable, DistributionTable, SuiteReport]:
    """Refined counts for the (132,213) and (213,312) machines and whether
    they agree entry for entry.

    Agreement here is evidence, not proof: the claim is open, so a clean
    pass at desk scale says nothing beyond the lengths actually scanned,
    and any disagreement must surface as a failed claim.
    """
    cap = SUITE_CAPS["conjecture"]
    if not 0 <= n <= cap:
        raise ValueError(f"conjecture tables run for n in 0..{cap}, got {n}")
    tables = _conjecture_pair(n, workers)
    claims = [(claim_id, n) for claim_id in CONJECTURE_CLAIMS]
    return (*tables, _report("conjecture", n, claims, _conjecture_failures(n, tables)))


def verify_conjecture(n_max: int, workers: int = 1) -> SuiteReport:
    """The conjecture claims at every length from 1 to n_max."""
    _require_n_max(n_max, "conjecture")
    failures = (
        failure
        for n in range(1, n_max + 1)
        for failure in _conjecture_failures(n, _conjecture_pair(n, workers))
    )
    claims = [(claim_id, 1) for claim_id in CONJECTURE_CLAIMS]
    return _report("conjecture", n_max, claims, failures)


def run_suites(
    names: Iterable[str], n_max: int, workers: int = 1
) -> list[SuiteReport]:
    """Run the named suites in order, each at n_max clamped to its cap."""
    from .suites import SUITES

    # the west and dyck suites scan no S_n, so _enumerate alone would not check
    _require_workers(workers)
    reports = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        reports.append(SUITES[name](min(n_max, SUITE_CAPS[name]), workers=workers))
    return reports


# ---- caching --------------------------------------------------------------


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "stacksort"


def _cache_key(machine: Sequence[str], n: int) -> str:
    raw = f"{'|'.join(machine)}|n={n}|v={ENGINE_VERSION}"
    return hashlib.sha256(raw.encode()).hexdigest()


def _canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def cache_store(result: EnumerationResult, cache_dir: Path | str | None = None) -> Path:
    """Write one result atomically; the file name is the key digest."""
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    payload = result.to_json_dict()
    document = {
        "version": ENGINE_VERSION,
        "checksum": hashlib.sha256(_canonical(payload).encode()).hexdigest(),
        "result": payload,
    }
    target = directory / f"{_cache_key(result.machine, result.n)}.json"
    try:
        handle = tempfile.NamedTemporaryFile(
            "w", dir=directory, suffix=".tmp", delete=False
        )
        try:
            with handle:
                json.dump(document, handle, sort_keys=True, indent=1)
            os.replace(handle.name, target)
        except BaseException:
            os.unlink(handle.name)
            raise
    except OSError as error:
        if error.filename is None:
            raise
        # name the entry, not the randomly named temporary file, so the
        # message is the same on every run
        raise OSError(error.errno, error.strerror, str(target)) from error
    return target


def cache_load(
    machine: Sequence[str], n: int, cache_dir: Path | str | None = None
) -> EnumerationResult | None:
    """Reload a stored result; anything untrustworthy is a miss.

    A missing file or a version from another engine generation is an
    ordinary miss.  An entry that cannot be read, fails parsing or its
    checksum, or holds the result for another machine or length, warns with
    CorruptCacheEntry and is then treated as a miss too.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    target = directory / f"{_cache_key(machine, n)}.json"
    if not target.exists():
        return None
    try:
        document = json.loads(target.read_text())
        if not isinstance(document, dict):
            raise ValueError("not a JSON object")
        if document.get("version") != ENGINE_VERSION:
            return None
        payload = document["result"]
        digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        if digest != document["checksum"]:
            raise ValueError("checksum mismatch")
        result = EnumerationResult.from_json_dict(payload)
        if list(result.machine) != list(machine) or result.n != n:
            raise ValueError(f"entry holds machine {list(result.machine)}, n={result.n}")
        return result
    except (OSError, ValueError, KeyError, TypeError) as error:
        warnings.warn(
            f"discarding unreadable cache entry {target.name}: {error}",
            CorruptCacheEntry,
            stacklevel=2,
        )
        return None


def enumerate_cached(
    n: int,
    sigma: Permutation,
    tau: Permutation | None = None,
    workers: int = 1,
    cache_dir: Path | str | None = None,
) -> tuple[EnumerationResult, bool]:
    """Cache-aware enumeration; the flag reports whether the cache answered."""
    patterns = (sigma,) if tau is None else (sigma, tau)
    tokens = tuple(pattern_name(p) for p in patterns)
    hit = cache_load(tokens, n, cache_dir)
    if hit is not None:
        return hit, True
    if tau is None:
        result = enumerate_single_machine(n, sigma, workers=workers)
    else:
        result = enumerate_sortable(n, sigma, tau, workers=workers)
    try:
        cache_store(result, cache_dir)
    except OSError as error:
        warnings.warn(
            f"could not store the result in the cache: {error}",
            CacheStoreFailed,
            stacklevel=2,
        )
    return result, False


def __getattr__(name: str):
    # The suites, their tables and the layer names they import lived in this
    # module until they moved to ``suites``; perfbench/spans.py still reads
    # and wraps them here.  Resolving them loads ``suites`` and every layer.
    if not name.startswith("__"):
        from . import suites

        if hasattr(suites, name):
            return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
