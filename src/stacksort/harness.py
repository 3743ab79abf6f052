"""The enumeration engine and its result cache.

``enumerate_sortable`` scans S_n for what the (sigma, tau) machine sorts,
or the sigma machine when tau is None.  Every scan enters through
``_enumerate``: it compiles once the forbidden set ``_require_request``
checks and returns with the machine's names.  Each block carries the
compiled test, so neither a block nor a pool worker compiles anything.
Scans partition S_n by first entry into n blocks; S_0's empty word is one
block of its own, so a scan runs max(n, 1) blocks, the number a result
reports as ``worker_partitions``.  Blocks are merged in first-entry order
and the merge is plain summation, so results do not depend on how many
workers processed them; reports and results serialize to the same bytes
whatever the worker count.
``enumerate_cached`` answers from a checksummed file per (machine, n)
when it can and scans otherwise.  Before it reads the cache it refuses an
empty directory and runs ``_require_request``, so a hit refuses every
machine, worker count and length a scan refuses, in the same order.  A
hit must also hold witnesses exactly where a scan keeps them.  It alone
resolves the cache directory for ``cache_store`` and ``cache_load``;
with no home directory for the default cache, it warns and scans uncached.

The suites and their reports live in ``suites``.  ``run_suites``, the
``conjecture_tables`` door and the module ``__getattr__``, which resolves
the names of ``suites`` here, stay because perfbench/spans.py wraps them
on this module.  Importing it loads only ``perms``.  The engine loads
``machine`` when it scans, and ``run_suites`` and the door load ``suites``
when they first run, so a cache hit touches no other layer.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .perms import (
    DEFAULT_GENERATION_CAP,
    LengthTooLarge,
    PatternSet,
    Permutation,
    SUITE_CAPS,
    _Frozen,
    format_permutation,
    machine_patterns,
    parse_permutation,
    pattern_name,
)

if TYPE_CHECKING:
    from .suites import DistributionTable, SuiteReport

#: Above this length, ``enumerate_sortable`` drops the witnesses and returns
#: the count alone.
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

    __slots__ = ("machine", "n", "count", "witnesses")
    machine: tuple[str, ...]
    n: int
    count: int
    witnesses: tuple[Permutation, ...] | None

    def __init__(
        self,
        machine: tuple[str, ...],
        n: int,
        count: int,
        witnesses: tuple[Permutation, ...] | None,
    ) -> None:
        if not isinstance(machine, tuple) or not all(isinstance(t, str) for t in machine):
            raise TypeError("machine must be a tuple of pattern names")
        # bool is a subclass of int, and a JSON number may be a float
        if not all(type(v) is int and v >= 0 for v in (n, count)):
            raise TypeError("n and count must be nonnegative integers")
        self._freeze(machine, n, count, witnesses)
        if witnesses is not None and len(witnesses) != count:
            raise ValueError("witness list disagrees with the count")
        for w in witnesses or ():
            if len(w) != n:
                raise ValueError(f"witness {w} has length {len(w)}, not n={n}")

    @property
    def worker_partitions(self) -> int:
        """The blocks a scan of S_n runs: one per first entry, one for S_0."""
        return max(self.n, 1)

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
        machine, n, count, witnesses = (data[k] for k in ("machine", "n", "count", "witnesses"))
        if not isinstance(machine, list) or not all(isinstance(t, str) for t in machine):
            raise TypeError("machine must be a list of pattern names")
        if witnesses is not None and not (
            isinstance(witnesses, list) and all(isinstance(w, str) for w in witnesses)
        ):
            raise TypeError("witnesses must be null or a list of permutation strings")
        return cls(
            tuple(machine),
            n,
            count,
            None if witnesses is None else tuple(parse_permutation(w) for w in witnesses),
        )


def _scan_block(args: tuple[int, tuple, tuple, bool]) -> tuple[int, tuple]:
    """Count sortable permutations of S_n that start with a fixed prefix."""
    # machine is imported where the engine scans, not at module level: a
    # cache hit then loads no layer beyond perms
    from .machine import _sortable_word

    n, prefix, compiled, keep = args
    rest = [v for v in range(1, n + 1) if v not in prefix]
    count = 0
    found = []
    for tail in itertools.permutations(rest):
        word = prefix + tail
        if _sortable_word(word, compiled):
            count += 1
            if keep:
                found.append(word)
    return count, tuple(found)


def _require_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _require_request(n: int, patterns: tuple, workers: int) -> tuple[tuple, PatternSet]:
    """The rules both doors into the engine share, checked in this order.
    ``patterns`` is (sigma, tau), or (sigma,) or (sigma, None) for the sigma
    machine; returns the machine's pattern names and its forbidden set."""
    forbidden = machine_patterns(*patterns)
    if forbidden.bivincular:
        star = pattern_name(forbidden.bivincular[0])
        raise ValueError(f"enumeration takes classical patterns, got {star}")
    _require_workers(workers)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DEFAULT_GENERATION_CAP:
        raise LengthTooLarge(f"n={n} above the enumeration cap {DEFAULT_GENERATION_CAP}")
    return tuple(map(pattern_name, forbidden)), forbidden


def _enumerate(
    n: int,
    patterns: tuple[Permutation, ...],
    keep: bool,
    workers: int,
) -> EnumerationResult:
    from .machine import _compile

    names, forbidden = _require_request(n, patterns, workers)
    compiled = _compile(forbidden)
    # one block per first entry; S_0's one block is the empty prefix
    prefixes = itertools.permutations(range(1, n + 1), min(n, 1))
    blocks = [(n, prefix, compiled, keep) for prefix in prefixes]
    if workers == 1:
        parts = [_scan_block(block) for block in blocks]
    else:
        # imported only here: the pool loads multiprocessing and logging, which
        # would otherwise slow the start of every CLI process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            parts = list(pool.map(_scan_block, blocks))

    count = sum(part_count for part_count, _ in parts)
    witnesses = (
        tuple(Permutation(w) for _, words in parts for w in words) if keep else None
    )
    return EnumerationResult(names, n, count, witnesses)


def enumerate_sortable(
    n: int,
    sigma: Permutation,
    tau: Permutation | None = None,
    workers: int = 1,
) -> EnumerationResult:
    """Scan S_n for the permutations the (sigma, tau) machine sorts, or the
    sigma machine when tau is None."""
    return _enumerate(n, (sigma, tau), n <= WITNESS_DEFAULT_MAX, workers)


def enumerate_single_machine(
    n: int,
    sigma: Permutation,
    workers: int = 1,
) -> EnumerationResult:
    """``enumerate_sortable`` with tau None: the sigma machine."""
    return enumerate_sortable(n, sigma, workers=workers)


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


def conjecture_tables(
    n: int, workers: int = 1
) -> tuple[DistributionTable, DistributionTable, SuiteReport]:
    """``suites.conjecture_tables``, behind the name perfbench/spans.py times."""
    from . import suites

    return suites.conjecture_tables(n, workers)


# ---- caching --------------------------------------------------------------


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg and Path(xdg).is_absolute() else Path.home() / ".cache"
    return base / "stacksort"


def _cache_key(machine: Sequence[str], n: int) -> str:
    raw = f"{'|'.join(machine)}|n={n}|v={ENGINE_VERSION}"
    return hashlib.sha256(raw.encode()).hexdigest()


def _canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def cache_store(result: EnumerationResult, cache_dir: Path | str) -> Path:
    """Write one result atomically; the file name is the key digest."""
    directory = Path(cache_dir)
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
    machine: Sequence[str], n: int, cache_dir: Path | str
) -> EnumerationResult | None:
    """Reload a stored result; anything untrustworthy is a miss.

    A missing file or a version from another engine generation is an
    ordinary miss.  An entry that cannot be read, fails parsing or its
    checksum, holds the result for another machine or length, or holds
    witnesses where a scan keeps none or the reverse, warns with
    CorruptCacheEntry and is then treated as a miss too.
    """
    target = Path(cache_dir) / f"{_cache_key(machine, n)}.json"
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
        if (result.witnesses is None) != (n > WITNESS_DEFAULT_MAX):
            held = "no witnesses" if result.witnesses is None else "witnesses"
            raise ValueError(
                f"entry for n={n} holds {held}; a scan keeps them up to n={WITNESS_DEFAULT_MAX}"
            )
        return result
    except (FileNotFoundError, NotADirectoryError):  # no entry: an ordinary miss
        return None
    except Exception as error:  # whatever breaks the reading, the entry is at fault
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
    """Cache-aware enumeration in ``cache_dir``, ``default_cache_dir`` if None;
    the flag reports whether the cache answered.  An empty ``cache_dir``, then
    what ``_require_request`` refuses, is refused before the cache is read, so
    a hit refuses every request a scan refuses."""
    if cache_dir == "":
        raise ValueError("--cache-dir must name a directory, got an empty string")
    names, _ = _require_request(n, (sigma, tau), workers)
    try:
        directory = default_cache_dir() if cache_dir is None else cache_dir
    except RuntimeError as error:  # no home directory to hold ~/.cache
        warnings.warn(
            f"no cache directory ({error}); name one with --cache-dir or {CACHE_ENV_VAR}",
            CacheStoreFailed,
            stacklevel=2,
        )
        directory = None
    hit = None if directory is None else cache_load(names, n, directory)
    if hit is not None:
        return hit, True
    # through the module name, which traced runs wrap to time the scan
    result = enumerate_sortable(n, sigma, tau, workers=workers)
    if directory is not None:
        try:
            cache_store(result, directory)
        except OSError as error:
            warnings.warn(
                f"could not store the result in the cache: {error}",
                CacheStoreFailed,
                stacklevel=2,
            )
    return result, False


def __getattr__(name: str):
    # The suites, their reports and the layer names they import moved to
    # ``suites``; perfbench/spans.py still reads and wraps them here.
    # Resolving them loads ``suites`` and every layer.
    if not name.startswith("__"):
        from . import suites

        if hasattr(suites, name):
            return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
