"""Answer checks: an operation fails on a wrong exit code or a wrong answer.

Two layers of checking apply to every operation.  The pinned table
(answers.json) holds the exit code and stdout sha256 of every operation of
the default seed; operations whose argv does not depend on the seed (all of
scan and verify, sequences, dyck --n, the cached enumerate queries) are
pinned for every seed.  Independently of the table, each answer is checked
against facts the benchmark derives itself (oracles.py and the pinned
counts), so an operation of any seed is checked.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

import oracles

ANSWERS = Path(__file__).with_name("answers.json")

#: Kinds whose argv is the same for every seed, so the table must pin them.
SEED_FREE_KINDS = {"enumerate", "enumerate-hit", "verify", "sequences", "dyck-n"}


def load_answers() -> dict:
    return json.loads(ANSWERS.read_text())


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_word(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.replace(",", " ").split())


@lru_cache(maxsize=None)
def dyck_avoiding(n: int, factor: str) -> int:
    """Dyck paths of semilength n without the factor, counted by the last
    len(factor)-1 steps and the height."""

    @lru_cache(maxsize=None)
    def count(ups: int, downs: int, tail: str) -> int:
        if ups == downs == n:
            return 1
        total = 0
        for step, ok in (("u", ups < n), ("d", downs < ups)):
            word = tail + step
            if ok and not word.endswith(factor):
                total += count(ups + (step == "u"), downs + (step == "d"),
                               word[-(len(factor) - 1):])
        return total

    return count(0, 0, "")


def _check_enumeration(op, out: str, problems: list[str]) -> dict | None:
    try:
        data = json.loads(out)
    except ValueError:
        problems.append("stdout is not JSON")
        return None
    c = op["check"]
    if data.get("machine") != c["machine"] or data.get("n") != c["n"]:
        problems.append(f"machine/n {data.get('machine')}/{data.get('n')}")
    if data.get("count") != c["count"]:
        problems.append(f"count {data.get('count')} != pinned {c['count']}")
    witnesses = data.get("witnesses")
    if not c["witnesses"]:
        if witnesses is not None:
            problems.append("witnesses present above the witness cap")
        return data
    if not isinstance(witnesses, list) or len(witnesses) != c["count"]:
        problems.append("witness list does not match the count")
        return data
    words = [parse_word(w) for w in witnesses]
    full = tuple(range(1, c["n"] + 1))
    if words != sorted(set(words)) or any(tuple(sorted(w)) != full for w in words):
        problems.append("witnesses are not distinct permutations in lexicographic order")
        return data
    tests = [oracles.pattern_test(t) for t in c["machine"]]
    for w in random.Random(op["op_id"]).sample(words, 3):
        if oracles.increasing_stack_pass(oracles.stack_pass(w, tests)) != full:
            problems.append(f"witness {w} is not sorted by the machine")
    return data


def _check_trace(op, lines: list[str], problems: list[str]) -> None:
    c = op["check"]
    x = tuple(c["perm"])
    mid = oracles.stack_pass(x, [oracles.pattern_test(t) for t in c["machine"]])
    out = oracles.increasing_stack_pass(mid)
    sigma, tau = c["machine"]
    head = f"({sigma}, {tau}) machine on {' '.join(map(str, x))}"
    fields = {ln.split(":")[0].strip(): ln.split(":", 1)[1].strip()
              for ln in lines if ln.startswith(("  intermediate:", "output:", "sorted:"))}
    want = {
        "intermediate": " ".join(map(str, mid)),
        "output": " ".join(map(str, out)),
        "sorted": "yes" if out == tuple(sorted(x)) else "no",
    }
    if not lines or lines[0] != head or fields != want:
        problems.append(f"trace disagrees with the reference pass: {fields} vs {want}")


def _check_west_map(op, lines: list[str], problems: list[str]) -> None:
    c = op["check"]
    if len(lines) != 2 or not lines[1].startswith("shared signature: "):
        problems.append("unexpected west-map output")
        return
    image = parse_word(lines[0])
    source, target = (tuple(int(d) for d in c[k]) for k in ("source", "target"))
    x = tuple(op["perm"])
    sig = oracles.signature(x, source)
    if oracles.contains(image, target):
        problems.append(f"image {image} contains {c['target']}")
    if oracles.signature(image, target) != sig or lines[1] != (
        "shared signature: " + ".".join(map(str, sig))
    ):
        problems.append("image does not share the input's signature")
    if "image" in c and image != tuple(c["image"]):
        problems.append(f"image {image} does not map back to {tuple(c['image'])}")


def check_answer(op: dict, code: int, out: str, err: str, pinned: dict,
                 cache_files: list[Path] | None = None) -> list[str]:
    """Everything wrong with one operation's answer; empty when correct.

    ``op`` is the schedule entry with its actual "perm" filled in; ``cache_files``
    are the files of its fresh cache directory after a scan operation.
    """
    problems: list[str] = []
    key = op["key"]
    entry = pinned.get(key)
    if entry is not None:
        if entry["exit"] != code:
            problems.append(f"exit {code}, pinned {entry['exit']}")
        if entry["sha256"] != digest(out.encode()):
            problems.append("stdout differs from the pinned digest")
    elif op["kind"] in SEED_FREE_KINDS:
        problems.append("no pinned answer for a seed-independent operation")
    if code != op["expect_exit"]:
        problems.append(f"exit {code}, expected {op['expect_exit']}")
        return problems
    try:
        _check_kind(op, out, err, cache_files, problems)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        problems.append(f"unreadable answer: {exc!r}")
    return problems


def _check_kind(op: dict, out: str, err: str, cache_files: list[Path] | None,
                problems: list[str]) -> None:
    kind, c, lines = op["kind"], op["check"], out.splitlines()
    if kind == "enumerate":
        data = _check_enumeration(op, out, problems)
        files = cache_files or []
        if len(files) != 1:
            problems.append(f"{len(files)} cache files written, expected 1")
        elif data is not None and json.loads(files[0].read_text()).get("result") != data:
            problems.append("cache entry differs from the printed result")
    elif kind == "enumerate-hit":
        if "cache hit" not in err:
            problems.append("expected a cache hit")
        if "machine" in c:
            _check_enumeration(op, out, problems)
        elif out != "machine {}, n={}: {} sortable permutations\n".format(
            "+".join(op["argv"][2:5:2]), op["argv"][6], c["count"]
        ):
            problems.append(f"unexpected enumerate line {out!r}")
    elif kind == "verify":
        failing: dict[str, list[str]] = {}
        suite = None
        for ln in lines:
            if ln.startswith("suite "):
                suite = ln.split()[1]
            elif ln.startswith("  FAIL "):
                failing.setdefault(suite, []).append(ln.split()[1])
        if failing != c["failing"]:
            problems.append(f"failing claims {failing}, expected {c['failing']}")
        if not lines or lines[-1] != "failing suites: " + ", ".join(c["failing"]):
            problems.append("unexpected verify summary line")
    elif kind == "trace":
        _check_trace(op, lines, problems)
    elif kind == "signature":
        x = tuple(c["perm"])
        sig = oracles.signature(x, tuple(int(d) for d in c["pattern"]))
        want = [".".join(map(str, sig))]
        if oracles.has_plateau(sig):
            want.append("has a plateau (sig_i = sig_{i+1} <= sig_{i+2})")
        if lines != want:
            problems.append(f"signature {lines} vs reference {want}")
    elif kind == "west-map":
        _check_west_map(op, lines, problems)
    elif kind == "dyck-perm":
        b = oracles.b_sequence(tuple(c["perm"]))
        path = oracles.dyck_word(b)
        want = [f"b: {' '.join(map(str, b))}", f"path: {path}",
                f"dudu factor: {'yes' if 'dudu' in path else 'no'}"]
        if lines != want:
            problems.append(f"dyck {lines} vs reference {want}")
    elif kind == "dyck-n":
        n = c["n"]
        want = (f"Dyck paths of semilength {n}: {oracles.catalan(n)}, "
                f"avoiding dudu: {dyck_avoiding(n, 'dudu')}")
        if lines != [want]:
            problems.append(f"dyck counts {lines} vs reference {want}")
    elif kind == "sequences":
        n_max = int(op["argv"][-1])
        want = "catalan (from n=0): " + " ".join(
            str(oracles.catalan(k)) for k in range(n_max + 1))
        if want not in lines:
            problems.append("catalan row differs from the closed form")
