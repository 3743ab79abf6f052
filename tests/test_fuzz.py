"""Random command lines through ``cli.run``, in process.

A small grammar draws argv for every subcommand: lengths at and around
each boundary (-1, 0, a cap, one past it), star names, digits outside
ASCII, comma and space separators, patterns of 10 or more entries, and
cache directories that cannot hold a cache.  Every run must end as the
exit codes promise: 0, 2 for a refused input with nothing on stdout, and
1 only where a verification suite can report a failure.  The draws are
cheap on purpose: scans stop at n = 6 and ``verify`` at ``--n-max`` 4, so
an accepted cap such as ``enumerate --n 12``, a full scan of S_12, is
left out, while the refused length past it is drawn.
"""

import random

from stacksort.cli import run
from stacksort.perms import SUITE_CAPS

SUBCOMMANDS = ("trace", "enumerate", "verify", "signature", "west-map", "dyck", "sequences",
               "conjecture")
THREES = ("123", "132", "213", "231", "312", "321")
PATTERNS = (
    "12", "21", "123", "132", "213", "231", "312", "321", "1324", "2413", "54321",
    "123-star", "132-star", "213-star", "10,9,8,7,6,5,4,3,2,1,11", "10 9 8 7 6 5 4 3 2 11 1",
    "1,2,3,4,5,6,7,8,9,10", "١٣٢", "１３２", "1", "-", "", "13", "1,,2", "0 1", "abc", "²¹",
)
#: Digit sets a permutation may be written in: ASCII, Arabic-Indic, fullwidth.
DIGITS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")
ODD_PERMS = ("-", " - ", "", "   ", "1 1", "0", "2,1,", "3,,1,2", "x", "²¹", "1 2 3 4 5 6 7 8 9 10 12")
#: Values for each integer option, as the boundaries of what its command runs.
LENGTHS = {
    "enumerate": ("-1", "0", "1", "2", "3", "4", "5", "6", "13", "١", "٣"),
    "verify": ("-1", "0", "1", "2", "3", "4", "٤"),
    "dyck": ("-1", "0", "1", "6", "68", "69", "100", "٦"),
    "sequences": ("-1", "0", "1", "2", "8", "60", "1000", "٨"),
    "conjecture": ("-1", "0", "1", "2", "4", "6", f"{SUITE_CAPS['conjecture'] + 1}", "100", "٢"),
}
WORKERS = ("-1", "0", "1", "1", "1", "١")
RUNS = 400


def _perm(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return rng.choice(ODD_PERMS)
    n = rng.choice((0, 1, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9, 10, 100, 101))
    entries = rng.sample(range(1, n + 1), n)
    if n == 0:
        return "-"
    if n < 10 and rng.random() < 0.5:
        digits = rng.choice(DIGITS)
        return "".join(digits[v] for v in entries)
    return rng.choice((" ", ",", ", ", "  ")).join(map(str, entries))


def _pattern(rng: random.Random, usual: tuple[str, ...]) -> str:
    """Mostly one of the patterns the command is made for, else any."""
    return rng.choice(usual if rng.random() < 0.7 else PATTERNS)


def _format(rng: random.Random) -> list[str]:
    (choice,) = rng.choices(("", "text", "json", "csv", "xml"), (4, 2, 3, 2, 1))
    return ["--format", choice] if choice else []


def _argv(rng: random.Random, tmp_path) -> list[str]:
    command = rng.choice(SUBCOMMANDS)
    if command == "trace":
        argv = ["--sigma", _pattern(rng, THREES), "--tau", _pattern(rng, THREES),
                "--perm", _perm(rng)]
    elif command == "west-map":
        source, target = rng.choice((("123", "132"), ("132", "123")))
        argv = ["--perm", _perm(rng), "--sigma", _pattern(rng, (source,)),
                "--tau", _pattern(rng, (target,))]
    elif command == "signature":
        argv = ["--perm", _perm(rng), "--sigma", _pattern(rng, ("123", "132"))]
    elif command == "enumerate":
        argv = ["--sigma", _pattern(rng, THREES), "--n", rng.choice(LENGTHS["enumerate"])]
        if rng.random() < 0.6:
            argv += ["--tau", _pattern(rng, THREES)]
        if rng.random() < 0.2:
            argv += ["--workers", rng.choice(WORKERS)]
        cache = rng.choice((None, "", "cache", "cache", "file", "file/sub", "deep/a/b"))
        if cache is not None:
            argv += ["--cache-dir", str(tmp_path / cache) if cache else ""]
    elif command == "verify":
        suite = rng.choice((*SUITE_CAPS, "all", "none"))
        argv = ["--suite", suite, "--n-max", rng.choice(LENGTHS["verify"])]
        if rng.random() < 0.2:
            argv += ["--workers", rng.choice(WORKERS)]
    elif command == "dyck":
        argv = rng.choice((["--perm", _perm(rng)], ["--n", rng.choice(LENGTHS["dyck"])]))
    elif command == "sequences":
        argv = ["--n-max", rng.choice(LENGTHS["sequences"])]
    else:
        argv = ["--n", rng.choice(LENGTHS["conjecture"])]
        if rng.random() < 0.2:
            argv += ["--workers", rng.choice(WORKERS)]
    argv = [command, *argv, *_format(rng)]
    if rng.random() < 0.05:  # a required option or its value left out
        del argv[rng.randrange(1, len(argv))]
    return argv


def test_random_command_lines_exit_as_promised(capsys, monkeypatch, tmp_path):
    # the default cache directory, too, lies under tmp_path
    monkeypatch.setenv("STACKSORT_CACHE_DIR", str(tmp_path / "default"))
    (tmp_path / "file").write_text("not a directory\n")
    rng = random.Random(0)
    codes = set()
    for _ in range(RUNS):
        argv = _argv(rng, tmp_path)
        try:
            code = run(argv)
        except SystemExit as done:  # argparse refuses a malformed command line
            code = done.code
        out, err = capsys.readouterr()
        codes.add(code)
        assert code in ((0, 1, 2) if argv[0] in ("verify", "conjecture") else (0, 2)), argv
        assert "internal error" not in err, (argv, err)
        if code == 2:
            assert out == "", argv
    # the grammar reaches answers, refusals and refuted claims alike
    assert codes == {0, 1, 2}
