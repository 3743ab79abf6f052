"""Two-stack sorting machines with pattern-avoiding stacks.

The package answers three kinds of questions about the (sigma, tau)
machine: which permutations it sorts (machine, is_sortable, the
enumeration engine in ``harness``), how the sortable sets biject onto
classical pattern classes (signatures, west_map, the staircase encoding
of 123-avoiders as Dyck paths), and how many there are (the counting
sequences and their generating function).  Everything is exact integer
work; the verification suites in ``suites`` recheck the structural
claims by brute force at small lengths.

The public names below resolve lazily (PEP 562): ``import stacksort``
loads no layer, and the first use of a name loads only the module that
defines it.  So ``from stacksort import Permutation`` loads ``perms``
alone, and ``stacksort.run_suites`` loads ``harness``; running a suite
then loads ``suites`` and, through its imports, every other layer.

``_EXPORTS`` is the one table of which layer defines each public name.  The
command line binds the names its handlers call from it, one layer at a time
per subcommand; the ``cli`` docstring lists the layers each one loads.
"""

import sys
import types

__version__ = "0.1.0"

#: Each public name, by the module that defines it.
_EXPORTS = {
    "perms": (
        "BivincularPattern", "PatternSet", "Permutation", "STAR_123", "STAR_132",
        "avoiders", "contains_bivincular", "contains_classical",
        "format_permutation", "machine_patterns", "parse_permutation",
    ),
    "machine": (
        "StackStep", "StackTrace", "is_sortable", "machine", "pattern_stack_pass",
        "validate_trace", "west_pass",
    ),
    "signatures": ("active_sites", "format_signature", "has_plateau", "signature", "west_map"),
    "dyck": (
        "BSequence", "DyckPath", "FACTOR_DUDU", "GridDecomposition", "cell_capacity_ok",
        "contains_factor", "count_dyck_avoiding", "dyck_paths", "grid_cells",
        "rotem_b_sequence", "rotem_map",
    ),
    "sequences": (
        "SequenceTable", "binomial_transform_catalan", "catalan", "f_sequence",
        "g_sequence", "gf_coefficients", "powers_2_shifted", "schroder_large",
        "sort_123_321_closed",
    ),
    "harness": (
        "EnumerationResult", "SuiteReport", "VerificationReport", "conjecture_tables",
        "enumerate_cached", "enumerate_single_machine", "enumerate_sortable", "run_suites",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: only loads that go through the
    # import statement's machinery show up in python -X importtime
    path = f"{__name__}.{_HOME[name]}"
    __import__(path)
    value = getattr(sys.modules[path], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


class _Package(types.ModuleType):
    """Keeps the function ``machine`` ahead of the submodule of that name.

    Loading a submodule binds it as an attribute of the package.  The
    function ``machine`` shares its name with its module, so that binding
    would hide the export once anything had loaded ``stacksort.machine``.
    """

    def __setattr__(self, name: str, value) -> None:
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
