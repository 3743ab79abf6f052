"""Run the worked examples embedded in the docstrings and the README."""

import doctest
import importlib
from pathlib import Path

import pytest

# harness and suites are all orchestration, their docs carry no runnable examples
MODULES = {
    "stacksort.perms": True,
    "stacksort.machine": True,
    "stacksort.signatures": True,
    "stacksort.dyck": True,
    "stacksort.sequences": True,
    "stacksort.harness": False,
    "stacksort.suites": False,
}


@pytest.mark.parametrize("name,expects_examples", MODULES.items(), ids=MODULES)
def test_docstring_examples(name, expects_examples):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    if expects_examples:
        assert result.attempted > 0, f"{name} has no examples to run"
    assert result.failed == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
