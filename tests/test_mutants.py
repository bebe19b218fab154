"""The mutants in ``tests/mutants/manifest.json`` still fit the source.

``tests/mutants/run.py`` applies each mutant and runs the tests it names;
that takes minutes and runs only when asked. Here each mutant is checked
to still have something to mutate: its snippet occurs exactly once in its
file under ``src/dfca``, so code that moves takes its mutants along
instead of leaving them silently orphaned, and each test it names is
defined: the file exists and holds the classes and the function that the
id's ``::`` parts name, read from its syntax tree without importing it.
"""

import ast
import json

import pytest

from mutants.run import MANIFEST, ROOT

MUTANTS = json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_mutant_names_are_unique():
    names = [mutant["name"] for mutant in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant["name"])
def test_the_snippet_occurs_once_in_the_package(mutant):
    path = ROOT / mutant["file"]
    assert path.parent == ROOT / "src" / "dfca"
    assert path.read_text(encoding="utf-8").count(mutant["snippet"]) == 1
    assert mutant["replacement"] != mutant["snippet"]
    assert mutant["tests"]


def defines(path, names):
    """Does the file define the nested classes and function the names give?"""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [
            node
            for node in body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        body = found[-1].body
    return True


@pytest.mark.parametrize(
    "test",
    sorted({test for mutant in MUTANTS for test in mutant["tests"]}),
)
def test_each_named_test_is_defined(test):
    path, *names = test.split("::")
    assert (ROOT / path).is_file()
    # a parametrised id names its function, then its parameters in brackets
    names = [name.split("[")[0] for name in names]
    assert defines(ROOT / path, names)


def test_defines_rejects_an_unknown_name():
    here = ROOT / "tests" / "test_mutants.py"
    assert defines(here, ["test_each_named_test_is_defined"])
    assert not defines(here, ["test_each_named_test_is_undefined"])
    assert not defines(here, ["defines", "inner"])
