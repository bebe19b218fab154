"""The mutants in ``tests/mutants/manifest.json`` still fit the source.

``tests/mutants/run.py`` applies each mutant and runs the tests it names;
that takes minutes and runs only when asked. Here each mutant is checked
to still have something to mutate: its snippet occurs exactly once in its
file under ``src/dfca``, so code that moves takes its mutants along
instead of leaving them silently orphaned, and each test file it names
exists.
"""

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
    for test in mutant["tests"]:
        assert (ROOT / test.split("::")[0]).is_file()
