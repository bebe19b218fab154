"""Replay the CLI transcripts in ``tests/golden/manifest.json``.

Each entry is an argv, with the environment variables set for its run
when it carries any, and the exit code, stdout and stderr the CLI gave
for it. ``tests/golden/regenerate.py`` writes the manifest; an entry it
changes is a change in what the CLI answers.
"""

import json

import pytest

from golden.regenerate import MANIFEST, ROOT, replay

ENTRIES = json.loads(MANIFEST.read_text(encoding="utf-8"))


def entry_id(entry):
    """The argv, after the entry's own environment variables if it has any."""
    env = [f"{name}={value}" for name, value in entry.get("env", {}).items()]
    return " ".join(env + entry["argv"])


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_id)
def test_cli_gives_the_recorded_transcript(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert replay(entry["argv"], entry.get("env")) == entry


def test_the_manifest_covers_every_context_file():
    named = {arg for entry in ENTRIES for arg in entry["argv"]}
    contexts = [
        path
        for folder in (ROOT / "data", ROOT / "tests" / "data" / "corpus")
        for path in folder.iterdir()
        if path.suffix in (".cxt", ".csv")
    ]
    assert contexts
    for path in contexts:
        assert path.relative_to(ROOT).as_posix() in named
