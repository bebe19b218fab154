"""Replay the CLI transcripts in ``tests/golden/manifest.json``.

Each entry is an argv, with the environment variables set for its run
when it carries any, and the exit code, stdout and stderr the CLI gave
for it. ``tests/golden/regenerate.py`` writes the manifest; an entry it
changes is a change in what the CLI answers.
"""

import json
import os
import subprocess
import sys

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


# replays the whole manifest and prints the argvs whose transcript differs
REPLAY_ALL = """
import json
from golden.regenerate import MANIFEST, replay
entries = json.loads(MANIFEST.read_text(encoding="utf-8"))
print(json.dumps([e["argv"] for e in entries if replay(e["argv"], e.get("env")) != e]))
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_the_manifest_replays_under_a_fixed_hash_seed(seed):
    """In-process replay inherits the test run's hash seed; here it is fixed,
    so an answer that follows the iteration order of a set shows as a
    difference at one seed or the other, not as a flaky test."""
    path = [str(ROOT / "src"), str(ROOT / "tests")]
    done = subprocess.run(
        [sys.executable, "-c", REPLAY_ALL],
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        encoding="utf-8",
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


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
