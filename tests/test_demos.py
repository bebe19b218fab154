"""Every demo script runs to completion and says what it came to say."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"

EXPECTED = {
    "weather_extensions.py": "extension of Rain | Wind: Day 2, Day 3",
    "typical_elements.py": "with the preference order, Non-metal |~ Gas: holds",
    "rank_the_friends.py": "the computed ranking lies below every rival? True",
    "updating_beliefs.py": '"fw. eva" |~ "fw. bob": True -> False  (retracted)',
    "penguin_baseline.py": "penguin |~ flies: False (after discarding 1 rank(s))",
    "files_and_cli.py": "written and read back unchanged? True",
    "contextual_rows.py": "flies |~ bird: False -> True once the rows are asserted",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMO_DIR.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_demo_runs_and_prints(script):
    # the child finds dfca in this checkout's src, whatever the caller's path
    path = [str(ROOT / "src")] + list(filter(None, [os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(DEMO_DIR / script)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert EXPECTED[script] in completed.stdout
