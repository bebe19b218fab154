"""Every demo script runs to completion and says what it came to say."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"

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
    completed = subprocess.run(
        [sys.executable, str(DEMO_DIR / script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert EXPECTED[script] in completed.stdout
