"""Apply each mutant in ``manifest.json`` to a copy of the package and run its tests.

Run from anywhere: ``python tests/mutants/run.py [NAME ...]``. The runner
copies ``src/``, ``tests/``, ``data/`` and ``pyproject.toml`` into a
temporary directory. For each mutant, all of them or those named, it
replaces the mutant's snippet in its file there and runs ``pytest -x`` on
the tests the mutant names, then puts the file back. A mutant survives
when those tests all pass: they did not notice the change. The runner
prints one line per mutant and exits 1 when any mutant survived or its
tests could not run.

It takes several minutes, so it is not part of the default test run;
``tests/test_mutants.py`` checks there that every snippet still occurs
exactly once in its file.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = HERE / "manifest.json"
COPIED = ("src", "tests", "data", "pyproject.toml")


def outcome(root, mutant):
    """'killed', 'survived', or 'error: ...' for one mutant applied under root."""
    path = root / mutant["file"]
    original = path.read_text(encoding="utf-8")
    if original.count(mutant["snippet"]) != 1:
        return "error: the snippet does not occur exactly once"
    path.write_text(
        original.replace(mutant["snippet"], mutant["replacement"]), encoding="utf-8"
    )
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant["tests"]],
            cwd=root,
            capture_output=True,
            text=True,
        )
    finally:
        path.write_text(original, encoding="utf-8")
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        return "killed"
    return f"error: pytest exited {done.returncode}"


def main(names):
    mutants = json.loads(MANIFEST.read_text(encoding="utf-8"))
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        sys.exit(f"no mutant named {', '.join(sorted(unknown))}")
    chosen = [m for m in mutants if not names or m["name"] in names]
    failed = 0
    with tempfile.TemporaryDirectory() as folder:
        root = Path(folder)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(
                    source, root / name,
                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
                )
            else:
                shutil.copy(source, root / name)
        for mutant in chosen:
            start = time.perf_counter()
            result = outcome(root, mutant)
            failed += result != "killed"
            seconds = time.perf_counter() - start
            print(f"{result:<10} {seconds:6.1f} s  {mutant['name']}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
