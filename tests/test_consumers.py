"""Every function in ``src/dfca`` has a consumer outside the tests.

The golden CLI transcripts and the demos are replayed in a fresh
interpreter under a profile hook, which notes every code object that
starts; a fresh one, so that nothing an earlier test built and cached (the
CLI's parser, say) hides a function from the hook. A function in the
package that none of them reaches must appear in ``ALLOWED`` with its
reason; otherwise it is dead weight, to be removed or given a demo.
Protocol dunders (``__eq__``, ``__repr__`` and the like) are skipped by
rule, but ``__init__`` and ``__post_init__`` are not, so an unused class
still shows. An allowed name that a run reaches, or that no longer exists,
fails the test too, so the list cannot go stale.

Run ``python tests/test_consumers.py`` to print the uncalled functions as
``module:qualname  file:line``, sorted, for writing an allowlist entry.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "dfca"
DEMOS = ROOT / "demos"

# functions no transcript or demo calls, each with its reason
ALLOWED = {
    "fileio:load_order": "timed by perfbench ctx-preferential",
    "order:StrictOrder.successors": "timed by perfbench ctx-preferential",
    "order:StrictOrder._closed": "timed by perfbench ctx-preferential",
    "order:order_from_ranks": "timed by perfbench ctx-preferential",
    "formula:bind": "wrapped by perfbench/spans.py; goes with ROADMAP item 1b",
    "order:_first_on_cycle": "names the cycle in faulty order pairs",
}

# dunders held to having a caller all the same, so that an unused class shows
JUDGED_DUNDERS = {"__init__", "__post_init__"}


def package_functions():
    """{(file, first line): (module:qualname, def line)} for every function.

    A code object's first line is that of its first decorator, while the
    syntax tree puts a function at its ``def`` line; both are kept, the
    first to match code objects, the second to print. Qualified names are
    built from the tree, as ``co_qualname`` needs Python 3.11.
    """
    found = {}

    def visit(body, path, module, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, module, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[str(path), first] = (f"{module}:{prefix}{node.name}", node.lineno)
                visit(node.body, path, module, f"{prefix}{node.name}.<locals>.")

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree.body, path, path.stem, "")
    return found


def judged(qualname):
    """Is the function held to having a consumer, or skipped as a protocol dunder?"""
    name = qualname.replace(":", ".").rsplit(".", 1)[-1]
    dunder = name.startswith("__") and name.endswith("__")
    return not dunder or name in JUDGED_DUNDERS


def replay_everything():
    """Run the golden transcripts and the demos; return the code objects started.

    ``python -m dfca`` transcripts run in a child process, out of the
    hook's sight; the same ``cli.main`` runs in-process for the others.
    Everything runs from the repository root, as the transcripts expect.
    """
    from golden.regenerate import MANIFEST, MODULE, replay

    entries = json.loads(MANIFEST.read_text(encoding="utf-8"))
    started = set()

    def hook(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    cwd = os.getcwd()
    previous = sys.getprofile()
    os.chdir(ROOT)
    sys.setprofile(hook)
    try:
        for entry in entries:
            if entry["argv"][:3] != MODULE:
                replay(entry["argv"], entry.get("env"))
        for demo in sorted(DEMOS.glob("*.py")):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(previous)
        os.chdir(cwd)
    return started


def uncalled():
    """{module:qualname: file:line} for the judged functions no run started."""
    functions = package_functions()
    started = replay_everything()
    # a code object's file name is as the import found it, maybe relative
    files = {code.co_filename for code in started}
    files = {name: str(Path(name).resolve()) for name in files}
    reached = {(files[code.co_filename], code.co_firstlineno) for code in started}
    return {
        name: f"{Path(path).relative_to(ROOT).as_posix()}:{line}"
        for (path, first), (name, line) in functions.items()
        if (path, first) not in reached and judged(name)
    }


# prints uncalled() as JSON from a fresh interpreter
UNCALLED = """
import json, test_consumers
print(json.dumps(test_consumers.uncalled()))
"""


def test_every_function_has_a_consumer_or_an_allowed_reason():
    path = [str(ROOT / "src"), str(HERE)]
    done = subprocess.run(
        [sys.executable, "-c", UNCALLED],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        encoding="utf-8",
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    missing = json.loads(done.stdout)
    not_allowed = sorted(set(missing) - set(ALLOWED))
    # a name no longer defined cannot be missing either
    reached_or_gone = sorted(set(ALLOWED) - set(missing))
    assert not not_allowed and not reached_or_gone, (
        "uncalled and not allowed:\n"
        + "".join(f"  {name}  {missing[name]}\n" for name in not_allowed)
        + "allowed but reached or gone:\n"
        + "".join(f"  {name}\n" for name in reached_or_gone)
    )


def test_judged_skips_protocol_dunders_but_not_constructors():
    assert not judged("order:StrictOrder.__eq__")
    assert not judged("ranking:KnowledgeBase.__len__")
    assert judged("order:StrictOrder.__init__")
    assert judged("context:AttributeImplication.__post_init__")
    assert judged("order:StrictOrder.minimise")
    assert judged("order:ranks_from_order")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    for name, where in sorted(uncalled().items()):
        print(f"{name}  {where}")
