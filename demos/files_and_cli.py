"""Everything on disk: context files, statement files, and the command line.

The same reasoning that the other demos drive through the library is
available from files and a terminal. This script writes a small context
out, reads it back, and then runs the bundled command-line tool in
process, printing each command next to its exit code and output.
"""

import tempfile
from pathlib import Path

from dfca import format_cxt, load_context, parse_cxt, save_context
from dfca.cli import run

DATA = Path(__file__).resolve().parent.parent / "data"


def show(argv):
    result = run(argv)
    print(f"\n$ dfca {' '.join(argv)}")
    print(f"  exit code {result.exit_code}")
    for line in result.text.splitlines():
        print(f"  {line}")


def main():
    context = load_context(DATA / "elements.cxt")
    print("a context file is five header lines, the names, then the matrix:")
    text = format_cxt(context)
    for line in text.splitlines():
        print(f"  {line}")
    print("the text parses back to the same context?", parse_cxt(text) == context)

    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "elements_copy.cxt"
        save_context(context, copy)
        again = load_context(copy)
        print("\nwritten and read back unchanged?", again == context)

    friends = str(DATA / "friends.cxt")
    friends_kb = str(DATA / "friends.kb")
    show(["extension", friends, '"fw. alice" & "fw. eva"'])
    show(["holds", str(DATA / "weather.cxt"), "Rain -> Cold"])
    show(["validate", friends, friends_kb])
    show(["rank", friends, friends_kb])
    show(["entail", friends, friends_kb, '"fw. david" |~ "fw. charlie"'])
    show([
        "diff", friends, friends_kb, str(DATA / "friends_extended.kb"),
        "--probe", str(DATA / "friends.probes"),
    ])
    show(["baserank", str(DATA / "penguin.kb")])
    show(["rcprop", str(DATA / "penguin.kb"), "penguin |~ flies"])


if __name__ == "__main__":
    main()
