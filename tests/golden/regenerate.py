"""Regenerate the CLI transcripts that ``tests/test_golden.py`` replays.

Run from anywhere: ``python tests/golden/regenerate.py``. It imports
``dfca`` from this checkout's ``src``, rewrites the inputs under
``tests/golden/inputs`` (a conditional file for each context in ``data/``
and ``tests/data/corpus``, and a set of malformed context files), runs
every command in-process from the repository root, and writes each
argv with its exit code, stdout and stderr to ``tests/golden/manifest.json``.

The transcripts pin what the CLI answers. A regenerated entry that
differs is a change in behaviour, to be listed in CHANGES.md with its
reason.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "manifest.json"

# context files with a fault, or at an edge of the format, as raw bytes
MALFORMED = {
    "empty.cxt": b"",
    "bad_header.cxt": b"A\n\n1\n1\n\ng\nm\nX\n",
    "no_blank_after_header.cxt": b"B\nx\n1\n1\n\ng\nm\nX\n",
    "bad_object_count.cxt": b"B\n\nmany\n1\n\ng\nm\nX\n",
    "negative_attribute_count.cxt": b"B\n\n1\n-1\n\ng\nm\nX\n",
    "no_blank_after_counts.cxt": b"B\n\n1\n1\nx\ng\nm\nX\n",
    "count_past_the_end.cxt": b"B\n\n99999999999\n1\n\ng\n",
    "ends_in_the_names.cxt": b"B\n\n2\n1\n\ng\n",
    "ends_in_the_rows.cxt": b"B\n\n2\n1\n\ng\nh\nm\nX\n",
    "empty_object_name.cxt": b"B\n\n2\n1\n\ng\n\nm\nX\n.\n",
    "empty_attribute_name.cxt": b"B\n\n1\n2\n\ng\nm\n\nXX\n",
    "short_row.cxt": b"B\n\n2\n2\n\ng\nh\na\nb\nX.\nX\n",
    "long_row.cxt": b"B\n\n2\n2\n\ng\nh\na\nb\nX.\nX..\n",
    "illegal_cell.cxt": b"B\n\n2\n2\n\ng\nh\na\nb\nX.\nX?\n",
    "non_ascii_cell.cxt": "B\n\n2\n2\n\ng\nh\na\nb\nX.\n×.\n".encode(),
    "line_break_inside_rows.cxt": b"B\n\n2\n2\n\ng\nh\na\nb\nX.\n\nX\n",
    "trailing_blank_line.cxt": b"B\n\n1\n2\n\ng\na\nb\nXX\n\n",
    "content_after_rows.cxt": b"B\n\n1\n2\n\ng\na\nb\nXX\n..\n",
    "duplicate_object.cxt": b"B\n\n3\n1\n\ng\nh\ng\nm\n.\nX\n.\n",
    "duplicate_attribute.cxt": b"B\n\n1\n2\n\ng\nm\nm\nX.\n",
    "not_utf8.cxt": b"B\n\n1\n1\n\ng\xff\nm\nX\n",
    # at an edge of the format: line ends, final line breaks, non-ASCII names
    "cr_line_ends.cxt": b"B\r\r1\r1\r\rg\rm\rX\r",
    "crlf.cxt": b"B\r\n\r\n2\r\n2\r\n\r\ng\r\nh\r\na\r\nb\r\nX.\r\n.X\r\n",
    "no_final_newline.cxt": b"B\n\n2\n2\n\ng\nh\na\nb\nX.\n.X",
    "no_attributes_no_final_newline.cxt": b"B\n\n2\n0\n\ng\nh\n\n",
    "no_objects_no_final_newline.cxt": b"B\n\n0\n2\n\na\nb",
    "non_ascii_names.cxt": "B\n\n2\n1\n\nKöln\n北京\ngrößer\nX\n.\n".encode(),
    # .csv, well-formed and with a fault
    "cells.csv": b"name,a,b\r\ng,x,\r\nh, 1 ,0\r\n",
    "empty.csv": b"",
    "short_record.csv": b"name,a,b\ng,1\n",
    "illegal_cell.csv": b"name,a,b\ng,1,2\n",
    "empty_object_name.csv": b"name,a\n,1\n",
}


def quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def kb_lines(context):
    """Objects with the first attribute normally have the last; none without any."""
    if not context.attributes:
        return ["# no attributes"]
    return [f"{quote(context.attributes[0])} |~ {quote(context.attributes[-1])}"]


def every_object(context):
    """A formula every object satisfies (or, without attributes, an unknown name)."""
    if not context.attributes:
        return "TOP"
    first = quote(context.attributes[0])
    return f"{first} | !{first}"


def relative(path):
    return path.relative_to(ROOT).as_posix()


def commands():
    """Every argv of the manifest, in order, writing each context's conditional file."""
    from dfca import load_context

    contexts = sorted((ROOT / "data").glob("*.cxt")) + sorted(
        (ROOT / "data").glob("*.csv")
    )
    corpus = ROOT / "tests" / "data" / "corpus"
    contexts += sorted(corpus.glob("*.cxt")) + sorted(corpus.glob("*.csv"))
    argvs = []
    for path in contexts:
        context = load_context(path)
        kb = INPUTS / f"{path.parent.name}_{path.stem}.kb"
        kb.write_text("\n".join(kb_lines(context)) + "\n", encoding="utf-8")
        kbs = [kb]
        if path.name == "friends.cxt":
            kbs += [ROOT / "data" / "friends.kb", ROOT / "data" / "friends_extended.kb"]
        for flags in ([], ["--json"]):
            argvs.append(["extension", *flags, relative(path), every_object(context)])
            for kb in kbs:
                argvs.append(["rank", *flags, relative(path), relative(kb)])
                argvs.append(["validate", *flags, relative(path), relative(kb)])
    # ranked by no conditionals, a context prints every object and its row
    empty_kb = INPUTS / "empty.kb"
    empty_kb.write_text("# no conditionals\n", encoding="utf-8")
    for name in MALFORMED:
        for flags in ([], ["--json"]):
            argvs.append(["rank", *flags, relative(INPUTS / name), relative(empty_kb)])
    return argvs


def replay(argv):
    """Run one invocation in-process: its exit code, stdout and stderr."""
    from dfca.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    sys.path.insert(0, str(ROOT / "src"))
    INPUTS.mkdir(exist_ok=True)
    for name, data in MALFORMED.items():
        (INPUTS / name).write_bytes(data)
    os.chdir(ROOT)
    entries = [replay(argv) for argv in commands()]
    MANIFEST.write_text(
        json.dumps(entries, ensure_ascii=False, indent=1) + "\n", encoding="utf-8"
    )
    print(f"{len(entries)} entries written to {relative(MANIFEST)}")


if __name__ == "__main__":
    main()
