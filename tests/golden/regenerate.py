"""Regenerate the CLI transcripts that ``tests/test_golden.py`` replays.

Run from anywhere: ``python tests/golden/regenerate.py``. It imports
``dfca`` from this checkout's ``src``, rewrites the inputs under
``tests/golden/inputs`` (a conditional file and a probe file for each
context in ``data/`` and ``tests/data/corpus``, statement files at the
edges of the formula language, and a set of malformed context files),
runs every command from the repository root, and writes each argv with
its exit code, stdout and stderr to ``tests/golden/manifest.json``.
Commands run in-process, except the few whose argv starts with
``python -m dfca``, which run the package's entry point in a child
process. An entry may also carry an ``env`` mapping of environment
variables set for its run alone, such as a lowered ``DFCA_MAX_ATOMS``.

The transcripts pin what the CLI answers. A regenerated entry that
differs is a change in behaviour, to be listed in CHANGES.md with its
reason.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "manifest.json"
# an argv starting with this runs the entry point in a child process
MODULE = ["python", "-m", "dfca"]

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
    "line_break_in_object_name.csv": b'name,a\n"g\nh",1\nk,0\n',
    "line_break_in_attribute_name.csv": b'name,"a\r\nb",b\ng,1,0\n',
}


def quote(name):
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


# statement files at the edges of the formula language, keyed by file name:
# doubled negations, an attribute or atom named TOP (a plain name in the
# context language, a constant in the propositional one unless quoted),
# classical statements and assertions, antecedents nothing satisfies, and
# bases with statements no finite rank accepts
STATEMENTS = {
    "friends_edges.kb": "\n".join([
        "# doubled and tripled negations",
        '!!"fw. alice" |~ "fw. bob"',
        '"fw. david" |~ "fw. charlie" | "fw. eva"',
        '!!!"fw. frank" |~ !!("fw. bob" | !"fw. bob")',
    ]),
    # no object satisfies the antecedent, so no ranking can witness it
    "friends_impossible.kb": '"fw. eva" & !"fw. eva" |~ "fw. frank"',
    "friends_edges.probes": "\n".join([
        '"fw. alice" |~ "fw. bob"',
        '!!"fw. alice" |~ !"fw. frank"',
        '"fw. eva" & !"fw. eva" |~ "fw. frank"',
        '"fw. david" |~ "fw. charlie"',
        '"fw. frank" |~ "fw. frank"',
    ]),
    "friends_invalid.kb": '"fw. alice" |~ "fw. bob"\n"fw. alice" |~ !"fw. bob"',
    # a classical statement, which neither a ranking nor a probe accepts
    "friends_classical.kb": '"fw. alice" |~ "fw. bob"\n"fw. charlie" -> !!"fw. charlie"',
    "top.cxt": "B\n\n3\n2\n\ng\nh\nk\nTOP\nBOT\nX.\nXX\n..",
    # an object count past sys.maxsize, which no split limit may take
    "count_past_maxsize.cxt": "B\n\n99999999999999999999\n1\n\ng",
    "top.kb": '"TOP" |~ BOT\nTOP & !BOT |~ !!TOP',
    "birds.kb": "\n".join([
        "# a doubled negation, an atom named TOP, assertions",
        "bird |~ flies",
        "penguin |~ bird",
        "penguin |~ !!!flies",
        '"TOP" |~ bird',
        "penguin -> bird",
        "!(robin & penguin)",
        "TOP",
    ]),
    "contradiction.kb": "\n".join([
        "# a |~ b and a |~ !b leave a exceptional at every finite rank",
        "a |~ b",
        "a |~ !b",
        "c |~ a",
        "d |~ e",
    ]),
    "bad_syntax.kb": "bird |~ flies\nbird |~ (flies",
    # several attributes weather.cxt lacks: the first in the text is named
    "weather_unknown.kb": "Rain |~ yy & ww & qq & pp",
    # names the lexer reads bare, among them "a-" (as in "a-->b") and TOP
    "lexer.cxt": "B\n\n3\n4\n\ng\nh\nk\na\nb\na-\nTOP\nXX..\nX.X.\n.X.X",
    # as a context KB and as a propositional base
    "lexer.kb": "a |~ b\na- |~ !b",
    "lexer_fault.kb": "a |~ b\n# a stray '<' on the next line\nb <- a |~ b",
    # each link's premise an exception to the link before, ranked 0 to 4 from
    # the far end, and an assertion no finite rank accepts
    "rc_chain.kb": "\n".join([
        "# a 5-atom exception chain and an assertion",
        "a |~ b",
        "b |~ !a",
        "b |~ c",
        "c |~ !b",
        "c |~ d",
        "d |~ !c",
        "d |~ e",
        "e |~ !d",
        "!(a & e)",
    ]),
    "rc_pair.kb": "a |~ b\nb |~ !a",
    # both statements exceptional at every finite rank
    "rc_forever.kb": "a |~ b\na |~ !b",
    # characters str.splitlines() breaks at but a file's lines do not: in a
    # comment, and in an attribute name that a .cxt name line can hold
    "separators.cxt": "B\n\n2\n2\n\ng\nh\nc\na\u2028b\nX.\nXX",
    "form_feed.kb": "# note\x0c more\nc |~ c",
    "line_separator.kb": '"a\u2028b" |~ c',
    "separators.probes": 'c |~ "a\u2028b"\n"a\u2028b" |~ c',
    "separators_prop.kb": "\n".join([
        "# \x0b vt \x0c ff \x1c fs \x1d gs \x1e rs \x85 nel \u2028 ls \u2029 ps",
        "a |~ b",
        "b |~ !a",
    ]),
}

# rcprop queries on rc_chain.kb: antecedents first possible at rank 0, 1, 2,
# 3 and 4, ruled out at every rank (by the assertion, or impossible), and
# atoms the base never mentions
CHAIN_QUERIES = [
    "e |~ !d",
    "z |~ a",
    "d |~ e",
    "c & z |~ d",
    "c |~ !a",
    "b |~ c",
    "a |~ b",
    "a |~ !c",
    "a & e |~ c",
    "a & !a |~ b",
    "BOT |~ z",
]

# text at the edges of the lexer, each given to extension, holds, entail and
# rcprop: stray characters, faulty quoted names, comments, Unicode
# whitespace, '->' right after a name, and a quoted TOP
LEXER_TEXTS = [
    "a - b",
    "a < b",
    "a ~ b",
    "a $ b",
    "é |~ a",
    '"a |~ b',
    '"a\\q" |~ b',
    '"a\\',
    "a |~ b \\",
    "a |~ # b",
    "a | b # a |~ b",
    "a\u00a0|~\u2003b",
    "a\u00a0&\u2003!b",
    "a->b",
    "a-->b",
    '"TOP" |~ a',
    '"TOP"',
]


def kb_lines(context):
    """Objects with the first attribute normally have the last; none without any."""
    if not context.attributes:
        return ["# no attributes"]
    return [f"{quote(context.attributes[0])} |~ {quote(context.attributes[-1])}"]


def probe_lines(context):
    """Defeasible queries over the first and last attributes, both ways round."""
    if not context.attributes:
        return ["# no attributes"]
    first, last = quote(context.attributes[0]), quote(context.attributes[-1])
    return [f"{first} |~ {last}", f"{last} |~ !{first}", f"{first} | {last} |~ {last}"]


def every_object(context):
    """A formula every object satisfies (or, without attributes, an unknown name)."""
    if not context.attributes:
        return "TOP"
    first = quote(context.attributes[0])
    return f"{first} | !{first}"


def relative(path):
    return path.relative_to(ROOT).as_posix()


def edge_commands(empty_kb):
    """Statement files at the edges of the language, faults, and the entry point."""
    for name, text in STATEMENTS.items():
        (INPUTS / name).write_text(text + "\n", encoding="utf-8")
    friends = relative(ROOT / "data" / "friends.cxt")
    friends_kb = relative(ROOT / "data" / "friends.kb")
    penguin = relative(ROOT / "data" / "penguin.kb")
    empty = relative(empty_kb)
    weather = relative(ROOT / "data" / "weather.cxt")
    unknown = relative(INPUTS / "weather_unknown.kb")
    edges, invalid, classical, top, top_kb, birds, contradiction, bad_syntax = (
        relative(INPUTS / name)
        for name in (
            "friends_edges.kb",
            "friends_invalid.kb",
            "friends_classical.kb",
            "top.cxt",
            "top.kb",
            "birds.kb",
            "contradiction.kb",
            "bad_syntax.kb",
        )
    )
    argvs = []
    for flags in ([], ["--json"]):
        argvs += [
            ["rank", *flags, friends, edges],
            ["validate", *flags, friends, edges],
            ["entail", *flags, friends, edges, '!!"fw. alice" |~ "fw. bob"'],
            ["entail", *flags, friends, edges, '"fw. eva" & !"fw. eva" |~ "fw. frank"'],
            ["extension", *flags, friends, '!!"fw. alice" & !("fw. bob" | "fw. eva")'],
            ["holds", *flags, friends, '"fw. charlie" -> !!"fw. charlie"'],
            ["holds", *flags, friends, '"fw. eva" & !"fw. eva" -> BOT'],
            [
                "diff", *flags, friends, empty, edges,
                "--probe", relative(INPUTS / "friends_edges.probes"),
            ],
            [
                "diff", *flags, friends, friends_kb,
                relative(ROOT / "data" / "friends_extended.kb"),
                "--probe", relative(ROOT / "data" / "friends.probes"),
            ],
            ["validate", *flags, friends, invalid],
            ["validate", *flags, friends, relative(INPUTS / "friends_impossible.kb")],
            ["validate", "--exhaustive", *flags, friends, invalid],
            ["rank", *flags, friends, invalid],
            ["entail", *flags, friends, invalid, '"fw. alice" |~ "fw. bob"'],
            ["extension", *flags, top, 'TOP & !"BOT"'],
            ["rank", *flags, top, top_kb],
            ["entail", *flags, top, top_kb, '"TOP" |~ !!BOT'],
            ["baserank", *flags, penguin],
            ["baserank", *flags, birds],
            ["baserank", *flags, contradiction],
            ["baserank", *flags, empty],
            ["rcprop", *flags, penguin, "penguin |~ !flies"],
            ["rcprop", *flags, penguin, "bird |~ flies"],
            ["rcprop", *flags, penguin, "penguin |~ flies"],
            ["rcprop", *flags, birds, '"TOP" |~ flies'],
            ["rcprop", *flags, birds, "TOP |~ !!bird | !bird"],
            ["rcprop", *flags, birds, "robin & penguin |~ flies"],
            ["rcprop", *flags, birds, "BOT |~ flies"],
            ["rcprop", *flags, contradiction, "a |~ b"],
            ["rcprop", *flags, contradiction, "d |~ e"],
            ["rcprop", *flags, contradiction, "d |~ !c"],
        ]
    # usage errors, faults in the input, and a command given the wrong kind
    # of statement
    argvs += [
        [],
        ["frobnicate"],
        ["extension", friends],
        ["extension", "--json"],
        ["rank", "--bogus", friends, friends_kb],
        ["diff", friends, friends_kb, friends_kb],
        ["validate", "--json", "--exhaustive"],
        ["extension", friends, '"fw. zed"'],
        ["extension", "--json", friends, '"fw. alice" &'],
        ["extension", "data/missing.cxt", "a"],
        ["extension", relative(INPUTS / "count_past_maxsize.cxt"), "a"],
        ["extension", friends_kb, "a"],
        ["holds", friends, '"fw. alice" |~ "fw. bob"'],
        ["entail", friends, friends_kb, '"fw. alice" -> "fw. bob"'],
        ["entail", friends, friends_kb, '"fw. alice" |~ "fw. zed"'],
        ["rank", weather, unknown],
        ["validate", weather, unknown],
        ["rcprop", penguin, "penguin"],
        ["rcprop", "--json", penguin, "penguin |~"],
        ["diff", friends, friends_kb, friends_kb, "--probe", classical],
        ["rank", friends, classical],
        ["rank", friends, bad_syntax],
        ["baserank", bad_syntax],
        ["baserank", "data/missing.kb"],
    ]
    # the entry point, in a child process
    argvs += [
        [*MODULE, "extension", friends, '"fw. alice"'],
        [*MODULE, "rank", "--json", friends, friends_kb],
        [*MODULE, "holds", friends, '"fw. alice" -> "fw. bob"'],
        [*MODULE, "rcprop", penguin, "penguin |~ !flies"],
        [*MODULE, "entail", friends, invalid, '"fw. alice" |~ "fw. bob"'],
        [*MODULE],
    ]
    return argvs


def lexer_commands():
    """Each lexer edge through the four commands that parse text, and a faulty KB."""
    context, kb, fault = (
        relative(INPUTS / name) for name in ("lexer.cxt", "lexer.kb", "lexer_fault.kb")
    )
    argvs = []
    for flags in ([], ["--json"]):
        for text in LEXER_TEXTS:
            argvs += [
                ["extension", *flags, context, text],
                ["holds", *flags, context, text],
                ["entail", *flags, context, kb, text],
                ["rcprop", *flags, kb, text],
            ]
        argvs += [
            ["entail", *flags, context, fault, "a |~ b"],
            ["rcprop", *flags, fault, "a |~ b"],
        ]
    return argvs


def closure_commands():
    """Rational closure on the chain, and at lowered valuation caps.

    Each item is an argv with the environment variables set for its run
    alone, or None. At the lowered caps the base's own atoms, the query's,
    or both are too many, on a ranked base, on one with no finite rank and
    on an empty one. A cap that is no integer, or negative, is refused by
    the propositional commands; a context command never reads it.
    """
    chain, pair, forever, empty = (
        relative(INPUTS / name)
        for name in ("rc_chain.kb", "rc_pair.kb", "rc_forever.kb", "empty.kb")
    )
    argvs = []
    for flags in ([], ["--json"]):
        argvs.append(["baserank", *flags, chain])
        argvs += [["rcprop", *flags, chain, query] for query in CHAIN_QUERIES]
    items = [(argv, None) for argv in argvs]
    for cap in ("1", "2"):
        env = {"DFCA_MAX_ATOMS": cap}
        for flags in ([], ["--json"]):
            items += [
                (["baserank", *flags, chain], env),
                (["baserank", *flags, pair], env),
                (["rcprop", *flags, chain, "e |~ !d"], env),
                (["rcprop", *flags, pair, "z |~ a"], env),
                (["rcprop", *flags, pair, "b |~ a"], env),
                (["rcprop", *flags, forever, "c |~ d"], env),
                (["rcprop", *flags, forever, "a |~ c"], env),
                (["rcprop", *flags, empty, "a & c |~ b"], env),
            ]
    for cap in ("abc", "-1", ""):
        env = {"DFCA_MAX_ATOMS": cap}
        items += [
            (["rcprop", "data/penguin.kb", "penguin |~ bird"], env),
            (["baserank", "data/penguin.kb"], env),
        ]
    items.append((["extension", "data/weather.cxt", "Rain"], {"DFCA_MAX_ATOMS": "abc"}))
    return items


def separator_commands():
    """Statement files and names holding characters that end no line."""
    context, form_feed, line_separator, probes, base, empty = (
        relative(INPUTS / name)
        for name in (
            "separators.cxt",
            "form_feed.kb",
            "line_separator.kb",
            "separators.probes",
            "separators_prop.kb",
            "empty.kb",
        )
    )
    argvs = []
    for flags in ([], ["--json"]):
        argvs += [
            ["extension", *flags, context, '"a\u2028b"'],
            ["rank", *flags, context, form_feed],
            ["rank", *flags, context, line_separator],
            ["validate", *flags, context, line_separator],
            ["entail", *flags, context, form_feed, '"a\u2028b" |~ c'],
            ["diff", *flags, context, empty, line_separator, "--probe", probes],
            ["baserank", *flags, base],
            ["rcprop", *flags, base, "a |~ b"],
        ]
    return argvs


def first_last(context):
    """Quoted names of the first and last attributes, or an unknown name twice."""
    if not context.attributes:
        return "TOP", "TOP"
    return quote(context.attributes[0]), quote(context.attributes[-1])


def commands():
    """Every argv of the manifest, in order, writing each context's conditional file."""
    from dfca import load_context

    contexts = sorted((ROOT / "data").glob("*.cxt")) + sorted(
        (ROOT / "data").glob("*.csv")
    )
    corpus = ROOT / "tests" / "data" / "corpus"
    contexts += sorted(corpus.glob("*.cxt")) + sorted(corpus.glob("*.csv"))
    argvs = []
    # ranked by no conditionals, a context prints every object and its row
    empty_kb = INPUTS / "empty.kb"
    empty_kb.write_text("# no conditionals\n", encoding="utf-8")
    for path in contexts:
        context = load_context(path)
        kb = INPUTS / f"{path.parent.name}_{path.stem}.kb"
        kb.write_text("\n".join(kb_lines(context)) + "\n", encoding="utf-8")
        probes = INPUTS / f"{path.parent.name}_{path.stem}.probes"
        probes.write_text("\n".join(probe_lines(context)) + "\n", encoding="utf-8")
        kbs = [kb]
        if path.name == "friends.cxt":
            kbs += [ROOT / "data" / "friends.kb", ROOT / "data" / "friends_extended.kb"]
        first, last = first_last(context)
        for flags in ([], ["--json"]):
            argvs.append(["extension", *flags, relative(path), every_object(context)])
            for kb in kbs:
                argvs.append(["rank", *flags, relative(path), relative(kb)])
                argvs.append(["validate", *flags, relative(path), relative(kb)])
            argvs.append(["holds", *flags, relative(path), f"{first} -> {last}"])
            argvs.append(
                ["entail", *flags, relative(path), relative(kbs[0]), f"{first} |~ {last}"]
            )
            argvs.append([
                "diff", *flags, relative(path), relative(empty_kb), relative(kbs[-1]),
                "--probe", relative(probes),
            ])
    argvs += edge_commands(empty_kb)
    for name in MALFORMED:
        for flags in ([], ["--json"]):
            argvs.append(["rank", *flags, relative(INPUTS / name), relative(empty_kb)])
        # a context that loads answers from the columns of a and b alone
        argvs.append(["extension", relative(INPUTS / name), "a & !b"])
    argvs += lexer_commands()
    return argvs


def replay(argv, env=None):
    """Run one invocation: its exit code, stdout and stderr.

    An argv starting with ``python -m dfca`` runs the entry point in a
    child process with this checkout's ``src`` first on its path; any other
    runs ``dfca.cli.main`` in-process. Usage text is wrapped at 80 columns
    either way, whatever the terminal. The variables in ``env`` are set for
    this run alone, and an entry given them records them.
    """
    recorded = {"argv": argv, "env": env} if env else {"argv": argv}
    env = dict(env or {}, COLUMNS="80")
    if argv[:3] == MODULE:
        path = [str(ROOT / "src")] + list(filter(None, [os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "dfca", *argv[3:]],
            cwd=ROOT,
            env=dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(path),
                PYTHONIOENCODING="utf-8",
                **env,
            ),
            capture_output=True,
            encoding="utf-8",
        )
        return dict(
            recorded, exit=done.returncode, stdout=done.stdout, stderr=done.stderr
        )
    from dfca.cli import main

    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, env),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    return dict(recorded, exit=code, stdout=out.getvalue(), stderr=err.getvalue())


def main():
    sys.path.insert(0, str(ROOT / "src"))
    INPUTS.mkdir(exist_ok=True)
    for name, data in MALFORMED.items():
        (INPUTS / name).write_bytes(data)
    os.chdir(ROOT)
    entries = [replay(argv) for argv in commands()]
    entries += [replay(argv, env) for argv, env in closure_commands()]
    entries += [replay(argv) for argv in separator_commands()]
    MANIFEST.write_text(
        json.dumps(entries, ensure_ascii=False, indent=1) + "\n", encoding="utf-8"
    )
    print(f"{len(entries)} entries written to {relative(MANIFEST)}")


if __name__ == "__main__":
    main()
