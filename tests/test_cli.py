import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORPUS_DIR,
    DATA_DIR,
    build_friends,
    friends_delta,
    random_conditional,
)
from dfca import FormalContext, KnowledgeBase, bitsets, load_context
from dfca.cli import CliResult, _rank_table, _shown, main, run
from dfca.fileio import format_cxt
from dfca.formula import parse_conditional
from dfca.ranking import object_rank
from golden.regenerate import MANIFEST, ROOT

FRIENDS = str(DATA_DIR / "friends.cxt")
FRIENDS_KB = str(DATA_DIR / "friends.kb")
FRIENDS_EXTENDED_KB = str(DATA_DIR / "friends_extended.kb")
FRIENDS_PROBES = str(DATA_DIR / "friends.probes")
WEATHER = str(DATA_DIR / "weather.cxt")
ELEMENTS = str(DATA_DIR / "elements.cxt")
PENGUIN_KB = str(DATA_DIR / "penguin.kb")

RANK_TABLE = "\n".join(
    [
        'rank  object   fw. alice  fw. bob  fw. charlie  fw. david  fw. eva  fw. frank',
        '0     bob                 ×        ×            ×',
        '      eva                 ×                                ×',
        '1     charlie                      ×',
        '      frank    ×          ×        ×',
        '2     alice    ×                   ×                       ×        ×',
        '      david    ×                                ×          ×        ×',
    ]
)


class TestExtension:
    def test_text(self):
        result = run(["extension", WEATHER, "Rain | Wind"])
        assert result.exit_code == 0
        assert result.text == "Day 2\nDay 3"

    def test_json(self):
        result = run(["extension", WEATHER, "Rain | Wind", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.text)
        assert payload == {
            "command": "extension",
            "formula": "Rain | Wind",
            "objects": ["Day 2", "Day 3"],
            "count": 2,
        }
        assert result.data == payload

    def test_empty_extension(self):
        result = run(["extension", WEATHER, "Rain & Sun"])
        assert result.exit_code == 0
        assert result.text == ""


class TestHolds:
    def test_holding_implication(self):
        result = run(["holds", WEATHER, "Rain | Wind -> Cold"])
        assert result.exit_code == 0
        assert result.text == "holds"

    def test_failing_implication_lists_counterexamples(self):
        result = run(["holds", ELEMENTS, "Non-metal -> Gas"])
        assert result.exit_code == 1
        assert result.text == "does not hold; counterexamples: Carbon"
        payload = run(["holds", ELEMENTS, "Non-metal -> Gas", "--json"]).data
        assert payload["holds"] is False
        assert payload["counterexamples"] == ["Carbon"]

    def test_defeasible_query_rejected(self):
        result = run(["holds", ELEMENTS, "Non-metal |~ Gas"])
        assert result.exit_code == 2
        assert "use entail" in result.text


class TestValidate:
    def test_valid_by_ranking(self):
        result = run(["validate", FRIENDS, FRIENDS_KB])
        assert result.exit_code == 0
        assert result.text == "valid"

    def test_valid_exhaustively(self):
        result = run(["validate", FRIENDS, FRIENDS_KB, "--exhaustive", "--json"])
        assert result.exit_code == 0
        assert result.data["mode"] == "exhaustive"
        assert result.data["valid"] is True
        assert result.data["reason"] is None

    def test_invalid_is_an_answer_not_an_error(self, tmp_path):
        kb = tmp_path / "kb.txt"
        kb.write_text("Rain |~ Sun\n", encoding="utf-8")
        result = run(["validate", WEATHER, str(kb)])
        assert result.exit_code == 1
        assert result.text.startswith("invalid: ")
        exhaustive = run(["validate", WEATHER, str(kb), "--exhaustive"])
        assert exhaustive.exit_code == 1
        assert "witness" in exhaustive.text

    def test_exhaustive_answers_past_the_cap(self, monkeypatch):
        """Two conditionals against a cap of one: answered, since no sweep runs."""
        monkeypatch.setenv("DFCA_MAX_ATOMS", "1")
        result = run(["validate", FRIENDS, FRIENDS_KB, "--exhaustive", "--json"])
        assert result.exit_code == 0
        assert result.data["mode"] == "exhaustive"
        assert result.data["valid"] is True

    @pytest.mark.parametrize(
        "context, kb",
        [
            (context, kb)
            for context in sorted(DATA_DIR.glob("*.cxt"))
            for kb in sorted(DATA_DIR.glob("*.kb")) + [DATA_DIR / "friends.probes"]
        ],
        ids=lambda path: path.name,
    )
    def test_both_modes_agree_on_the_data_files(self, context, kb):
        assert_modes_agree(str(context), str(kb))

    @pytest.mark.parametrize(
        "context", sorted(CORPUS_DIR.glob("*.cxt")), ids=lambda path: path.name
    )
    def test_both_modes_agree_on_random_kbs(self, context, tmp_path):
        names = list(load_context(context).attributes)
        rng = random.Random(context.name)
        kb = tmp_path / "kb.txt"
        for _ in range(30):
            count = rng.randint(0, 5) if names else 0
            lines = [str(random_conditional(rng, names)) for _ in range(count)]
            kb.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            assert_modes_agree(str(context), str(kb))


def assert_modes_agree(context, kb):
    """``validate`` with and without --exhaustive: same exit code and verdict."""
    ranking = run(["validate", context, kb, "--json"])
    exhaustive = run(["validate", context, kb, "--exhaustive", "--json"])
    assert ranking.exit_code == exhaustive.exit_code
    if ranking.exit_code in (0, 1):
        assert ranking.data["valid"] == exhaustive.data["valid"]
        assert ranking.data["valid"] == (ranking.exit_code == 0)


class TestRank:
    def test_friendship_table(self):
        result = run(["rank", FRIENDS, FRIENDS_KB])
        assert result.exit_code == 0
        assert result.text == RANK_TABLE

    def test_json_strata(self):
        result = run(["rank", FRIENDS, FRIENDS_KB, "--json"])
        assert result.data["strata"] == [
            {"rank": 0, "objects": ["bob", "eva"]},
            {"rank": 1, "objects": ["charlie", "frank"]},
            {"rank": 2, "objects": ["alice", "david"]},
        ]

    def test_json_text_is_the_data_alone(self):
        """Under --json the table is not built; the printed text is the data."""
        result = run(["rank", FRIENDS, FRIENDS_KB, "--json"])
        assert result.text == json.dumps(result.data, ensure_ascii=False, indent=2)

    def test_text_data_holds_no_name_lists(self):
        """The per-stratum name lists are built for --json alone."""
        assert run(["rank", FRIENDS, FRIENDS_KB]).data == {"command": "rank"}

    @pytest.mark.parametrize("n", [1, 256, 257, 700])
    def test_main_writes_the_table_in_blocks(self, n, tmp_path, monkeypatch):
        """main writes the header, then each block of at most 256 rows as it
        is made; together they are the text run returns, and a line end."""
        names = [f"g{i}" for i in range(n)]
        context = FormalContext(names, ["a", "b"], [(i + 3) % 4 for i in range(n)])
        path = tmp_path / "wide.cxt"
        path.write_text(format_cxt(context), encoding="utf-8")
        kb = tmp_path / "kb.txt"
        kb.write_text("a |~ b\n", encoding="utf-8")
        argv = ["rank", str(path), str(kb)]
        writes = []

        class Stream:
            def write(self, piece):
                writes.append(piece)

        monkeypatch.setattr(sys, "stdout", Stream())
        assert main(argv) == 0
        assert "".join(writes) == run(argv).text + "\n"
        assert len(writes) == 2 + -(-n // 256)
        assert max(piece.count("\n") for piece in writes) <= 256

    def test_classical_statement_in_kb_rejected(self, tmp_path):
        kb = tmp_path / "kb.txt"
        kb.write_text('"fw. alice" -> "fw. bob"\n', encoding="utf-8")
        result = run(["rank", FRIENDS, str(kb)])
        assert result.exit_code == 2
        assert "classical" in result.text

    def test_unsatisfiable_kb_is_exit_3(self, tmp_path):
        kb = tmp_path / "kb.txt"
        kb.write_text('"fw. alice" |~ "fw. bob"\n"fw. alice" |~ !"fw. bob"\n', encoding="utf-8")
        result = run(["rank", FRIENDS, str(kb)])
        assert result.exit_code == 3
        assert "no ranking" in result.text


class TestEntail:
    def test_figure_verdicts(self):
        holds = run(["entail", FRIENDS, FRIENDS_KB, '"fw. david" |~ "fw. charlie"'])
        assert holds.exit_code == 0
        assert holds.text == "holds (antecedent first satisfied at rank 0)"
        fails = run(
            ["entail", FRIENDS, FRIENDS_KB, '"fw. david" & "fw. eva" |~ "fw. charlie"']
        )
        assert fails.exit_code == 1
        assert fails.text == "does not hold (antecedent first satisfied at rank 2)"

    def test_vacuous_antecedent(self):
        result = run(
            [
                "entail",
                FRIENDS,
                FRIENDS_KB,
                '"fw. alice" & !"fw. alice" |~ "fw. bob"',
                "--json",
            ]
        )
        assert result.exit_code == 0
        assert result.data["holds"] is True
        assert result.data["antecedent_rank"] is None

    def test_matches_library_result(self):
        ranked, _ = object_rank(build_friends(), friends_delta())
        query = parse_conditional('"fw. eva" |~ "fw. bob"')
        cli = run(["entail", FRIENDS, FRIENDS_KB, str(query)])
        assert (cli.exit_code == 0) == ranked.satisfies(query)

    def test_classical_query_rejected(self):
        result = run(["entail", FRIENDS, FRIENDS_KB, '"fw. david" -> "fw. charlie"'])
        assert result.exit_code == 2
        assert "use holds" in result.text


class TestDiff:
    def test_update_table(self):
        result = run(
            ["diff", FRIENDS, FRIENDS_KB, FRIENDS_EXTENDED_KB, "--probe", FRIENDS_PROBES]
        )
        assert result.exit_code == 0
        lines = result.text.split("\n")
        assert lines[0].split() == ["query", "before", "after", "change"]
        assert lines[1].endswith("retracted")
        assert lines[2].endswith("gained")
        assert lines[3].rstrip().endswith("yes")
        assert lines[4].rstrip().endswith("no")

    def test_json_entries(self):
        result = run(
            [
                "diff",
                FRIENDS,
                FRIENDS_KB,
                FRIENDS_EXTENDED_KB,
                "--probe",
                FRIENDS_PROBES,
                "--json",
            ]
        )
        assert result.data["probes"] == [
            {
                "query": '"fw. eva" |~ "fw. bob"',
                "before": True,
                "after": False,
                "change": "retracted",
            },
            {
                "query": '"fw. eva" |~ "fw. alice"',
                "before": False,
                "after": True,
                "change": "gained",
            },
            {
                "query": '"fw. david" |~ "fw. charlie"',
                "before": True,
                "after": True,
                "change": None,
            },
            {
                "query": '"fw. david" & "fw. eva" |~ "fw. charlie"',
                "before": False,
                "after": False,
                "change": None,
            },
        ]

    def test_probe_flag_is_required(self):
        result = run(["diff", FRIENDS, FRIENDS_KB, FRIENDS_EXTENDED_KB])
        assert result.exit_code == 2

    def test_classical_probe_rejected(self, tmp_path):
        probes = tmp_path / "probes.txt"
        probes.write_text('"fw. eva" -> "fw. bob"\n', encoding="utf-8")
        result = run(
            ["diff", FRIENDS, FRIENDS_KB, FRIENDS_EXTENDED_KB, "--probe", str(probes)]
        )
        assert result.exit_code == 2
        assert "defeasible" in result.text


class TestBaseRank:
    def test_penguin_strata(self):
        result = run(["baserank", PENGUIN_KB])
        assert result.exit_code == 0
        assert result.text == "\n".join(
            [
                "0: bird |~ flies",
                "1: penguin |~ bird; penguin |~ !flies",
                "height: 2",
            ]
        )

    def test_infinite_stratum_printed(self, tmp_path):
        kb = tmp_path / "kb.txt"
        kb.write_text("penguin -> bird\nbird |~ flies\n", encoding="utf-8")
        result = run(["baserank", str(kb)])
        assert result.exit_code == 0
        assert "infinite: penguin -> bird" in result.text

    def test_json_fields(self):
        result = run(["baserank", PENGUIN_KB, "--json"])
        assert result.data == {
            "command": "baserank",
            "strata": [["bird |~ flies"], ["penguin |~ bird", "penguin |~ !flies"]],
            "infinite": [],
            "height": 2,
        }


class TestRcProp:
    def test_penguin_verdicts(self):
        holds = run(["rcprop", PENGUIN_KB, "penguin |~ !flies"])
        assert holds.exit_code == 0
        assert holds.text == "holds (antecedent first non-exceptional at rank 1)"
        fails = run(["rcprop", PENGUIN_KB, "penguin |~ flies"])
        assert fails.exit_code == 1
        assert fails.text == "does not hold (antecedent first non-exceptional at rank 1)"
        assert run(["rcprop", PENGUIN_KB, "bird |~ flies"]).exit_code == 0

    def test_json_fields(self):
        result = run(["rcprop", PENGUIN_KB, "penguin |~ flies", "--json"])
        assert result.data == {
            "command": "rcprop",
            "query": "penguin |~ flies",
            "holds": False,
            "antecedent_rank": 1,
        }

    def test_impossible_antecedent_reported_plainly(self, tmp_path):
        kb = tmp_path / "kb.txt"
        kb.write_text("bird |~ flies\nbird |~ !flies\n", encoding="utf-8")
        result = run(["rcprop", str(kb), "bird |~ wings"])
        assert result.exit_code == 0
        assert result.text == "holds (antecedent impossible at every rank)"
        assert result.data["antecedent_rank"] is None

    def test_classical_query_rejected(self):
        result = run(["rcprop", PENGUIN_KB, "penguin -> flies"])
        assert result.exit_code == 2

    def test_capacity_overrun_is_exit_3(self, monkeypatch):
        monkeypatch.setenv("DFCA_MAX_ATOMS", "1")
        result = run(["rcprop", PENGUIN_KB, "penguin |~ flies"])
        assert result.exit_code == 3


class TestErrorPaths:
    def test_missing_file(self):
        result = run(["extension", "no-such-file.cxt", "Rain"])
        assert result.exit_code == 2
        assert result.text.startswith("error: ")

    def test_syntax_error_in_formula(self):
        result = run(["extension", WEATHER, "Rain |"])
        assert result.exit_code == 2
        assert "offset" in result.text

    def test_unknown_attribute(self):
        result = run(["extension", WEATHER, "Snow"])
        assert result.exit_code == 2
        assert "Snow" in result.text

    def test_a_csv_field_over_the_reader_limit_is_exit_2(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("name,a\ng1," + "1" * 131073 + "\n", encoding="utf-8")
        result = run(["extension", str(path), "a"])
        assert result.exit_code == 2
        assert result.text.startswith(f"error: {path}:2: field larger than")

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]).exit_code == 2

    def test_missing_arguments(self):
        assert run(["extension"]).exit_code == 2
        assert run([]).exit_code == 2


class TestMain:
    def test_verdicts_go_to_stdout(self, capsys):
        code = main(["holds", WEATHER, "Rain | Wind -> Cold"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "holds\n"
        assert captured.err == ""

    def test_negative_verdicts_go_to_stdout(self, capsys):
        code = main(["holds", ELEMENTS, "Non-metal -> Gas"])
        captured = capsys.readouterr()
        assert code == 1
        assert "counterexamples" in captured.out

    def test_errors_go_to_stderr(self, capsys):
        code = main(["extension", WEATHER, "Snow"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Snow" in captured.err


class TestDeepNesting:
    """Text nested past the parser's cap is a syntax error, never a crash."""

    DEEP = {
        "bangs": "!" * 3000 + "Rain",
        "parens": "(" * 3000 + "Rain" + ")" * 3000,
    }

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_extension(self, shape):
        result = run(["extension", WEATHER, self.DEEP[shape]])
        assert result.exit_code == 2
        assert result.text.startswith("error: ")
        assert "nest" in result.text

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_entail_query(self, shape, tmp_path):
        kb = tmp_path / "weather.kb"
        kb.write_text("Rain |~ Cold\n", encoding="utf-8")
        query = f"{self.DEEP[shape]} |~ Cold"
        result = run(["entail", WEATHER, str(kb), query])
        assert result.exit_code == 2
        assert result.text.startswith("error: ")
        assert "nest" in result.text

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_rcprop_query(self, shape):
        query = f"{self.DEEP[shape]} |~ flies"
        result = run(["rcprop", PENGUIN_KB, query])
        assert result.exit_code == 2
        assert result.text.startswith("error: ")
        assert "nest" in result.text

    def test_formulas_at_the_cap_are_answered(self, tmp_path):
        kb = tmp_path / "weather.kb"
        kb.write_text("Rain |~ Cold\n", encoding="utf-8")
        formula = "!(" * 50 + "Rain" + ")" * 50 + " & " + "(" * 100 + "Cold" + ")" * 100
        assert run(["extension", WEATHER, formula]).text == "Day 3"
        for flags in ([], ["--json"]):
            result = run(["entail", *flags, WEATHER, str(kb), f"{formula} |~ Cold"])
            assert result.exit_code == 0
            result = run(["rcprop", *flags, PENGUIN_KB, f"{formula} |~ Cold"])
            assert result.exit_code in (0, 1)


class TestParserReuse:
    def test_built_once_across_runs(self, monkeypatch):
        from dfca import cli

        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        assert run(["extension", WEATHER, "Rain"]).exit_code == 0
        assert run(["holds", WEATHER, "Rain -> Cold", "--json"]).exit_code == 0
        assert run(["extension"]).exit_code == 2
        assert run(["baserank", PENGUIN_KB]).exit_code == 0
        assert built == [1]

    def test_build_parser_still_returns_a_fresh_parser(self):
        from dfca.cli import build_parser

        assert build_parser() is not build_parser()

    def test_a_usage_error_leaves_no_trace(self):
        """After exit 2 the next call answers as a fresh process does."""
        argv = ["entail", FRIENDS, FRIENDS_KB, '"fw. david" |~ "fw. charlie"', "--json"]
        fresh = run_module(*argv)
        assert run(["entail", FRIENDS, "--json"]).exit_code == 2
        assert run(["extension", WEATHER, "Rain", "--bogus"]).exit_code == 2
        result = run(argv)
        assert (result.exit_code, result.text + "\n") == (fresh.returncode, fresh.stdout)


def run_module(*argv, **variables):
    """``python -m dfca`` in a fresh interpreter that imports this checkout.

    ``variables`` are set in its environment.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "dfca", *argv],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        timeout=60,
    )


class TestModuleEntryPoint:
    def test_exit_codes_and_streams(self, tmp_path):
        holds = run_module("holds", WEATHER, "Rain -> Cold")
        assert (holds.returncode, holds.stdout, holds.stderr) == (0, "holds\n", "")
        fails = run_module("holds", WEATHER, "Cold -> Rain")
        assert fails.returncode == 1
        assert fails.stdout.startswith("does not hold; counterexamples: ")
        assert fails.stderr == ""
        missing = run_module("extension", str(tmp_path / "none.cxt"), "Rain")
        assert missing.returncode == 2 and missing.stdout == ""
        assert missing.stderr.startswith("error: ")
        usage = run_module("extension")
        assert usage.returncode == 2 and usage.stdout == ""
        assert usage.stderr.startswith("usage: dfca extension")
        invalid = tmp_path / "invalid.kb"
        invalid.write_text("Rain |~ Cold\nRain |~ !Cold\n", encoding="utf-8")
        conflict = run_module("validate", WEATHER, str(invalid))
        assert conflict.returncode == 1 and conflict.stderr == ""
        assert conflict.stdout.startswith("invalid: ")
        rank = run_module("rank", WEATHER, str(invalid))
        assert rank.returncode == 3 and rank.stdout == ""
        assert rank.stderr.startswith("error: no ranking")

    def test_the_unknown_attribute_named_does_not_depend_on_the_hash_seed(
        self, tmp_path
    ):
        """Several unknown names: the error names the first in the text."""
        kb = tmp_path / "unknown.kb"
        kb.write_text("Rain |~ yy & ww & qq & pp\n", encoding="utf-8")
        for seed in ("1", "3"):
            rank = run_module("rank", WEATHER, str(kb), PYTHONHASHSEED=seed)
            assert (rank.returncode, rank.stdout, rank.stderr) == (
                2,
                "",
                "error: unknown attribute 'yy'\n",
            )


class TestRankTableWidths:
    def test_an_empty_column_with_an_empty_name_has_no_width(self):
        """No file format admits an empty name, so the table is drawn directly."""
        context = FormalContext(["g1"], ["", "b"], [0b10])
        _, ranking = object_rank(context, KnowledgeBase([]))
        table = "".join(_rank_table(context, ranking.strata))
        assert table == "rank  object    b\n0     g1        ×"

    def test_a_mark_only_on_an_object_left_out_has_no_width(self):
        """Mark widths count the objects the strata show, not every object."""
        context = FormalContext(["g1", "g2"], ["", "b"], [0b10, 0b01])
        table = "".join(_rank_table(context, [0b01]))
        assert table == "rank  object    b\n0     g1        ×"

    def test_the_table_reads_no_rows(self, monkeypatch):
        """The table is drawn from the columns: no row is read or transposed."""
        argv = [
            "rank",
            "tests/golden/inputs/groups.cxt",
            "tests/golden/inputs/groups.kb",
        ]
        monkeypatch.chdir(ROOT)
        expected = run(argv)

        def refuse(*args):
            raise AssertionError("the rank table read the context's rows")

        monkeypatch.setattr(FormalContext, "row", refuse)
        monkeypatch.setattr(bitsets, "_transpose", refuse)
        assert run(argv) == expected
        assert expected.exit_code == 0 and expected.text.count("\n") == 9

    def test_a_csv_file_with_an_empty_name_is_refused(self, tmp_path):
        path = tmp_path / "empty_column.csv"
        path.write_text(",,b\ng1,,1\n", encoding="utf-8")
        kb = tmp_path / "empty.kb"
        kb.write_text("", encoding="utf-8")
        result = run(["rank", str(path), str(kb)])
        assert result.exit_code == 2
        assert result.text == f"error: {path}:1: empty attribute name"


class TestNamesOnOneLine:
    """Text output escapes each character at which str.splitlines() ends a line."""

    def test_the_escaped_characters_are_those_splitlines_ends_a_line_at(self):
        every = "".join(map(chr, range(0x110000)))
        # no two of them stand side by side as "\r\n", so each line ends in one
        ends = sorted({line[-1] for line in every.splitlines(keepends=True)[:-1]})
        assert "\u2028" in ends and "\x85" in ends and "\x0b" in ends
        assert _shown(ends) == [f"\\u{ord(char):04x}" for char in ends]
        # each of them grows by five characters, and nothing else changes
        (shown,) = _shown([every])
        assert shown.splitlines() == [shown]
        assert len(shown) == len(every) + 5 * len(ends)
        assert shown.startswith(every[:10]) and shown.endswith(every[-10:])

    def test_names_holding_none_come_back_as_they_are(self, weather):
        names = weather.objects
        assert _shown(names) is names
        assert _shown([]) == []

    def test_each_one_is_written_as_a_u_escape(self):
        names = ["a\u2028b", "c", "\x0b\r\n"]
        assert _shown(names) == ["a\\u2028b", "c", "\\u000b\\u000d\\u000a"]

    def test_rows_stay_one_line_each_and_json_keeps_the_names(self, tmp_path):
        path = tmp_path / "names.cxt"
        path.write_text("B\n\n2\n1\n\ng\u2029h\nk\nm\x85n\nX\n.\n", encoding="utf-8")
        kb = tmp_path / "empty.kb"
        kb.write_text("", encoding="utf-8")
        text = run(["rank", str(path), str(kb)]).text
        assert text.splitlines() == text.split("\n") == [
            "rank  object    m\\u0085n",
            "0     g\\u2029h  ×",
            "      k",
        ]
        listed = run(["extension", str(path), '"m\x85n"']).text
        assert listed == "g\\u2029h"
        data = json.loads(run(["extension", "--json", str(path), '"m\x85n"']).text)
        assert data["objects"] == ["g\u2029h"]


# --- fuzzing every subcommand -------------------------------------------------

# the manifest's argvs run in-process, each with its files and formula text
# to mutate
FUZZ_ARGVS = [
    entry["argv"]
    for entry in json.loads(MANIFEST.read_text(encoding="utf-8"))
    if entry["argv"][:1] != ["python"]
]
# the formula syntax, quoted names, comments, .cxt and .csv cells, line ends,
# and the characters str.splitlines() breaks at but a file's lines do not
FUZZ_ALPHABET = [
    *'ab"\\#!&|()<->~ .,XxTOPB01\n\r\t',
    *"\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\u00a0é",
]


def mutated(rng, text):
    """The text, often as it was, else with a few characters changed.

    A change inserts, deletes or replaces one character.
    """
    chars = list(text)
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 4])):
        i = rng.randrange(len(chars) + 1)
        roll = rng.random()
        if roll < 0.5 or i == len(chars):
            chars.insert(i, rng.choice(FUZZ_ALPHABET))
        elif roll < 0.75:
            del chars[i]
        else:
            chars[i] = rng.choice(FUZZ_ALPHABET)
    return "".join(chars)


def fuzz_argv(rng, folder):
    """A golden argv with mutated copies of its files and mutated or random text."""
    argv = rng.choice(FUZZ_ARGVS)
    fuzzed = argv[:1]
    for arg in argv[1:]:
        source = ROOT / arg
        if arg.startswith("--"):
            fuzzed.append(arg)
        # formula text can be longer than a file name may be, which
        # is_file() reports as an OSError
        elif len(arg) < 256 and source.is_file():
            # a byte that is not UTF-8 (as in not_utf8.cxt) is kept as it was
            text = source.read_bytes().decode("utf-8", "surrogateescape")
            path = Path(folder) / f"{len(fuzzed)}{source.suffix}"
            path.write_bytes(mutated(rng, text).encode("utf-8", "surrogateescape"))
            fuzzed.append(str(path))
        elif rng.random() < 0.2:
            fuzzed.append("".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 12))))
        else:
            fuzzed.append(mutated(rng, arg))
    return fuzzed


class TestFuzz:
    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_every_subcommand_exits_0_to_3_and_raises_nothing(self, seed):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as folder:
            result = run(fuzz_argv(rng, folder))
        assert result.exit_code in (0, 1, 2, 3)
