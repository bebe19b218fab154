import copy
import csv
import io
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import (
    CORPUS_DIR,
    DATA_DIR,
    build_elements,
    build_friends,
    elements_order,
    friends_delta,
    random_context,
)
from dfca import (
    FileFormatError,
    FormalContext,
    RankingFunction,
    StrictOrder,
    StructureError,
)
from dfca.fileio import (
    format_cxt,
    load_conditionals,
    load_context,
    load_order,
    load_prop_statements,
    load_ranks,
    parse_csv_context,
    parse_cxt,
    save_context,
)
from dfca.formula import extension, parse_conditional, parse_formula
from dfca.propositional import parse_prop_statement
from golden.regenerate import INPUTS, MALFORMED, MANIFEST, ROOT

seeds = st.integers(min_value=0, max_value=10**6)

ELEMENTS_CXT = """B

3
6

Helium
Hydrogen
Carbon
Gas
Non-metal
Reactive
Essential
Solid
Abundant
XX...X
XXXX.X
.X.XX.
"""


class TestParseCxt:
    def test_elements_round_trip(self):
        context = parse_cxt(ELEMENTS_CXT)
        assert context == build_elements()
        assert format_cxt(context) == ELEMENTS_CXT

    def test_packaged_files_match_builders(self):
        assert load_context(DATA_DIR / "elements.cxt") == build_elements()
        assert load_context(DATA_DIR / "friends.cxt") == build_friends()

    def test_crlf_tolerated(self):
        context = parse_cxt(ELEMENTS_CXT.replace("\n", "\r\n"))
        assert context == build_elements()

    def test_degenerate_shapes(self):
        empty = parse_cxt("B\n\n0\n0\n\n")
        assert empty.n_objects == 0 and empty.n_attributes == 0
        no_attributes = parse_cxt("B\n\n2\n0\n\ng1\ng2\n\n\n")
        assert no_attributes.n_objects == 2
        assert no_attributes.row(0) == 0
        no_objects = parse_cxt("B\n\n0\n2\n\nm1\nm2\n")
        assert no_objects.n_attributes == 2

    def test_names_are_verbatim(self):
        text = "B\n\n1\n1\n\n  spaced out  \nKöln\nX\n"
        context = parse_cxt(text)
        assert context.objects == ("  spaced out  ",)
        assert context.attributes == ("Köln",)

    @pytest.mark.parametrize(
        "mutate, line, fragment",
        [
            (lambda t: t.replace("B\n", "Burmeister\n", 1), 1, "header"),
            (lambda t: t.replace("B\n\n", "B\n", 1), 2, "blank"),
            (lambda t: t.replace("\n3\n", "\nthree\n", 1), 3, "object count"),
            (lambda t: t.replace("\n6\n", "\n-6\n", 1), 4, "negative"),
            (lambda t: t.replace("6\n\n", "6\nJunk\n", 1), 5, "blank"),
            (lambda t: t.replace("XX...X", "XX...", 1), 15, "cells"),
            (lambda t: t.replace("XX...X", "XX..?X", 1), 15, "illegal cell"),
            (lambda t: t + "trailing\n", 18, "after the incidence rows"),
            (lambda t: t.replace("Hydrogen\n", "\n", 1), 7, "empty object name"),
        ],
    )
    def test_malformed_text_is_located(self, mutate, line, fragment):
        with pytest.raises(FileFormatError) as err:
            parse_cxt(mutate(ELEMENTS_CXT), path="bad.cxt")
        assert err.value.line == line
        assert fragment in str(err.value)
        assert "bad.cxt" in str(err.value)

    def test_truncation_is_located(self):
        truncated = "".join(ELEMENTS_CXT.splitlines(keepends=True)[:10])
        with pytest.raises(FileFormatError) as err:
            parse_cxt(truncated)
        assert "ends before" in str(err.value)

    def test_duplicate_names_rejected(self):
        text = "B\n\n2\n1\n\ng\ng\nm\n.\nX\n"
        with pytest.raises(FileFormatError) as err:
            parse_cxt(text)
        assert "duplicate" in str(err.value)


def csv_text(context):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["name", *context.attributes])
    for i, name in enumerate(context.objects):
        row = context.row(i)
        cells = ("x" if row >> j & 1 else "" for j in range(context.n_attributes))
        writer.writerow([name, *cells])
    return out.getvalue()


# a parsed context, from the .cxt path or the .csv path
SOURCES = {
    "cxt": lambda context: parse_cxt(format_cxt(context)),
    "csv": lambda context: parse_csv_context(csv_text(context)),
}


def cut_columns(context):
    """Indices of the columns cut out of the cell block so far."""
    return [j for j, col in enumerate(context._cols) if col is not None]


def read_everything(context):
    """Every answer a context gives, reading its columns last to first."""
    return (
        [context.column(j) for j in reversed(range(context.n_attributes))],
        [context.row(i) for i in range(context.n_objects)],
        context.intent(context.object_universe),
        context.extent(context.attribute_universe),
        hash(context),
    )


EMPTY_KB = (INPUTS / "empty.kb").relative_to(ROOT).as_posix()


class TestColumnsCutOnFirstRead:
    @given(seeds, st.integers(1, 30), st.integers(1, 12), st.sampled_from(list(SOURCES)))
    def test_any_order_of_reads_gives_the_built_context(self, seed, n, m, source):
        """Columns in random order, with reads that need every column among them."""
        rng = random.Random(seed)
        built = FormalContext(
            [f"g{i}" for i in range(n)],
            [f"m{j}" for j in range(m)],
            [rng.getrandbits(m) for _ in range(n)],
        )
        parse = SOURCES[source]
        whole = parse(built)
        read_everything(whole)
        assert whole._cells is None and cut_columns(whole) == list(range(m))
        context = parse(built)
        for _ in range(rng.randint(1, 2 * m)):
            roll = rng.randrange(8)
            if roll < 3:
                j = rng.randrange(m)
                assert context.column(j) == built.column(j)
            elif roll == 3:
                i = rng.randrange(n)
                assert context.row(i) == built.row(i)
            elif roll == 4:
                bits = rng.getrandbits(n)
                assert context.intent(bits) == built.intent(bits)
            elif roll == 5:
                bits = rng.getrandbits(m)
                assert context.extent(bits) == built.extent(bits)
            elif roll == 6:
                assert hash(context) == hash(built) == hash(whole)
            else:
                assert context == built == whole
        assert read_everything(context) == read_everything(built)
        assert context == whole and context._cells is None

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_an_extension_cuts_only_the_columns_it_names(self, source):
        context = SOURCES[source](build_friends())
        names = extension(context, parse_formula('"fw. eva" & !"fw. bob" | "fw. eva"'))
        assert context.object_names(names) == ("eva", "alice", "david")
        assert cut_columns(context) == [1, 4]
        assert context._cells is not None

    def test_a_whole_read_drops_the_block(self):
        context = load_context(DATA_DIR / "friends.cxt")
        context.column(3)
        assert context._cells is not None
        context.row(0)
        assert cut_columns(context) == list(range(6)) and context._cells is None
        assert context == build_friends()
        # cutting the columns one by one drops the block at the last one
        context = load_context(DATA_DIR / "friends.cxt")
        for j in range(6):
            assert context._cells is not None
            context.column(j)
        assert context._cells is None and context == build_friends()

    def test_a_shallow_copy_cut_first_leaves_the_original_whole(self):
        """A copy shares the list of cut columns; the original still reads in full."""
        context = load_context(DATA_DIR / "friends.cxt")
        context.column(0)
        duplicate = copy.copy(context)
        for j in range(1, 6):
            duplicate.column(j)
        assert context == build_friends() == duplicate
        assert hash(context) == hash(build_friends()) == hash(duplicate)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_golden_inputs_fail_at_load_or_never(self, name, monkeypatch):
        """A cut cannot fail: every fault is reported by the load, as recorded."""
        monkeypatch.chdir(ROOT)
        path = (INPUTS / name).relative_to(ROOT).as_posix()
        (recorded,) = [
            entry
            for entry in json.loads(MANIFEST.read_text(encoding="utf-8"))
            if entry["argv"] == ["rank", path, EMPTY_KB]
        ]
        try:
            context = load_context(path)
        except FileFormatError as exc:
            assert recorded["exit"] == 2
            assert recorded["stderr"] == f"error: {exc}\n"
            return
        assert recorded["exit"] == 0
        # read as the loader reads it, line ends translated
        text = (INPUTS / name).read_text(encoding="utf-8")
        parse = oracles.parse_csv_context if name.endswith(".csv") else oracles.parse_cxt
        assert read_everything(context) == read_everything(parse(text))


class TestFormatCxt:
    def test_newline_in_name_rejected(self):
        from dfca import FormalContext

        context = FormalContext(["a\nb"], ["m"], [0])
        with pytest.raises(StructureError):
            format_cxt(context)

    @pytest.mark.parametrize(
        "objects, attributes, rows",
        [(["g1"], ["", "b"], [0b10]), ([""], ["a"], [1])],
        ids=["attribute", "object"],
    )
    def test_empty_name_rejected(self, objects, attributes, rows, tmp_path):
        """An empty attribute or object name, which the library accepts, is
        refused before a .cxt file that parse_cxt cannot read is written."""
        from dfca import FormalContext

        context = FormalContext(objects, attributes, rows)
        with pytest.raises(StructureError, match="cannot be written to .cxt"):
            format_cxt(context)
        target = tmp_path / "empty.cxt"
        with pytest.raises(StructureError):
            save_context(context, target)
        assert not target.exists()

    @given(seeds)
    def test_write_read_round_trip(self, seed):
        """parse_cxt inverts format_cxt for arbitrary contexts."""
        rng = random.Random(seed)
        context = random_context(rng)
        assert parse_cxt(format_cxt(context)) == context

    @pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (1025, 0), (0, 1), (0, 40)])
    def test_round_trip_without_objects_or_attributes(self, n, m):
        from dfca import FormalContext

        context = FormalContext(
            [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], [0] * n
        )
        text = format_cxt(context)
        assert text == "\n".join(
            ["B", "", str(n), str(m), ""]
            + list(context.objects)
            + list(context.attributes)
            + [""] * n
        ) + "\n"
        assert parse_cxt(text) == context

    def test_corpus_files_are_canonical(self):
        files = sorted(CORPUS_DIR.glob("*.cxt"))
        assert len(files) == 8
        for path in files:
            text = path.read_text(encoding="utf-8")
            assert format_cxt(parse_cxt(text, path)) == text


class TestCsv:
    def test_basic_table(self):
        text = "name,Gas,Solid\nHelium,1,0\nCarbon,,x\n"
        context = parse_csv_context(text)
        assert context.objects == ("Helium", "Carbon")
        assert context.attributes == ("Gas", "Solid")
        assert context.row(0) == 0b01
        assert context.row(1) == 0b10

    def test_quoted_names_with_commas(self):
        text = 'name,"a, b"\n"g, 1",X\n'
        context = parse_csv_context(text)
        assert context.objects == ("g, 1",)
        assert context.attributes == ("a, b",)

    def test_empty_file_rejected(self):
        with pytest.raises(FileFormatError):
            parse_csv_context("")

    def test_ragged_row_located(self):
        with pytest.raises(FileFormatError) as err:
            parse_csv_context("name,a,b\ng1,1\n")
        assert err.value.line == 2

    def test_illegal_cell_located(self):
        with pytest.raises(FileFormatError) as err:
            parse_csv_context("name,a\ng1,2\n")
        assert err.value.line == 2
        assert "illegal cell" in str(err.value)

    @pytest.mark.parametrize(
        "text, message, line",
        [
            (",,b\ng1,,1\n", "empty attribute name", 1),
            ("name,a\ng1,1\n\n,1\n", "empty object name", 4),
            # the header comes first, then the records in order
            (",\n,\n", "empty attribute name", 1),
            ("name,a\n,2\ng2,3\n", "empty object name", 2),
            ("name,a\ng1,2\n,1\n", "illegal cell '2', expected 1, 0, x, or empty", 2),
            ("name,a\n,1,1\n", "row has 2 cells, expected 1", 2),
        ],
    )
    def test_empty_names_refused_as_in_cxt(self, text, message, line):
        with pytest.raises(FileFormatError) as err:
            parse_csv_context(text, "t.csv")
        assert str(err.value) == f"t.csv:{line}: {message}"

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ('name,a\n"g\nh",1\nk,0\n', "line break in object name 'g\\nh'", 2),
            ('name,a\nk,0\n"g\r\nh",1\n', "line break in object name 'g\\r\\nh'", 3),
            ('name,a\n"g\rh",1\n', "line break in object name 'g\\rh'", 2),
            ('name,"a\rb"\ng,1\n', "line break in attribute name 'a\\rb'", 1),
            # the header comes first, then the records in order, and within
            # a record the length, the name, the cells
            ('name,"a\nb"\n,1\n', "line break in attribute name 'a\\nb'", 1),
            ('name,,"a\nb"\ng,1,1\n', "empty attribute name", 1),
            ('name,a\ng,1,1\n"g\nh",1\n', "row has 2 cells, expected 1", 2),
            ('name,a\n"g\nh",1,1\n', "row has 2 cells, expected 1", 2),
            ('name,a\n"g\nh",2\n', "line break in object name 'g\\nh'", 2),
            ('name,a\ng,2\n"g\nh",1\n', "illegal cell '2', expected 1, 0, x, or empty", 2),
        ],
    )
    def test_line_breaks_in_names_refused_as_in_cxt(self, text, message, line):
        """A name on two lines would print as two objects or split a table row."""
        with pytest.raises(FileFormatError) as err:
            parse_csv_context(text, "t.csv")
        assert str(err.value) == f"t.csv:{line}: {message}"

    def test_line_breaks_in_cells_and_the_leading_cell_are_allowed(self):
        context = parse_csv_context('"na\nme",a\ng," 1\n"\n', "t.csv")
        assert context.objects == ("g",)
        assert context.column(0) == 1

    def test_field_over_the_reader_limit_located(self):
        text = "name,a\ng1,1\ng2," + "1" * 131073 + "\n"
        with pytest.raises(FileFormatError) as err:
            parse_csv_context(text, "t.csv")
        assert err.value.line == 3
        assert "field larger than field limit" in str(err.value)

    def test_lone_carriage_return_located(self):
        with pytest.raises(FileFormatError) as err:
            parse_csv_context("name,a\ng1,1\ng2\rg3,1\n", "t.csv")
        assert err.value.line == 3
        assert "new-line character seen in unquoted field" in str(err.value)

    def test_whitespace_names_and_padded_cells(self):
        context = parse_csv_context("name, a ,b\n g ,  X , 0\n")
        assert context.objects == (" g ",)
        assert context.attributes == (" a ", "b")
        assert context.row(0) == 0b01


class TestLoadSave:
    def test_suffix_inference(self, tmp_path):
        target = tmp_path / "ctx.cxt"
        save_context(build_elements(), target)
        assert load_context(target) == build_elements()
        assert target.read_text(encoding="utf-8") == ELEMENTS_CXT

    def test_csv_suffix(self, tmp_path):
        target = tmp_path / "ctx.csv"
        target.write_text("name,a\ng1,1\n", encoding="utf-8")
        assert load_context(target).attributes == ("a",)

    def test_unknown_suffix_rejected(self, tmp_path):
        target = tmp_path / "ctx.dat"
        target.write_text("B\n\n0\n0\n\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="expected '.cxt' or '.csv'"):
            load_context(target)
        text = target.read_text(encoding="utf-8")
        assert parse_cxt(text, target).n_objects == 0

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_context(tmp_path / "absent.cxt")

    def test_non_utf8_reported(self, tmp_path):
        target = tmp_path / "ctx.cxt"
        target.write_bytes(b"B\n\n0\n0\n\n\xff")
        with pytest.raises(FileFormatError) as err:
            load_context(target)
        assert "UTF-8" in str(err.value)


class TestStatementFiles:
    def test_packaged_conditionals(self):
        statements = load_conditionals(DATA_DIR / "friends.kb")
        assert statements == friends_delta()

    def test_comments_and_blanks_skipped(self, tmp_path):
        target = tmp_path / "kb.txt"
        target.write_text(
            "# leading comment\n\na |~ b\nc -> d # trailing comment\n",
            encoding="utf-8",
        )
        statements = load_conditionals(target)
        assert statements == [
            parse_conditional("a |~ b"),
            parse_conditional("c -> d"),
        ]

    def test_syntax_error_is_located(self, tmp_path):
        target = tmp_path / "kb.txt"
        target.write_text("a |~ b\na & |~ b\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_conditionals(target)
        assert err.value.line == 2

    def test_packaged_prop_statements(self):
        statements = load_prop_statements(DATA_DIR / "penguin.kb")
        assert statements == [
            parse_prop_statement("bird |~ flies"),
            parse_prop_statement("penguin |~ bird"),
            parse_prop_statement("penguin |~ !flies"),
        ]

    def test_bare_formula_becomes_assertion(self, tmp_path):
        target = tmp_path / "kb.txt"
        target.write_text("p -> q\n", encoding="utf-8")
        statements = load_prop_statements(target)
        assert statements[0].kind == "classical"

    def test_prop_syntax_error_is_located(self, tmp_path):
        target = tmp_path / "kb.txt"
        target.write_text("p |~ q\n\n# note\np & |~ q\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_prop_statements(target)
        assert err.value.line == 4


# every character str.splitlines() ends a line at, besides "\n" and "\r"
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=lambda char: f"U+{ord(char):04X}")
class TestOnlyLineBreaksEndLines:
    """A comment holding the character stays a comment, a name holding it can
    be named, and line numbers count line breaks alone."""

    def test_statement_files(self, char, tmp_path):
        target = tmp_path / "kb.txt"
        target.write_text(f'# note{char} more\n"a{char}b" |~ c\n', encoding="utf-8")
        assert load_conditionals(target) == [parse_conditional(f'"a{char}b" |~ c')]
        target.write_text(f"# note{char} more\nc |~ c\nc |~\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_conditionals(target)
        assert err.value.line == 3

    def test_order_and_rank_files(self, char, tmp_path):
        context = FormalContext(["g", f"h{char}k"], ["c"], [1, 0])
        order, ranks = tmp_path / "o.order", tmp_path / "r.ranks"
        order.write_text(f"# note{char} more\ng < h{char}k\n", encoding="utf-8")
        ranks.write_text(f"# note{char} more\n0 g\n1 h{char}k\n", encoding="utf-8")
        assert load_order(order, context) == StrictOrder(2, [(0, 1)])
        assert load_ranks(ranks, context) == RankingFunction([0, 1])


class TestOrderFiles:
    def test_packaged_order(self, elements):
        order = load_order(DATA_DIR / "elements.order", elements)
        assert order == elements_order()

    def test_names_are_trimmed(self, elements, tmp_path):
        target = tmp_path / "o.order"
        target.write_text("  Helium   <   Carbon \n", encoding="utf-8")
        assert load_order(target, elements) == elements_order()

    def test_malformed_lines_located(self, elements, tmp_path):
        target = tmp_path / "o.order"
        target.write_text("Helium < Carbon < Hydrogen\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_order(target, elements)
        assert err.value.line == 1
        target.write_text("< Carbon\n", encoding="utf-8")
        with pytest.raises(FileFormatError):
            load_order(target, elements)

    def test_unknown_object_located(self, elements, tmp_path):
        target = tmp_path / "o.order"
        target.write_text("Helium < Xenon\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_order(target, elements)
        assert "Xenon" in str(err.value)

    def test_cycle_rejected(self, elements, tmp_path):
        target = tmp_path / "o.order"
        target.write_text("Helium < Carbon\nCarbon < Helium\n", encoding="utf-8")
        with pytest.raises(StructureError):
            load_order(target, elements)


class TestRankFiles:
    def test_basic(self, elements, tmp_path):
        target = tmp_path / "r.ranks"
        target.write_text("0 Helium\n0 Hydrogen\n1 Carbon\n", encoding="utf-8")
        assert load_ranks(target, elements) == RankingFunction([0, 0, 1])

    def test_names_may_contain_spaces(self, weather, tmp_path):
        target = tmp_path / "r.ranks"
        target.write_text(
            "0 Day 1\n0 Day 2\n1 Day 3\n1 Day 4\n", encoding="utf-8"
        )
        assert load_ranks(target, weather) == RankingFunction([0, 0, 1, 1])

    def test_duplicate_assignment_located(self, elements, tmp_path):
        target = tmp_path / "r.ranks"
        target.write_text("0 Helium\n1 Helium\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_ranks(target, elements)
        assert err.value.line == 2

    def test_missing_objects_reported(self, elements, tmp_path):
        target = tmp_path / "r.ranks"
        target.write_text("0 Helium\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_ranks(target, elements)
        assert "Hydrogen" in str(err.value)

    def test_non_integer_rank_located(self, elements, tmp_path):
        target = tmp_path / "r.ranks"
        target.write_text("first Helium\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_ranks(target, elements)
        assert err.value.line == 1

    def test_negative_rank_located(self, elements, tmp_path):
        target = tmp_path / "r.ranks"
        target.write_text("0 Helium\n-1 Hydrogen\n0 Carbon\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="non-negative rank, got '-1'") as err:
            load_ranks(target, elements)
        assert err.value.line == 2

    def test_line_without_a_name_located(self, elements, tmp_path):
        target = tmp_path / "r.ranks"
        target.write_text("0 Helium\n1\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="expected '<rank> <object name>'") as err:
            load_ranks(target, elements)
        assert err.value.line == 2

    def test_unknown_object_located(self, elements, tmp_path):
        target = tmp_path / "r.ranks"
        target.write_text("0 Helium\n0 Hydrogen\n1 Neon\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="Neon") as err:
            load_ranks(target, elements)
        assert err.value.line == 3

    def test_gap_rejected(self, elements, tmp_path):
        target = tmp_path / "r.ranks"
        target.write_text("0 Helium\n0 Hydrogen\n2 Carbon\n", encoding="utf-8")
        with pytest.raises(StructureError):
            load_ranks(target, elements)
