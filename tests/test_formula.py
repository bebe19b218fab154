import dataclasses
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import build_elements, build_weather
from dfca import BindingError, FormulaSyntaxError
from dfca import bitsets
from dfca.context import AttributeImplication, implication_holds
from dfca import formula, propositional
from dfca.formula import (
    And,
    Atom,
    Conditional,
    Implies,
    Not,
    Or,
    PropConditional,
    Top,
    atom_names,
    bind,
    extension,
    format_formula,
    format_prop_formula,
    parse_conditional,
    parse_formula,
    parse_prop_formula,
    parse_prop_statement,
    tokenize,
)

atom_name = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    min_size=1,
    max_size=8,
)

formulas = st.recursive(
    st.builds(Atom, atom_name),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
    ),
    max_leaves=12,
)


class TestParsing:
    def test_atoms_and_precedence(self):
        assert parse_formula("Rain | Wind") == Or(Atom("Rain"), Atom("Wind"))
        # ! binds tighter than &, which binds tighter than |
        assert parse_formula("!a & b | c") == Or(
            And(Not(Atom("a")), Atom("b")), Atom("c")
        )

    def test_binary_connectives_associate_left(self):
        assert parse_formula("a & b & c") == And(And(Atom("a"), Atom("b")), Atom("c"))
        assert parse_formula("a | b | c") == Or(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_parentheses_override(self):
        assert parse_formula("!(a & b)") == Not(And(Atom("a"), Atom("b")))
        assert parse_formula("a & (b | c)") == And(
            Atom("a"), Or(Atom("b"), Atom("c"))
        )

    def test_quoted_names(self):
        assert parse_formula('"fw. alice" & !"fw. bob"') == And(
            Atom("fw. alice"), Not(Atom("fw. bob"))
        )
        assert parse_formula(r'"say \"hi\" \\ now"') == Atom('say "hi" \\ now')

    def test_double_negation(self):
        assert parse_formula("!!a") == Not(Not(Atom("a")))

    def test_identifier_characters(self):
        assert parse_formula("fw.alice-2_x") == Atom("fw.alice-2_x")

    def test_trailing_comment_ignored(self):
        assert parse_formula("a & b # why not") == And(Atom("a"), Atom("b"))

    def test_empty_input_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("")

    def test_syntax_error_carries_offset_and_expectation(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("a & | b")
        assert err.value.offset == 4
        assert "expected" in str(err.value)

    def test_unterminated_quote(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula('"open')
        assert err.value.offset == 0

    def test_unbalanced_parenthesis(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(a & b")

    def test_stray_operator_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a ~ b")


# pieces of formula text at the edges of the lexer: operators and their
# prefixes, quotes and escapes, comments, ASCII and Unicode whitespace,
# names (with '-' and '.') and letters no bare name may hold
LEXER_PIECES = [
    "|~", "<->", "->", "|", "&", "!", "(", ")", "-", "<", ">", "~", "$",
    '"', "\\", '\\"', "\\\\", "#", " ", "\t", "\n", "\r", "\x0b", "\x1c",
    "\u00a0", "\u2003", "\u3000", "a", "b", "a-", "x.y", "_1", "9", "TOP",
    "BOT", "é", "ß", "Ω", "北", "\U0001d49c",
]
lexer_text = st.lists(
    st.one_of(st.sampled_from(LEXER_PIECES), st.characters()), max_size=12
).map("".join)

ENTRY_POINTS = [parse_formula, parse_prop_formula, parse_conditional, parse_prop_statement]


def parse_outcome(parse, text):
    """The parse, or the syntax error's type, message and offset."""
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        return type(exc), str(exc), exc.offset


class TestLexerOracle:
    @given(lexer_text)
    @example('"a\\q"')
    @example('"a\\')
    @example("a.->b")
    @example("a- ->b")
    @example("a # b -> c")
    @example('"TOP" |~ "\\"\\\\"')
    @settings(max_examples=1000)
    def test_the_table_lexer_answers_as_the_character_walk(self, text):
        """The same tokens, and the same answer from every parser, or the same error."""
        fast = [parse_outcome(parse, text) for parse in [tokenize, *ENTRY_POINTS]]
        with mock.patch.object(formula, "tokenize", oracles.tokenize):
            slow = [
                parse_outcome(parse, text) for parse in [oracles.tokenize, *ENTRY_POINTS]
            ]
        assert fast == slow


class TestConditionalParsing:
    def test_defeasible(self):
        conditional = parse_conditional("Non-metal |~ Gas")
        assert conditional == Conditional.defeasible(
            Atom("Non-metal"), Atom("Gas")
        )

    def test_classical(self):
        conditional = parse_conditional("Rain | Wind -> Cold")
        assert conditional.kind == "classical"
        assert conditional.antecedent == Or(Atom("Rain"), Atom("Wind"))

    def test_arrow_after_bare_identifier(self):
        # the identifier grammar allows '-', so 'a->b' needs the lexer to back off
        conditional = parse_conditional("a->b")
        assert conditional == Conditional.classical(Atom("a"), Atom("b"))

    def test_missing_connective_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_conditional("a b")

    def test_missing_consequent_rejected(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_conditional("a |~")
        assert "expected" in str(err.value)

    def test_double_connective_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_conditional("a |~ b |~ c")


class TestPrinting:
    def test_minimal_parentheses(self):
        assert format_formula(parse_formula("(a & b) | c")) == "a & b | c"
        assert format_formula(parse_formula("a & (b | c)")) == "a & (b | c)"
        assert format_formula(Not(And(Atom("a"), Atom("b")))) == "!(a & b)"
        assert format_formula(And(Atom("a"), And(Atom("b"), Atom("c")))) == (
            "a & (b & c)"
        )

    def test_quotes_only_where_needed(self):
        assert format_formula(Atom("fw.alice")) == "fw.alice"
        assert format_formula(Atom("fw. alice")) == '"fw. alice"'
        assert format_formula(Atom('a"b')) == r'"a\"b"'

    @given(formulas)
    def test_round_trip(self, formula):
        """parse_formula inverts format_formula on arbitrary trees."""
        assert parse_formula(format_formula(formula)) == formula


class TestDialects:
    """Golden texts for where compound and propositional text differ."""

    def test_double_negation(self):
        formula = Not(Not(Atom("a")))
        assert format_formula(formula) == "!!a"
        assert format_prop_formula(formula) == "!(!a)"
        assert str(formula) == "!!a"

    def test_constant_names(self):
        assert format_formula(Atom("TOP")) == "TOP"
        assert format_prop_formula(Atom("TOP")) == '"TOP"'
        assert parse_formula("TOP") == Atom("TOP")
        assert parse_prop_formula("TOP") == Top()

    def test_statement_strings(self):
        text = '!!a & "TOP" |~ b'
        assert str(parse_conditional(text)) == "!!a & TOP |~ b"
        assert str(parse_prop_statement(text)) == '!(!a) & "TOP" |~ b'
        assert str(parse_prop_statement("!!a")) == "!(!a)"

    def test_bad_atom_expectations(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("a & )")
        assert err.value.expected == "an attribute name, '!', or '('"
        with pytest.raises(FormulaSyntaxError) as err:
            parse_prop_formula("a & )")
        assert err.value.expected == "an atom, constant, '!', or '('"

    def test_implication_only_between_compound_formulas(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("(a -> b)")
        assert err.value.expected == "')'"
        assert parse_conditional("a -> b").kind == "classical"

    def test_offsets_count_characters(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula('"ü" @')
        assert err.value.offset == 4

    def test_one_set_of_node_classes(self):
        assert propositional.Atom is Atom
        assert propositional.Not is Not

    @pytest.mark.parametrize("kind", ["defeasible", "classical"])
    def test_statements_share_a_body_but_compare_per_class(self, kind):
        a, b = Atom("a"), Atom("b")
        context, prop = Conditional(a, b, kind), PropConditional(a, b, kind)
        assert context != prop and prop != context
        assert len({context, prop}) == 2
        for statement, cls in ((context, Conditional), (prop, PropConditional)):
            same = cls(Atom("a"), Atom("b"), kind)
            assert statement == same and hash(statement) == hash(same)
            assert statement != cls(b, a, kind)
            assert repr(statement) == (
                f"{cls.__name__}(antecedent=Atom(name='a'), "
                f"consequent=Atom(name='b'), kind={kind!r})"
            )
            with pytest.raises(dataclasses.FrozenInstanceError):
                statement.kind = "defeasible"
            with pytest.raises(ValueError, match="unknown statement kind 'strict'"):
                cls(a, b, "strict")
        assert Conditional.defeasible(a, b) == Conditional(a, b)
        assert PropConditional.defeasible(a, b) == PropConditional(a, b)


class TestExtension:
    def test_weather_disjunction(self):
        weather = build_weather()
        bits = extension(weather, parse_formula("Rain | Wind"))
        assert weather.object_names(bits) == ("Day 2", "Day 3")

    def test_elements_conjunction(self):
        elements = build_elements()
        bits = extension(elements, parse_formula("Non-metal & Essential"))
        assert elements.object_names(bits) == ("Hydrogen", "Carbon")

    def test_negation_is_complement(self):
        elements = build_elements()
        bits = extension(elements, parse_formula("!Gas"))
        assert elements.object_names(bits) == ("Carbon",)

    def test_excluded_middle_and_contradiction(self, weather):
        assert extension(weather, parse_formula("Sun | !Sun")) == (
            weather.object_universe
        )
        assert extension(weather, parse_formula("Sun & !Sun")) == 0

    def test_unknown_attribute_rejected(self, weather):
        with pytest.raises(BindingError):
            extension(weather, parse_formula("Snow"))

    def test_bind_names_the_missing_attribute(self, elements):
        assert bind(elements, parse_formula("Gas")) == Atom("Gas")
        with pytest.raises(BindingError) as err:
            bind(elements, parse_formula("Gas & Plasma"))
        assert "Plasma" in str(err.value)

    @pytest.mark.parametrize(
        "text, first",
        [
            ("Gas & yy & ww & qq & pp", "yy"),
            ("!(pp | Gas) & (aa | !zz)", "pp"),
            ("Gas | (Reactive & (mm | bb)) | aa", "mm"),
        ],
    )
    def test_bind_names_the_first_unknown_attribute_in_the_text(
        self, elements, text, first
    ):
        with pytest.raises(BindingError, match=f"unknown attribute '{first}'"):
            bind(elements, parse_formula(text))

    def test_atom_names_collects_all(self):
        assert atom_names(parse_formula("a & (b | !a)")) == {"a", "b"}


@st.composite
def bound_formulas(draw, context, max_depth=3):
    names = st.sampled_from(context.attributes)
    return draw(
        st.recursive(
            st.builds(Atom, names),
            lambda inner: st.one_of(
                st.builds(Not, inner),
                st.builds(And, inner, inner),
                st.builds(Or, inner, inner),
            ),
            max_leaves=2**max_depth,
        )
    )


class TestSemanticLaws:
    @given(st.data())
    def test_connectives_match_set_algebra(self, data):
        """Extensions distribute through the connectives as complement, meet, join."""
        context = build_elements()
        left = data.draw(bound_formulas(context))
        right = data.draw(bound_formulas(context))
        assert extension(context, Not(left)) == (
            context.object_universe ^ extension(context, left)
        )
        assert extension(context, And(left, right)) == (
            extension(context, left) & extension(context, right)
        )
        assert extension(context, Or(left, right)) == (
            extension(context, left) | extension(context, right)
        )

    @given(st.data())
    def test_implication_bridge(self, data):
        """A -> B over attribute sets holds iff the conjunction extensions nest."""
        context = build_weather()
        premise_names = data.draw(
            st.lists(st.sampled_from(context.attributes), min_size=1, max_size=3)
        )
        conclusion_names = data.draw(
            st.lists(st.sampled_from(context.attributes), min_size=1, max_size=3)
        )
        impl = AttributeImplication(
            context.attribute_set(premise_names), context.attribute_set(conclusion_names)
        )

        def conjunction(names):
            result = Atom(names[0])
            for name in names[1:]:
                result = And(result, Atom(name))
            return result

        nested = bitsets.is_subset(
            extension(context, conjunction(premise_names)),
            extension(context, conjunction(conclusion_names)),
        )
        assert implication_holds(context, impl) == nested


class TestMaterialisation:
    def test_shape(self):
        conditional = parse_conditional('"fw. alice" |~ "fw. bob"')
        assert conditional.material() == Implies(Atom("fw. alice"), Atom("fw. bob"))

    def test_reflexive_material_form_is_everything(self, weather):
        conditional = parse_conditional("Rain |~ Rain")
        assert extension(weather, conditional.material()) == (
            weather.object_universe
        )

    def test_elements_material_extension(self, elements):
        conditional = parse_conditional("Non-metal |~ Gas")
        bits = extension(elements, conditional.material())
        assert elements.object_names(bits) == ("Helium", "Hydrogen")


# the parser's nesting caps: connectives and parentheses, 100 levels each
LIMIT = 100


def nested(shape, depth, atom="a"):
    """Formula text with ``depth`` levels of one nesting shape."""
    if shape == "bangs":
        return "!" * depth + atom
    if shape == "parens":
        return "(" * depth + atom + ")" * depth
    if shape == "chain":
        return " & ".join([atom] * (depth + 1))
    if shape == "negated-groups":
        return "!(" * depth + atom + ")" * depth
    if shape == "right-groups":
        return f"{atom} | (" * depth + atom + ")" * depth
    if shape == "implications":
        return " -> ".join([atom] * (depth + 1))
    raise ValueError(shape)


COMPOUND_SHAPES = ["bangs", "parens", "chain", "negated-groups", "right-groups"]
PROP_SHAPES = COMPOUND_SHAPES + ["implications"]
PARSERS = [
    (parse_formula, "{}"),
    (parse_conditional, "{0} |~ {0}"),
    (parse_prop_formula, "{}"),
    (parse_prop_statement, "{0} |~ {0}"),
]


class TestNestingCap:
    @pytest.mark.parametrize("shape", ["bangs", "parens", "chain"])
    @pytest.mark.parametrize("parse, template", PARSERS)
    def test_3000_levels_are_a_syntax_error(self, parse, template, shape):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(template.format(nested(shape, 3000)))
        assert "nest" in str(err.value)

    def test_error_points_at_the_first_level_too_many(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(nested("parens", LIMIT + 1))
        assert err.value.offset == LIMIT
        assert str(err.value) == "parentheses nest deeper than 100 levels at offset 100"
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(nested("chain", LIMIT + 1))
        # the 101st '&' of "a & a & ...", whose k-th '&' is at offset 4k - 2
        assert err.value.offset == 4 * (LIMIT + 1) - 2
        assert "more than 100 connectives deep" in str(err.value)

    @pytest.mark.parametrize("shape", COMPOUND_SHAPES)
    def test_compound_formulas_at_the_cap_evaluate_and_print(self, shape):
        weather = build_weather()
        text = nested(shape, LIMIT, "Rain")
        formula = parse_formula(text)
        with pytest.raises(FormulaSyntaxError):
            parse_formula(nested(shape, LIMIT + 1, "Rain"))
        assert parse_formula(format_formula(formula)) == formula
        assert parse_prop_formula(format_prop_formula(formula)) == formula
        assert hash(formula) == hash(parse_formula(text))
        assert repr(formula).startswith(type(formula).__name__)
        assert atom_names(formula) == {"Rain"}
        conditional = parse_conditional(f"{text} |~ {text}")
        assert extension(weather, conditional.material()) == bitsets.universe(4)
        assert extension(weather, formula) in (0, weather.column(1))

    @pytest.mark.parametrize("shape", PROP_SHAPES)
    def test_propositional_formulas_at_the_cap_evaluate_and_print(self, shape):
        text = nested(shape, LIMIT)
        formula = parse_prop_formula(text)
        with pytest.raises(FormulaSyntaxError):
            parse_prop_formula(nested(shape, LIMIT + 1))
        assert parse_prop_formula(format_prop_formula(formula)) == formula
        statement = parse_prop_statement(f"{text} |~ {text}")
        assert parse_prop_statement(str(statement)) == statement
        assert propositional.prop_entails([statement.material()], Top())
        assert oracles.prop_eval({"a": True}, formula) in (True, False)
