import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_closure, brute_follows, build_elements, build_weather
from oracles import closure_under, implication_follows, set_satisfies
from dfca import AttributeImplication, BindingError, FormalContext, StructureError
from dfca import bitsets
from dfca.context import implication_holds


@st.composite
def contexts(draw, max_objects=6, max_attributes=6):
    n = draw(st.integers(0, max_objects))
    m = draw(st.integers(0, max_attributes))
    rows = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
    return FormalContext(
        [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows
    )


@st.composite
def implication_sets(draw, m=5, max_count=4):
    count = draw(st.integers(0, max_count))
    full = (1 << m) - 1
    return [
        AttributeImplication(
            draw(st.integers(0, full)), draw(st.integers(0, full))
        )
        for _ in range(count)
    ]


class TestConstruction:
    def test_duplicate_object_name_rejected(self):
        with pytest.raises(StructureError):
            FormalContext(["g", "g"], ["m"], [0, 0])

    def test_duplicate_attribute_name_rejected(self):
        with pytest.raises(StructureError):
            FormalContext(["g"], ["m", "m"], [0])

    def test_row_count_must_match(self):
        with pytest.raises(StructureError):
            FormalContext(["g"], ["m"], [])

    def test_row_must_fit_attribute_universe(self):
        with pytest.raises(StructureError):
            FormalContext(["g"], ["m"], [0b10])

    def test_from_pairs_rejects_unknown_names(self):
        with pytest.raises(BindingError):
            FormalContext.from_pairs(["g"], ["m"], [("h", "m")])
        with pytest.raises(BindingError):
            FormalContext.from_pairs(["g"], ["m"], [("g", "x")])

    def test_equality_is_structural(self):
        assert build_weather() == build_weather()
        assert build_weather() != build_elements()


class TestDerivation:
    def test_intent_of_single_object(self):
        elements = build_elements()
        helium = elements.object_set(["Helium"])
        assert elements.attribute_names(elements.intent(helium)) == (
            "Gas",
            "Non-metal",
            "Abundant",
        )

    def test_intent_of_pair_is_shared_attributes(self):
        elements = build_elements()
        pair = elements.object_set(["Hydrogen", "Carbon"])
        assert elements.attribute_names(elements.intent(pair)) == (
            "Non-metal",
            "Essential",
        )

    def test_intent_of_empty_set_is_all_attributes(self):
        elements = build_elements()
        assert elements.intent(0) == elements.attribute_universe

    def test_extent_of_single_attribute(self):
        elements = build_elements()
        gas = elements.attribute_set(["Gas"])
        assert elements.object_names(elements.extent(gas)) == ("Helium", "Hydrogen")

    def test_extent_of_empty_set_is_all_objects(self):
        elements = build_elements()
        assert elements.extent(0) == elements.object_universe

    def test_out_of_range_sets_rejected(self):
        weather = build_weather()
        with pytest.raises(StructureError):
            weather.intent(1 << weather.n_objects)
        with pytest.raises(StructureError):
            weather.extent(1 << weather.n_attributes)
        for i in (-1, weather.n_objects):
            with pytest.raises(StructureError, match=f"object index {i} out of range"):
                weather.row(i)
        for j in (-1, weather.n_attributes):
            with pytest.raises(StructureError, match=f"attribute index {j} out of range"):
                weather.column(j)
        for premise, conclusion in ((-1, 0), (0, -2)):
            with pytest.raises(StructureError, match="non-negative bitsets"):
                AttributeImplication(premise, conclusion)

    def test_unknown_names_rejected(self):
        weather = build_weather()
        with pytest.raises(BindingError):
            weather.object_set(["Day 9"])
        with pytest.raises(BindingError):
            weather.attribute_set(["Snow"])

    @given(contexts(), st.data())
    def test_galois_extensivity(self, context, data):
        """A is contained in extent(intent(A)), dually for attribute sets."""
        objects = data.draw(st.integers(0, context.object_universe))
        attributes = data.draw(st.integers(0, context.attribute_universe))
        assert bitsets.is_subset(objects, context.extent(context.intent(objects)))
        assert bitsets.is_subset(
            attributes, context.intent(context.extent(attributes))
        )

    @given(contexts(), st.data())
    def test_galois_antitone(self, context, data):
        """Growing an object set can only shrink its intent, and dually."""
        small = data.draw(st.integers(0, context.object_universe))
        big = small | data.draw(st.integers(0, context.object_universe))
        assert bitsets.is_subset(context.intent(big), context.intent(small))
        small_attrs = data.draw(st.integers(0, context.attribute_universe))
        big_attrs = small_attrs | data.draw(
            st.integers(0, context.attribute_universe)
        )
        assert bitsets.is_subset(
            context.extent(big_attrs), context.extent(small_attrs)
        )

    @given(contexts(), st.data())
    def test_galois_idempotence(self, context, data):
        """intent . extent . intent collapses to intent, and dually."""
        objects = data.draw(st.integers(0, context.object_universe))
        once = context.intent(objects)
        assert context.intent(context.extent(once)) == once
        attributes = data.draw(st.integers(0, context.attribute_universe))
        around = context.extent(attributes)
        assert context.extent(context.intent(around)) == around


class TestImplications:
    def test_set_satisfies_by_cases(self):
        impl = AttributeImplication(0b011, 0b100)
        assert set_satisfies(0b001, impl)  # premise not contained
        assert set_satisfies(0b111, impl)  # both contained
        assert not set_satisfies(0b011, impl)  # premise without conclusion

    def test_holds_with_counterexample(self, elements):
        # Carbon is a non-metal but no gas
        impl = AttributeImplication(
            elements.attribute_set(["Non-metal"]), elements.attribute_set(["Gas"])
        )
        assert not implication_holds(elements, impl)

    def test_holds_when_extents_nest(self, elements):
        impl = AttributeImplication(
            elements.attribute_set(["Gas"]), elements.attribute_set(["Non-metal"])
        )
        assert implication_holds(elements, impl)

    def test_holds_for_empty_premise_and_conclusion(self, elements):
        assert implication_holds(elements, AttributeImplication(0, 0))

    @given(contexts(max_objects=5, max_attributes=5), st.data())
    def test_holds_iff_every_row_satisfies(self, context, data):
        """Context-level validity is exactly row-by-row satisfaction."""
        impl = AttributeImplication(
            data.draw(st.integers(0, context.attribute_universe)),
            data.draw(st.integers(0, context.attribute_universe)),
        )
        rowwise = all(
            set_satisfies(context.row(i), impl) for i in range(context.n_objects)
        )
        assert implication_holds(context, impl) == rowwise


class TestClosure:
    def test_closure_chains(self):
        implications = [
            AttributeImplication(0b001, 0b010),
            AttributeImplication(0b010, 0b100),
        ]
        assert closure_under(implications, 0b001) == 0b111

    def test_closure_ignores_untriggered_premises(self):
        implications = [AttributeImplication(0b110, 0b001)]
        assert closure_under(implications, 0b010) == 0b010

    def test_closure_under_no_implications(self):
        assert closure_under([], 0b101) == 0b101

    def test_follows_golden(self):
        implications = [
            AttributeImplication(0b001, 0b010),
            AttributeImplication(0b010, 0b100),
        ]
        assert implication_follows(implications, AttributeImplication(0b001, 0b100))
        assert not implication_follows(
            implications, AttributeImplication(0b010, 0b001)
        )

    def test_follows_from_nothing(self):
        assert implication_follows([], AttributeImplication(0b011, 0b011))
        assert not implication_follows([], AttributeImplication(0b011, 0b100))

    @given(implication_sets(), st.integers(0, 2**5 - 1))
    def test_closure_matches_subset_scan(self, implications, base):
        """The fixpoint equals the least closed superset found by full scan."""
        assert closure_under(implications, base) == brute_closure(
            implications, base, 5
        )

    @given(implication_sets(), st.integers(0, 2**5 - 1), st.integers(0, 2**5 - 1))
    def test_follows_matches_subset_scan(self, implications, premise, conclusion):
        """Syntactic consequence equals semantic consequence over all subsets."""
        impl = AttributeImplication(premise, conclusion)
        assert implication_follows(implications, impl) == brute_follows(
            implications, impl, 5
        )

    @given(implication_sets(), st.integers(0, 2**5 - 1))
    def test_closure_is_extensive_and_idempotent(self, implications, base):
        """closure_under grows its input and is a fixpoint."""
        closed = closure_under(implications, base)
        assert bitsets.is_subset(base, closed)
        assert closure_under(implications, closed) == closed
