import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfca import bitsets
from dfca.errors import StructureError


class TestBasics:
    def test_universe(self):
        assert bitsets.universe(0) == 0
        assert bitsets.universe(3) == 0b111

    def test_universe_rejects_negative_size(self):
        with pytest.raises(StructureError):
            bitsets.universe(-1)

    def test_from_indices(self):
        assert bitsets.from_indices([0, 2], 3) == 0b101
        assert bitsets.from_indices([], 0) == 0

    def test_from_indices_rejects_out_of_range(self):
        with pytest.raises(StructureError):
            bitsets.from_indices([3], 3)
        with pytest.raises(StructureError):
            bitsets.from_indices([-1], 3)

    def test_iter_indices_ascending(self):
        assert list(bitsets.iter_indices(0b1011)) == [0, 1, 3]


class TestLaws:
    @given(st.sets(st.integers(0, 15)))
    def test_round_trip(self, indices):
        """iter_indices inverts from_indices, sorted ascending."""
        bits = bitsets.from_indices(indices, 16)
        assert list(bitsets.iter_indices(bits)) == sorted(indices)

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_is_subset_matches_set_semantics(self, a, b):
        """is_subset agrees with the set-of-indices reading."""
        expected = set(bitsets.iter_indices(a)) <= set(bitsets.iter_indices(b))
        assert bitsets.is_subset(a, b) == expected
