"""Element arithmetic and the JSON wire format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab import LRElement, Partition, mul, single_column
from lrlab.errors import CapMismatch


def P(*parts):
    return Partition(parts)


def E(d, cap=None):
    return LRElement({P(*k): v for k, v in d.items()}, cap=cap)


class TestConstruction:
    @pytest.mark.parametrize("mult", [2.9, "2", 2.0])
    def test_rejects_a_multiplicity_that_is_not_an_integer(self, mult):
        with pytest.raises(ValueError) as exc:
            LRElement({P(1): mult})
        assert str(exc.value) == f"multiplicity must be a non-negative integer, not {mult!r}"

    def test_rejects_a_negative_multiplicity(self):
        with pytest.raises(ValueError, match="^multiplicity must be a non-negative integer, not -1$"):
            LRElement({P(1): -1})

    def test_tuple_keys_and_a_zero_multiplicity(self):
        m = LRElement({(2, 1): 3, (1,): 0})
        assert len(m) == 1 and m[(2, 1)] == 3 and m[(1,)] == 0
        assert bool(m) and not LRElement.zero()
        assert list(m) == [P(2, 1)]


class TestAdd:
    def test_disjoint(self):
        assert E({(2,): 1}) + E({(1, 1): 1}) == E({(2,): 1, (1, 1): 1})

    def test_zero(self):
        m = E({(2,): 1})
        assert m + LRElement.zero() == m

    def test_multiplicities_add(self):
        assert E({(2,): 1}) + E({(2,): 2}) == E({(2,): 3})

    def test_cap_mismatch(self):
        with pytest.raises(CapMismatch):
            E({(2,): 1}, cap=2) + E({(2,): 1})

    def test_foreign_operand_is_a_type_error(self):
        # once an AttributeError on `other._cap`
        with pytest.raises(TypeError, match="unsupported operand"):
            LRElement() + 1


class TestShiftAdd:
    def test_entrywise(self):
        got = E({(2,): 1, (1, 1): 1}).shift_add(P(1, 1))
        assert got == E({(3, 1): 1, (2, 2): 1})

    def test_unit_shift(self):
        m = E({(3, 1): 2})
        assert m.shift_add(Partition()) == m

    def test_determinant_shift(self):
        assert E({(2, 1): 2}).shift_add(P(1, 1)) == E({(3, 2): 2})


class TestTruncate:
    def test_drops_long(self):
        got = E({(2, 1, 1): 1, (3, 1): 1}).truncated(2)
        assert got == E({(3, 1): 1}, cap=2)

    def test_constructor_drops_terms_longer_than_the_cap(self):
        x = LRElement({P(2, 1, 1): 3, P(3, 1): 1, P(1, 1, 1, 1): 2}, cap=2)
        assert x.items() == [(P(3, 1), 1)]
        assert x == E({(3, 1): 1}, cap=2) and x.cap == 2

    def test_column_dies_below_its_length(self):
        assert LRElement.basis(single_column(3)).truncated(2) == LRElement.zero(cap=2)

    def test_lowering_a_cap_matches_the_capped_product(self):
        x = mul(P(2, 1), P(1), cap=2)
        assert x.truncated(2) == x
        assert x.truncated(1) == mul(P(2, 1), P(1), cap=1)

    def test_cannot_raise_a_cap(self):
        # the capped product lacks (2, 1, 1), so cap 3 would be a wrong label
        with pytest.raises(CapMismatch):
            mul(P(2, 1), P(1), cap=2).truncated(3)

    @pytest.mark.parametrize("cap", [None, 2])
    def test_negative_length(self, cap):
        with pytest.raises(ValueError, match="^length must be a non-negative integer, not -1$"):
            E({(1,): 1}, cap=cap).truncated(-1)


class TestLeq:
    def test_subset(self):
        assert E({(2, 2): 1}).leq(E({(2, 2): 1, (3, 1): 1}))

    def test_not_contained(self):
        assert not E({(1, 1): 1}).leq(E({(2,): 1}))

    def test_reflexive(self):
        m = E({(2,): 1, (1, 1): 3})
        assert m.leq(m)


class TestOrderAndJson:
    def test_items_descending_lex(self):
        m = E({(2, 2): 1, (3, 1): 1, (4,): 1, (2, 1, 1): 5})
        assert [p.parts for p, _ in m.items()] == [(4,), (3, 1), (2, 2), (2, 1, 1)]

    def test_repr(self):
        assert repr(E({(1, 1): 1, (2,): 3})) == "LRElement({[2]: 3, [1,1]: 1})"
        assert repr(E({(2,): 3}, cap=1)) == "LRElement({[2]: 3}, cap=1)"

    def test_json_shape(self):
        obj = E({(3, 1): 2}, cap=2).to_json()
        assert obj == {"cap": 2, "terms": [{"partition": [3, 1], "mult": "2"}]}

    def test_roundtrip(self):
        m = E({(4, 2): 1, (3, 3): 7, (2, 2, 1, 1): 2})
        assert LRElement.from_json(m.to_json()) == m

    @given(
        st.dictionaries(
            st.lists(st.integers(0, 6), max_size=5).map(
                lambda xs: tuple(sorted(xs, reverse=True))
            ),
            st.integers(1, 10**20),
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, terms):
        m = LRElement({Partition(k): v for k, v in terms.items()})
        assert LRElement.from_json(m.to_json()) == m

    def test_big_multiplicities_survive(self):
        m = E({(1,): 10**40})
        assert LRElement.from_json(m.to_json())[P(1)] == 10**40
