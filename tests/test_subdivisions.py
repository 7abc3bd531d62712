"""Subdivisions and the block-built partitions they index."""

import pytest

from lrlab import (
    Partition,
    Subdivision,
    all_subdivisions,
    blockwise_reversed_negation,
    cone_generator,
    dominates,
    lcm_upto,
    partitions_up_to,
    perturbed_generator,
    perturbed_generator_raw,
    restrict,
    reversed_negation,
)
from lrlab.errors import IndexOutOfRange


def P(*parts):
    return Partition(parts)


class TestSubdivision:
    def test_counts(self):
        for l in range(1, 6):
            assert len(list(all_subdivisions(l))) == 2 ** (l - 1)

    def test_mask_order_l2(self):
        got = [j.intervals for j in all_subdivisions(2)]
        assert got == [((1, 2),), ((1,), (2,))]

    def test_mask_roundtrip(self):
        for l in range(1, 6):
            for mask in range(1 << (l - 1)):
                j = Subdivision.from_mask(l, mask)
                assert j.mask == mask
                assert j.length == l
        assert Subdivision.from_mask(3, 1) == Subdivision([1, 2])
        assert hash(Subdivision.from_mask(3, 1)) == hash(Subdivision([1, 2]))

    def test_block_lookup(self):
        j = Subdivision([1, 2])
        assert [j.block_of(i) for i in (1, 2, 3)] == [1, 2, 2]
        with pytest.raises(IndexOutOfRange, match=r"^position 4 outside 1\.\.3$"):
            j.block_of(4)
        with pytest.raises(IndexOutOfRange, match=r"^position 0 outside 1\.\.3$"):
            j.block_of(0)
        for l in range(1, 6):
            for j in all_subdivisions(l):
                assert [j.block_of(i) for i in range(1, l + 1)] == [
                    k for k, iv in enumerate(j.intervals, 1) for _ in iv
                ]

    def test_text_form(self):
        assert str(Subdivision([1, 2])) == "{(1),(2,3)}"
        assert repr(Subdivision([1, 2])) == "Subdivision([1, 2])"

    def test_rejects_a_size_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match=r"^interval size must be a positive integer, not 1\.5$"):
            Subdivision([1.5, 1])

    @pytest.mark.parametrize("sizes", [[], [2, 0]])
    def test_rejects_no_intervals_and_an_empty_one(self, sizes):
        with pytest.raises(ValueError) as exc:
            Subdivision(sizes)
        if sizes:
            assert str(exc.value) == "interval size must be a positive integer, not 0"
        else:
            assert str(exc.value) == "interval sizes must be positive, got []"


class TestRestrict:
    def test_read_off(self):
        assert restrict(P(2, 1), (2, 3), 3) == P(1)
        assert restrict(P(2, 1), (1,), 2) == P(2)

    def test_concatenation_identity(self):
        a = P(3, 2, 1)
        assert restrict(a, (1,), 3).parts + restrict(a, (2, 3), 3).parts == (3, 2, 1)

    def test_bad_interval(self):
        with pytest.raises(IndexOutOfRange):
            restrict(P(2, 1), (3, 4), 3)
        with pytest.raises(ValueError):
            restrict(P(2, 1), (1, 3), 3)


class TestReversedNegation:
    def test_whole_interval(self):
        assert reversed_negation(P(2, 1), 2) == (-1, -2)

    def test_per_block(self):
        assert blockwise_reversed_negation(P(2, 1), Subdivision([1, 1])) == (-2, -1)

    def test_zero_case(self):
        for j in all_subdivisions(2):
            assert blockwise_reversed_negation(Partition(), j) == (0, 0)


class TestConeGenerator:
    def test_split_blocks(self):
        assert cone_generator(P(2, 1), Subdivision([1, 1])) == P(4, 2)

    def test_single_block(self):
        assert cone_generator(P(2, 1), Subdivision([2])) == P(3, 3)

    def test_three_singletons(self):
        assert cone_generator(P(2, 1), Subdivision([1, 1, 1])) == P(12, 6)

    def test_weight_and_dominance(self):
        # generator weight is always L(l)*|A| and L(l)*A sits above it
        for l in range(1, 4):
            big_l = lcm_upto(l)
            for a in partitions_up_to(6, max_len=l):
                for j in all_subdivisions(l):
                    g = cone_generator(a, j)
                    assert g.weight == big_l * a.weight
                    assert dominates(a.scaled(big_l), g)


class TestPerturbedGenerator:
    def test_spec_instance(self):
        m, n, h = perturbed_generator(P(2, 1), Subdivision([1, 1, 1]), beta=2, delta=1)
        assert (m, n) == (1, 3)
        assert h == P(11, 6, 1)

    def test_row_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            perturbed_generator(P(2, 1), Subdivision([1, 1]), beta=2, delta=1)

    def test_same_block_single_interval_cancels(self):
        j = Subdivision([1])
        a = P(3)
        assert perturbed_generator_raw(a, j, 1, 1) == cone_generator(a, j)

    def test_shift_vectors(self):
        # a cell leaves the last position of block m and enters the first
        # position of block n: positions 1 and 3 lose, position 2 gains
        j = Subdivision([1, 2])
        a = P(2, 1)
        assert cone_generator(a, j) == P(12, 3, 3)
        assert perturbed_generator_raw(a, j, 1, 2) == P(11, 4, 3)
        assert perturbed_generator_raw(a, j, 2, 2) == P(12, 4, 2)
        assert perturbed_generator_raw(P(1, 1, 1), j, 1, 2) is None
        with pytest.raises(IndexOutOfRange):
            perturbed_generator_raw(a, j, 3, 1)
        with pytest.raises(IndexOutOfRange):
            perturbed_generator_raw(a, j, 1, 0)

    def test_bad_column_order(self):
        with pytest.raises(ValueError):
            perturbed_generator(P(2, 1), Subdivision([1, 1]), beta=1, delta=1)
