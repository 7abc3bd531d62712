"""Partition canonical form, dominance order, diagrams, interpolation."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrlab import (
    Cell,
    Dominance,
    Partition,
    column_decomposition,
    diagram_difference,
    diagram_distance,
    dominance_compare,
    dominated_partitions,
    dominates,
    interpolating_sequence,
    lcm_upto,
    partitions_of,
    partitions_up_to,
    single_column,
)
from lrlab.errors import InvalidPartition, NotComparable, NotWeaklyDecreasing

D = Dominance


def P(*parts):
    return Partition(parts)


partition_lists = st.lists(st.integers(0, 9), max_size=7).map(
    lambda xs: sorted(xs, reverse=True)
)


class TestCanonicalForm:
    def test_strips_trailing_zeros(self):
        assert Partition([2, 1, 0, 0]) == P(2, 1)

    def test_empty_is_unit(self):
        assert Partition([]) == Partition()
        assert len(Partition()) == 0

    def test_rejects_increasing(self):
        with pytest.raises(NotWeaklyDecreasing):
            Partition([1, 2])

    @pytest.mark.parametrize(
        "parts, shown",
        [([2.7, 1], "2.7"), (["3"], "'3'"), ([2, None], "None")],
        ids=["float", "str", "none"],
    )
    def test_rejects_a_part_that_is_not_an_integer(self, parts, shown):
        with pytest.raises(InvalidPartition) as exc:
            Partition(parts)
        assert str(exc.value) == f"part must be a non-negative integer, not {shown}"

    def test_rejects_a_negative_part(self):
        with pytest.raises(InvalidPartition, match="^part must be a non-negative integer, not -1$"):
            Partition([3, -1])

    # scaled(1.5) once returned the parts [3.0, 1.5]
    @pytest.mark.parametrize("n", [1.5, -1])
    def test_scale_must_be_a_non_negative_integer(self, n):
        with pytest.raises(InvalidPartition) as exc:
            P(2, 1).scaled(n)
        assert str(exc.value) == f"scale must be a non-negative integer, not {n!r}"

    def test_indexing_past_end_reads_zero(self):
        assert P(3, 1)[5] == 0
        with pytest.raises(IndexError, match="^negative row index$"):
            P(2, 1)[-1]

    def test_iteration_and_repr(self):
        assert list(P(3, 1)) == [3, 1]
        assert repr(P(3, 1)) == "Partition([3, 1])"

    def test_order_is_lexicographic_and_only_among_partitions(self):
        assert sorted([P(2), P(1, 1), P(3)]) == [P(1, 1), P(2), P(3)]
        # once an AttributeError on `other._parts`
        with pytest.raises(TypeError, match="not supported"):
            P(1) < 3
        with pytest.raises(TypeError, match="not supported"):
            3 > P(1)

    @given(partition_lists)
    @settings(max_examples=80, deadline=None)
    def test_construction_is_idempotent(self, xs):
        p = Partition(xs)
        assert Partition(p.parts) == p
        assert not p.parts or p.parts[-1] > 0


class TestConjugate:
    def test_hook_is_self_conjugate(self):
        assert P(2, 1).conjugate() == P(2, 1)

    def test_row_becomes_column(self):
        assert P(3).conjugate() == P(1, 1, 1)

    def test_staircase_by_hand(self):
        assert P(4, 2, 1).conjugate() == P(3, 2, 1, 1)

    @given(partition_lists)
    @settings(max_examples=80, deadline=None)
    def test_involution(self, xs):
        p = Partition(xs)
        assert p.conjugate().conjugate() == p

    def test_involution_small_weights(self):
        for p in partitions_up_to(12):
            assert p.conjugate().conjugate() == p


class TestPointwiseSum:
    def test_entrywise(self):
        assert P(2, 1).plus(P(1, 1)) == P(3, 2)

    def test_unit(self):
        assert P(3, 1).plus(Partition()) == P(3, 1)

    def test_repeated_addition_is_scaling(self):
        a = P(2, 1)
        assert a.plus(a).plus(a) == a.scaled(3) == P(6, 3)


class TestColumnDecomposition:
    def test_hook(self):
        assert column_decomposition(P(2, 1)) == [P(1, 1), P(1)]

    def test_row(self):
        assert column_decomposition(P(3)) == [P(1), P(1), P(1)]

    def test_empty(self):
        assert column_decomposition(Partition()) == []

    def test_sum_recovers_input(self):
        for p in partitions_up_to(9):
            acc = Partition()
            for col in column_decomposition(p):
                acc = acc.plus(col)
            assert acc == p


class TestDominance:
    def test_greater(self):
        assert dominance_compare(P(3, 1), P(2, 2)) is D.GREATER

    def test_different_weight(self):
        assert dominance_compare(P(3, 1), P(3, 2)) is D.DIFFERENT_WEIGHT

    def test_incomparable(self):
        assert dominance_compare(P(4, 1, 1), P(3, 3)) is D.INCOMPARABLE

    def test_equal_and_less(self):
        assert dominance_compare(P(2, 2), P(2, 2)) is D.EQUAL
        assert dominance_compare(P(2, 2), P(3, 1)) is D.LESS

    def test_single_column_is_minimum(self):
        for p in partitions_up_to(10):
            assert dominates(p, single_column(p.weight))
        with pytest.raises(InvalidPartition, match="^column height must be a non-negative integer, not -1$"):
            single_column(-1)

    def test_rectangle_plus_column_is_minimum_at_fixed_length(self):
        # within length l, every A of weight n*l + s sits above n*D(l) + column(s)
        for l in range(1, 5):
            for p in partitions_up_to(12, max_len=l):
                n, s = divmod(p.weight, l)
                floor = single_column(l).scaled(n).plus(single_column(s), l)
                assert dominates(p, floor)

    def test_partial_order_axioms(self):
        for w in range(9):
            pool = list(partitions_of(w))
            rel = {
                (a.parts, b.parts): dominance_compare(a, b) for a in pool for b in pool
            }
            for a in pool:
                for b in pool:
                    r = rel[(a.parts, b.parts)]
                    mirror = rel[(b.parts, a.parts)]
                    if r is D.GREATER:
                        assert mirror is D.LESS
                    if r is D.EQUAL:
                        assert a == b
                    for c in pool:
                        if r is D.GREATER and rel[(b.parts, c.parts)] is D.GREATER:
                            assert rel[(a.parts, c.parts)] is D.GREATER


class TestDiagramDifference:
    def test_adjacent_pair(self):
        only_a, only_b = diagram_difference(P(3, 1), P(2, 2))
        assert only_a == {Cell(1, 3)} and only_b == {Cell(2, 2)}

    def test_identity(self):
        assert diagram_difference(P(2, 2), P(2, 2)) == (set(), set())

    def test_row_vs_square(self):
        only_a, only_b = diagram_difference(P(4), P(2, 2))
        assert only_a == {Cell(1, 3), Cell(1, 4)}
        assert only_b == {Cell(2, 1), Cell(2, 2)}

    @given(partition_lists, partition_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_cell_sets(self, xs, ys):
        a, b = Partition(xs), Partition(ys)

        def cells(p):
            return {Cell(i + 1, j + 1) for i, r in enumerate(p.parts) for j in range(r)}

        ca, cb = cells(a), cells(b)
        assert diagram_difference(a, b) == (ca - cb, cb - ca)
        assert diagram_distance(a, b) == len(ca - cb)


class TestInterpolatingSequence:
    def test_row_to_square(self):
        assert interpolating_sequence(P(4), P(2, 2)) == [P(4), P(3, 1), P(2, 2)]

    def test_trivial(self):
        assert interpolating_sequence(P(2, 1), P(2, 1)) == [P(2, 1)]

    def test_single_step(self):
        assert interpolating_sequence(P(3, 1), P(2, 2)) == [P(3, 1), P(2, 2)]

    def test_rejects_incomparable(self):
        with pytest.raises(NotComparable):
            interpolating_sequence(P(3, 3), P(4, 1, 1))
        with pytest.raises(NotComparable):
            interpolating_sequence(P(2, 2), P(3, 1))

    def test_all_claims_small_weights(self):
        for w in range(7):
            pool = list(partitions_of(w))
            for a in pool:
                for b in pool:
                    if not dominates(a, b):
                        continue
                    seq = interpolating_sequence(a, b)
                    only_a, only_b = diagram_difference(a, b)
                    assert len(seq) == len(only_a) + 1
                    assert seq[0] == a and seq[-1] == b
                    for x, y in zip(seq, seq[1:]):
                        dx, dy = diagram_difference(x, y)
                        assert len(dx) == 1 == len(dy)
                        assert dominance_compare(x, y) is D.GREATER
                    for i in range(len(seq)):
                        for j in range(i + 1, len(seq)):
                            di, dj = diagram_difference(seq[i], seq[j])
                            assert di <= only_a and dj <= only_b


class TestEnumeration:
    def test_descending_lex(self):
        got = [p.parts for p in partitions_of(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert list(partitions_of(-1)) == []

    def test_length_bound(self):
        assert all(len(p) <= 2 for p in partitions_of(6, max_len=2))

    def test_dominated_enumeration_matches_filter(self):
        target = P(2, 1).scaled(2)
        got = list(dominated_partitions(target, 3))
        brute = [
            b for b in partitions_of(6, max_len=3) if dominates(target, b)
        ]
        assert got == brute
        assert got[0] == target

    def test_dominated_enumeration_digest(self):
        # every target of weight <= 14 at every length 0..6 that fits it,
        # with each result list in enumeration order; recorded at 34b6c4b
        digest = hashlib.sha256()
        count = 0
        for t in partitions_up_to(14):
            for l in range(len(t), 7):
                count += 1
                below = " ".join(str(b) for b in dominated_partitions(t, l))
                digest.update(f"{t} {l}: {below}\n".encode())
        assert count == 1180
        assert digest.hexdigest() == (
            "8be83a408dfb47fb94490a6f2567d66e7963ed60421b7fc0bc941ab0b9c68861"
        )


def test_lcm_upto():
    assert lcm_upto(1) == 1
    assert lcm_upto(3) == 6
    assert lcm_upto(6) == 60
    with pytest.raises(ValueError):
        lcm_upto(0)
