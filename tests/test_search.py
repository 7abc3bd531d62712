"""Uniform-exponent property, threshold windows, transfer witnesses."""

import random

import pytest

from lrlab import (
    ExponentSearch,
    Partition,
    TransferWitness,
    lr_coefficient,
    minimal_uniform_exponent,
    property_holds,
    tensor_power,
    transfer_witness,
)
from lrlab.errors import HypothesisFails, NotFoundWithin


def P(*parts):
    return Partition(parts)


class TestPropertyHolds:
    def test_fails_at_one(self):
        ok, bad = property_holds(P(2), 1, 2)
        assert not ok and bad == P(1, 1)

    def test_holds_at_two(self):
        assert property_holds(P(2), 2, 2) == (True, None)

    def test_column_is_always_fine(self):
        for n in range(1, 5):
            assert property_holds(P(1, 1), n, 2) == (True, None)

    def test_length_one_is_trivial(self):
        for n in range(1, 4):
            assert property_holds(P(1), n, 1) == (True, None)

    def test_negative_exponent_is_refused(self):
        with pytest.raises(ValueError, match="^exponent must be a non-negative integer, not -1$"):
            property_holds(P(2), -1, 2)


class TestThresholdSearch:
    def test_row(self):
        res = minimal_uniform_exponent(P(2), 2, 5)
        assert res.threshold == 2
        assert res.failures == [(1, P(1, 1))]
        assert res.describe() == "threshold 2; fails at n=1 with B=[1,1]"

    def test_column(self):
        res = minimal_uniform_exponent(P(1, 1), 2, 4)
        assert res.threshold == 1 and not res.failures

    def test_single_row_length_one(self):
        assert minimal_uniform_exponent(P(1), 1, 3).threshold == 1

    def test_no_threshold_when_the_last_exponent_fails(self):
        res = minimal_uniform_exponent(P(2, 1), 3, 1)
        assert res.threshold is None
        assert res.failures == [(1, P(1, 1, 1))]

    def test_threshold_follows_the_last_failure(self, monkeypatch):
        # the property is not assumed monotone: failures at n=2 and n=4
        def fake(a, n, l):
            return (False, P(n, 1)) if n in (2, 4) else (True, None)

        monkeypatch.setattr("lrlab.search.property_holds", fake)
        res = minimal_uniform_exponent(P(2), 2, 6)
        assert res.threshold == 5
        assert res.failures == [(2, P(2, 1)), (4, P(4, 1))]

    def test_json_roundtrip(self):
        res = minimal_uniform_exponent(P(2), 2, 5)
        back = ExponentSearch.from_json(res.to_json())
        assert back.to_json() == res.to_json()


class TestTransfer:
    def test_box_to_column(self):
        wit = transfer_witness(P(1), P(1, 1), 2)
        assert (wit.m_exp, wit.n_exp, wit.t) == (1, 2, 1)

    def test_row_to_column_needs_two(self):
        wit = transfer_witness(P(2), P(1, 1), 2)
        assert (wit.m_exp, wit.n_exp, wit.t) == (1, 1, 2)

    def test_symmetric_power_support_equivalence(self):
        # powers of a row and powers of the box dominate each other's support
        w1 = transfer_witness(P(3), P(1), 3)
        w2 = transfer_witness(P(1), P(3), 3)
        assert w1.t >= 1 and w2.t >= 1

    def test_hypothesis_failure(self):
        with pytest.raises(HypothesisFails):
            transfer_witness(P(1, 1), P(2), 2)

    def test_partition_longer_than_d(self):
        message = r"^lengths of \[1,1,1\], \[3\] must be at most 2$"
        with pytest.raises(HypothesisFails, match=message):
            transfer_witness(P(1, 1, 1), P(3), 2)

    def test_not_found_within(self):
        with pytest.raises(NotFoundWithin):
            transfer_witness(P(2), P(1, 1), 2, t_max=1)

    def test_json_roundtrip(self):
        wit = transfer_witness(P(2), P(1, 1), 2)
        assert TransferWitness.from_json(wit.to_json()).to_json() == wit.to_json()

    def test_witness_reverified_by_coefficient_oracle(self):
        # sample summands of the contained support and re-derive their
        # presence on the other side through the skew-filling counter
        for a, b, d in ((P(1), P(1, 1), 2), (P(2), P(1, 1), 2), (P(3), P(1), 3)):
            wit = transfer_witness(a, b, d)
            small = sorted(tensor_power(b, wit.t * wit.m_exp, cap=d).support())
            rng = random.Random(0)
            sample = rng.sample(small, min(10, len(small)))
            prev = tensor_power(a, wit.t * wit.n_exp - 1, cap=d)
            for c in sample:
                assert any(
                    lr_coefficient(q, a, c) >= 1 for q, _ in prev.items()
                ), (a, b, c)
