"""Tuple-based dominance and chain code against reference copies of the
set-based code it replaced, and Partition.plus against its padded version.

Each reference below is the earlier implementation, verbatim apart from its
name; the chain check takes its sequence as an argument instead of calling
interpolating_sequence, and the plus method is a function of its operands.
The current code must agree with it exactly: the same Dominance member, the
same chain or NotComparable message, the same one-cell pair list, the same
failure reason for hand-made chains, and the same sum or InvalidPartition
message.
"""

import pytest

import lrlab.verify as verify_mod
from lrlab import Dominance, Partition, diagram_difference, partitions_of, partitions_up_to
from lrlab.errors import InvalidPartition, NotComparable
from lrlab.partitions import _strip, dominance_compare, interpolating_sequence


def _ref_dominance_compare(a: Partition, b: Partition) -> Dominance:
    """Prefix-sum comparison of equal-weight partitions."""
    if a.weight != b.weight:
        return Dominance.DIFFERENT_WEIGHT
    if a.parts == b.parts:
        return Dominance.EQUAL
    ge = le = True
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i]
        sb += b[i]
        if sa < sb:
            ge = False
        elif sb < sa:
            le = False
    if ge:
        return Dominance.GREATER
    if le:
        return Dominance.LESS
    return Dominance.INCOMPARABLE


def _ref_interpolating_sequence(a: Partition, b: Partition) -> list[Partition]:
    rel = _ref_dominance_compare(a, b)
    if rel not in (Dominance.GREATER, Dominance.EQUAL):
        raise NotComparable(f"{a} does not dominate {b}")
    out = [a]
    n = max(len(a), len(b))
    cur = list(a.padded(n))
    tgt = b.padded(n)
    while tuple(cur) != tgt:
        alpha = next(i for i in range(n) if cur[i] < tgt[i])
        beta = max(i for i in range(alpha) if cur[i] > tgt[i])
        cur[beta] -= 1
        cur[alpha] += 1
        out.append(Partition._trusted(_strip(tuple(cur))))
    return out


def _ref_distance_one_pairs(w: int, max_len: int | None = None):
    ps = list(partitions_of(w, max_len=max_len))
    out = []
    for hi in ps:
        for lo in ps:
            if hi == lo or _ref_dominance_compare(hi, lo) is not Dominance.GREATER:
                continue
            only_hi, only_lo = diagram_difference(hi, lo)
            if len(only_hi) == 1:
                out.append((hi, lo, next(iter(only_hi)).row, next(iter(only_lo)).row))
    return out


def _ref_chain_reason(a: Partition, b: Partition, seq: list[Partition]) -> str | None:
    only_a, only_b = diagram_difference(a, b)
    if len(seq) != len(only_a) + 1:
        return f"length {len(seq)} differs from distance {len(only_a)} + 1"
    if seq[0] != a or seq[-1] != b:
        return "endpoints wrong"
    for x, y in zip(seq, seq[1:]):
        dx, dy = diagram_difference(x, y)
        if len(dx) != 1 or len(dy) != 1:
            return f"adjacent distance is not 1 between {x} and {y}"
        if _ref_dominance_compare(x, y) is not Dominance.GREATER:
            return f"{x} does not strictly dominate {y}"
    for i in range(len(seq)):
        for jdx in range(i + 1, len(seq)):
            di, dj = diagram_difference(seq[i], seq[jdx])
            if not di <= only_a or not dj <= only_b:
                return f"cells of step {i}->{jdx} leave the symmetric difference"
    return None


def _ref_plus(self: Partition, other: Partition, l: int | None = None) -> Partition:
    """Pointwise sum, both operands padded to a common length."""
    n = max(len(self), len(other)) if l is None else l
    a, b = self.padded(n), other.padded(n)
    return Partition._trusted(_strip(tuple(x + y for x, y in zip(a, b))))


def _sum_or_error(fn, a, b, l):
    try:
        return fn(a, b, l)
    except InvalidPartition as exc:
        return str(exc)


def test_plus_all_pairs_to_weight_7():
    pool = list(partitions_up_to(7))
    refused = 0
    for a in pool:
        for b in pool:
            for l in (None, *range(9)):
                want = _sum_or_error(_ref_plus, a, b, l)
                got = _sum_or_error(Partition.plus, a, b, l)
                assert got == want and type(got) is type(want), (a, b, l)
                refused += isinstance(want, str)
    assert refused > 0


def test_dominance_compare_all_pairs_to_weight_9():
    pool = list(partitions_up_to(9))
    for a in pool:
        for b in pool:
            assert dominance_compare(a, b) is _ref_dominance_compare(a, b), (a, b)


def _chain_or_error(fn, a, b):
    try:
        return fn(a, b)
    except NotComparable as exc:
        return str(exc)


@pytest.mark.parametrize("weight", range(13))
def test_interpolating_sequence_every_pair(weight):
    pool = list(partitions_of(weight))
    refused = 0
    for a in pool:
        for b in pool:
            got = _chain_or_error(interpolating_sequence, a, b)
            want = _chain_or_error(_ref_interpolating_sequence, a, b)
            assert got == want, (a, b)
            refused += isinstance(want, str)
    assert (refused > 0) == (weight >= 2)


@pytest.mark.parametrize("max_len", [None, 1, 2, 3, 4])
def test_distance_one_pairs(max_len):
    for w in range(10):
        assert verify_mod._distance_one_pairs(w, max_len) == _ref_distance_one_pairs(w, max_len)


def _hand_made_chains(a, b, pool):
    """The true chain, then each step swapped for every partition of the pool,
    each step dropped, and each adjacent pair of steps exchanged."""
    seq = _ref_interpolating_sequence(a, b)
    yield seq
    for i in range(len(seq)):
        for p in pool:
            yield seq[:i] + [p] + seq[i + 1:]
        yield seq[:i] + seq[i + 1:]
    for i in range(len(seq) - 1):
        yield seq[:i] + [seq[i + 1], seq[i]] + seq[i + 2:]


def test_chain_reason_on_hand_made_chains(monkeypatch):
    seen = set()
    for weight in range(7):
        same = list(partitions_of(weight))
        pool = same + list(partitions_of(weight + 1))
        for a in same:
            for b in same:
                if _ref_dominance_compare(a, b) not in (Dominance.GREATER, Dominance.EQUAL):
                    continue
                for seq in _hand_made_chains(a, b, pool):
                    monkeypatch.setattr(verify_mod, "interpolating_sequence", lambda x, y: seq)
                    want = _ref_chain_reason(a, b, seq)
                    assert verify_mod._chain_reason(a, b) == want, (a, b, seq)
                    seen.add(want and want.split()[0])
    # None, "length", "endpoints", "adjacent" and a "[...] does not strictly dominate"
    assert {None, "length", "endpoints", "adjacent"} <= seen and len(seen) > 4
