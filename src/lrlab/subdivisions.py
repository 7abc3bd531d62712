"""Subdivisions of {1..l} into consecutive intervals, and the block-built
partitions they index: restrictions, reversed negations, cone generators and
their one-cell perturbations.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator

from .errors import IndexOutOfRange
from .partitions import Partition, as_count, lcm_upto


class Subdivision:
    """Ordered list of adjacent, non-empty intervals covering {1..l}."""

    __slots__ = ("_sizes", "_starts")

    def __init__(self, sizes: Iterable[int]):
        sz = tuple(as_count(s, "interval size", positive=True) for s in sizes)
        if not sz:
            raise ValueError("interval sizes must be positive, got []")
        starts = []
        pos = 1
        for s in sz:
            starts.append(pos)
            pos += s
        self._sizes = sz
        self._starts = tuple(starts)

    @classmethod
    def from_mask(cls, l: int, mask: int) -> "Subdivision":
        """Breakpoint bitmask: bit p-1 set puts a break after position p."""
        l = as_count(l, "l", positive=True)
        if not 0 <= mask < (1 << (l - 1)):
            raise ValueError(f"mask {mask} out of range for l={l}")
        sizes = []
        run = 0
        for p in range(1, l + 1):
            run += 1
            if p == l or (mask >> (p - 1)) & 1:
                sizes.append(run)
                run = 0
        return cls(sizes)

    @property
    def length(self) -> int:
        return self._starts[-1] + self._sizes[-1] - 1

    @property
    def block_count(self) -> int:
        return len(self._sizes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self._sizes

    @property
    def mask(self) -> int:
        m = 0
        pos = 0
        for s in self._sizes[:-1]:
            pos += s
            m |= 1 << (pos - 1)
        return m

    @property
    def intervals(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(range(st, st + sz)) for st, sz in zip(self._starts, self._sizes))

    def start(self, k: int) -> int:
        """First position of block k (1-based)."""
        return self._starts[k - 1]

    def end(self, k: int) -> int:
        """Last position of block k (1-based)."""
        return self._starts[k - 1] + self._sizes[k - 1] - 1

    def block_of(self, alpha: int) -> int:
        """Index k of the block containing position alpha."""
        if not 1 <= alpha <= self.length:
            raise IndexOutOfRange(f"position {alpha} outside 1..{self.length}")
        return bisect_right(self._starts, alpha)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subdivision) and self._sizes == other._sizes

    def __hash__(self) -> int:
        return hash(("Subdivision", self._sizes))

    def __repr__(self) -> str:
        return f"Subdivision({list(self._sizes)})"

    def __str__(self) -> str:
        return "{" + ",".join("(" + ",".join(map(str, iv)) + ")" for iv in self.intervals) + "}"


def all_subdivisions(l: int) -> Iterator[Subdivision]:
    """The 2^(l-1) subdivisions of {1..l}, by breakpoint bitmask ascending."""
    l = as_count(l, "l", positive=True)
    return (Subdivision.from_mask(l, mask) for mask in range(1 << (l - 1)))


def restrict(a: Partition, interval: Iterable[int], l: int) -> Partition:
    """Entries of a (padded to l) read off along a consecutive interval."""
    iv = tuple(interval)
    if not iv or any(y != x + 1 for x, y in zip(iv, iv[1:])):
        raise ValueError(f"{list(iv)} is not a non-empty consecutive interval")
    if iv[0] < 1 or iv[-1] > l:
        raise IndexOutOfRange(f"interval {list(iv)} outside 1..{l}")
    padded = a.padded(l)
    return Partition(padded[i - 1] for i in iv)


def reversed_negation(a: Partition, l: int) -> tuple[int, ...]:
    """The vector (-a_l, ..., -a_1) for a read at length l."""
    return tuple(-x for x in reversed(a.padded(l)))


def blockwise_reversed_negation(a: Partition, j: Subdivision) -> tuple[int, ...]:
    """Reversed negation applied inside each interval of the subdivision."""
    padded = a.padded(j.length)
    out: list[int] = []
    for iv in j.intervals:
        out.extend(-padded[i - 1] for i in reversed(iv))
    return tuple(out)


def cone_generator(a: Partition, j: Subdivision) -> Partition:
    """Block-constant partition spreading each interval's weight evenly.

    On an interval of size s the value is (L/s) * (weight of a restricted to
    the interval), with L = lcm(1..l); block values weakly decrease because
    a does, so the result is always a partition of weight L*|a|.
    """
    l = j.length
    big_l = lcm_upto(l)
    padded = a.padded(l)
    out: list[int] = []
    for iv in j.intervals:
        v = (big_l // len(iv)) * sum(padded[i - 1] for i in iv)
        out.extend([v] * len(iv))
    return Partition(out)


def perturbed_generator_raw(a: Partition, j: Subdivision, m: int, n: int) -> Partition | None:
    """Cone generator with one cell removed from the end of block m and one
    added at the start of block n; None when the result is not a partition."""
    gen = cone_generator(a, j)
    for k in (m, n):
        if not 1 <= k <= j.block_count:
            raise IndexOutOfRange(f"block {k} outside 1..{j.block_count}")
    move = [0] * j.length
    move[j.end(m) - 1] -= 1
    move[j.start(n) - 1] += 1
    return gen.shifted(move)


def perturbed_generator(
    a: Partition, j: Subdivision, beta: int, delta: int
) -> tuple[int, int, Partition | None]:
    """Perturbation blocks derived from column heights of a.

    Block m holds the height of column beta, block n the row just below the
    height of column delta. Returns (m, n, perturbed generator or None).
    """
    if not 1 <= delta < beta:
        raise ValueError(f"need 1 <= delta < beta, got delta={delta}, beta={beta}")
    conj = a.conjugate()
    h_beta = conj[beta - 1]
    if h_beta == 0:
        raise IndexOutOfRange(f"column {beta} of {a} is empty")
    h_delta = conj[delta - 1]
    if h_delta + 1 > j.length:
        raise IndexOutOfRange(
            f"column {delta} of {a} has height {h_delta}; row {h_delta + 1} "
            f"is outside 1..{j.length}"
        )
    m = j.block_of(h_beta)
    n = j.block_of(h_delta + 1)
    return m, n, perturbed_generator_raw(a, j, m, n)
