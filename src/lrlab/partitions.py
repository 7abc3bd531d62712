"""Integer partitions, Young diagrams, dominance order, and cell moves.

Every value is immutable after construction and every function is pure, so
all of this is safe to share between threads.
"""

from __future__ import annotations

from enum import Enum
from itertools import zip_longest
from math import lcm
from operator import add, index, lt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidPartition, NotComparable, NotWeaklyDecreasing


class Cell(NamedTuple):
    """One box (row, col) of a Young diagram; both coordinates are 1-based."""

    row: int
    col: int


class Dominance(Enum):
    GREATER = "Greater"
    LESS = "Less"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"
    DIFFERENT_WEIGHT = "DifferentWeight"


class Partition:
    """Weakly decreasing sequence of positive integers, in canonical form.

    Parts are counts (see as_count), trailing zeros are stripped on construction
    and the empty sequence is the unit. Indexing past the end reads 0, which keeps
    prefix-sum arithmetic free of explicit padding.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(as_count(p, "part", InvalidPartition) for p in parts)
        for x, y in zip(ps, ps[1:]):
            if x < y:
                raise NotWeaklyDecreasing(f"{list(ps)} is not weakly decreasing")
        self._parts = _strip(ps)

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        # fast path for internal callers that already hold canonical tuples
        self = object.__new__(cls)
        self._parts = parts
        return self

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        return sum(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError("negative row index")
        return self._parts[i] if i < len(self._parts) else 0

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __lt__(self, other: object) -> bool:
        # plain lexicographic order on part tuples; used only for sorting
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts < other._parts

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self._parts) + "]"

    def padded(self, l: int) -> tuple[int, ...]:
        """Parts extended with zeros to length l."""
        if l < len(self._parts):
            raise InvalidPartition(f"{self} does not fit length {l}")
        return self._parts + (0,) * (l - len(self._parts))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (column lengths become parts)."""
        return Partition._trusted(conjugate_parts(self._parts))

    def contains(self, other: "Partition") -> bool:
        """Young-diagram containment."""
        return all(self[i] >= q for i, q in enumerate(other.parts))

    def plus(self, other: "Partition", l: int | None = None) -> "Partition":
        """Pointwise sum; with l, both operands must fit length l."""
        a, b = self._parts, other._parts
        if l is not None and max(len(a), len(b)) > l:
            self.padded(l), other.padded(l)  # raises for the first operand longer than l
        if len(a) < len(b):
            a, b = b, a
        out = object.__new__(Partition)
        out._parts = tuple(map(add, a, b)) + a[len(b) :]
        return out

    def shifted(self, vector: Sequence[int]) -> "Partition | None":
        """Sum with an integer vector, self padded to the vector's length;
        None when the sum is not a partition."""
        s = tuple(map(add, self.padded(len(vector)), vector))
        if any(map(lt, s, s[1:])) or (s and s[-1] < 0):
            return None
        return Partition._trusted(_strip(s))

    def scaled(self, n: int) -> "Partition":
        """Entrywise multiple n*A."""
        if (n := as_count(n, "scale", InvalidPartition)) == 0:
            return Partition._trusted(())
        return Partition._trusted(tuple(n * p for p in self._parts))


def conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column heights of a part tuple, tallest first, in one pass from the last row."""
    cols: tuple[int, ...] = ()
    for h in range(len(parts), 0, -1):
        cols += (h,) * (parts[h - 1] - len(cols))  # the columns that end in row h
    return cols


def as_count(value, what: str, error: type[Exception] = ValueError, *, positive: bool = False) -> int:
    """The int operator.index gives for value when it is >= 0 (>= 1 when positive),
    else error naming what."""
    try:
        if (n := index(value)) >= positive:
            return n
    except TypeError:
        pass
    sign = "positive" if positive else "non-negative"
    raise error(f"{what} must be a {sign} integer, not {value!r}")


def _strip(ps: tuple[int, ...]) -> tuple[int, ...]:
    while ps and ps[-1] == 0:
        ps = ps[:-1]
    return ps


EMPTY = Partition()


def single_column(r: int) -> Partition:
    """The one-column partition of height r (height 0 gives the unit)."""
    return Partition._trusted((1,) * as_count(r, "column height", InvalidPartition))


def column_decomposition(a: Partition) -> list[Partition]:
    """Columns of a as single-column partitions; their pointwise sum is a."""
    return [single_column(h) for h in a.conjugate().parts]


def lcm_upto(l: int) -> int:
    """Least common multiple of 1..l."""
    return lcm(*range(1, as_count(l, "l", positive=True) + 1))


def dominance_compare(a: Partition, b: Partition) -> Dominance:
    """Prefix-sum comparison of equal-weight partitions."""
    pa, pb = a.parts, b.parts
    if pa == pb:
        return Dominance.EQUAL
    if sum(pa) != sum(pb):
        return Dominance.DIFFERENT_WEIGHT
    ge = le = True
    lead = 0  # prefix sum of a minus prefix sum of b
    for x, y in zip_longest(pa, pb, fillvalue=0):
        lead += x - y
        if lead < 0:
            ge = False
        elif lead > 0:
            le = False
    if ge:
        return Dominance.GREATER
    if le:
        return Dominance.LESS
    return Dominance.INCOMPARABLE


def dominates(a: Partition, b: Partition) -> bool:
    """True when a is greater than or equal to b in dominance order."""
    return dominance_compare(a, b) in (Dominance.GREATER, Dominance.EQUAL)


def _cells_beyond(a: Partition, b: Partition) -> set[Cell]:
    """Cells of a's diagram outside b's: row i+1 holds columns b[i]+1..a[i]."""
    return {Cell(i + 1, j + 1) for i, p in enumerate(a.parts) for j in range(b[i], p)}


def diagram_difference(a: Partition, b: Partition) -> tuple[set[Cell], set[Cell]]:
    """Cells only in a's diagram and cells only in b's diagram."""
    return _cells_beyond(a, b), _cells_beyond(b, a)


def diagram_distance(a: Partition, b: Partition) -> int:
    """Number of cells of a's diagram outside b's (the distance when weights agree)."""
    return sum(max(p - b[i], 0) for i, p in enumerate(a.parts))


def interpolating_sequence(a: Partition, b: Partition) -> list[Partition]:
    """Chain a = P0 > P1 > ... > Pk = b moving one cell per step.

    Each step takes the cell from the last row that is still too long and
    drops it onto the first row that is too short, so every intermediate
    partition stays between a and b in dominance order and all moved cells
    stay inside the symmetric difference of the two diagrams.
    """
    rel = dominance_compare(a, b)
    if rel not in (Dominance.GREATER, Dominance.EQUAL):
        raise NotComparable(f"{a} does not dominate {b}")
    out = [a]
    n = max(len(a), len(b))
    cur = list(a.padded(n))
    tgt = b.padded(n)
    for alpha in range(n):  # fill the rows too short, top down; rows above alpha only lose cells
        while cur[alpha] < tgt[alpha]:
            beta = alpha - 1
            while cur[beta] <= tgt[beta]:
                beta -= 1
            cur[beta] -= 1
            cur[alpha] += 1
            out.append(Partition._trusted(_strip(tuple(cur))))
    return out


def partitions_of(n: int, max_len: int | None = None, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        return
    if n == 0:
        yield EMPTY
        return
    ml = n if max_len is None else min(max_len, n)
    mp = n if max_part is None else min(max_part, n)
    if ml <= 0 or mp <= 0:
        return
    acc: list[int] = []

    def rec(rem: int, prev: int, slots: int) -> Iterator[Partition]:
        if rem == 0:
            yield Partition._trusted(tuple(acc))
            return
        hi = min(prev, rem)
        lo = -(-rem // slots)
        for v in range(hi, lo - 1, -1):
            acc.append(v)
            yield from rec(rem - v, v, slots - 1)
            acc.pop()

    yield from rec(n, mp, ml)


def partitions_up_to(n: int, max_len: int | None = None) -> Iterator[Partition]:
    """All partitions of weight 0..n, weights ascending, descending lex inside."""
    for w in range(n + 1):
        yield from partitions_of(w, max_len=max_len)


def dominated_partitions(target: Partition, l: int) -> Iterator[Partition]:
    """All B of length <= l with |B| = |target| and B below target in dominance,
    in descending lexicographic order; the target itself comes first."""
    target.padded(l)  # raises InvalidPartition when the target is longer than l
    yield from (b for b in partitions_of(target.weight, max_len=l) if dominates(target, b))
