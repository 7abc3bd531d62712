"""Finite non-negative integer combinations of partitions.

An element either lives in the full ring (cap None) or in the quotient where
partitions longer than the cap are zero. Multiplicities are plain Python
integers, so nothing overflows. Elements are immutable values.

The terms are held as a dict from canonical part tuples to multiplicities,
the form the product layer, its memos and the power cache produce, so a
product result is wrapped without re-keying; the dict may be shared with a
memo and is never mutated. Partition objects are built only when terms are
listed (items, support, iteration).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .errors import CapMismatch
from .partitions import EMPTY, Partition, as_count


def check_cap(cap: int | None) -> int | None:
    """The cap as an int, or None (no cap); ValueError naming it unless it is an integer >= 0."""
    return None if cap is None else as_count(cap, "cap")


class LRElement:
    __slots__ = ("_terms", "_cap")

    def __init__(
        self,
        terms: Mapping[Partition, int] | Iterable[tuple[Partition, int]] = (),
        cap: int | None = None,
    ):
        cap = check_cap(cap)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, ...], int] = {}
        for p, m in items:
            if not isinstance(p, Partition):
                p = Partition(p)
            m = as_count(m, "multiplicity")
            if m and (cap is None or len(p) <= cap):
                acc[p.parts] = acc.get(p.parts, 0) + m
        self._terms = acc
        self._cap = cap

    @classmethod
    def _from_raw(cls, raw: dict[tuple[int, ...], int], cap: int | None) -> "LRElement":
        # internal: wraps raw, not a copy; its keys are canonical part tuples under the cap
        self = object.__new__(cls)
        self._terms = raw
        self._cap = cap
        return self

    @classmethod
    def zero(cls, cap: int | None = None) -> "LRElement":
        return cls((), cap=cap)

    @classmethod
    def unit(cls, cap: int | None = None) -> "LRElement":
        return cls({EMPTY: 1}, cap=cap)

    @classmethod
    def basis(cls, p: Partition, cap: int | None = None) -> "LRElement":
        return cls({p: 1}, cap=cap)

    @property
    def cap(self) -> int | None:
        return self._cap

    def items(self) -> list[tuple[Partition, int]]:
        """Terms sorted by parts, descending lexicographic."""
        terms = self._terms
        return [(Partition._trusted(t), terms[t]) for t in sorted(terms, reverse=True)]

    def support(self) -> frozenset[Partition]:
        return frozenset(Partition._trusted(t) for t in self._terms)

    def __getitem__(self, p) -> int:
        if not isinstance(p, Partition):
            p = Partition(p)
        return self._terms.get(p.parts, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.support())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LRElement)
            and self._cap == other._cap
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}: {m}" for p, m in self.items())
        cap = "" if self._cap is None else f", cap={self._cap}"
        return f"LRElement({{{inner}}}{cap})"

    def __add__(self, other: object) -> "LRElement":
        if not isinstance(other, LRElement):
            return NotImplemented
        if self._cap != other._cap:
            raise CapMismatch(f"caps {self._cap} and {other._cap} differ")
        acc = dict(self._terms)
        for t, m in other._terms.items():
            acc[t] = acc.get(t, 0) + m
        return LRElement._from_raw(acc, self._cap)

    def shift_add(self, a: Partition) -> "LRElement":
        """Add the partition a pointwise to every term."""
        return LRElement(
            ((Partition._trusted(t).plus(a), m) for t, m in self._terms.items()),
            cap=self._cap,
        )

    def truncated(self, l: int) -> "LRElement":
        """Image in the quotient that kills partitions longer than l (at most the cap)."""
        l = as_count(l, "length")
        if self._cap is not None and l > self._cap:
            raise CapMismatch(f"cannot raise cap {self._cap} to {l}")
        return LRElement._from_raw({t: m for t, m in self._terms.items() if len(t) <= l}, l)

    def leq(self, other: "LRElement") -> bool:
        """Multiplicity-wise comparison (non-strict, cap-agnostic)."""
        return all(other._terms.get(p, 0) >= m for p, m in self._terms.items())

    def to_json(self) -> dict:
        return {
            "cap": self._cap,
            "terms": [
                {"partition": list(p.parts), "mult": str(m)} for p, m in self.items()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LRElement":
        return cls(
            ((Partition(t["partition"]), int(t["mult"])) for t in obj["terms"]),
            cap=obj["cap"],
        )

