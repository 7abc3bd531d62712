"""Finite non-negative integer combinations of partitions.

An element either lives in the full ring (cap None) or in the quotient where
partitions longer than the cap are zero. Multiplicities are plain Python
integers, so nothing overflows. Elements are immutable values.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .errors import CapMismatch
from .partitions import EMPTY, Partition


class LRElement:
    __slots__ = ("_terms", "_cap")

    def __init__(
        self,
        terms: Mapping[Partition, int] | Iterable[tuple[Partition, int]] = (),
        cap: int | None = None,
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Partition, int] = {}
        for p, m in items:
            if not isinstance(p, Partition):
                p = Partition(p)
            m = int(m)
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for {p}")
            if m == 0:
                continue
            if cap is not None and len(p) > cap:
                continue
            acc[p] = acc.get(p, 0) + m
        self._terms = acc
        self._cap = cap

    @classmethod
    def _from_raw(cls, raw: dict[tuple[int, ...], int], cap: int | None) -> "LRElement":
        # internal: raw keys are canonical part tuples already under the cap
        self = object.__new__(cls)
        self._terms = {Partition._trusted(t): m for t, m in raw.items()}
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
        return sorted(self._terms.items(), key=lambda kv: kv[0].parts, reverse=True)

    def support(self) -> frozenset[Partition]:
        return frozenset(self._terms)

    def __getitem__(self, p) -> int:
        if not isinstance(p, Partition):
            p = Partition(p)
        return self._terms.get(p, 0)

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

    def _require_same_cap(self, other: "LRElement") -> None:
        if self._cap != other._cap:
            raise CapMismatch(f"caps {self._cap} and {other._cap} differ")

    def __add__(self, other: "LRElement") -> "LRElement":
        self._require_same_cap(other)
        acc = dict(self._terms)
        for p, m in other._terms.items():
            acc[p] = acc.get(p, 0) + m
        out = object.__new__(LRElement)
        out._terms = acc
        out._cap = self._cap
        return out

    def scaled(self, c: int) -> "LRElement":
        if c < 0:
            raise ValueError("negative scalar")
        if c == 0:
            return LRElement.zero(self._cap)
        out = object.__new__(LRElement)
        out._terms = {p: c * m for p, m in self._terms.items()}
        out._cap = self._cap
        return out

    def shift_add(self, a: Partition) -> "LRElement":
        """Add the partition a pointwise to every term."""
        return LRElement(
            ((p.plus(a), m) for p, m in self._terms.items()), cap=self._cap
        )

    def truncated(self, l: int) -> "LRElement":
        """Image in the quotient that kills partitions longer than l."""
        return LRElement(self._terms, cap=l)

    def leq(self, other: "LRElement") -> bool:
        """Multiplicity-wise comparison (non-strict, cap-agnostic)."""
        return all(other._terms.get(p, 0) >= m for p, m in self._terms.items())

    def contains(self, p: Partition) -> bool:
        """Whether the basis partition p occurs with positive multiplicity."""
        return p in self._terms

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

