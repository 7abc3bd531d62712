"""Result records: verification reports, cone certificates, search outputs.

Each record serializes to a JSON object that parses back into the same type;
wall-clock fields stay out of the JSON so that output bytes are repeatable.
The records are named tuples, so loading them pulls in neither dataclasses
(and its inspect, ast and dis) nor fractions (and its decimal).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .partitions import Partition
from .subdivisions import Subdivision

if TYPE_CHECKING:
    from fractions import Fraction


class VerificationReport(NamedTuple):
    lemma_id: str
    bounds: dict[str, int]
    cases_checked: int
    failures: list[dict]
    elapsed: float = 0.0

    @property
    def status(self) -> str:
        return "PASS" if not self.failures else "FAIL"

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "bounds": dict(self.bounds),
            "cases": self.cases_checked,
            "failures": list(self.failures),
            "status": self.status,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VerificationReport":
        return cls(
            lemma_id=obj["lemma_id"],
            bounds=dict(obj["bounds"]),
            cases_checked=int(obj["cases"]),
            failures=list(obj["failures"]),
        )


class ConeCertificate(NamedTuple):
    member: bool
    n: int | None = None
    decomposition: list[tuple[Subdivision, Fraction]] | None = None
    reason: str = ""

    def to_json(self) -> dict:
        deco = None
        if self.decomposition is not None:
            deco = [
                {"subdivision": [list(iv) for iv in j.intervals], "coefficient": str(q)}
                for j, q in self.decomposition
            ]
        return {
            "member": self.member,
            "n": self.n,
            "decomposition": deco,
            "reason": self.reason,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConeCertificate":
        from fractions import Fraction

        deco = None
        if obj["decomposition"] is not None:
            deco = [
                (Subdivision(len(iv) for iv in d["subdivision"]), Fraction(d["coefficient"]))
                for d in obj["decomposition"]
            ]
        return cls(member=obj["member"], n=obj["n"], decomposition=deco, reason=obj.get("reason", ""))


class TransferWitness(NamedTuple):
    a: Partition
    b: Partition
    d: int
    m_exp: int
    n_exp: int
    t: int
    checked_support_sizes: tuple[int, int]

    def to_json(self) -> dict:
        return {
            "a": list(self.a.parts),
            "b": list(self.b.parts),
            "d": self.d,
            "M": self.m_exp,
            "N": self.n_exp,
            "t": self.t,
            "support_sizes": list(self.checked_support_sizes),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TransferWitness":
        return cls(
            a=Partition(obj["a"]),
            b=Partition(obj["b"]),
            d=int(obj["d"]),
            m_exp=int(obj["M"]),
            n_exp=int(obj["N"]),
            t=int(obj["t"]),
            checked_support_sizes=(int(obj["support_sizes"][0]), int(obj["support_sizes"][1])),
        )


class ExponentSearch(NamedTuple):
    partition: Partition
    l: int
    n_max: int
    threshold: int | None
    failures: list[tuple[int, Partition]]

    def describe(self) -> str:
        head = f"threshold {self.threshold}" if self.threshold is not None else "threshold unknown"
        tail = [f"fails at n={n} with B={b}" for n, b in self.failures]
        return "; ".join([head] + tail)

    def to_json(self) -> dict:
        return {
            "partition": list(self.partition.parts),
            "l": self.l,
            "n_max": self.n_max,
            "threshold": self.threshold,
            "failures": [{"n": n, "counterexample": list(b.parts)} for n, b in self.failures],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExponentSearch":
        return cls(
            partition=Partition(obj["partition"]),
            l=int(obj["l"]),
            n_max=int(obj["n_max"]),
            threshold=obj["threshold"],
            failures=[(int(f["n"]), Partition(f["counterexample"])) for f in obj["failures"]],
        )
