"""Opt-in on-disk cache for tensor powers.

Plain text: a magic first line, then one JSON record per entry, keyed by
(partition, exponent, cap). A file whose header does not match the current
format version, or that holds a record whose terms cannot occur in that
power (not a partition, longer than the cap, of the wrong weight, or with a
multiplicity below 1), is treated as empty and rewritten on save. A path
that exists but cannot be read, such as a directory, or a path whose
directory does not exist, raises OSError when the cache is opened. Saving
writes a temporary file next to the cache and renames it over the old one.
"""

from __future__ import annotations

import contextlib
import json
import os

MAGIC = "LRPOW1"

Key = tuple[tuple[int, ...], int, int | None]


def _check_terms(terms: dict[tuple[int, ...], int], weight: int, cap: int | None) -> None:
    """Raise ValueError unless every term is a partition of the power's weight,
    within the cap, with a positive multiplicity."""
    for t, m in terms.items():
        if (
            m < 1
            or sum(t) != weight
            or (cap is not None and len(t) > cap)
            or (t and t[-1] < 1)
            or t != tuple(sorted(t, reverse=True))
        ):
            raise ValueError(f"term {list(t)} with multiplicity {m} cannot occur")


class PowerCache:
    def __init__(self, path: str):
        self.path = path
        self.valid_header = True
        self._entries: dict[Key, dict[tuple[int, ...], int]] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            folder = os.path.dirname(self.path) or "."
            if not os.path.isdir(folder):
                raise FileNotFoundError(f"cache {self.path}: directory {folder} does not exist")
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != MAGIC:
            self.valid_header = False
            return
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                key = (tuple(rec["partition"]), int(rec["n"]), rec["cap"])
                terms = {tuple(t[0]): int(t[1]) for t in rec["terms"]}
                _check_terms(terms, key[1] * sum(key[0]), key[2])
            except (ValueError, KeyError, TypeError):
                self.valid_header = False
                self._entries.clear()
                return
            self._entries[key] = terms

    def get(self, parts: tuple[int, ...], n: int, cap: int | None):
        return self._entries.get((parts, n, cap))

    def put(self, parts: tuple[int, ...], n: int, cap: int | None, terms) -> None:
        key = (parts, n, cap)
        if key not in self._entries:
            self._entries[key] = dict(terms)
            self._dirty = True

    def __len__(self) -> int:
        return len(self._entries)

    def save(self) -> None:
        """Rewrite the file atomically: a failed write leaves the old one intact."""
        if not self._dirty and self.valid_header and os.path.exists(self.path):
            return
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(MAGIC + "\n")
                for (parts, n, cap) in sorted(
                    self._entries, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2])
                ):
                    terms = self._entries[(parts, n, cap)]
                    rec = {
                        "partition": list(parts),
                        "n": n,
                        "cap": cap,
                        "terms": [[list(t), str(m)] for t, m in sorted(terms.items(), reverse=True)],
                    }
                    fh.write(json.dumps(rec) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
        self._dirty = False
        self.valid_header = True
