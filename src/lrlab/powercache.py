"""Opt-in on-disk cache for tensor powers.

Plain text: a magic first line, then one JSON record per entry, keyed by
(partition, exponent, cap), in the order the entries were first saved. A
file with another header, an unparsable line, two differing records of one
key, or a record whose terms cannot occur in that power (not a partition,
longer than the cap, of the wrong weight, or of multiplicity below 1) is
treated as empty. Opening an empty path, an existing path that cannot be
read (such as a directory), or one in a missing directory raises OSError. A
save appends the records the file lacks in one write, cut back if it fails;
a missing or stale file, or one that does not end in a newline, is rewritten
through a temporary file and a rename.
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
        self._new: set[Key] = set()  # put since the last load or save
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            if not self.path:
                raise FileNotFoundError("cache path '' is empty")
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
                if self._entries.setdefault(key, terms) != terms:
                    raise ValueError(f"two records for {key} disagree")
            except (ValueError, KeyError, TypeError):
                self.valid_header = False
                self._entries.clear()
                return

    def get(self, parts: tuple[int, ...], n: int, cap: int | None):
        return self._entries.get((parts, n, cap))

    def put(self, parts: tuple[int, ...], n: int, cap: int | None, terms) -> None:
        key = (parts, n, cap)
        if key not in self._entries:
            self._entries[key] = dict(terms)
            self._new.add(key)

    def __len__(self) -> int:
        return len(self._entries)

    def _records(self, keys):
        for parts, n, cap in keys:
            terms = sorted(self._entries[parts, n, cap].items(), reverse=True)
            rec = {"partition": list(parts), "n": n, "cap": cap, "terms": [[list(t), str(m)] for t, m in terms]}
            yield json.dumps(rec) + "\n"

    def save(self) -> None:
        """Append the new records or rewrite the file; a failed save leaves it intact."""
        if not self._new and self.valid_header and os.path.exists(self.path):
            return
        new = sorted(self._new, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2]))
        blob = "".join(self._records(new)).encode()
        if not (self.valid_header and self._append(blob)):
            held = "".join(self._records(k for k in self._entries if k not in self._new))
            tmp = f"{self.path}.{os.getpid()}.tmp"
            try:
                with open(tmp, "wb") as fh:
                    fh.write((MAGIC + "\n" + held).encode() + blob)
                os.replace(tmp, self.path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
                raise
        self._new.clear()
        self.valid_header = True

    def _append(self, blob: bytes) -> bool:
        """Append blob in one write if the file ends in a newline; undo a failed write."""
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND)
        except OSError:
            return False
        try:
            size = os.fstat(fd).st_size
            if os.pread(fd, 1, max(size - 1, 0)) != b"\n":
                return False
            try:
                if os.write(fd, blob) != len(blob):
                    raise OSError(f"cache {self.path}: short write")
            except BaseException:
                os.ftruncate(fd, size)
                raise
            return True
        finally:
            os.close(fd)
