"""Opt-in on-disk cache for tensor powers.

Plain text: a magic first line, then one JSON record per entry, keyed by
(partition, exponent, cap), in the order the entries were first saved. A
file with another header, an unparsable line, two records of one key with
different terms, or a record whose terms cannot be that power's (a term not
a partition, longer than the cap, of the wrong weight, or of multiplicity
below 1; terms when n > 0 and a is longer than the cap, which cuts them
all, or none otherwise, as s_a^n holds s_{n a}) is treated as empty.
Parts are JSON integers, and exponents and caps non-negative ones; a
multiplicity is a JSON integer or a string of ASCII digits. Opening an
empty path, an existing path that is not a regular file (such as a
directory or a FIFO) or cannot be read, or one in a missing directory raises
OSError.

Opening a file checks every record but keeps each as its line of text;
`get` turns a record into terms the first time it is asked for it, so an
open costs one JSON parse per line and only the records read are held as
terms. `put` keeps the dict it is given, not a copy, so the caller must not
change it afterwards. A save appends the records the file lacks in one
write, cut back if it fails; a missing or stale file, or one that does not
end in a newline, is rewritten through a temporary file and a rename onto
the path a symlink points to, so the link survives.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from itertools import chain

MAGIC = "LRPOW1"

Key = tuple[tuple[int, ...], int, int | None]
Terms = dict[tuple[int, ...], int]


def _checked_key(rec) -> Key:
    """The key of a parsed record; ValueError unless its terms can be that
    power's. Runs on the JSON lists, building no tuple or dict per term."""
    parts, n, cap = rec["partition"], rec["n"], rec["cap"]
    ps, ms = [t[0] for t in rec["terms"]], [t[1] for t in rec["terms"]]
    text = "".join([m for m in ms if type(m) is not int])  # TypeError unless the rest are str
    # in order, so that sum() and int() see only what the checks before them let through
    if not (
        {type(parts), *map(type, ps)} <= {list}
        and {type(n), *map(type, chain(parts, *ps))} <= {int} and n >= 0
        # every term fits the cap, and with default=0 a cap below 0 fails too
        and (cap is None or type(cap) is int and max(map(len, ps), default=0) <= cap)
        and bool(ps) is (n == 0 or cap is None or len(parts) <= cap)
        and (text.isascii() and text.isdigit() or not text)
        and set(map(sum, ps)) <= {n * sum(parts)}
        and all(p == sorted(p, reverse=True) and (not p or p[-1] >= 1) for p in ps)
        and min(map(int, ms), default=1) >= 1
    ):
        raise ValueError("a term cannot occur in this power")
    return tuple(parts), n, cap


def _terms(line: str) -> Terms:
    """The terms of a record line that `_checked_key` accepted."""
    return {tuple(t[0]): int(t[1]) for t in json.loads(line)["terms"]}


def _line(key: Key, terms: Terms) -> str:
    """A power's record, terms in descending order."""
    parts, n, cap = key
    rows = [[list(t), str(terms[t])] for t in sorted(terms, reverse=True)]
    return json.dumps({"partition": list(parts), "n": n, "cap": cap, "terms": rows}) + "\n"


class PowerCache:
    def __init__(self, path: str):
        self.path = path
        self.valid_header = True
        self._entries: dict[Key, str | Terms] = {}  # a record's line until `get` reads it
        self._new: set[Key] = set()  # put since the last load or save
        self._load()

    def _load(self) -> None:
        try:
            mode = os.stat(self.path).st_mode
        except (OSError, ValueError):  # a missing path, as os.path.exists sees it
            if not self.path:
                raise FileNotFoundError("cache path '' is empty") from None
            folder = os.path.dirname(self.path) or "."
            if not os.path.isdir(folder):
                raise FileNotFoundError(f"cache {self.path}: directory {folder} does not exist") from None
            return
        if not stat.S_ISREG(mode):  # a FIFO would block the open, a device be read to its end
            raise OSError(f"cache {self.path}: not a regular file")
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != MAGIC:
            self.valid_header = False
            return
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                key = _checked_key(json.loads(line))
                held = self._entries.setdefault(key, line)
                if held != line and _terms(held) != _terms(line):
                    raise ValueError(f"two records for {key} disagree")
            except (ValueError, KeyError, TypeError, IndexError, RecursionError):
                self.valid_header = False
                self._entries.clear()
                return

    def get(self, parts: tuple[int, ...], n: int, cap: int | None) -> Terms | None:
        key = (parts, n, cap)
        terms = self._entries.get(key)
        if type(terms) is str:
            terms = self._entries[key] = _terms(terms)
        return terms

    def put(self, parts: tuple[int, ...], n: int, cap: int | None, terms: Terms) -> None:
        key = (parts, n, cap)
        if key not in self._entries:
            self._entries[key] = terms
            self._new.add(key)

    def __len__(self) -> int:
        return len(self._entries)

    def save(self) -> None:
        """Append the new records or rewrite the file; a failed save leaves it intact."""
        if not self._new and self.valid_header and os.path.exists(self.path):
            return
        new = sorted(self._new, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2]))
        blob = "".join(_line(k, self._entries[k]) for k in new).encode()
        if not (self.valid_header and self._append(blob)):
            keys = [k for k in self._entries if k not in self._new]
            held = "".join(_line(k, self.get(*k)) for k in keys)
            target = os.path.realpath(self.path)  # through a symlink, as an append writes
            tmp = f"{target}.{os.getpid()}.tmp"
            try:
                with open(tmp, "wb") as fh:
                    fh.write((MAGIC + "\n" + held).encode() + blob)
                os.replace(tmp, target)
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
