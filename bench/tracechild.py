"""Run one lrlab command in this process with layer spans recorded.

Usage: python tracechild.py SPANS_OUT [lrlab arguments ...]

Wraps the public entry points of each lrlab layer before `lrlab.cli.main`
is called, runs the command exactly as `python -m lrlab` would (same stdout,
same exit code), and writes the spans to SPANS_OUT once, at exit. A span is
[id, name, parent id or -1, start, end, value], times from perf_counter;
value is a layer-specific count (terms, cases, bytes, cache hit) or null.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter

import lrlab
import lrlab.cli
from lrlab import cones, powercache, product, search, verify
from lrlab.elements import LRElement
from lrlab.reports import ConeCertificate, ExponentSearch, TransferWitness, VerificationReport

SPANS: list[list] = []
_ids = itertools.count()
_main_stack: list[int] = []
_local = threading.local()


def _stack() -> list[int]:
    if threading.current_thread() is threading.main_thread():
        return _main_stack
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


def _traced(name, fn, value=None, before=None):
    """fn wrapped in a span; value(args, result, pre) gives the span's count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        # a pool worker's span belongs to whatever the main thread is blocked in
        parent = stack[-1] if stack else (_main_stack[-1] if _main_stack else -1)
        rec = [next(_ids), name, parent, perf_counter(), None, None]
        SPANS.append(rec)
        pre = before(args) if before else None
        stack.append(rec[0])
        try:
            result = fn(*args, **kwargs)
            if value is not None:
                rec[5] = value(args, result, pre)
            return result
        finally:
            stack.pop()
            rec[4] = perf_counter()

    return wrapper


def _rebind(module, attr, name, value=None):
    """Replace every lrlab module's binding of module.attr by one wrapper, so
    each call is recorded once whichever name the caller imported."""
    original = getattr(module, attr)
    wrapper = _traced(name, original, value)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("lrlab") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _file_state(path):
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _bytes_written(args, result, pre):
    post = _file_state(args[0].path)
    return post[1] if post is not None and post != pre else 0


def _bytes_read(args, result, pre):
    return pre[1] if pre is not None else 0


def install() -> None:
    def terms(args, result, pre):
        return len(result)

    _rebind(product, "mul", "product.mul", terms)
    _rebind(product, "tensor_power", "product.tensor_power", terms)
    _rebind(verify, "verify_lemma", "verify.verify_lemma",
            lambda args, rep, pre: [rep.lemma_id, rep.cases_checked])
    _rebind(verify, "verify_all", "verify.verify_all")
    for attr in ("minimal_uniform_exponent", "transfer_witness", "property_holds"):
        _rebind(search, attr, f"search.{attr}")
    for attr in ("cone_membership", "cone_generator_decomposition"):
        _rebind(cones, attr, f"cones.{attr}")

    cache = powercache.PowerCache
    state = lambda args: _file_state(args[0].path)  # noqa: E731
    cache._load = _traced("powercache.load", cache._load, _bytes_read, state)
    cache.save = _traced("powercache.save", cache.save, _bytes_written, state)
    cache.get = _traced("powercache.get", cache.get, lambda args, hit, pre: hit is not None)

    LRElement.to_json = _traced("elements.to_json", LRElement.to_json)
    for cls in (VerificationReport, ConeCertificate, TransferWitness, ExponentSearch):
        cls.to_json = _traced("reports.to_json", cls.to_json)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    install()
    run = _traced("cli.main", lrlab.cli.main)
    try:
        return run(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(SPANS, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
