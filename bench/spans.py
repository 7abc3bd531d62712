"""Per-layer metrics from the spans one traced command wrote.

Self time is a span's duration minus the time its child spans cover. When
spans of pool workers run at once, each instant is split evenly between the
innermost spans running at that instant, so the self times of one command
always add up to its `cli.main` span, threads or not.
"""

from __future__ import annotations

SUITES = (
    "SMALLER", "CHI", "ATENSORL", "EXCHANGE", "G_IN_TENSOR", "H_IN_TENSOR", "H_MULT_P",
    "A_MULT_PP", "MULT_PLUS", "MULT_INERT", "MULT_CIRC", "PSEQ", "CHI_SYMMETRY", "HIGHEST_TERM",
)

PRODUCT = ("product.mul", "product.tensor_power")

# every figure layer_metrics fills, so each one is reported even when its layer
# did not run
ZERO = (
    ["command_s", "cli.self_s", "elements.to_json_s", "reports.to_json_s",
     "verify.cases", "verify.s", "verify.self_s"]
    + [f"verify.{lid}.s" for lid in SUITES]
    + [f"{p}.{k}" for p in PRODUCT for k in ("calls", "s", "terms")]
    + ["product.tensor_power.max_terms",
       "powercache.load.calls", "powercache.load_s", "powercache.bytes_read",
       "powercache.save_s", "powercache.bytes_written",
       "powercache.get.hits", "powercache.get.misses",
       "search.s", "cones.s"]
)


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of every span, by id, from one sweep over start/end events."""
    parent = {s[0]: s[2] for s in spans}
    timed = [s for s in spans if s[4] is not None and s[4] > s[3]]
    # at equal times ends go first; a parent's id is below its children's
    events = sorted([(s[3], 1, s[0]) for s in timed] + [(s[4], 0, s[0]) for s in timed])
    own = {s[0]: 0.0 for s in spans}
    open_children = {s[0]: 0 for s in spans}
    active: set[int] = set()
    leaves: set[int] = set()
    last = None
    for t, is_start, sid in events:
        if leaves and last is not None and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        p = parent[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                open_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                open_children[p] -= 1
                if not open_children[p]:
                    leaves.add(p)
    return own


def check(spans: list[list], own: dict[int, float]) -> list[str]:
    """Problems that make a traced command's numbers untrustworthy."""
    problems = []
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[2] == -1]
    if len(roots) != 1 or roots[0][1] != "cli.main":
        return [f"expected one cli.main root span, got {[s[1] for s in roots]}"]
    root = roots[0]
    for s in spans:
        if s[4] is None:
            problems.append(f"span {s[1]} never ended")
        elif own[s[0]] < -1e-9:
            problems.append(f"span {s[1]} has negative self time {own[s[0]]}")
        elif s[3] < root[3] or s[4] > root[4]:
            problems.append(f"span {s[1]} lies outside the command span")
        if s[2] != -1 and by_id[s[2]][1] == s[1]:
            problems.append(f"span {s[1]} is nested in itself (wrapped twice)")
    total = sum(own.values())
    if abs(total - (root[4] - root[3])) > 1e-6:
        problems.append(f"self times sum to {total}, command span is {root[4] - root[3]}")
    return problems


def layer_metrics(spans: list[list], own: dict[int, float]) -> dict[str, float]:
    """The per-layer figures of one command, to be summed over commands."""
    m: dict[str, float] = {k: 0.0 for k in ZERO}
    for s in spans:
        name, dur, self_s, value = s[1], s[4] - s[3], own[s[0]], s[5]
        if name == "cli.main":
            m["command_s"] += dur
            m["cli.self_s"] += self_s
        elif name in ("elements.to_json", "reports.to_json"):
            m[name + "_s"] += self_s
        elif name == "verify.verify_lemma":
            lemma, cases = value
            m["verify.cases"] += cases
            m["verify.s"] += dur
            m["verify.self_s"] += self_s
            m[f"verify.{lemma}.s"] += dur
        elif name == "verify.verify_all":
            m["verify.self_s"] += self_s
        elif name in PRODUCT:
            m[name + ".calls"] += 1
            m[name + ".s"] += self_s
            m[name + ".terms"] += value
            if name == "product.tensor_power":
                m[name + ".max_terms"] = max(m[name + ".max_terms"], value)
        elif name == "powercache.load":
            m["powercache.load.calls"] += 1
            m["powercache.load_s"] += self_s
            m["powercache.bytes_read"] += value
        elif name == "powercache.save":
            m["powercache.save_s"] += self_s
            m["powercache.bytes_written"] += value
        elif name == "powercache.get":
            m["powercache.get.hits" if value else "powercache.get.misses"] += 1
        elif name.startswith("search."):
            m["search.s"] += self_s
        elif name.startswith("cones."):
            m["cones.s"] += self_s
    return m


def combine(per_command: list[dict[str, float]]) -> dict[str, float]:
    """Sum over the commands of one pass, then the ratios."""
    out = {k: 0.0 for k in ZERO}
    for m in per_command:
        for k, v in m.items():
            out[k] = max(out[k], v) if k.endswith("max_terms") else out[k] + v
    out["verify.cases_per_s"] = out["verify.cases"] / out["verify.s"] if out["verify.s"] else 0.0
    product_s = sum(out[p + ".s"] for p in PRODUCT)
    out["product.share"] = product_s / out["command_s"] if out["command_s"] else 0.0
    return out

