"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that the harness catches what it is meant to catch:

1. one deliberately wrong recorded digest makes a run of power_uncapped
   report exactly one failed command out of those attempted, and exit 1;
2. a traced `mul [2,1] [2,1]` prints what the untraced command prints and
   records exactly one product.mul call;
3. self times split overlapping pool-worker spans and add up to the
   command span, and a doubly wrapped call is flagged;
4. every seed runs the same commands, and the cache sweep keeps its order.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import spans as layers


def wrong_digest_is_caught() -> list[str]:
    expected = json.loads(run.EXPECTED.read_text())["commands"]
    expected["mul [4,3,2,1] [4,3,2,1]"] = dict(expected["mul [4,3,2,1] [4,3,2,1]"], sha256="0" * 64)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "power_uncapped", "--seed", "0", "--seconds", "1"], expected)
    result = json.loads(out.getvalue().splitlines()[-1])
    want = run.SETUP_STARTS + len(run.POWER_UNCAPPED)
    if (code, result["failed"], result["attempted"], result["correct"]) != (1, 1, want, False):
        return [f"wrong digest: exit {code}, {result['failed']}/{result['attempted']} failed, "
                f"expected exit 1 and 1/{want}"]
    return []


def traced_mul_counts_one_call() -> list[str]:
    env = run.child_env()
    cmd = ("mul", "[2,1]", "[2,1]")
    run.TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.TMP))
    try:
        plain = run.run_child([sys.executable, "-m", "lrlab"], cmd, workdir, env)
        path = workdir / "spans.json"
        traced = run.run_child([sys.executable, str(run.HERE / "tracechild.py"), str(path)],
                               cmd, workdir, env)
        spans = json.loads(path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.TMP.rmdir()
    problems = []
    if (traced.code, traced.stdout) != (plain.code, plain.stdout):
        problems.append("tracing changed the output of mul [2,1] [2,1]")
    own = layers.self_times(spans)
    problems += layers.check(spans, own)
    calls = layers.combine([layers.layer_metrics(spans, own)])["product.mul.calls"]
    if calls != 1:
        problems.append(f"traced mul [2,1] [2,1] counted {calls} product.mul calls")
    return problems


def self_times_split_overlap() -> list[str]:
    # root 0..10 > verify 1..9 > two pool workers' mul spans 2..6 and 4..8
    spans = [
        [0, "cli.main", -1, 0.0, 10.0, None],
        [1, "verify.verify_lemma", 0, 1.0, 9.0, ["MULT_PLUS", 5]],
        [2, "product.mul", 1, 2.0, 6.0, 3],
        [3, "product.mul", 1, 4.0, 8.0, 3],
    ]
    own = layers.self_times(spans)
    problems = []
    if own != {0: 2.0, 1: 2.0, 2: 3.0, 3: 3.0}:
        problems.append(f"self times of overlapping spans: {own}")
    problems += layers.check(spans, own)
    twice = spans[:2] + [[2, "product.mul", 1, 2.0, 6.0, 3], [3, "product.mul", 2, 3.0, 5.0, 3]]
    if not any("wrapped twice" in p for p in layers.check(twice, layers.self_times(twice))):
        problems.append("a doubly wrapped product.mul was not flagged")
    return problems


def seeds_keep_the_work() -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        base = run.commands(workload, 0)
        for seed in (1, 2, 3):
            cmds = run.commands(workload, seed)
            if sorted(cmds) != sorted(base):
                problems.append(f"seed {seed} changes the commands of {workload}")
            if workload == "power_sweep_cached" and cmds[: len(run.SWEEP_BUILD)] != base[: len(run.SWEEP_BUILD)]:
                problems.append(f"seed {seed} reorders the cache build of {workload}")
    return problems


def main() -> int:
    problems = []
    for test in (seeds_keep_the_work, self_times_split_overlap, traced_mul_counts_one_call,
                 wrong_digest_is_caught):
        found = test()
        print(f"{'FAIL' if found else 'ok  '} {test.__name__}")
        problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
