"""Cold-process benchmark of the lrlab command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of `python -m lrlab ...` commands. Each command
runs in a fresh process against this checkout's `src`, which is how users
run the tool, and is timed from outside: wall time around the child, CPU
time and peak RSS from its `os.wait4` rusage. Every child's exit code and
stdout SHA-256 are checked against expected.json (recorded by record.py),
and every capped `power` output also against the dimension identity
sum(m * dim(c, d)) == dim(a, d)^n. A command that fails either check counts
in `failed`; the run still reports its timings and then exits 1.

Passes over the list repeat until --seconds is used up. End-to-end figures
are medians over passes; setup_s is the median cold start of a no-op
command. --trace 1 instead runs half the time untraced and half through
tracechild.py, and reports per-layer figures (medians over traced passes,
see spans.py) and the tracing overhead.

--seed 0 runs the commands in the order listed below; any other seed
shuffles, reproducibly, the commands whose output does not depend on their
order. The work is the same for every seed.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records where the numbers came from.
Exit code 2 means the benchmark could not run at all (no lrlab source here).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import spans as layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

CACHE = "sweep.lrpow"
NOOP = ("dominance", "[1]", "[1]")
SETUP_STARTS = 20
CHILD_TIMEOUT_S = 150

VERIFY_SWEEP = [
    "verify --all",
    "verify --all --json --threads 2",
    "verify --lemma MULT_PLUS --max-weight 8",
    "verify --lemma PSEQ --max-weight 12",
    "verify --lemma SMALLER --max-weight 8",
]
POWER_UNCAPPED = [
    "power [3,1] 8",
    "power [3,2,1] 5 --json",
    "mul [4,3,2,1] [4,3,2,1]",
]
# one incremental power step per process, each loading and rewriting the cache
SWEEP_BUILD = [f"power [4,2,1] {n} --l 4 --cache {CACHE}" for n in range(1, 15)]
SWEEP_READS = [f"power [4,2,1] {n} --l 4 --cache {CACHE} --json" for n in (14, 10, 5)]
SWEEP_TAIL = [
    f"cache {CACHE}",
    "nsearch [2,1] --l 3 --nmax 30",
    "transfer [3,1] [2,2] --d 3",
    "cone [6,6,6] [3,2,1] --l 3",
]
WORKLOADS = ("verify_sweep", "power_uncapped", "power_sweep_cached")


def commands(workload: str, seed: int) -> list[tuple[str, ...]]:
    rng = random.Random(seed)

    def order(texts: list[str]) -> list[str]:
        texts = list(texts)
        if seed:
            rng.shuffle(texts)
        return texts

    if workload == "verify_sweep":
        texts = order(VERIFY_SWEEP)
    elif workload == "power_uncapped":
        texts = order(POWER_UNCAPPED)
    else:
        texts = SWEEP_BUILD + order(SWEEP_READS) + order(SWEEP_TAIL)
    return [tuple(t.split()) for t in texts]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LRLAB_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    cmd: tuple[str, ...]
    wall: float
    cpu: float
    rss_kb: int
    code: int
    stdout: bytes
    stderr: bytes
    problem: str | None = None
    layer: dict[str, float] | None = None


def run_child(prefix: list[str], cmd: tuple[str, ...], cwd: Path, env: dict[str, str]) -> Child:
    out_path, err_path = cwd / "stdout", cwd / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [*prefix, *cmd], cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(cmd, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, proc.returncode,
                 out_path.read_bytes(), err_path.read_bytes())


def gl_dimension(parts: list[int], d: int) -> int:
    """Hook content formula, kept apart from lrlab's own so it checks it."""
    if len(parts) > d:
        return 0
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    num = den = 1
    for i, row in enumerate(parts):
        for j in range(row):
            num *= d + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den


def _partition(text: str) -> list[int]:
    inner = text.strip()[1:-1]
    return [int(p) for p in inner.split(",")] if inner else []


def dimension_problem(cmd: tuple[str, ...], stdout: bytes) -> str | None:
    """sum(m * dim(c, d)) == dim(a, d)^n for `power a n --l d`."""
    a, n, d = _partition(cmd[1]), int(cmd[2]), int(cmd[cmd.index("--l") + 1])
    text = stdout.decode()
    if "--json" in cmd:
        terms = [(t["partition"], int(t["mult"])) for t in json.loads(text)["terms"]]
    else:
        terms = [(_partition(p), int(m)) for p, m in
                 (line.rsplit(" ", 1) for line in text.splitlines() if line != "empty")]
    total = sum(m * gl_dimension(c, d) for c, m in terms)
    want = gl_dimension(a, d) ** n
    return None if total == want else f"dimension identity: {total} != {want}"


def problem_of(child: Child, expected: dict) -> str | None:
    exp = expected.get(" ".join(child.cmd))
    if exp is None:
        return "no expected digest recorded"
    if child.code != exp["exit"]:
        return f"exit code {child.code}, expected {exp['exit']}"
    if hashlib.sha256(child.stdout).hexdigest() != exp["sha256"]:
        return "stdout differs from the recorded digest"
    if child.cmd[0] == "power" and "--l" in child.cmd:
        return dimension_problem(child.cmd, child.stdout)
    return None


def run_pass(cmds, env, expected, traced: bool) -> list[Child]:
    """All commands once, in a fresh working directory that is deleted after."""
    workdir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        done = []
        for i, cmd in enumerate(cmds):
            spans_path = workdir / f"spans{i}.json"
            prefix = ([sys.executable, str(HERE / "tracechild.py"), str(spans_path)]
                      if traced else [sys.executable, "-m", "lrlab"])
            child = run_child(prefix, cmd, workdir, env)
            child.problem = problem_of(child, expected)
            if traced and child.problem is None:
                spans = json.loads(spans_path.read_text())
                own = layers.self_times(spans)
                issues = layers.check(spans, own)
                if issues:
                    child.problem = "trace: " + "; ".join(issues[:3])
                else:
                    child.layer = layers.layer_metrics(spans, own)
            done.append(child)
        return done
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_passes(cmds, env, expected, deadline: float, traced: bool) -> list[list[Child]]:
    """Passes until the next one would likely end past the deadline; at least one."""
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(cmds, env, expected, traced))
        now = perf_counter()
        if now + (now - t0) / len(passes) > deadline:
            return passes


class SetupError(Exception):
    pass


def check_import(env) -> None:
    """Children must import this checkout's lrlab; this also fills its bytecode cache."""
    workdir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        got = subprocess.run(
            [sys.executable, "-c", "import lrlab.cli; print(lrlab.__file__)"],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    want = (SRC / "lrlab" / "__init__.py").resolve()
    if got.returncode != 0 or Path(got.stdout.strip()).resolve() != want:
        raise SetupError(f"children do not import {want}: {got.stdout.strip()} {got.stderr.strip()}")


def provenance(args, load1: float) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lrlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "git_dirty": dirty,
        "src_sha256": digest.hexdigest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_1m": load1,
    }


def end_to_end(passes, setup: list[Child]) -> dict[str, float]:
    everything = setup + [c for p in passes for c in p]
    return {
        "wall_s": median(sum(c.wall for c in p) for p in passes),
        "cpu_s": median(sum(c.cpu for c in p) for p in passes),
        "peak_rss_mb": max(c.rss_kb for c in everything) / 1024,
        "setup_s": median(c.wall for c in setup),
        "pass_ratio": sum(c.problem is None for c in everything) / len(everything),
    }


def per_layer(plain, traced) -> dict[str, float]:
    per_pass = [layers.combine([c.layer for c in p if c.layer is not None]) for p in traced]
    out = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
    out["trace.overhead"] = (median(sum(c.wall for c in p) for p in traced)
                             / median(sum(c.wall for c in p) for p in plain))
    return out


def main(argv: list[str] | None = None, expected: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lrlab" / "__init__.py").is_file():
        print(f"error: no lrlab source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if expected is None:
        expected = json.loads(EXPECTED.read_text())["commands"]
    load1 = os.getloadavg()[0]
    cmds = commands(args.workload, args.seed)
    env = child_env()
    TMP.mkdir(exist_ok=True)
    start = perf_counter()
    try:
        check_import(env)
        if args.trace:
            plain = run_passes(cmds, env, expected, start + args.seconds / 2, traced=False)
            traced = run_passes(cmds, env, expected, start + args.seconds, traced=True)
            values, wanted = per_layer(plain, traced), spec["per_layer"]
            passes = plain + traced
            children = [c for p in passes for c in p]
        else:
            setup = run_pass([NOOP] * SETUP_STARTS, env, expected, traced=False)
            passes = run_passes(cmds, env, expected, start + args.seconds, traced=False)
            values, wanted = end_to_end(passes, setup), spec["end_to_end"]
            children = setup + [c for p in passes for c in p]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            TMP.rmdir()
    stray = sorted(str(p) for p in ROOT.rglob("*.lrpow"))
    if stray:
        print(f"error: power cache files appeared inside the repository: {stray}", file=sys.stderr)
        return 2

    failed = [c for c in children if c.problem is not None]
    for c in failed[:10]:
        print(f"FAIL {' '.join(c.cmd)}: {c.problem}\n{c.stderr.decode()[-500:]}", file=sys.stderr)
    info = provenance(args, load1)
    info.update(pass_wall_s=[round(sum(c.wall for c in p), 4) for p in passes],
                fail_ratio=f"{len(failed)}/{len(children)}")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
