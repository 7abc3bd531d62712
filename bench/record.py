"""Record the expected exit code and stdout digest of every benchmark command.

    python3 bench/record.py

Runs each workload's commands once, in the order of seed 0, against this
checkout's `src`, and writes bench/expected.json. Run it only at a commit
whose outputs are known to be right: the benchmark treats any later
difference as a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys

import run


def main() -> int:
    env = run.child_env()
    run.TMP.mkdir(exist_ok=True)
    recorded = {}
    try:
        run.check_import(env)
        for workload in run.WORKLOADS:
            cmds = [run.NOOP] + run.commands(workload, 0)
            for child in run.run_pass(cmds, env, {}, traced=False):
                recorded[" ".join(child.cmd)] = {
                    "exit": child.code,
                    "sha256": hashlib.sha256(child.stdout).hexdigest(),
                    "bytes": len(child.stdout),
                }
    finally:
        with contextlib.suppress(OSError):
            run.TMP.rmdir()
    run.EXPECTED.write_text(json.dumps({"commands": recorded}, indent=1) + "\n")
    print(f"recorded {len(recorded)} commands in {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
