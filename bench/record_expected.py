#!/usr/bin/env python3
"""Record expected.json: the exit code and output SHA-256 of every op
any seed can produce (``workloads.choice_space``).

Run it only on a commit whose outputs are trusted, from the repository
root:  python3 bench/record_expected.py
Ops run one at a time, as in the benchmark, and each op's wall and CPU
time is printed, so the cost spread inside a slot shows.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    expected = {}
    env = run.child_env()
    op_list = [op for name in sorted(workloads.WORKLOADS) for op in workloads.choice_space(name)]
    run.prepare(op_list)
    for op in op_list:
        wall, cpu, code, out, _ = run.run_child(run.op_command(op), env)
        if code is None:
            sys.stderr.write(f"{op['id']} timed out\n")
            return 1
        expected[workloads.op_key(op)] = {"exit": code,
                                          "sha256": hashlib.sha256(out).hexdigest()}
        body = op.get("flags") or op.get("grid")
        print(f"{op['id']} {wall:6.2f}s cpu {cpu:6.2f}s exit={code} bytes={len(out)} "
              f"{body['subspace']} h={body['h']} eta={body['eta']}", flush=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
