#!/usr/bin/env python3
"""End-to-end benchmark of the rankmetric command line.

Usage (from the repository root):

    python3 bench/run.py --workload census --seed 0 --seconds 40 --trace 0

One client runs a closed loop: each op is one CLI invocation in a fresh
child (``python -m rankmetric.cli ...`` with ``src`` on PYTHONPATH), and
the next op starts only when the last one has exited.  A run repeats
whole passes over the workload's op list while another pass still fits
in ``--seconds``.  Every op's exit code and SHA-256 of its output is
compared with ``expected.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each op also runs under ``trace_cli.py`` and the
line carries the per-layer metrics.  See README.md for definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected.json"
SETUP_REPEATS = 7
# Ops take seconds; a child still running after this is killed, the op
# counts as failed and the run ends, so a hung op cannot stretch a run.
OP_TIMEOUT_S = 60

# Per-layer metrics computed from the trace.  Self time ("<span>.s") is a
# span's duration minus the time covered by its child spans.
SPAN_SELF = ["gf.field_create", "linalg.modp_rref", "linalg.generic_rref",
             "linpoly.subspace_poly", "linpoly.reduce_mod_theta", "linpoly.matrix_to_poly",
             "rankcode.project_code", "rankcode.rank_weight_distribution",
             "nuclei.bruteforce", "nuclei.closed_form", "nuclei.spans_equal",
             "nuclei.field_structure", "nuclei.report",
             "autgroup.aut_bruteforce", "autgroup.enumerate_gl", "autgroup.report",
             "cli.verb", "cli.resolve_instance", "cli.emit"]
SPAN_CALLS = ["gf.field_create", "linalg.modp_rref", "linalg.generic_rref",
              "linpoly.reduce_mod_theta"]
COUNTS = ["gf.modulus_candidates", "gf.mul.calls", "gf.mul.untabled_calls",
          "gf.add.calls", "gf.add.untabled_calls", "gf.pow.calls", "gf.inv.calls",
          "linalg.modp_rref.rows", "rankcode.codewords", "nuclei.span_elements",
          "autgroup.gl_tested", "autgroup.gl_enumerated", "autgroup.solves",
          "autgroup.useful_solves", "autgroup.order"]
# Samples that feed the ratios above but are not reported themselves.
HELPER_SAMPLES = {"wall", "cpu", "traced_wall", "autgroup.useful_solves",
                  "rankcode.rank_weight_distribution.incl_s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list, env: dict):
    """Run one child to completion.  Returns (wall_s, cpu_s, exit_code,
    stdout_bytes, stderr_bytes); exit_code is None after a timeout."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = None, exc.stdout or b"", b"timeout"
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, code, out, err


def op_command(op: dict, traced_spans: Path = None) -> list:
    args = workloads.argv(op, str(config_path(op)))
    if traced_spans is None:
        return [sys.executable, "-m", "rankmetric.cli", *args]
    return [sys.executable, str(BENCH / "trace_cli.py"), str(traced_spans), op["id"], "--", *args]


def config_path(op: dict) -> Path:
    return WORK / f"{workloads.op_key(op)}.json"


def prepare(op_list: list) -> None:
    WORK.mkdir(exist_ok=True)
    for op in op_list:
        if op["verb"] == "sweep":
            config_path(op).write_text(workloads.config_text(op))


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def check(op: dict, code, out: bytes, err: bytes, expected: dict) -> bool:
    want = expected.get(workloads.op_key(op))
    got = {"exit": code, "sha256": hashlib.sha256(out).hexdigest()}
    if want is not None and want["exit"] == got["exit"] and want["sha256"] == got["sha256"]:
        return True
    tail = err.decode(errors="replace").strip().splitlines()[-1:] if err else []
    sys.stderr.write(f"op {op['id']} mismatch: expected {want}, got {got} {tail}\n")
    return False


def median(values):
    return statistics.median(values) if values else 0.0


def layer_values(trace: dict) -> dict:
    """Per-layer values of one traced op."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    selfs, incl, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    spanned = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        selfs[name] += end - start - covered[i]
        incl[name] += end - start
        calls[name] += 1
        if parent < 0:
            spanned += end - start
    out = {f"{name}.s": selfs[name] for name in SPAN_SELF}
    out.update({f"{name}.calls": calls[name] for name in SPAN_CALLS})
    out.update({name: trace["counts"].get(name, 0) for name in COUNTS})
    out["rankcode.rank_weight_distribution.incl_s"] = incl["rankcode.rank_weight_distribution"]
    out["trace.spanned_s"] = spanned
    return out


def ratio(num, den):
    return num / den if den else 0.0


def measure(op_list: list, seconds: float, traced: bool, expected: dict, env: dict):
    """Closed loop over whole passes.  Returns per-op samples."""
    samples = {op["id"]: defaultdict(list) for op in op_list}
    counts = {"attempted": 0, "failed": 0}

    def timed(op, spans_path=None):
        wall, cpu, code, out, err = run_child(op_command(op, spans_path), env)
        counts["attempted"] += 1
        counts["failed"] += not check(op, code, out, err, expected)
        return wall, cpu, code, out

    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for op in op_list:
            rec = samples[op["id"]]
            wall, cpu, code, _ = timed(op)
            rec["wall"].append(wall)
            rec["cpu"].append(cpu)
            if traced and code is not None:
                spans_path = WORK / f"{op['id']}.spans.json"
                wall, _, code, out = timed(op, spans_path)
                rec["traced_wall"].append(wall)
                rec["cli.output_bytes"].append(len(out))
                rec["cli.sweep_cells"].append(out.count(b"\n") - 1 if op["verb"] == "sweep" else 0)
                if code is not None:
                    for name, value in layer_values(json.loads(spans_path.read_text())).items():
                        rec[name].append(value)
            if code is None:
                return samples, counts["attempted"], counts["failed"], passes
        passes += 1
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return samples, counts["attempted"], counts["failed"], passes


def per_pass(samples: dict, name: str) -> float:
    """Sum over the ops of a pass of each op's median value."""
    return sum(median(rec[name]) for rec in samples.values())


def end_to_end_metrics(samples: dict, setup: list) -> tuple:
    """End-to-end metrics, plus op latencies for the info line: the
    typical op (median of the per-op medians) and the slowest op."""
    op_medians = [median(rec["wall"]) for rec in samples.values()]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (median(setup), "s"),
        "pass_s": (per_pass(samples, "wall"), "s"),
        "pass_cpu_s": (per_pass(samples, "cpu"), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    info = {"op_p50_s": median(op_medians), "op_tail_s": max(op_medians),
            "op_samples": sum(len(rec["wall"]) for rec in samples.values())}
    return metrics, info


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "bytes" if name == "cli.output_bytes" else "count"


def per_layer_metrics(samples: dict) -> dict:
    names = {name for rec in samples.values() for name in rec} - HELPER_SAMPLES
    metrics = {name: (per_pass(samples, name), _unit(name)) for name in names}

    def per_pass_ratio(num, den):
        return ratio(per_pass(samples, num), per_pass(samples, den))

    metrics["rankcode.codewords_per_s"] = (per_pass_ratio(
        "rankcode.codewords", "rankcode.rank_weight_distribution.incl_s"), "1/s")
    metrics["autgroup.gl_yield"] = (
        per_pass_ratio("autgroup.gl_enumerated", "autgroup.gl_tested"), "ratio")
    metrics["autgroup.useful_solve_ratio"] = (
        per_pass_ratio("autgroup.useful_solves", "autgroup.solves"), "ratio")
    metrics["trace.overhead"] = (per_pass_ratio("traced_wall", "wall"), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rankmetric" / "cli.py").is_file():
        sys.stderr.write(f"benchmark: no program source at {SRC / 'rankmetric'}\n")
        return 2
    expected = load_expected()
    env = child_env()
    op_list = workloads.ops(args.workload, args.seed)
    prepare(op_list)

    # The first import compiles bytecode once per checkout; users do not
    # pay that on every run, so it stays out of setup_s.
    import_cmd = [sys.executable, "-c", "import rankmetric.cli"]
    warm = run_child(import_cmd, env)
    if warm[2] != 0:
        sys.stderr.write(warm[4].decode(errors="replace"))
        return 2
    setup = [] if args.trace else [run_child(import_cmd, env)[0] for _ in range(SETUP_REPEATS)]

    samples, attempted, failed, passes = measure(op_list, args.seconds, bool(args.trace),
                                                 expected, env)
    if args.trace:
        metrics, info = per_layer_metrics(samples), {}
    else:
        metrics, info = end_to_end_metrics(samples, setup)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, passes=passes,
                ops_per_pass=len(op_list), fail_frac=failed / attempted)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
