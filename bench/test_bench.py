"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def _shape(op):
    body = op.get("flags") or op.get("grid")
    return (op["verb"], str(body["p"]), str(body["e"]), str(body["n"]))


def _choices(op):
    body = op.get("flags") or op.get("grid")
    return (str(body["subspace"]), str(body["h"]), str(body["eta"]))


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("workload", NAMES)
def test_op_list_is_deterministic_per_seed(workload):
    for seed in (0, 1, 17, 123456):
        assert workloads.ops(workload, seed) == workloads.ops(workload, seed)
        assert run.op_command(workloads.ops(workload, seed)[0]) == \
            run.op_command(workloads.ops(workload, seed)[0])


@pytest.mark.parametrize("workload", NAMES)
def test_heldout_seed_keeps_the_mix_and_changes_the_choices(workload):
    default = workloads.ops(workload, workloads.DEFAULT_SEED)
    heldout = workloads.ops(workload, workloads.HELDOUT_SEED)
    assert [_shape(op) for op in default] == [_shape(op) for op in heldout]
    assert [_choices(op) for op in default] != [_choices(op) for op in heldout]


@pytest.mark.parametrize("workload", NAMES)
def test_every_op_any_seed_can_produce_has_an_expected_digest(workload):
    expected = run.load_expected()
    space = workloads.choice_space(workload)
    assert all(workloads.op_key(op) in expected for op in space)
    for seed in range(50):
        assert all(op in space for op in workloads.ops(workload, seed))


# Small ops, one per verb and exit code: success, invalid config (2), guard (3).
SMALL_OPS = [
    {"id": "t-aut", "verb": "aut", "flags": {"p": 2, "e": 1, "n": 4, "m": 3, "k": 1, "s": 1,
                                             "h": 0, "eta": "0", "subspace": "generic:0"}},
    # F_4 runs the generic backend, which asks enumerate_gl for GL(2, 4)
    # a second time and gets the list cached on the field spec.
    {"id": "t-aut-q4", "verb": "aut", "flags": {"p": 2, "e": 2, "n": 3, "m": 2, "k": 1, "s": 1,
                                                "h": 0, "eta": "0", "subspace": "generic:0"}},
    {"id": "t-nuclei", "verb": "nuclei", "flags": {"p": 2, "e": 1, "n": 6, "m": 3, "k": 1, "s": 1,
                                                   "h": 0, "eta": "0", "subspace": "subfield:3"}},
    {"id": "t-construct-q4", "verb": "construct", "flags": {"p": 2, "e": 2, "n": 3, "m": 2, "k": 1,
                                                            "s": 1, "h": 1, "eta": "0",
                                                            "subspace": "generic:1"}},
    {"id": "t-invalid", "verb": "construct", "flags": {"p": 2, "e": 1, "n": 4, "m": 3, "k": 1, "s": 1,
                                                       "h": 1, "eta": "nonsquare-min",
                                                       "subspace": "generic:0"}},
    {"id": "t-guard", "verb": "nuclei", "flags": {"p": 2, "e": 1, "n": 12, "m": 4, "k": 1, "s": 1,
                                                  "h": 0, "eta": "0", "subspace": "subfield:4"}},
    {"id": "t-sweep", "verb": "sweep", "grid": {"p": [3], "e": [1], "n": [3], "m": [2, 3],
                                                "k": [1, 2], "s": [1], "h": [1],
                                                "eta": ["nonsquare-min"], "subspace": ["generic:0"]}},
]


@pytest.fixture(scope="module")
def traced_runs():
    run.prepare(SMALL_OPS)
    env = run.child_env()
    out = []
    for op in SMALL_OPS:
        plain = subprocess.run(run.op_command(op), env=env, cwd=run.ROOT, capture_output=True)
        spans = run.WORK / f"test-{op['id']}.spans.json"
        traced = subprocess.run(run.op_command(op, spans), env=env, cwd=run.ROOT,
                                capture_output=True)
        out.append((op, plain, traced, json.loads(spans.read_text())))
    return out


def test_wrappers_leave_behaviour_unchanged(traced_runs):
    codes = set()
    for op, plain, traced, _ in traced_runs:
        assert (traced.returncode, traced.stdout, traced.stderr) == \
            (plain.returncode, plain.stdout, plain.stderr), op["id"]
        codes.add(plain.returncode)
    assert codes == {0, 2, 3}


def test_spans_nest_and_count_the_layers(traced_runs):
    by_id = {op["id"]: trace for op, _, _, trace in traced_runs}
    for trace in by_id.values():
        for name, start, end, parent in trace["spans"]:
            assert start <= end
            if parent >= 0:
                _, pstart, pend, _ = trace["spans"][parent]
                assert pstart <= start and end <= pend
    aut = run.layer_values(by_id["t-aut"])
    assert aut["autgroup.gl_enumerated"] == 168          # |GL(3, 2)|
    assert aut["autgroup.gl_tested"] == 2 ** 9
    assert aut["autgroup.solves"] >= 168 and aut["rankcode.codewords"] == 0
    aut_q4 = run.layer_values(by_id["t-aut-q4"])
    assert aut_q4["autgroup.gl_enumerated"] == 180       # |GL(2, 4)|, cached replay not counted
    assert aut_q4["autgroup.gl_tested"] == 4 ** 4
    sweep = run.layer_values(by_id["t-sweep"])
    assert sweep["rankcode.codewords"] > 0 and sweep["autgroup.gl_tested"] == 0


def test_every_emitted_metric_is_declared(traced_runs):
    samples = {}
    for op, plain, traced, trace in traced_runs:
        rec = samples.setdefault(op["id"], {"wall": [1.0], "cpu": [1.0], "traced_wall": [1.5],
                                            "cli.output_bytes": [len(traced.stdout)],
                                            "cli.sweep_cells": [0]})
        for name, value in run.layer_values(trace).items():
            rec[name] = [value]
    per_layer = run.per_layer_metrics(samples)
    e2e, _ = run.end_to_end_metrics({k: {"wall": v["wall"], "cpu": v["cpu"]}
                                     for k, v in samples.items()}, [0.5, 0.6])
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in per_layer.items()} == declared
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_, u) in e2e.items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    for name in ("run.py", "workloads.py", "expected.json", "trace_cli.py"):
        (tmp_path / "bench").mkdir(exist_ok=True)
        (tmp_path / "bench" / name).write_bytes((run.BENCH / name).read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "census", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""
