"""Output bytes against the benchmark's recorded digests: a few ops of
``bench/workloads.py``'s ``choice_space`` (sweeps over F_2, F_3 and F_4,
every construct and nuclei slot, and the first choice of every aut slot: F_2
at n = 6 and 5, F_5, F_7, F_3 and F_4) run in-process, and each exit
code and stdout SHA-256 must equal its entry in ``bench/expected.json``.
A change that moves output bytes then fails here as well as in the
benchmark.  The bench files are only read, never written."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rankmetric.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))

# (workload, op id): the first choice of the slot; census-00, -01 and -03
# are sweeps over F_2 (m up to 5, the middle systems packed into
# ``BitField`` words), F_3 and F_4 (``TableField``), field-scale-00 to -04
# constructs over F_(2^14), F_(2^17) and F_(2^20) (the last two by trinomial
# moduli, above the table limit), F_17 and F_(257^2), field-scale-05 nuclei
# over F_(2^10), field-scale-06 the exit-3 subfield:4 nuclei op over
# F_(2^12), and aut-exhaustive-00 to -05 the aut ops over F_(2^6), F_(2^5), F_(5^3),
# F_(7^3) (the largest output, 2.75 MB), F_(3^4) and F_(4^3)
OPS = [("census", "census-00"), ("census", "census-01"), ("census", "census-03"),
       *(("field-scale", f"field-scale-{i:02d}") for i in range(7)),
       *(("aut-exhaustive", f"aut-exhaustive-{i:02d}") for i in (5, 3, 0, 1, 2, 4))]


@pytest.mark.parametrize("workload, op_id", OPS, ids=[op_id for _, op_id in OPS])
def test_output_matches_the_recorded_digest(tmp_path, capsys, workload, op_id):
    op = next(op for op in WORKLOADS.choice_space(workload) if op["id"] == op_id)
    config = tmp_path / "grid.json"
    if op["verb"] == "sweep":
        config.write_text(WORKLOADS.config_text(op), encoding="utf-8")
    code = main(WORKLOADS.argv(op, str(config)))
    out = capsys.readouterr().out.encode()
    assert {"exit": code, "sha256": hashlib.sha256(out).hexdigest()} == EXPECTED[WORKLOADS.op_key(op)]
