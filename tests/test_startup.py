"""What importing the package and the CLI does to a fresh interpreter:
``import rankmetric`` is lazy (no submodule, no numpy, no environment
change), ``import rankmetric.cli`` runs numpy with one OpenBLAS thread
unless the caller chose a count, each CLI verb imports only the modules
it runs (``nuclei``, ``autgroup`` and ``selfcheck`` are loaded by the
verbs that need them, read from ``-X importtime`` through the
benchmark's entry point ``python -m rankmetric.cli``), and the CLI's
2.75 MB ``aut`` output adds little to the process's peak memory."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankmetric

SRC = str(Path(rankmetric.__file__).resolve().parents[1])

# every name ``from rankmetric import *`` gave when the package imported
# its submodules eagerly
EXPORTS = [
    "AnsatzMismatchError", "AutTriple", "CodeParams", "DependentBasisError", "DependentSetError",
    "DimensionCollapseError", "EnumerationGuardError", "FieldSpec", "FieldTooLargeError",
    "GcdViolationError", "GtgGenerators", "HypothesisNotMetError", "LinearizedPoly", "NonPrimeError",
    "NormConditionError", "NotADivisorError", "NucleusReport", "OneNotInSError",
    "ParamError", "RankCode", "RankMetricError", "ReducibleModulusError", "ShapeMismatchError",
    "SingularMatrixError", "SpecMismatchError", "SubspaceSpec", "ThetaSet", "adjoint",
    "apply_equivalence", "aut_bruteforce", "aut_report", "autgroup", "build_gtg", "check_monomial_form",
    "errors", "field_create", "generate_known_automorphisms", "gf", "hypothesis_check", "is_mrd",
    "largest_linearity_field", "linpoly", "lp_compose", "lp_eval", "matrix_to_poly",
    "middle_nucleus_bruteforce", "middle_report", "min_distance", "normalizer_elements", "nuclei",
    "nucleus_field_structure", "poly_from_reduced", "poly_from_values", "poly_to_matrix",
    "predict_middle_nucleus", "predict_right_nucleus", "project_code", "rank_distance",
    "rank_weight_distribution", "rankcode", "reduce_mod_theta", "right_nucleus_bruteforce", "right_report",
    "roots_in_subspace", "shift_support", "smallest_containing_subfield", "subspace_poly", "theta_set",
]


def _run(args, **env):
    """Run ``python ARGS`` in a fresh interpreter with ``src`` on the path
    and OPENBLAS_NUM_THREADS unset unless given; it must exit 0."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env={**base, **env},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc


def _child(code, **env):
    """Run ``code`` as ``_run`` does; returns its JSON stdout."""
    return json.loads(_run(["-c", code], **env).stdout)


def _imported(*args):
    """The names of the modules ``python -X importtime ARGS`` imports,
    read from its stderr.  ``-X importtime`` reports a module loaded by
    an import statement, but not a submodule that ``from package import
    submodule`` loads."""
    lines = _run(["-X", "importtime", *args]).stderr.splitlines()
    names = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    assert "rankmetric.rankcode" in names, lines[-20:]
    return names


LAZY = {"rankmetric.nuclei", "rankmetric.autgroup", "rankmetric.selfcheck"}
INSTANCE = "--p 2 --e 1 --n 6 --m 3 --k 1 --s 1 --h 1".split()


CLI_THREADS = """
import json, os
import rankmetric.cli
task = "/proc/self/task"
print(json.dumps({"blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir(task)) if os.path.isdir(task) else None}))
"""


def test_cli_import_runs_numpy_with_one_openblas_thread():
    out = _child(CLI_THREADS)
    assert out["blas"] == "1"
    if out["threads"] is None:
        pytest.skip("no /proc/self/task to count OS threads in")
    assert out["threads"] == 1


def test_cli_import_keeps_the_callers_thread_count():
    assert _child(CLI_THREADS, OPENBLAS_NUM_THREADS="2")["blas"] == "2"


def test_package_import_loads_no_submodule_and_no_numpy():
    out = _child("""
import json, os, sys
before = dict(os.environ)
import rankmetric
print(json.dumps({"loaded": sorted(m for m in sys.modules if m == "numpy" or m.startswith("rankmetric.")),
                  "environ_unchanged": dict(os.environ) == before}))
""")
    assert out == {"loaded": [], "environ_unchanged": True}


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from rankmetric import *", namespace)
    assert sorted(rankmetric.__all__) == EXPORTS
    for name in EXPORTS:
        assert namespace[name] is getattr(rankmetric, name)
    assert rankmetric.field_create is rankmetric.gf.field_create
    with pytest.raises(AttributeError):
        rankmetric.no_such_name


def test_cli_import_loads_no_verb_module():
    # the sys.modules check also sees what ``from . import nuclei`` would load
    code = "import json, sys, rankmetric.cli; print(json.dumps(sorted(sys.modules)))"
    assert not LAZY & _imported("-c", code)
    assert not LAZY & set(_child(code))


@pytest.mark.parametrize("subspace", ["generic:0", "subfield:3"])
def test_construct_loads_no_nuclei_autgroup_or_selfcheck(subspace):
    assert not (LAZY | {"csv"}) & _imported("-m", "rankmetric.cli", "construct", *INSTANCE,
                                            "--subspace", subspace)


def test_nuclei_and_sweep_load_nuclei_but_not_autgroup(tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"grid": {"p": [2], "e": [1], "n": [4], "m": [2], "k": [1], "s": [1],
                                           "h": [0], "eta": ["0"], "subspace": ["generic:0"]}}))
    nuclei = _imported("-m", "rankmetric.cli", "nuclei", *INSTANCE, "--subspace", "subfield:3")
    sweep = _imported("-m", "rankmetric.cli", "sweep", "--config", str(config))
    for names in (nuclei, sweep):
        assert "rankmetric.nuclei" in names and not {"rankmetric.autgroup", "rankmetric.selfcheck"} & names
    assert "csv" in sweep and "csv" not in nuclei


def test_aut_loads_nuclei_and_autgroup():
    names = _imported("-m", "rankmetric.cli", "aut", *"--p 2 --e 1 --n 3 --m 2 --k 1 --s 1 --h 1".split())
    assert {"rankmetric.nuclei", "rankmetric.autgroup"} <= names and "rankmetric.selfcheck" not in names


def test_selfcheck_loads_its_module_and_not_a_second_cli():
    # cli runs as __main__; importing rankmetric.cli would compile and run it again
    names = _imported("-m", "rankmetric.cli", "selfcheck")
    assert "rankmetric.selfcheck" in names and "rankmetric.cli" not in names


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status to read VmHWM from")
def test_aut_output_streams_without_a_copy_of_the_group():
    # the F_{7^3}, m = 2 group: 6,156 triples and verdicts, 2.75 MB of JSON.
    # Holding the serialized group and its text grew the peak by about
    # 16 MB; the streamed output by about 4 MB.  The peak is VmHWM, which
    # starts afresh at exec: ru_maxrss keeps the launching process's peak.
    out = _child("""
import json, os, sys
import rankmetric.cli as cli

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak_kb()
stdout = sys.stdout
with open(os.devnull, "w") as sys.stdout:
    code = cli.main("aut --p 7 --e 1 --n 3 --m 2 --k 1 --s 1 --h 1 --eta nonsquare-min --subspace generic:1".split())
sys.stdout = stdout
print(json.dumps({"code": code, "growth_kb": peak_kb() - before}))
""")
    assert out["code"] == 0
    assert out["growth_kb"] < 10 * 1024, out


def test_aut_output_stage_adds_no_peak_memory():
    # the F_4, m = 2, n = 3 op that sets the aut workload's peak: 1,134
    # triples, 2 MB of JSON.  The peak of the Python allocations of the
    # writer alone (tracemalloc, reset as the write starts, the payload's
    # group already found): 219 KB when it writes in chunks of about
    # FLUSH_CHARS characters with only matrix-row texts held, 602 KB for
    # the same bytes from a writer that holds the text of every coset's B's
    # and of every distinct verdict.  Not the growth of VmHWM over the
    # write: that turns on the heap layout the search left behind, which
    # moves with the hash seed, the environment and the checkout path.
    out = _child("""
import json, os, tracemalloc
import rankmetric.cli as cli

config = {"field": {"p": 2, "e": 2, "n": 3}, "params": {"m": 2, "k": 1, "s": 1, "h": 0, "eta": "0"},
          "subspace": "generic:3"}
payload = cli._aut_payload(config)
tracemalloc.start()
with open(os.devnull, "w") as fh:
    tracemalloc.reset_peak()
    cli._json_write(payload, fh.write, "\\n")
print(json.dumps({"order": payload["summary"]["order"], "peak": tracemalloc.get_traced_memory()[1]}))
""")
    assert out["order"] == 1134
    assert out["peak"] < 300_000, out


def test_aut_holds_the_group_once():
    # the same F_{7^3}, m = 2 op under tracemalloc: the peak of the Python
    # allocations of cli.main.  A verdict dict and a fresh serialized copy
    # of A and B per triple held it at 3.58 MB; one monomial form per
    # distinct B, streamed verdicts and slotted triples at 2.43 MB.  The
    # group held as 18 members over 3 cosets of the 342 right-nucleus
    # units, with GL(2, 7) walked once and not kept, holds it at 1.16 MB:
    # the stacked solves' temporaries.  The verb's modules are imported
    # first, so compiling them stays outside the measured peak.
    out = _child("""
import json, os, sys, tracemalloc
import rankmetric.autgroup, rankmetric.nuclei
import rankmetric.cli as cli

tracemalloc.start()
stdout = sys.stdout
with open(os.devnull, "w") as sys.stdout:
    code = cli.main("aut --p 7 --e 1 --n 3 --m 2 --k 1 --s 1 --h 1 --eta nonsquare-min --subspace generic:1".split())
sys.stdout = stdout
print(json.dumps({"code": code, "peak": tracemalloc.get_traced_memory()[1]}))
""")
    assert out["code"] == 0
    assert out["peak"] < 1_400_000, out
