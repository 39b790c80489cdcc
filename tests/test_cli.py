import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rankmetric
from rankmetric.cli import main

SRC = str(Path(rankmetric.__file__).resolve().parents[1])


def run(args):
    return main(args)


# the two ways to start the command: the module, and what the ``rankmetric``
# console script runs
LAUNCHERS = {"module": ["-m", "rankmetric.cli"],
             "script": ["-c", "import sys; from rankmetric.cli import run; sys.exit(run())"]}


def _child(args, launcher="module"):
    """The command line and environment of a child running the command."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return [sys.executable, *LAUNCHERS[launcher], *args], env


def test_construct_writes_code(tmp_path, capsys):
    out = tmp_path / "code.json"
    rc = run(["construct", "--p", "3", "--e", "1", "--n", "4", "--m", "3",
              "--k", "1", "--s", "1", "--h", "1", "--eta", "nonsquare-min",
              "--subspace", "generic:0", "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert len(blob["code"]["basis"]) == 4  # nk = 4 basis matrices
    assert blob["code"]["q"] == 3
    assert blob["field"]["p"] == 3


def test_construct_rejects_q2_twist(capsys):
    rc = run(["construct", "--p", "2", "--e", "1", "--n", "4", "--m", "3",
              "--k", "1", "--s", "1", "--h", "1", "--eta", "digits:1,1,0,0",
              "--output", "-"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "norm" in err.lower()


def test_construct_rejects_k_ge_m(capsys):
    rc = run(["construct", "--p", "3", "--e", "1", "--n", "4", "--m", "2",
              "--k", "2", "--s", "1", "--eta", "0", "--output", "-"])
    assert rc == 2


def test_guard_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "field": {"p": 2, "e": 1, "n": 6},
        "params": {"m": 5, "k": 3, "s": 1, "h": 0, "eta": "0"},
        "subspace": "generic:0",
        "tasks": ["mrd"],
        "guards": {"max_codewords": 64},
    }))
    rc = run(["construct", "--config", str(cfg), "--output", "-"])
    assert rc == 3


# each field is too large, and costly to check any other way: trial
# division of a prime near 10^18, building 3^(2*10^8), printing 2^(10^8)
@pytest.mark.parametrize("p, e, n", [("1000000000000000003", "1", "1"), ("3", "1", "200000000"),
                                     ("2", "100000000", "1")])
def test_huge_field_exits_3_at_once(capsys, p, e, n):
    start = time.perf_counter()
    rc = run(["construct", "--p", p, "--e", e, "--n", n, "--m", "2", "--k", "1", "--s", "1"])
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    assert capsys.readouterr().err == f"guard: q^n = {p}^({e} * {n}) exceeds the guard {2 ** 24}\n"


def test_nuclei_subfield_preset(tmp_path):
    out = tmp_path / "nuc.json"
    rc = run(["nuclei", "--p", "2", "--e", "1", "--n", "6", "--m", "3",
              "--k", "1", "--s", "1", "--h", "0", "--eta", "0",
              "--subspace", "subfield:3", "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["middle"]["order"] == 8
    assert blob["middle"]["agree"] is True
    assert blob["right"]["order"] == 4096
    assert blob["right"]["agree"] is True
    assert blob["right"]["r"] == 2


def test_nuclei_open_case(tmp_path):
    out = tmp_path / "open.json"
    rc = run(["nuclei", "--p", "3", "--e", "1", "--n", "5", "--m", "4",
              "--k", "2", "--s", "1", "--h", "1", "--eta", "nonsquare-min",
              "--subspace", "generic:0", "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["right"]["flags"]["open_case"] is True
    assert "predicted_order" not in blob["right"]


def test_nuclei_disagreement_is_reported_not_fatal(tmp_path):
    # the degenerate twist h = s k, k = 1: brute force beats the closed form
    out = tmp_path / "deg.json"
    rc = run(["nuclei", "--p", "3", "--e", "1", "--n", "4", "--m", "3",
              "--k", "1", "--s", "1", "--h", "1", "--eta", "nonsquare-min",
              "--subspace", "generic:0", "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["right"]["agree"] is False
    assert blob["right"]["order"] == 81
    assert blob["right"]["predicted_order"] == 3


def test_aut_tiny(tmp_path):
    out = tmp_path / "aut.json"
    rc = run(["aut", "--p", "2", "--e", "1", "--n", "3", "--m", "2",
              "--k", "1", "--s", "1", "--h", "0", "--eta", "0",
              "--subspace", "generic:0", "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["summary"]["order"] == len(blob["triples"]) > 0
    identity = {"A": [[1, 0], [0, 1]],
                "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "rho": 0}
    assert identity in blob["triples"]
    assert blob["summary"]["monomial_fraction"] == 1.0


def test_sweep_empty_grid(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {}}))
    rc = run(["sweep", "--config", str(cfg), "--output", "-"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("p,e,n,m,k,s,h,eta,subspace")


def test_sweep_rows_and_determinism(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "p": [3], "e": [1], "n": [4], "m": [3], "k": [1], "s": [1],
        "h": [1, 2], "eta": ["0", "nonsquare-min"], "subspace": ["generic:0"],
    }}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(["sweep", "--config", str(cfg), "--output", str(out1)]) == 0
    assert run(["sweep", "--config", str(cfg), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert all(line.endswith(",") or "Error" not in line for line in lines[1:])


def test_sweep_open_case_has_blank_predictions(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "p": [3], "e": [1], "n": [5], "m": [4], "k": [2], "s": [1],
        "h": [1], "eta": ["nonsquare-min"], "subspace": ["generic:0"],
    }}))
    out = tmp_path / "open.csv"
    assert run(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["nr_pred"] == "" and cols["open_case"] == "True"
    assert cols["error"] == ""


def test_sweep_invalid_row_keeps_going(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "p": [2], "e": [1], "n": [4], "m": [3], "k": [1], "s": [1],
        "h": [1], "eta": ["digits:1,0,0,0", "0"], "subspace": ["generic:0"],
    }}))
    out = tmp_path / "err.csv"
    assert run(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
    import csv
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    by_eta = {r["eta"]: r for r in rows}
    assert by_eta["0"]["error"] == "" and by_eta["0"]["mrd"] == "True"
    assert "NormConditionError" in by_eta["digits:1,0,0,0"]["error"]


def test_construct_determinism(tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    args = ["construct", "--p", "2", "--e", "1", "--n", "6", "--m", "3",
            "--k", "1", "--s", "1", "--h", "0", "--eta", "0",
            "--subspace", "subfield:3"]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_selfcheck(capsys):
    assert run(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_construct_mrd_task_emits_rank_weights(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "field": {"p": 3, "e": 1, "n": 4},
        "params": {"m": 3, "k": 1, "s": 1, "h": 2, "eta": "nonsquare-min"},
        "subspace": "generic:0",
        "tasks": ["mrd"],
    }))
    out = tmp_path / "code.json"
    assert run(["construct", "--config", str(cfg), "--output", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["mrd"]["is_mrd"] is True and blob["mrd"]["d"] == 3
    assert blob["mrd"]["rank_weights"] == [1, 0, 0, 80]


def test_explicit_subspace_elements(tmp_path):
    # elems: explicit digit vectors (1, x, x^2 in the modulus power basis
    # are always F_p-independent)
    out = tmp_path / "code.json"
    rc = run(["construct", "--p", "3", "--e", "1", "--n", "4", "--m", "3",
              "--k", "1", "--s", "1", "--h", "0", "--eta", "0",
              "--subspace", "elems:1,0,0,0;0,1,0,0;0,0,1,0",
              "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["subspace"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "field": {"p": 3, "e": 1, "n": 4},
        "params": {"m": 3, "k": 1, "s": 1, "h": 1, "eta": "0"},
        "subspace": "generic:0",
    }))
    out = tmp_path / "code.json"
    assert run(["construct", "--config", str(cfg), "--h", "2",
                "--eta", "nonsquare-min", "--output", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["params"]["h"] == 2
    assert blob["params"]["eta"] != [0, 0, 0, 0]


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = run(["construct", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


SMALL_INSTANCE = {"field": {"p": 3, "e": 1, "n": 3},
                  "params": {"m": 2, "k": 1, "s": 1, "h": 0, "eta": "0"}}
WRONG_SECTIONS = [{"field": 5}, {"params": "x"}, {"guards": 5}, {"output": "x"}, {"tasks": 5}]


@pytest.mark.parametrize("text", ['{"field": {"p": 3,', '[3, 1, 4]']
                         + [json.dumps({**SMALL_INSTANCE, **bad}) for bad in WRONG_SECTIONS],
                         ids=["truncated", "not-an-object"]
                         + [f"{next(iter(bad))}-wrong-type" for bad in WRONG_SECTIONS])
def test_malformed_config_file_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    rc = run(["nuclei", "--config", str(cfg)])
    assert rc == 2
    assert "invalid configuration: ParamError" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, args", [
    ("field", "p", []),
    ("params", "m", []),
    ("guards", "max_codewords", []),
    ("field", "modulus", ["--modulus", "1,x,0,0,1"]),
])
def test_non_integer_config_value_exits_2(tmp_path, capsys, section, key, args):
    config = {
        "field": {"p": 3, "e": 1, "n": 4},
        "params": {"m": 3, "k": 1, "s": 1, "h": 0, "eta": "0"},
        "tasks": ["mrd"],
        "guards": {},
    }
    if not args:
        config[section][key] = "x"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = run(["construct", "--config", str(cfg), "--output", "-"] + args)
    assert rc == 2
    assert f"{section}.{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("field", "n", 4.9),
    ("params", "m", 2.7),
    ("params", "k", True),
    ("guards", "max_codewords", 16.9),
    ("guards", "max_codewords", False),
], ids=["float-n", "float-m", "bool-k", "float-guard", "bool-guard"])
def test_fractional_or_boolean_config_value_exits_2(tmp_path, capsys, section, key, value):
    # int() would truncate 4.9 to 4 and read True as 1
    config = {
        "field": {"p": 3, "e": 1, "n": 4},
        "params": {"m": 3, "k": 1, "s": 1, "h": 0, "eta": "0"},
        "tasks": ["mrd"],
        "guards": {},
    }
    config[section][key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = run(["construct", "--config", str(cfg), "--output", "-"])
    assert rc == 2
    assert f"{section}.{key} must be an integer, got {value!r}" in capsys.readouterr().err


def test_integral_float_config_value_is_read_as_an_integer(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": {"p": 3, "e": 1, "n": 4.0},
                               "params": {"m": 3.0, "k": 1, "s": 1, "h": 0, "eta": "0"}}))
    assert run(["construct", "--config", str(cfg), "--output", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["code"]["n"] == 4


@pytest.mark.parametrize("axis, bad", [("n", 4.9), ("m", 2.7), ("k", True)])
def test_sweep_fractional_or_boolean_axis_value_lands_in_error_column(tmp_path, axis, bad):
    grid = {"p": [3], "e": [1], "n": [4], "m": [3], "k": [1], "s": [1],
            "h": [1], "eta": ["0"], "subspace": ["generic:0"]}
    grid[axis] = grid[axis] + [bad]
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": grid}))
    out = tmp_path / "err.csv"
    assert run(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
    import csv
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    good, = [r for r in rows if r[axis] != str(bad)]
    wrong, = [r for r in rows if r[axis] == str(bad)]
    assert good["error"] == "" and good["mrd"] == "True"
    assert f"ParamError: params.{axis} must be an integer" in wrong["error"] \
        or f"ParamError: field.{axis} must be an integer" in wrong["error"]


def test_sweep_bad_eta_digits_lands_in_error_column(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "p": [3], "e": [1], "n": [4], "m": [3], "k": [1], "s": [1],
        "h": [1], "eta": ["digits:x", "0"], "subspace": ["generic:0"],
    }}))
    out = tmp_path / "err.csv"
    assert run(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
    import csv
    with open(out) as fh:
        by_eta = {r["eta"]: r for r in csv.DictReader(fh)}
    assert by_eta["0"]["error"] == "" and by_eta["0"]["mrd"] == "True"
    assert "ParamError" in by_eta["digits:x"]["error"]


def test_sweep_guards_of_wrong_type_exits_2(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {}, "guards": 5}))
    rc = run(["sweep", "--config", str(cfg), "--output", "-"])
    assert rc == 2
    assert "invalid configuration: ParamError: config section guards" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--subspace", "elems:1,0,0,0,0,1;0,1,0,0;0,0,1,0"),
    ("--eta", "digits:1,0,0,0,1"),
])
def test_digit_vector_longer_than_the_degree_exits_2(capsys, flag, value):
    args = ["construct", "--p", "3", "--e", "1", "--n", "4", "--m", "3", "--k", "1",
            "--s", "1", "--h", "0", "--eta", "0", "--subspace", "generic:0", "--output", "-"]
    args[args.index(flag) + 1] = value
    assert run(args) == 2
    assert "more than the field degree 4" in capsys.readouterr().err


def test_sweep_long_digit_vector_lands_in_error_column(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "p": [3], "e": [1], "n": [4], "m": [3], "k": [1], "s": [1], "h": [1], "eta": ["0"],
        "subspace": ["elems:1,0,0,0,0,1;0,1,0,0;0,0,1,0", "generic:0"],
    }}))
    out = tmp_path / "err.csv"
    assert run(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
    import csv
    with open(out) as fh:
        by_sub = {r["subspace"]: r for r in csv.DictReader(fh)}
    assert by_sub["generic:0"]["error"] == "" and by_sub["generic:0"]["mrd"] == "True"
    assert "ParamError" in by_sub["elems:1,0,0,0,0,1;0,1,0,0;0,0,1,0"]["error"]


@pytest.mark.parametrize("grid", [{"p": 3, "e": [1], "n": [3]}, [3, 1, 3]], ids=["scalar-axis", "list-grid"])
def test_sweep_grid_that_is_not_axis_lists_exits_2(tmp_path, capsys, grid):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": grid}))
    rc = run(["sweep", "--config", str(cfg), "--output", "-"])
    assert rc == 2
    assert "invalid configuration: ParamError: sweep grid" in capsys.readouterr().err


def test_output_in_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "code.json"
    rc = run(["construct", "--p", "3", "--e", "1", "--n", "3", "--m", "2", "--k", "1",
              "--s", "1", "--eta", "0", "--output", str(out)])
    assert rc == 2
    assert f"cannot write output {out}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_sweep_output_in_missing_directory_exits_2(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {}}))
    out = tmp_path / "missing" / "rows.csv"
    rc = run(["sweep", "--config", str(cfg), "--output", str(out)])
    assert rc == 2
    assert f"cannot write output {out}" in capsys.readouterr().err


SMALL_CONSTRUCT = {
    "field": {"p": 2, "e": 1, "n": 4},
    "params": {"m": 3, "k": 1, "s": 1, "h": 0, "eta": "0"},
    "subspace": "generic:0",
    "tasks": ["mrd"],
}


@pytest.mark.parametrize("unsafe", ["false", 1], ids=["string", "int"])
def test_unsafe_guard_that_is_not_a_boolean_exits_2(tmp_path, capsys, unsafe):
    # a truthy non-boolean must not lift max_field = 8 below the F_16 asked for
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SMALL_CONSTRUCT, guards={"max_field": 8, "unsafe": unsafe})))
    rc = run(["construct", "--config", str(cfg), "--output", "-"])
    assert rc == 2
    assert f"guards.unsafe must be true or false, got {unsafe!r}" in capsys.readouterr().err


def test_sweep_unsafe_guard_that_is_not_a_boolean_exits_2(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "p": [2], "e": [1], "n": [4], "m": [3], "k": [1], "s": [1], "h": [0],
        "eta": ["0"], "subspace": ["generic:0"],
    }, "guards": {"unsafe": "false"}}))
    rc = run(["sweep", "--config", str(cfg), "--output", "-"])
    assert rc == 2
    assert "guards.unsafe must be true or false" in capsys.readouterr().err


def test_output_path_that_is_a_list_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SMALL_CONSTRUCT, output={"path": [1]})))
    rc = run(["construct", "--config", str(cfg)])
    assert rc == 2
    assert "output.path must be a string, got [1]" in capsys.readouterr().err


@pytest.mark.parametrize("path", ["pipe-fd", True])
def test_output_path_that_is_a_number_or_boolean_exits_2(tmp_path, path):
    # open() takes an int (and so a bool) as a file descriptor; run in a
    # child so a wrong write lands in the child's pipe or stdout, not ours
    r, w = os.pipe()
    try:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMALL_CONSTRUCT, output={"path": w if path == "pipe-fd" else path})))
        cmd, env = _child(["construct", "--config", str(cfg)])
        proc = subprocess.run(cmd, env=env, capture_output=True, pass_fds=(w,), timeout=120)
    finally:
        os.close(w)
    with os.fdopen(r, "rb") as fh:
        leaked = fh.read()
    assert proc.returncode == 2
    assert proc.stdout == b"" and leaked == b""
    assert b"output.path must be a string" in proc.stderr


@pytest.mark.parametrize("p, n, flag, value, what", [
    (3, 4, "--eta", "digits:3", "eta digit 3 is outside 0..2"),
    (3, 4, "--eta", "digits:0,-1", "eta digit -1 is outside 0..2"),
    (3, 4, "--subspace", "elems:1,0,0,0;0,1,0,0;0,0,3,0", "subspace digit 3 is outside 0..2"),
    (2, 3, "--modulus", "1,3,0,1", "field.modulus 3 is outside 0..1"),
], ids=["eta", "eta-negative", "subspace", "modulus"])
def test_out_of_range_digit_exits_2(capsys, p, n, flag, value, what):
    # a digit is never reduced mod p: digits:3 over F_3 would be eta = 0,
    # and the modulus 1,3,0,1 over F_2 the irreducible 1,1,0,1
    args = ["construct", "--p", str(p), "--e", "1", "--n", str(n), "--m", "3", "--k", "1",
            "--s", "1", "--h", "1", "--eta", "0", "--subspace", "generic:0", "--output", "-"]
    if flag == "--modulus":
        args += [flag, value]
    else:
        args[args.index(flag) + 1] = value
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"ParamError: {what}" in captured.err


def test_sweep_out_of_range_eta_digit_lands_in_error_column(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "p": [3], "e": [1], "n": [4], "m": [3], "k": [1], "s": [1],
        "h": [1], "eta": ["digits:3", "0"], "subspace": ["generic:0"],
    }}))
    out = tmp_path / "err.csv"
    assert run(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
    import csv
    with open(out) as fh:
        by_eta = {r["eta"]: r for r in csv.DictReader(fh)}
    assert by_eta["0"]["error"] == "" and by_eta["0"]["mrd"] == "True"
    assert by_eta["digits:3"]["error"] == "ParamError: eta digit 3 is outside 0..2"
    assert by_eta["digits:3"]["mrd"] == ""


def test_misspelled_guard_exits_2(tmp_path, capsys):
    # a misspelled key would leave the default max_codewords = 2^22 in force
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SMALL_CONSTRUCT, guards={"max_codeword": 10})))
    assert run(["construct", "--config", str(cfg), "--output", "-"]) == 2
    assert "unknown guard 'max_codeword'" in capsys.readouterr().err


def test_sweep_misspelled_guard_exits_2(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "p": [2], "e": [1], "n": [4], "m": [3], "k": [1], "s": [1], "h": [0],
        "eta": ["0"], "subspace": ["generic:0"],
    }, "guards": {"maxgl": 10}}))
    rc = run(["sweep", "--config", str(cfg), "--output", "-"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "unknown guard 'maxgl'" in captured.err


@pytest.mark.parametrize("extra, what", [
    ({"subspace": [1, 2, 3]}, "subspace digit vector must be an array, got 1"),
    ({"field": {"p": 2, "e": 1, "n": 4, "modulus": 5}}, "field.modulus vector must be an array, got 5"),
    ({"subspace": [[1, 0, 0, 0], 5, [0, 0, 1, 0]]}, "subspace digit vector must be an array, got 5"),
], ids=["subspace-of-numbers", "modulus-number", "elems-entry-number"])
def test_digit_vector_that_is_not_an_array_exits_2(tmp_path, capsys, extra, what):
    # iterating a number used to end in a TypeError traceback (exit 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SMALL_CONSTRUCT, **extra)))
    assert run(["construct", "--config", str(cfg), "--output", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"ParamError: {what}" in captured.err


def test_sweep_digit_vector_that_is_not_an_array_lands_in_error_column(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "p": [3], "e": [1], "n": [4], "m": [3], "k": [1], "s": [1], "h": [1], "eta": ["0"],
        "subspace": [[1, 2, 3], "generic:0"],
    }}))
    out = tmp_path / "err.csv"
    assert run(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
    import csv
    with open(out) as fh:
        by_sub = {r["subspace"]: r for r in csv.DictReader(fh)}
    assert by_sub["generic:0"]["error"] == "" and by_sub["generic:0"]["mrd"] == "True"
    assert by_sub["[1, 2, 3]"]["error"] == "ParamError: subspace digit vector must be an array, got 1"


@pytest.mark.parametrize("section, key, value, what", [
    ("params", "etta", "digits:1,1", "unknown params key 'etta'"),
    ("field", "modulo", [1, 1, 0, 0, 1], "unknown field key 'modulo'"),
    ("output", "pth", "out.json", "unknown output key 'pth'"),
    (None, "subpace", "generic:1", "unknown config key 'subpace'"),
    (None, "task", ["mrd"], "unknown config key 'task'"),
    (None, "tasks", ["mrdd"], "unknown task 'mrdd'"),
], ids=["params", "field", "output", "top-level", "task", "task-name"])
def test_misspelled_config_key_exits_2(tmp_path, capsys, section, key, value, what):
    # each of these used to run with the key ignored: untwisted, the
    # default modulus, stdout, generic:0, or no MRD section
    config = json.loads(json.dumps(SMALL_CONSTRUCT))
    (config.setdefault(section, {}) if section else config)[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["construct", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"ParamError: {what} (allowed: " in captured.err
    assert not (tmp_path / "out.json").exists()


def test_sweep_misspelled_grid_axis_exits_2(tmp_path, capsys):
    # the axis subspace would be empty, so the sweep wrote a header-only CSV
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": {
        "p": [2], "e": [1], "n": [4], "m": [3], "k": [1], "s": [1], "h": [0],
        "eta": ["0"], "subspce": ["generic:0"],
    }}))
    rc = run(["sweep", "--config", str(cfg), "--output", "-"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "unknown sweep grid axis 'subspce' (allowed: p, e, n, m, k, s, h, eta, subspace)" in captured.err


def test_a_reader_closing_the_pipe_ends_the_run_with_exit_5_and_no_traceback(capsys):
    # the F_{7^3}, m = 2 group writes 2.75 MB, far more than a pipe holds,
    # so the write after the reader closes fails with EPIPE; what the reader
    # took is the start of what main() writes in-process
    args = "aut --p 7 --e 1 --n 3 --m 2 --k 1 --s 1 --h 1 --eta nonsquare-min --subspace generic:1".split()
    assert run(args) == 0
    want = capsys.readouterr().out.encode()
    cmd, env = _child(args)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        got = proc.stdout.read(1 << 16)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 5
    finally:
        proc.kill()
        proc.wait()
    assert len(got) == 1 << 16 and want.startswith(got) and len(want) > 1 << 20
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err == "output closed before it was written in full\n"


SMALL_AUT = "aut --p 2 --e 1 --n 3 --m 2 --k 1 --s 1 --h 0 --eta 0 --subspace generic:0".split()


@pytest.mark.parametrize("args, code, to_file", [
    (SMALL_AUT, 0, False),
    (SMALL_AUT, 0, True),
    (["construct", "--p", "2", "--e", "1", "--n", "4", "--m", "3", "--k", "3"], 2, False),
    (["construct", "--p", "3", "--e", "1", "--n", "200000000", "--m", "2", "--k", "1"], 3, True),
], ids=["exit-0-stdout", "exit-0-file", "exit-2", "exit-3"])
@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_the_command_writes_what_main_writes(tmp_path, capsys, args, code, to_file, launcher):
    # the command ends with os._exit after flushing: every byte main() writes
    # in-process still reaches stdout, stderr and the --output file
    out = tmp_path / "in.json"
    assert run(args + (["--output", str(out)] if to_file else [])) == code
    captured = capsys.readouterr()
    child_out = tmp_path / "child.json"
    cmd, env = _child(args + (["--output", str(child_out)] if to_file else []), launcher)
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
    assert proc.returncode == code
    assert proc.stdout == captured.out.encode() and proc.stderr == captured.err.encode()
    assert (child_out.read_bytes() if child_out.exists() else None) == (out.read_bytes() if out.exists() else None)
    assert out.exists() == (to_file and code == 0) and bool(captured.out) == (not to_file and code == 0)


def test_the_command_under_cprofile_still_prints_its_profile(tmp_path):
    # with a profiler attached the command exits through the interpreter's
    # teardown, where cProfile prints its table
    cmd, env = _child(SMALL_AUT + ["--output", str(tmp_path / "aut.json")])
    proc = subprocess.run([cmd[0], "-m", "cProfile", *cmd[1:]], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0 and b"function calls" in proc.stdout and b"Ordered by" in proc.stdout
    assert json.loads((tmp_path / "aut.json").read_text())["summary"]["order"] > 0
