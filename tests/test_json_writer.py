"""The CLI's JSON writer against ``json.dumps(x, indent=2, sort_keys=True)``:
the payloads of construct, nuclei and aut over F_p and over F_4 (captured
by patching ``cli._emit``), and the edge values the writer must get
right on its own, both joined and streamed in chunks flushed after 1, 40
and 300 characters.  An aut payload's triples and verdicts are
``cli.Rendered`` text, so its reference is built from the group: the
triples from ``list(report["triples"])``, the verdicts per triple from
``check_monomial_form(matrix_to_poly(gf, B), ell)``."""

import json
import sys
import types

import pytest

from rankmetric import cli
from rankmetric.autgroup import aut_report, check_monomial_form
from rankmetric.linpoly import matrix_to_poly
from rankmetric.nuclei import mside_twisted_scalar


def _reference(x):
    return json.dumps(x, indent=2, sort_keys=True)


F5 = ["--p", "5", "--e", "1", "--n", "3", "--m", "2", "--k", "1", "--s", "1", "--h", "1",
      "--eta", "nonsquare-min", "--subspace", "generic:0"]
F4 = ["--p", "2", "--e", "2", "--n", "2", "--m", "2", "--k", "1", "--s", "1", "--h", "1",
      "--subspace", "generic:0"]
RUNS = {f"{verb}-{name}": [verb, *flags] for verb in ("construct", "nuclei", "aut")
        for name, flags in (("F5", F5), ("F4", F4))}
CHARS = (1, 40, 300)


def _group_reference(config):
    """The aut payload's triples and verdicts as JSON values, made per
    triple from the group and the slow monomial-form path."""
    _, gf, _, S, code, _ = cli._instance(config)
    report = aut_report(code, S)

    def mat(x):
        return tuple(tuple(map(gf.fq_json, row)) for row in x)

    def elem(x):
        return None if x is None else gf.coords(x)
    triples, verdicts = [], []
    for t in report["triples"]:
        triples.append({"A": mat(t.A), "B": mat(t.B), "rho": t.rho})
        mono, a, u = check_monomial_form(matrix_to_poly(gf, t.B), report["ell_right"])
        scalar = mside_twisted_scalar(t.A, S, u) if mono else None
        verdicts.append({"n_side_monomial": mono, "a": elem(a), "u": u, "m_side_scalar": elem(scalar)})
    return {"triples": triples, "verdicts": verdicts}


def _capture(tmp_path, argv):
    """The payload ``argv`` hands to ``cli._emit``, with its generator
    arrays read into lists, the keys of those arrays, and the payload
    json.dumps must match (the generators replaced by their reference)."""
    config = tmp_path / "tasks.json"
    config.write_text(json.dumps({"tasks": ["mrd"]}) if argv[0] == "construct" else "{}")
    payloads = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_emit", lambda config, payload: payloads.append((config, payload)))
        assert cli.main([*argv, "--config", str(config)]) == 0
    ((config, payload),) = payloads
    lazy = sorted(k for k, v in payload.items() if isinstance(v, types.GeneratorType))
    listed = {k: list(v) if k in lazy else v for k, v in payload.items()}
    return listed, lazy, dict(listed, **_group_reference(config)) if lazy else listed


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    return {name: _capture(tmp_path_factory.mktemp(name), argv) for name, argv in RUNS.items()}


def _streamed(value, chars, monkeypatch):
    """``_json_write``'s chunks of value, flushed once ``chars`` characters are held."""
    monkeypatch.setattr(cli, "FLUSH_CHARS", chars)
    chunks = []
    cli._json_write(value, chunks.append, "\n")
    return chunks


@pytest.mark.parametrize("name", RUNS)
def test_writer_matches_json_dumps_on_every_verb_payload(captured, name):
    payload, lazy, want = captured[name]
    if name.startswith("aut"):
        assert lazy == ["triples", "verdicts"]
        assert isinstance(payload["summary"]["monomial_fraction"], float)
        assert type(payload["triples"][0]) is cli.Rendered and isinstance(want["triples"][0]["B"], tuple)
        assert len(payload["verdicts"]) == len(want["verdicts"]) == payload["summary"]["order"]
    if name.startswith("construct"):
        assert "mrd" in payload
    assert cli._json_text(payload) == _reference(want)


@pytest.mark.parametrize("chars", CHARS)
@pytest.mark.parametrize("name", RUNS)
def test_streamed_writer_matches_json_dumps_on_every_verb_payload(captured, monkeypatch, name, chars):
    payload, lazy, want = captured[name]
    relazied = {k: (x for x in v) if k in lazy else v for k, v in payload.items()}
    chunks = _streamed(relazied, chars, monkeypatch)
    assert len(chunks) > 2
    assert "".join(chunks) == _reference(want) + "\n"


def test_emit_writes_the_f4_aut_payload_in_several_chunks(captured, monkeypatch):
    _, _, want = captured["aut-F4"]
    writes = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append, flush=lambda: None))
    assert cli.main(["aut", *F4]) == 0
    assert len(writes) > 1
    assert "".join(writes) == _reference(want) + "\n"
    assert max(map(len, writes[:-1])) < 2 * cli.FLUSH_CHARS


def test_a_rendered_item_is_written_only_at_its_depth():
    item = cli.Rendered(("1",))
    assert cli._json_text({"k": [item, item]}) == _reference({"k": [1, 1]})
    for misplaced in ([item], {"a": {"k": [item]}}, {"k": item}):
        with pytest.raises(ValueError):
            cli._json_text(misplaced)


EDGES = {
    "empty dict": {},
    "empty list": [],
    "empty tuple": (),
    "nested empties": {"a": [{}, [], ()], "b": ({},), "c": [[[]]], "d": ((),)},
    "None": None,
    "True": True,
    "False": False,
    "literals in a dict": {"n": None, "t": True, "f": False},
    "0.1": 0.1,
    "floats": [0.5, 1e300, -0.0, 2.0, 1 / 3, float("nan"), float("inf")],
    "ints": [0, -7, 2 ** 70],
    "non-ASCII string": "été ☃ \U0001d53d",
    "string needing escapes": "tab\t newline\n \"quote\" back\\slash \x01 \x7f /",
    "non-ASCII key": {"é": 1, "a": 2},
    "same tuple at two depths": [(1, 2), [(1, 2)], {"x": (1, 2)}, ((1, 2),)],
    "1, True and 1.0 at one depth": [(1,), (True,), (1.0,), (1, True, 1.0), (True, 1.0, 1)],
    "1, True and 1.0 in nested tuples": [((1,),), ((True,),), ((1.0,),), {"a": ((0,),), "b": ((False,),)}],
    "tuples holding lists and dicts": [([1],), ([True],), ({"k": 1},), ({"k": True},)],
    "(True, 0) and (1, 0) in one payload": [(True, 0), (1, 0), [(1, 0), (True, 0)], {"a": (1, 0), "b": (True, 0)},
                                            ((True, 0), (1, 0)), [True, 0], [1, 0], (0, False), (0, 0)],
    "all-int arrays": [(0,), [7], (1, -2, 2 ** 70), [[1, 2], (1, 2)], ((1, 2), (3, 4)), [1, 2.0], (1, None)],
}


@pytest.mark.parametrize("value", EDGES.values(), ids=EDGES.keys())
def test_writer_matches_json_dumps_on_edge_values(value):
    assert cli._json_text(value) == _reference(value)
    assert cli._json_text(value, "\n") == _reference(value) + "\n"


@pytest.mark.parametrize("chars", CHARS)
@pytest.mark.parametrize("value", EDGES.values(), ids=EDGES.keys())
def test_streamed_writer_matches_json_dumps_on_edge_values(monkeypatch, value, chars):
    assert "".join(_streamed(value, chars, monkeypatch)) == _reference(value) + "\n"


@pytest.mark.parametrize("chars", CHARS)
def test_writer_takes_a_generator_as_an_array(monkeypatch, chars):
    items = [{"a": (1, [2])}, [], (), "x", None]
    for value in ([], items, [items, {"b": items}]):
        lazy = (x for x in value)
        assert "".join(_streamed({"k": lazy, "e": (x for x in ())}, chars, monkeypatch)) == \
            _reference({"k": value, "e": []}) + "\n"


def test_writer_rejects_what_json_dumps_rejects():
    with pytest.raises(TypeError):
        cli._json_text({"a": {1, 2}})
    with pytest.raises(TypeError):
        cli._json_text({1: "int key"})
