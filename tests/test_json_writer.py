"""The CLI's JSON writer against ``json.dumps(x, indent=2, sort_keys=True)``:
the payloads of construct, nuclei and aut over F_p and over F_4 (captured
by patching ``cli._emit``), and the edge values the writer must get
right on its own, both joined and streamed in chunks of 1, 2 and 7
pieces."""

import json
import sys
import types

import pytest

from rankmetric import cli


def _reference(x):
    return json.dumps(x, indent=2, sort_keys=True)


F5 = ["--p", "5", "--e", "1", "--n", "3", "--m", "2", "--k", "1", "--s", "1", "--h", "1",
      "--eta", "nonsquare-min", "--subspace", "generic:0"]
F4 = ["--p", "2", "--e", "2", "--n", "2", "--m", "2", "--k", "1", "--s", "1", "--h", "1",
      "--subspace", "generic:0"]
RUNS = {f"{verb}-{name}": [verb, *flags] for verb in ("construct", "nuclei", "aut")
        for name, flags in (("F5", F5), ("F4", F4))}
PIECES = (1, 2, 7)


def _capture(tmp_path, argv):
    """The payload ``argv`` hands to ``cli._emit``, with its generator
    arrays read into lists (json.dumps takes no generator), and the keys
    of those arrays."""
    config = tmp_path / "tasks.json"
    config.write_text(json.dumps({"tasks": ["mrd"]}) if argv[0] == "construct" else "{}")
    payloads = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_emit", lambda _config, payload: payloads.append(payload))
        assert cli.main([*argv, "--config", str(config)]) == 0
    (payload,) = payloads
    lazy = sorted(k for k, v in payload.items() if isinstance(v, types.GeneratorType))
    return {k: list(v) if k in lazy else v for k, v in payload.items()}, lazy


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    return {name: _capture(tmp_path_factory.mktemp(name), argv) for name, argv in RUNS.items()}


def _streamed(value, pieces, monkeypatch):
    """``_json_write``'s chunks of value, flushed every ``pieces`` pieces."""
    monkeypatch.setattr(cli, "FLUSH_PIECES", pieces)
    chunks = []
    cli._json_write(value, chunks.append, "\n")
    return chunks


@pytest.mark.parametrize("name", RUNS)
def test_writer_matches_json_dumps_on_every_verb_payload(captured, name):
    payload, lazy = captured[name]
    if name.startswith("aut"):
        assert lazy == ["triples", "verdicts"]
        assert isinstance(payload["summary"]["monomial_fraction"], float)
        assert isinstance(payload["triples"][0]["B"], tuple)
    if name.startswith("construct"):
        assert "mrd" in payload
    assert cli._json_text(payload) == _reference(payload)


@pytest.mark.parametrize("pieces", PIECES)
@pytest.mark.parametrize("name", RUNS)
def test_streamed_writer_matches_json_dumps_on_every_verb_payload(captured, monkeypatch, name, pieces):
    payload, lazy = captured[name]
    relazied = {k: (x for x in v) if k in lazy else v for k, v in payload.items()}
    chunks = _streamed(relazied, pieces, monkeypatch)
    assert len(chunks) > 2
    assert "".join(chunks) == _reference(payload) + "\n"


def test_emit_writes_the_f4_aut_payload_in_several_chunks(captured, monkeypatch):
    payload, _ = captured["aut-F4"]
    writes = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
    assert cli.main(["aut", *F4]) == 0
    assert len(writes) > 1
    assert "".join(writes) == _reference(payload) + "\n"


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


@pytest.mark.parametrize("pieces", PIECES)
@pytest.mark.parametrize("value", EDGES.values(), ids=EDGES.keys())
def test_streamed_writer_matches_json_dumps_on_edge_values(monkeypatch, value, pieces):
    assert "".join(_streamed(value, pieces, monkeypatch)) == _reference(value) + "\n"


@pytest.mark.parametrize("pieces", PIECES)
def test_writer_takes_a_generator_as_an_array(monkeypatch, pieces):
    items = [{"a": (1, [2])}, [], (), "x", None]
    for value in ([], items, [items, {"b": items}]):
        lazy = (x for x in value)
        assert "".join(_streamed({"k": lazy, "e": (x for x in ())}, pieces, monkeypatch)) == \
            _reference({"k": value, "e": []}) + "\n"


def test_writer_rejects_what_json_dumps_rejects():
    with pytest.raises(TypeError):
        cli._json_text({"a": {1, 2}})
    with pytest.raises(TypeError):
        cli._json_text({1: "int key"})
