"""The CLI's JSON writer against ``json.dumps(x, indent=2, sort_keys=True)``:
the payloads of construct, nuclei and aut over F_p and over F_4 (captured
by patching ``cli._emit``), and edge values, both joined and streamed in
chunks flushed after 1, 40 and 300 characters.  The writer is the stdlib
encoder with the top-level generators spliced in as arrays of JSON text.
An aut payload's triples and verdicts are such text, so its reference is
built from the group: the triples from ``list(report["triples"])``, the
verdicts per triple from ``check_monomial_form(matrix_to_poly(gf, B), ell)``."""

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


def _written(value):
    """``_json_write``'s chunks of value."""
    chunks = []
    cli._json_write(value, chunks.append, "\n")
    return chunks


def _streamed(value, chars, monkeypatch):
    """``_json_write``'s chunks of value, flushed once ``chars`` characters are held."""
    monkeypatch.setattr(cli, "FLUSH_CHARS", chars)
    return _written(value)


def _relazied(captured, name):
    payload, lazy, _ = captured[name]
    return {k: (x for x in v) if k in lazy else v for k, v in payload.items()}


@pytest.mark.parametrize("name", RUNS)
def test_writer_matches_json_dumps_on_every_verb_payload(captured, name):
    payload, lazy, want = captured[name]
    if name.startswith("aut"):
        assert lazy == ["triples", "verdicts"]
        assert isinstance(payload["summary"]["monomial_fraction"], float)
        assert type(payload["triples"][0]) is str and isinstance(want["triples"][0]["B"], tuple)
        assert len(payload["verdicts"]) == len(want["verdicts"]) == payload["summary"]["order"]
    if name.startswith("construct"):
        assert "mrd" in payload
    assert "".join(_written(_relazied(captured, name))) == _reference(want) + "\n"


@pytest.mark.parametrize("chars", CHARS)
@pytest.mark.parametrize("name", RUNS)
def test_streamed_writer_matches_json_dumps_on_every_verb_payload(captured, monkeypatch, name, chars):
    _, _, want = captured[name]
    chunks = _streamed(_relazied(captured, name), chars, monkeypatch)
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
    "int keys": {2: "b", 1: {10: None, 9: True}},
}


@pytest.mark.parametrize("value", EDGES.values(), ids=EDGES.keys())
def test_writer_matches_json_dumps_on_edge_values(value):
    assert cli._json_text(value) == _reference(value)
    assert cli._json_text(value, "\n") == _reference(value) + "\n"


@pytest.mark.parametrize("chars", CHARS)
@pytest.mark.parametrize("value", EDGES.values(), ids=EDGES.keys())
def test_streamed_writer_matches_json_dumps_on_edge_values(monkeypatch, value, chars):
    assert "".join(_streamed(value, chars, monkeypatch)) == _reference(value) + "\n"


def _items(values):
    """A stream of values as the writer takes it: JSON text at ``_ITEM``."""
    return (cli._json_text(x, ind=cli._ITEM) for x in values)


@pytest.mark.parametrize("chars", CHARS)
def test_writer_takes_a_generator_as_an_array(monkeypatch, chars):
    items = [{"a": (1, [2])}, [], (), "x", None]
    assert "".join(_streamed({"k": _items(items), "e": _items([])}, chars, monkeypatch)) == \
        _reference({"k": items, "e": []}) + "\n"


def test_an_empty_top_level_stream_is_written_as_an_empty_array():
    assert "".join(_written({"k": _items([])})) == '{\n  "k": []\n}\n'


@pytest.mark.parametrize("chars", CHARS)
def test_data_like_the_splice_is_written_as_json_dumps_writes_it(monkeypatch, chars):
    # the stream's place holds null for the encoder, and a member's text is split at "\0"
    beside = {"a": "\0", "n": None, "z": ["\0", None, "null", "[]", {"B": ["\0"], "k": None}]}
    items = [{"B": ["\0"]}, None, "\0"]
    value = dict(beside, k=_items(items), m=_items([None]))
    assert "".join(_streamed(value, chars, monkeypatch)) == \
        _reference(dict(beside, k=items, m=[None])) + "\n"


def test_a_generator_below_the_top_level_is_a_type_error():
    def stream():
        return _items([1])
    shared = stream()
    for value in ({"a": {"k": stream()}}, {"a": [stream()]}, [stream()], stream(), {"a": [shared], "b": shared}):
        with pytest.raises(TypeError):
            _reference(value)
        with pytest.raises(TypeError):
            _written(value)


def test_writer_rejects_what_json_dumps_rejects():
    for value in ({"a": {1, 2}}, {1: "an int and a str key", "b": 2}):
        with pytest.raises(TypeError):
            _reference(value)
        with pytest.raises(TypeError):
            _written(value)
