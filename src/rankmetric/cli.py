"""Command-line front end.

Verbs: construct | nuclei | aut | sweep | selfcheck.  Every run is
driven by a JSON config (see README for the schema); any config field
can also be set directly with a flag, and flags win over the file.
Outputs are byte-deterministic: sorted JSON keys, fixed CSV column
order, no timestamps, and every pseudo-random choice ("generic:seed"
subspaces) is derived from the stated seed.  The JSON is the stdlib
encoder's ``indent=2, sort_keys=True`` text, written in chunks, with
``aut``'s triples and verdicts spliced in as pre-rendered items.

Exit codes: 0 success (including agree=false findings), 2 violated
invariant (named in the message), 3 enumeration guard, 4 internal
self-check failure, 5 output closed by its reader (a pipe into head).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import types

# rankmetric does only int64 array work, so BLAS is never called: no OpenBLAS worker thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Only what every verb runs is imported here: without a bytecode cache
# each run compiles every module it imports.  The verbs import nuclei,
# autgroup, csv and selfcheck themselves, as ``from .nuclei import name``,
# which ``-X importtime`` reports (``from . import nuclei`` it does not).
from .errors import (
    EnumerationGuardError,
    FieldTooLargeError,
    ParamError,
    RankMetricError,
)
from .gf import MAX_FIELD_ORDER, field_create, subfield_fq_basis
from .linpoly import subspace_poly
from .rankcode import (
    ENUM_GUARD,
    GL_GUARD_AUT,
    CodeParams,
    RankCode,
    build_gtg,
    is_mrd,
    mat_identity,
    project_code,
)

DEFAULT_GUARDS = {
    "max_codewords": ENUM_GUARD,
    "max_gl": GL_GUARD_AUT,
    "max_field": MAX_FIELD_ORDER,
}

SWEEP_AXES = ("p", "e", "n", "m", "k", "s", "h", "eta", "subspace")

# every top-level config key: its JSON type (None: checked where it is
# read), and what its keys (or task names) are called and may be
_SECTIONS = {
    "field": (dict, "field key", ("p", "e", "n", "modulus")),
    "params": (dict, "params key", ("m", "k", "s", "h", "eta")),
    "subspace": (None, None, None),
    "tasks": (list, "task", ("mrd",)),
    "guards": (dict, "guard", (*DEFAULT_GUARDS, "unsafe")),
    "output": (dict, "output key", ("path",)),
    "grid": (None, "sweep grid axis", SWEEP_AXES),
}


# ----------------------------------------------------------------------------
# config handling
# ----------------------------------------------------------------------------

def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ParamError(f"cannot read config {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParamError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ParamError(f"config {path} must hold a JSON object")
    checks = [("config key", config, _SECTIONS)]
    for key, (kind, what, allowed) in _SECTIONS.items():
        if kind is not None and not isinstance(config.get(key, kind()), kind):
            raise ParamError(f"config section {key} must be a JSON "
                             f"{'object' if kind is dict else 'array'}, got {config[key]!r}")
        if allowed is not None and isinstance(config.get(key), kind or dict):
            checks.append((what, config[key], allowed))
    # a misspelled key is never silently ignored
    for what, keys, allowed in checks:
        for key in keys:
            if key not in allowed:
                raise ParamError(f"unknown {what} {key!r} (allowed: {', '.join(allowed)})")
    return config


def _as_int(value, what):
    """A config value (an integer, an integral float or a decimal string)
    as an int; a boolean, a fractional float or anything else is a
    ParamError (exit 2, or the sweep row's error column), never a
    truncation or a traceback."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ParamError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParamError(f"{what} must be an integer, got {value!r}") from None


def _digits(values, p, what):
    """A vector of F_p digits as ints; a vector that is not an array, or
    a digit outside 0..p-1, is a ParamError, never reduced mod p."""
    if not isinstance(values, (list, tuple)):
        raise ParamError(f"{what} vector must be an array, got {values!r}")
    digits = [_as_int(v, what) for v in values]
    for d in digits:
        if not 0 <= d < p:
            raise ParamError(f"{what} {d} is outside 0..{p - 1}")
    return digits


def _element(gf, digits, what):
    """The element with F_p digit vector ``digits`` (constant first); a
    vector longer than the field degree is a ParamError."""
    digits = _digits(digits, gf.p, what)
    if len(digits) > gf.degree:
        raise ParamError(f"{what} vector has {len(digits)} entries, more than "
                         f"the field degree {gf.degree}")
    return gf.from_coords(digits)


def _merge_flags(config, args):
    """Flags win over the config file (``sweep`` has only --output and
    --unsafe-limits)."""
    for section, names in (("field", ("p", "e", "n")), ("params", ("m", "k", "s", "h", "eta"))):
        config[section] = dict(config.get(section, {}))
        config[section].update((name, getattr(args, name)) for name in names
                               if getattr(args, name, None) is not None)
    if getattr(args, "modulus", None):
        config["field"]["modulus"] = args.modulus.split(",")
    if getattr(args, "subspace", None) is not None:
        config["subspace"] = args.subspace
    if getattr(args, "output", None) is not None:
        config.setdefault("output", {})["path"] = args.output
    if getattr(args, "unsafe_limits", False):
        config.setdefault("guards", {})["unsafe"] = True
    return config


def _guards(config):
    out = {**DEFAULT_GUARDS, **config.get("guards", {})}
    for key in DEFAULT_GUARDS:
        out[key] = _as_int(out[key], f"guards.{key}")
    unsafe = out.get("unsafe", False)
    if not isinstance(unsafe, bool):
        raise ParamError(f"guards.unsafe must be true or false, got {unsafe!r}")
    if unsafe:
        big = 1 << 62
        out.update(max_codewords=big, max_gl=big, max_field=big)
    return out


def resolve_field(config, guards):
    fcfg = config.get("field", {})
    for key in ("p", "e", "n"):
        if key not in fcfg:
            raise ParamError(f"config is missing field.{key}")
    p, e, n = (_as_int(fcfg[key], f"field.{key}") for key in ("p", "e", "n"))
    modulus = fcfg.get("modulus")
    if modulus is not None:
        modulus = _digits(modulus, p, "field.modulus")
    return field_create(p, e, n, modulus, max_order=guards["max_field"])


def resolve_eta(gf, selector):
    """Eta selector: "0", "nonsquare-min", or an F_p digit vector."""
    if isinstance(selector, (list, tuple)):
        return _element(gf, selector, "eta digit")
    text = str(selector)
    if text == "0":
        return 0
    if text == "nonsquare-min":
        if gf.p == 2:
            raise ParamError(
                "eta selector nonsquare-min: every element of a binary field "
                "is a square")
        return gf.generator  # xi = xi^1, the smallest odd generator exponent
    if text.startswith("digits:"):
        return _element(gf, text[len("digits:"):].split(","), "eta digit")
    raise ParamError(f"unrecognized eta selector {selector!r}")


def resolve_subspace(gf, selector, m):
    """Subspace selector: "generic:seed", "subfield:ell", or "elems:..."
    (semicolon-separated digit vectors).  Returns a SubspaceSpec with m
    elements; generic and subfield presets always start with 1."""
    if isinstance(selector, (list, tuple)):
        alphas = [_element(gf, v, "subspace digit") for v in selector]
        return subspace_poly(gf, alphas)
    text = str(selector)
    if text.startswith("generic:"):
        seed = _as_int(text.split(":", 1)[1], "generic preset seed")
        S = subspace_poly(gf, [gf.one])
        j = seed
        while S.m < m:
            j += 1
            if j > seed + gf.order:
                raise ParamError(f"generic preset could not reach m = {m} elements")
            cand = gf.pow(gf.generator, j)
            if S.theta_eval(cand) != 0:  # theta_S vanishes exactly on U_S
                S = subspace_poly(gf, S.alphas + (cand,))
        return S
    if text.startswith("subfield:"):
        ell = _as_int(text.split(":", 1)[1], "subfield preset ell")
        if ell != m:
            raise ParamError(f"subfield:{ell} preset needs m = {ell}, got m = {m}")
        if gf.n % ell != 0:
            raise ParamError(f"subfield:{ell} preset needs ell | n = {gf.n}")
        basis = subfield_fq_basis(gf, ell)
        return subspace_poly(gf, basis)
    if text.startswith("elems:"):
        vecs = [v for v in text[len("elems:"):].split(";") if v]
        alphas = [_element(gf, v.split(","), "subspace digit") for v in vecs]
        return subspace_poly(gf, alphas)
    raise ParamError(f"unrecognized subspace selector {selector!r}")


def resolve_instance(config, guards):
    gf = resolve_field(config, guards)
    pcfg = config.get("params", {})
    for key in ("m", "k", "s"):
        if key not in pcfg:
            raise ParamError(f"config is missing params.{key}")
    m, k, s, h = (_as_int(pcfg.get(key, 0), f"params.{key}") for key in ("m", "k", "s", "h"))
    params = CodeParams(gf, m, k, s, h, resolve_eta(gf, pcfg.get("eta", "0")))
    S = resolve_subspace(gf, config.get("subspace", "generic:0"), params.m)
    if S.m != params.m:
        raise ParamError(f"subspace has {S.m} elements but m = {params.m}")
    return gf, params, S


@contextlib.contextmanager
def _output(config):
    """The configured output (stdout for "-") as an open text file; a path
    that is not a string or cannot be written is a ParamError (exit 2),
    not a traceback."""
    path = config.get("output", {}).get("path", "-")
    if not isinstance(path, str):
        raise ParamError(f"output.path must be a string, got {path!r}")
    if path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ParamError(f"cannot write output {path}: {exc.strerror}") from None


# characters the writer collects before it joins them and writes the chunk
FLUSH_CHARS = 1 << 14

# the indentation of an item of an array under a payload key
_ITEM = "\n    "


def _json_write(obj, write, end=""):
    """Write ``json.dumps(obj, indent=2, sort_keys=True) + end`` to ``write``
    in chunks of about FLUSH_CHARS characters, so the whole text is never
    held.  A generator is taken only as the value of a top-level key of a
    dict ``obj``: an array whose items are JSON text rendered at ``_ITEM``,
    spliced in as they come.  A generator anywhere else is a TypeError."""
    # spliced where the encoder first meets it: one that also sits deeper is met twice, a TypeError
    streams = {id(v): v for v in obj.values() if type(v) is types.GeneratorType} if isinstance(obj, dict) else {}
    spliced = []

    def default(o):
        if streams.pop(id(o), None) is None:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        spliced.append(o)  # the encoder's next piece, its "null", gives way to o's items

    def pieces():
        for piece in json.JSONEncoder(indent=2, sort_keys=True, default=default).iterencode(obj):
            if spliced:
                sep = "[" + _ITEM
                for item in spliced.pop():
                    yield sep + item
                    sep = "," + _ITEM
                piece = "[]" if sep[0] == "[" else "\n  ]"
            yield piece
    out, held = [], 0
    for piece in pieces():
        out.append(piece)
        held += len(piece)
        if held > FLUSH_CHARS:
            write("".join(out))
            out, held = [], 0
    write("".join(out) + end)


def _json_text(obj, end="", ind="\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + end`` with obj at indentation ``ind``."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", ind) + end


def _emit(config, payload):
    with _output(config) as fh:
        _json_write(payload, fh.write, "\n")


# ----------------------------------------------------------------------------
# verbs
# ----------------------------------------------------------------------------

def _instance(config):
    """What construct, nuclei and aut share: the guards, the resolved
    instance, its code, and the JSON header describing the instance."""
    guards = _guards(config)
    gf, params, S = resolve_instance(config, guards)
    header = {
        "field": gf.serialize(),
        "params": {"m": params.m, "k": params.k, "s": params.s, "h": params.h,
                   "eta": gf.coords(params.eta)},
        "subspace": [gf.coords(a) for a in S.alphas],
    }
    return guards, gf, params, S, project_code(build_gtg(params), S), header


def cmd_construct(config) -> int:
    guards, gf, params, S, code, payload = _instance(config)
    payload["code"] = code.serialize()
    if "mrd" in config.get("tasks", []):
        verdict, cert = is_mrd(code, guards["max_codewords"])
        payload["mrd"] = dict(cert, is_mrd=verdict, cardinality=str(cert["cardinality"]),
                              bound=str(cert["bound"]))
    _emit(config, payload)
    return 0


def cmd_nuclei(config) -> int:
    from .nuclei import middle_report, nucleus_field_structure, right_report
    _, gf, params, S, code, payload = _instance(config)
    middle = middle_report(params, S, code)
    right = right_report(params, S, code)
    # internal consistency: both nuclei must contain the F_q scalars, that
    # is (being F_q-spans) the identity
    for rep, size in ((middle, params.m), (right, gf.n)):
        if not RankCode(gf, size, rep.bruteforce_basis, n=size, independent=True).contains(mat_identity(gf, size)):
            sys.stderr.write("selfcheck failure: nucleus misses a scalar\n")
            return 4
    mid_field = nucleus_field_structure(middle, gf)
    right_field = nucleus_field_structure(right, gf)
    payload.update(middle=middle.to_json(gf), right=right.to_json(gf),
                   middle_field_structure={"is_field": mid_field[0], "order": mid_field[1]},
                   right_field_structure={"is_field": right_field[0], "order": right_field[1]})
    _emit(config, payload)
    return 0


def _aut_payload(config):
    from .autgroup import aut_report
    guards, gf, params, S, code, payload = _instance(config)
    report = aut_report(code, S, gl_guard=guards["max_gl"])
    ts = report.get("theta")
    payload.update({
        "summary": {
            "order": report["order"],
            "monomial_fraction": report["monomial_fraction"],
            "ell_right": report.get("ell_right"),
            "ansatz_mismatch": report.get("ansatz_mismatch"),
            "theta_predicates": None if ts is None else {
                "meets_subfield_outside_fq": ts.meets_subfield_outside_fq,
                "is_full_field": ts.is_full_field,
            },
        },
        # rendered lazily, one item at a time, as the writer streams them
        "triples": _triples_json(gf, report["triples"]),
        "verdicts": _verdicts_json(gf, report["verdicts"]),
    })
    return payload


def _around(obj):
    """obj's JSON text at ``_ITEM``, split at its one string "\\0" (where a caller's text goes)."""
    return _json_text(obj, ind=_ITEM).split('"\\u0000"')


def _triples_json(gf, group):
    """The group's triples as JSON text at ``_ITEM``, streamed from its
    members: each distinct matrix row is rendered once, A and rho once per
    member, and each B's rows are looked up once per coset; only row texts
    are held."""
    inner, bs = _ITEM + "    ", {}
    text = functools.cache(lambda row: _json_text(tuple(map(gf.fq_json, row)), ind=inner))
    for rho, a_mat, c in group.members:
        if c not in bs:
            bs[c] = [tuple(map(text, b_mat)) for b_mat in group.coset(c)]
        head, tail = _around({"A": [tuple(map(gf.fq_json, row)) for row in a_mat], "B": ["\0"], "rho": rho})
        for b_rows in bs[c]:
            yield head + ("," + inner).join(b_rows) + tail


def _verdicts_json(gf, verdicts):
    """The verdicts as JSON text at ``_ITEM``, each made of the text of its
    a and the text around it, both rendered once per distinct value."""
    a_text = functools.cache(lambda a: "null" if a is None else _json_text(gf.coords(a), ind=_ITEM + "  "))
    around = functools.cache(lambda mono, scalar, u: _around({
        "a": "\0", "m_side_scalar": None if scalar is None else gf.coords(scalar), "n_side_monomial": mono, "u": u}))
    for v in verdicts:
        head, tail = around(v["n_side_monomial"], v.get("m_side_scalar"), v["u"])
        yield head + a_text(v["a"]) + tail


def cmd_aut(config) -> int:
    _emit(config, _aut_payload(config))
    return 0


SWEEP_COLUMNS = ["p", "e", "n", "m", "k", "s", "h", "eta", "subspace",
                 "dim", "mrd", "d", "nm_order", "nm_pred", "nm_agree",
                 "nr_order", "nr_pred", "nr_agree", "ell_mid", "ell_right",
                 "open_case", "error"]


def cmd_sweep(config) -> int:
    import csv

    from .nuclei import middle_report, right_report
    guards = _guards(config)
    grid = config.get("grid", {})
    if not isinstance(grid, dict):
        raise ParamError("sweep grid must be a JSON object of axis lists")
    axes = [grid.get(k, []) for k in SWEEP_AXES]
    for key, axis in zip(SWEEP_AXES, axes):
        if not isinstance(axis, list):
            raise ParamError(f"sweep grid axis {key} must be a list, got {axis!r}")
    rows = []
    instances = sorted(itertools.product(*axes), key=lambda t: tuple(str(x) for x in t))
    for inst in instances:
        p, e, n, m, k, s, h, eta_sel, sub_sel = inst
        row = {c: "" for c in SWEEP_COLUMNS}
        row.update(p=p, e=e, n=n, m=m, k=k, s=s, h=h,
                   eta=str(eta_sel), subspace=str(sub_sel))
        try:
            _, _, params, S, code, _ = _instance({
                "field": {"p": p, "e": e, "n": n},
                "params": {"m": m, "k": k, "s": s, "h": h, "eta": eta_sel},
                "subspace": sub_sel,
                "guards": config.get("guards", {}),
            })
            row["dim"] = code.dim
            verdict, cert = is_mrd(code, guards["max_codewords"])
            row["mrd"] = verdict
            row["d"] = cert["d"]
            middle = middle_report(params, S, code)
            right = right_report(params, S, code)
            row["nm_order"] = middle.bruteforce_order
            row["nr_order"] = right.bruteforce_order
            row["nm_pred"] = middle.predicted_order if middle.predicted_order is not None else ""
            row["nr_pred"] = right.predicted_order if right.predicted_order is not None else ""
            row["nm_agree"] = "" if middle.agree is None else middle.agree
            row["nr_agree"] = "" if right.agree is None else right.agree
            row["ell_mid"] = middle.ell
            row["ell_right"] = right.ell
            row["open_case"] = middle.hypothesis_flags.get("open_case", "")
        except RankMetricError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    with _output(config) as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return 0


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

UNSAFE_LIMITS_HELP = ("lift the max_codewords, max_gl and max_field guards; the fixed "
                      "n^2 <= 36, subspace, span and normalizer guards still apply")


def _add_instance_flags(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--p", type=int)
    sub.add_argument("--e", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--modulus", help="comma digits, constant term first")
    sub.add_argument("--m", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--s", type=int)
    sub.add_argument("--h", type=int)
    sub.add_argument("--eta", help='"0", "nonsquare-min", or digits:...')
    sub.add_argument("--subspace", help='"generic:SEED", "subfield:L", or elems:...')
    sub.add_argument("--output", help="output path, - for stdout")
    sub.add_argument("--unsafe-limits", action="store_true", help=UNSAFE_LIMITS_HELP)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rankmetric",
        description="Twisted Gabidulin rank-metric codes: construction, "
                    "nuclei, automorphism checks")
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb in ("construct", "nuclei", "aut"):
        _add_instance_flags(subs.add_parser(verb))
    sweep = subs.add_parser("sweep")
    sweep.add_argument("--config", required=True, help="JSON config with a grid")
    sweep.add_argument("--output", help="CSV path, - for stdout")
    sweep.add_argument("--unsafe-limits", action="store_true", help=UNSAFE_LIMITS_HELP)
    subs.add_parser("selfcheck")

    args = parser.parse_args(argv)
    try:
        if args.verb == "selfcheck":
            from .selfcheck import run_selfcheck
            code = run_selfcheck(_instance, _aut_payload, _json_write)
        else:
            config = _merge_flags(_load_config(args.config) if args.config else {}, args)
            verbs = {"construct": cmd_construct, "nuclei": cmd_nuclei, "aut": cmd_aut, "sweep": cmd_sweep}
            code = verbs[args.verb](config)
        sys.stdout.flush()
        return code
    except (EnumerationGuardError, FieldTooLargeError) as exc:
        sys.stderr.write(f"guard: {exc}\n")
        return 3
    except RankMetricError as exc:
        sys.stderr.write(f"invalid configuration: {type(exc).__name__}: {exc}\n")
        return 2
    except BrokenPipeError:
        # the reader closed stdout; devnull takes the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("output closed before it was written in full\n")
        return 5


if __name__ == "__main__":
    sys.exit(main())
