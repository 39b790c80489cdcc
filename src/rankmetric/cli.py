"""Command-line front end.

Verbs: construct | nuclei | aut | sweep | selfcheck.  Every run is
driven by a JSON config (see README for the schema); any config field
can also be set directly with a flag, and flags win over the file.
Outputs are byte-deterministic: sorted JSON keys, fixed CSV column
order, no timestamps, and every pseudo-random choice ("generic:seed"
subspaces) is derived from the stated seed.

Exit codes: 0 success (including agree=false findings), 2 violated
invariant (named in the message), 3 enumeration guard, 4 internal
self-check failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import random
import sys

from . import _linalg, autgroup, nuclei
from .autgroup import GL_GUARD_AUT
from .errors import (
    EnumerationGuardError,
    FieldTooLargeError,
    ParamError,
    RankMetricError,
)
from .gf import MAX_FIELD_ORDER, field_create
from .linpoly import LinearizedPoly, subspace_poly, reduce_mod_theta, poly_from_reduced, shift_support
from .rankcode import (
    ENUM_GUARD,
    CodeParams,
    apply_equivalence,
    build_gtg,
    is_mrd,
    mat_identity,
    mat_vec,
    project_code,
    rank_weight_distribution,
)

DEFAULT_GUARDS = {
    "max_codewords": ENUM_GUARD,
    "max_gl": GL_GUARD_AUT,
    "max_field": MAX_FIELD_ORDER,
}

# top-level config sections and the JSON type each must have
_SECTION_TYPES = {"field": dict, "params": dict, "guards": dict, "output": dict, "tasks": list}


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
    for key, kind in _SECTION_TYPES.items():
        if not isinstance(config.get(key, kind()), kind):
            raise ParamError(f"config section {key} must be a JSON "
                             f"{'object' if kind is dict else 'array'}, got {config[key]!r}")
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


def _as_ints(values, what):
    return [_as_int(v, what) for v in values]


def _element(gf, digits, what):
    """The element with F_p digit vector ``digits`` (constant first); a
    vector longer than the field degree is a ParamError."""
    digits = _as_ints(digits, what)
    if len(digits) > gf.degree:
        raise ParamError(f"{what} vector has {len(digits)} entries, more than "
                         f"the field degree {gf.degree}")
    return gf.from_coords(digits)


def _merge_flags(config, args):
    field = dict(config.get("field", {}))
    params = dict(config.get("params", {}))
    for name in ("p", "e", "n"):
        v = getattr(args, name, None)
        if v is not None:
            field[name] = v
    if getattr(args, "modulus", None):
        field["modulus"] = args.modulus.split(",")
    for name in ("m", "k", "s", "h"):
        v = getattr(args, name, None)
        if v is not None:
            params[name] = v
    if getattr(args, "eta", None) is not None:
        params["eta"] = args.eta
    config["field"] = field
    config["params"] = params
    if getattr(args, "subspace", None) is not None:
        config["subspace"] = args.subspace
    if getattr(args, "output", None) is not None:
        config.setdefault("output", {})["path"] = args.output
    if getattr(args, "unsafe_limits", False):
        config.setdefault("guards", {})["unsafe"] = True
    return config


def _guards(config):
    out = dict(DEFAULT_GUARDS)
    out.update(config.get("guards", {}))
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
        modulus = _as_ints(modulus, "field.modulus")
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
        basis = nuclei.subfield_fq_basis(gf, ell)
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


def _write_output(config, text):
    """Write to the configured output path (stdout for "-"); a path that
    is not a string or cannot be written is a ParamError (exit 2), not a
    traceback."""
    path = config.get("output", {}).get("path", "-")
    if not isinstance(path, str):
        raise ParamError(f"output.path must be a string, got {path!r}")
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParamError(f"cannot write output {path}: {exc.strerror}") from None


def _emit(config, payload):
    _write_output(config, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------------
# verbs
# ----------------------------------------------------------------------------

def cmd_construct(config) -> int:
    guards = _guards(config)
    gf, params, S = resolve_instance(config, guards)
    code = project_code(build_gtg(params), S)
    payload = {
        "field": gf.serialize(),
        "params": {"m": params.m, "k": params.k, "s": params.s, "h": params.h,
                   "eta": list(gf.coords(params.eta))},
        "subspace": [list(gf.coords(a)) for a in S.alphas],
        "code": code.serialize(),
    }
    if "mrd" in config.get("tasks", []):
        verdict, cert = is_mrd(code, guards["max_codewords"])
        payload["mrd"] = dict(cert, is_mrd=verdict, cardinality=str(cert["cardinality"]),
                              bound=str(cert["bound"]))
    _emit(config, payload)
    return 0


def cmd_nuclei(config) -> int:
    guards = _guards(config)
    gf, params, S = resolve_instance(config, guards)
    code = project_code(build_gtg(params), S)
    middle = nuclei.middle_report(params, S, code)
    right = nuclei.right_report(params, S, code)
    # internal consistency: both nuclei must contain the F_q scalars, that
    # is (being F_q-spans) the identity
    for rep, size in ((middle, params.m), (right, gf.n)):
        if not _linalg.fq_in_span([mat_vec(b) for b in rep.bruteforce_basis], mat_vec(mat_identity(gf, size)), gf):
            sys.stderr.write("selfcheck failure: nucleus misses a scalar\n")
            return 4
    mid_field = nuclei.nucleus_field_structure(middle, gf)
    right_field = nuclei.nucleus_field_structure(right, gf)
    payload = {
        "field": gf.serialize(),
        "params": {"m": params.m, "k": params.k, "s": params.s, "h": params.h,
                   "eta": list(gf.coords(params.eta))},
        "subspace": [list(gf.coords(a)) for a in S.alphas],
        "middle": middle.to_json(gf),
        "right": right.to_json(gf),
        "middle_field_structure": {"is_field": mid_field[0], "order": mid_field[1]},
        "right_field_structure": {"is_field": right_field[0], "order": right_field[1]},
    }
    _emit(config, payload)
    return 0


def cmd_aut(config) -> int:
    guards = _guards(config)
    gf, params, S = resolve_instance(config, guards)
    code = project_code(build_gtg(params), S)
    report = autgroup.aut_report(code, params, S, gl_guard=guards["max_gl"])
    ts = report.get("theta")
    payload = {
        "field": gf.serialize(),
        "params": {"m": params.m, "k": params.k, "s": params.s, "h": params.h,
                   "eta": list(gf.coords(params.eta))},
        "subspace": [list(gf.coords(a)) for a in S.alphas],
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
        "triples": [t.serialize(gf) for t in report["triples"]],
        "verdicts": [
            {"n_side_monomial": v["n_side_monomial"],
             "u": v["u"],
             "a": None if v["a"] is None else list(gf.coords(v["a"])),
             "m_side_scalar": (None if v.get("m_side_scalar") is None
                               else list(gf.coords(v["m_side_scalar"])))}
            for v in report["verdicts"]],
    }
    _emit(config, payload)
    return 0


SWEEP_COLUMNS = ["p", "e", "n", "m", "k", "s", "h", "eta", "subspace",
                 "dim", "mrd", "d", "nm_order", "nm_pred", "nm_agree",
                 "nr_order", "nr_pred", "nr_agree", "ell_mid", "ell_right",
                 "open_case", "error"]


def cmd_sweep(config) -> int:
    guards = _guards(config)
    grid = config.get("grid", {})
    if not isinstance(grid, dict):
        raise ParamError("sweep grid must be a JSON object of axis lists")
    keys = ("p", "e", "n", "m", "k", "s", "h", "eta", "subspace")
    axes = [grid.get(k, []) for k in keys]
    for key, axis in zip(keys, axes):
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
            inst_config = {
                "field": {"p": p, "e": e, "n": n},
                "params": {"m": m, "k": k, "s": s, "h": h, "eta": eta_sel},
                "subspace": sub_sel,
                "guards": config.get("guards", {}),
            }
            gf, params, S = resolve_instance(inst_config, guards)
            code = project_code(build_gtg(params), S)
            row["dim"] = code.dim
            verdict, cert = is_mrd(code, guards["max_codewords"])
            row["mrd"] = verdict
            row["d"] = cert["d"]
            middle = nuclei.middle_report(params, S, code)
            right = nuclei.right_report(params, S, code)
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
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _write_output(config, buf.getvalue())
    return 0


# ----------------------------------------------------------------------------
# selfcheck
# ----------------------------------------------------------------------------

def _check(name, fn, failures):
    try:
        fn()
        print(f"PASS {name}")
    except AssertionError as exc:
        failures.append(name)
        print(f"FAIL {name}: {exc}")


def run_selfcheck() -> int:
    rng = random.Random(20240401)
    failures = []

    f16 = field_create(2, 1, 4)
    f64 = field_create(2, 1, 6)
    f81 = field_create(3, 1, 4)

    def field_axioms():
        for gf in (f16, f64, f81):
            for _ in range(4000):
                a, b, c = (rng.randrange(gf.order) for _ in range(3))
                assert gf.add(a, b) == gf.add(b, a)
                assert gf.mul(a, gf.mul(b, c)) == gf.mul(gf.mul(a, b), c)
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
                if a:
                    assert gf.mul(a, gf.inv(a)) == gf.one
    _check("field axioms (12k random triples)", field_axioms, failures)

    def power_tables():
        prng = random.Random(20240408)
        for gf in (f16, f64, f81):
            for _ in range(500):
                a, b = prng.randrange(gf.order), prng.randrange(gf.order)
                assert gf.mul(a, b) == gf._mul_generic(a, b), (gf, a, b)
        f4 = field_create(2, 2, 3)
        f, g = _linalg.fq_arith(f4), f4.subfield_generator(1)
        chain = [f4.one]
        for _ in range(f4.q - 2):
            chain.append(f4.mul(chain[-1], g))
        assert f.packed(f._exp[:f4.q - 1]).tolist() == chain
    _check("exp/log tables agree with schoolbook products; F_4 table inside F_64", power_tables, failures)

    def frobenius_hom():
        for gf in (f64, f81):
            for j in range(gf.n):
                for _ in range(200):
                    a, b = rng.randrange(gf.order), rng.randrange(gf.order)
                    assert gf.frobenius(gf.mul(a, b), j) == gf.mul(gf.frobenius(a, j), gf.frobenius(b, j))
                    assert gf.frobenius(gf.add(a, b), j) == gf.add(gf.frobenius(a, j), gf.frobenius(b, j))
    _check("frobenius is a ring automorphism", frobenius_hom, failures)

    def norm_in_fq():
        for gf in (f64, f81):
            fq = gf.subfield_elements(1)
            for _ in range(200):
                a = rng.randrange(gf.order)
                assert gf.relative_norm(a, 1) in fq
    _check("relative norm lands in F_q", norm_in_fq, failures)

    def subfield_lattice():
        divs = [1, 2, 3, 6]
        for l1 in divs:
            for l2 in divs:
                nested = f64.subfield_elements(l1) <= f64.subfield_elements(l2)
                assert nested == (l2 % l1 == 0)
    _check("subfield lattice matches divisibility", subfield_lattice, failures)

    def compose_assoc():
        def rp(gf):
            return LinearizedPoly(gf, [rng.randrange(gf.order) for _ in range(gf.n)])
        for _ in range(20):
            f, g, h = rp(f81), rp(f81), rp(f81)
            assert f.compose(g).compose(h) == f.compose(g.compose(h))
            x = rng.randrange(81)
            assert f.compose(g)(x) == f(g(x))
    _check("composition associative + matches evaluation", compose_assoc, failures)

    xi = f81.generator
    S81 = subspace_poly(f81, [1, xi, f81.pow(xi, 2)])

    def reduction_props():
        for _ in range(100):
            f = LinearizedPoly(f81, [rng.randrange(81) for _ in range(4)])
            g = LinearizedPoly(f81, [rng.randrange(81) for _ in range(4)])
            rf = reduce_mod_theta(f, S81, 1)
            assert all(f(u) == poly_from_reduced(S81, 1, rf)(u) for u in S81.subspace())
            rsum = reduce_mod_theta(f + g, S81, 1)
            assert rsum == tuple(f81.add(a, b) for a, b in zip(rf, reduce_mod_theta(g, S81, 1)))
            assert reduce_mod_theta(poly_from_reduced(S81, 1, rf), S81, 1) == rf
    _check("reduction agrees on U_S, linear, idempotent", reduction_props, failures)

    def shift_lemma():
        for _ in range(30):
            phi = LinearizedPoly(f81, [rng.randrange(81) for _ in range(4)])
            a0 = shift_support(phi, S81, 1, 0)
            if not a0:
                continue
            for t in range(0, S81.m - max(a0)):
                assert shift_support(phi, S81, 1, t) == frozenset(i + t for i in a0)
    _check("shift lemma on random polynomials", shift_lemma, failures)

    def nucleus_theorems():
        g8 = nuclei.subfield_fq_basis(f64, 3)
        S8 = subspace_poly(f64, g8)
        p0 = CodeParams(f64, 3, 1, 1, 0, 0)
        mid = nuclei.middle_report(p0, S8)
        rig = nuclei.right_report(p0, S8)
        assert mid.agree and mid.bruteforce_order == 8, mid.bruteforce_order
        assert rig.agree and rig.bruteforce_order == 4096, rig.bruteforce_order
    _check("nucleus theorems on the F_8-subspace Gabidulin code", nucleus_theorems, failures)

    def equivalence_invariance():
        params = CodeParams(f81, 3, 1, 1, 2, f81.generator)
        code = project_code(build_gtg(params), S81)
        base_mid = nuclei.middle_nucleus_bruteforce(code).bruteforce_order
        base_rig = nuclei.right_nucleus_bruteforce(code).bruteforce_order
        base_hist = rank_weight_distribution(code)
        for _ in range(2):
            A = _random_gl(f81, 3, rng)
            B = _random_gl(f81, 4, rng)
            moved = apply_equivalence(code, A, B)
            assert nuclei.middle_nucleus_bruteforce(moved).bruteforce_order == base_mid
            assert nuclei.right_nucleus_bruteforce(moved).bruteforce_order == base_rig
            assert rank_weight_distribution(moved) == base_hist
    _check("equivalence preserves nuclei orders and rank weights", equivalence_invariance, failures)

    def mrd_spotcheck():
        params = CodeParams(f81, 3, 1, 1, 2, f81.generator)
        code = project_code(build_gtg(params), S81)
        verdict, cert = is_mrd(code)
        assert verdict and cert["d"] == 3
    _check("twisted code is MRD with d = m - k + 1", mrd_spotcheck, failures)

    def stacked_kernel():
        krng = random.Random(20240404)
        f2, f4, f9 = field_create(2, 1, 1), field_create(2, 2, 1), field_create(3, 2, 1)
        for gf, f in ((f2, _linalg.BitField(4)), (f4, _linalg.fq_arith(f4)), (f9, _linalg.fq_arith(f9))):
            stack = [[[krng.choice(gf.fq_list()) for _ in range(4)] for _ in range(3)] for _ in range(12)]
            stack[0][2] = stack[0][0]  # a dependent row
            r, pivots = _linalg.modp_rref(f.index(stack), f)
            for mat, rmat, piv in zip(stack, r, pivots):
                want = _linalg.generic_rref(mat, gf)
                assert (f.packed(rmat).tolist(), [c for c in piv.tolist() if c >= 0]) == want
    _check("stacked F_q kernel agrees with generic_rref on packed F_2, F_4 and F_9", stacked_kernel, failures)

    def histogram_paths():
        from .rankcode import RankCode, _hist_by_codewords, _hist_by_subspaces, _small_side
        f2_code = project_code(build_gtg(CodeParams(f64, 5, 2, 1, 1, 0)),
                               subspace_poly(f64, [f64.pow(f64.generator, i) for i in range(5)]))
        f729 = field_create(3, 2, 3)
        hrng = random.Random(20240409)
        mats = [[[hrng.choice(f729.fq_list()) for _ in range(3)] for _ in range(3)] for _ in range(4)]
        mats[0] = [mats[0][0], mats[0][0], [0, 0, 0]]  # a rank-1 word
        for code in (f2_code, RankCode(f729, 3, mats)):
            basis = _small_side(code)
            hist = _hist_by_codewords(code.gf, basis)
            assert _hist_by_subspaces(code.gf, basis) == hist, (code, hist)
            assert sum(hist) == code.cardinality
    _check("rank histograms by codewords and by subspace counts agree on F_2 5x6 and F_9 3x3 codes",
           histogram_paths, failures)

    if failures:
        print(f"{len(failures)} selfcheck item(s) failed")
        return 4
    print("all selfcheck items passed")
    return 0


def _random_gl(gf, n, rng):
    from .rankcode import mat_is_invertible
    while True:
        mat = tuple(tuple(rng.choice(gf.fq_list()) for _ in range(n)) for _ in range(n))
        if mat_is_invertible(gf, mat):
            return mat


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
    if args.verb == "selfcheck":
        return run_selfcheck()

    try:
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        if args.verb == "sweep":
            if getattr(args, "output", None) is not None:
                config.setdefault("output", {})["path"] = args.output
            if getattr(args, "unsafe_limits", False):
                config.setdefault("guards", {})["unsafe"] = True
            return cmd_sweep(config)
        config = _merge_flags(config, args)
        if args.verb == "construct":
            return cmd_construct(config)
        if args.verb == "nuclei":
            return cmd_nuclei(config)
        if args.verb == "aut":
            return cmd_aut(config)
    except (EnumerationGuardError, FieldTooLargeError) as exc:
        sys.stderr.write(f"guard: {exc}\n")
        return 3
    except RankMetricError as exc:
        sys.stderr.write(f"invalid configuration: {type(exc).__name__}: {exc}\n")
        return 2
    parser.error(f"unknown verb {args.verb}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
