#!/usr/bin/env python3
"""Traced child entry point: run one rankmetric CLI command with the
layers' public functions wrapped in spans and counters.

Usage:  python3 bench/trace_cli.py SPANS_JSON OP_ID -- <rankmetric args>

The wrappers live here, not in the program: each wrapped function is
replaced in every rankmetric module namespace that binds it (``cli``
and ``autgroup`` import names directly), and ``FieldSpec``'s arithmetic
methods are replaced by counting versions.  Spans (name, start, end,
parent) are kept in memory and written to SPANS_JSON at exit, together
with the counters.  Stdout, stderr and the exit code are the program's
own, byte for byte.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from rankmetric import _linalg, autgroup, cli, gf, linpoly, nuclei, rankcode


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans = []             # [name, start, end, parent index]
        self.stack = []             # indices of open spans
        self.active = defaultdict(int)
        self.counts = defaultdict(int)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.active[name] += 1
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        self.active[self.spans[idx][0]] -= 1

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result, args)
            return result
        return wrapper

    def span_generator(self, name, fn):
        """A span per resumption of the generator."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item
        return wrapper

    def counter(self, fn, on_call):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(result, args)
            return result
        return wrapper

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": self.op_id, "spans": self.spans, "counts": self.counts}, fh,
                      separators=(",", ":"))


def _replace(original, wrapper):
    """Rebind `original` to `wrapper` in every rankmetric namespace."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "rankmetric" or name.startswith("rankmetric.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _count_fieldspec(tracer: Tracer):
    counts = tracer.counts

    def counting(name, untabled):
        orig = getattr(gf.FieldSpec, name)
        calls, untabled_calls = f"gf.{name}.calls", f"gf.{name}.untabled_calls"

        def method(self, *args):
            counts[calls] += 1
            if untabled is not None and untabled(self):
                counts[untabled_calls] += 1
            return orig(self, *args)
        setattr(gf.FieldSpec, name, method)

    counting("mul", lambda f: f.order > gf._TABLE_LIMIT)
    counting("add", lambda f: f.p != 2 and f.order > gf._TABLE_LIMIT)
    counting("pow", None)
    counting("inv", None)


def install(tracer: Tracer) -> None:
    counts = tracer.counts

    def add(key, amount=1):
        counts[key] += amount

    def solves(result, _args):
        if tracer.active["autgroup.aut_bruteforce"]:
            add("autgroup.solves")
            add("autgroup.useful_solves", len(result) > 0)

    def gl_tested(result, _args):
        # Only calls made while enumerate_gl builds the list; a cached
        # list is replayed without tests and counts as neither.
        if tracer.innermost() == "autgroup.enumerate_gl":
            add("autgroup.gl_tested")
            add("autgroup.gl_enumerated", bool(result))

    spans = [
        (gf.field_create, "gf.field_create", None),
        (_linalg.modp_rref, "linalg.modp_rref", lambda r, a: add("linalg.modp_rref.rows", len(a[0]))),
        (_linalg.generic_rref, "linalg.generic_rref", None),
        (linpoly.subspace_poly, "linpoly.subspace_poly", None),
        (linpoly.reduce_mod_theta, "linpoly.reduce_mod_theta", None),
        (linpoly.matrix_to_poly, "linpoly.matrix_to_poly", None),
        (rankcode.project_code, "rankcode.project_code", None),
        (rankcode.rank_weight_distribution, "rankcode.rank_weight_distribution",
         lambda r, a: add("rankcode.codewords", sum(r))),
        (nuclei.middle_nucleus_bruteforce, "nuclei.bruteforce", None),
        (nuclei.right_nucleus_bruteforce, "nuclei.bruteforce", None),
        (nuclei.predict_middle_nucleus, "nuclei.closed_form", None),
        (nuclei.predict_right_nucleus, "nuclei.closed_form", None),
        (nuclei.spans_equal, "nuclei.spans_equal", None),
        (nuclei.nucleus_field_structure, "nuclei.field_structure", None),
        (nuclei.middle_report, "nuclei.report", None),
        (nuclei.right_report, "nuclei.report", None),
        (autgroup.aut_bruteforce, "autgroup.aut_bruteforce",
         lambda r, a: add("autgroup.order", len(r))),
        (autgroup.aut_report, "autgroup.report", None),
        (cli.cmd_construct, "cli.verb", None),
        (cli.cmd_nuclei, "cli.verb", None),
        (cli.cmd_aut, "cli.verb", None),
        (cli.cmd_sweep, "cli.verb", None),
        (cli.resolve_instance, "cli.resolve_instance", None),
        (cli._emit, "cli.emit", None),
    ]
    counters = [
        (gf.poly_is_irreducible, lambda r, a: add("gf.modulus_candidates")),
        (_linalg.modp_nullspace, solves),
        (_linalg.generic_nullspace, solves),
        (nuclei.span_matrices, lambda r, a: add("nuclei.span_elements", len(r))),
        (rankcode.mat_is_invertible, gl_tested),
    ]
    for fn, name, on_result in spans:
        _replace(fn, tracer.span(name, fn, on_result))
    for fn, on_call in counters:
        _replace(fn, tracer.counter(fn, on_call))
    _replace(autgroup.enumerate_gl, tracer.span_generator(
        "autgroup.enumerate_gl", autgroup.enumerate_gl))
    _count_fieldspec(tracer)


def main() -> int:
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.stderr.write(__doc__)
        return 2
    tracer = Tracer(op_id)
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
