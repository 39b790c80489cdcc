"""The ``selfcheck`` verb: a battery of randomized and fixed-instance
checks, each fast path against its slow path.

Only ``rankmetric.cli`` imports this module, and only for ``selfcheck``.
It does not import ``cli`` back: when ``cli`` runs as ``__main__`` that
would compile and execute a second copy of it, so ``cli.main`` passes
in the three helpers the battery uses.
"""

from __future__ import annotations

import itertools
import json
import random

from . import _linalg, autgroup, nuclei
from .gf import field_create
from .linpoly import LinearizedPoly, matrix_to_poly, subspace_poly, reduce_mod_theta, poly_from_reduced, shift_support
from .rankcode import (
    CodeParams,
    RankCode,
    apply_equivalence,
    build_gtg,
    is_mrd,
    project_code,
    rank_weight_distribution,
)


def _check(name, fn, failures):
    try:
        fn()
        print(f"PASS {name}")
    except AssertionError as exc:
        failures.append(name)
        print(f"FAIL {name}: {exc}")


def run_selfcheck(instance, aut_payload, json_write) -> int:
    """Run the battery; 0 if every item passes, else 4.  The CLI hands in
    its ``_instance``, ``_aut_payload`` and ``_json_write``."""
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
        f17 = field_create(2, 1, 17, [1, 0, 0, 1] + [0] * 13 + [1])  # x^17 + x^3 + 1: above the table limit
        for a, b in ((prng.randrange(1, f17.order), prng.randrange(f17.order)) for _ in range(50)):
            assert f17.mul(a, f17.inv(a)) == f17.one and f17.mul(a, b) == f17._mul_generic(b, a), (a, b)
            assert [f17.pow(a, t) for t in range(5)] == list(itertools.accumulate([a] * 4, f17.mul, initial=1)), a
        f4 = field_create(2, 2, 3)
        f, g = _linalg.fq_arith(f4), f4.subfield_generator(1)
        chain = [f4.one]
        for _ in range(f4.q - 2):
            chain.append(f4.mul(chain[-1], g))
        assert f.packed(f._exp[:f4.q - 1]).tolist() == chain
        for gf in (f81, field_create(3, 1, 11)):  # 3^11: an odd-p field above the table limit
            for a, b in ((prng.randrange(gf.order), prng.randrange(gf.order)) for _ in range(200)):
                ref = [[x + y, x - y, -y] for x, y in zip(gf.coords(a), gf.coords(b))]
                assert [gf.add(a, b), gf.sub(a, b), gf.neg(b)] == [gf.from_coords(c) for c in zip(*ref)], (gf, a, b)
    _check("schoolbook products vs exp/log tables and untabled F_2^17; F_4 table in F_64; "
           "sums vs coordinates on F_81, F_3^11", power_tables, failures)

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
        for gf, f, width in ((f2, _linalg.BitField(4), 4), (f2, _linalg.BitField(70), 70),
                             (f4, _linalg.fq_arith(f4), 4), (f9, _linalg.fq_arith(f9), 4)):
            stack = [[[krng.choice(gf.fq_list()) for _ in range(width)] for _ in range(3)] for _ in range(12)]
            stack[0][2] = stack[0][0]  # a dependent row
            r, pivots = _linalg.modp_rref(f.index(stack), f)
            for mat, rmat, piv in zip(stack, r, pivots):
                want = _linalg.generic_rref(mat, gf)
                assert (f.packed(rmat).tolist(), [c for c in piv.tolist() if c >= 0]) == want
    _check("stacked F_q kernel agrees with generic_rref on packed F_2 (one word and two words a row), "
           "F_4 and F_9", stacked_kernel, failures)

    def histogram_paths():
        import numpy as np
        from .rankcode import _hist_by_codewords, _hist_by_subspaces
        f2_code = project_code(build_gtg(CodeParams(f64, 5, 2, 1, 1, 0)),
                               subspace_poly(f64, [f64.pow(f64.generator, i) for i in range(5)]))
        f729 = field_create(3, 2, 3)
        hrng = random.Random(20240409)
        mats = [[[hrng.choice(f729.fq_list()) for _ in range(3)] for _ in range(3)] for _ in range(4)]
        mats[0] = [mats[0][0], mats[0][0], [0, 0, 0]]  # a rank-1 word
        for code in (f2_code, RankCode(f729, 3, mats)):  # both m <= n
            basis = np.array(code.basis, dtype=np.int64)
            hist = _hist_by_codewords(code.gf, basis)
            assert _hist_by_subspaces(code.gf, basis) == hist, (code, hist)
            assert sum(hist) == code.cardinality
    _check("rank histograms by codewords and by subspace counts agree on F_2 5x6 and F_9 3x3 codes",
           histogram_paths, failures)

    f4_aut = {"field": {"p": 2, "e": 2, "n": 2}, "params": {"m": 2, "k": 1, "s": 1, "h": 1}}

    def aut_cosets():
        import numpy as np
        _, gf, _, _, code, _ = instance(f4_aut)
        f, n = _linalg.fq_arith(gf), code.n
        want = []  # per rho and A: the sorted invertibles of its B-space's span
        for rho in range(gf.e):
            for a_mat, null in code.right_stabilizers(autgroup.enumerate_gl(gf, code.m), rho):
                mats = np.concatenate(list(_linalg.modp_span(null, f))).reshape(-1, n, n)
                bs = sorted(_linalg.packed_mats(f, mats[_linalg.modp_rank(mats, f) == n]))
                want += [autgroup.AutTriple(_linalg.packed_mats(f, a_mat), b, rho) for b in bs]
        group = autgroup.aut_bruteforce(code)
        assert list(group) == want and len(group) == len(want), (len(group), len(want))
    _check("automorphism group held as cosets equals the per-A span reference on an F_4 cell",
           aut_cosets, failures)

    def json_writer():
        _, gf, _, S, code, _ = instance(f4_aut)
        report = autgroup.aut_report(code, S)

        def mat(x):
            return tuple(tuple(map(gf.fq_json, row)) for row in x)
        triples, verdicts = [], []  # the reference, made per triple from the group (900 triples)
        for t in report["triples"]:
            mono, a, u = autgroup.check_monomial_form(matrix_to_poly(gf, t.B), report["ell_right"])
            scalar = nuclei.mside_twisted_scalar(t.A, S, u) if mono else None
            triples.append({"A": mat(t.A), "B": mat(t.B), "rho": t.rho})
            verdicts.append({"n_side_monomial": mono, "u": u, "a": a and gf.coords(a),
                             "m_side_scalar": scalar and gf.coords(scalar)})
        edges = [{}, [], (), {"a": [{}, ()]}, None, True, False, 0.1, report["monomial_fraction"],
                 "\u00e9\u2603", "tab\t \"q\" \\ \x01", (1, 2), [(1, 2)], [(1,), (True,), (1.0,)]]
        aut, encode = aut_payload(f4_aut), json.JSONEncoder(indent=2, sort_keys=True).encode
        for value, want, least in ((aut, dict(aut, triples=triples, verdicts=verdicts), 2), (edges, edges, 1)):
            chunks = []
            json_write(value, chunks.append)
            assert "".join(chunks) == encode(want) and len(chunks) >= least, len(chunks)
    _check("JSON writer (the stdlib encoder, streamed, with the aut arrays spliced in) matches "
           "json.dumps(indent=2, sort_keys=True) of triples and verdicts made per triple on an F_4 "
           "aut payload, and of edge values", json_writer, failures)

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
