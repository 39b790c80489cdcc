"""Acceptance suite: ten exit criteria, one test per criterion.

Each test prints a single summary line (run with ``pytest -s`` to see
them all) and asserts exactly the stated property at its stated
tolerance; every tolerance here is exact (integer orders, set
equality).

Two assertions are expected to fail, and they fail for a real
mathematical reason rather than an implementation bug: at the
degenerate parameter cell k = 1, h = s k (mod n) the twist factors as a
left substitution, H = (X + eta X^(q^(sk))) o G, so the true right
nucleus is conjugate to the full field of scalar multiplications
(order q^(n r)) while the closed-form description predicts the smaller
F_(q^gcd(h, n)).  Criterion 4 (right-nucleus agreement at h = 1) and
criterion 8 (monomial image of right-nucleus elements at h = 1) expose
this; the library itself reports the disagreement via agree = false,
which is the designed behavior.  See tests/test_nuclei.py::
test_right_closed_form_misses_the_degenerate_twist for the verified
counterexample.
"""

import random
from math import gcd

import pytest

from rankmetric import nuclei
from rankmetric.autgroup import (
    AutTriple,
    aut_compose,
    aut_identity,
    aut_inverse,
    aut_report,
)
from rankmetric.errors import NormConditionError
from rankmetric.gf import field_create
from rankmetric.linpoly import LinearizedPoly, reduce_mod_theta, poly_from_reduced, shift_support
from rankmetric.rankcode import (
    CodeParams,
    apply_equivalence,
    build_gtg,
    is_mrd,
    mat_identity,
    mat_is_invertible,
    mat_scale,
    project_code,
    rank_weight_distribution,
)

_FIELDS = {}


def shared_field(p, e, n):
    key = (p, e, n)
    if key not in _FIELDS:
        _FIELDS[key] = field_create(p, e, n)
    return _FIELDS[key]


GRID = [
    # name, p, n, m, k, s, h, eta selector, subspace selector
    ("q2-n4-m3-k1",        2, 4, 3, 1, 1, 0, "0", "generic:0"),
    ("q2-n5-m4-k2",        2, 5, 4, 2, 1, 0, "0", "generic:0"),
    ("q2-n6-m4-k2",        2, 6, 4, 2, 1, 0, "0", "generic:0"),
    ("q2-n6-m5-k3",        2, 6, 5, 3, 1, 0, "0", "generic:0"),
    ("q2-n6-m3-k1-F8",     2, 6, 3, 1, 1, 0, "0", "subfield:3"),
    ("q3-n4-m3-k1",        3, 4, 3, 1, 1, 0, "0", "generic:0"),
    ("q3-n4-m3-k2",        3, 4, 3, 2, 1, 0, "0", "generic:0"),
    ("q3-n4-m3-k1-ns-h1",  3, 4, 3, 1, 1, 1, "nonsquare-min", "generic:0"),
    ("q3-n4-m3-k1-ns-h2",  3, 4, 3, 1, 1, 2, "nonsquare-min", "generic:0"),
    ("q3-n4-m3-k1-ns-h3",  3, 4, 3, 1, 1, 3, "nonsquare-min", "generic:0"),
    ("q3-n4-m3-k2-ns-h1",  3, 4, 3, 2, 1, 1, "nonsquare-min", "generic:0"),
]


class Instance:
    def __init__(self, name, p, n, m, k, s, h, eta_sel, sub_sel):
        from rankmetric.cli import resolve_eta, resolve_subspace
        self.name = name
        self.gf = shared_field(p, 1, n)
        eta = resolve_eta(self.gf, eta_sel)
        self.params = CodeParams(self.gf, m, k, s, h, eta)
        self.S = resolve_subspace(self.gf, sub_sel, m)
        self.code = project_code(build_gtg(self.params), self.S)
        self.flags = nuclei.hypothesis_check(self.params, self.S)
        self._hist = None
        self._middle = None
        self._right = None

    @property
    def hist(self):
        if self._hist is None:
            self._hist = rank_weight_distribution(self.code)
        return self._hist

    @property
    def d(self):
        return next(i for i, c in enumerate(self.hist) if i > 0 and c)

    @property
    def middle(self):
        if self._middle is None:
            self._middle = nuclei.middle_report(self.params, self.S, self.code)
        return self._middle

    @property
    def right(self):
        if self._right is None:
            self._right = nuclei.right_report(self.params, self.S, self.code)
        return self._right


@pytest.fixture(scope="module")
def grid():
    return [Instance(*row) for row in GRID]


def report(criterion, failures):
    if failures:
        print(f"ACCEPTANCE {criterion}: FAIL ({len(failures)} violation(s))")
        for f in failures:
            print(f"  - {f}")
    else:
        print(f"ACCEPTANCE {criterion}: PASS")
    assert not failures, f"{criterion}: " + "; ".join(failures)


def test_c01_mrd_verification(grid):
    failures = []
    for inst in grid:
        verdict, cert = is_mrd(inst.code)
        want_d = inst.params.m - inst.params.k + 1
        if not verdict:
            failures.append(f"{inst.name}: not MRD ({cert})")
        if cert["d"] != want_d:
            failures.append(f"{inst.name}: d = {cert['d']}, expected {want_d}")
    report("C1 MRD verification", failures)


def test_c02_norm_condition_impossible_at_q2():
    failures = []
    checked = 0
    for n in range(2, 9):
        gf = shared_field(2, 1, n)
        steps = [s for s in range(1, n) if gcd(s, n) == 1] or [1]
        for k in range(1, n):
            m = k + 1
            if m > n:
                continue
            for s in steps:
                for eta in range(1, 2 ** n):
                    checked += 1
                    try:
                        CodeParams(gf, m, k, s, 0, eta)
                        failures.append(f"n={n} k={k} s={s} eta={eta}: accepted")
                    except NormConditionError:
                        pass
    assert checked > 10000
    report("C2 norm-condition impossibility at q=2", failures)


def test_c03_middle_nucleus_theorem(grid):
    failures = []
    named = {"q2-n6-m3-k1-F8": 8,
             "q3-n4-m3-k1-ns-h1": 3,
             "q3-n4-m3-k1-ns-h2": 3,
             "q3-n4-m3-k1-ns-h3": 3}
    for inst in grid:
        if not inst.flags["middle_enabled"]:
            continue
        rep = inst.middle
        if rep.agree is not True:
            failures.append(
                f"{inst.name}: middle bf order {rep.bruteforce_order} != "
                f"predicted {rep.predicted_order} (elementwise)")
        want = named.get(inst.name)
        if want is not None and rep.bruteforce_order != want:
            failures.append(f"{inst.name}: middle order {rep.bruteforce_order}, expected {want}")
    report("C3 middle-nucleus theorem", failures)


def test_c04_right_nucleus_theorem(grid):
    failures = []
    named = {"q2-n6-m3-k1-F8": 4096,
             "q3-n4-m3-k1-ns-h1": 3,
             "q3-n4-m3-k1-ns-h2": 9}
    for inst in grid:
        if not inst.flags["right_enabled"]:
            continue
        rep = inst.right
        if rep.agree is not True:
            failures.append(
                f"{inst.name}: right bf order {rep.bruteforce_order} != "
                f"predicted {rep.predicted_order} (elementwise)")
        want = named.get(inst.name)
        if want is not None and rep.bruteforce_order != want:
            failures.append(f"{inst.name}: right order {rep.bruteforce_order}, expected {want}")
    report("C4 right-nucleus theorem", failures)


def test_c05_nuclei_are_fields(grid):
    failures = []
    for inst in grid:
        d = inst.d
        if d <= 1:
            continue
        is_field, _ = nuclei.nucleus_field_structure(inst.middle, inst.gf)
        if not is_field:
            failures.append(f"{inst.name}: middle nucleus is not a field (d = {d})")
        m, n = inst.params.m, inst.gf.n
        if max(d, m - d + 2) >= n // 2 + 1:
            is_field_r, _ = nuclei.nucleus_field_structure(inst.right, inst.gf)
            if not is_field_r:
                failures.append(f"{inst.name}: right nucleus should be a field")
    report("C5 nuclei are fields", failures)


def _random_gl(gf, n, rng):
    while True:
        mat = tuple(tuple(rng.choice(gf.fq_list()) for _ in range(n)) for _ in range(n))
        if mat_is_invertible(gf, mat):
            return mat


def test_c06_equivalence_invariance(grid):
    rng = random.Random(20240402)
    failures = []
    for inst in grid:
        base_hist = inst.hist
        base_m = inst.middle.bruteforce_order
        base_r = inst.right.bruteforce_order if inst.gf.one in inst.S.alphas else None
        for trial in range(10):
            A = _random_gl(inst.gf, inst.params.m, rng)
            B = _random_gl(inst.gf, inst.gf.n, rng)
            moved = apply_equivalence(inst.code, A, B)
            if rank_weight_distribution(moved) != base_hist:
                failures.append(f"{inst.name} trial {trial}: rank weights changed")
                break
            if nuclei.middle_nucleus_bruteforce(moved).bruteforce_order != base_m:
                failures.append(f"{inst.name} trial {trial}: middle order changed")
                break
            moved_r = nuclei.right_nucleus_bruteforce(moved).bruteforce_order
            if base_r is not None and moved_r != base_r:
                failures.append(f"{inst.name} trial {trial}: right order changed")
                break
    report("C6 equivalence invariance", failures)


def test_c07_shift_lemma(grid):
    rng = random.Random(20240403)
    failures = []
    seen = set()
    for inst in grid:
        key = (id(inst.gf), inst.S.alphas)
        if key in seen:
            continue
        seen.add(key)
        gf, S, s = inst.gf, inst.S, inst.params.s
        for trial in range(50):
            phi = LinearizedPoly(gf, [rng.randrange(gf.order) for _ in range(gf.n)])
            a0 = shift_support(phi, S, s, 0)
            if not a0:
                continue
            for t in range(0, S.m - max(a0)):
                if shift_support(phi, S, s, t) != frozenset(i + t for i in a0):
                    failures.append(f"{inst.name} trial {trial} t={t}: shift identity broken")
    report("C7 shift lemma", failures)


def test_c08_mono_to_mono_consequences(grid):
    failures = []
    for inst in grid:
        s = inst.params.s
        # right side: nucleus elements send a X to scalars mod theta_S.
        # checking a over a field basis suffices (the reduced coefficients
        # are F_q-linear in a)
        if inst.flags["right_mono_a"] or inst.flags["right_mono_b"]:
            for Y in inst.right.bruteforce_basis:
                if not nuclei.right_element_sends_monomials_to_monomials(Y, inst.S, s):
                    failures.append(f"{inst.name}: right-nucleus element maps "
                                    f"some aX off the scalar line")
                    break
        middle_flags = (inst.flags["middle_mono_a"] or inst.flags["middle_mono_b"]
                        or inst.flags["middle_case_a"] or inst.flags["middle_case_b"]
                        or inst.flags["middle_case_c"] or inst.flags["middle_case_d"])
        if middle_flags:
            for Z in inst.middle.bruteforce_basis:
                if nuclei.middle_element_is_scalar_on_span(Z, inst.S) is None:
                    failures.append(f"{inst.name}: middle-nucleus element is "
                                    f"not scalar on U_S")
                    break
    report("C8 mono-to-mono consequences", failures)


def _group_check(gf, triples, rng, failures, name):
    autset = set(triples)
    m = len(triples[0].A)
    n = len(triples[0].B)
    if aut_identity(gf, m, n) not in autset:
        failures.append(f"{name}: identity triple missing")
    for t in triples:
        if aut_inverse(gf, t) not in autset:
            failures.append(f"{name}: inverse of a triple missing")
            return
    if len(triples) <= 128:
        pairs = [(t, u) for t in triples for u in triples]
    else:
        pairs = [(rng.choice(triples), rng.choice(triples)) for _ in range(4000)]
    for t, u in pairs:
        if aut_compose(gf, t, u) not in autset:
            failures.append(f"{name}: composition escapes the set")
            return


def test_c09_automorphism_necessity(grid):
    rng = random.Random(20240404)
    failures = []
    cases = [inst for inst in grid if inst.name in
             ("q3-n4-m3-k1-ns-h1", "q2-n4-m3-k1")]
    assert len(cases) == 2
    for inst in cases:
        rep = aut_report(inst.code, inst.S)
        triples = list(rep["triples"])
        if not triples:
            failures.append(f"{inst.name}: empty automorphism set")
            continue
        _group_check(inst.gf, triples, rng, failures, inst.name)
        # middle-nucleus invertibles give (Z, I, id) automorphisms
        autset = set(triples)
        eye = mat_identity(inst.gf, inst.gf.n)
        for c in inst.gf.fq_list():
            if c == 0:
                continue
            z = mat_scale(inst.gf, c, mat_identity(inst.gf, inst.params.m))
            if AutTriple(z, eye, 0) not in autset:
                failures.append(f"{inst.name}: scalar subgroup element missing")
        ts = rep.get("theta")
        if ts is not None and ts.meets_subfield_outside_fq:
            if rep["monomial_fraction"] != 1.0:
                failures.append(
                    f"{inst.name}: monomial fraction {rep['monomial_fraction']} < 1 "
                    f"although the Theta predicate holds")
            for v in rep["verdicts"]:
                if v["n_side_monomial"] and v.get("m_side_scalar") is None:
                    failures.append(f"{inst.name}: m-side map not of the "
                                    f"twisted-scalar form")
                    break
        else:
            print(f"  note: {inst.name}: Theta predicate unavailable "
                  f"(ansatz_mismatch={rep.get('ansatz_mismatch')}), "
                  f"necessity check skipped; group order {rep['order']}")
    report("C9 automorphism necessity", failures)


def test_c10_reduction_correctness(grid):
    rng = random.Random(20240405)
    failures = []
    seen = set()
    subspaces = []
    for inst in grid:
        key = (id(inst.gf), inst.S.alphas, inst.params.s)
        if key not in seen:
            seen.add(key)
            subspaces.append((inst.gf, inst.S, inst.params.s))
    per = max(1, 1000 // len(subspaces))
    for gf, S, s in subspaces:
        for _ in range(per):
            f = LinearizedPoly(gf, [rng.randrange(gf.order) for _ in range(gf.n)])
            g = LinearizedPoly(gf, [rng.randrange(gf.order) for _ in range(gf.n)])
            rf = reduce_mod_theta(f, S, s)
            rg = reduce_mod_theta(g, S, s)
            lift = poly_from_reduced(S, s, rf)
            if any(f(u) != lift(u) for u in S.subspace()):
                failures.append("representative disagrees on U_S")
                break
            if reduce_mod_theta(lift, S, s) != rf:
                failures.append("reduction is not idempotent")
                break
            if reduce_mod_theta(f + g, S, s) != tuple(
                    gf.add(a, b) for a, b in zip(rf, rg)):
                failures.append("reduction is not F_q-linear")
                break
    report("C10 transversal/reduction correctness", failures)
