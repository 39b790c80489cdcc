import functools
import time
import types

import numpy as np
import pytest

from rankmetric import _linalg, autgroup
from rankmetric.cli import resolve_eta, resolve_subspace
from rankmetric.errors import AnsatzMismatchError, EnumerationGuardError
from rankmetric.gf import field_create
from rankmetric.linpoly import LinearizedPoly, matrix_to_poly, poly_to_matrix, subspace_poly
from rankmetric.autgroup import (
    AutTriple,
    aut_bruteforce,
    aut_compose,
    aut_identity,
    aut_inverse,
    aut_report,
    check_monomial_form,
    enumerate_gl,
    field_conjugates,
    generate_known_automorphisms,
    gl_order,
    monomial_forms,
    mside_twisted_scalar,
    normalizer_elements,
    right_nucleus_conjugates,
    right_nucleus_polyform,
    theta_set,
    triple_acts,
)
from rankmetric.nuclei import (
    middle_nucleus_bruteforce,
    nucleus_field_structure,
    right_nucleus_bruteforce,
    smallest_containing_subfield,
    subfield_fq_basis,
)
from rankmetric.rankcode import CodeParams, RankCode, build_gtg, mat_frobenius_p, mat_identity, project_code


def generic_subspace(gf, m):
    xi = gf.generator
    return subspace_poly(gf, [gf.pow(xi, i) for i in range(m)])


@pytest.fixture(scope="module")
def tiny_code():
    f8 = field_create(2, 1, 3)
    params = CodeParams(f8, 2, 1, 1, 0, 0)
    S = generic_subspace(f8, 2)
    return f8, params, S, project_code(build_gtg(params), S)


@pytest.fixture(scope="module")
def q2n4_report():
    f16 = field_create(2, 1, 4)
    params = CodeParams(f16, 3, 1, 1, 0, 0)
    S = generic_subspace(f16, 3)
    code = project_code(build_gtg(params), S)
    return f16, params, S, code, aut_report(code, S)


# -- theta sets -----------------------------------------------------------------

def test_theta_of_scalar_nucleus(f81):
    polys = [LinearizedPoly.identity(f81)]  # F_q scalars only
    ts = theta_set(polys, 4, f81)
    assert ts.elements == frozenset(f81.fq_list())
    assert not ts.meets_subfield_outside_fq
    assert not ts.is_full_field


def test_theta_of_full_scalar_family(f16):
    polys = [LinearizedPoly.monomial(f16, b, 0) for b in f16.power_basis()]
    ts = theta_set(polys, 4, f16)
    assert len(ts.elements) == 16
    assert ts.is_full_field and ts.meets_subfield_outside_fq


def test_theta_of_twisted_h2(f81):
    xi = f81.generator
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 2, xi)), S)
    polys = right_nucleus_polyform(right_nucleus_bruteforce(code).bruteforce_basis, f81)
    ts = theta_set(polys, 4, f81)
    assert len(ts.elements) == 9  # F_9
    assert ts.meets_subfield_outside_fq and not ts.is_full_field


def test_theta_rejects_off_grid_support(f81):
    polys = [LinearizedPoly.monomial(f81, 1, 1)]  # X^q is off the ell=4 grid
    with pytest.raises(AnsatzMismatchError):
        theta_set(polys, 4, f81)


# -- monomial form ---------------------------------------------------------------

def test_check_monomial_form(f16):
    xi = f16.generator
    assert check_monomial_form(LinearizedPoly.identity(f16), 4) == (True, 1, 0)
    assert check_monomial_form(LinearizedPoly.monomial(f16, xi, 2), 4) == (True, xi, 2)
    two = LinearizedPoly(f16, [1, 1, 0, 0])
    assert check_monomial_form(two, 4)[0] is False
    # folding mod X^(q^ell) - X: X and X^(q^2) collide at ell = 2
    folded = check_monomial_form(LinearizedPoly(f16, [1, 0, 1, 0]), 2)
    assert folded[0] in (True, False)  # deterministic sum, just exercise it
    assert check_monomial_form(LinearizedPoly(f16, [1, 0, 1, 0]), 2) == folded


def test_mside_twisted_scalar(f81):
    xi = f81.generator
    S = generic_subspace(f81, 3)
    # the identity acts as c -> c = 1 * c^(q^0)
    assert mside_twisted_scalar(mat_identity(f81, 3), S, 0) == 1
    # scalar action c -> 2c
    two = tuple(tuple(2 if i == j else 0 for j in range(3)) for i in range(3))
    assert mside_twisted_scalar(two, S, 0) == 2


# -- normalizer -------------------------------------------------------------------

def test_normalizer_of_scalars_is_whole_gl():
    f9 = field_create(3, 1, 2)
    norm = normalizer_elements([mat_identity(f9, 2)], f9)
    assert len(norm) == gl_order(3, 2)


def test_normalizer_of_the_full_matrix_algebra_is_whole_gl():
    f9 = field_create(3, 1, 2)
    units = [tuple(tuple(int((i, j) == cell) for j in range(2)) for i in range(2))
             for cell in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    assert normalizer_elements(units, f9) == _linalg.packed_mats(_linalg.fq_arith(f9), list(enumerate_gl(f9, 2)))


def test_normalizer_of_field_multiplications(f16):
    # N = all multiplications by F_16: the q^u-Frobenius monomial maps
    # normalize it, and the normalizer is a group containing the unit maps
    mults = [poly_to_matrix(LinearizedPoly.monomial(f16, b, 0)) for b in f16.power_basis()]
    norm = normalizer_elements(mults, f16)
    xi = f16.generator
    for u in range(4):
        frob_map = poly_to_matrix(LinearizedPoly.monomial(f16, xi, u))
        assert frob_map in norm
    # every invertible multiplication is itself in the normalizer
    unit = poly_to_matrix(LinearizedPoly.monomial(f16, xi, 0))
    assert unit in norm
    # and the n-side polynomials of normalizer elements are monomial mod
    # X^(q^ell) - X with ell = n here (Theta = F_(q^n))
    for M in norm[:40]:
        mono, _, _ = check_monomial_form(matrix_to_poly(f16, M), 4)
        assert mono


def test_random_matrix_usually_fails_to_normalize(f16):
    mults = [poly_to_matrix(LinearizedPoly.monomial(f16, b, 0)) for b in f16.power_basis()]
    norm = set(normalizer_elements(mults, f16))
    assert len(norm) < gl_order(2, 4)  # something is excluded


def test_normalizer_guard():
    f64 = field_create(2, 1, 6)
    with pytest.raises(EnumerationGuardError):
        list(enumerate_gl(f64, 6, guard=1000))


# -- exhaustive automorphisms ------------------------------------------------------

def test_aut_contains_identity_and_is_group(tiny_code):
    f8, params, S, code = tiny_code
    auts = list(aut_bruteforce(code))
    assert aut_identity(f8, 2, 3) in auts
    autset = set(auts)
    for t in auts:
        assert aut_inverse(f8, t) in autset
        for u in auts:
            assert aut_compose(f8, t, u) in autset


def test_aut_triples_fix_the_code(tiny_code):
    f8, params, S, code = tiny_code
    for t in aut_bruteforce(code):
        images = [triple_acts(f8, t, X) for X in code.basis]
        assert all(code.contains(im) for im in images)
        # invertible semilinear maps preserve dimension, so images span the code
        from rankmetric._linalg import fq_rank
        rows = [[x for row in im for x in row] for im in images]
        assert fq_rank(rows, f8) == code.dim


def test_known_automorphisms_are_a_subgroup_of_brute(tiny_code):
    f8, params, S, code = tiny_code
    known = generate_known_automorphisms(params, S, code)
    brute = set(aut_bruteforce(code))
    assert set(known) <= brute
    assert aut_identity(f8, 2, 3) in known


def test_necessity_on_q2n4(q2n4_report):
    f16, params, S, code, rep = q2n4_report
    ts = rep["theta"]
    assert ts.meets_subfield_outside_fq and ts.is_full_field
    assert rep["monomial_fraction"] == 1.0
    for v in rep["verdicts"]:
        assert v["n_side_monomial"]
        assert v["m_side_scalar"] is not None


def test_known_equals_brute_when_theta_full(q2n4_report):
    f16, params, S, code, rep = q2n4_report
    known = generate_known_automorphisms(params, S, code)
    assert set(known) == set(rep["triples"])


def test_aut_contains_nucleus_scalars(q2n4_report):
    f16, params, S, code, rep = q2n4_report
    auts = set(rep["triples"])
    # invertible right-nucleus elements give (I, Y, 0) automorphisms
    nr = right_nucleus_bruteforce(code)
    from rankmetric.nuclei import span_matrices
    from rankmetric.rankcode import mat_is_invertible
    count = 0
    for Y in span_matrices(f16, nr.bruteforce_basis):
        if mat_is_invertible(f16, Y):
            assert AutTriple(mat_identity(f16, 3), Y, 0) in auts
            count += 1
    assert count == 15


def _count_walks(monkeypatch):
    """The m of every GL(m, q) walk ``aut_bruteforce`` starts from now on."""
    walks = []

    def counted(gf, n, *args):
        walks.append(n)
        return enumerate_gl(gf, n, *args)
    monkeypatch.setattr(autgroup, "enumerate_gl", counted)
    return walks


def test_aut_guard(f64, tiny_code, monkeypatch):
    S = generic_subspace(f64, 5)
    code = project_code(build_gtg(CodeParams(f64, 5, 3, 1, 0, 0)), S)
    with pytest.raises(EnumerationGuardError):
        aut_bruteforce(code, gl_guard=100)
    # the guard fires before the right-nucleus search, which never walks GL
    _, _, _, code = tiny_code
    assert right_nucleus_conjugates(code) is not None
    walks = _count_walks(monkeypatch)
    with pytest.raises(EnumerationGuardError, match=r"\|GL\(2,2\)\| = 6 exceeds guard 5"):
        aut_bruteforce(code, gl_guard=5)
    assert len(aut_bruteforce(code, gl_guard=6)) == len(aut_bruteforce(code)) > 0
    assert walks == []


def test_known_retains_nucleus_scalars(f81):
    from rankmetric.rankcode import mat_scale
    xi = f81.generator
    S = generic_subspace(f81, 3)
    params = CodeParams(f81, 3, 1, 1, 2, xi)
    code = project_code(build_gtg(params), S)
    known = generate_known_automorphisms(params, S, code)
    eye = mat_identity(f81, 4)
    for c in (1, 2):  # the middle nucleus here is the F_3 scalars
        triple = AutTriple(mat_scale(f81, c, mat_identity(f81, 3)), eye, 0)
        assert triple in known


def test_normalizer_exponent_class_confinement(f16):
    # U_S = F_4 inside F_16, untwisted, k = 1, m = 2: the right nucleus is
    # {c_0 X + c_1 X^(q^2)} of order q^(n r) = 2^8, and Theta = F_16 is the
    # full field.  Normalizer elements must then have all nonzero
    # coefficients in a single exponent class mod ell = 2.
    from rankmetric.nuclei import span_matrices, subfield_fq_basis
    from rankmetric.rankcode import mat_is_invertible, mat_mul
    from rankmetric._linalg import fq_inv
    import random as _random

    S4 = subspace_poly(f16, subfield_fq_basis(f16, 2))
    params = CodeParams(f16, 2, 1, 1, 0, 0)
    code = project_code(build_gtg(params), S4)
    nr = right_nucleus_bruteforce(code)
    assert nr.bruteforce_order == 2 ** 8
    polys = right_nucleus_polyform(nr.bruteforce_basis, f16)
    ts = theta_set(polys, 2, f16)
    assert ts.is_full_field

    norm = normalizer_elements(nr.bruteforce_basis, f16)
    norm_set = set(norm)
    # invertible nucleus elements are in their own normalizer
    for Y in span_matrices(f16, nr.bruteforce_basis):
        if mat_is_invertible(f16, Y):
            assert Y in norm_set
    # exponent classes mod ell
    for M in norm:
        support = matrix_to_poly(f16, M).support()
        assert len({i % 2 for i in support}) == 1, support
    # group structure: inverses and sampled products stay inside
    rng = _random.Random(99)
    for M in norm[:50]:
        m_inv = tuple(tuple(r) for r in fq_inv([list(r) for r in M], f16))
        assert m_inv in norm_set
    for _ in range(300):
        a, b = rng.choice(norm), rng.choice(norm)
        assert mat_mul(f16, a, b) in norm_set


def test_generic_backend_aut_over_f4():
    # F_{4^3}: e = 2, so the search runs the Python constraint builder and
    # both field automorphisms rho = 0, 1 of F_4
    f64q4 = field_create(2, 2, 3)
    params = CodeParams(f64q4, 2, 1, 1, 0, 0)
    S = subspace_poly(f64q4, [1, f64q4.generator])
    code = project_code(build_gtg(params), S)
    group = aut_bruteforce(code)
    assert len(group) == 1134
    assert {t.rho for t in group} == {0, 1}
    assert all(code.contains(triple_acts(f64q4, t, X)) for t in group for X in code.basis)
    known = generate_known_automorphisms(params, S, code)
    assert len(known) == 567
    assert set(known) <= set(group)


def test_zero_code_aut_is_refused_with_an_honest_message():
    f8 = field_create(2, 1, 3)
    with pytest.raises(EnumerationGuardError, match="the zero code; its automorphism set is all of"):
        aut_bruteforce(RankCode(f8, 2, []))


def _known_by_monomials(params, S, code):
    """Slow reference for ``generate_known_automorphisms``: the matrix of
    every monomial b X^(q^u) from its own ``poly_to_matrix``, and every
    image A X^rho B tested against the code's dual."""
    gf, n, m, dim = params.gf, params.gf.n, code.m, code.dim
    mside = []
    for w in range(n):
        for a in range(1, gf.order):
            rows = tuple(S.alpha_coords(gf.mul(a, gf.frobenius(al, w))) for al in S.alphas)
            if None not in rows:
                mside.append(rows)
    nside = [poly_to_matrix(LinearizedPoly.monomial(gf, b, u)) for u in range(n) for b in range(1, gf.order)]
    f = _linalg.fq_arith(gf)
    bs = f.index(nside)
    h = f.index(code.parity_rows()).reshape(-1, m * n).T
    out = []
    for rho in range(gf.e):
        xr = f.index([mat_frobenius_p(gf, x, rho) for x in code.basis])
        for a_mat in mside:
            images = f.matmul(f.matmul(f.index(a_mat), xr), bs[:, None]).reshape(len(nside), dim, m * n)
            outside = f.matmul(images, h).any(axis=(1, 2))
            out.extend(AutTriple(a_mat, b, rho) for b, bad in zip(nside, outside) if not bad)
    return sorted(out, key=lambda t: (t.rho, t.A, t.B))


@pytest.mark.parametrize("p, e, n, m, h, size, budget", [(3, 1, 6, 3, 1, 2912, 0.5), (2, 2, 3, 2, 0, 567, None)],
                         ids=["F3^6", "F4^3"])
def test_known_automorphisms_match_the_per_monomial_reference(p, e, n, m, h, size, budget):
    # S = (1, xi, ..., xi^(m-1)), k = 1, eta = 0; F_{4^3} is the cell of
    # test_generic_backend_aut_over_f4
    gf = field_create(p, e, n)
    params = CodeParams(gf, m, 1, 1, h, 0)
    S = subspace_poly(gf, [gf.pow(gf.generator, i) for i in range(m)])
    code = project_code(build_gtg(params), S)
    start = time.perf_counter()
    known = generate_known_automorphisms(params, S, code)
    elapsed = time.perf_counter() - start
    assert known == _known_by_monomials(params, S, code) and len(known) == size
    assert budget is None or elapsed < budget, elapsed


# (p, e, n, m, k, h, eta, subspace): the aut-exhaustive cells over F_7
# (m = 2, n = 3; most B are not monomial), F_4 (rho = 1 triples are not
# monomial), and F_2 at n = 5 and n = 6
VERDICT_CELLS = [(7, 1, 3, 2, 1, 1, "nonsquare-min", "generic:1"), (2, 2, 3, 2, 1, 0, "0", "generic:3"),
                 (2, 1, 5, 3, 1, 1, "0", "generic:1"), (2, 1, 6, 3, 2, 0, "0", "generic:0")]


@pytest.mark.parametrize("p, e, n, m, k, h, eta, sub", VERDICT_CELLS, ids=["F7^3", "F4^3", "F2^5", "F2^6"])
def test_streamed_verdicts_match_a_per_triple_reference(p, e, n, m, k, h, eta, sub):
    gf = field_create(p, e, n)
    params = CodeParams(gf, m, k, 1, h, resolve_eta(gf, eta))
    S = resolve_subspace(gf, sub, m)
    rep = aut_report(project_code(build_gtg(params), S), S)
    assert isinstance(rep["verdicts"], types.GeneratorType)
    want = []
    for t in rep["triples"]:
        mono, a, u = check_monomial_form(matrix_to_poly(gf, t.B), rep["ell_right"])
        want.append({"n_side_monomial": mono, "a": a, "u": u,
                     **({"m_side_scalar": mside_twisted_scalar(t.A, S, u)} if mono else {})})
    assert list(rep["verdicts"]) == want
    assert rep["monomial_fraction"] == sum(v["n_side_monomial"] for v in want) / len(want)
    assert (rep["monomial_fraction"] < 1) == (p ** e in (4, 7))


# (p, e, n, m, k, h, eta, subspace): the six seed-0 aut-exhaustive ops,
# the C4 cell q3-n4-m3-k1-ns-h1 (right nucleus of order 81), an e = 2
# cell over F_9 and an e = 3 cell over F_8 (every rho holds members)
COSET_CELLS = {
    "aut-00": (2, 1, 6, 3, 2, 0, "0", "generic:0"),
    "aut-01": (2, 1, 5, 3, 1, 0, "0", "generic:1"),
    "aut-02": (5, 1, 3, 2, 1, 1, "nonsquare-min", "generic:0"),
    "aut-03": (7, 1, 3, 2, 1, 1, "nonsquare-min", "generic:1"),
    "aut-04": (3, 1, 4, 2, 1, 2, "0", "generic:0"),
    "aut-05": (2, 2, 3, 2, 1, 0, "0", "generic:3"),
    "C4": (3, 1, 4, 3, 1, 1, "nonsquare-min", "generic:0"),
    "F9^2": (3, 2, 2, 2, 1, 1, "generator", "generic:0"),
    "F8^2": (2, 3, 2, 2, 1, 1, "0", "generic:0"),
}


def _per_a_reference(code):
    """The group the slow way: every (rho, A) keeps the sorted invertible
    matrices of the ``modp_span`` of its own B-space."""
    gf, n = code.gf, code.n
    f = _linalg.fq_arith(gf)
    out = []
    for rho in range(gf.e):
        for a_mat, null in code.right_stabilizers(enumerate_gl(gf, code.m), rho):
            mats = np.concatenate(list(_linalg.modp_span(null, f))).reshape(-1, n, n)
            bs = _linalg.packed_mats(f, mats[_linalg.modp_rank(mats, f) == n])
            out.extend(AutTriple(_linalg.packed_mats(f, a_mat), b, rho) for b in sorted(bs))
    return out


def _unit_count(code):
    gf, n = code.gf, code.n
    f = _linalg.fq_arith(gf)
    basis = f.index(right_nucleus_bruteforce(code).bruteforce_basis).reshape(-1, n * n)
    return sum(int((_linalg.modp_rank(mats.reshape(-1, n, n), f) == n).sum()) for mats in _linalg.modp_span(basis, f))


def _code(p, e, n, m, k, h, eta, sub):
    gf = field_create(p, e, n)
    eta = gf.generator if eta == "generator" else resolve_eta(gf, eta)
    return project_code(build_gtg(CodeParams(gf, m, k, 1, h, eta)), resolve_subspace(gf, sub, m))


@pytest.mark.parametrize("p, e, n, m, k, h, eta, sub", COSET_CELLS.values(), ids=COSET_CELLS.keys())
def test_group_is_its_members_times_the_right_nucleus_units(p, e, n, m, k, h, eta, sub, monkeypatch):
    # every cell's right nucleus is F_{q^n}: the search takes no GL walk
    code = _code(p, e, n, m, k, h, eta, sub)
    walks = _count_walks(monkeypatch)
    group = aut_bruteforce(code)
    assert walks == []
    want = _per_a_reference(code)
    assert list(group) == want and list(group) == want  # in order, and read twice
    units = _unit_count(code)
    assert len(group) == len(group.members) * units == len(want)
    assert all(len(coset) == units for coset in group.cosets)
    assert len(group.cosets) < len(group.members) or len(group.members) == 1
    if e > 1:
        assert {rho for rho, _, _ in group.members} == set(range(e))


@pytest.mark.parametrize("p, e, n, m, k, h, eta, sub", COSET_CELLS.values(), ids=COSET_CELLS.keys())
def test_monomial_forms_by_one_product_per_coset_match_the_per_b_path(p, e, n, m, k, h, eta, sub):
    gf = field_create(p, e, n)
    eta = gf.generator if eta == "generator" else resolve_eta(gf, eta)
    S = resolve_subspace(gf, sub, m)
    code = project_code(build_gtg(CodeParams(gf, m, k, 1, h, eta)), S)
    group = aut_bruteforce(code)
    ell = smallest_containing_subfield(S)
    want = [[check_monomial_form(matrix_to_poly(gf, b), ell) for b in group.coset(c)]
            for c in range(len(group.cosets))]
    assert monomial_forms(gf, group.cosets, ell) == want
    rep = aut_report(code, S)
    assert rep["ell_right"] == ell
    assert rep["monomial_fraction"] == sum(sum(f[0] for f in want[c]) for _, _, c in group.members) / len(group)


# (p, e, n, m, k, h, eta, subspace) and (the right nucleus's dimension,
# whether it is a field, the middle nucleus's dimension): cells whose
# right nucleus is not F_{q^n}, so the search walks GL(m, q) once per
# rho: N_r = F_9 inside F_81; both nuclei F_3 at k = 2; N_r of dimension
# n that is not a field (an m = k + 1 cell)
WALK_CELLS = {
    "Nr=F9": ((3, 1, 4, 3, 1, 2, "nonsquare-min", "generic:0"), (2, True, 1)),
    "Nr=Nm=F3": ((3, 1, 3, 3, 2, 1, "nonsquare-min", "generic:0"), (1, True, 1)),
    "Nr-dim-n-not-a-field": ((3, 1, 4, 2, 1, 2, "nonsquare-min", "generic:0"), (4, False, 1)),
}


@pytest.mark.parametrize("cell, nuclei", WALK_CELLS.values(), ids=WALK_CELLS.keys())
def test_codes_whose_right_nucleus_is_not_the_field_walk_gl(cell, nuclei, monkeypatch):
    code = _code(*cell)
    nr = right_nucleus_bruteforce(code)
    assert (len(nr.bruteforce_basis), nucleus_field_structure(nr, code.gf)[0],
            len(middle_nucleus_bruteforce(code).bruteforce_basis)) == nuclei
    assert right_nucleus_conjugates(code) is None
    walks = _count_walks(monkeypatch)
    assert list(aut_bruteforce(code)) == _per_a_reference(code)
    assert walks == [code.m] * code.gf.e


def _diagonal_units(size):
    return [tuple(tuple(int(i == j == t) for j in range(size)) for i in range(size)) for t in range(size)]


def test_a_right_nucleus_of_dimension_n_with_no_element_of_degree_n_walks_gl(monkeypatch):
    # X e_j in F_2 e_j for each column j: the right nucleus is the diagonal
    # algebra F_2^3, where every element satisfies x^2 = x
    f8 = field_create(2, 1, 3)
    code = RankCode(f8, 3, _diagonal_units(3))
    assert right_nucleus_bruteforce(code).bruteforce_order == 8
    assert right_nucleus_conjugates(code) is None
    walks = _count_walks(monkeypatch)
    group = aut_bruteforce(code)
    assert list(group) == _per_a_reference(code) and len(group) == 6  # the pairs (P, P^-1), P a permutation
    assert walks == [3]


def _index_basis(gf, mats):
    return _linalg.fq_arith(gf).index(mats).reshape(len(mats), -1)


@pytest.mark.parametrize("p, e, n", [(2, 1, 4), (2, 1, 6), (3, 1, 2), (3, 1, 3), (2, 2, 3), (2, 2, 2)])
def test_field_certificate_of_the_multiplications_of_a_field(p, e, n):
    gf = field_create(p, e, n)
    f = _linalg.fq_arith(gf)
    mults = [poly_to_matrix(LinearizedPoly.monomial(gf, b, 0)) for b in gf.power_basis()]
    conj = field_conjugates(f, _index_basis(gf, mults), n)
    assert conj is not None and nucleus_field_structure(mults, gf) == (True, gf.q ** n)
    # n distinct conjugates in the span, each the q-th power of the one before
    h = _linalg.modp_dual(_index_basis(gf, mults), f)
    assert not f.matmul(conj.reshape(n, n * n), h.T).any()
    assert len({c.tobytes() for c in conj}) == n
    for prev, c in zip(conj, conj[1:]):
        assert (functools.reduce(f.matmul, [prev] * gf.q) == c).all()


# algebras of dimension n that are not fields: F_q x F_q (diagonal), the
# dual numbers F_q[x]/(x^2) (a nilpotent matrix), and F_2^3, which has no
# element of degree 3, so no generator is found at all
NON_FIELDS = {
    "FqxFq-q2": ((2, 1, 2), _diagonal_units(2)),
    "FqxFq-q3": ((3, 1, 2), _diagonal_units(2)),
    "FqxFq-q4": ((2, 2, 2), _diagonal_units(2)),
    "dual-numbers-q2": ((2, 1, 2), [((1, 0), (0, 1)), ((0, 1), (0, 0))]),
    "dual-numbers-q3": ((3, 1, 2), [((1, 0), (0, 1)), ((0, 1), (0, 0))]),
    "dual-numbers-q4": ((2, 2, 2), [((1, 0), (0, 1)), ((0, 1), (0, 0))]),
    "F2^3": ((2, 1, 3), _diagonal_units(3)),
}


@pytest.mark.parametrize("field, basis", NON_FIELDS.values(), ids=NON_FIELDS.keys())
def test_field_certificate_rejects_algebras_that_are_not_fields(field, basis):
    gf = field_create(*field)
    n = len(basis)
    assert field_conjugates(_linalg.fq_arith(gf), _index_basis(gf, basis), n) is None
    assert nucleus_field_structure(basis, gf) == (False, None)
