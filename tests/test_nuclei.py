import itertools
import random
import time

import numpy as np
import pytest

from rankmetric._linalg import chunk_len, fq_arith, fq_rref, generic_nullspace, modp_nullspace, packed_mats
from rankmetric.autgroup import enumerate_gl
from rankmetric.cli import _guards, resolve_instance
from rankmetric.errors import HypothesisNotMetError, OneNotInSError
from rankmetric.gf import field_create
from rankmetric.linpoly import subspace_poly
from rankmetric.nuclei import (
    hypothesis_check,
    largest_linearity_field,
    middle_element_is_scalar_on_span,
    middle_nucleus_bruteforce,
    middle_report,
    nucleus_field_structure,
    predict_middle_nucleus,
    predict_right_nucleus,
    right_coefficient_space,
    right_element_sends_monomials_to_monomials,
    right_nucleus_bruteforce,
    right_report,
    smallest_containing_subfield,
    span_matrices,
    spans_equal,
    subfield_fq_basis,
)
from rankmetric.rankcode import (
    CodeParams,
    RankCode,
    apply_equivalence,
    build_gtg,
    mat_identity,
    mat_mul,
    mat_rank,
    mat_scale,
    mat_vec,
    project_code,
    vec_mat,
)


def generic_subspace(gf, m):
    xi = gf.generator
    return subspace_poly(gf, [gf.pow(xi, i) for i in range(m)])


def full_space(gf, m):
    basis = []
    for i in range(m):
        for j in range(gf.n):
            mat = [[0] * gf.n for _ in range(m)]
            mat[i][j] = 1
            basis.append(tuple(tuple(r) for r in mat))
    return RankCode(gf, m, basis)


def subfield_code(f64, k=1):
    S8 = subspace_poly(f64, subfield_fq_basis(f64, 3))
    params = CodeParams(f64, 3, k, 1, 0, 0)
    return params, S8, project_code(build_gtg(params), S8)


# -- brute force ---------------------------------------------------------------

def test_middle_of_full_space(f16):
    code = full_space(f16, 3)
    rep = middle_nucleus_bruteforce(code)
    assert rep.bruteforce_order == 2 ** 9


def test_right_of_full_space(f16):
    code = full_space(f16, 2)
    rep = right_nucleus_bruteforce(code)
    assert rep.bruteforce_order == 2 ** 16


def test_nuclei_contain_scalars(f81):
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 2, f81.generator)), S)
    mid = middle_nucleus_bruteforce(code)
    rig = right_nucleus_bruteforce(code)
    for c in (1, 2):
        zm = mat_scale(f81, c, mat_identity(f81, 3))
        zr = mat_scale(f81, c, mat_identity(f81, 4))
        assert zm in span_matrices(f81, mid.bruteforce_basis)
        assert zr in span_matrices(f81, rig.bruteforce_basis)


def test_middle_bruteforce_matches_theorem_on_subfield_code(f64):
    params, S8, code = subfield_code(f64)
    rep = middle_nucleus_bruteforce(code)
    assert rep.bruteforce_order == 8


def test_right_bruteforce_matches_theorem_on_subfield_code(f64):
    params, S8, code = subfield_code(f64)
    rep = right_nucleus_bruteforce(code)
    assert rep.bruteforce_order == 2 ** 12


def test_brute_force_is_definitional(f81):
    # cross-check the linear solve against the definition on the whole span
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 2, f81.generator)), S)
    mid = middle_nucleus_bruteforce(code)
    rig = right_nucleus_bruteforce(code)
    for Z in span_matrices(f81, mid.bruteforce_basis):
        assert all(code.contains(mat_mul(f81, Z, B)) for B in code.basis)
    for Y in span_matrices(f81, rig.bruteforce_basis):
        assert all(code.contains(mat_mul(f81, B, Y)) for B in code.basis)


# -- field structure ---------------------------------------------------------

def test_scalar_span_is_a_field(f81):
    basis = [mat_identity(f81, 3)]
    assert nucleus_field_structure(basis, f81) == (True, 3)


def test_full_matrix_algebra_is_not_a_field(f16):
    basis = []
    for i in range(2):
        for j in range(2):
            mat = [[0, 0], [0, 0]]
            mat[i][j] = 1
            basis.append(tuple(tuple(r) for r in mat))
    ok, order = nucleus_field_structure(basis, f16)
    assert not ok and order is None


def test_right_nucleus_of_subfield_gabidulin_is_not_a_field(f64):
    # r = 2: the nucleus is a 2x2 matrix ring over F_8, which has zero divisors
    _, _, code = subfield_code(f64)
    rep = right_nucleus_bruteforce(code)
    ok, _ = nucleus_field_structure(rep, f64)
    assert not ok


def test_middle_nucleus_field_structure(f64):
    _, _, code = subfield_code(f64)
    rep = middle_nucleus_bruteforce(code)
    assert nucleus_field_structure(rep, f64) == (True, 8)


# -- structural quantities -----------------------------------------------------

def test_linearity_field_of_subfield(f64):
    S8 = subspace_poly(f64, subfield_fq_basis(f64, 3))
    assert largest_linearity_field(S8) == 3
    assert smallest_containing_subfield(S8) == 3


def test_linearity_field_generic(f81):
    S = generic_subspace(f81, 3)
    assert largest_linearity_field(S) == 1  # ell must divide gcd(m, n) = 1
    assert smallest_containing_subfield(S) == 4


def test_linearity_field_f4_span():
    f64 = field_create(2, 1, 6)
    w = f64.generator
    omega = f64.pow(w, 21)  # F_4 generator
    S = subspace_poly(f64, [1, omega, w, f64.mul(omega, w)])
    assert largest_linearity_field(S) == 2
    assert smallest_containing_subfield(S) == 6


def test_linearity_field_without_enumerating_the_subspace():
    # U_S is all of F_{2^23}: 2^23 points, above the subspace guard, and
    # closure is tested point by point through the alpha coordinates
    gf = field_create(2, 1, 23)
    S = subspace_poly(gf, gf.power_basis())
    assert largest_linearity_field(S) == 23


# -- predictions ---------------------------------------------------------------

def test_predict_middle_subfield_case(f64):
    params, S8, code = subfield_code(f64)
    pred = predict_middle_nucleus(params, S8)
    assert pred["t"] == 3 and pred["order"] == 8


def test_predict_middle_twisted(f81):
    xi = f81.generator
    S = generic_subspace(f81, 3)
    for h in (1, 2, 3):
        params = CodeParams(f81, 3, 1, 1, h, xi)
        pred = predict_middle_nucleus(params, S)
        assert pred["t"] == 1 and pred["order"] == 3
        rep = middle_report(params, S)
        assert rep.agree is True


def test_predict_middle_gabidulin_m5(f64):
    # eta must be zero at q = 2; ell_mid = 1 for a generic 5-dim span
    S = generic_subspace(f64, 5)
    params = CodeParams(f64, 5, 2, 1, 2, 0)
    pred = predict_middle_nucleus(params, S)
    assert pred["order"] == 2
    rep = middle_report(params, S)
    assert rep.agree is True and rep.bruteforce_order == 2


def test_predict_right_gabidulin(f81):
    S = generic_subspace(f81, 3)
    params = CodeParams(f81, 3, 1, 1, 0, 0)
    pred = predict_right_nucleus(params, S)
    assert pred["ell_right"] == 4 and pred["r"] == 1
    assert pred["order"] == 81
    rep = right_report(params, S)
    assert rep.agree is True


def test_predict_right_twisted_h2_h3(f81):
    xi = f81.generator
    S = generic_subspace(f81, 3)
    for h, order in ((2, 9), (3, 3)):
        params = CodeParams(f81, 3, 1, 1, h, xi)
        pred = predict_right_nucleus(params, S)
        assert pred["order"] == order
        rep = right_report(params, S)
        assert rep.agree is True and rep.bruteforce_order == order


def test_right_closed_form_misses_the_degenerate_twist(f81):
    # h = s k with k = 1 makes the twist a left substitution:
    # H = (X + eta X^(q^s)) o G, so the right nucleus is conjugate to the
    # full {c X : c in F_(q^n)} and has order q^(n r), not the closed-form
    # q^gcd(h, n).  The report flags the disagreement rather than hiding it.
    xi = f81.generator
    S = generic_subspace(f81, 3)
    params = CodeParams(f81, 3, 1, 1, 1, xi)
    pred = predict_right_nucleus(params, S)
    assert pred["order"] == 3  # the closed form itself
    rep = right_report(params, S)
    assert rep.bruteforce_order == 81
    assert rep.agree is False


def _coefficient_space_by_enumeration(gf, eta, h, shift):
    """The slow reference: test every element of F_(q^n), then take the
    RREF F_q-basis of the solutions."""
    target = gf.frobenius(eta, shift)
    sols = [c for c in range(1, gf.order) if gf.mul(eta, gf.frobenius(c, h)) == gf.mul(target, c)]
    rref, pivots = fq_rref([gf.vec_repr(c) for c in sols], gf)
    return [gf.from_vec(row) for row in rref[:len(pivots)]]


@pytest.mark.parametrize("p, e, n", [(2, 1, 4), (2, 1, 6), (3, 1, 4), (3, 1, 5), (5, 1, 3),
                                     (7, 1, 3), (2, 2, 3), (3, 2, 2)])
def test_coefficient_space_solve_matches_enumeration(p, e, n):
    gf = field_create(p, e, n)
    xi = gf.generator
    etas = sorted({0, 1} | {gf.pow(xi, t) for t in (1, 2, 3, 5, 7, 11, 13, 17)})
    for eta in etas:
        for h in range(n):
            for shift in range(n):
                want = _coefficient_space_by_enumeration(gf, eta, h, shift)
                assert right_coefficient_space(gf, eta, h, shift) == want, (eta, h, shift)


def test_coefficient_space_is_a_solve_on_an_untabled_field():
    # F_(3^12) has 531,441 elements, above the exp/log table limit, where a
    # scan of the field takes minutes
    from rankmetric.cli import _guards, resolve_instance
    config = {"field": {"p": 3, "e": 1, "n": 12},
              "params": {"m": 3, "k": 1, "s": 1, "h": 1, "eta": "nonsquare-min"},
              "subspace": "generic:0"}
    gf, params, S = resolve_instance(config, _guards(config))
    start = time.perf_counter()
    pred = predict_right_nucleus(params, S)
    assert time.perf_counter() - start < 1.0
    assert pred["coeff_dims"] == [1] and pred["order"] == 3  # F_q^gcd(h, n)


def test_predict_right_requires_one_in_s(f81):
    xi = f81.generator
    S = subspace_poly(f81, [xi, f81.pow(xi, 2), f81.pow(xi, 3)])
    params = CodeParams(f81, 3, 1, 1, 0, 0)
    with pytest.raises(OneNotInSError):
        predict_right_nucleus(params, S)


def test_right_report_normalizes_when_one_missing(f81):
    xi = f81.generator
    S_no_one = subspace_poly(f81, [xi, f81.pow(xi, 2), f81.pow(xi, 3)])
    S_with_one = generic_subspace(f81, 3)
    params = CodeParams(f81, 3, 1, 1, 0, 0)
    rep = right_report(params, S_no_one)
    assert rep.normalized is True
    assert rep.agree is True
    assert rep.bruteforce_order == right_report(params, S_with_one).bruteforce_order


def test_prediction_suppressed_on_open_case():
    f243 = field_create(3, 1, 5)
    xi = f243.generator
    params = CodeParams(f243, 4, 2, 1, 1, xi)   # (m, k) = (4, 2), eta != 0
    S = subspace_poly(f243, [1, xi, f243.pow(xi, 2), f243.pow(xi, 3)])
    with pytest.raises(HypothesisNotMetError):
        predict_right_nucleus(params, S)
    rep = right_report(params, S)
    assert rep.predicted_order is None
    assert rep.hypothesis_flags["open_case"] is True


def test_middle_case_b_enables_m3_k2(f81):
    # k = 2, m = 3 = k + 1, h != 0: the conditioned lemma still applies
    xi = f81.generator
    S = generic_subspace(f81, 3)
    params = CodeParams(f81, 3, 2, 1, 1, xi)
    flags = hypothesis_check(params, S)
    assert flags["middle_case_b"] and flags["middle_enabled"]
    assert not flags["right_enabled"] and flags["open_case_right"]
    rep = middle_report(params, S)
    assert rep.agree is True and rep.bruteforce_order == 3


# -- hypothesis flags -----------------------------------------------------------

def test_flags_eta_zero(f81):
    S = generic_subspace(f81, 3)
    flags = hypothesis_check(CodeParams(f81, 3, 1, 1, 0, 0), S)
    assert flags["eta_zero"] and flags["middle_enabled"] and flags["right_enabled"]
    assert not flags["open_case"]


def test_flags_open_k1_m2_n_eq_2h():
    f16 = field_create(2, 1, 4)
    # q = 2 admits no valid twist, so use q = 3, n = 4, h = 2
    f81 = field_create(3, 1, 4)
    xi = f81.generator
    S = subspace_poly(f81, [1, xi])
    params = CodeParams(f81, 2, 1, 1, 2, xi)
    flags = hypothesis_check(params, S)
    assert flags["open_case_middle"] and flags["open_case"]
    assert not flags["middle_enabled"]


def test_flags_middle_case_c():
    # k = 2, m = n = 4 with a valid twist: the norm condition already
    # forces the case (c) inequality
    f81 = field_create(3, 1, 4)
    xi = f81.generator
    params = CodeParams(f81, 4, 2, 1, 0, xi)
    S = subspace_poly(f81, f81.power_basis())
    flags = hypothesis_check(params, S)
    assert flags["middle_case_c"] and flags["middle_enabled"]
    assert not flags["open_case_middle"]


# -- lemma consequences ----------------------------------------------------------

def test_right_elements_send_monomials_to_monomials(f64, f81):
    _, S8, code = subfield_code(f64)
    rep = right_nucleus_bruteforce(code)
    for Y in rep.bruteforce_basis:
        assert right_element_sends_monomials_to_monomials(Y, S8, 1)
    xi = f81.generator
    S = generic_subspace(f81, 3)
    code2 = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 2, xi)), S)
    for Y in right_nucleus_bruteforce(code2).bruteforce_basis:
        assert right_element_sends_monomials_to_monomials(Y, S, 1)


def test_middle_elements_act_as_scalars(f64, f81):
    _, S8, code = subfield_code(f64)
    for Z in middle_nucleus_bruteforce(code).bruteforce_basis:
        assert middle_element_is_scalar_on_span(Z, S8) is not None
    xi = f81.generator
    S = generic_subspace(f81, 3)
    code2 = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 2, xi)), S)
    for Z in middle_nucleus_bruteforce(code2).bruteforce_basis:
        assert middle_element_is_scalar_on_span(Z, S) is not None


# -- invariance and ring structure ------------------------------------------------

def test_nucleus_orders_are_equivalence_invariants(f81):
    rng = random.Random(30)
    xi = f81.generator
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 2, xi)), S)
    base_m = middle_nucleus_bruteforce(code).bruteforce_order
    base_r = right_nucleus_bruteforce(code).bruteforce_order
    from rankmetric.selfcheck import _random_gl
    for _ in range(3):
        A, B = _random_gl(f81, 3, rng), _random_gl(f81, 4, rng)
        moved = apply_equivalence(code, A, B)
        assert middle_nucleus_bruteforce(moved).bruteforce_order == base_m
        assert right_nucleus_bruteforce(moved).bruteforce_order == base_r


def test_right_nucleus_of_gabidulin_is_a_matrix_ring(f64):
    # order q^(n r) and closed under multiplication (centralizer shape)
    _, _, code = subfield_code(f64)
    rep = right_nucleus_bruteforce(code)
    assert rep.bruteforce_order == 2 ** (6 * 2)
    span = span_matrices(f64, rep.bruteforce_basis)
    for a in rep.bruteforce_basis:
        for b in rep.bruteforce_basis:
            assert mat_mul(f64, a, b) in span


def test_nuclei_are_subrings(f81):
    xi = f81.generator
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 2, xi)), S)
    for rep, side in ((middle_nucleus_bruteforce(code), 3),
                      (right_nucleus_bruteforce(code), 4)):
        span = span_matrices(f81, rep.bruteforce_basis)
        for a in rep.bruteforce_basis:
            for b in rep.bruteforce_basis:
                assert mat_mul(f81, a, b) in span


def test_spans_equal_helper(f16):
    a = [mat_identity(f16, 2)]
    b = [mat_scale(f16, 1, mat_identity(f16, 2))]
    assert spans_equal(f16, a, b)
    c = [((1, 0), (0, 0))]
    assert not spans_equal(f16, a, c)


def test_step_three_twisted_code(f81):
    # s = 3 (gcd(3, 4) = 1), h = 2 != s k: non-degenerate twist
    xi = f81.generator
    params = CodeParams(f81, 3, 1, 3, 2, xi)
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(params), S)
    from rankmetric.rankcode import is_mrd
    assert is_mrd(code)[0]
    mid = middle_report(params, S)
    rig = right_report(params, S)
    assert mid.agree is True and mid.bruteforce_order == 3
    assert rig.agree is True and rig.bruteforce_order == 9  # gcd(h, n) = 2


def test_middle_case_c_square_twisted(f81):
    # k = 2, m = n = 4: the conditioned lemma's case (c) holds for any
    # valid twist, and t = gcd(n, sk - h, ell) with ell = n here
    xi = f81.generator
    S = subspace_poly(f81, f81.power_basis())
    for h, order in ((0, 9), (1, 3), (3, 3)):
        params = CodeParams(f81, 4, 2, 1, h, xi)
        flags = hypothesis_check(params, S)
        assert flags["middle_case_c"] and flags["middle_enabled"]
        rep = middle_report(params, S)
        assert rep.agree is True and rep.bruteforce_order == order
        # the right side stays open at (m, k) = (4, 2); the report still
        # carries the brute-force order as an experimental probe
        rrep = right_report(params, S)
        assert rrep.predicted_order is None
        assert rrep.hypothesis_flags["open_case_right"]


def test_tower_field_code_full_stack():
    # q = 4 = 2^2 exercises the generic (non-prime) linear algebra paths
    gf = field_create(2, 2, 3)
    params = CodeParams(gf, 2, 1, 1, 0, 0)
    S = subspace_poly(gf, [1, gf.generator])
    code = project_code(build_gtg(params), S)
    assert code.dim == 3 and code.cardinality == 64
    words = set(code.codewords())
    assert len(words) == 64
    from rankmetric.rankcode import is_mrd
    verdict, cert = is_mrd(code)
    assert verdict and cert["d"] == 2
    mid = middle_report(params, S)
    rig = right_report(params, S)
    assert mid.agree is True and mid.bruteforce_order == 4    # ell_mid = 1
    assert rig.agree is True and rig.bruteforce_order == 64   # ell = 3, r = 1


@pytest.mark.parametrize("pen", [(2, 1, 3), (3, 1, 2), (2, 2, 2)], ids=["F8", "F9", "F16-over-F4"])
def test_zero_code_nuclei_are_the_full_matrix_algebras(pen):
    gf = field_create(*pen)
    m, n = 2, gf.n
    code = RankCode(gf, m, [])
    # Z 0 = 0 Y = 0 for all Z, Y: both nuclei are the full matrix algebras
    mid = middle_nucleus_bruteforce(code)
    rig = right_nucleus_bruteforce(code)
    assert mid.bruteforce_order == gf.q ** (m * m)
    assert rig.bruteforce_order == gf.q ** (n * n)


def _random_nucleus_test_code(gf, m, rng, side):
    """A random code in F_q^(m x n); with ``side`` it is spanned by
    P^i X_j (middle) or X_j P^i (right) for a random square P and random
    X_j, so that nucleus holds F_q[P] and is larger than the scalars."""
    n, fq = gf.n, gf.fq_list()

    def rand(rows, cols):
        return tuple(tuple(rng.choice(fq) for _ in range(cols)) for _ in range(rows))

    xs = [rand(m, n) for _ in range(rng.randint(1, m * n - 1))]
    if side is not None:
        p_mat = rand(m, m) if side == "middle" else rand(n, n)
        xs = xs[:rng.randint(1, 2)]
        for _ in range(max(m, n)):
            xs += [mat_mul(gf, p_mat, x) if side == "middle" else mat_mul(gf, x, p_mat) for x in xs]
    rref, pivots = fq_rref([list(mat_vec(x)) for x in xs], gf)
    return RankCode(gf, m, [vec_mat(row, m, n) for row in rref[:len(pivots)]])


def _nucleus_by_enumeration(code, side):
    """Every Z in M_m(F_q) (middle) or Y in M_n(F_q) (right) that keeps
    each basis matrix inside the code."""
    gf = code.gf
    size = code.m if side == "middle" else code.n
    out = set()
    for entries in itertools.product(gf.fq_list(), repeat=size * size):
        z = vec_mat(entries, size, size)
        if all(code.contains(mat_mul(gf, z, x) if side == "middle" else mat_mul(gf, x, z))
               for x in code.basis):
            out.add(z)
    return out


# (side, p, e, n, m): m < n and m = n over F_2, F_3 and F_4, with the
# unknown matrices (m x m middle, n x n right) at most 2^9 in number
NUCLEUS_CELLS = [("middle", 2, 1, 3, 2), ("middle", 2, 1, 4, 3), ("middle", 2, 1, 3, 3),
                 ("middle", 3, 1, 3, 2), ("middle", 3, 1, 2, 2), ("middle", 2, 2, 3, 2),
                 ("middle", 2, 2, 2, 2), ("right", 2, 1, 3, 2), ("right", 2, 1, 3, 3),
                 ("right", 3, 1, 2, 1), ("right", 3, 1, 2, 2), ("right", 2, 2, 2, 1),
                 ("right", 2, 2, 2, 2)]


@pytest.mark.parametrize("side, p, e, n, m", NUCLEUS_CELLS,
                         ids=[f"{side}-q{p ** e}-m{m}-n{n}" for side, p, e, n, m in NUCLEUS_CELLS])
def test_nucleus_is_every_matrix_found_by_enumeration(side, p, e, n, m):
    gf = field_create(p, e, n)
    brute = middle_nucleus_bruteforce if side == "middle" else right_nucleus_bruteforce
    rng = random.Random(f"{side}-{p}-{e}-{n}-{m}")
    orders = set()
    for closed in (None, None, side, side):
        code = _random_nucleus_test_code(gf, m, rng, closed)
        report = brute(code)
        assert span_matrices(gf, report.bruteforce_basis) == _nucleus_by_enumeration(code, side)
        orders.add(report.bruteforce_order)
    assert len(orders) > 1  # not only the scalars


# (m, n, dims): random F_2 codes of these dimensions, near m n so that
# most A have a nonzero B-space, against A = I and then all of GL(m, 2):
# several chunks of A, the last one partial; n = 9 gives systems of 81
# columns, two words a row
PACKED_CELLS = [(3, 5, (14, 13)), (4, 4, (15,)), (3, 9, (26,))]


def _entry_systems(code, a):
    # the rows (A X)^T H of one A, X-major, as n^2 entries each: numpy
    # products mod 2, no kernel (F_2 elements are their own indices)
    m, n = code.m, code.n
    xs = np.array(code.basis).reshape(-1, m, n)
    hs = np.array(code.parity_rows()).reshape(-1, m, n)
    return (np.einsum("xij,hik->xhjk", a @ xs % 2, hs) % 2).reshape(-1, n * n).astype(np.uint8)


@pytest.mark.parametrize("m, n, dims", PACKED_CELLS, ids=[f"m{m}-n{n}" for m, n, _ in PACKED_CELLS])
def test_packed_stabilizers_match_the_unpacked_path(m, n, dims):
    # the parity-word systems against the entry systems built apart from
    # them, solved as one stack for every A and by generic_nullspace for
    # every 31st A
    gf, ops = field_create(2, 1, n), field_create(2, 1, 1)
    f = fq_arith(gf)
    rng = random.Random(f"packed-{m}-{n}")
    lefts = [np.eye(m, dtype=np.int64), *enumerate_gl(gf, m)]
    words = -(-n * n // 64)
    for dim in dims:
        rows, pivots = [], ()
        while len(pivots) < dim:
            rows, pivots = fq_rref([[rng.randrange(2) for _ in range(m * n)] for _ in range(dim)], gf)
        code = RankCode(gf, m, [vec_mat(row, m, n) for row in rows])
        per_a = dim * max(m * n, (m * n - dim) * words)
        assert len(lefts) > chunk_len(per_a) and len(lefts) % chunk_len(per_a)
        packed = [(packed_mats(f, a), [v.tolist() for v in null]) for a, null in code.right_stabilizers(lefts)]
        systems = [_entry_systems(code, a) for a in lefts]
        nulls = modp_nullspace(np.array(systems), 2)
        plain = [(packed_mats(f, a), [v.tolist() for v in null]) for a, null in zip(lefts, nulls) if null]
        assert packed == plain and len(packed) > 24
        assert packed[0][0] == mat_identity(gf, m)  # A = I, rho = 0: the right nucleus
        for system, null in itertools.islice(zip(systems, nulls), 0, None, 31):
            assert generic_nullspace(system.tolist(), ops) == [v.tolist() for v in null]


def _field_structure_by_enumeration(basis, gf):
    # the slow path: enumerate the span and test each property elementwise
    span = span_matrices(gf, basis)
    size = len(basis[0])
    if mat_identity(gf, size) not in span:
        return False, None
    if any(mat_mul(gf, a, b) not in span for a in basis for b in basis):
        return False, None
    zero = tuple((0,) * size for _ in range(size))
    if any(x != zero and mat_rank(gf, x) != size for x in span):
        return False, None
    return True, len(span)


F3_SPANS = {
    "not-closed": [((1, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (1, 0))],
    "zero-divisors": [((1, 0), (0, 0)), ((0, 0), (0, 1))],
    "swap": [((1, 0), (0, 1)), ((0, 1), (1, 0))],
    "no-identity": [((1, 0), (0, 0))],
    "full-algebra": [((1, 0), (0, 0)), ((0, 1), (0, 0)),        # closed, dual empty
                     ((0, 0), (1, 0)), ((0, 0), (0, 1))],
    "F9": [((1, 0), (0, 1)), ((0, 1), (2, 0))],                  # x^2 + 1
    "F27": [((1, 0, 0), (0, 1, 0), (0, 0, 1)),                   # x^3 + 2x + 2
            ((0, 1, 0), (0, 0, 1), (1, 1, 0)),
            ((0, 0, 1), (1, 1, 0), (0, 1, 1))],
}


@pytest.mark.parametrize("name", sorted(F3_SPANS))
def test_field_structure_over_f3_matches_enumeration(f81, name):
    basis = F3_SPANS[name]
    assert nucleus_field_structure(basis, f81) == _field_structure_by_enumeration(basis, f81)
    assert nucleus_field_structure(basis, f81)[0] == (name in ("F9", "F27"))


def test_field_structure_guard_trips_only_after_closure(f81):
    from rankmetric.errors import EnumerationGuardError
    # identity and closure hold, so the span would be enumerated: guard (exit 3)
    with pytest.raises(EnumerationGuardError, match="span has q\\^3 elements, above cap 26"):
        nucleus_field_structure(F3_SPANS["F27"], f81, cap=26)
    with pytest.raises(EnumerationGuardError):
        nucleus_field_structure(F3_SPANS["zero-divisors"], f81, cap=8)
    # a span that is not closed is rejected before the guard is reached
    assert nucleus_field_structure(F3_SPANS["not-closed"], f81, cap=1) == (False, None)
