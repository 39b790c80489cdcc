import random

import numpy as np
import pytest

from rankmetric import _linalg
from rankmetric._linalg import fq_rank
from rankmetric.errors import (
    DimensionCollapseError,
    EnumerationGuardError,
    NormConditionError,
    ParamError,
    ShapeMismatchError,
    SingularMatrixError,
)
from rankmetric.linpoly import LinearizedPoly, subspace_poly
from rankmetric.rankcode import (
    CodeParams,
    RankCode,
    adjoint,
    apply_equivalence,
    build_gtg,
    gaussian_binomial,
    is_mrd,
    mat_identity,
    mat_rank,
    min_distance,
    project_code,
    rank_distance,
    rank_weight_distribution,
    vec_mat,
)


def generic_subspace(gf, m):
    xi = gf.generator
    return subspace_poly(gf, [gf.pow(xi, i) for i in range(m)])


def random_gl(gf, n, rng):
    from rankmetric.rankcode import mat_is_invertible
    while True:
        mat = tuple(tuple(rng.choice(gf.fq_list()) for _ in range(n)) for _ in range(n))
        if mat_is_invertible(gf, mat):
            return mat


# -- parameters ---------------------------------------------------------------

def test_params_validation(f81):
    xi = f81.generator
    CodeParams(f81, 3, 1, 1, 1, xi)  # fine
    with pytest.raises(ParamError):
        CodeParams(f81, 3, 3, 1, 0, 0)  # k >= m
    with pytest.raises(ParamError):
        CodeParams(f81, 5, 1, 1, 0, 0)  # m > n
    with pytest.raises(ParamError):
        CodeParams(f81, 3, 1, 2, 0, 0)  # gcd(s, n) != 1
    with pytest.raises(ParamError):
        CodeParams(f81, 3, 1, 1, 4, 0)  # h out of range


def test_norm_condition_q2(f16):
    # at q = 2 the relative norm of any nonzero element is 1 = (-1)^(nk)
    with pytest.raises(NormConditionError) as info:
        CodeParams(f16, 3, 1, 1, 1, f16.generator)
    assert info.value.norm_value == f16.one


def test_norm_condition_q3_nonsquare_accepted(f81):
    # nk even, so the twist needs norm != 1; a non-square has norm -1
    params = CodeParams(f81, 3, 1, 1, 1, f81.generator)
    assert params.eta == f81.generator


def test_gabidulin_slots(f81):
    params = CodeParams(f81, 3, 2, 1, 0, 0)
    gens = build_gtg(params)
    assert gens.slot_poly(0, 1) == LinearizedPoly.identity(f81)
    assert gens.slot_poly(1, 1) == LinearizedPoly.monomial(f81, 1, 1)
    assert len(gens.expand()) == f81.n * params.k


def test_twisted_slot_contains_twist(f81):
    xi = f81.generator
    params = CodeParams(f81, 3, 1, 1, 2, xi)
    f = build_gtg(params).slot_poly(0, xi)
    # coefficient at X is xi, at X^(q^(sk)) = X^q it is eta * xi^(q^h)
    assert f.coeffs[0] == xi
    assert f.coeffs[1] == f81.mul(xi, f81.frobenius(xi, 2))
    assert all(c == 0 for c in f.coeffs[2:])


# -- projection ---------------------------------------------------------------

def test_project_zero_is_zero_matrix(f81):
    S = generic_subspace(f81, 3)
    row = tuple(f81.vec_repr(LinearizedPoly.zero(f81)(a)) for a in S.alphas)
    assert row == tuple((0,) * 4 for _ in range(3))


def test_project_dimension_and_count(f81):
    xi = f81.generator
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 0, 0)), S)
    assert code.dim == 4
    words = list(code.codewords())
    assert len(words) == 81
    assert len(set(words)) == 81


def test_project_square_code(f16):
    S = subspace_poly(f16, f16.power_basis())
    code = project_code(build_gtg(CodeParams(f16, 4, 1, 1, 0, 0)), S)
    assert code.dim == 4
    assert code.m == code.n == 4


def test_projection_collapse_detected(f81):
    S = generic_subspace(f81, 3)
    xi = f81.generator
    dependent = [LinearizedPoly.identity(f81),
                 LinearizedPoly.monomial(f81, xi, 0),
                 LinearizedPoly.monomial(f81, f81.mul(xi, xi), 0),
                 LinearizedPoly.monomial(f81, f81.pow(xi, 3), 0),
                 LinearizedPoly.monomial(f81, f81.pow(xi, 4), 0)]
    with pytest.raises(DimensionCollapseError):
        project_code(dependent, S)


def test_project_requires_k_below_m(f81):
    S = generic_subspace(f81, 2)
    with pytest.raises(ParamError):
        project_code(build_gtg(CodeParams(f81, 3, 2, 1, 0, 0)), S)


# -- distances ----------------------------------------------------------------

def test_rank_distance_basics(f16):
    A = ((1, 0, 1, 0), (0, 1, 0, 0), (1, 1, 1, 0))
    Z = tuple((0,) * 4 for _ in range(3))
    assert rank_distance(f16, A, A) == 0
    assert rank_distance(f16, A, Z) == mat_rank(f16, A)
    B = ((1, 0, 1, 0), (1, 0, 1, 0), (0, 1, 0, 0))  # two equal rows + one independent
    assert mat_rank(f16, B) == 2
    with pytest.raises(ShapeMismatchError):
        rank_distance(f16, A, ((1, 0), (0, 1)))


def test_min_distance_single_generator(f16):
    full = mat_identity(f16, 4)[:3]  # 3x4, rank 3
    code = RankCode(f16, 3, [tuple(tuple(r) for r in full)])
    assert min_distance(code) == 3


def test_min_distance_of_projected_gabidulin(f16):
    S = generic_subspace(f16, 3)
    code = project_code(build_gtg(CodeParams(f16, 3, 1, 1, 0, 0)), S)
    assert min_distance(code) == 3  # m - k + 1


def test_min_distance_of_twisted_code(f81):
    xi = f81.generator
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 1, xi)), S)
    assert min_distance(code) == 3


def test_enumeration_guard(f64):
    S = generic_subspace(f64, 5)
    code = project_code(build_gtg(CodeParams(f64, 5, 3, 1, 0, 0)), S)
    with pytest.raises(EnumerationGuardError):
        min_distance(code, guard=1000)


def test_is_mrd_verdicts(f16, f81):
    xi = f81.generator
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 1, xi)), S)
    verdict, cert = is_mrd(code)
    assert verdict and cert["d"] == 3 and cert["bound"] == 81

    # a single rank-1 generator in 2x2 misses the bound
    rank1 = RankCode(f16, 2, [((1, 0, 0, 0), (0, 0, 0, 0))[:2]])
    # build explicitly: 2x4 here; use a genuine 2x2-style small case over F_4
    from rankmetric.gf import field_create
    f4 = field_create(2, 1, 2)
    rank1 = RankCode(f4, 2, [((1, 0), (0, 0))])
    verdict, cert = is_mrd(rank1)
    assert not verdict and cert["d"] == 1 and cert["cardinality"] == 2

    # the full matrix space attains the bound with d = 1
    basis = []
    for i in range(2):
        for j in range(2):
            mat = [[0, 0], [0, 0]]
            mat[i][j] = 1
            basis.append(tuple(tuple(r) for r in mat))
    full = RankCode(f4, 2, basis)
    verdict, cert = is_mrd(full)
    assert verdict and cert["d"] == 1


def test_rank_weight_distribution_sums(f81):
    xi = f81.generator
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 2, xi)), S)
    hist = rank_weight_distribution(code)
    assert sum(hist) == 81
    assert hist[0] == 1
    assert hist[1] == hist[2] == 0  # MRD: everything at rank >= d = 3


# -- equivalence ---------------------------------------------------------------

def test_identity_equivalence(f81):
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 0, 0)), S)
    same = apply_equivalence(code, mat_identity(f81, 3), mat_identity(f81, 4))
    assert set(same.basis) == set(code.basis)


def test_equivalence_preserves_weights(f81):
    rng = random.Random(20)
    xi = f81.generator
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 2, xi)), S)
    base = rank_weight_distribution(code)
    for _ in range(5):
        A, B = random_gl(f81, 3, rng), random_gl(f81, 4, rng)
        moved = apply_equivalence(code, A, B)
        assert rank_weight_distribution(moved) == base
        assert min_distance(moved) == 3


def test_equivalence_rejects_singular(f81):
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 0, 0)), S)
    singular = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    with pytest.raises(SingularMatrixError):
        apply_equivalence(code, singular, mat_identity(f81, 4))
    with pytest.raises(SingularMatrixError):
        apply_equivalence(code, mat_identity(f81, 3),
                          tuple(tuple(0 for _ in range(4)) for _ in range(4)))


def test_equivalence_rejects_translation(f81):
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 0, 0)), S)
    C = tuple(tuple(1 if (i + j) == 0 else 0 for j in range(4)) for i in range(3))
    with pytest.raises(ParamError):
        apply_equivalence(code, mat_identity(f81, 3), mat_identity(f81, 4), C)


# -- adjoint ---------------------------------------------------------------

def test_adjoint_involution(f16):
    S = subspace_poly(f16, f16.power_basis())
    code = project_code(build_gtg(CodeParams(f16, 4, 1, 1, 0, 0)), S)
    back = adjoint(adjoint(code))
    assert set(back.basis) == set(code.basis)
    assert min_distance(adjoint(code)) == min_distance(code)


def test_adjoint_of_symmetric_code(f16):
    sym = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    code = RankCode(f16, 4, [sym])
    assert set(adjoint(code).basis) == {sym}


def test_adjoint_of_a_non_square_code(f81):
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 0, 0)), S)
    t = adjoint(code)
    assert (t.m, t.n, t.dim) == (4, 3, code.dim)
    assert adjoint(t).basis == code.basis
    assert rank_weight_distribution(t) == rank_weight_distribution(code)
    assert min_distance(t) == min_distance(code)
    # the transposed parity rows span the dual that a fresh solve gives
    fresh = RankCode(f81, 4, t.basis, n=3).parity_rows()
    assert fq_rank(t.parity_rows(), f81) == fq_rank(fresh, f81) == fq_rank(t.parity_rows() + fresh, f81)


@pytest.mark.parametrize("pen, m", [((3, 1, 4), 3), ((2, 1, 5), 2), ((2, 2, 3), 2)], ids=["F81", "F32", "F64-over-F4"])
def test_adjoint_seeds_its_parity_lazily(monkeypatch, pen, m):
    # adjoint neither ranks the transposed basis nor solves a dual; the
    # first parity_rows() call transposes the code's own rows, and those
    # span the dual a fresh solve of the transpose gives
    from rankmetric.gf import field_create
    gf = field_create(*pen)
    code = project_code(build_gtg(CodeParams(gf, m, 1, 1, 1, 0)), generic_subspace(gf, m))
    calls = []
    with monkeypatch.context() as mp:
        for name in ("fq_rank", "modp_dual"):
            mp.setattr(_linalg, name, lambda *a, _f=getattr(_linalg, name), _n=name: calls.append(_n) or _f(*a))
        t = adjoint(code)
        assert calls == [] and (t.m, t.n, t.dim) == (gf.n, m, code.dim)
        rows = t.parity_rows()
        assert calls == ["modp_dual"]  # the code's own dual, solved once
        assert t.parity_rows() is rows and adjoint(code).parity_rows() == rows and calls == ["modp_dual"]
    fresh = RankCode(gf, gf.n, t.basis, n=m).parity_rows()
    assert len(rows) == len(fresh) == gf.n * m - code.dim
    assert fq_rank(rows, gf) == fq_rank(fresh, gf) == fq_rank(rows + fresh, gf)


def test_serialization_shape(f81):
    S = generic_subspace(f81, 3)
    code = project_code(build_gtg(CodeParams(f81, 3, 1, 1, 0, 0)), S)
    blob = code.serialize()
    assert blob["q"] == 3 and blob["m"] == 3 and blob["n"] == 4
    assert len(blob["basis"]) == 4
    assert all(len(flat) == 12 for flat in blob["basis"])
    assert blob["provenance"]["family"] == "twisted_gabidulin"


@pytest.mark.parametrize("pen", [(2, 1, 3), (3, 1, 2), (2, 2, 2)], ids=["F8", "F9", "F16-over-F4"])
def test_zero_code_dual_is_the_whole_space(pen):
    from rankmetric.gf import field_create
    gf = field_create(*pen)
    m, n = 2, gf.n
    code = RankCode(gf, m, [])
    # every vector pairs to zero with the zero code: the dual has all m*n unit vectors
    assert code.parity_rows() == list(mat_identity(gf, m * n))
    assert rank_weight_distribution(code) == [1] + [0] * min(m, n)


@pytest.mark.parametrize("p, m, n, dim", [(3, 3, 4, 3), (3, 2, 3, 4), (5, 2, 3, 3), (5, 3, 3, 2)])
def test_odd_p_rank_histogram_matches_ranking_every_codeword(p, m, n, dim):
    from rankmetric import _linalg
    from rankmetric.errors import DimensionCollapseError
    from rankmetric.gf import field_create
    gf = field_create(p, 1, n)
    rng = random.Random(100 * p + 10 * m + dim)
    while True:
        # random matrices, one of them of rank <= 1, so low ranks occur
        mats = [tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(m)) for _ in range(dim)]
        mats[0] = tuple(tuple((c * x) % p for x in mats[0][0]) for c in range(1, m + 1))
        try:
            code = RankCode(gf, m, mats)
            break
        except DimensionCollapseError:
            continue
    slow = [0] * (min(m, n) + 1)
    for w in code.codewords():
        rank = mat_rank(gf, w)
        assert rank == _linalg.generic_rank([list(r) for r in w], gf)
        slow[rank] += 1
    assert rank_weight_distribution(code) == slow
    assert slow[1] > 0


# ----------------------------------------------------------------------------
# the two histogram paths against each other and against generic_rank
# ----------------------------------------------------------------------------

def _random_code(gf, m, dim, seed):
    """A random dim-dimensional code in F_q^(m x n) whose first basis
    matrix has rank 1, so that d = 1 and low ranks occur."""
    rng = random.Random(seed)
    fq = gf.fq_list()
    while True:
        mats = [[[rng.choice(fq) for _ in range(gf.n)] for _ in range(m)] for _ in range(dim)]
        if dim:
            col = [rng.choice(fq[1:]) for _ in range(m)]
            mats[0] = [[gf.mul(c, x) for x in mats[0][0]] for c in col]
        try:
            return RankCode(gf, m, mats)
        except DimensionCollapseError:
            continue


def _generic_histogram(code):
    from rankmetric import _linalg
    hist = [0] * (min(code.m, code.n) + 1)
    for w in code.codewords():
        hist[_linalg.generic_rank([list(row) for row in w], code.gf)] += 1
    return hist


def _both_paths(code):
    from rankmetric.rankcode import _hist_by_codewords, _hist_by_subspaces
    small = adjoint(code) if code.n < code.m else code
    basis = np.array(small.basis, dtype=np.int64).reshape(small.dim, small.m, small.n)
    return _hist_by_codewords(code.gf, basis), _hist_by_subspaces(code.gf, basis)


def _subspaces_cheaper(q, m, n, dim):
    from rankmetric.rankcode import _work
    codewords, subspaces = _work(q, *sorted((m, n)), dim)
    return subspaces < codewords


# (p, e, n, m, dim): q in {2, 3, 4, 5, 7, 8}, each with a cell with m < n
# on the subspace side of the cost rule and m = n on the codeword side
HIST_CELLS = [
    (2, 1, 5, 2, 10), (2, 1, 4, 3, 7), (2, 1, 4, 4, 9),
    (3, 1, 3, 2, 6), (3, 1, 4, 3, 2), (3, 1, 3, 3, 5),
    (2, 2, 3, 2, 5), (2, 2, 3, 3, 4),
    (5, 1, 3, 2, 4), (5, 1, 3, 3, 3),
    (7, 1, 3, 2, 3), (7, 1, 2, 2, 3),
    (2, 3, 3, 2, 3), (2, 3, 2, 2, 3),
]


@pytest.mark.parametrize("p, e, n, m, dim", HIST_CELLS,
                         ids=[f"q{p ** e}-m{m}-n{n}-dim{dim}" for p, e, n, m, dim in HIST_CELLS])
def test_histogram_paths_agree_with_generic_rank(p, e, n, m, dim):
    from rankmetric.gf import field_create
    code = _random_code(field_create(p, e, n), m, dim, seed=1000 * p + 100 * e + 10 * m + dim)
    want = _generic_histogram(code)
    assert _both_paths(code) == (want, want)
    assert rank_weight_distribution(code) == want
    assert want[1] > 0 and min_distance(code) == 1


def test_histogram_cells_lie_on_both_sides_of_the_cost_rule():
    sides = {}
    for p, e, n, m, dim in HIST_CELLS:
        sides.setdefault(p ** e, set()).add(_subspaces_cheaper(p ** e, m, n, dim))
    assert sides == {q: {True, False} for q in (2, 3, 4, 5, 7, 8)}


def test_work_counts_a_packed_f2_row_as_its_words():
    # on F_2, rows of n = 100 and dim = 70 entries are two words each: a
    # codeword stack holds 2 m words per codeword (chunks of 4096 codewords),
    # a subspace stack 2 n words per H (the 3 lines of F_2^2, one chunk)
    from rankmetric.rankcode import _PASS_WORK, _work
    codewords = 100 * (2 ** 70 * 2 * 2 + _PASS_WORK * 2 ** 70 // 4096)
    subspaces = 70 * (3 * 100 * 2 + _PASS_WORK) + 2 * _PASS_WORK * 2
    assert _work(2, 2, 100, 70) == (codewords, subspaces)


def test_histogram_paths_agree_on_the_transposed_side():
    # m > n: the paths work on the transposed basis, min(m, n) = n
    from rankmetric.gf import field_create
    for p, e, n, m, dim in [(3, 1, 2, 4, 4), (2, 2, 2, 3, 3), (2, 1, 3, 5, 8)]:
        code = _random_code(field_create(p, e, n), m, dim, seed=m * n + dim)
        want = _generic_histogram(code)
        assert len(want) == n + 1
        assert _both_paths(code) == (want, want)
        assert rank_weight_distribution(code) == want


@pytest.mark.parametrize("pen, m", [((2, 1, 3), 2), ((3, 1, 2), 2), ((2, 2, 2), 3), ((5, 1, 2), 2)],
                         ids=["F2-2x3", "F3-2x2", "F4-3x2", "F5-2x2"])
def test_histogram_paths_on_the_zero_code_and_the_full_space(pen, m):
    from rankmetric.gf import field_create
    gf = field_create(*pen)
    n = gf.n
    zero = RankCode(gf, m, [])
    assert _both_paths(zero) == ([1] + [0] * min(m, n),) * 2
    units = [[[gf.one if (r, c) == (i, j) else 0 for c in range(n)] for r in range(m)]
             for i in range(m) for j in range(n)]
    full = RankCode(gf, m, units)
    want = _generic_histogram(full)
    # the number of m x n matrices of rank i over F_q
    q, small, big = gf.q, min(m, n), max(m, n)
    for i in range(small + 1):
        count = 1
        for j in range(i):
            count *= (q ** small - q ** j) * (q ** big - q ** j) // (q ** i - q ** j)
        assert want[i] == count
    assert _both_paths(full) == (want, want)


def test_guard_fires_first_where_the_subspace_path_is_cheap():
    from rankmetric.gf import field_create
    code = _random_code(field_create(2, 1, 6), 2, 12, seed=7)
    assert _subspaces_cheaper(2, 2, 6, 12)
    with pytest.raises(EnumerationGuardError):
        rank_weight_distribution(code, guard=code.cardinality - 1)
    with pytest.raises(EnumerationGuardError):
        is_mrd(code, guard=code.cardinality - 1)
    assert sum(rank_weight_distribution(code, guard=code.cardinality)) == code.cardinality


# (p, e, n, m): q <= 5 and m <= n; one random code for every dimension
# with q^dim and q^(mn - dim) both within 2^16
MACWILLIAMS_CELLS = [(2, 1, 3, 2), (2, 1, 4, 3), (2, 1, 4, 4), (2, 1, 5, 3), (3, 1, 3, 2),
                     (3, 1, 3, 3), (2, 2, 2, 2), (2, 2, 3, 2), (5, 1, 2, 2), (5, 1, 3, 2)]


def _column_space_counts(code):
    """B_v = sum_i A_i [m-i choose v-i]_q, v = 0..m: the codewords counted
    once per v-dimensional subspace of F_q^m holding their column space."""
    m, q, hist = code.m, code.gf.q, rank_weight_distribution(code)
    return [sum(a * gaussian_binomial(m - i, v - i, q) for i, a in enumerate(hist[:v + 1]))
            for v in range(m + 1)]


@pytest.mark.parametrize("p, e, n, m", MACWILLIAMS_CELLS,
                         ids=[f"q{p ** e}-m{m}-n{n}" for p, e, n, m in MACWILLIAMS_CELLS])
def test_rank_metric_macwilliams_identity(p, e, n, m):
    # the dual under the entrywise pairing satisfies
    # B^perp_(m-v) q^(nv) = |C^perp| B_v (Delsarte 1978; Ravagnani 2016)
    from rankmetric.gf import field_create
    gf = field_create(p, e, n)
    q = gf.q
    dims = [d for d in range(m * n + 1) if q ** d <= 1 << 16 and q ** (m * n - d) <= 1 << 16]
    for dim in dims:
        code = _random_code(gf, m, dim, seed=1000 * q + 100 * n + 10 * m + dim)
        dual = RankCode(gf, m, [vec_mat(h, m, n) for h in code.parity_rows()])
        assert code.dim + dual.dim == m * n
        bc, bd = _column_space_counts(code), _column_space_counts(dual)
        for v in range(m + 1):
            assert bd[m - v] * q ** (n * v) == dual.cardinality * bc[v], (dim, v)
