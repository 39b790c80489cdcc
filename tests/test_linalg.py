import itertools
import random

import numpy as np
import pytest

from rankmetric import _linalg
from rankmetric.autgroup import (
    aut_bruteforce,
    aut_compose,
    aut_identity,
    enumerate_gl,
    generate_known_automorphisms,
    gl_order,
    triple_acts,
)
from rankmetric.errors import SingularMatrixError
from rankmetric.gf import field_create
from rankmetric.linpoly import subspace_poly
from rankmetric.rankcode import (
    CodeParams,
    RankCode,
    build_gtg,
    mat_frobenius_p,
    mat_vec,
    project_code,
    rank_weight_distribution,
)


@pytest.fixture(scope="module", params=[(3, 1), (2, 2)], ids=["F3", "F4"])
def fq_field(request):
    # F_q inside F_{q^2}; vectors have entries in gf.fq_list()
    p, e = request.param
    return field_create(p, e, 2)


def _random_vectors(gf, rng, count, length):
    fq = gf.fq_list()
    return [tuple(rng.choice(fq) for _ in range(length)) for _ in range(count)]


def _independent(gf, rng, dim, length):
    while True:
        basis = _random_vectors(gf, rng, dim, length)
        if _linalg.fq_rank([list(b) for b in basis], gf) == dim:
            return basis


def _combination(gf, coeffs, basis):
    out = [0] * len(basis[0])
    for c, b in zip(coeffs, basis):
        out = [gf.add(x, gf.mul(c, y)) for x, y in zip(out, b)]
    return tuple(out)


def test_fq_span_is_the_odometer(fq_field):
    gf = fq_field
    rng = random.Random(1)
    fq = gf.fq_list()
    q = len(fq)
    basis = _independent(gf, rng, 3, 5)
    words = list(_linalg.fq_span(gf, basis))
    assert len(words) == len(set(words)) == q ** 3
    assert words[0] == (0,) * 5
    # word t has coefficient fq[digit_i(t)] on basis vector i, digit 0 fastest
    for t, w in enumerate(words):
        digits = [(t // q ** i) % q for i in range(3)]
        assert w == _combination(gf, [fq[d] for d in digits], basis)


def test_codewords_stream_the_span_of_the_basis(fq_field):
    gf = fq_field
    rng = random.Random(2)
    vecs = _independent(gf, rng, 2, 4)
    code = RankCode(gf, 2, [(v[:2], v[2:]) for v in vecs])
    assert [mat_vec(w) for w in code.codewords()] == list(_linalg.fq_span(gf, vecs))
    assert [mat_vec(w) for w in code.codewords(include_zero=False)] == \
        list(_linalg.fq_span(gf, vecs))[1:]


def test_fq_in_span_matches_enumerated_span(fq_field):
    gf = fq_field
    rng = random.Random(3)
    basis = _independent(gf, rng, 2, 4)
    span = set(_linalg.fq_span(gf, basis))
    probes = list(span) + _random_vectors(gf, rng, 60, 4)
    assert any(v not in span for v in probes)
    code = RankCode(gf, 1, [(v,) for v in basis], n=4)  # the span as a code of 1 x 4 matrices
    for v in probes:
        assert code.contains((v,)) == (v in span)


@pytest.mark.parametrize("p", [2, 3])
def test_modp_rref_never_pivots_right_of_ncols(p):
    rng = np.random.default_rng(p)
    for _ in range(50):
        rows, left, right = rng.integers(1, 6, size=3)
        a = rng.integers(0, p, size=(rows, left + right))
        r, pivots = _linalg.modp_rref(a, p, left)
        assert all(c < left for c in pivots)
        # the left block is the RREF of the left block alone
        r_left, pivots_left = _linalg.modp_rref(a[:, :left], p)
        assert pivots == pivots_left
        assert (r[:, :left] == r_left).all()


# -- the stacked prime-field kernel against the generic (slow) path -----------

@pytest.mark.parametrize("p", [2, 3, 5, 7, 257])
@pytest.mark.parametrize("shape", [(7, 3, 6), (7, 6, 3), (5, 4, 4), (5, 1, 5)], ids=["wide", "tall", "square", "one-row"])
def test_stacked_modp_rref_matches_generic_rref(p, shape):
    ops = field_create(p, 1, 1)  # F_p itself: packed elements are 0..p-1
    rng = np.random.default_rng(p * 1000 + shape[1] * 10 + shape[2])
    stack = rng.integers(0, p, size=shape)
    stack[1] = 0                                   # an all-zero matrix
    stack[2, -1] = stack[2, 0] * 2 % p             # a dependent row
    stack[3, :, 0] = 0                             # a zero column
    r, pivots = _linalg.modp_rref(stack, p)
    assert r.shape == stack.shape and pivots.shape == shape[:2]
    for mat, rmat, piv in zip(stack, r, pivots):
        want, want_pivots = _linalg.generic_rref(mat.tolist(), ops)
        assert rmat.tolist() == want
        assert [int(c) for c in piv if c >= 0] == want_pivots
        assert all(c == -1 for c in piv[len(want_pivots):])
        # a matrix is a stack of one
        single, single_pivots = _linalg.modp_rref(mat, p)
        assert single.tolist() == want and single_pivots == want_pivots
    ranks = _linalg.modp_rank(stack, p)
    nulls = _linalg.modp_nullspace(stack, p)
    for mat, rank, null in zip(stack, ranks, nulls):
        assert rank == _linalg.generic_rank(mat.tolist(), ops)
        assert [v.tolist() for v in null] == _linalg.generic_nullspace(mat.tolist(), ops)
    if p == 2:
        # F_2 rows packed into words: the same RREF, pivots, ranks and
        # nullspaces (nullity 0 on the tall and square grids, full on stack[1])
        bits = _linalg.BitField(shape[2])
        words = bits.index(stack)
        r, pivots = _linalg.modp_rref(words, bits)
        assert words.shape == shape[:2] + (1,) and (bits.packed(words) == stack).all()
        packed_nulls = _linalg.modp_nullspace(words, bits)
        for mat, rmat, piv, rank, null, packed_null in zip(stack, r, pivots, _linalg.modp_rank(words, bits),
                                                           nulls, packed_nulls):
            want, want_pivots = _linalg.generic_rref(mat.tolist(), ops)
            assert bits.packed(rmat).tolist() == want
            assert [int(c) for c in piv if c >= 0] == want_pivots
            assert rank == len(want_pivots)
            assert [v.tolist() for v in packed_null] == [v.tolist() for v in null]
            single_null = _linalg.modp_nullspace(bits.index(mat), bits)  # a matrix is a stack of one
            assert [v.tolist() for v in single_null] == [v.tolist() for v in null]
        assert len(packed_nulls[1]) == shape[2]


@pytest.mark.parametrize("width", [63, 64, 65, 128, 129, 200])
def test_multiword_f2_kernel_matches_generic(width):
    # rows of several words: F_2 given as 2 (packed inside modp_rref) and as
    # BitField words, against the generic path and matrix products
    ops = field_create(2, 1, 1)
    rng = np.random.default_rng(width)
    stack = rng.integers(0, 2, size=(5, 6, width))
    stack[1] = 0                                   # an all-zero matrix
    stack[2, -1] = stack[2, 0] ^ stack[2, 1]       # a dependent row
    stack[3, :, :width - 3] = 0                    # pivots in the last word, bit 63 at width 64
    stack[4, :, 60:70] = 0                         # zero columns across a word boundary
    bits = _linalg.BitField(width)
    words = bits.index(stack)
    assert words.shape == (5, 6, -(-width // 64)) and (bits.packed(words) == stack).all()
    want = [_linalg.generic_rref(mat.tolist(), ops) for mat in stack]
    r, pivots = _linalg.modp_rref(stack, 2)
    r_words, pivots_words = _linalg.modp_rref(words, bits)
    assert (bits.packed(r_words) == r).all() and (pivots_words == pivots).all()
    for mat, rmat, piv, (want_r, want_pivots) in zip(stack, r, pivots, want):
        assert rmat.tolist() == want_r and [int(c) for c in piv if c >= 0] == want_pivots
        single, single_pivots = _linalg.modp_rref(mat, _linalg.PrimeField(2))  # a matrix is a stack of one
        assert single.tolist() == want_r and single_pivots == want_pivots
        single_words, _ = _linalg.modp_rref(bits.index(mat), bits)
        assert bits.packed(single_words).tolist() == want_r
    assert _linalg.modp_rank(words, bits).tolist() == [len(p) for _, p in want]
    for mat, null, null_words in zip(stack, _linalg.modp_nullspace(stack, 2), _linalg.modp_nullspace(words, bits)):
        want_null = _linalg.generic_nullspace(mat.tolist(), ops)
        assert [v.tolist() for v in null] == want_null and [v.tolist() for v in null_words] == want_null
    # ncols: the reduction transform of each matrix, eliminated on width + 6 columns
    red, e, red_pivots = _linalg.modp_reduction(stack, 2)
    assert (red == r).all() and (red_pivots == pivots).all()
    assert (e @ stack % 2 == r).all() and (_linalg.modp_rank(e, 2) == 6).all()
    # square matrices whose [a | I] rows run over width columns
    k = -(-width // 2)
    mats = np.array([a for a in rng.integers(0, 2, size=(24, k, k)) if _linalg.modp_rank(a, 2) == k][:3])
    inv = _linalg.modp_inv(mats, 2)
    assert len(mats) and (inv @ mats % 2 == np.eye(k, dtype=np.int64)).all()
    assert (_linalg.modp_inv(mats[0], 2) == inv[0]).all()
    with pytest.raises(SingularMatrixError):
        _linalg.modp_inv(np.zeros((k, k), dtype=np.int64), 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 257])
def test_stacked_modp_inv_matches_generic_inv(p):
    ops = field_create(p, 1, 1)
    rng = np.random.default_rng(p)
    mats = [m for m in rng.integers(0, p, size=(40, 3, 3)) if _linalg.modp_rank(m, p) == 3][:8]
    inv = _linalg.modp_inv(np.array(mats), p)
    for mat, mat_inv in zip(mats, inv):
        assert mat_inv.tolist() == _linalg.generic_inv(mat.tolist(), ops)


@pytest.mark.parametrize("p", [2, 5])
def test_modp_span_is_the_fq_span_order(p):
    gf = field_create(p, 1, 1)
    rng = np.random.default_rng(p)
    basis = rng.integers(0, p, size=(3, 5))
    words = np.concatenate(list(_linalg.modp_span(basis, p)))
    assert [tuple(w) for w in words.tolist()] == list(_linalg.fq_span(gf, basis.tolist()))


@pytest.mark.parametrize("p", [3, 4099])
@pytest.mark.parametrize("rows", [0, 2, 4, 6], ids=["empty", "dependent", "partial", "full"])
def test_modp_dual_tests_span_membership(p, rows):
    width = 5
    rng = np.random.default_rng(p + rows)
    basis = rng.integers(0, p, size=(rows, width))
    if rows == 2:
        basis[1] = basis[0] * 3 % p                # rank 1
    if rows == 6:
        basis[:width] = np.eye(width, dtype=np.int64)  # the whole space: no dual
    rank = _linalg.modp_rank(basis, p)
    h = _linalg.modp_dual(basis, p)
    assert h.shape == (width - rank, width)
    inside = rng.integers(0, p, size=(20, rows)) @ basis % p
    probes = np.concatenate([inside, rng.integers(0, p, size=(20, width))])
    for v in probes:
        grown = _linalg.modp_rank(np.vstack([basis, v[None]]), p)
        assert (not (h @ v % p).any()) == (grown == rank)


# -- the stacked kernel over F_q, q = p^e with e > 1, against the generic path --

@pytest.fixture(scope="module", params=[(2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 4, 2)],
                ids=["F4-in-F64", "F8-in-F64", "F9-in-F81", "F16-in-F256"])
def tower(request):
    return field_create(*request.param)


def _packed(f, a):
    return f.packed(np.asarray(a)).tolist()


@pytest.mark.parametrize("shape", [(7, 3, 6), (7, 6, 3), (6, 4, 4)], ids=["wide", "tall", "square"])
def test_stacked_fq_kernel_matches_generic(tower, shape):
    gf = tower
    f = _linalg.fq_arith(gf)
    rng = np.random.default_rng(gf.q * 100 + shape[1] * 10 + shape[2])
    stack = rng.integers(0, gf.q, size=shape)
    stack[1] = 0                                   # an all-zero matrix
    stack[2, -1] = f.mul(stack[2, 0], 2)           # a dependent row
    stack[3, :, 0] = 0                             # a zero column
    r, pivots = _linalg.modp_rref(stack, f)
    ranks = _linalg.modp_rank(stack, f)
    nulls = _linalg.modp_nullspace(stack, f)
    for mat, rmat, piv, rank, null in zip(stack, r, pivots, ranks, nulls):
        rows = _packed(f, mat)
        want, want_pivots = _linalg.generic_rref(rows, gf)
        assert _packed(f, rmat) == want
        assert [int(c) for c in piv if c >= 0] == want_pivots
        assert rank == _linalg.generic_rank(rows, gf) == len(want_pivots)
        assert [_packed(f, v) for v in null] == _linalg.generic_nullspace(rows, gf)
        assert _linalg.fq_rref(rows, gf) == ([tuple(row) for row in want], want_pivots)
    if shape[1] == shape[2]:
        mats = stack[ranks == shape[1]]
        assert len(mats)
        for mat, mat_inv in zip(mats, _linalg.modp_inv(mats, f)):
            assert _packed(f, mat_inv) == _linalg.generic_inv(_packed(f, mat), gf)


def test_table_arithmetic_matches_the_field(tower):
    gf = tower
    f = _linalg.fq_arith(gf)
    fq = gf.fq_list()
    assert f.packed(np.arange(2)).tolist() == [gf.zero, gf.one]
    a, b = np.meshgrid(np.arange(gf.q), np.arange(gf.q))
    assert _packed(f, f.mul(a, b)) == [[gf.mul(fq[x], fq[y]) for x, y in zip(ra, rb)]
                                       for ra, rb in zip(a, b)]
    assert _packed(f, f.sub(a, b)) == [[gf.sub(fq[x], fq[y]) for x, y in zip(ra, rb)]
                                       for ra, rb in zip(a, b)]
    assert _packed(f, f.inv(np.arange(1, gf.q))) == [gf.inv(x) for x in fq[1:]]
    # matmul against the schoolbook product
    rng = np.random.default_rng(gf.q)
    x, y = rng.integers(0, gf.q, size=(3, 2, 4)), rng.integers(0, gf.q, size=(4, 3))
    want = [[[_dot(gf, row, col) for col in zip(*_packed(f, y))] for row in _packed(f, m)] for m in x]
    assert _packed(f, f.matmul(x, y)) == want


def _dot(gf, u, v):
    acc = 0
    for s, t in zip(u, v):
        acc = gf.add(acc, gf.mul(s, t))
    return acc


@pytest.mark.parametrize("p, e, n, m, k", [(2, 2, 3, 3, 2), (3, 2, 2, 2, 1), (2, 1, 4, 3, 2), (2, 1, 6, 5, 2)],
                         ids=["F4", "F9", "F2-m3", "F2-m5"])
def test_rank_histogram_matches_ranking_every_codeword(p, e, n, m, k):
    gf = field_create(p, e, n)
    params = CodeParams(gf, m, k, 1, 1, 0)
    code = project_code(build_gtg(params), subspace_poly(gf, [gf.pow(gf.generator, i) for i in range(m)]))
    want = [0] * (min(m, n) + 1)
    for w in code.codewords():
        want[_linalg.generic_rank([list(row) for row in w], gf)] += 1
    assert rank_weight_distribution(code) == want
    assert sum(want) == code.cardinality


@pytest.mark.parametrize("p, e, n", [(2, 2, 2), (3, 2, 1), (2, 1, 3)], ids=["GL(2,4)", "GL(2,9)", "GL(3,2)"])
def test_enumerate_gl_matches_filtering_every_matrix(p, e, n):
    gf = field_create(p, e, 1)
    want = [tuple(entries[i * n:(i + 1) * n] for i in range(n))
            for entries in itertools.product(gf.fq_list(), repeat=n * n)]
    want = [mat for mat in want if _linalg.generic_rank([list(r) for r in mat], gf) == n]
    f = _linalg.fq_arith(gf)
    got = list(enumerate_gl(gf, n))
    assert all(mat.shape == (n, n) for mat in got)
    assert _linalg.packed_mats(f, got) == want and len(got) == gl_order(gf.q, n)
    assert _linalg.packed_mats(f, list(enumerate_gl(gf, n))) == want


def test_aut_group_over_f81_with_odd_p_and_e_2():
    # F_{9^2}: p = 3 and e = 2, so rho runs over both automorphisms of F_9
    gf = field_create(3, 2, 2)
    params = CodeParams(gf, 2, 1, 1, 1, gf.generator)
    S = subspace_poly(gf, [1, gf.generator])
    code = project_code(build_gtg(params), S)
    group = list(aut_bruteforce(code))
    members = set(group)
    assert len(members) == len(group) and {t.rho for t in group} == {0, 1}
    # every triple maps the basis into the code: A X^rho B pairs to zero
    # with the dual, checked as stacks; a seeded sample on the slow path too
    f = _linalg.fq_arith(gf)
    dual = f.index(code.parity_rows()).T
    for rho in (0, 1):
        ts = [t for t in group if t.rho == rho]
        xs = f.index([mat_frobenius_p(gf, X, rho) for X in code.basis])
        images = f.matmul(f.matmul(f.index([t.A for t in ts])[:, None], xs), f.index([t.B for t in ts])[:, None])
        assert not f.matmul(images.reshape(len(ts), -1, 4), dual).any()
    rng = random.Random(9)
    assert all(code.contains(triple_acts(gf, t, X)) for t in rng.sample(group, 500) for X in code.basis)
    assert aut_identity(gf, 2, 2) in members
    for _ in range(2000):
        assert aut_compose(gf, rng.choice(group), rng.choice(group)) in members
    assert set(generate_known_automorphisms(params, S, code)) <= members
