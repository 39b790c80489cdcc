import random

import numpy as np
import pytest

from rankmetric import _linalg
from rankmetric.gf import field_create
from rankmetric.rankcode import RankCode, mat_vec


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
    echelon = _linalg.fq_rref([list(b) for b in basis], gf)
    probes = list(span) + _random_vectors(gf, rng, 60, 4)
    assert any(v not in span for v in probes)
    for v in probes:
        assert _linalg.fq_in_span(echelon, v, gf) == (v in span)


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
