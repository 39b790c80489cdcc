import itertools
import random
import tracemalloc

import numpy as np
import pytest

from rankmetric import _linalg
from rankmetric import gf as gf_module
from rankmetric.errors import (
    DependentBasisError,
    FieldTooLargeError,
    GcdViolationError,
    NonPrimeError,
    NotADivisorError,
    ReducibleModulusError,
)
from rankmetric.gf import field_create, poly_is_irreducible


def test_prime_field():
    f2 = field_create(2, 1, 1)
    assert f2.order == 2
    assert f2.generator == 1
    assert f2.add(1, 1) == 0
    assert f2.mul(1, 1) == 1


def test_f16_standard_modulus(f16):
    xi = f16.generator
    assert f16.multiplicative_order(xi) == 15
    # any stored generator is a root of X^4 + X + 1
    assert f16.pow(xi, 4) == f16.add(xi, f16.one)


def test_f81_generator_order():
    f81 = field_create(3, 1, 4)
    xi = f81.generator
    # verify full order by exponentiation: xi^80 = 1 and xi^(80/r) != 1
    assert f81.pow(xi, 80) == 1
    for r in (2, 5):
        assert f81.pow(xi, 80 // r) != 1


def test_default_modulus_is_deterministic():
    a = field_create(2, 1, 4)
    b = field_create(2, 1, 4)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert poly_is_irreducible(list(a.modulus), 2)


def test_nonprime_rejected():
    with pytest.raises(NonPrimeError):
        field_create(4, 1, 2)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulusError):
        field_create(2, 1, 4, [1, 0, 0, 0, 1])  # x^4 + 1 = (x+1)^4


def test_field_guard():
    with pytest.raises(FieldTooLargeError):
        field_create(2, 1, 30)


# the guard fires before primality testing and before q^n is built;
# 10^18 + 4 is composite, but its field is too large all the same
@pytest.mark.parametrize("p, e, n", [(10 ** 18 + 3, 1, 1), (10 ** 18 + 4, 1, 1), (3, 1, 2 * 10 ** 8), (2, 10 ** 8, 1)])
def test_field_guard_fires_before_work_that_grows_with_p_or_the_degree(p, e, n):
    with pytest.raises(FieldTooLargeError, match=r"q\^n = %d\^\(%d \* %d\) exceeds the guard" % (p, e, n)):
        field_create(p, e, n)


# -- frobenius ---------------------------------------------------------------

def test_frobenius_trivial_cases(f16):
    xi = f16.generator
    assert f16.frobenius(xi, 0) == xi
    assert f16.frobenius(xi, f16.n) == xi
    assert f16.frobenius(xi, 1) == f16.mul(xi, xi)


def test_frobenius_negative_index(f64):
    a = f64.generator
    assert f64.frobenius(f64.frobenius(a, -1), 1) == a


def test_frobenius_is_automorphism(f81):
    rng = random.Random(7)
    for j in range(f81.n):
        for _ in range(200):
            a, b = rng.randrange(81), rng.randrange(81)
            assert f81.frobenius(f81.mul(a, b), j) == \
                f81.mul(f81.frobenius(a, j), f81.frobenius(b, j))
            assert f81.frobenius(f81.add(a, b), j) == \
                f81.add(f81.frobenius(a, j), f81.frobenius(b, j))


# -- norms ---------------------------------------------------------------

def test_norm_of_ground_field_element(f81):
    for a in f81.fq_list():
        expected = 1 if a else 0
        acc = f81.one
        for _ in range(f81.n):
            acc = f81.mul(acc, a)
        assert f81.relative_norm(a, 1) == (acc if a else 0)


def test_norm_at_q2_is_always_one(f64):
    # exponent sum_(i<n) 2^(s i) is divisible by 2^n - 1, so the norm of any
    # nonzero element is 1; cross-check the product route against the
    # exponent route
    for s in (1, 5):
        for a in range(1, 64):
            exponent = sum(2 ** ((s * i) % 6) for i in range(6))
            assert f64.relative_norm(a, s) == f64.pow(a, exponent) == 1


def test_norm_of_nonsquare_is_minus_one(f81):
    xi = f81.generator  # odd generator exponent = a non-square
    assert f81.relative_norm(xi, 1) == f81.neg(f81.one)
    # squares have norm +1
    assert f81.relative_norm(f81.mul(xi, xi), 1) == f81.one


def test_norm_rejects_bad_step(f64):
    with pytest.raises(GcdViolationError):
        f64.relative_norm(f64.generator, 2)


def test_norm_lands_in_ground_field(f81):
    rng = random.Random(3)
    fq = f81.subfield_elements(1)
    for _ in range(300):
        assert f81.relative_norm(rng.randrange(81), 1) in fq


# -- subfields ----------------------------------------------------------

def test_subfield_extremes(f64):
    assert f64.subfield_elements(1) == frozenset(f64.fq_list())
    assert len(f64.subfield_elements(1)) == 2
    assert f64.subfield_elements(6) == frozenset(range(64))


def test_subfield_f8_inside_f64(f64):
    sf = f64.subfield_elements(3)
    assert len(sf) == 8
    # exactly the fixed points of x -> x^(q^3)
    assert sf == frozenset(a for a in range(64) if f64.frobenius(a, 3) == a)
    for a in sf:
        for b in sf:
            assert f64.add(a, b) in sf
            assert f64.mul(a, b) in sf


def test_subfield_rejects_nondivisor(f64):
    with pytest.raises(NotADivisorError):
        f64.subfield_elements(4)


def test_subfield_nesting_iff_divisibility(f64):
    divisors = [1, 2, 3, 6]
    for l1 in divisors:
        for l2 in divisors:
            nested = f64.subfield_elements(l1) <= f64.subfield_elements(l2)
            assert nested == (l2 % l1 == 0)


# -- coordinates --------------------------------------------------------

def test_vec_repr_trivial(f16):
    basis = f16.power_basis()
    assert f16.vec_repr(0, basis) == (0, 0, 0, 0)
    for i, b in enumerate(basis):
        expected = tuple(1 if j == i else 0 for j in range(4))
        assert f16.vec_repr(b, basis) == expected


def test_vec_repr_reads_off_coordinates(f16):
    xi = f16.generator
    a = f16.add(f16.mul(xi, xi), xi)
    assert f16.vec_repr(a) == (0, 1, 1, 0)


def test_vec_repr_is_linear_and_invertible(f81):
    rng = random.Random(11)
    for _ in range(100):
        a, b = rng.randrange(81), rng.randrange(81)
        va, vb = f81.vec_repr(a), f81.vec_repr(b)
        vsum = f81.vec_repr(f81.add(a, b))
        assert vsum == tuple(f81.add(x, y) for x, y in zip(va, vb))
        assert f81.from_vec(va) == a


def test_vec_repr_rejects_dependent_basis(f16):
    xi = f16.generator
    with pytest.raises(DependentBasisError):
        f16.vec_repr(xi, (1, xi, f16.add(1, xi), f16.pow(xi, 3)))


@pytest.mark.parametrize("pen, m", [((3, 1, 4), 3), ((2, 2, 3), 2)], ids=["F81-m3", "F4^3-m2"])
def test_vec_repr_on_a_partial_basis_matches_enumeration(pen, m):
    from rankmetric.linpoly import subspace_poly

    gf = field_create(*pen)
    xi = gf.generator
    S = subspace_poly(gf, [gf.pow(xi, 2 * i) for i in range(m)])
    inside = S.subspace_set()
    for u in gf.elements():
        coords = gf.vec_repr(u, S.alphas)
        assert (coords is None) == (u not in inside)
        if coords is not None:
            total = 0
            for c, a in zip(coords, S.alphas):
                total = gf.add(total, gf.mul(c, a))
            assert total == u


def test_vec_repr_rejects_dependent_partial_basis(f81):
    xi = f81.generator
    with pytest.raises(DependentBasisError):
        f81.vec_repr(xi, (1, xi, f81.add(1, xi)))
    # over F_4 < F_(4^3), (xi, g xi) with g in F_4 is F_2-independent but
    # F_4-dependent
    gf = field_create(2, 2, 3)
    g = gf.subfield_generator(1)
    with pytest.raises(DependentBasisError):
        gf.vec_repr(gf.generator, (gf.generator, gf.mul(g, gf.generator)))


# -- axioms at volume -----------------------------------------------------

def test_field_axioms_random_sample(f81, f64):
    rng = random.Random(0)
    for gf in (f81, f64):
        for _ in range(5000):
            a, b, c = (rng.randrange(gf.order) for _ in range(3))
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
            assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
            assert gf.add(a, gf.neg(a)) == 0
            if a:
                assert gf.mul(a, gf.inv(a)) == gf.one


def _dense_modulus(p, d):
    # the first monic irreducible of degree d with every coefficient nonzero
    return next(list(c) + [1] for c in itertools.product(range(1, p), repeat=d)
                if poly_is_irreducible(list(c) + [1], p))


# the untabled product and reduction skip zero terms, so both sparse
# default moduli and a dense one (x^4 + x^3 + x^2 + x + 1 over F_3) run
@pytest.mark.parametrize("pen, dense", [((2, 1, 8), False), ((3, 1, 4), False), ((3, 1, 5), False),
                                        ((7, 1, 3), False), ((2, 2, 3), False), ((3, 1, 4), True)],
                         ids=["p2-e1-n8", "p3-e1-n4", "p3-e1-n5", "p7-e1-n3", "p2-e2-n3", "p3-e1-n4-dense"])
def test_generic_path_matches_tables(monkeypatch, pen, dense):
    modulus = _dense_modulus(pen[0], pen[1] * pen[2]) if dense else None
    tabled = field_create(*pen, modulus)
    monkeypatch.setattr(gf_module, "_TABLE_LIMIT", 0)
    untabled = field_create(*pen, modulus)
    assert tabled._exp is not None and untabled._exp is None
    assert (untabled.modulus, untabled.generator) == (tabled.modulus, tabled.generator)
    if dense:
        assert all(untabled.modulus)
    order = tabled.order
    rng = random.Random(5)
    for _ in range(150):
        a, b = rng.randrange(order), rng.randrange(order)
        for op in ("mul", "add", "sub"):
            assert getattr(untabled, op)(a, b) == getattr(tabled, op)(a, b), (op, a, b)
        assert untabled.neg(a) == tabled.neg(a)
        assert untabled.frobenius(a, b % tabled.n) == tabled.frobenius(a, b % tabled.n)
        exponents = [0, 1, 2, b, order - 1, order, 3 * order + b]
        if a:
            assert untabled.inv(a) == tabled.inv(a)
            exponents += [-1, -b - 1]
        for t in exponents:
            assert untabled.pow(a, t) == tabled.pow(a, t), (a, t)


# -- power tables against the schoolbook chain -----------------------------

def _chain(gf, g, count, mul):
    out = [gf.one] if count else []
    while len(out) < count:
        out.append(mul(out[-1], g))
    return out


# (2,1,16) and (251,1,2) are the largest fields under the 2^16 table limit
@pytest.mark.parametrize("pen", [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 1, 4), (3, 1, 4), (2, 2, 3),
                                 (5, 1, 6), (7, 2, 2), (2, 1, 16), (251, 1, 2)],
                         ids=lambda pen: "p%d-e%d-n%d" % pen)
def test_exp_log_and_digit_tables_match_the_schoolbook_chain(pen):
    gf = field_create(*pen)
    exp = _chain(gf, gf.generator, gf.order - 1, gf._mul_generic)
    log = [-1] * gf.order
    for i, v in enumerate(exp):
        log[v] = i
    assert gf._exp.tolist() == exp
    assert gf._log.tolist() == log
    _assert_sums_match_coords(gf)


def _assert_sums_match_coords(gf):
    """add, sub and neg against (x +- y) mod p on coords: every pair on
    fields of at most 81 elements, 2,000 seeded pairs above that."""
    if gf.order <= 81:
        pairs = itertools.product(gf.elements(), repeat=2)
    else:
        rng = random.Random(13)
        pairs = [(rng.randrange(gf.order), rng.randrange(gf.order)) for _ in range(2000)]
    p = gf.p
    for a, b in pairs:
        ca, cb = gf.coords(a), gf.coords(b)
        assert gf.add(a, b) == gf.from_coords([(x + y) % p for x, y in zip(ca, cb)]), (a, b)
        assert gf.sub(a, b) == gf.from_coords([(x - y) % p for x, y in zip(ca, cb)]), (a, b)
        assert gf.neg(b) == gf.from_coords([-y % p for y in cb]), b
        assert type(gf.add(a, b)) is type(gf.sub(a, b)) is type(gf.neg(b)) is int


# 3^15 and 17^4 (the field-scale field) lie above the table limit
@pytest.mark.parametrize("pen", [(3, 1, 15), (17, 1, 4)], ids=lambda pen: "p%d-e%d-n%d" % pen)
def test_untabled_sums_match_the_coordinatewise_reference(pen):
    gf = field_create(*pen)
    assert gf._exp is None
    _assert_sums_match_coords(gf)


@pytest.mark.parametrize("pen", [(2, 1, 6), (2, 2, 3), (3, 1, 6)], ids=lambda pen: "p%d-e%d-n%d" % pen)
def test_subfield_list_is_the_fixed_field_of_frobenius(pen):
    gf = field_create(*pen)
    for ell in range(1, gf.n + 1):
        if gf.n % ell == 0:
            assert gf.subfield_list(ell) == tuple(a for a in gf.elements() if gf.frobenius(a, ell) == a)


@pytest.mark.parametrize("pen", [(2, 2, 3), (3, 2, 3), (2, 12, 2)], ids=lambda pen: "p%d-e%d-n%d" % pen)
def test_table_field_exp_matches_the_mul_chain(pen):
    # (2,12,2) is F_(2^24): above the table limit gf.mul is schoolbook
    gf = field_create(*pen)
    f = _linalg.fq_arith(gf)
    assert f.packed(f._exp[:gf.q - 1]).tolist() == _chain(gf, gf.subfield_generator(1), gf.q - 1, gf.mul)


@pytest.mark.parametrize("pen", [(3, 1, 4), (2, 1, 20)], ids=lambda pen: "p%d-e%d-n%d" % pen)
def test_powers_match_the_mul_chain_at_block_edges(pen):
    # blocks hold B rows, B the least power of 2 with B^2 >= count:
    # 16 and 64 fill whole blocks, 17 and 65 start one more
    gf = field_create(*pen)
    for g in (0, 1, gf.generator, gf.pow(gf.generator, 7)):
        for count in (0, 1, 2, 5, 16, 17, 64, 65):
            got = gf.powers(g, count)
            assert got.dtype == np.int64
            assert got.tolist() == _chain(gf, g, count, gf._mul_generic)


# -- towers (e > 1) -------------------------------------------------------

def test_tower_field():
    gf = field_create(2, 2, 3)  # F_(4^3) = F_64 with F_4 inside
    assert gf.q == 4 and gf.order == 64
    fq = gf.fq_list()
    assert len(fq) == 4
    for a in fq:
        assert gf.frobenius_p(a, gf.e) == a  # fixed by x -> x^4
        for b in fq:
            assert gf.mul(a, b) in set(fq)
    rng = random.Random(2)
    for _ in range(50):
        a = rng.randrange(64)
        assert gf.from_vec(gf.vec_repr(a)) == a
        assert gf.frobenius(a, gf.n) == a


def test_fq_json_is_the_int_or_one_coords_tuple_per_element(f81):
    gf = field_create(2, 2, 3)
    for a in gf.fq_list():
        form = gf.fq_json(a)
        assert form == gf.coords(a) and all(type(d) is int for d in form)
        assert gf.fq_json(np.int64(a)) is form  # built once per element
    assert [f81.fq_json(np.int64(a)) for a in f81.fq_list()] == [0, 1, 2]
    assert all(type(f81.fq_json(np.int64(a))) is int for a in f81.fq_list())


def test_serialize_roundtrip(f81):
    blob = f81.serialize()
    again = field_create(blob["p"], blob["e"], blob["n"], blob["modulus"])
    assert again.modulus == f81.modulus
    assert again.generator == f81.from_coords(blob["generator"])


# Default modulus and generator of field_create(p, e, n): (modulus digits,
# constant term first; packed generator).  Outputs are a contract, so any
# change to the modulus search or the generator choice must keep these.
DEFAULT_FIELDS = {
    (2, 1, 1): ((0, 1), 1),
    (2, 1, 2): ((1, 1, 1), 2),
    (2, 1, 3): ((1, 0, 1, 1), 4),
    (2, 1, 4): ((1, 0, 0, 1, 1), 4),
    (2, 1, 5): ((1, 0, 0, 1, 0, 1), 16),
    (2, 1, 6): ((1, 0, 0, 0, 0, 1, 1), 32),
    (2, 1, 7): ((1, 0, 0, 0, 0, 0, 1, 1), 64),
    (2, 1, 8): ((1, 0, 0, 0, 1, 1, 0, 1, 1), 160),
    (2, 1, 9): ((1, 0, 0, 0, 0, 0, 0, 0, 1, 1), 448),
    (2, 1, 10): ((1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 256),
    (2, 1, 11): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1), 1024),
    (2, 1, 12): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 3072),
    (3, 1, 1): ((0, 1), 2),
    (3, 1, 2): ((1, 0, 1), 4),
    (3, 1, 3): ((1, 0, 2, 1), 18),
    (3, 1, 4): ((1, 0, 1, 1, 1), 36),
    (3, 1, 5): ((1, 0, 0, 0, 2, 1), 162),
    (3, 1, 6): ((1, 0, 0, 0, 1, 1, 1), 324),
    (3, 1, 7): ((1, 0, 0, 0, 0, 1, 2, 1), 1458),
    (5, 1, 1): ((0, 1), 2),
    (5, 1, 2): ((1, 1, 1), 16),
    (5, 1, 3): ((1, 0, 1, 1), 50),
    (5, 1, 4): ((1, 0, 1, 1, 1), 150),
    (7, 1, 2): ((1, 0, 1), 15),
    (7, 1, 3): ((1, 0, 1, 1), 252),
    (7, 1, 4): ((1, 0, 0, 1, 1), 1764),
    (11, 1, 2): ((1, 0, 1), 45),
    (13, 1, 2): ((1, 3, 1), 79),
    (17, 1, 2): ((1, 1, 1), 52),
    (2, 2, 2): ((1, 0, 0, 1, 1), 4),
    (2, 2, 3): ((1, 0, 0, 0, 0, 1, 1), 32),
    (2, 2, 4): ((1, 0, 0, 0, 1, 1, 0, 1, 1), 160),
    (2, 3, 2): ((1, 0, 0, 0, 0, 1, 1), 32),
    (2, 4, 2): ((1, 0, 0, 0, 1, 1, 0, 1, 1), 160),
    (3, 2, 2): ((1, 0, 1, 1, 1), 36),
    (3, 2, 3): ((1, 0, 0, 0, 1, 1, 1), 324),
    (3, 3, 2): ((1, 0, 0, 0, 1, 1, 1), 324),
    (5, 2, 2): ((1, 0, 1, 1, 1), 150),
}


@pytest.mark.parametrize("pen", sorted(DEFAULT_FIELDS), ids=lambda pen: "p%d-e%d-n%d" % pen)
def test_default_modulus_and_generator_are_pinned(pen):
    gf = field_create(*pen)
    assert (gf.modulus, gf.generator) == DEFAULT_FIELDS[pen]


@pytest.mark.parametrize("p, d, first", [(2, 1, 0), (2, 4, 1), (3, 3, 0), (5, 2, 1), (7, 1, 0)])
def test_lex_digits_walks_the_product_order(p, d, first):
    want = [list(t) for t in itertools.product(range(first, p), *[range(p)] * (d - 1))]
    assert list(gf_module._lex_digits(p, d, first)) == want


def test_large_prime_field_builds_no_candidate_table():
    # the modulus and generator searches of F_p walk their candidates
    # lazily; copying range(p) would take about 38 MB here
    tracemalloc.start()
    try:
        gf = field_create(1000003, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (gf.modulus, gf.generator) == ((0, 1), 2)
    assert peak < 1 << 20, peak
