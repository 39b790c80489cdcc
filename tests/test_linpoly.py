import functools
import random

import pytest

from rankmetric.errors import DependentSetError, GcdViolationError, SpecMismatchError
from rankmetric.linpoly import (
    LinearizedPoly,
    matrix_to_poly,
    poly_from_reduced,
    poly_from_values,
    poly_to_matrix,
    reduce_mod_theta,
    roots_in_subspace,
    shift_support,
    subspace_poly,
)


def randpoly(gf, rng):
    return LinearizedPoly(gf, [rng.randrange(gf.order) for _ in range(gf.n)])


# -- evaluation and composition -------------------------------------------

def test_eval_basics(f16):
    from rankmetric.linpoly import lp_compose, lp_eval
    xi = f16.generator
    X = LinearizedPoly.identity(f16)
    Xq = LinearizedPoly.monomial(f16, 1, 1)
    assert lp_eval(X, xi) == xi
    assert lp_eval(Xq, xi) == f16.frobenius(xi, 1)
    both = Xq + X
    assert both(xi) == f16.add(f16.mul(xi, xi), xi)
    assert lp_compose(X, both) == both
    assert both.serialize()[0] == list(f16.coords(1))


def test_eval_is_fq_linear(f81):
    rng = random.Random(1)
    for _ in range(30):
        f = randpoly(f81, rng)
        x, y = rng.randrange(81), rng.randrange(81)
        assert f(f81.add(x, y)) == f81.add(f(x), f(y))
        for c in f81.fq_list():
            assert f(f81.mul(c, x)) == f81.mul(c, f(x))


def test_compose_identity_and_monomials(f16):
    rng = random.Random(2)
    X = LinearizedPoly.identity(f16)
    g = randpoly(f16, rng)
    assert X.compose(g) == g
    assert g.compose(X) == g
    for i in range(4):
        for j in range(4):
            lhs = LinearizedPoly.monomial(f16, 1, i).compose(LinearizedPoly.monomial(f16, 1, j))
            assert lhs == LinearizedPoly.monomial(f16, 1, (i + j) % 4)


def test_compose_matches_evaluation(f81):
    rng = random.Random(3)
    for _ in range(20):
        f, g = randpoly(f81, rng), randpoly(f81, rng)
        h = f.compose(g)
        for _ in range(50):
            x = rng.randrange(81)
            assert h(x) == f(g(x))


def test_compose_associative(f64):
    rng = random.Random(4)
    for _ in range(20):
        f, g, h = (randpoly(f64, rng) for _ in range(3))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_compose_spec_mismatch(f16, f64):
    with pytest.raises(SpecMismatchError):
        LinearizedPoly.identity(f16).compose(LinearizedPoly.identity(f64))


# -- subspace polynomials --------------------------------------------------

def test_theta_of_ground_field(f16):
    S = subspace_poly(f16, [1])
    assert S.theta == (1, 1)  # X^q - X, and -1 = 1 in characteristic 2


def test_theta_of_ground_field_odd(f81):
    S = subspace_poly(f81, [1])
    assert S.theta == (f81.neg(f81.one), 1)


def test_theta_of_full_space(f16):
    S = subspace_poly(f16, f16.power_basis())
    expected = [0] * 5
    expected[0] = f16.neg(f16.one)
    expected[4] = 1
    assert S.theta == tuple(expected)


def test_theta_matches_direct_product(f16):
    # oracle: theta_S(x) = prod_{u in U_S} (x - u), checked pointwise
    xi = f16.generator
    S = subspace_poly(f16, [1, xi])
    assert S.subspace_set() == {0, 1, xi, f16.add(1, xi)}
    for x in range(16):
        prodval = 1
        for u in S.subspace():
            prodval = f16.mul(prodval, f16.sub(x, u))
        assert S.theta_eval(x) == prodval
    # vanishes on U_S and nowhere else
    roots = {x for x in range(16) if S.theta_eval(x) == 0}
    assert roots == S.subspace_set()


def test_theta_product_oracle_odd_characteristic(f81):
    xi = f81.generator
    S = subspace_poly(f81, [1, xi])
    for x in range(0, 81, 7):
        prodval = 1
        for u in S.subspace():
            prodval = f81.mul(prodval, f81.sub(x, u))
        assert S.theta_eval(x) == prodval


def test_dependent_set_rejected(f16):
    xi = f16.generator
    with pytest.raises(DependentSetError):
        subspace_poly(f16, [1, xi, f16.add(1, xi)])
    with pytest.raises(DependentSetError):
        subspace_poly(f16, [1, xi, xi])


def test_too_many_elements_rejected(f16):
    with pytest.raises(DependentSetError):
        subspace_poly(f16, [1] * 5)


# -- Moore matrices ---------------------------------------------------------

def test_moore_trivial(f16):
    S = subspace_poly(f16, [1])
    assert S.moore_matrix(1) == ((1,),)


def test_moore_is_frobenius_orbit(f64):
    from rankmetric.nuclei import subfield_fq_basis
    basis = subfield_fq_basis(f64, 3)
    S = subspace_poly(f64, basis)
    M = S.moore_matrix(1)
    for i, a in enumerate(basis):
        for j in range(3):
            assert M[i][j] == f64.frobenius(a, j)


def test_moore_invertible_for_random_independent_sets(f81):
    rng = random.Random(6)
    built = 0
    while built < 20:
        cand = [rng.randrange(1, 81) for _ in range(3)]
        try:
            S = subspace_poly(f81, cand)
        except DependentSetError:
            continue
        built += 1
        for s in (1, 3):
            inv = S.moore_inverse(s)  # raises if singular
            assert len(inv) == 3


def test_moore_rejects_bad_step(f81):
    S = subspace_poly(f81, [1, f81.generator])
    with pytest.raises(GcdViolationError):
        S.moore_matrix(2)


# -- reduction ----------------------------------------------------------------

def test_reduce_fixes_transversal(f81):
    rng = random.Random(7)
    xi = f81.generator
    S = subspace_poly(f81, [1, xi, f81.pow(xi, 2)])
    # a polynomial already supported on exponents {0, s, 2s} is its own
    # representative
    for _ in range(20):
        coeffs = [rng.randrange(81), rng.randrange(81), rng.randrange(81), 0]
        f = LinearizedPoly(f81, coeffs)
        assert reduce_mod_theta(f, S, 1) == tuple(coeffs[:3])


def test_reduce_theta_to_zero(f81):
    xi = f81.generator
    S = subspace_poly(f81, [1, xi, f81.pow(xi, 2)])
    assert reduce_mod_theta(S.theta_poly(), S, 1) == (0, 0, 0)


def test_reduce_subfield_frobenius_to_identity(f64):
    from rankmetric.nuclei import subfield_fq_basis
    S = subspace_poly(f64, subfield_fq_basis(f64, 3))
    xqm = LinearizedPoly.monomial(f64, 1, 3)
    assert reduce_mod_theta(xqm, S, 1) == (1, 0, 0)


def test_reduce_agrees_on_subspace(f64):
    rng = random.Random(8)
    xi = f64.generator
    S = subspace_poly(f64, [1, xi, f64.pow(xi, 17)])
    for _ in range(100):
        f = randpoly(f64, rng)
        red = reduce_mod_theta(f, S, 1)
        g = poly_from_reduced(S, 1, red)
        assert all(f(u) == g(u) for u in S.subspace())


def test_reduce_linear_and_idempotent(f81):
    rng = random.Random(9)
    xi = f81.generator
    S = subspace_poly(f81, [1, xi, f81.pow(xi, 2)])
    for _ in range(50):
        f, g = randpoly(f81, rng), randpoly(f81, rng)
        rf, rg = reduce_mod_theta(f, S, 1), reduce_mod_theta(g, S, 1)
        assert reduce_mod_theta(f + g, S, 1) == tuple(
            f81.add(a, b) for a, b in zip(rf, rg))
        assert reduce_mod_theta(poly_from_reduced(S, 1, rf), S, 1) == rf


def test_transversal_bijectivity(f81):
    # coefficients <-> values on the alphas is a bijection (Moore solve)
    rng = random.Random(10)
    xi = f81.generator
    S = subspace_poly(f81, [1, xi, f81.pow(xi, 2)])
    seen = set()
    for _ in range(200):
        red = tuple(rng.randrange(81) for _ in range(3))
        g = poly_from_reduced(S, 1, red)
        values = tuple(g(a) for a in S.alphas)
        assert reduce_mod_theta(g, S, 1) == red
        seen.add(values)
    assert len(seen) > 150  # distinct styles of value vectors appear


def test_reduce_with_step_s(f32):
    rng = random.Random(11)
    xi = f32.generator
    S = subspace_poly(f32, [1, xi, f32.pow(xi, 2), f32.pow(xi, 3)])
    for s in (2, 3):
        for _ in range(20):
            f = randpoly(f32, rng)
            red = reduce_mod_theta(f, S, s)
            g = poly_from_reduced(S, s, red)
            assert all(f(u) == g(u) for u in S.subspace())


# -- root counting ---------------------------------------------------------

def test_roots_trivial(f81):
    xi = f81.generator
    S = subspace_poly(f81, [1, xi, f81.pow(xi, 2)])
    assert roots_in_subspace(LinearizedPoly.zero(f81), S) == 27
    assert roots_in_subspace(LinearizedPoly.identity(f81), S) == 1


def test_root_count_is_a_power_of_q(f64):
    rng = random.Random(12)
    xi = f64.generator
    S = subspace_poly(f64, [1, xi, f64.pow(xi, 2), f64.pow(xi, 3)])
    for _ in range(50):
        f = randpoly(f64, rng)
        cnt = roots_in_subspace(f, S)
        assert cnt & (cnt - 1) == 0  # power of 2


# -- support shifting ---------------------------------------------------------

def test_shift_support_basics(f81):
    xi = f81.generator
    S = subspace_poly(f81, [1, xi, f81.pow(xi, 2)])
    assert shift_support(LinearizedPoly.identity(f81), S, 1, 0) == frozenset({0})
    assert shift_support(LinearizedPoly.monomial(f81, 1, 1), S, 1, 0) == frozenset({1})


def support_oracle(phi, S, s, t):
    """Enumerate all a and collect indices of nonzero reduced coefficients."""
    gf = S.gf
    out = set()
    for a in range(gf.order):
        red = reduce_mod_theta(
            phi.compose(LinearizedPoly.monomial(gf, a, (t * s) % gf.n)), S, s)
        out.update(j for j, c in enumerate(red) if c)
    return frozenset(out)


def test_shift_support_matches_enumeration(f81):
    rng = random.Random(13)
    xi = f81.generator
    S = subspace_poly(f81, [1, xi, f81.pow(xi, 2)])
    for _ in range(15):
        phi = randpoly(f81, rng)
        for t in range(3):
            assert shift_support(phi, S, 1, t) == support_oracle(phi, S, 1, t)


def test_shift_identity(f81, f64):
    rng = random.Random(14)
    for gf in (f81, f64):
        xi = gf.generator
        S = subspace_poly(gf, [1, xi, gf.pow(xi, 2)])
        for _ in range(30):
            phi = randpoly(gf, rng)
            A0 = shift_support(phi, S, 1, 0)
            if not A0:
                continue
            for t in range(0, S.m - max(A0)):
                assert shift_support(phi, S, 1, t) == frozenset(i + t for i in A0)


# -- injectivity on small-root families ---------------------------------------

def test_projection_injective_on_twisted_family(f81):
    # members of the twisted family differ by polynomials with fewer than
    # q^m roots in U_S, so their transversal representatives are distinct
    from rankmetric.rankcode import CodeParams, build_gtg
    rng = random.Random(15)
    xi = f81.generator
    S = subspace_poly(f81, [1, xi, f81.pow(xi, 2)])
    gens = build_gtg(CodeParams(f81, 3, 1, 1, 2, xi))
    seen = {}
    for _ in range(100):
        a0 = rng.randrange(81)
        red = reduce_mod_theta(gens.member([a0]), S, 1)
        if red in seen:
            assert seen[red] == a0
        seen[red] = a0
    assert len(seen) > 1


# -- matrix conversion ------------------------------------------------------

def test_poly_matrix_roundtrip(f81):
    rng = random.Random(16)
    for _ in range(20):
        phi = randpoly(f81, rng)
        assert matrix_to_poly(f81, poly_to_matrix(phi)) == phi


def test_row_convention(f81):
    # v(phi(x))^T = v(x)^T Y
    rng = random.Random(17)
    phi = randpoly(f81, rng)
    Y = poly_to_matrix(phi)
    for _ in range(30):
        x = rng.randrange(81)
        vx = f81.vec_repr(x)
        expect = f81.vec_repr(phi(x))
        got = [0] * f81.n
        for i, c in enumerate(vx):
            for j in range(f81.n):
                got[j] = f81.add(got[j], f81.mul(c, Y[i][j]))
        assert tuple(got) == expect


def test_interpolation(f64):
    rng = random.Random(18)
    basis = f64.power_basis()
    for _ in range(10):
        phi = randpoly(f64, rng)
        values = [phi(b) for b in basis]
        assert poly_from_values(f64, basis, values) == phi


# -- the one Moore inverse --------------------------------------------------

def test_moore_inverse_times_moore_matrix_is_identity(f81, f64):
    from rankmetric.linpoly import moore_inverse, moore_matrix
    from rankmetric.rankcode import mat_mul
    rng = random.Random(25)
    cases = [(f64, f64.power_basis(), 1)]
    while len(cases) < 21:
        cand = [rng.randrange(1, 81) for _ in range(3)]
        try:
            subspace_poly(f81, cand)
        except DependentSetError:
            continue
        cases += [(f81, cand, s) for s in (1, 3)]
    for gf, points, s in cases:
        m = len(points)
        identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        assert mat_mul(gf, moore_inverse(gf, points, s), moore_matrix(gf, points, s)) == identity


def test_moore_inverse_rejects_dependent_points(f81):
    from rankmetric.errors import SingularMatrixError
    from rankmetric.linpoly import moore_inverse
    xi = f81.generator
    with pytest.raises(SingularMatrixError):
        moore_inverse(f81, (1, xi, f81.add(1, xi)))


def test_one_generic_inv_serves_interpolation_reduction_and_monomial_forms(monkeypatch):
    from rankmetric import _linalg
    from rankmetric.autgroup import monomial_forms
    from rankmetric.gf import field_create
    calls, real = [], _linalg.generic_inv
    monkeypatch.setattr(_linalg, "generic_inv", lambda rows, ops: calls.append(len(rows)) or real(rows, ops))
    gf = field_create(2, 1, 6)  # a fresh spec caches nothing yet
    basis = gf.power_basis()
    phi = randpoly(gf, random.Random(26))
    values = [phi(b) for b in basis]
    assert poly_from_values(gf, basis, values) == phi
    assert poly_from_values(gf, basis, values) == phi
    assert matrix_to_poly(gf, poly_to_matrix(phi)) == phi
    assert monomial_forms(gf, [], 2) == []
    assert reduce_mod_theta(phi, subspace_poly(gf, basis), 1) == phi.coeffs
    assert calls == [6]


def test_eval_raises_x_once_per_gap_between_coefficients(monkeypatch):
    from rankmetric.gf import FieldSpec, field_create
    gf = field_create(2, 1, 17, [1, 0, 0, 1] + [0] * 13 + [1])  # x^17 + x^3 + 1, no tables
    a, x = gf.generator, 12345
    want_5 = gf.mul(a, gf.frobenius(x, 5))
    want_gaps = functools.reduce(gf.add, (gf.mul(a, gf.frobenius(x, i)) for i in (0, 3, 16)))
    calls, real = [], FieldSpec.pow
    monkeypatch.setattr(FieldSpec, "pow", lambda self, b, t: calls.append(t) or real(self, b, t))
    assert LinearizedPoly.monomial(gf, a, 0)(x) == gf.mul(a, x)
    assert calls == []
    assert LinearizedPoly.monomial(gf, a, 5)(x) == want_5
    assert len(calls) == 1
    assert LinearizedPoly(gf, [a if i in (0, 3, 16) else 0 for i in range(17)])(x) == want_gaps
    assert len(calls) == 3
