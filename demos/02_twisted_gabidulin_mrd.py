#!/usr/bin/env python3
"""Constructing twisted Gabidulin codes and verifying they are MRD.

A code lives first as a family of linearized polynomials
a_0 X + ... + a_{k-1} X^(q^(s(k-1))) + eta a_0^(q^h) X^(q^(sk)),
then as m x n matrices: row i of the codeword for f is the coordinate
vector of f(alpha_i) over F_q.  With k < m the projection keeps all
q^(nk) members and the minimum rank distance is m - k + 1, which meets
the Singleton-like bound.
"""

from rankmetric import (
    CodeParams,
    build_gtg,
    field_create,
    is_mrd,
    min_distance,
    project_code,
    rank_weight_distribution,
    subspace_poly,
)

f81 = field_create(3, 1, 4)
xi = f81.generator

# eta = xi is a non-square, so its relative norm is -1 != (-1)^(nk) = 1:
# a valid twist.  At q = 2 there is no valid nonzero twist at all.
params = CodeParams(f81, m=3, k=1, s=1, h=2, eta=xi)
S = subspace_poly(f81, [1, xi, f81.pow(xi, 2)])
print("S spans", len(S.subspace()), "points; theta_S has q-degree", S.m)

code = project_code(build_gtg(params), S)
print("code:", code)
print("dimension over F_3:", code.dim, "->", code.cardinality, "codewords")
print()

one_basis_matrix = code.basis[0]
print("a basis codeword (rows = values at alpha_i):")
for row in one_basis_matrix:
    print("  ", row)
print()

d = min_distance(code)
verdict, cert = is_mrd(code)
print("minimum rank distance:", d, "(m - k + 1 =", params.m - params.k + 1, ")")
print("MRD verdict:", verdict, "| cardinality", cert["cardinality"], "== bound", cert["bound"])
print("rank weight histogram (index = rank):", rank_weight_distribution(code))
print()

# The untwisted relative: a generalized Gabidulin code on the same S.
gab = project_code(build_gtg(CodeParams(f81, m=3, k=1, s=1, h=0, eta=0)), S)
print("Gabidulin sibling is MRD too:", is_mrd(gab)[0])

# A bigger binary example: 5 x 6 matrices, 2^18 codewords.  The rank
# histogram comes from one small rank per subspace of F_2^5 (372 of
# them), not from ranking every codeword.
f64 = field_create(2, 1, 6)
w = f64.generator
S2 = subspace_poly(f64, [1, w, f64.pow(w, 2), f64.pow(w, 3), f64.pow(w, 4)])
big = project_code(build_gtg(CodeParams(f64, m=5, k=3, s=1, h=0, eta=0)), S2)
print("binary 5x6 code, dim", big.dim, "-> d =", min_distance(big), "(expect 3)")
verdict, cert = is_mrd(big)
print("binary 5x6 code is MRD:", verdict, "| rank weight histogram:", cert["rank_weights"])
