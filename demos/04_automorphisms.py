#!/usr/bin/env python3
"""Exhaustive automorphism groups and the monomial necessary condition.

For a code C in F_q^(m x n), automorphisms are triples (A, B, rho) with
{A X^rho B} = C.  The search fixes A and solves linearly for B, so
desk-scale groups come out exactly; when the right nucleus is the field
F_(q^n) the candidate A come from n linear solves per rho, else from
all of GL(m, q).  When the Theta set built
from the right nucleus meets F_(q^ell) outside F_q, every automorphism
must have an n-side map congruent to a single monomial b X^(q^u) mod
X^(q^ell) - X; the report checks this on every triple found.
"""

import time

from rankmetric import (
    CodeParams,
    build_gtg,
    field_create,
    generate_known_automorphisms,
    project_code,
    subspace_poly,
)
from rankmetric.autgroup import aut_report

# Binary case: 3 x 4 Gabidulin code.  Theta turns out to be all of F_16,
# so the monomial condition is in force.
f16 = field_create(2, 1, 4)
xi = f16.generator
params = CodeParams(f16, m=3, k=1, s=1, h=0, eta=0)
S = subspace_poly(f16, [1, xi, f16.pow(xi, 2)])
code = project_code(build_gtg(params), S)

t0 = time.time()
rep = aut_report(code, S)
ts = rep["theta"]
print(f"|Aut| = {rep['order']}  (search took {time.time() - t0:.2f}s)")
print(f"Theta predicates: meets F_(q^ell)\\F_q = {ts.meets_subfield_outside_fq}, "
      f"full field = {ts.is_full_field}")
print("fraction of triples with monomial n-side:", rep["monomial_fraction"])

# With Theta = F_(q^n), the monomial-shaped candidate family recovers
# the entire group.
known = generate_known_automorphisms(params, S, code)
print("monomial-shaped candidates that verify:", len(known),
      "| equal to the brute-force group:", set(known) == set(rep["triples"]))
print()

# Ternary twisted case, h = 2: Theta = F_9 still meets F_81 \ F_3, so
# necessity holds here too.  |GL(3,3)| = 11232 linear solves.
f81 = field_create(3, 1, 4)
w = f81.generator
params2 = CodeParams(f81, m=3, k=1, s=1, h=2, eta=w)
S2 = subspace_poly(f81, [1, w, f81.pow(w, 2)])
code2 = project_code(build_gtg(params2), S2)
t0 = time.time()
rep2 = aut_report(code2, S2)
print(f"twisted h=2: |Aut| = {rep2['order']} ({time.time() - t0:.1f}s), "
      f"monomial fraction {rep2['monomial_fraction']}")
sample = list(rep2["verdicts"])[0]  # verdicts are streamed: list() to index them
print("sample verdict:", sample)
