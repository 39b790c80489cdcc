"""Automorphism machinery: Theta sets, normalizers, exhaustive search.

An automorphism of a linear code C in F_q^(m x n) is a triple
(A, B, rho) with A in GL(m, q), B in GL(n, q) and rho an automorphism
of F_q (a power of x -> x^p) such that {A X^rho B : X in C} = C.
Triples compose by (A1, B1, r1) o (A2, B2, r2) =
(A1 A2^(r1), B2^(r1) B1, r1 + r2).

The exhaustive search fixes the m-side: for each rho and each A in a
list of candidates, the set {B : A X^rho B in C for all X} is the
nullspace of a linear system over F_q (``RankCode.right_stabilizers``,
whose A = I case is the right nucleus), on index matrices, one rho per
solve (packed tuples only for the matrices handed out).  For a linear
bijective map, mapping a basis into the code already forces set
equality, so invertible nullspace members are automorphisms outright.

The right nucleus N_r = {Y : C Y in C} fixes the shape of the group:
the invertible B of one (rho, A) are empty or a coset B0 N_r^* of the
unit group N_r^*.  Let B0 be invertible with A C^rho B0 = C, and V the
B-space of (rho, A).
  (1) Y in N_r gives A C^rho B0 Y = C Y in C, so B0 N_r lies in V.
  (2) B in V gives C B0^(-1) B = A C^rho B in C, so B0^(-1) B is in N_r.
  (3) B0 Y is invertible iff Y is, so V's invertibles are B0 N_r^*.
So the group is held as its members (rho, A, coset), each distinct
coset once, and its |Aut| triples are made only as it is read.

It also finds the candidates.  For (A, B, rho) in Aut(C) and Y in N_r,
A C^rho B (B^(-1) Y^rho B) = A (C Y)^rho B lies in C, so
B^(-1) N_r^rho B = N_r.  When N_r = F_q[z] is the field F_{q^n}
(``field_conjugates``), B^(-1) z^rho B is a root w in N_r of the
minimal polynomial of z^rho (entrywise Frobenius), and those roots are
the n matrix powers w_j = z^(p^rho q^j).  The B with z^rho B = B w_j
form a 1-dimensional F_{q^n}-space, so they are B_j N_r and every
nonzero one is invertible.  As C y = C for y in N_r^*, (A, B_j y, rho)
is an automorphism iff (A, B_j, rho) is, so the members' A are the
invertibles of the n linear spaces {A : A X^rho B_j in C}, each the
transpose of a right stabilizer of ``adjoint(code)``.  The search
sorts them in ``enumerate_gl`` order and solves their B-spaces as
before: e n small solves, not one per A in GL(m, q), and the same
members, cosets and bytes.  Where N_r is not F_{q^n} the search walks
GL(m, q) once per rho, which stays the tests' reference.

The Theta set collects the coefficient sums of right-nucleus elements
written in the q^(i ell)-monomial ansatz; its two predicates (meeting
F_{q^ell} outside F_q, or being all of F_{q^n}) gate the necessary
monomial shape of automorphisms, which ``check_monomial_form`` tests on
the n-side map modulo X^(q^ell) - X.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .errors import AnsatzMismatchError, EnumerationGuardError
from .gf import factorize
from .linpoly import LinearizedPoly, SubspaceSpec, matrix_to_poly, moore_inverse, poly_to_matrix
from .nuclei import mside_twisted_scalar, right_nucleus_bruteforce, smallest_containing_subfield
from .rankcode import (
    GL_GUARD_AUT,
    RankCode,
    CodeParams,
    adjoint,
    build_gtg,
    mat_frobenius_p,
    mat_identity,
    mat_mul,
    project_code,
)

GL_GUARD_NORMALIZER = 1 << 26


# ----------------------------------------------------------------------------
# triples
# ----------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AutTriple:
    A: tuple
    B: tuple
    rho: int


class AutGroup:
    """The group ``aut_bruteforce`` finds, held as its members (rho, A, c)
    in (rho, A) order: ``cosets[c]`` is the coset B0 N_r^* of B's of
    that (rho, A) (module docstring) as one array (|N_r^*|, n, n) of
    entry indices, sorted, and stored once however many members share
    it.  Iterating makes the AutTriples in (rho, A, B) order as they are
    read; ``len`` is the order, counted from the members."""

    def __init__(self, gf, members, cosets):
        self.gf, self.members, self.cosets = gf, members, cosets

    def __len__(self):
        return sum(len(self.cosets[c]) for _, _, c in self.members)

    def __iter__(self):
        for rho, a_mat, c in self.members:
            for b_mat in self.coset(c):
                yield AutTriple(a_mat, b_mat, rho)

    def coset(self, c):
        """The B's of coset c, in order, as tuples of row tuples of packed
        F_q elements."""
        return _linalg.packed_mats(_linalg.fq_arith(self.gf), self.cosets[c])


def aut_identity(gf, m, n) -> AutTriple:
    return AutTriple(mat_identity(gf, m), mat_identity(gf, n), 0)


def aut_compose(gf, t1: AutTriple, t2: AutTriple) -> AutTriple:
    """Apply t2 first, then t1."""
    rho = (t1.rho + t2.rho) % gf.e
    a2, b2 = mat_frobenius_p(gf, t2.A, t1.rho), mat_frobenius_p(gf, t2.B, t1.rho)
    return AutTriple(mat_mul(gf, t1.A, a2), mat_mul(gf, b2, t1.B), rho)


def aut_inverse(gf, t: AutTriple) -> AutTriple:
    rho = (-t.rho) % gf.e
    a_inv, b_inv = (mat_frobenius_p(gf, tuple(_linalg.fq_inv(mat, gf)), rho) for mat in (t.A, t.B))
    return AutTriple(a_inv, b_inv, rho)


def triple_acts(gf, t: AutTriple, X):
    return mat_mul(gf, mat_mul(gf, t.A, mat_frobenius_p(gf, X, t.rho)), t.B)


# ----------------------------------------------------------------------------
# GL enumeration
# ----------------------------------------------------------------------------

def gl_order(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def _gl_guard(q, n, guard):
    size = gl_order(q, n)
    if size > guard:
        raise EnumerationGuardError(f"|GL({n},{q})| = {size} exceeds guard {guard}")


def enumerate_gl(gf, n: int, guard: int = GL_GUARD_NORMALIZER):
    """All of GL(n, q) as n x n entry-index arrays in lexicographic
    row-major order, streamed: candidate t = 0, 1, ..., q^(n^2) - 1 holds
    the base-q digits of t, the last entry's fastest, and the invertible
    ones are yielded.  Nothing is kept, so each call walks GL again."""
    _gl_guard(gf.q, n, guard)
    f = _linalg.fq_arith(gf)
    candidates = (digits[:, ::-1] for digits in _linalg.span_digits(n * n, gf.q, n * n))
    for mats in _invertibles(f, candidates, n):
        yield from mats


def _invertibles(f, stacks, n):
    """The invertible n x n matrices of a stream of stacks of index rows
    of n^2 entries (GL candidates, or a B-space's ``modp_span``), as
    index stacks (k, n, n), lazily and in order; each stack is ranked
    as one."""
    for rows in stacks:
        mats = rows.reshape(-1, n, n)
        yield mats[_linalg.modp_rank(mats, f) == n]


# ----------------------------------------------------------------------------
# Theta set
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaSet:
    elements: frozenset
    ell: int
    meets_subfield_outside_fq: bool
    is_full_field: bool


def right_nucleus_polyform(basis_matrices, gf):
    """Re-express right-nucleus matrices as linearized polynomials."""
    return [matrix_to_poly(gf, Y) for Y in basis_matrices]


def theta_set(polys, ell: int, gf) -> ThetaSet:
    """Coefficient sums of the nucleus in the q^(i ell)-monomial ansatz.

    Raises AnsatzMismatchError when some element carries a coefficient
    off the ell-grid: that signals that the closed-form hypotheses
    failed upstream and no Theta-based conclusion is available."""
    sums = []
    for phi in polys:
        s = 0
        for i, c in enumerate(phi.coeffs):
            if c and i % ell != 0:
                raise AnsatzMismatchError(
                    f"nucleus element has coefficient at exponent q^{i}, "
                    f"not a multiple of ell = {ell}")
            if c:
                s = gf.add(s, c)
        sums.append(s)
    # the F_q-span of the sums, enumerated over independent coordinate rows
    rref, pivots = _linalg.fq_rref([gf.vec_repr(x) for x in sums], gf)
    elements = {gf.from_vec(v) for v in _linalg.fq_span(gf, rref[:len(pivots)])} if pivots else {0}
    subfield = gf.subfield_elements(ell) if gf.n % ell == 0 else frozenset()
    fq = set(gf.fq_list())
    meets = any(x in subfield and x not in fq for x in elements)
    return ThetaSet(frozenset(elements), ell, meets, len(elements) == gf.order)


# ----------------------------------------------------------------------------
# monomial form checks
# ----------------------------------------------------------------------------

def _residues(phi: LinearizedPoly, ell: int):
    """phi mod X^(q^ell) - X: its coefficients with exponents folded mod ell."""
    return [functools.reduce(phi.gf.add, phi.coeffs[u::ell], 0) for u in range(ell)]


def check_monomial_form(phi: LinearizedPoly, ell: int):
    """Reduce phi mod X^(q^ell) - X (fold exponents mod ell) and test for
    a single nonzero residue coefficient.  Returns (is_monomial, a, u)."""
    nonzero = [(True, a, u) for u, a in enumerate(_residues(phi, ell)) if a]
    return nonzero[0] if len(nonzero) == 1 else (False, None, None)


def monomial_forms(gf, cosets, ell: int):
    """``check_monomial_form(matrix_to_poly(gf, B), ell)`` of each B of each
    coset (index stacks (k, n, n)), by one ``matmul`` per coset, as the
    residues are F_q-linear in B's entries.  Row (i, j) of the n^2 x (ell n)
    map is xi^j times the residues w_iu of xi^i -> 1, column i of the
    power basis's Moore inverse (times x -> xi, j times)."""
    f, n = _linalg.fq_arith(gf), gf.n
    w = f.index([[gf.vec_repr(r) for r in _residues(LinearizedPoly(gf, col), ell)]
                 for col in zip(*moore_inverse(gf, gf.power_basis()))])
    by_xi = f.index(poly_to_matrix(LinearizedPoly.monomial(gf, gf.generator, 0)))
    rows = itertools.accumulate(range(n - 1), lambda r, _: f.matmul(r, by_xi), initial=w)
    fold = np.stack(list(rows), axis=1).reshape(n * n, ell * n)
    out = []
    for bs in cosets:
        res = f.packed(f.matmul(bs.reshape(len(bs), n * n), fold)).reshape(len(bs), ell, n)
        out.append([(True, gf.from_vec(blocks[nz.index(True)]), nz.index(True)) if sum(nz) == 1 else (False, None, None)
                    for blocks, nz in zip(res.tolist(), res.any(axis=2).tolist())])
    return out


# ----------------------------------------------------------------------------
# normalizer
# ----------------------------------------------------------------------------

def normalizer_elements(nr_basis, gf, guard: int = GL_GUARD_NORMALIZER):
    """All M in GL(n, q) with M N M^(-1) = N as sets, N the span of the
    given right-nucleus basis.  Conjugation is a linear bijection, so
    checking basis images against the span suffices."""
    if not nr_basis:
        return []
    # membership in the span via its dual: v in N iff H v = 0; chunks of
    # GL are inverted and conjugated as stacks, in enumeration order
    n = len(nr_basis[0])
    f = _linalg.fq_arith(gf)
    basis = f.index(nr_basis)
    h = _linalg.modp_dual(basis.reshape(len(nr_basis), n * n), f)
    out = []
    per_m = max(2, len(nr_basis)) * n * n
    for chunk in _linalg.stack_chunks(enumerate_gl(gf, n, guard), per_m):
        ms = np.array(chunk)
        conj = f.matmul(f.matmul(ms[:, None], basis), _linalg.modp_inv(ms, f)[:, None])
        outside = f.matmul(conj.reshape(len(chunk), len(nr_basis), n * n), h.T).any(axis=(1, 2))
        out += _linalg.packed_mats(f, ms[~outside])
    return out


# ----------------------------------------------------------------------------
# exhaustive automorphism search
# ----------------------------------------------------------------------------

def _mat_pow(f, a, k):
    """a^k for an index matrix a and k >= 1, by squaring."""
    out = None
    while k:
        if k & 1:
            out = a if out is None else f.matmul(out, a)
        k >>= 1
        if k:
            a = f.matmul(a, a)
    return out


def field_conjugates(f, basis, n):
    """The conjugates z, z^q, ..., z^(q^(n-1)) (matrix powers, an (n, n, n)
    index array) of a generator z of the F_q-algebra spanned by ``basis``
    (n index rows of n x n matrices; the algebra is closed under products
    and holds I) when that algebra is the field F_{q^n}, else None.

    z is the first element, in ``modp_span`` order, whose powers I, z, ...,
    z^(n-1) are independent: then F_q[z] is the whole algebra, which is
    F_q[x]/(mu) for z's minimal polynomial mu of degree n.  Only the span
    of the first floor(n/2) + 1 basis rows (the first q^(floor(n/2) + 1)
    elements) is walked.  In F_{q^n} its meets with the maximal proper
    subfields, one per prime r | n and each of dimension n/r <= n/2, are
    proper subspaces of it, and at most q proper subspaces never cover a
    space, so a generator lies in it (n has at most q prime divisors for
    every n < 30).  mu is irreducible, by Rabin's test read in F_q[z], iff
    z^(q^n) = z and z^(q^(n/r)) - z is invertible for each prime r | n."""
    lead = np.asarray(basis)[:n // 2 + 1]
    eye = np.eye(n, dtype=np.int64)
    for digits in _linalg.span_digits(len(lead), f.q, n ** 3):
        zs = f.matmul(digits, lead).reshape(-1, n, n)
        powers = itertools.accumulate(range(n - 1), lambda y, _: f.matmul(y, zs), initial=np.broadcast_to(eye, zs.shape))
        hit = np.flatnonzero(_linalg.modp_rank(np.stack(list(powers), axis=1).reshape(-1, n, n * n), f) == n)
        if len(hit):
            break
    else:
        return None
    conj = list(itertools.accumulate(range(n), lambda y, _: _mat_pow(f, y, f.q), initial=zs[hit[0]]))
    if (conj[n] != conj[0]).any() or any(_linalg.modp_rank(f.sub(conj[n // r], conj[0]), f) < n for r in factorize(n)):
        return None
    return np.stack(conj[:n])


def right_nucleus_conjugates(code: RankCode):
    """``field_conjugates`` of the right nucleus (the A = I solve), or
    None when it is not the field F_{q^n}."""
    [(_, basis)] = code.right_stabilizers([np.eye(code.m, dtype=np.int64)])
    return field_conjugates(_linalg.fq_arith(code.gf), np.array(basis), code.n) if len(basis) == code.n else None


def _member_lefts(code: RankCode, conj, rho):
    """The A of every member of rho, an index stack (k, m, m) in
    ``enumerate_gl`` order, from the conjugates of a generator z of the
    right nucleus F_{q^n} (module docstring): B_j is the first basis
    vector of {B : z^rho B = B w_j}, w_j = (z^(q^j))^(p^rho), all n
    systems one stack, and the A of each B_j are the transposed
    invertibles of ``adjoint(code).right_stabilizers([B_j^T], rho)``."""
    gf, m, n = code.gf, code.m, code.n
    f = _linalg.fq_arith(gf)
    eye = np.eye(n, dtype=np.int64)
    zr = f.index(mat_frobenius_p(gf, _linalg.packed_mats(f, conj[0]), rho))
    # row-major vec(z B - B w) = (z (x) I - I (x) w^T) vec(B); indices 0 and 1 multiply as integers
    systems = f.sub(np.kron(zr, eye), np.stack([np.kron(eye, _mat_pow(f, w, gf.p ** rho).T) for w in conj]))
    bts = [np.reshape(null[0], (n, n)).T for null in _linalg.modp_nullspace(systems, f)]
    found = [ys.swapaxes(1, 2) for _, null in adjoint(code).right_stabilizers(bts, rho)
             for ys in _invertibles(f, _linalg.modp_span(null, f), m)]
    a = np.concatenate(found) if found else np.empty((0, m, m), dtype=np.int64)
    return a[np.lexsort(a.reshape(len(a), m * m).T[::-1])]


def aut_bruteforce(code: RankCode, gl_guard: int = GL_GUARD_AUT) -> AutGroup:
    """The full automorphism group of the code as an ``AutGroup``, in
    deterministic (rho, A, B) lexicographic order.  The A of each rho
    come from the right nucleus when it is the field F_{q^n}
    (``_member_lefts``); otherwise GL(m, q) is walked as index matrices
    once per rho and not kept.  Either way their B-spaces are solved one
    rho per solve; equal B-spaces have equal canonical nullspace bases,
    so the span of each distinct one is enumerated once, and a member
    whose space holds no invertible B is dropped.  The guards come
    first: n^2 <= 36, the zero and the full code, and |GL(m, q)| <=
    ``gl_guard`` whichever path runs."""
    gf, n = code.gf, code.n
    if n * n > 36:
        raise EnumerationGuardError(f"n^2 = {n * n} exceeds the 36 guard")
    if not code.basis or not code.parity_rows():
        raise EnumerationGuardError(
            f"code is {'the zero code' if not code.basis else 'the full matrix space'}; "
            "its automorphism set is all of GL(m,q) x GL(n,q) x Aut(F_q) and is not enumerated")
    _gl_guard(gf.q, code.m, gl_guard)
    conj = right_nucleus_conjugates(code)
    f = _linalg.fq_arith(gf)
    members, cosets, seen = [], [], {}
    for rho in range(gf.e):
        lefts = enumerate_gl(gf, code.m, gl_guard) if conj is None else _member_lefts(code, conj, rho)
        for a_mat, null in code.right_stabilizers(lefts, rho):
            key = np.array(null).tobytes()
            if key not in seen:
                bs = np.concatenate(list(_invertibles(f, _linalg.modp_span(null, f), n)))
                seen[key] = len(cosets) if len(bs) else None
                if len(bs):  # sorted as the packed matrices sort: index order is F_q's order
                    cosets.append(bs[np.lexsort(bs.reshape(len(bs), n * n).T[::-1])].astype(np.min_scalar_type(f.q - 1)))
            if seen[key] is not None:
                members.append((rho, _linalg.packed_mats(f, a_mat), seen[key]))
    return AutGroup(gf, members, cosets)


# ----------------------------------------------------------------------------
# candidate generation with the monomial shape
# ----------------------------------------------------------------------------

def generate_known_automorphisms(params: CodeParams, S: SubspaceSpec, code: RankCode = None):
    """Monomial-shaped candidates (a, w) x (b, u) x rho: the m-side map
    c -> a c^(q^w) must stabilize U_S, the n-side map is x -> b x^(q^u);
    exactly the candidates passing the membership test are returned, so
    every listed triple is a verified automorphism.  Each m-side A gets
    its B-space from ``RankCode.right_stabilizers``; the nonzero
    monomials that pass its dual test are kept.  The matrix of b X^(q^u)
    is that of X^(q^u) times that of x -> b x, the ``modp_span`` of the
    multiplications by the power basis: 2n ``poly_to_matrix`` calls."""
    gf, n = params.gf, params.gf.n
    if code is None:
        code = project_code(build_gtg(params), S)
    mside = []
    for w in range(n):
        frob_alphas = [gf.frobenius(al, w) for al in S.alphas]
        inv1 = gf.inv(frob_alphas[0])  # a alpha_1^(q^w) = u in U_S, u != 0
        for a in (gf.mul(u, inv1) for u in S.subspace() if u):
            rows = tuple(S.alpha_coords(gf.mul(a, fa)) for fa in frob_alphas)
            if None not in rows:
                mside.append(rows)
    f = _linalg.fq_arith(gf)
    duals = [(rho, _linalg.packed_mats(f, a_mat), _linalg.modp_dual(null, f).T)
             for rho in range(gf.e) for a_mat, null in code.right_stabilizers(f.index(mside), rho)]
    frobs = f.index([poly_to_matrix(LinearizedPoly.monomial(gf, gf.one, u)) for u in range(n)])
    mults = f.index([poly_to_matrix(LinearizedPoly.monomial(gf, b, 0)) for b in gf.power_basis()])
    out = []
    for frob in frobs:
        for words in _linalg.modp_span(mults.reshape(n, n * n), f):
            bs = f.matmul(frob, words.reshape(-1, n, n)).reshape(-1, n * n)
            for rho, a_mat, h in duals:
                keep = bs.any(axis=1) & ~f.matmul(bs, h).any(axis=1)
                out.extend(AutTriple(a_mat, b_mat, rho) for b_mat in _linalg.packed_mats(f, bs[keep].reshape(-1, n, n)))
    return sorted(out, key=lambda t: (t.rho, t.A, t.B))


# ----------------------------------------------------------------------------
# report
# ----------------------------------------------------------------------------

def aut_report(code: RankCode, S: SubspaceSpec = None, gl_guard: int = GL_GUARD_AUT) -> dict:
    """Brute-force group plus Theta predicates and per-triple monomial
    verdicts on the n-side (and the twisted-scalar check on the m-side).

    ``triples`` is the ``AutGroup``.  ``verdicts`` is a generator over
    its triples, in order: one dict {"n_side_monomial", "a", "u"}, plus
    "m_side_scalar" when the n-side is monomial, made as it is read (call
    ``list`` to index it).  ``monomial_forms`` computes the forms by one
    product per distinct coset; ``monomial_fraction`` is counted from them."""
    gf = code.gf
    group = aut_bruteforce(code, gl_guard)
    report = {"order": len(group), "triples": group}
    if S is None:
        return report
    ell = smallest_containing_subfield(S)
    report["ell_right"] = ell
    nr = right_nucleus_bruteforce(code)
    try:
        polys = right_nucleus_polyform(nr.bruteforce_basis, gf)
        ts = theta_set(polys, ell, gf)
        report["theta"] = ts
        report["ansatz_mismatch"] = False
    except AnsatzMismatchError:
        ts = None
        report["theta"] = None
        report["ansatz_mismatch"] = True
    forms = monomial_forms(gf, group.cosets, ell)
    monomials = [sum(mono for mono, _, _ in coset) for coset in forms]
    report["verdicts"] = _verdicts(group, forms, S)
    report["monomial_fraction"] = sum(monomials[c] for _, _, c in group.members) / len(group)
    return report


def _verdicts(group, forms, S):
    """The verdict of each triple, in order (see ``aut_report``), read
    off the forms of its member's coset; the m-side scalars of a member
    are kept per u until the next member."""
    for _, a_mat, c in group.members:
        scalars = {}
        for mono, a, u in forms[c]:
            entry = {"n_side_monomial": mono, "a": a, "u": u}
            if mono:
                if u not in scalars:
                    scalars[u] = mside_twisted_scalar(a_mat, S, u)
                entry["m_side_scalar"] = scalars[u]
            yield entry
