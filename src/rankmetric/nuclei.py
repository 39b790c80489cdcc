"""Middle and right nuclei: brute-force solves and closed-form predictions.

The middle nucleus of a linear code C in F_q^(m x n) is
{Z in F_q^(m x m) : Z C in C for all C}, the right nucleus is
{Y in F_q^(n x n) : C Y in C for all C}; both are F_q-algebras whose
orders are equivalence invariants (elsewhere: left/right idealisers).

Brute force never enumerates codewords: "B_t Y in code" is linear in
the entries of Y once membership is expressed through a basis of the
dual space, so the right nucleus is the nullspace of a stacked
constraint system (nk (mn - nk) rows, n^2 unknowns); the middle nucleus
is the transposed right nucleus of the transpose code (Lunardon,
Trombetti and Zhou, J. Algebr. Comb. 46, 2017).

The closed forms, valid under hypothesis flags computed by
``hypothesis_check``:

* middle: {c X : c in F_{q^t}} with t the largest ell such that U_S is
  F_{q^ell}-linear (untwisted), and t = gcd(n, s k - h, ell) for a
  nonzero twist eta;
* right (needs 1 in S, else normalize S by alpha_1): with ell minimal
  such that U_S lies in F_{q^ell} and r = n/ell, the set
  {sum_i c_i X^(q^(i ell))}, each c_i free for eta = 0 and constrained
  by eta c_i^(q^h) = eta^(q^(i ell)) c_i otherwise.

Parameter cells recorded as open (m = k+1 or (m,k) = (4,2) on the right;
a short list on the middle side) never get a prediction: the report then
carries the brute-force nucleus alone, usable as an experimental probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import _linalg
from .errors import (
    EnumerationGuardError,
    HypothesisNotMetError,
    OneNotInSError,
)
from .gf import subfield_fq_basis
from .linpoly import (
    LinearizedPoly,
    SubspaceSpec,
    _matvec,
    poly_to_matrix,
    subspace_poly,
)
from .rankcode import (
    CodeParams,
    RankCode,
    adjoint,
    build_gtg,
    mat_vec,
    project_code,
    vec_mat,
)

SPAN_GUARD = 1 << 20


# ----------------------------------------------------------------------------
# brute force
# ----------------------------------------------------------------------------

def _report(kind, gf, basis, size):
    """The nucleus spanned by index vectors read as size x size matrices."""
    f = _linalg.fq_arith(gf)
    mats = tuple(vec_mat(tuple(f.packed(v).tolist()), size, size) for v in basis)
    return NucleusReport(kind, mats, gf.q ** len(mats))


def _span_guard(gf, dim, cap):
    if gf.q ** dim > cap:
        raise EnumerationGuardError(f"span has q^{dim} elements, above cap {cap}")


def span_matrices(gf, basis, cap=SPAN_GUARD):
    """All F_q-combinations of the basis matrices (guarded)."""
    if not basis:
        return frozenset()
    _span_guard(gf, len(basis), cap)
    rows, cols = len(basis[0]), len(basis[0][0])
    return frozenset(vec_mat(v, rows, cols)
                     for v in _linalg.fq_span(gf, [mat_vec(b) for b in basis]))


def spans_equal(gf, basis_a, basis_b) -> bool:
    """Set equality of two F_q-spans of matrices: rank A = rank B = rank(A u B)."""
    va = [mat_vec(b) for b in basis_a]
    vb = [mat_vec(b) for b in basis_b]
    return _linalg.fq_rank(va, gf) == _linalg.fq_rank(vb, gf) == _linalg.fq_rank(va + vb, gf)


# ----------------------------------------------------------------------------
# structural quantities of S
# ----------------------------------------------------------------------------

def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def largest_linearity_field(S: SubspaceSpec) -> int:
    """Largest ell (a divisor of n) with F_{q^ell} U_S = U_S."""
    gf = S.gf
    for ell in sorted(_divisors(gf.n), reverse=True):
        g = gf.subfield_generator(ell)
        # F_{q^ell} = F_q[g], so closure under g suffices
        if all(S.alpha_coords(gf.mul(g, a)) is not None for a in S.alphas):
            return ell
    return 1


def smallest_containing_subfield(S: SubspaceSpec) -> int:
    """Smallest ell with U_S inside F_{q^ell} (always divides n)."""
    gf = S.gf
    for ell in _divisors(gf.n):
        if all(gf.frobenius(a, ell) == a for a in S.alphas):
            return ell
    return gf.n


# ----------------------------------------------------------------------------
# hypothesis flags
# ----------------------------------------------------------------------------

def hypothesis_check(params: CodeParams, S: SubspaceSpec) -> dict:
    """Named conditions gating the closed-form nucleus results, plus the
    open-case registry.  Predictions are issued only when the matching
    *_enabled flag is true."""
    gf = params.gf
    n, m, k, s, h = gf.n, params.m, params.k, params.s, params.h
    eta = params.eta
    eta_zero = eta == 0

    flags = {
        "eta_zero": eta_zero,
        "m_gt_k_plus_1": m > k + 1,
        "not_m4k2": (m, k) != (4, 2),
    }
    mono_b = (not eta_zero) and flags["m_gt_k_plus_1"] and flags["not_m4k2"]
    flags["right_mono_a"] = eta_zero
    flags["right_mono_b"] = mono_b
    flags["middle_mono_a"] = eta_zero
    flags["middle_mono_b"] = mono_b

    # conditioned middle lemma, with the second code taken equal to the first
    flags["middle_case_a"] = (not eta_zero and k == 1 and m == 2
                              and (2 * h) % n != 0 and h % n != 0)
    flags["middle_case_b"] = not eta_zero and k == 2 and h % n != 0
    if not eta_zero and k == 2 and m == 4 and n == 4:
        v = gf.mul(gf.mul(gf.frobenius(eta, 2 * s), eta),
                   gf.mul(gf.frobenius(eta, 3 * s), gf.frobenius(eta, s)))
        flags["middle_case_c"] = v != gf.one
    else:
        flags["middle_case_c"] = False
    flags["middle_case_d"] = (not eta_zero and k > 2 and m == k + 1
                              and h % n != 0)

    flags["open_case_right"] = (not eta_zero) and (m == k + 1 or (m, k) == (4, 2))
    flags["open_case_middle"] = (not eta_zero) and (
        (k == 1 and m == 2 and n == 2 * h)
        or (k == 2 and m == 3 and h % n == 0)
        or (k == 2 and m == 4 and n > m)
        or (k > 2 and m == k + 1 and h % n == 0))
    flags["open_case"] = flags["open_case_right"] or flags["open_case_middle"]

    middle_any = (flags["middle_mono_b"] or flags["middle_case_a"]
                  or flags["middle_case_b"] or flags["middle_case_c"]
                  or flags["middle_case_d"])
    flags["middle_enabled"] = eta_zero or (middle_any and not flags["open_case_middle"])
    flags["right_enabled"] = eta_zero or (mono_b and not flags["open_case_right"])
    return flags


# ----------------------------------------------------------------------------
# predictions
# ----------------------------------------------------------------------------

def predict_middle_nucleus(params: CodeParams, S: SubspaceSpec):
    """Predicted middle nucleus {c X : c in F_{q^t}} as matrices acting on
    U_S in the alpha basis.  Raises HypothesisNotMetError outside the
    enabled region."""
    gf = params.gf
    flags = hypothesis_check(params, S)
    ell = largest_linearity_field(S)
    if params.eta == 0:
        t = ell
    else:
        if not flags["middle_enabled"]:
            failed = [name for name in
                      ("middle_mono_b", "middle_case_a", "middle_case_b",
                       "middle_case_c", "middle_case_d")
                      if not flags[name]]
            if flags["open_case_middle"]:
                failed.append("open_case_middle")
            raise HypothesisNotMetError("middle-nucleus prediction unavailable",
                                        failed_flags=failed)
        t = gcd(gcd(gf.n, abs(params.s * params.k - params.h)), ell)
    basis = []
    for c in subfield_fq_basis(gf, t):
        rows = []
        for a in S.alphas:
            coords = S.alpha_coords(gf.mul(c, a))
            assert coords is not None, "scalar image left U_S"
            rows.append(coords)
        basis.append(tuple(rows))
    return {
        "t": t,
        "ell_mid": ell,
        "order": gf.q ** t,
        "basis": tuple(basis),
        "description": f"{{c X : c in F_{{q^{t}}}}} acting on U_S",
    }


def predict_right_nucleus(params: CodeParams, S: SubspaceSpec):
    """Predicted right nucleus in polynomial and matrix form; needs 1 in S
    (callers may normalize first).  Raises HypothesisNotMetError or
    OneNotInSError."""
    gf = params.gf
    if gf.one not in S.alphas:
        raise OneNotInSError("right-nucleus prediction needs 1 in S; "
                             "normalize S by alpha_1 first")
    flags = hypothesis_check(params, S)
    if not flags["right_enabled"]:
        failed = [name for name in ("right_mono_a", "right_mono_b") if not flags[name]]
        if flags["open_case_right"]:
            failed.append("open_case_right")
        raise HypothesisNotMetError("right-nucleus prediction unavailable",
                                    failed_flags=failed)
    ell = smallest_containing_subfield(S)
    r = gf.n // ell
    polys = []
    coeff_spaces = []
    for i in range(r):
        coeff_basis = right_coefficient_space(gf, params.eta, params.h, i * ell)
        coeff_spaces.append(len(coeff_basis))
        polys.extend(LinearizedPoly.monomial(gf, c, i * ell) for c in coeff_basis)
    mats = tuple(poly_to_matrix(phi) for phi in polys)
    if params.eta == 0:
        desc = f"{{sum c_i X^(q^(i*{ell})) : c_i in F_{{q^{gf.n}}}}}"
    else:
        desc = (f"{{sum c_i X^(q^(i*{ell})) : eta c_i^(q^{params.h}) "
                f"= eta^(q^(i*{ell})) c_i}}")
    return {
        "ell_right": ell,
        "r": r,
        "order": gf.q ** len(polys),
        "coeff_dims": coeff_spaces,
        "polys": tuple(polys),
        "basis": mats,
        "description": desc,
    }


def right_coefficient_space(gf, eta, h, shift):
    """RREF F_q-basis (in power-basis coordinates) of
    {c : eta c^(q^h) = eta^(q^shift) c}, the kernel of the linearized map
    c -> eta c^(q^h) - eta^(q^shift) c: one F_q nullspace solve of its
    matrix (all of F_{q^n}, the power basis, for eta = 0)."""
    phi = (LinearizedPoly.monomial(gf, eta, h)
           - LinearizedPoly.monomial(gf, gf.frobenius(eta, shift), 0))
    f = _linalg.fq_arith(gf)
    # row i of Y holds the coordinates of phi(xi^i): c is in the kernel iff Y^T v(c) = 0
    kernel = _linalg.modp_nullspace(f.index(poly_to_matrix(phi)).T, f)
    rref, pivots = _linalg.fq_rref([f.packed(v).tolist() for v in kernel], gf)
    return [gf.from_vec(row) for row in rref[:len(pivots)]]


# ----------------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------------

@dataclass
class NucleusReport:
    kind: str
    bruteforce_basis: tuple
    bruteforce_order: int
    hypothesis_flags: dict = field(default_factory=dict)
    predicted_order: int | None = None
    predicted_basis: tuple | None = None
    predicted_description: str | None = None
    agree: bool | None = None
    t: int | None = None
    ell: int | None = None
    r: int | None = None
    normalized: bool = False

    def to_json(self, gf) -> dict:
        out = {
            "kind": self.kind,
            "order": self.bruteforce_order,
            "basis": [[gf.fq_json(x) for x in mat_vec(b)] for b in self.bruteforce_basis],
            "flags": {k: bool(v) for k, v in self.hypothesis_flags.items()},
        }
        if self.predicted_order is not None:
            out["predicted_order"] = self.predicted_order
            out["predicted"] = self.predicted_description
        if self.agree is not None:
            out["agree"] = self.agree
        if self.t is not None:
            out["t"] = self.t
        if self.ell is not None:
            out["ell_mid" if self.kind == "middle" else "ell_right"] = self.ell
        if self.r is not None:
            out["r"] = self.r
        if self.normalized:
            out["normalized"] = True
        return out


def middle_nucleus_bruteforce(code: RankCode) -> NucleusReport:
    """{Z : Z X in the code for every X} = {Y^T : Y in the right nucleus
    of ``adjoint(code)``}.  The canonical basis in Z's entry order (unit
    vectors on the last information set) is one RREF of the Y^T with
    their columns reversed, read back reversed."""
    gf, m = code.gf, code.m
    [(_, ys)] = adjoint(code).right_stabilizers([np.eye(code.n, dtype=np.int64)])
    zs = np.swapaxes(np.reshape(ys, (-1, m, m)), 1, 2).reshape(-1, m * m)
    rref, _ = _linalg.modp_rref(zs[:, ::-1], _linalg.fq_arith(gf))
    return _report("middle", gf, rref[::-1, ::-1], m)


def right_nucleus_bruteforce(code: RankCode) -> NucleusReport:
    """{Y : X Y in the code for every X}: the right stabilizer of A = I."""
    [(_, basis)] = code.right_stabilizers([np.eye(code.m, dtype=np.int64)])
    return _report("right", code.gf, basis, code.n)


def nucleus_field_structure(report_or_basis, gf, cap=SPAN_GUARD):
    """(is_field, order): is the span a finite field?  Checks identity
    membership, closure under multiplication, and invertibility of every
    nonzero element (a finite division ring is a field).  All products
    are tested against the dual of the span in chunked matmuls, and the
    span is ranked as stacked chunks."""
    basis = report_or_basis.bruteforce_basis if isinstance(report_or_basis, NucleusReport) else tuple(report_or_basis)
    if not basis:
        return False, None
    size, dim = len(basis[0]), len(basis)
    f = _linalg.fq_arith(gf)
    mats = f.index(basis)
    vecs = mats.reshape(dim, size * size)
    h = _linalg.modp_dual(vecs, f)
    if f.matmul(h, np.eye(size, dtype=np.int64).reshape(-1, 1)).any():  # is the identity in the span?
        return False, None
    for chunk in _linalg.stack_chunks(range(dim), dim * size * size):
        prods = f.matmul(mats[chunk][:, None], mats)
        if f.matmul(prods.reshape(-1, size * size), h.T).any():
            return False, None
    _span_guard(gf, dim, cap)
    for words in _linalg.modp_span(vecs, f):
        ranks = _linalg.modp_rank(words.reshape(-1, size, size), f)
        if ((ranks > 0) & (ranks < size)).any():
            return False, None
    return True, gf.q ** dim


def _normalized_subspace(params: CodeParams, S: SubspaceSpec) -> SubspaceSpec:
    gf = params.gf
    a1_inv = gf.inv(S.alphas[0])
    return subspace_poly(gf, [gf.mul(a1_inv, a) for a in S.alphas])


def middle_report(params: CodeParams, S: SubspaceSpec, code: RankCode = None) -> NucleusReport:
    """Brute force + prediction + elementwise agreement for the middle side."""
    if code is None:
        code = project_code(build_gtg(params), S)
    report = middle_nucleus_bruteforce(code)
    report.hypothesis_flags = hypothesis_check(params, S)
    report.ell = largest_linearity_field(S)
    return _compare(report, predict_middle_nucleus, params, S)


def right_report(params: CodeParams, S: SubspaceSpec, code: RankCode = None) -> NucleusReport:
    """Brute force + prediction + elementwise agreement for the right side.
    When 1 is not in S the comparison runs on the normalized, equivalent
    code over S/alpha_1 (the orders transfer; the report says so)."""
    gf = params.gf
    normalized = gf.one not in S.alphas
    S_eff = _normalized_subspace(params, S) if normalized else S
    code_eff = project_code(build_gtg(params), S_eff) if (normalized or code is None) else code
    report = right_nucleus_bruteforce(code_eff)
    report.normalized = normalized
    report.hypothesis_flags = hypothesis_check(params, S_eff)
    report.ell = smallest_containing_subfield(S_eff)
    report.r = gf.n // report.ell
    return _compare(report, predict_right_nucleus, params, S_eff)


def _compare(report: NucleusReport, predict, params: CodeParams, S: SubspaceSpec) -> NucleusReport:
    """Attach the closed-form prediction, when one is issued, and its
    elementwise agreement with the brute-force nucleus."""
    try:
        pred = predict(params, S)
    except (HypothesisNotMetError, OneNotInSError):
        return report
    report.predicted_order = pred["order"]
    report.predicted_basis = pred["basis"]
    report.predicted_description = pred["description"]
    report.t = pred.get("t")
    report.agree = (report.bruteforce_order == pred["order"]
                    and spans_equal(params.gf, report.bruteforce_basis, pred["basis"]))
    return report


# ----------------------------------------------------------------------------
# testable consequences of the mono-to-mono lemmas
# ----------------------------------------------------------------------------

def right_element_sends_monomials_to_monomials(Y, S: SubspaceSpec, s: int) -> bool:
    """Does the right-nucleus element Y (n x n over F_q) send every a X to
    a scalar multiple of X mod theta_S?  Y is read in row convention.
    It suffices to check a over a field basis: for fixed support index,
    the reduced coefficient is F_q-linear in a."""
    from .linpoly import matrix_to_poly, reduce_mod_theta, LinearizedPoly as LP
    gf = S.gf
    phi = matrix_to_poly(gf, Y)
    for a in gf.power_basis():
        red = reduce_mod_theta(phi.compose(LP.monomial(gf, a, 0)), S, s)
        if any(c != 0 for c in red[1:]):
            return False
    return True


def mside_twisted_scalar(A, S: SubspaceSpec, u: int):
    """If the m-side matrix A acts on U_S as c -> b c^(q^(-u)), return b,
    else None.  A rows give images of the alphas in alpha coordinates."""
    gf = S.gf
    w = (-u) % gf.n
    images = _matvec(A, S.alphas, gf)
    b = gf.mul(images[0], gf.inv(gf.frobenius(S.alphas[0], w)))
    return b if all(img == gf.mul(b, gf.frobenius(a, w)) for img, a in zip(images, S.alphas)) else None


def middle_element_is_scalar_on_span(Z, S: SubspaceSpec):
    """Return b if Z acts on U_S as u -> b u, else None (``mside_twisted_scalar``, u = 0)."""
    return mside_twisted_scalar(Z, S, 0)
