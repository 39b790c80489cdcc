"""Rank-metric codes in F_q^(m x n) and the twisted Gabidulin family.

A code is stored by an F_q-basis of matrices, never by its codeword
list; enumeration streams codewords from the basis with an odometer, so
memory stays O(dim * m * n).  Matrices are tuples of row tuples of
packed F_q elements.

The generalized twisted Gabidulin code with parameters (k, s, h, eta)
is the span of the polynomials

    a_0 X + a_1 X^(q^s) + ... + a_{k-1} X^(q^(s(k-1))) + eta a_0^(q^h) X^(q^(sk)),

admissible when eta = 0 or the relative norm of eta differs from
(-1)^(nk).  Its m x n matrix form has row i equal to the coordinate
vector of f(alpha_i); with k < m every nonzero member has at most
q^(k-1) roots in U_S, so the projection keeps dimension nk and the code
is MRD with minimum distance m - k + 1.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from . import _linalg
from .errors import (
    DimensionCollapseError,
    EnumerationGuardError,
    NormConditionError,
    NotSquareError,
    ParamError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .linpoly import LinearizedPoly, SubspaceSpec

ENUM_GUARD = 1 << 22


# ----------------------------------------------------------------------------
# small matrix helpers over F_q (tuples of row tuples of packed ints)
# ----------------------------------------------------------------------------

def mat_zero(rows, cols):
    return tuple((0,) * cols for _ in range(rows))

def mat_identity(gf, n):
    return tuple(tuple(gf.one if i == j else 0 for j in range(n)) for i in range(n))

def mat_sub(gf, a, b):
    return tuple(tuple(gf.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def mat_scale(gf, c, a):
    return tuple(tuple(gf.mul(c, x) for x in row) for row in a)

def mat_mul(gf, a, b):
    bt = list(zip(*b))
    out = []
    for row in a:
        out.append(tuple(
            _dot(gf, row, col) for col in bt))
    return tuple(out)

def _dot(gf, u, v):
    acc = 0
    for x, y in zip(u, v):
        if x and y:
            acc = gf.add(acc, gf.mul(x, y))
    return acc

def mat_transpose(a):
    return tuple(zip(*a))

def mat_frobenius_p(gf, a, j):
    return tuple(tuple(gf.frobenius_p(x, j) for x in row) for row in a)

def mat_rank(gf, a):
    return _linalg.fq_rank(a, gf)

def mat_is_invertible(gf, a):
    return len(a) == len(a[0]) and mat_rank(gf, a) == len(a)

def right_constraints(f, mats, dual):
    """Rows (..., t * r, n * n) of "X Y pairs to zero with every dual row
    H" in the entries of Y, for the index stacks ``mats`` (..., t, m, n)
    and ``dual`` (r, m, n): row (X, H) is X^T H, X-major."""
    rows = f.matmul(np.swapaxes(mats, -1, -2)[..., None, :, :], dual)
    return rows.reshape(*mats.shape[:-3], -1, dual.shape[-1] ** 2)

def mat_vec(a):
    """Row-major vectorization."""
    return tuple(x for row in a for x in row)

def vec_mat(v, rows, cols):
    return tuple(tuple(v[i * cols + j] for j in range(cols)) for i in range(rows))


# ----------------------------------------------------------------------------
# parameters and generators
# ----------------------------------------------------------------------------

class CodeParams:
    """Validated parameter set (m, k, s, h, eta) over a field spec."""

    def __init__(self, gf, m, k, s, h, eta):
        n = gf.n
        if not (1 <= k < m <= n):
            raise ParamError(f"need 1 <= k < m <= n, got k={k}, m={m}, n={n}")
        if s < 1 or gcd(s, n) != 1:
            raise ParamError(f"need s >= 1 with gcd(s, n) = 1, got s={s}, n={n}")
        if not (0 <= h <= n - 1):
            raise ParamError(f"need 0 <= h <= n-1, got h={h}")
        eta = int(eta)
        if not (0 <= eta < gf.order):
            raise ParamError(f"eta = {eta} is not a field element")
        if eta != 0:
            norm = gf.relative_norm(eta, s)
            sign = gf.one if (n * k) % 2 == 0 else gf.neg(gf.one)
            if norm == sign:
                raise NormConditionError(
                    f"relative norm of eta equals (-1)^(nk) = "
                    f"{gf.coords(sign)} (norm value {gf.coords(norm)})",
                    norm_value=norm)
        self.gf = gf
        self.m, self.k, self.s, self.h, self.eta = m, k, s, h, eta

    def __repr__(self):
        return (f"CodeParams(q={self.gf.q}, n={self.gf.n}, m={self.m}, "
                f"k={self.k}, s={self.s}, h={self.h}, eta={self.eta})")


class GtgGenerators:
    """The k generator slots of the twisted Gabidulin polynomial family.

    Slot 0 sends a to a X + eta a^(q^h) X^(q^(sk)); slot i in 1..k-1
    sends a to a X^(q^(si)).  Expanding each slot over an F_q-basis of
    F_{q^n} yields nk independent linearized polynomials.
    """

    def __init__(self, params: CodeParams):
        self.params = params
        self.gf = params.gf

    def slot_poly(self, i: int, a: int) -> LinearizedPoly:
        p_ = self.params
        gf = self.gf
        if i == 0:
            f = LinearizedPoly.monomial(gf, a, 0)
            if p_.eta:
                twist = gf.mul(p_.eta, gf.frobenius(a, p_.h))
                f = f + LinearizedPoly.monomial(gf, twist, (p_.s * p_.k) % gf.n)
            return f
        return LinearizedPoly.monomial(gf, a, (p_.s * i) % gf.n)

    def member(self, coeffs) -> LinearizedPoly:
        """The polynomial for (a_0, ..., a_{k-1}) in F_{q^n}^k."""
        gf = self.gf
        f = LinearizedPoly.zero(gf)
        for i, a in enumerate(coeffs):
            f = f + self.slot_poly(i, a)
        return f

    def expand(self) -> list:
        """nk generator polynomials, slot-major over the power basis."""
        return [self.slot_poly(i, b) for i in range(self.params.k) for b in self.gf.power_basis()]


def build_gtg(params: CodeParams) -> GtgGenerators:
    """Generator slots for H_{k,s}(eta, h); eta = 0 gives G_{k,s}."""
    return GtgGenerators(params)


# ----------------------------------------------------------------------------
# the code object
# ----------------------------------------------------------------------------

class RankCode:
    """F_q-linear subspace of F_q^(m x n) given by an independent basis."""

    def __init__(self, gf, m, basis, provenance=None):
        self.gf = gf
        self.m = m
        self.n = gf.n
        self.basis = tuple(tuple(tuple(row) for row in mat) for mat in basis)
        for mat in self.basis:
            if len(mat) != m or any(len(row) != self.n for row in mat):
                raise ShapeMismatchError("basis matrix has wrong shape")
        self.provenance = provenance
        self._parity = None
        if self.basis and _linalg.fq_rank([list(mat_vec(b)) for b in self.basis], gf) != len(self.basis):
            raise DimensionCollapseError("basis matrices are F_q-dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def cardinality(self) -> int:
        return self.gf.q ** self.dim

    def parity_rows(self):
        """Basis of the dual space {h : v . h = 0 for all v in the code};
        a vector lies in the code iff it pairs to zero with every row."""
        if self._parity is None:  # the zero code's dual is everything
            f = _linalg.fq_arith(self.gf)
            h = _linalg.modp_dual(f.index(np.reshape(self.basis, (self.dim, self.m * self.n))), f)
            self._parity = [tuple(row) for row in f.packed(h).tolist()]
        return self._parity

    def contains(self, mat) -> bool:
        """Does the matrix pair to zero with every ``parity_rows()`` row?"""
        f = _linalg.fq_arith(self.gf)
        h = f.index(self.parity_rows()).reshape(-1, self.m * self.n)
        return not f.matmul(h, f.index(mat_vec(mat))[:, None]).any()

    def codewords(self, include_zero=True, guard=ENUM_GUARD):
        """Stream all codewords in the ``_linalg.fq_span`` odometer order
        over the basis coefficients: the zero word first, the coefficient
        of basis matrix 0 fastest."""
        if self.cardinality > guard:
            raise EnumerationGuardError(
                f"q^dim = {self.cardinality} exceeds guard {guard}")
        m, n = self.m, self.n
        if not self.basis:
            words = iter([mat_vec(mat_zero(m, n))])
        else:
            words = _linalg.fq_span(self.gf, [mat_vec(b) for b in self.basis])
        if not include_zero:
            next(words)
        rows = [slice(r * n, (r + 1) * n) for r in range(m)]
        for v in words:
            yield tuple([v[r] for r in rows])

    def serialize(self) -> dict:
        gf = self.gf
        out = {
            "q": gf.q,
            "m": self.m,
            "n": self.n,
            "dimension": self.dim,
            "basis": [[gf.fq_json(x) for x in mat_vec(b)] for b in self.basis],
        }
        if self.provenance is not None:
            out["provenance"] = self.provenance
        return out

    def __repr__(self):
        return f"RankCode(q={self.gf.q}, m={self.m}, n={self.n}, dim={self.dim})"


def project_code(generators, S: SubspaceSpec, provenance=None) -> RankCode:
    """Matrix form of a polynomial family: row i of the codeword for f is
    the coordinate vector of f(alpha_i)."""
    if isinstance(generators, GtgGenerators):
        if generators.params.k >= S.m:
            raise ParamError(
                f"projection needs k < m (k={generators.params.k}, m={S.m})")
        polys = generators.expand()
        if provenance is None:
            p_ = generators.params
            provenance = {
                "family": "twisted_gabidulin",
                "m": S.m, "k": p_.k, "s": p_.s, "h": p_.h,
                "eta": list(p_.gf.coords(p_.eta)),
                "subspace": [list(p_.gf.coords(a)) for a in S.alphas],
            }
    else:
        polys = list(generators)
    gf = S.gf
    mats = [tuple(gf.vec_repr(f(a)) for a in S.alphas) for f in polys]
    if _linalg.fq_rank([list(mat_vec(mm)) for mm in mats], gf) != len(mats):
        raise DimensionCollapseError(
            "projected generators are F_q-dependent (k >= m misuse?)")
    return RankCode(gf, S.m, mats, provenance)


# ----------------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------------

def rank_distance(gf, a, b) -> int:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        raise ShapeMismatchError("rank_distance needs equal shapes")
    return mat_rank(gf, mat_sub(gf, a, b))


def rank_weight_distribution(code: RankCode, guard=ENUM_GUARD) -> list:
    """Histogram of codeword ranks, indexed 0..min(m, n).  The codewords
    are built in chunks as digits @ basis (``modp_span``) and ranked as
    stacks (``modp_rank``); over F_2 a codeword row is one packed word
    (``BitField``), over any other F_q a row of element indices."""
    m, n = code.m, code.n
    if code.cardinality > guard:
        raise EnumerationGuardError(
            f"q^dim = {code.cardinality} exceeds guard {guard}")
    f = _linalg.BitField(n) if code.gf.q == 2 else _linalg.fq_arith(code.gf)
    basis = f.index(np.reshape(code.basis, (code.dim, m, n)))  # rows of 1 word over F_2
    hist = np.zeros(min(m, n) + 1, dtype=np.int64)
    for words in _linalg.modp_span(basis.reshape(code.dim, m * basis.shape[2]), f):
        hist += np.bincount(_linalg.modp_rank(words.reshape(-1, *basis.shape[1:]), f), minlength=len(hist))
    return [int(c) for c in hist]


def min_distance(code: RankCode, guard=ENUM_GUARD) -> int:
    """Minimum rank over the q^dim - 1 nonzero codewords (exhaustive)."""
    return is_mrd(code, guard)[1]["d"]


def is_mrd(code: RankCode, guard=ENUM_GUARD):
    """Singleton-bound check: #code = q^(max(m,n) (min(m,n) - d + 1))?
    Returns (verdict, certificate); the certificate holds the minimum
    distance d, the cardinality, the bound and the rank-weight histogram
    (``rank_weights``, indexed 0..min(m, n)) it was read from."""
    hist = rank_weight_distribution(code, guard)
    d = next((i for i, count in enumerate(hist) if i > 0 and count), None)
    if d is None:
        raise ParamError("code has no nonzero codeword")
    m, n, q = code.m, code.n, code.gf.q
    bound = q ** (max(m, n) * (min(m, n) - d + 1))
    cert = {"d": d, "cardinality": code.cardinality, "bound": bound, "rank_weights": hist}
    return code.cardinality == bound, cert


# ----------------------------------------------------------------------------
# equivalence maps
# ----------------------------------------------------------------------------

def apply_equivalence(code: RankCode, A, B, C=None, gamma: int = 0) -> RankCode:
    """The code {A X^gamma B : X in code} (entrywise gamma = power of the
    p-Frobenius).  C must be zero: a nonzero translate is not F_q-linear
    and cannot be carried by a basis representation."""
    gf = code.gf
    A = tuple(tuple(row) for row in A)
    B = tuple(tuple(row) for row in B)
    if len(A) != code.m or len(B) != code.n:
        raise ShapeMismatchError("A must be m x m and B must be n x n")
    if not mat_is_invertible(gf, A):
        raise SingularMatrixError("A is singular")
    if not mat_is_invertible(gf, B):
        raise SingularMatrixError("B is singular")
    if C is not None and any(x != 0 for x in mat_vec(C)):
        raise ParamError("nonzero C breaks linearity; only C = 0 is supported")
    gamma %= gf.e
    basis = []
    for X in code.basis:
        Xg = mat_frobenius_p(gf, X, gamma) if gamma else X
        basis.append(mat_mul(gf, mat_mul(gf, A, Xg), B))
    return RankCode(gf, code.m, basis, provenance=None)


def adjoint(code: RankCode) -> RankCode:
    """Transpose code; defined for square codes only."""
    if code.m != code.n:
        raise NotSquareError(f"adjoint needs m = n, got {code.m} x {code.n}")
    return RankCode(code.gf, code.m, [mat_transpose(b) for b in code.basis])
