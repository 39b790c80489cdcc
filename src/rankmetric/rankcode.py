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

MRD certificates and minimum distances read the rank-weight histogram
A_0, ..., A_min(m,n).  It has two exact paths, on the smaller side
(the basis of ``adjoint`` when n < m): ranking all q^dim codewords as
stacks, or counting codewords by column space, the identity behind the
rank-metric MacWilliams identities (Delsarte, "Bilinear forms over a
finite field", JCTA 25, 1978; Ravagnani, "Rank-metric codes and their
duality theory", DCC 80, 2016).  For a v-dimensional subspace V of
F_q^m, the codewords with column space inside V form a subspace; summed
over all V of dimension v,

    B_v = sum_V #{X in C : colsp X <= V} = sum_i A_i [m-i choose v-i]_q,

since a rank-i column space lies in [m-i choose v-i]_q of the v-spaces.
B_v comes from one rank per V (V = ker H for an H in reduced echelon
form) and the triangle is solved for A in exact integers.  An exact
work count over (q, m, n, dim) picks the cheaper path.  ENUM_GUARD
bounds q^dim on both paths: the subspace count does not enumerate
codewords, but which codes exit on the guard is part of the output
contract.
"""

from __future__ import annotations

import itertools
from math import comb, gcd

import numpy as np

from . import _linalg
from .errors import (
    DimensionCollapseError,
    EnumerationGuardError,
    NormConditionError,
    ParamError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .linpoly import LinearizedPoly, SubspaceSpec, _matvec

ENUM_GUARD = 1 << 22
GL_GUARD_AUT = 1 << 18


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
    bt = tuple(zip(*b))
    return tuple(_matvec(bt, row, gf) for row in a)

def mat_transpose(a):
    return tuple(zip(*a))

def mat_frobenius_p(gf, a, j):
    """Entrywise x -> x^(p^j); j = 0 returns ``a`` itself."""
    return tuple(tuple(gf.frobenius_p(x, j) for x in row) for row in a) if j else a

def mat_rank(gf, a):
    return _linalg.fq_rank(a, gf)

def mat_is_invertible(gf, a):
    return len(a) == len(a[0]) and mat_rank(gf, a) == len(a)

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
    """F_q-linear subspace of F_q^(m x n), n = gf.n by default, given by an independent basis."""

    def __init__(self, gf, m, basis, provenance=None, n=None, independent=False):
        """``independent``: the caller knows the basis is F_q-independent,
        so it is not ranked again."""
        self.gf = gf
        self.m = m
        self.n = gf.n if n is None else n
        self.basis = tuple(tuple(tuple(row) for row in mat) for mat in basis)
        for mat in self.basis:
            if len(mat) != m or any(len(row) != self.n for row in mat):
                raise ShapeMismatchError("basis matrix has wrong shape")
        self.provenance = provenance
        self._parity = None  # the dual's rows, or a function that makes them
        if not independent and self.basis and \
                _linalg.fq_rank([list(mat_vec(b)) for b in self.basis], gf) != len(self.basis):
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
        elif callable(self._parity):
            self._parity = self._parity()
        return self._parity

    def contains(self, mat) -> bool:
        """Does the matrix pair to zero with every ``parity_rows()`` row?"""
        f = _linalg.fq_arith(self.gf)
        h = f.index(self.parity_rows()).reshape(-1, self.m * self.n)
        return not f.matmul(h, f.index(mat_vec(mat))[:, None]).any()

    def right_stabilizers(self, lefts, rho=0):
        """(A, index basis of {B : A X^rho B in the code for every X}) for
        each m x m entry-index matrix A of ``lefts``, in order, skipping
        every A whose space is zero; one rho per solve.  B pairs to zero
        with (A X^rho)^T H for every basis X and dual row H, one row per
        (X, H), X-major; the systems of a chunk of A are built and solved
        as one stack under STACK_BUDGET.  Over F_2 each row is built as
        ceil(n^2 / 64) ``BitField`` words, bit j n + k holding entry (j, k):
        the (A X^rho)^T entries times the parity words, whose row (j, i) is
        row i of H placed at bit offset j n, so a chunk is sized by its
        entries and words per A, not by dim |H| n^2 entries.  A = I
        (``np.eye``), rho = 0 gives the right nucleus."""
        f, m, n, dim = _linalg.fq_arith(self.gf), self.m, self.n, self.dim
        xs = f.index(np.reshape([mat_frobenius_p(self.gf, x, rho) for x in self.basis], (dim, m, n)))
        hr = f.index(self.parity_rows()).reshape(-1, m, n)
        nh = len(hr)
        if self.gf.q == 2:
            kernel = _linalg.BitField(n * n)
            per_a = dim * max(m * n, nh * kernel.words)
            hw = np.empty((n, m, nh, kernel.words), dtype=np.int64)
            block = np.zeros((m, nh, n * n), dtype=bool)  # (i, H, bit): one j at a time, m |H| n^2 bytes
            for j in range(n):
                block[..., j * n:(j + 1) * n] = hr.transpose(1, 0, 2)
                hw[j] = kernel.index(block)
                block[..., j * n:(j + 1) * n] = False
            hw = hw.reshape(n * m, nh * kernel.words)
        else:
            kernel, per_a = f, dim * nh * n * n
        for chunk in _linalg.stack_chunks(lefts, per_a):
            axt = np.swapaxes(f.matmul(np.array(chunk)[:, None], xs), -1, -2)
            if kernel is f:
                systems = f.matmul(axt[:, :, None], hr).reshape(len(chunk), dim * nh, n * n)
            else:
                systems = kernel.matmul(axt.reshape(len(chunk), dim, n * m), hw)
                systems = systems.reshape(len(chunk), dim * nh, kernel.words)
            yield from ((a, null) for a, null in zip(chunk, _linalg.modp_nullspace(systems, kernel)) if null)

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
                "eta": p_.gf.coords(p_.eta),
                "subspace": [p_.gf.coords(a) for a in S.alphas],
            }
    else:
        polys = list(generators)
    gf = S.gf
    mats = [tuple(gf.vec_repr(f(a)) for a in S.alphas) for f in polys]
    return RankCode(gf, S.m, mats, provenance)


# ----------------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------------

def rank_distance(gf, a, b) -> int:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        raise ShapeMismatchError("rank_distance needs equal shapes")
    return mat_rank(gf, mat_sub(gf, a, b))


def rank_weight_distribution(code: RankCode, guard=ENUM_GUARD) -> list:
    """Histogram of codeword ranks, indexed 0..min(m, n).

    Two exact paths give the same list; the one with the smaller
    ``_work`` count for (q, m, n, dim) runs.  Both work on the smaller
    side, ``adjoint(code)`` when n < m, which keeps every rank.
    ``_hist_by_codewords`` ranks the q^dim codewords as stacks;
    ``_hist_by_subspaces`` ranks one map per subspace of F_q^min(m, n).
    The guard bounds q^dim whichever path runs."""
    if code.cardinality > guard:
        raise EnumerationGuardError(
            f"q^dim = {code.cardinality} exceeds guard {guard}")
    small = adjoint(code) if code.n < code.m else code
    basis = np.array(small.basis, dtype=np.int64).reshape(small.dim, small.m, small.n)
    cw, sub = _work(code.gf.q, small.m, small.n, code.dim)
    return _hist_by_subspaces(code.gf, basis) if sub < cw else _hist_by_codewords(code.gf, basis)


def _rank_arith(gf, width):
    """The kernel arithmetic for rows of ``width`` F_q entries: packed
    words over F_2, else ``fq_arith``."""
    return _linalg.BitField(width) if gf.q == 2 else _linalg.fq_arith(gf)


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """[a choose b]_q, the number of b-dimensional subspaces of F_q^a."""
    out = 1
    for j in range(b):
        out = out * (q ** (a - j) - 1) // (q ** (j + 1) - 1)
    return out


# Work count of one kernel pass over one column of a stack, beyond its
# entry updates: the call overhead of ``modp_rref``'s column step, about
# 30 us against about 30 ns per entry update (numpy 2.4, one core of an
# Intel Xeon).
_PASS_WORK = 1 << 10


def _work(q, m, n, dim):
    """Exact work counts (codewords, subspaces) of the two histogram
    paths for a dim-dimensional code in F_q^(m x n), m <= n.  A kernel
    call on a stack of matrices with ``cols`` columns counts cols x (its
    stored entries + _PASS_WORK), a packed F_2 row one entry per word;
    each pivot set of the subspace path counts 2 x _PASS_WORK."""
    def row(width):
        return _linalg.BitField(width).words if q == 2 else width

    def stacks(items, per_item, cols):
        calls = -(-items // _linalg.chunk_len(per_item))
        return cols * (items * per_item + _PASS_WORK * calls)

    codewords = stacks(q ** dim, m * row(n), n)
    subspaces = sum(stacks(gaussian_binomial(m, r, q), r * n * row(dim), dim)
                    + 2 * _PASS_WORK * comb(m, r) for r in range(1, m))
    return codewords, subspaces


def _hist_by_codewords(gf, basis) -> list:
    """Rank every codeword: the codewords are built in chunks as digits @
    basis (``modp_span``) and ranked as stacks (``modp_rank``)."""
    dim, m, n = basis.shape
    f = _rank_arith(gf, n)
    basis = f.index(basis)  # rows of words under BitField
    hist = np.zeros(m + 1, dtype=np.int64)
    for words in _linalg.modp_span(basis.reshape(dim, m * basis.shape[2]), f):
        hist += np.bincount(_linalg.modp_rank(words.reshape(-1, *basis.shape[1:]), f), minlength=m + 1)
    return [int(c) for c in hist]


def _hist_by_subspaces(gf, basis) -> list:
    """The histogram from column-space counts (see the module docstring).

    For a full-rank r x m matrix H the codewords X with HX = 0 are the
    kernel of Phi_H : X -> HX, so there are q^(dim - rank Phi_H) of them,
    and B_(m-r) sums that over one H in RREF per (m-r)-subspace ker H.
    Phi_H^T for a chunk of H is one ``f.matmul`` of H with the basis laid
    out position-major (entry (a, j) holds X_t[a, j] for every t),
    ranked as one stack by ``modp_rank``."""
    dim, m, n = basis.shape
    q = gf.q
    f = _rank_arith(gf, dim)
    cols = f.index(np.moveaxis(basis, 0, -1))  # (m, n, dim), or (m, n, ceil(dim / 64)) words
    wd = cols.shape[2]
    cols = cols.reshape(m, n * wd)
    counts = [1] + [0] * (m - 1) + [q ** dim]  # B_0, ..., B_m
    for v in range(1, m):
        r = m - v
        hs = (h for stack in _rref_stacks(_linalg.fq_arith(gf), m, r) for h in stack)
        for chunk in _linalg.stack_chunks(hs, r * n * wd):
            phi_t = f.matmul(np.array(chunk), cols).reshape(len(chunk), r * n, wd)
            nullity = np.bincount(dim - _linalg.modp_rank(phi_t, f), minlength=dim + 1)
            counts[v] += sum(int(c) * q ** j for j, c in enumerate(nullity))
    hist = []
    for v in range(m + 1):
        hist.append(counts[v] - sum(a * gaussian_binomial(m - i, v - i, q) for i, a in enumerate(hist)))
    return hist


def _rref_stacks(f, m, r):
    """Every r x m matrix of rank r in reduced row echelon form, one per
    (m - r)-subspace of F_q^m (its kernel), as stacks (G, r, m): per
    pivot set, the pivot ones plus the ``modp_span`` of the unit
    matrices of the free entries."""
    for piv in itertools.combinations(range(m), r):
        ones = np.zeros((r, m), dtype=np.int64)
        ones[np.arange(r), piv] = 1
        free = [i * m + c for i in range(r) for c in range(piv[i] + 1, m) if c not in piv]
        units = np.zeros((len(free), r * m), dtype=np.int64)
        units[np.arange(len(free)), free] = 1
        for stack in _linalg.modp_span(units, f):
            yield stack.reshape(-1, r, m) + ones


def min_distance(code: RankCode, guard=ENUM_GUARD) -> int:
    """Minimum rank over the nonzero codewords, read off the rank-weight
    histogram."""
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
    return RankCode(gf, code.m, [mat_mul(gf, mat_mul(gf, A, mat_frobenius_p(gf, X, gamma)), B)
                                 for X in code.basis], n=code.n)


def adjoint(code: RankCode) -> RankCode:
    """The transpose code in F_q^(n x m).  Transposing keeps a basis
    independent, so it is not ranked again; the dual pairing is
    entrywise, so the parity rows are the code's own transposed, made
    when they are first asked for."""
    m, n = code.m, code.n
    out = RankCode(code.gf, n, [mat_transpose(b) for b in code.basis], n=m, independent=True)
    out._parity = lambda: [mat_vec(mat_transpose(vec_mat(h, m, n))) for h in code.parity_rows()]
    return out
