"""Dense linear algebra over small finite fields: the one F_q subspace
kernel every layer shares.  One elimination loop, three arithmetics.

* ``modp_*`` functions work on int64 arrays of F_q elements stored as
  their index in the sorted ``gf.fq_list()`` (0 is zero, 1 is one).
  Their field argument is a prime p or an arithmetic: ``fq_arith(gf)``
  gives ``PrimeField`` (index = value, ``a*b % p``, Fermat inverses) or,
  for e > 1, ``TableField`` (O(q) log/exp tables, digitwise F_p sums);
  ``BitField`` packs an F_2 row of n entries into ceil(n / 64) int64
  words (sums are XORs).  ``modp_rref`` is the single elimination loop:
  one matrix (R, C) or a stack (G, R, C), eliminated column by column
  with one vectorised update per column; F_2 given as p = 2 runs on
  words, packed on entry and unpacked on exit.  Rank, nullspace and
  inverse are read off it per matrix of a stack, the reduction transform
  and a span's dual for a matrix; ``modp_span`` builds a span as stacked
  chunks.  Callers keep every stack under STACK_BUDGET entries
  (``stack_chunks``), which bounds peak memory.
* ``generic_*`` functions run schoolbook Gaussian elimination on rows of
  packed elements with a FieldSpec-like ops object.  They are the tests'
  slow reference for the kernel; the library's one call is the Moore
  inverse over F_{q^n}, ``generic_inv`` in ``linpoly.moore_inverse``.
* ``fq_*`` functions take rows of packed F_q elements of a field spec,
  map them to indices, run the kernel and map the results back, so
  everything sorted, serialized or compared stays packed (``packed_mats``
  for index matrices).  Span membership is the dual test H v = 0
  (``modp_dual``).

All canonical outputs (RREF, nullspace bases, span order) are
deterministic.
"""

from __future__ import annotations

import itertools
import numbers

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "digit_sum", "STACK_BUDGET", "chunk_len", "stack_chunks", "PrimeField", "TableField", "BitField", "fq_arith",
    "modp_rref", "modp_rank", "modp_nullspace", "modp_dual", "modp_inv", "modp_reduction",
    "modp_span", "span_digits",
    "generic_rref", "generic_rank", "generic_nullspace", "generic_inv",
    "fq_rref", "fq_rank", "fq_inv", "fq_span", "packed_mats",
]


# ----------------------------------------------------------------------------
# F_q arithmetic on numpy arrays of element indices
# ----------------------------------------------------------------------------

def digit_sum(x, y, sign, p, weights):
    """x + sign * y over F_p, one base-p digit per place value in ``weights`` (a XOR for p = 2), on
    ints or int64 arrays: the one digit-wise F_p sum.  A plain loop: ``sum`` of a generator is slower."""
    if p == 2:
        return x ^ y
    out = 0
    for w in weights:
        out += (x // w + sign * (y // w)) % p * w
    return out


class _EntryRows:
    """A matrix row stored entry by entry: column j is r[..., j]."""

    def entries(self, a):  # a fresh copy, reduced below q
        return np.array(a, dtype=np.int64) % self.q

    def column(self, r, j):
        return r[..., j]

    def width(self, r):
        return r.shape[-1]

    def unpack(self, r):  # the entries of kernel rows: already stored one by one
        return r


class PrimeField(_EntryRows):
    """F_p on int64 arrays: an element is its own index."""

    def __init__(self, p):
        self.p = self.q = p

    def index(self, packed):
        return np.asarray(packed, dtype=np.int64)

    def packed(self, idx):
        return idx

    def mul(self, a, b):
        return a * b % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def inv(self, x):
        """Elementwise x^(p-2): the inverse of every nonzero entry."""
        p = self.p
        out = np.ones_like(x)
        e = p - 2
        while e:
            if e & 1:
                out = out * x % p
            e >>= 1
            if e:
                x = x * x % p
        return out

    def submul(self, r, c, x):
        """r - c x (broadcasting), computed in place in r."""
        r -= c * x
        r %= self.p
        return r

    def matmul(self, a, b):
        return a @ b % self.p


class TableField(_EntryRows):
    """F_q, q = p^e with e > 1, on int64 arrays of indices into the
    sorted ``gf.fq_list()``.  Products and inverses go through log/exp
    tables over a generator g of F_q^* (Lidl & Niederreiter, *Finite
    Fields*, ch. 9); log of zero is a sentinel that lands every product
    with zero in the zero half of the exp table.  Sums map each index to
    its code, the F_p-coordinates over (1, g, ..., g^(e-1)) read base p,
    add codes with ``digit_sum`` and map back.  Every table has
    O(q) entries."""

    def __init__(self, gf):
        p, e, q = gf.p, gf.e, gf.q
        self.p, self.q = p, q
        self._fq = np.array(gf.fq_list(), dtype=np.int64)
        self._weights = p ** np.arange(e, dtype=np.int64)
        exp = self.index(gf.powers(gf.subfield_generator(1), q - 1))  # exp[k] = index of g^k
        self._exp = np.concatenate([exp, exp, np.zeros(2 * q - 1, dtype=np.int64)])
        self._log = np.full(q, 2 * (q - 1), dtype=np.int64)
        self._log[exp] = np.arange(q - 1)
        self._inv = np.zeros(q, dtype=np.int64)
        self._inv[exp] = exp[-np.arange(q - 1)]
        # code -> index: code c is the element sum_t digit_t(c) g^t
        self._from_code = self.index(gf.from_qdigits((np.arange(q)[:, None] // self._weights % p).ravel(), q))
        self._code = np.argsort(self._from_code)
        self._cexp = self._code[self._exp]

    def index(self, packed):
        return np.searchsorted(self._fq, packed)

    def packed(self, idx):
        return self._fq[idx]

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def sub(self, a, b):
        return self._from_code[digit_sum(self._code[a], self._code[b], -1, self.p, self._weights)]

    def inv(self, a):
        return self._inv[a]

    def submul(self, r, c, x):
        prod = self._cexp[self._log[c] + self._log[x]]
        return self._from_code[digit_sum(self._code[r], prod, -1, self.p, self._weights)]

    def matmul(self, a, b):
        """Broadcasting a @ b, one table product per inner index."""
        la, lb = self._log[a], self._log[b]
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
        acc = np.zeros(shape, dtype=np.int64)
        for i in range(a.shape[-1]):
            acc = digit_sum(acc, self._cexp[la[..., :, i, None] + lb[..., i, None, :]], 1, self.p, self._weights)
        return self._from_code[acc]


class BitField:
    """F_2 with a row of n entries packed into ceil(n / 64) int64 words,
    entry j in bit j % 64 of word j // 64, so a matrix (R, n) is stored as
    (R, ceil(n / 64)) words; a product with a 0/1 scalar is a multiply and
    a sum a XOR, both exact on the sign bit: the packed rows of M4RI
    (Albrecht, Bard & Hart, "Algorithm 898", ACM TOMS 37(1), 2010) without
    its Four-Russians tables.  ``modp_rref`` runs every F_2 elimination on
    it; ``index`` goes through ``np.packbits`` and ``packed`` through
    int64 shifts, so no temporary is wider than the entry array."""

    q = 2

    def __init__(self, n):
        self.n = n
        self.words = -(-n // 64)

    def index(self, packed):
        """0/1 entries (..., n), any integers read mod 2, as words (..., ceil(n / 64)).
        Booleans are packed as they are, other entries through their low
        bits in their own dtype: a cast to uint8 here first pages in
        numpy's casting code, 0.1-0.2 MB of peak RSS in a short run."""
        bits = np.asarray(packed)
        if bits.dtype != bool:
            bits = bits & 1
        octets = np.packbits(bits, axis=-1, bitorder="little")
        out = np.zeros(bits.shape[:-1] + (8 * self.words,), dtype=np.uint8)
        out[..., :octets.shape[-1]] = octets
        return out.view("<i8")

    def packed(self, words):
        """Word rows (..., ceil(n / 64)) as 0/1 entries (..., n), read
        by int64 shifts: a uint8 round trip through ``np.unpackbits``
        would page in numpy's casting code, as in ``index``."""
        j = np.arange(self.n)
        out = np.asarray(words)[..., j >> 6]
        out >>= j & 63
        out &= 1
        return out

    unpack = packed

    def entries(self, a):
        return np.array(a, dtype=np.int64)

    def column(self, r, j):
        return r[..., j >> 6] >> (j & 63) & 1

    def width(self, r):
        return self.n

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return a ^ b

    def inv(self, x):
        return x

    def submul(self, r, c, x):
        r ^= c * x
        return r

    def matmul(self, a, b):
        """Broadcasting a @ b for 0/1 entries a and word rows b: the XOR
        of the rows a selects, accumulated one inner index at a time."""
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
        acc = np.zeros(shape, dtype=np.int64)
        for i in range(a.shape[-1]):
            acc ^= a[..., :, i, None] * b[..., i, None, :]
        return acc


def fq_arith(gf):
    """The arithmetic of the subfield F_q of a field spec (cached on it)."""
    if gf.e == 1:
        return PrimeField(gf.p)
    if "fq_arith" not in gf._misc_cache:
        gf._misc_cache["fq_arith"] = TableField(gf)
    return gf._misc_cache["fq_arith"]


def _field(f):
    return PrimeField(int(f)) if isinstance(f, numbers.Integral) else f


# ----------------------------------------------------------------------------
# the stacked kernel, on element indices
# ----------------------------------------------------------------------------

# Largest number of entries of one stacked array.  Callers chunk their
# stacks to stay under it, which bounds the batched elimination's
# temporaries (each the size of its input) and so the peak memory.
STACK_BUDGET = 1 << 14


def chunk_len(per_item):
    """Items per stack, ``per_item`` entries each, that stay under
    STACK_BUDGET (at least one)."""
    return max(1, STACK_BUDGET // max(per_item, 1))


def stack_chunks(items, per_item):
    """Split ``items`` into lists whose stacks, ``per_item`` entries per
    item, stay under STACK_BUDGET (at least one item per list)."""
    it = iter(items)
    size = chunk_len(per_item)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def modp_rref(a, p, ncols=None):
    """Reduced row echelon form over F_q (``p`` a prime or an arithmetic
    object) of a matrix (R, C), or of every matrix of a stack (G, R, C),
    eliminated together column by column.  Under ``BitField`` the rows
    are words, C = ceil(n / 64), and the n bits are the columns.  F_2
    given as 2 or ``PrimeField(2)`` is eliminated the same way: the rows
    are packed into words on entry and the RREF unpacked on exit.

    Returns (R, pivots).  For a matrix, ``pivots`` is the list of pivot
    columns; for a stack, a (G, R) array holding the pivot column of each
    row of each RREF, -1 for a zero row.  With ``ncols`` only the first
    ``ncols`` columns are pivot candidates; the columns to their right
    are carried along by the row operations.

    Each column takes a pivot row per matrix among the rows holding no
    pivot yet and clears the column in all other rows with one update of
    the whole stack.  Rows are sorted by pivot column at the end; the
    RREF is unique, so the choice of pivot row does not show."""
    f = _field(p)
    packs = isinstance(f, PrimeField) and f.p == 2
    if packs:
        f = BitField(np.shape(a)[-1])
        r = f.index(a)
    else:
        r = f.entries(a)
    single = r.ndim == 2
    if single:
        r = r[None]
    g, nrows = r.shape[:2]
    ncols = f.width(r) if ncols is None else ncols
    mats, rows = np.arange(g), np.arange(nrows)
    pivots = np.full((g, nrows), ncols)  # ncols: the row holds no pivot yet
    full = 0  # columns in which every matrix took a pivot
    for col in range(ncols if nrows else 0):
        c = f.column(r, col)
        cand = c * (pivots == ncols)
        pr = cand.argmax(axis=1)
        pv = cand[mats, pr]
        hit = pv != 0
        hits = np.count_nonzero(hit)
        if not hits:
            continue
        prow = f.mul(r[mats, pr], f.inv(pv)[:, None])
        onehot = (rows == pr[:, None]) & hit[:, None]
        # the pivot row becomes prow, every other row loses c * prow
        # (onehot, read as indices, is the element one at the pivot row)
        coef = f.sub(c * hit[:, None], onehot.astype(np.int64))
        r = f.submul(r, coef[:, :, None], prow[:, None, :])
        pivots[onehot] = col
        full += hits == g
        if full == nrows:
            break
    order = np.argsort(pivots, axis=1, kind="stable")
    r, pivots = r[mats[:, None], order], pivots[mats[:, None], order]
    if packs:
        r = f.unpack(r)
    if single:
        return r[0], [int(c) for c in pivots[0] if c < ncols]
    pivots[pivots == ncols] = -1
    return r, pivots


def modp_rank(a, p):
    """Rank; for a stack, the array of the ranks of its matrices."""
    r, pivots = modp_rref(a, p)
    return len(pivots) if r.ndim == 2 else (pivots >= 0).sum(axis=1)


def _null_basis(r, pivots, f):
    free = [c for c in range(r.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), r.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = f.sub(0, r[:len(pivots), free].T)
    return list(basis)


def modp_nullspace(a, p):
    """Canonical basis of {x : a x = 0}, one vector of entries per free
    column; for a stack, the list of the bases of its matrices, read off
    the stacked RREF only for the matrices with nonzero nullity.  Under
    ``BitField`` the rows of ``a`` are words and the vectors 0/1 entries."""
    f = _field(p)
    r, pivots = modp_rref(a, f)
    if r.ndim == 2:
        return _null_basis(f.unpack(r), pivots, f)
    out = [[] for _ in range(len(r))]
    for k in np.flatnonzero((pivots >= 0).sum(axis=1) < f.width(r)):
        out[k] = _null_basis(f.unpack(r[k]), [int(c) for c in pivots[k] if c >= 0], f)
    return out


def modp_dual(basis, p):
    """The dual of the row span of ``basis`` (k, width) as an array H of
    shape (d, width), d = 0 allowed: v is in the span iff H v = 0."""
    basis = np.asarray(basis, dtype=np.int64)
    return np.array(modp_nullspace(basis, p), dtype=np.int64).reshape(-1, basis.shape[1])


def modp_inv(a, p):
    """Inverse of a square matrix, or of every matrix of a stack: the
    reduction transform E, as E a = I."""
    _, e_, pivots = modp_reduction(a, p)
    if not (len(pivots) == e_.shape[-1] if e_.ndim == 2 else (pivots >= 0).all()):
        raise SingularMatrixError("matrix is singular over F_%d" % _field(p).q)
    return e_


def modp_reduction(a, p):
    """Row-reduction transform of a matrix, or of every matrix of a
    stack: returns (R, E, pivots) with E a = R."""
    a = np.asarray(a, dtype=np.int64)
    nrows, ncols = a.shape[-2:]
    eye = np.broadcast_to(np.eye(nrows, dtype=np.int64), a.shape[:-1] + (nrows,))
    raug, pivots = modp_rref(np.concatenate([a, eye], axis=-1), p, ncols)
    return raug[..., :ncols], raug[..., ncols:], pivots


def modp_span(basis, p):
    """The q^k F_q-combinations of the k rows of ``basis`` in odometer
    order (combination t has coefficient digit_i(t), base q and digit 0
    fastest, on row i; the zero vector first), as stacked chunks of rows
    that stay under STACK_BUDGET entries."""
    f = _field(p)
    basis = np.asarray(basis, dtype=np.int64)
    # map, unlike a loop, keeps no chunk of digits alive while the caller holds its product
    return map(lambda digits: f.matmul(digits, basis), span_digits(len(basis), f.q, basis.shape[1]))


def span_digits(k, q, width):
    """The base-q digits of t = 0, ..., q^k - 1, digit i of t in column i,
    as chunks of rows, each chunk sized so that as many rows of ``width``
    entries stay under STACK_BUDGET: ``modp_span``'s coefficients."""
    powers = q ** np.arange(k, dtype=np.int64)
    step = chunk_len(width)
    for start in range(0, q ** k, step):
        yield np.arange(start, min(start + step, q ** k), dtype=np.int64)[:, None] // powers % q


# ----------------------------------------------------------------------------
# generic field, packed ints + ops object
# ----------------------------------------------------------------------------

def generic_rref(rows, ops):
    """RREF over an arbitrary field.  Rows are lists of packed elements."""
    r = [list(row) for row in rows]
    if not r:
        return [], []
    nrows, ncols = len(r), len(r[0])
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pr = next((i for i in range(row, nrows) if r[i][col] != 0), None)
        if pr is None:
            continue
        r[row], r[pr] = r[pr], r[row]
        inv = ops.inv(r[row][col])
        r[row] = [ops.mul(inv, x) for x in r[row]]
        for i in range(nrows):
            if i != row and r[i][col] != 0:
                c = r[i][col]
                r[i] = [ops.sub(x, ops.mul(c, y)) for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
    return r, pivots


def generic_rank(rows, ops):
    return len(generic_rref(rows, ops)[1])


def generic_nullspace(rows, ops):
    r, pivots = generic_rref(rows, ops)
    if not rows:
        return []
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = ops.one
        for i, c in enumerate(pivots):
            v[c] = ops.neg(r[i][f])
        basis.append(v)
    return basis


def generic_inv(rows, ops):
    n = len(rows)
    aug = [list(row) + [ops.one if i == j else 0 for j in range(n)]
           for i, row in enumerate(rows)]
    r, pivots = generic_rref(aug, ops)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in r]


# ----------------------------------------------------------------------------
# packed F_q rows of a field spec, through the kernel
# ----------------------------------------------------------------------------

def _packed_rows(f, a):
    return [tuple(row) for row in f.packed(a).tolist()]


def packed_mats(f, a):
    """Index matrices as tuples of row tuples of packed elements: one
    matrix (R, C) as one such tuple, a stack (k, R, C) as a list of k."""
    a = np.asarray(a)
    if a.ndim == 2:
        return tuple(_packed_rows(f, a))
    return [tuple(map(tuple, mat)) for mat in f.packed(a).tolist()]


def fq_rref(rows, gf):
    if not rows:
        return [], []
    f = fq_arith(gf)
    r, pivots = modp_rref(f.index(rows), f)
    return _packed_rows(f, r), pivots


def fq_rank(rows, gf):
    return len(fq_rref(rows, gf)[1])


def fq_inv(rows, gf):
    f = fq_arith(gf)
    return _packed_rows(f, modp_inv(f.index(rows), f))


def fq_span(gf, basis):
    """Stream all q^len(basis) F_q-combinations of the (nonempty list of)
    basis vectors as tuples, in the ``modp_span`` odometer order."""
    f = fq_arith(gf)
    for words in modp_span(f.index(basis), f):
        yield from _packed_rows(f, words)
