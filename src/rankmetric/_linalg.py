"""Dense linear algebra over small finite fields: the one F_q subspace
kernel every layer shares.

Two layers:

* ``modp_*`` functions work on numpy integer arrays over a prime field
  F_p (entries 0..p-1).  ``modp_rref`` is the single elimination loop;
  it takes one matrix (R, C) or a stack (G, R, C) and eliminates a
  stack column by column with one vectorised update per column.  Rank,
  nullspace and inverse are read off it for a matrix or per matrix of a
  stack, the reduction transform and a span's dual (membership as
  H v = 0) for a matrix.  ``modp_span`` builds a span as stacked chunks
  (digits @ basis mod p), so a span's elements can be ranked a chunk at
  a time.  Callers keep every stack under STACK_BUDGET entries
  (``stack_chunks``), which bounds peak memory.
* ``generic_*`` functions take rows of packed field elements together
  with a FieldSpec-like ops object and run schoolbook Gaussian
  elimination with its ``add``/``mul``/``inv``.  They are used both for
  F_q with q = p^e, e > 1, and for matrices over the big field F_{q^n}
  (Moore matrices, interpolation).

The ``fq_*`` functions work on vectors over the subfield F_q of a field
spec.  ``fq_rref``, ``fq_rank``, ``fq_nullspace`` and ``fq_inv`` pick
the numpy path when F_q is prime and fall back to the generic path
otherwise; ``fq_in_span`` tests membership in the row span of an
``fq_rref`` result and ``fq_span`` streams a span in a fixed odometer
order, the order ``modp_span`` keeps.  All canonical outputs (RREF,
nullspace bases, span order) are deterministic.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "STACK_BUDGET", "stack_chunks",
    "modp_rref", "modp_rank", "modp_nullspace", "modp_dual", "modp_inv", "modp_reduction",
    "modp_span",
    "generic_rref", "generic_rank", "generic_nullspace", "generic_inv",
    "fq_rref", "fq_rank", "fq_nullspace", "fq_inv", "fq_in_span", "fq_span",
]


# ----------------------------------------------------------------------------
# prime field, numpy
# ----------------------------------------------------------------------------

# Largest number of entries of one stacked array.  Callers chunk their
# stacks to stay under it, which bounds the batched elimination's
# temporaries (each the size of its input) and so the peak memory.
STACK_BUDGET = 1 << 14


def _chunk_len(per_item):
    """Items per stack, ``per_item`` entries each, that stay under
    STACK_BUDGET (at least one)."""
    return max(1, STACK_BUDGET // max(per_item, 1))


def stack_chunks(items, per_item):
    """Split ``items`` into lists whose stacks, ``per_item`` entries per
    item, stay under STACK_BUDGET (at least one item per list)."""
    it = iter(items)
    size = _chunk_len(per_item)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def _fermat_inverse(x, p):
    """Elementwise x^(p-2) mod p: the inverse of every nonzero entry."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        e >>= 1
        if e:
            x = x * x % p
    return out


def modp_rref(a, p, ncols=None):
    """Reduced row echelon form mod p of a matrix (R, C), or of every
    matrix of a stack (G, R, C), eliminated together column by column.

    Returns (R, pivots).  For a matrix, ``pivots`` is the list of pivot
    columns; for a stack, a (G, R) array holding the pivot column of each
    row of each RREF, -1 for a zero row.  With ``ncols`` only the first
    ``ncols`` columns are pivot candidates; the columns to their right
    are carried along by the row operations.

    Each column takes a pivot row per matrix among the rows holding no
    pivot yet and clears the column in all other rows with one update of
    the whole stack.  Rows are sorted by pivot column at the end; the
    RREF is unique, so the choice of pivot row does not show."""
    r = np.array(a, dtype=np.int64)
    r %= p
    single = r.ndim == 2
    if single:
        r = r[None]
    g, nrows, width = r.shape
    ncols = width if ncols is None else ncols
    mats, rows = np.arange(g), np.arange(nrows)
    pivots = np.full((g, nrows), ncols)  # ncols: the row holds no pivot yet
    full = 0  # columns in which every matrix took a pivot
    for col in range(ncols if nrows else 0):
        c = r[:, :, col]
        cand = c * (pivots == ncols)
        pr = cand.argmax(axis=1)
        pv = cand[mats, pr]
        hit = pv != 0
        hits = np.count_nonzero(hit)
        if not hits:
            continue
        prow = r[mats, pr] * _fermat_inverse(pv, p)[:, None] % p
        onehot = (rows == pr[:, None]) & hit[:, None]
        # the pivot row becomes prow, every other row loses c * prow
        r -= (c * hit[:, None] - onehot)[:, :, None] * prow[:, None, :]
        r %= p
        pivots[onehot] = col
        full += hits == g
        if full == nrows:
            break
    order = np.argsort(pivots, axis=1, kind="stable")
    r, pivots = r[mats[:, None], order], pivots[mats[:, None], order]
    if single:
        return r[0], [int(c) for c in pivots[0] if c < ncols]
    pivots[pivots == ncols] = -1
    return r, pivots


def modp_rank(a, p):
    """Rank mod p; for a stack, the array of the ranks of its matrices."""
    r, pivots = modp_rref(a, p)
    return len(pivots) if r.ndim == 2 else (pivots >= 0).sum(axis=1)


def _null_basis(r, pivots, p):
    free = [c for c in range(r.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), r.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -r[:len(pivots), free].T % p
    return list(basis)


def modp_nullspace(a, p):
    """Canonical basis of {x : a x = 0}, one vector per free column; for
    a stack, the list of the bases of its matrices, read off the stacked
    RREF only for the matrices with nonzero nullity."""
    r, pivots = modp_rref(a, p)
    if r.ndim == 2:
        return _null_basis(r, pivots, p)
    out = [[] for _ in range(len(r))]
    for k in np.flatnonzero((pivots >= 0).sum(axis=1) < r.shape[2]):
        out[k] = _null_basis(r[k], [int(c) for c in pivots[k] if c >= 0], p)
    return out


def modp_dual(basis, p):
    """The dual of the row span of ``basis`` (k, width) as an array H of
    shape (d, width), d = 0 allowed: v is in the span iff H v = 0 mod p."""
    basis = np.asarray(basis, dtype=np.int64)
    return np.array(modp_nullspace(basis, p), dtype=np.int64).reshape(-1, basis.shape[1])


def modp_inv(a, p):
    """Inverse mod p of a square matrix, or of every matrix of a stack."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[-1]
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), a.shape)
    r, pivots = modp_rref(np.concatenate([a, eye], axis=-1), p, n)
    if not (len(pivots) == n if r.ndim == 2 else (pivots >= 0).all()):
        raise SingularMatrixError("matrix is singular mod %d" % p)
    return r[..., n:]


def modp_reduction(a, p):
    """Row-reduction transform: returns (R, E, pivots) with E a = R."""
    a = np.array(a, dtype=np.int64) % p
    nrows, ncols = a.shape
    aug = np.concatenate([a, np.eye(nrows, dtype=np.int64)], axis=1)
    raug, pivots = modp_rref(aug, p, ncols)
    return raug[:, :ncols], raug[:, ncols:], pivots


def modp_span(basis, p):
    """The p^k F_p-combinations of the k rows of ``basis``, in the
    ``fq_span`` order (combination t has coefficient digit_i(t), base p
    and digit 0 fastest, on row i), as stacked chunks of rows that stay
    under STACK_BUDGET entries."""
    basis = np.asarray(basis, dtype=np.int64)
    k, width = basis.shape
    powers = p ** np.arange(k, dtype=np.int64)
    step = _chunk_len(width)
    for start in range(0, p ** k, step):
        t = np.arange(start, min(start + step, p ** k), dtype=np.int64)
        yield (t[:, None] // powers % p) @ basis % p


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
# dispatch on the subfield F_q
# ----------------------------------------------------------------------------

def _prime_fq(gf):
    return gf.e == 1


def fq_rref(rows, gf):
    if not rows:
        return [], []
    if _prime_fq(gf):
        r, pivots = modp_rref(np.array(rows, dtype=np.int64), gf.p)
        return [tuple(int(x) for x in row) for row in r], pivots
    r, pivots = generic_rref(rows, gf)
    return [tuple(row) for row in r], pivots


def fq_rank(rows, gf):
    if not rows:
        return 0
    if _prime_fq(gf):
        return modp_rank(np.array(rows, dtype=np.int64), gf.p)
    return generic_rank(rows, gf)


def fq_nullspace(rows, gf):
    """Canonical nullspace basis as tuples; ``rows`` may be a numpy array
    when F_q is prime."""
    if len(rows) == 0:
        return []
    if _prime_fq(gf):
        basis = modp_nullspace(np.array(rows, dtype=np.int64), gf.p)
        return [tuple(int(x) for x in v) for v in basis]
    return [tuple(v) for v in generic_nullspace(rows, gf)]


def fq_inv(rows, gf):
    if _prime_fq(gf):
        return [tuple(int(x) for x in row) for row in modp_inv(np.array(rows, dtype=np.int64), gf.p)]
    return [tuple(row) for row in generic_inv(rows, gf)]


def fq_in_span(echelon, v, gf):
    """Is the vector v in the row span of ``echelon = fq_rref(rows, gf)``?"""
    rref, pivots = echelon
    v = list(v)
    for row, c in zip(rref, pivots):
        if v[c]:
            coef = v[c]
            v = [gf.sub(x, gf.mul(coef, y)) for x, y in zip(v, row)]
    return not any(v)


def fq_span(gf, basis):
    """Stream all q^len(basis) F_q-combinations of the (nonempty list of)
    basis vectors as tuples, by an odometer over the coefficient digits:
    the zero vector first, digit 0 fastest.  Stepping digit i from fq[d]
    to fq[d+1] adds (fq[d+1] - fq[d]) * b_i, so arbitrary F_q scalars are
    covered, not just integer multiples."""
    fq = gf.fq_list()
    q = len(fq)
    deltas = [[tuple(gf.mul(gf.sub(fq[(d + 1) % q], fq[d]), x) for x in b) for d in range(q)]
              for b in basis]
    cur = (0,) * len(basis[0])
    yield cur
    digits = [0] * len(basis)
    for _ in range(q ** len(basis) - 1):
        i = 0
        while True:
            d = digits[i]
            cur = tuple(map(gf.add, cur, deltas[i][d]))
            digits[i] = (d + 1) % q
            if digits[i]:
                break
            i += 1
        yield cur
