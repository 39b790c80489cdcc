"""Dense linear algebra over small finite fields: the one F_q subspace
kernel every layer shares.

Two layers:

* ``modp_*`` functions work on numpy integer arrays over a prime field
  F_p (entries 0..p-1).  ``modp_rref`` is the single elimination loop;
  rank, nullspace, inverse and the reduction transform are read off it.
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
order.  All canonical outputs (RREF, nullspace bases, span order) are
deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "modp_rref", "modp_rank", "modp_nullspace", "modp_inv", "modp_reduction",
    "generic_rref", "generic_rank", "generic_nullspace", "generic_inv",
    "fq_rref", "fq_rank", "fq_nullspace", "fq_inv", "fq_in_span", "fq_span",
]


# ----------------------------------------------------------------------------
# prime field, numpy
# ----------------------------------------------------------------------------

def modp_rref(a, p, ncols=None):
    """Reduced row echelon form mod p.  Returns (R, pivot_columns).  With
    ``ncols`` only the first ``ncols`` columns are pivot candidates; the
    columns to their right are carried along by the row operations."""
    r = np.array(a, dtype=np.int64) % p
    nrows = r.shape[0]
    pivots = []
    row = 0
    for col in range(r.shape[1] if ncols is None else ncols):
        if row >= nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        r[row] = (r[row] * pow(int(r[row, col]), -1, p)) % p
        other = np.nonzero(r[:, col])[0]
        for i in other:
            if i != row:
                r[i] = (r[i] - r[i, col] * r[row]) % p
        pivots.append(col)
        row += 1
    return r, pivots


def modp_rank(a, p):
    return len(modp_rref(a, p)[1])


def modp_nullspace(a, p):
    """Canonical basis of {x : a x = 0}, one vector per free column."""
    r, pivots = modp_rref(a, p)
    ncols = r.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(ncols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-r[i, f]) % p
        basis.append(v)
    return basis


def modp_inv(a, p):
    a = np.array(a, dtype=np.int64) % p
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = modp_rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular mod %d" % p)
    return r[:, n:]


def modp_reduction(a, p):
    """Row-reduction transform: returns (R, E, pivots) with E a = R."""
    a = np.array(a, dtype=np.int64) % p
    nrows, ncols = a.shape
    aug = np.concatenate([a, np.eye(nrows, dtype=np.int64)], axis=1)
    raug, pivots = modp_rref(aug, p, ncols)
    return raug[:, :ncols], raug[:, ncols:], pivots


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
