"""Exact arithmetic in F_q and F_{q^n} for q = p^e.

A field spec fixes one tower F_p < F_q < F_{q^n} realized as the single
quotient F_p[x]/(f) with f monic irreducible of degree e*n.  Elements
are packed integers: the value sum(c_i * p^i) encodes the coordinate
vector (c_0, ..., c_{e*n-1}) of an element in the power basis of the
modulus, constant term first.  F_q sits inside as the subfield fixed by
x -> x^(p^e).

Determinism:

* When no modulus is supplied, the lexicographically smallest monic
  irreducible is chosen (coefficient tuples compared constant term
  first).
* The stored generator xi is the first element of full multiplicative
  order q^n - 1 in the same constant-first ordering.

For orders up to 2^16 the spec precomputes exp/log tables over the
generator (one ``powers`` call), making mul, inv and Frobenius O(1);
beyond that (the guard admits orders up to 2^24) mul, pow and inv run
on the one set of F_p[x] helpers below (``_pmul``, ``_pmod``,
``_ppowmod``, ``_pext_gcd``), which also run the Rabin test of the
modulus search.  Sums at every order are ``_linalg.digit_sum``.  All
specs and elements are immutable, so concurrent use is safe.
"""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np

from . import _linalg
from .errors import (
    DependentBasisError,
    FieldTooLargeError,
    GcdViolationError,
    NonPrimeError,
    NotADivisorError,
    ReducibleModulusError,
    SpecMismatchError,
)

MAX_FIELD_ORDER = 1 << 24
_TABLE_LIMIT = 1 << 16


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    i = 2
    while i * i <= x:
        if x % i == 0:
            return False
        i += 1
    return True


def factorize(x: int) -> dict:
    """Prime factorization by trial division (fine for x <= 2^24)."""
    out = {}
    i = 2
    while i * i <= x:
        while x % i == 0:
            out[i] = out.get(i, 0) + 1
            x //= i
        i += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


# ----------------------------------------------------------------------------
# dense polynomials over F_p: lists of ints, constant term first
# ----------------------------------------------------------------------------

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    """a * b over F_p; the inner loop runs over the nonzero terms of b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, f, p):
    """a mod f with f monic; the inner loop runs over the nonzero terms of f."""
    a = list(a)
    d = len(f) - 1
    terms = [(i, c) for i, c in enumerate(f[:-1]) if c]
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top]
        if c:
            for i, fi in terms:
                a[top - d + i] = (a[top - d + i] - c * fi) % p
    return _ptrim(a[:d])


def _ppowmod(a, t, f, p):
    """a^t mod f by square and multiply."""
    result = [1]
    base = _pmod(a, f, p)
    while t:
        if t & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        t >>= 1
    return result


def poly_is_irreducible(f, p) -> bool:
    """Rabin test: f monic of degree d is irreducible over F_p iff
    x^(p^d) = x mod f and gcd(x^(p^(d/r)) - x, f) = 1 for primes r | d."""
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    x = [0, 1]
    if _psub(_ppowmod(x, p ** d, f, p), x, p):
        return False
    for r in factorize(d):
        if len(_pext_gcd(_psub(_ppowmod(x, p ** (d // r), f, p), x, p), f, p)[0]) != 1:
            return False
    return True


def _lex_digits(p, d, first=0):
    """The lists ``itertools.product(range(first, p), *[range(p)] * (d - 1))``
    gives, in its order, read lazily off a counter's base-p digits: the
    product would first copy each range(p) into a tuple of p ints."""
    for t in range(first * p ** (d - 1), p ** d):
        yield [t // p ** i % p for i in reversed(range(d))]


def _lex_smallest_irreducible(p, d):
    """Smallest monic irreducible of degree d, constant-first lex order.
    For d >= 2 a zero constant term means x divides f, so those
    candidates are skipped without a test."""
    for tail in _lex_digits(p, d, 1 if d >= 2 else 0):
        f = tail + [1]
        if poly_is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ----------------------------------------------------------------------------
# the field spec
# ----------------------------------------------------------------------------

class FieldSpec:
    """Immutable description of F_{q^n} with q = p^e.

    Elements are packed ints in range(order).  All arithmetic methods
    take and return packed ints.
    """

    def __init__(self, p: int, e: int, n: int, modulus=None, *, max_order: int = MAX_FIELD_ORDER):
        if p < 2:
            raise NonPrimeError(f"p = {p} is not prime")
        if e < 1 or n < 1:
            raise ReducibleModulusError(f"e = {e}, n = {n} must be positive")
        # p^bit_length(max_order) > max_order for p >= 2, so the capped
        # exponent keeps this test exact, and cheap for any p, e and n
        if p ** min(e * n, max_order.bit_length()) > max_order:
            raise FieldTooLargeError(f"q^n = {p}^({e} * {n}) exceeds the guard {max_order}")
        if not is_prime(p):
            raise NonPrimeError(f"p = {p} is not prime")
        self.p = p
        self.e = e
        self.n = n
        self.q = p ** e
        self.degree = e * n
        self.order = p ** self.degree
        if modulus is None:
            modulus = _lex_smallest_irreducible(p, self.degree)
        else:
            modulus = [int(c) % p for c in modulus]
            if len(modulus) != self.degree + 1 or modulus[-1] != 1:
                raise ReducibleModulusError(
                    f"modulus must be monic of degree {self.degree} over F_{p}")
            if not poly_is_irreducible(modulus, p):
                raise ReducibleModulusError("modulus is reducible over F_%d" % p)
        self.modulus = tuple(modulus)
        self.zero = 0
        self.one = 1

        self._digit_weights = p ** np.arange(self.degree, dtype=np.int64)
        self._weights = self._digit_weights.tolist()  # Python ints keep packed values ints
        self._exp = None
        self._log = None
        self._unit_factors = factorize(self.order - 1) if self.order > 2 else {}
        self.generator = self._find_generator()

        # fast tables: exp[i] = generator^i, log its inverse permutation (log[0] = -1)
        if self.order <= _TABLE_LIMIT:
            exp = self.powers(self.generator, self.order - 1)
            log = np.full(self.order, -1, dtype=np.int64)
            log[exp] = np.arange(self.order - 1)
            self._exp = memoryview(exp)  # buffers, not lists: indexing still gives Python ints
            self._log = memoryview(log)

        # F_p-coordinates of (1, g, ..., g^(e-1)), g generating F_q^*: the
        # F_p digits (d_0, ..., d_(e-1)) stand for sum d_t g^t in F_q
        g = self.subfield_generator(1)
        self._qgen_coords = self.powers(g, e)[:, None] // self._digit_weights % p

        self._subfield_cache: dict[int, tuple] = {}
        self._vecrepr_cache: dict[tuple, np.ndarray] = {}
        self._misc_cache: dict = {}
        self._fq_json: dict[int, tuple] = {}  # F_q element -> its coords, see fq_json

    # -- packing ---------------------------------------------------------

    def _int_digits(self, v):
        out = []
        p = self.p
        for _ in range(self.degree):
            out.append(v % p)
            v //= p
        return out

    def coords(self, a: int) -> tuple:
        """Coordinates of a over F_p in the power basis, constant first."""
        return tuple(self._int_digits(a))

    def from_coords(self, coords) -> int:
        p = self.p
        v = 0
        for c in reversed(list(coords)):
            v = v * p + (int(c) % p)
        return v

    def elements(self):
        return range(self.order)

    # -- ring operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return _linalg.digit_sum(a, b, 1, self.p, self._weights)

    def neg(self, a: int) -> int:
        return _linalg.digit_sum(0, a, -1, self.p, self._weights)

    def sub(self, a: int, b: int) -> int:
        return _linalg.digit_sum(a, b, -1, self.p, self._weights)

    def _mul_generic(self, a: int, b: int) -> int:
        """The schoolbook product: ``mul`` above the table limit, and ``powers``."""
        p = self.p
        return self.from_coords(_pmod(_pmul(self._int_digits(a), self._int_digits(b), p), self.modulus, p))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_generic(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[(-self._log[a]) % (self.order - 1)]
        # extended Euclid on representatives: u*a = g mod f, g a unit, and
        # deg u < deg f, so u/g is the reduced inverse
        g, u = _pext_gcd(self._int_digits(a), self.modulus, self.p)
        assert len(g) == 1
        c = pow(g[0], -1, self.p)
        return self.from_coords([x * c for x in u])

    def pow(self, a: int, t: int) -> int:
        if a == 0:
            if t == 0:
                return 1
            if t < 0:
                raise ZeroDivisionError("0 has no negative power")
            return 0
        t %= self.order - 1 if self.order > 2 else 1
        if self._exp is not None:
            return self._exp[(self._log[a] * t) % (self.order - 1)]
        return self.from_coords(_ppowmod(self._int_digits(a), t, self.modulus, self.p))

    def powers(self, g: int, count: int) -> np.ndarray:
        """The packed g^0, ..., g^(count-1) as an int64 array.

        Multiplication by g is F_p-linear: row j of the d x d matrix S_g
        holds coords(g x^j), so coords(v g) = coords(v) S_g mod p and
        S_(ab) = S_a S_b.  A first block of digit rows g^0, ..., g^(B-1),
        B about sqrt(count), is doubled by squaring (S_(g^2L) = S_(g^L)^2);
        each further block is the previous one times S_(g^B), packed as it
        is made, so the count x d digit matrix is never held.  Products
        stay below d (p-1)^2 < 2^63, which holds for every field under
        the default guards."""
        p, d = self.p, self.degree
        step = np.array([self.coords(self._mul_generic(g, p ** j)) for j in range(d)], dtype=np.int64)
        block = np.eye(1, d, dtype=np.int64)
        while len(block) ** 2 < count:
            block = np.concatenate([block, block @ step % p])
            step = step @ step % p
        out = np.empty(count, dtype=np.int64)
        size = len(block)
        for start in range(0, count, size):
            if start:
                block = block @ step % p
            out[start:start + size] = (block @ self._digit_weights)[:count - start]
        return out

    # -- Frobenius and norms -------------------------------------------------

    def frobenius(self, a: int, j: int) -> int:
        """a^(q^j); j is reduced mod n, negative j allowed."""
        return self.frobenius_p(a, self.e * j)

    def frobenius_p(self, a: int, j: int) -> int:
        """a^(p^j), the j-th power of the absolute Frobenius."""
        j %= self.degree
        if j == 0 or a == 0:
            return a
        return self.pow(a, pow(self.p, j, self.order - 1) if self.order > 2 else 1)

    def relative_norm(self, a: int, s: int) -> int:
        """prod_{i<n} a^(q^(s i)), an element of F_q when gcd(s, n) = 1."""
        if gcd(s, self.n) != 1:
            raise GcdViolationError(f"gcd(s={s}, n={self.n}) != 1")
        out = 1
        for i in range(self.n):
            out = self.mul(out, self.frobenius(a, (s * i) % self.n))
        return out

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        t = self.order - 1
        for r, mult in self._unit_factors.items():
            for _ in range(mult):
                if self.pow(a, t // r) == 1:
                    t //= r
                else:
                    break
        return t

    def _find_generator(self) -> int:
        target = self.order - 1
        for tail in _lex_digits(self.p, self.degree):
            a = self.from_coords(tail)
            if a == 0:
                continue
            if all(self.pow(a, target // r) != 1 for r in self._unit_factors):
                return a
        raise AssertionError("no generator found")  # unreachable

    # -- subfields ---------------------------------------------------------

    def subfield_generator(self, ell: int) -> int:
        """xi^((q^n - 1)/(q^ell - 1)), of multiplicative order q^ell - 1,
        so F_q[g] = F_{q^ell}; ell | n."""
        if self.n % ell != 0:
            raise NotADivisorError(f"ell = {ell} does not divide n = {self.n}")
        return self.pow(self.generator, (self.order - 1) // (self.q ** ell - 1))

    def subfield_list(self, ell: int) -> tuple:
        """All q^ell elements fixed by x -> x^(q^ell), sorted; ell | n."""
        if ell not in self._subfield_cache:
            g = self.subfield_generator(ell)
            size = self.q ** ell
            if size == self.order:
                elems = tuple(range(self.order))
            else:
                elems = tuple(sorted([0] + self.powers(g, size - 1).tolist()))
            self._subfield_cache[ell] = elems
        return self._subfield_cache[ell]

    def subfield_elements(self, ell: int) -> frozenset:
        return frozenset(self.subfield_list(ell))

    def fq_list(self) -> tuple:
        """The q elements of the ground field F_q, sorted."""
        return self.subfield_list(1)

    # -- coordinates over F_q -------------------------------------------------

    def power_basis(self) -> tuple:
        """(1, xi, ..., xi^(n-1)), the default F_q-basis of F_{q^n} (cached)."""
        if "power_basis" not in self._misc_cache:
            self._misc_cache["power_basis"] = tuple(self.powers(self.generator, self.n).tolist())
        return self._misc_cache["power_basis"]

    def vec_repr(self, a: int, basis=None):
        """Coordinates of a over F_q in ``basis``, any F_q-independent
        tuple (default: the power basis), or None when a lies outside its
        span.  Raises DependentBasisError for a dependent tuple."""
        basis = self.power_basis() if basis is None else tuple(basis)
        if basis not in self._vecrepr_cache:
            # one F_p solve per basis: E with E T = RREF(T), the columns of
            # T the F_p-coordinates of g^t b (b in basis, t < e)
            gens = [self.from_coords(c) for c in self._qgen_coords]
            cols = [self.coords(self.mul(g, b)) for b in basis for g in gens]
            t = np.array(cols, dtype=np.int64).reshape(-1, self.degree).T
            _, e_, pivots = _linalg.modp_reduction(t, self.p)
            if pivots != list(range(t.shape[1])):
                raise DependentBasisError("basis is F_q-linearly dependent")
            self._vecrepr_cache[basis] = e_
        x = self._vecrepr_cache[basis] @ np.array(self.coords(a), dtype=np.int64) % self.p
        if x[len(basis) * self.e:].any():
            return None
        return self.from_qdigits(x, len(basis))

    def from_qdigits(self, x, count: int) -> tuple:
        """The ``count`` F_q elements whose F_p-coordinates over the F_q
        power basis (1, g, ..., g^(e-1)) are x[j*e : (j+1)*e], j < count,
        decoded at once through the stored coordinates of the g^t."""
        digits = np.asarray(x, dtype=np.int64)[:count * self.e].reshape(count, self.e)
        return tuple((digits @ self._qgen_coords % self.p @ self._digit_weights).tolist())

    def fq_json(self, x):
        """The JSON form of an F_q element: the int if q is prime, else its
        coordinate tuple, built once per element and field spec."""
        if self.e == 1:
            return int(x)
        if x not in self._fq_json:
            self._fq_json[x] = self.coords(int(x))
        return self._fq_json[x]

    def from_vec(self, coords) -> int:
        """The element with F_q-coordinates ``coords`` in the power basis."""
        a = 0
        for c, b in zip(coords, self.power_basis()):
            a = self.add(a, self.mul(c, b))
        return a

    # -- misc ---------------------------------------------------------------

    def check_same(self, other: "FieldSpec"):
        if self is not other:
            raise SpecMismatchError("operands live over different field specs")

    def serialize(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "n": self.n,
            "modulus": list(self.modulus),
            "generator": self.coords(self.generator),
        }

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e}, n={self.n})"


def _psub(a, b, p):
    out = [(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    return _ptrim(out)


def _pdivmod(a, b, p):
    a = _ptrim(list(a))
    b = _ptrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    binv = pow(b[-1], -1, p)
    q_ = [0] * max(0, len(a) - len(b) + 1)
    while a and len(a) >= len(b):
        c = (a[-1] * binv) % p
        off = len(a) - len(b)
        q_[off] = c
        for i, x in enumerate(b):
            a[off + i] = (a[off + i] - c * x) % p
        _ptrim(a)
    return _ptrim(q_), a


def _pext_gcd(a, b, p):
    """(g, u) with g = gcd(a, b) and u*a = g mod b (the cofactor of b is not built)."""
    r0, r1 = _ptrim(list(a)), _ptrim(list(b))
    s0, s1 = [1], []
    while r1:
        q_, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q_, s1, p), p)
    return r0, s0


def field_create(p: int, e: int, n: int, modulus=None, *, max_order: int = MAX_FIELD_ORDER) -> FieldSpec:
    """Create the spec for F_{q^n}, q = p^e.

    With no modulus, the lexicographically smallest monic irreducible
    of degree e*n over F_p is selected (constant-first coefficient
    order), so repeated runs agree.
    """
    return FieldSpec(p, e, n, modulus, max_order=max_order)


def subfield_fq_basis(gf, ell):
    """(1, g, ..., g^(ell-1)): an F_q-basis of F_{q^ell}."""
    g = gf.subfield_generator(ell)
    return tuple(gf.pow(g, t) for t in range(ell))
