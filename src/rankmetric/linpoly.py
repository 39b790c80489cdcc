"""Linearized (q-)polynomials over F_{q^n} and subspace machinery.

A linearized polynomial sum c_i X^(q^i) induces an F_q-linear map on
F_{q^n}; modulo X^(q^n) - X these maps form the full endomorphism
algebra, so every coefficient vector here has length exactly n.

For an F_q-independent set S = (alpha_1, ..., alpha_m) the subspace
polynomial theta_S is the monic linearized polynomial of q-degree m
vanishing exactly on the span U_S.  Reduction mod theta_S onto the
step-s transversal {sum_{j<m} a_j X^(q^(s j))} is performed by a Moore
matrix solve: the representative is pinned down by its values on the
alpha_i, and the Moore matrix (alpha_i^(q^(s j))) is invertible exactly
when the alpha_i are independent and gcd(s, n) = 1.  Interpolation on
a basis is the m = n solve: ``moore_inverse`` is the one F_{q^n} inverse.
"""

from __future__ import annotations

from math import gcd

from . import _linalg
from .errors import (
    DependentSetError,
    EnumerationGuardError,
    GcdViolationError,
    SpecMismatchError,
)

SUBSPACE_GUARD = 1 << 22


class LinearizedPoly:
    """Coefficient vector (c_0, ..., c_{n-1}) for sum c_i X^(q^i)."""

    __slots__ = ("gf", "coeffs")

    def __init__(self, gf, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != gf.n:
            raise ValueError(f"expected {gf.n} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "gf", gf)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("LinearizedPoly is immutable")

    @classmethod
    def zero(cls, gf):
        return cls(gf, (0,) * gf.n)

    @classmethod
    def monomial(cls, gf, c, i):
        """c X^(q^i), exponent index reduced mod n."""
        coeffs = [0] * gf.n
        coeffs[i % gf.n] = c
        return cls(gf, coeffs)

    @classmethod
    def identity(cls, gf):
        return cls.monomial(gf, gf.one, 0)

    def __call__(self, x):
        return _lin_eval(self.gf, self.coeffs, x)

    def __add__(self, other):
        self.gf.check_same(other.gf)
        gf = self.gf
        return LinearizedPoly(gf, (gf.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self.gf.check_same(other.gf)
        gf = self.gf
        return LinearizedPoly(gf, (gf.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return LinearizedPoly(self.gf, (self.gf.neg(a) for a in self.coeffs))

    def compose(self, other):
        """self o other:  h_k = sum_{i+j = k mod n} f_i * g_j^(q^i)."""
        self.gf.check_same(other.gf)
        gf, n = self.gf, self.gf.n
        out = [0] * n
        for i, fi in enumerate(self.coeffs):
            if not fi:
                continue
            for j, gj in enumerate(other.coeffs):
                if not gj:
                    continue
                k = (i + j) % n
                out[k] = gf.add(out[k], gf.mul(fi, gf.frobenius(gj, i)))
        return LinearizedPoly(gf, out)

    def support(self):
        return frozenset(i for i, c in enumerate(self.coeffs) if c)

    def serialize(self):
        """List of F_p coordinate vectors, index = q-exponent."""
        return [list(self.gf.coords(c)) for c in self.coeffs]

    def __eq__(self, other):
        return (isinstance(other, LinearizedPoly)
                and self.gf is other.gf and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.gf), self.coeffs))

    def __repr__(self):
        terms = [f"{self.gf.coords(c)}*X^q^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def _lin_eval(gf, coeffs, x):
    """sum_i coeffs[i] x^(q^i), the one evaluation loop for linearized
    polynomials of any length (theta_S has m + 1 coefficients); x is
    raised once per gap between nonzero coefficients."""
    out, y, at = 0, x, 0
    for i, c in enumerate(coeffs):
        if c:
            y, at = gf.frobenius(y, i - at), i
            out = gf.add(out, gf.mul(c, y))
    return out


def lp_eval(f: LinearizedPoly, x: int) -> int:
    return f(x)


def lp_compose(f: LinearizedPoly, g: LinearizedPoly) -> LinearizedPoly:
    return f.compose(g)


class SubspaceSpec:
    """An ordered independent set S with theta_S (Moore data: module functions)."""

    def __init__(self, gf, alphas, theta):
        self.gf = gf
        self.alphas = tuple(alphas)
        self.m = len(self.alphas)
        self.theta = tuple(theta)  # m+1 coefficients, monic
        self._subspace = None

    # -- the subspace itself ---------------------------------------------

    def subspace(self) -> tuple:
        """All q^m points of U_S, deterministic order."""
        if self._subspace is None:
            gf = self.gf
            if gf.q ** self.m > SUBSPACE_GUARD:
                raise EnumerationGuardError(
                    f"|U_S| = q^{self.m} exceeds guard {SUBSPACE_GUARD}")
            pts = [0]
            for a in self.alphas:
                pts = [gf.add(x, gf.mul(c, a)) for c in gf.fq_list() for x in pts]
            self._subspace = tuple(pts)
        return self._subspace

    def subspace_set(self) -> frozenset:
        return frozenset(self.subspace())

    def theta_eval(self, x: int) -> int:
        """theta_S(x); zero exactly on U_S."""
        return _lin_eval(self.gf, self.theta, x)

    def theta_poly(self) -> LinearizedPoly:
        """theta_S as a reduced linearized polynomial (zero when m = n)."""
        gf = self.gf
        out = [0] * gf.n
        for i, c in enumerate(self.theta):
            out[i % gf.n] = gf.add(out[i % gf.n], c)
        return LinearizedPoly(gf, out)

    # -- Moore matrices -----------------------------------------------------

    def moore_matrix(self, s: int):
        return moore_matrix(self.gf, self.alphas, s)

    def moore_inverse(self, s: int):
        return moore_inverse(self.gf, self.alphas, s)

    # -- coordinates in the alpha basis ------------------------------------

    def alpha_coords(self, u: int):
        """Coordinates of u over F_q in the basis S; None if u not in U_S
        (``gf.vec_repr`` on the partial basis alphas)."""
        return self.gf.vec_repr(u, self.alphas)

    def __repr__(self):
        return f"SubspaceSpec(m={self.m}, n={self.gf.n}, q={self.gf.q})"


def subspace_poly(gf, alphas) -> SubspaceSpec:
    """Build S and theta_S = prod_{u in U_S} (X - u), computed by the
    recursive tower theta' = theta^q - theta(alpha)^(q-1) * theta."""
    alphas = tuple(alphas)
    if len(alphas) > gf.n:
        raise DependentSetError(f"m = {len(alphas)} exceeds n = {gf.n}")
    theta = [gf.one]  # theta of the zero space is X
    for a in alphas:
        v = _lin_eval(gf, theta, a)
        if v == 0:
            raise DependentSetError("set is F_q-linearly dependent")
        scale = gf.pow(v, gf.q - 1)
        new = [0] * (len(theta) + 1)
        for i, c in enumerate(theta):
            new[i + 1] = gf.frobenius(c, 1)
            new[i] = gf.sub(new[i], gf.mul(scale, c))
        theta = new
    return SubspaceSpec(gf, alphas, theta)


def moore_matrix(gf, points, s=1):
    """(x_i^(q^(s j))) for x_i in points and j < len(points); invertible
    exactly when the points are F_q-independent and gcd(s, n) = 1."""
    if gcd(s, gf.n) != 1:
        raise GcdViolationError(f"gcd(s={s}, n={gf.n}) != 1")
    return tuple(tuple(gf.frobenius(x, s * j) for j in range(len(points))) for x in points)


def moore_inverse(gf, points, s=1):
    """Inverse of ``moore_matrix(gf, points, s)`` by one ``generic_inv`` per
    (points, s), kept in the spec's ``_misc_cache``: column i is the map
    taking points[i] to 1 and the others to 0.  SingularMatrixError if dependent."""
    key = ("moore_inverse", tuple(points), s)
    if key not in gf._misc_cache:
        gf._misc_cache[key] = tuple(map(tuple, _linalg.generic_inv(moore_matrix(gf, points, s), gf)))
    return gf._misc_cache[key]


def _matvec(mat, vec, gf):
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, vec):
            if a and b:
                acc = gf.add(acc, gf.mul(a, b))
        out.append(acc)
    return tuple(out)


def reduce_mod_theta(f: LinearizedPoly, S: SubspaceSpec, s: int) -> tuple:
    """Transversal coefficients (a_0, ..., a_{m-1}) of f mod theta_S,
    meaning sum a_j X^(q^(s j)); the unique representative agreeing with
    f on every point of U_S."""
    if f.gf is not S.gf:
        raise SpecMismatchError("polynomial and subspace specs differ")
    inv = S.moore_inverse(s)
    values = [f(a) for a in S.alphas]
    return _matvec(inv, values, S.gf)


def poly_from_reduced(S: SubspaceSpec, s: int, reduced) -> LinearizedPoly:
    """Embed transversal coefficients back as sum a_j X^(q^(s j mod n))."""
    gf = S.gf
    out = [0] * gf.n
    for j, a in enumerate(reduced):
        out[(s * j) % gf.n] = gf.add(out[(s * j) % gf.n], a)
    return LinearizedPoly(gf, out)


def roots_in_subspace(f: LinearizedPoly, S: SubspaceSpec) -> int:
    """#{u in U_S : f(u) = 0}; always a power of q (kernel is a space)."""
    return sum(1 for u in S.subspace() if f(u) == 0)


def shift_support(phi: LinearizedPoly, S: SubspaceSpec, s: int, t: int) -> frozenset:
    """The index set A_{phi,t} = {j : some a makes coefficient j of
    phi(a X^(q^(t s))) mod theta_S nonzero}.

    Uses X^(q^i) mod theta_S = sum_j e_i^(j) X^(q^(s j)): coefficient j
    of phi(a X^(q^(ts))) is sum_i d_i a^(q^i) e_{i+ts}^(j), which is
    nonzero for some a exactly when some product d_i e_{i+ts}^(j) is
    nonzero (the maps a -> a^(q^i) are linearly independent)."""
    if not 0 <= t <= S.m - 1:
        raise ValueError(f"t = {t} outside 0..{S.m - 1}")
    gf = S.gf
    rows = [reduce_mod_theta(LinearizedPoly.monomial(gf, gf.one, i + t * s), S, s)
            for i, d in enumerate(phi.coeffs) if d]
    return frozenset(j for j in range(S.m) if any(row[j] for row in rows))


def poly_from_values(gf, points, values) -> LinearizedPoly:
    """Interpolate the unique linearized polynomial with the given values
    on an F_q-basis of F_{q^n} (the n x n Moore solve)."""
    return LinearizedPoly(gf, _matvec(moore_inverse(gf, points), list(values), gf))


def poly_to_matrix(phi: LinearizedPoly):
    """Row-convention matrix Y of phi over F_q in the power basis: row i
    gives the coordinates of phi(xi^i), so v(phi(x))^T = v(x)^T Y."""
    gf = phi.gf
    return tuple(gf.vec_repr(phi(b)) for b in gf.power_basis())


def matrix_to_poly(gf, mat) -> LinearizedPoly:
    """Inverse of poly_to_matrix."""
    return poly_from_values(gf, gf.power_basis(), [gf.from_vec(row) for row in mat])
