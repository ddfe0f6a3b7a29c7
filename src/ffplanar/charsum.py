"""Character-sum counting machinery on F_{q^k} over its F_q subfield.

The host context is F_{q^k} with q = p^m; monic polynomials live over the
F_q subfield, characters are characters of F_q.  The multiplicative weight
Phi on monic polynomials, its degree-restricted sums, the element counts
M_k(upsilon, omega) with their explicit lower bound, and quadratic-character
sums with the Weil bound are all computed exactly at desk scale (complex
doubles for character values, integers elsewhere).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field import AdditiveChar, FieldCtx, MultiplicativeChar, additive_chars, \
    multiplicative_chars


# ---------------------------------------------------------------------------
# Monic polynomials over the F_q subfield.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonicPoly:
    """Monic polynomial over F_q, stored as plain coefficients c_0..c_d.

    The signed coefficients alpha_j with x^d - alpha_{d-1} x^(d-1) + ...
    + (-1)^d alpha_0 are derived on demand.
    """

    ctx: FieldCtx
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2 or self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic of degree >= 1")
        if any(not self.ctx.in_subfield(c) for c in self.coeffs):
            raise ValueError("coefficients must lie in the F_q subfield")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def alpha(self, j: int) -> int:
        """Signed coefficient: alpha_j = (-1)^(d-j) * c_j."""
        c = self.coeffs[j]
        return c if (self.degree - j) % 2 == 0 else self.ctx.neg(c)

    def __mul__(self, other: "MonicPoly") -> "MonicPoly":
        ctx = self.ctx
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
        return MonicPoly(ctx, tuple(out))

    def divides(self, other: "MonicPoly") -> bool:
        ctx = self.ctx
        rem = list(other.coeffs)
        d = self.degree
        while len(rem) - 1 >= d:
            lead = rem[-1]
            if lead:
                for j in range(d + 1):
                    rem[len(rem) - 1 - d + j] = ctx.sub(
                        rem[len(rem) - 1 - d + j], ctx.mul(lead, self.coeffs[j])
                    )
            rem.pop()
        return all(c == 0 for c in rem)

    def is_irreducible(self) -> bool:
        """Trial division by lower-degree monic polynomials."""
        for d in range(1, self.degree // 2 + 1):
            for div in monic_polys(self.ctx, d):
                if div.divides(self):
                    return False
        return True


def monic_polys(ctx: FieldCtx, degree: int):
    """Monic degree-d polynomials over F_q in lexicographic coefficient order
    (constant term varies slowest)."""
    sub = ctx.subfield_elements()
    for lower in itertools.product(sub, repeat=degree):
        yield MonicPoly(ctx, tuple(lower) + (1,))


def irreducible_polys(ctx: FieldCtx, degree: int) -> list[MonicPoly]:
    return [g for g in monic_polys(ctx, degree) if g.is_irreducible()]


# ---------------------------------------------------------------------------
# The multiplicative weight Phi and its sums.
# ---------------------------------------------------------------------------

def phi(chi: AdditiveChar, psi: MultiplicativeChar, g: MonicPoly, c: int) -> complex:
    """chi(alpha_{d-1} + c alpha_1 / alpha_0) psi(alpha_0), or 0 if alpha_0 = 0."""
    ctx = g.ctx
    if c == 0 or not ctx.in_subfield(c):
        raise ValueError("the shift c must lie in F_q^*")
    a0 = g.alpha(0)
    if a0 == 0:
        return 0j
    arg = ctx.add(
        g.alpha(g.degree - 1), ctx.mul(c, ctx.mul(g.alpha(1), ctx.inv(a0)))
    )
    return chi(arg) * psi(a0)


def phi_degree_sum(ctx: FieldCtx, chi: AdditiveChar, psi: MultiplicativeChar,
                   degree: int, c: int) -> complex:
    """Sum of Phi over all monic polynomials of the given degree."""
    return sum(phi(chi, psi, g, c) for g in monic_polys(ctx, degree))


def a_sum(ctx: FieldCtx, chi: AdditiveChar, psi: MultiplicativeChar,
          c: int) -> complex:
    """Direct form: sum over xi in F_{q^k}^* of
    chi(Tr(xi + c/xi)) psi(N(xi)), with k the tower degree of ctx."""
    ctx._need_tables()
    xs = np.arange(1, ctx.order, dtype=np.int64)
    arg = ctx.trace_table[ctx.add_vec(xs, ctx.mul_vec(c, ctx.inv_vec(xs)))]
    return complex(np.sum(chi.values(arg) * psi.values(ctx.norm_table[xs])))


def a_sum_by_minimal_polys(ctx: FieldCtx, chi: AdditiveChar,
                           psi: MultiplicativeChar, c: int) -> complex:
    """Independent route: sum deg(P) * Phi(P)^(k/deg P) over monic
    irreducible P with degree dividing k."""
    k = ctx.n
    total = 0j
    for d in range(1, k + 1):
        if k % d:
            continue
        for poly in irreducible_polys(ctx, d):
            total += d * phi(chi, psi, poly, c) ** (k // d)
    return total


# ---------------------------------------------------------------------------
# Element counts and the explicit bound.
# ---------------------------------------------------------------------------

def explicit_lower_bound(q: int, k: int) -> float:
    """q^k - 1 - 2(q-1) q^(k/2) - 2(q-1)(q-2) q^(k/2), a lower bound for
    q(q-1) M_k whenever q >= 3 and k >= 5."""
    half = math.sqrt(q) ** k
    return q**k - 1 - 2 * (q - 1) * half - 2 * (q - 1) * (q - 2) * half


@dataclass(frozen=True)
class CountRecord:
    k: int
    upsilon: int
    omega: int
    c: int
    count: int
    bound: float

    def bound_holds(self, q: int) -> bool:
        return q * (q - 1) * self.count >= self.bound

    def to_json(self, ctx: FieldCtx) -> dict:
        return {
            "q": ctx.q,
            "k": self.k,
            "upsilon": ctx.format_element(self.upsilon),
            "omega": ctx.format_element(self.omega),
            "c": ctx.format_element(self.c),
            "count": self.count,
            "bound": self.bound,
            "bound_holds": self.bound_holds(ctx.q),
        }


def count_solutions(ctx: FieldCtx, upsilon: int, omega: int, c: int) -> CountRecord:
    """Exact count of xi in F_{q^k}^* with Tr(xi + c/xi) + upsilon = 0 and
    omega N(xi) = 1, by exhaustive scan."""
    ctx._need_tables()
    if omega == 0 or not ctx.in_subfield(omega):
        raise ValueError("omega must lie in F_q^*")
    if c == 0 or not ctx.in_subfield(c):
        raise ValueError("c must lie in F_q^*")
    if not ctx.in_subfield(upsilon):
        raise ValueError("upsilon must lie in F_q")
    xs = np.arange(1, ctx.order, dtype=np.int64)
    tr = ctx.trace_table[ctx.add_vec(xs, ctx.mul_vec(c, ctx.inv_vec(xs)))]
    hit_tr = tr == ctx.neg(upsilon)
    hit_nm = ctx.mul_vec(omega, ctx.norm_table[xs]) == 1
    count = int(np.count_nonzero(hit_tr & hit_nm))
    return CountRecord(ctx.n, upsilon, omega, c, count,
                       explicit_lower_bound(ctx.q, ctx.n))


def char_weighted_total(ctx: FieldCtx, upsilon: int, omega: int, c: int) -> complex:
    """sum over all character pairs of chi(upsilon) psi(omega) A(k); equals
    q(q-1) M_k(upsilon, omega) by orthogonality."""
    total = 0j
    for chi in additive_chars(ctx):
        for psi in multiplicative_chars(ctx):
            total += chi(upsilon) * psi(omega) * a_sum(ctx, chi, psi, c)
    return total


# ---------------------------------------------------------------------------
# Quadratic-character sums over the full field and the Weil bound.
# ---------------------------------------------------------------------------

def _poly_values(ctx: FieldCtx, coeffs) -> np.ndarray:
    xs = np.arange(ctx.order, dtype=np.int64)
    acc = np.zeros(ctx.order, dtype=np.int64)
    for c in reversed(list(coeffs)):
        acc = ctx.add_vec(ctx.mul_vec(acc, xs), np.int64(c))
    return acc


def weil_eta_sum(ctx: FieldCtx, coeffs) -> int:
    """Exact integer sum of the quadratic character of g(xi) over the field."""
    ctx._need_tables()
    return int(ctx.eta_table[_poly_values(ctx, coeffs)].sum())


def _trim(ctx, coeffs) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _derivative(ctx: FieldCtx, coeffs) -> list[int]:
    out = []
    for i in range(1, len(coeffs)):
        out.append(ctx.mul(i % ctx.p, coeffs[i]))
    return _trim(ctx, out)


def monic_square_root(ctx: FieldCtx, coeffs) -> list[int] | None:
    """Exact square root of a monic polynomial, or None.

    Solved top-down: the coefficient of x^(e+i) in h^2 is 2 h_i plus a sum of
    already-known higher coefficients, so each h_i needs one division by 2;
    the candidate is verified against the full product before returning.
    """
    coeffs = _trim(ctx, coeffs)
    d = len(coeffs) - 1
    if d % 2:
        return None
    e = d // 2
    h = [0] * (e + 1)
    h[e] = 1
    inv2 = ctx.inv(2)
    for i in range(e - 1, -1, -1):
        s = 0
        for j in range(i + 1, e):
            s = ctx.add(s, ctx.mul(h[j], h[e + i - j]))
        h[i] = ctx.mul(ctx.sub(coeffs[e + i], s), inv2)
    square = [0] * (d + 1)
    for a in range(e + 1):
        for b in range(e + 1):
            square[a + b] = ctx.add(square[a + b], ctx.mul(h[a], h[b]))
    return h if square == coeffs else None


def is_scalar_times_square(ctx: FieldCtx, coeffs) -> bool:
    """True iff g = c * h^2; p-th power layers are peeled with the inverse
    Frobenius before the square-root probe (odd p keeps multiplicity parity)."""
    coeffs = _trim(ctx, coeffs)
    if len(coeffs) <= 1:
        return True
    if not _derivative(ctx, coeffs):
        # zero derivative in char p means g = (p-th root of g)^p, and odd p
        # preserves multiplicity parity
        root = [
            ctx.pow(c, ctx.p ** (ctx.degree - 1))
            for i, c in enumerate(coeffs)
            if i % ctx.p == 0
        ]
        return is_scalar_times_square(ctx, root)
    lead = coeffs[-1]
    monic = [ctx.mul(ctx.inv(lead), c) for c in coeffs]
    return monic_square_root(ctx, monic) is not None


def weil_bound_check(ctx: FieldCtx, coeffs) -> bool:
    """|sum eta(g(xi))| <= (deg g - 1) sqrt(field order), after checking the
    hypothesis that g is nonconstant and not a scalar times a square."""
    coeffs = _trim(ctx, coeffs)
    if len(coeffs) <= 1:
        raise ValueError("the bound needs a nonconstant polynomial")
    if is_scalar_times_square(ctx, coeffs):
        raise ValueError("the bound hypothesis excludes scalar multiples of squares")
    total = abs(weil_eta_sum(ctx, coeffs))
    return total <= (len(coeffs) - 2) * math.sqrt(ctx.order)
