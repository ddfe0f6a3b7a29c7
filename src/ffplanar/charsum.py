"""Character-sum counting machinery on F_{q^k} over its F_q subfield.

The host context is F_{q^k} with q = p^m; monic polynomials live over the
F_q subfield, characters are characters of F_q.  The multiplicative weight
Phi on monic polynomials, its degree-restricted sums, and the element counts
M_k(upsilon, omega) with their explicit lower bound are all computed exactly
at desk scale (complex doubles for character values, integers elsewhere).
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


def monic_polys(ctx: FieldCtx, degree: int):
    """Monic degree-d polynomials over F_q in lexicographic coefficient order
    (constant term varies slowest)."""
    sub = ctx.subfield_elements()
    for lower in itertools.product(sub, repeat=degree):
        yield MonicPoly(ctx, tuple(lower) + (1,))


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

