"""Closed-form planar families on quadratic and cubic towers, with their
predicates, constructors, and the higher-degree non-existence witness.

Every predicate here has a brute-force oracle partner in the test suite; the
predicates themselves only evaluate the closed conditions in the field.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .field import FieldCtx
from .linpoly import LinearizedPoly
from .planarity import PlanarCandidate


def _normalized_a(ctx: FieldCtx) -> int:
    # Tr(1/2) = 2 * (1/2) = 1 on a quadratic tower
    return ctx.inv(2)


# ---------------------------------------------------------------------------
# Quadratic tower: both binomial families build on (b x^q + c x)^(p^k).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _QuadraticBinomial:
    """The map (b x^q + c x)^(p^k) on F_{q^2}, 0 < k < m."""

    ctx: FieldCtx
    k: int
    b: int
    c: int

    def __post_init__(self):
        if self.ctx.n != 2:
            raise ValueError("family lives on a quadratic tower")
        if not 0 < self.k < self.ctx.m:
            raise ValueError("exponent k must satisfy 0 < k < m")

    def _coeffs(self) -> list[int]:
        """ell's coefficients: b^(p^k) at x^(p^(m+k)) and c^(p^k) at
        x^(p^k), two distinct slots of the d = 2m since 0 < k < m."""
        ctx, k = self.ctx, self.k
        pk = ctx.p**k
        coeffs = [0] * ctx.degree
        coeffs[ctx.m + k] = ctx.pow(self.b, pk)
        coeffs[k] = ctx.pow(self.c, pk)
        return coeffs

    def ell(self) -> LinearizedPoly:
        return LinearizedPoly(self.ctx, tuple(self._coeffs()))

    def candidate(self) -> PlanarCandidate:
        return PlanarCandidate(self.ctx, _normalized_a(self.ctx), self.ell())


@dataclass(frozen=True)
class MonomialFamilyParams(_QuadraticBinomial):
    """Norm-inequal family: ell(x) = (b x^q + c x)^(p^k), N(b) != N(c).

    `norms` is (N(b), N(c)), taken here unless the caller has them already
    (a scan's decode, which skips equal norms), and read again by
    theorem_monomial_predicate."""

    norms: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if self.norms is None:
            object.__setattr__(self, "norms", (self.ctx.rel_norm(self.b),
                                               self.ctx.rel_norm(self.c)))
        if self.norms[0] == self.norms[1]:
            raise ValueError("family requires N(b) != N(c)")


def theorem_monomial_predicate(params: MonomialFamilyParams) -> bool:
    """Closed planarity test: p^k = 1 mod 4, m = 2k, and
    N(b - c^q)^((p^k+1)/2) = -(N(b) - N(c))^(p^k+1)."""
    ctx, k, b, c = params.ctx, params.k, params.b, params.c
    pk = ctx.p**k
    if pk % 4 != 1 or ctx.m != 2 * k:
        return False
    lhs = ctx.pow(ctx.rel_norm(ctx.sub(b, ctx.frobenius(c, ctx.m))), (pk + 1) // 2)
    diff = ctx.sub(*params.norms)
    rhs = ctx.neg(ctx.pow(diff, pk + 1))
    return lhs == rhs


def theorem_monomial_predicates(params: Sequence[MonomialFamilyParams]) -> list[bool]:
    """theorem_monomial_predicate of each of a list of parameters of one
    field and one k, in table mode, as vector ops over the list: the
    norms the parameters carry, and N(b - c^q)^((p^k+1)/2) as the one power
    (b - c^q)^((q+1)(p^k+1)/2)."""
    ctx, k = params[0].ctx, params[0].k
    pk = ctx.p**k
    if pk % 4 != 1 or ctx.m != 2 * k:
        return [False] * len(params)
    b, c, norm_b, norm_c = np.array([(x.b, x.c, *x.norms) for x in params],
                                    dtype=np.int64).T
    lhs = ctx.pow_vec(ctx.sub_vec(b, ctx.frob_vec(c, ctx.m)),
                      ctx._norm_exponent * ((pk + 1) // 2))
    rhs = ctx.neg_vec(ctx.pow_vec(ctx.sub_vec(norm_b, norm_c), pk + 1))
    return (lhs == rhs).tolist()


@dataclass(frozen=True)
class NbcFamilyParams(_QuadraticBinomial):
    """Norm-equal family: ell(x) = (b x^q + c x)^(p^k) - c0 (b x^q + c x)
    with b, c != 0 and N(b) = N(c)."""

    c0: int

    def __post_init__(self):
        super().__post_init__()
        if self.b == 0 or self.c == 0:
            raise ValueError("b and c must be nonzero")
        if self.ctx.rel_norm(self.b) != self.ctx.rel_norm(self.c):
            raise ValueError("family requires N(b) = N(c)")

    def _coeffs(self) -> list[int]:
        # minus c0 b at x^q and c0 c at x, slots m and 0, apart from k and m + k
        ctx, coeffs = self.ctx, super()._coeffs()
        coeffs[ctx.m] = ctx.neg(ctx.mul(self.c0, self.b))
        coeffs[0] = ctx.neg(ctx.mul(self.c0, self.c))
        return coeffs


def _power_equation_solutions(ctx: FieldCtx, e: int, rhs: int) -> list[int]:
    """All omega in the field with omega^e = rhs, solved by discrete log;
    the first is exp[s0] for the least solution s0 of e*s = log(rhs)."""
    if rhs == 0:
        return []
    ctx._need_tables()
    n1 = ctx.order - 1
    target = int(ctx.log_table[rhs])
    g = math.gcd(e, n1)
    if target % g:
        return []
    # solutions of e*s = target mod n1 form one residue class mod n1/g
    s0 = target // g * pow(e // g, -1, n1 // g) % (n1 // g)
    return [int(ctx.exp_table[(s0 + t * (n1 // g)) % n1]) for t in range(g)]


def theorem_nbc_predicate(params: NbcFamilyParams) -> bool:
    bullet, simplified = theorem_nbc_forms(params)
    if simplified is not None and bullet != simplified:
        raise AssertionError(
            "bullet and simplified forms disagree; implementation bug"
        )
    return bullet


def theorem_nbc_forms(params: NbcFamilyParams) -> tuple[bool, bool | None]:
    """Evaluate both the solution-set form and, when d = gcd(p^k-1, q^2-1)
    divides q-1, the equivalent power-test form of the planarity conditions.

    Returns (bullet_form, simplified_form_or_None).
    """
    ctx, k, b, c, c0 = params.ctx, params.k, params.b, params.c, params.c0
    ctx._need_tables()
    q = ctx.q
    pk = ctx.p**k

    binv_c = ctx.mul(ctx.inv(b), c)
    first = ctx.pow(binv_c, (q + 1) // 2) == ctx.neg(1)

    bq_cinv = ctx.mul(ctx.frobenius(b, ctx.m), ctx.inv(c))
    # second: no omega with omega^(p^k - 1) = c0 may satisfy omega^(q-1) = b^q/c
    second = all(
        ctx.pow(w, q - 1) != bq_cinv
        for w in _power_equation_solutions(ctx, pk - 1, c0)
    )
    # third: same with the twisted equation
    #   ((c^q/b)^(p^k) - 1) omega^(p^k-1) = (c^q/b) c0^q - c0
    binv_cq = ctx.mul(ctx.inv(b), ctx.frobenius(c, ctx.m))
    coeff = ctx.sub(ctx.pow(binv_cq, pk), 1)
    rhs = ctx.sub(ctx.mul(binv_cq, ctx.frobenius(c0, ctx.m)), c0)
    if coeff == 0:
        # equation degenerates: either no omega qualifies, or every omega does
        if rhs != 0:
            third = True
        else:
            third = not _power_equation_solutions(ctx, q - 1, bq_cinv)
    else:
        third = all(
            ctx.pow(w, q - 1) != bq_cinv
            for w in _power_equation_solutions(ctx, pk - 1, ctx.mul(ctx.inv(coeff), rhs))
        )

    bullet = first and second and third

    d = math.gcd(pk - 1, q * q - 1)
    if (q - 1) % d != 0:
        return bullet, None

    e1 = (q - 1) // d
    e2 = (pk - 1) // d
    simple_second = ctx.pow(c0, e1) != ctx.pow(bq_cinv, e2)
    simple_third = ctx.pow(rhs, e1) != ctx.mul(ctx.pow(coeff, e1), ctx.pow(bq_cinv, e2))
    return bullet, first and simple_second and simple_third


def nbc_recipe_zero_power(params: NbcFamilyParams) -> bool:
    """Worked recipe: with b=1, c=-1, q = 1 mod 4, any c0 such that neither c0
    nor Tr(c0)/2 is a (p^k - 1)-st power in F_{q^2}^* gives a planar function
    (c0 = 0 qualifies)."""
    ctx, k, c0 = params.ctx, params.k, params.c0
    pk = ctx.p**k
    tr_half = ctx.mul(ctx.rel_trace(c0), ctx.inv(2))
    no_pow_c0 = not _power_equation_solutions(ctx, pk - 1, c0)
    no_pow_tr = not _power_equation_solutions(ctx, pk - 1, tr_half)
    return no_pow_c0 and no_pow_tr


def nbc_recipe_trace_condition(params: NbcFamilyParams) -> bool:
    """Worked recipe for gcd(k, 2m) | m, b=1, c=-1: c0 outside F_q with
    (Tr(c0)/2)^((q-1)/d) != (-1)^((p^k-1)/d)."""
    ctx, k, c0 = params.ctx, params.k, params.c0
    q = ctx.q
    pk = ctx.p**k
    d = math.gcd(pk - 1, q * q - 1)
    if (q - 1) % d != 0:
        raise ValueError("recipe requires d | q - 1")
    if ctx.in_subfield(c0):
        return False
    tr_half = ctx.mul(ctx.rel_trace(c0), ctx.inv(2))
    lhs = ctx.pow(tr_half, (q - 1) // d)
    rhs = ctx.pow(ctx.neg(1), (pk - 1) // d)
    return lhs != rhs


# ---------------------------------------------------------------------------
# Quadratic tower, linearized-permutation construction.
# ---------------------------------------------------------------------------

def example1_ell(ctx: FieldCtx) -> LinearizedPoly:
    """x^(p^3k) - x^(p^2k) - x^(p^k) - x for m = 2k; restricts to -2u on F_q."""
    if ctx.n != 2 or ctx.m % 2 != 0:
        raise ValueError("construction requires a quadratic tower with even m")
    k = ctx.m // 2
    neg = ctx.neg(1)
    ell = LinearizedPoly.monomial(ctx, 1, 3 * k)
    for t in (2 * k, k, 0):
        ell = ell + LinearizedPoly.monomial(ctx, neg, t)
    return ell


def example1_generalized(ctx: FieldCtx, alpha: int,
                         ell: LinearizedPoly) -> PlanarCandidate:
    """Planar candidate from a linearized permutation restricting to alpha*u
    on F_q, where alpha^2 - 1 is a nonzero square in F_q."""
    if ctx.n != 2:
        raise ValueError("construction requires a quadratic tower")
    if not ctx.in_subfield(alpha):
        raise ValueError("alpha must lie in F_q")
    disc = ctx.sub(ctx.mul(alpha, alpha), 1)
    if ctx.quadratic_character(disc, level=1) != 1:
        raise ValueError("alpha^2 - 1 must be a nonzero square in F_q")
    if not ell.is_permutation():
        raise ValueError("ell must permute the field")
    for u in ctx.subfield_elements():
        if ell(u) != ctx.mul(alpha, u):
            raise ValueError("ell must restrict to multiplication by alpha on F_q")
    return PlanarCandidate(ctx, _normalized_a(ctx), ell)


def example1_construct(ctx: FieldCtx) -> PlanarCandidate:
    """The standard instance of the permutation construction (alpha = -2)."""
    return example1_generalized(ctx, ctx.neg(2), example1_ell(ctx))


# ---------------------------------------------------------------------------
# Cubic tower.
# ---------------------------------------------------------------------------

def cubic_det(ctx: FieldCtx, u: int, A: int, B: int) -> int:
    """Determinant of [[u, A, B^(q^2)], [B, u^q, A^q], [A^(q^2), B^q, u^(q^2)]]."""
    if ctx.n != 3:
        raise ValueError("requires a cubic tower")
    m = ctx.m
    rows = [
        [u, A, ctx.frobenius(B, 2 * m)],
        [B, ctx.frobenius(u, m), ctx.frobenius(A, m)],
        [ctx.frobenius(A, 2 * m), ctx.frobenius(B, m), ctx.frobenius(u, 2 * m)],
    ]
    det = 0
    for sgn, (j0, j1, j2) in (
        (1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)),
        (-1, (0, 2, 1)), (-1, (1, 0, 2)), (-1, (2, 1, 0)),
    ):
        term = ctx.mul(ctx.mul(rows[0][j0], rows[1][j1]), rows[2][j2])
        det = ctx.add(det, term if sgn > 0 else ctx.neg(term))
    return det


def cubic_lemma_predicate(ctx: FieldCtx, A: int, B: int, r: int) -> bool:
    """True iff Tr(A x^(q-1) + B x^(1-q)) + r has no root in F_{q^3}^*:
    the quotient (N(A)+N(B))/(AB) must be a nonzero element of F_q equal to r.
    """
    if ctx.n != 3:
        raise ValueError("requires a cubic tower")
    if A == 0 or B == 0:
        raise ValueError("A and B must be nonzero")
    if not ctx.in_subfield(r):
        raise ValueError("r must lie in F_q")
    s = ctx.mul(
        ctx.add(ctx.rel_norm(A), ctx.rel_norm(B)), ctx.inv(ctx.mul(A, B))
    )
    return s != 0 and ctx.in_subfield(s) and r == s


def cubic_lemma_bruteforce(ctx: FieldCtx, A: int, B: int, r: int) -> bool:
    """Direct root scan of Tr(A x^(q-1) + B x^(1-q)) + r over F_{q^3}^*."""
    q = ctx.q
    for x in range(1, ctx.order):
        xq1 = ctx.pow(x, q - 1)
        val = ctx.rel_trace(
            ctx.add(ctx.mul(A, xq1), ctx.mul(B, ctx.inv(xq1)))
        )
        if ctx.add(val, r) == 0:
            return False
    return True


@dataclass(frozen=True)
class CubicCoeffs:
    """Coefficients b[i][j] of ell(x) = sum b_ij x^(p^i q^j) on F_{q^3}."""

    ctx: FieldCtx
    a: int
    b: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        ctx = self.ctx
        if ctx.n != 3:
            raise ValueError("requires a cubic tower")
        if self.a == 0:
            raise ValueError("a must be nonzero")
        if len(self.b) != ctx.m or any(len(row) != 3 for row in self.b):
            raise ValueError("coefficient grid must be m x 3")

    def ell(self) -> LinearizedPoly:
        ctx = self.ctx
        coeffs = [0] * ctx.degree
        for i, row in enumerate(self.b):
            for j, v in enumerate(row):
                t = i + ctx.m * j
                coeffs[t] = ctx.add(coeffs[t], v)
        return LinearizedPoly(ctx, tuple(coeffs))

    def candidate(self) -> PlanarCandidate:
        return PlanarCandidate(self.ctx, self.a, self.ell())


def cubic_theorem_predicate(coeffs: CubicCoeffs) -> bool:
    """Planar iff ell permutes F_{q^3} and, for each i, the weighted
    coefficient sum matches N(a) at i = 0 and vanishes otherwise."""
    ctx, a = coeffs.ctx, coeffs.a
    if not coeffs.ell().is_permutation():
        return False
    na = ctx.rel_norm(a)
    q = ctx.q
    for i, row in enumerate(coeffs.b):
        acc = 0
        for j, v in enumerate(row):
            acc = ctx.add(acc, ctx.mul(v, ctx.pow(a, 2 * ctx.p**i * q ** (j + 1))))
        if acc != (na if i == 0 else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# Higher towers: non-existence witness.
# ---------------------------------------------------------------------------

def nonexistence_witness(ctx: FieldCtx, a: int) -> int | None:
    """An element u with a^2 u^(q+1) in F_q^*, certifying (for n >= 5) that
    Tr(a u^q x^(1-q) + a u x^(q-1)) covers all of F_q and hence that no
    candidate with this a is planar.

    Returns None when a is not a ((q+1)/2)-th power and n is even; raises if
    the construction fails under its stated hypotheses.
    """
    if ctx.n < 5:
        raise ValueError("witness construction applies to towers of degree >= 5")
    if a == 0:
        raise ValueError("a must be nonzero")
    q = ctx.q
    # route 1: a = alpha^((q+1)/2) gives u = alpha^(-1)
    alphas = _power_equation_solutions(ctx, (q + 1) // 2, a)
    if alphas:
        u = ctx.inv(alphas[0])
    elif ctx.n % 2 == 1:
        # route 2: n odd, gcd(q^2-1, q^n-1) = q-1, solve u^(q^2-1) = a^(-2(q-1))
        y = ctx.pow(ctx.inv(ctx.mul(a, a)), q - 1)
        us = _power_equation_solutions(ctx, q * q - 1, y)
        if not us:
            raise RuntimeError("odd-degree witness equation unsolvable")
        u = us[0]
    else:
        return None
    val = ctx.mul(ctx.mul(a, a), ctx.pow(u, q + 1))
    if u == 0 or val == 0 or not ctx.in_subfield(val):
        raise RuntimeError("nonexistence witness failed verification")
    return u

