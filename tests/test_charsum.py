import math

import numpy as np
import pytest

from ffplanar.charsum import (
    MonicPoly,
    a_sum,
    char_weighted_total,
    count_solutions,
    explicit_lower_bound,
    monic_polys,
    phi,
    phi_degree_sum,
)
from ffplanar.field import AdditiveChar, MultiplicativeChar, additive_chars, \
    multiplicative_chars, new_ctx

F3 = new_ctx(3, 1, 1)
F5 = new_ctx(5, 1, 1)
F9 = new_ctx(3, 2, 1)  # F_9 as its own base field (m = 2, n = 1)
F81_4 = new_ctx(3, 1, 4)
F243 = new_ctx(3, 1, 5)
F729 = new_ctx(3, 1, 6)


def necklace_count(q, d):
    # number of monic irreducible degree-d polynomials over F_q
    total = 0
    for e in range(1, d + 1):
        if d % e:
            continue
        # Moebius mu(d/e)
        m = d // e
        mu = 1
        for r in (2, 3, 5, 7):
            if m % (r * r) == 0:
                mu = 0
                break
            if m % r == 0:
                mu = -mu
        total += mu * q**e
    return total // d


def poly_mul(g, h):
    ctx = g.ctx
    out = [0] * (g.degree + h.degree + 1)
    for i, a in enumerate(g.coeffs):
        for j, b in enumerate(h.coeffs):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return MonicPoly(ctx, tuple(out))


def poly_divides(g, h):
    # long division of h by the monic g; True iff the remainder is zero
    ctx, rem, d = g.ctx, list(h.coeffs), g.degree
    while len(rem) > d:
        lead, top = rem.pop(), len(rem) - d
        for j in range(d):
            rem[top + j] = ctx.sub(rem[top + j], ctx.mul(lead, g.coeffs[j]))
    return not any(rem)


def irreducible_polys(ctx, degree):
    # trial division by every monic polynomial of at most half the degree
    return [g for g in monic_polys(ctx, degree)
            if not any(poly_divides(h, g) for e in range(1, degree // 2 + 1)
                       for h in monic_polys(ctx, e))]


def a_sum_by_minimal_polys(ctx, chi, psi, c):
    # the second route to A(k): sum of deg(P) * Phi(P)^(k / deg P) over the
    # monic irreducible P whose degree divides k
    k = ctx.n
    return sum(d * phi(chi, psi, g, c) ** (k // d)
               for d in range(1, k + 1) if k % d == 0
               for g in irreducible_polys(ctx, d))


def test_monic_poly_validation_and_alpha_signs():
    with pytest.raises(ValueError):
        MonicPoly(F3, (1,))
    with pytest.raises(ValueError):
        MonicPoly(F3, (0, 2))
    g = MonicPoly(F3, (2, 1, 1))  # x^2 + x + 2
    assert g.degree == 2
    # alpha_j = (-1)^(d-j) c_j
    assert g.alpha(0) == 2 and g.alpha(1) == F3.neg(1) and g.alpha(2) == 1


def test_monic_poly_enumeration_order_and_counts():
    polys = list(monic_polys(F3, 2))
    assert len(polys) == 9
    assert polys[0].coeffs == (0, 0, 1)
    assert polys[1].coeffs == (0, 1, 1)  # constant term varies slowest
    assert len(list(monic_polys(F9, 1))) == 9


def test_irreducible_counts():
    assert len(irreducible_polys(F3, 1)) == 3
    assert len(irreducible_polys(F3, 2)) == necklace_count(3, 2) == 3
    assert len(irreducible_polys(F3, 3)) == necklace_count(3, 3) == 8
    assert len(irreducible_polys(F9, 2)) == necklace_count(9, 2) == 36


def test_phi_linear_polynomial():
    chi = AdditiveChar(F5, 2)
    psi = MultiplicativeChar(F5, 1)
    c = 3
    for a in range(1, 5):
        g = MonicPoly(F5, (F5.neg(a), 1))  # x - a
        want = chi(F5.add(a, F5.mul(c, F5.inv(a)))) * psi(a)
        assert abs(phi(chi, psi, g, c) - want) < 1e-12


def test_phi_vanishing_constant_term():
    chi = AdditiveChar(F3, 1)
    psi = MultiplicativeChar(F3, 1)
    g = MonicPoly(F3, (0, 1, 1))
    assert phi(chi, psi, g, 1) == 0j


def test_phi_rejects_bad_shift():
    chi = AdditiveChar(F3, 1)
    psi = MultiplicativeChar(F3, 1)
    with pytest.raises(ValueError):
        phi(chi, psi, MonicPoly(F3, (1, 1)), 0)


def test_phi_multiplicative_over_f9():
    rng = np.random.default_rng(41)
    chi = AdditiveChar(F9, 5)
    psi = MultiplicativeChar(F9, 3)
    sub = F9.subfield_elements()
    c = 2
    for _ in range(1000):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g = MonicPoly(F9, tuple(sub[i] for i in rng.integers(0, 9, d1)) + (1,))
        h = MonicPoly(F9, tuple(sub[i] for i in rng.integers(0, 9, d2)) + (1,))
        lhs = phi(chi, psi, poly_mul(g, h), c)
        rhs = phi(chi, psi, g, c) * phi(chi, psi, h, c)
        assert abs(lhs - rhs) < 1e-9


def test_a_sum_trivial_characters():
    chi0 = AdditiveChar(F81_4, 0)
    psi0 = MultiplicativeChar(F81_4, 0)
    val = a_sum(F81_4, chi0, psi0, 1)
    assert abs(val - (81 - 1)) < 1e-9


def test_a_sum_weil_modulus():
    # |A(k)| <= 2 q^(k/2) for nontrivial additive part, q = 3, k <= 6
    for k in range(1, 7):
        ctx = new_ctx(3, 1, k)
        bound = 2 * math.sqrt(3) ** k + 1e-9
        for chi in additive_chars(ctx):
            if chi.trivial:
                continue
            for psi in multiplicative_chars(ctx):
                assert abs(a_sum(ctx, chi, psi, 1)) <= bound


def test_a_sum_two_routes_agree():
    tower = new_ctx(3, 2, 2)
    for ctx, c in ((F81_4, 1), (F81_4, 2), (tower, tower.subfield_elements()[3])):
        for chi in additive_chars(ctx)[:3]:
            for psi in multiplicative_chars(ctx)[:3]:
                direct = a_sum(ctx, chi, psi, c)
                via_polys = a_sum_by_minimal_polys(ctx, chi, psi, c)
                assert abs(direct - via_polys) < 1e-6


def test_count_solutions_positive_and_bounded_k5():
    for upsilon in range(3):
        for omega in (1, 2):
            rec = count_solutions(F243, upsilon, omega, 1)
            assert rec.count >= 1
            assert rec.bound == explicit_lower_bound(3, 5)
            assert rec.bound > 0
            assert rec.bound_holds(3)


def test_count_solutions_validation():
    with pytest.raises(ValueError):
        count_solutions(F243, 0, 0, 1)
    with pytest.raises(ValueError):
        count_solutions(F243, 0, 1, 0)


def test_count_orthogonality_identity():
    for ctx in (F81_4, F243, F729):
        for upsilon in range(3):
            for omega in (1, 2):
                rec = count_solutions(ctx, upsilon, omega, 1)
                total = char_weighted_total(ctx, upsilon, omega, 1)
                assert abs(total.imag) < 1e-4
                assert abs(total.real - 3 * 2 * rec.count) < 1e-4


def test_count_positive_through_k7():
    for k in (5, 6, 7):
        ctx = new_ctx(3, 1, k)
        for upsilon in range(3):
            for omega in (1, 2):
                assert count_solutions(ctx, upsilon, omega, 1).count >= 1


def test_count_record_json():
    rec = count_solutions(F243, 1, 2, 1)
    obj = rec.to_json(F243)
    assert obj["q"] == 3 and obj["k"] == 5
    assert obj["count"] == rec.count and obj["bound_holds"]


def test_degree_sums_additive_only():
    # sum over monic degree-2 of Phi with trivial psi equals q; degree 3 gives 0
    for ctx, c in ((F3, 1), (F3, 2), (F5, 1), (F5, 3)):
        psi0 = MultiplicativeChar(ctx, 0)
        for chi in additive_chars(ctx):
            if chi.trivial:
                continue
            s2 = phi_degree_sum(ctx, chi, psi0, 2, c)
            assert abs(s2 - ctx.q) < 1e-9
            s3 = phi_degree_sum(ctx, chi, psi0, 3, c)
            assert abs(s3) < 1e-9


def test_degree_sums_both_nontrivial():
    for ctx, c in ((F3, 1), (F3, 2), (F5, 2)):
        for chi in additive_chars(ctx):
            if chi.trivial:
                continue
            for psi in multiplicative_chars(ctx):
                if psi.trivial:
                    continue
                s2 = phi_degree_sum(ctx, chi, psi, 2, c)
                want = psi(ctx.neg(c)) * ctx.q
                assert abs(s2 - want) < 1e-9


def test_eta_sum_detects_planar_deltas_q25():
    # sum_u eta(u^10 - delta u^2) over F_25^* is q - 1 exactly when
    # delta^((p^k+1)/2) = -1, the closed planarity condition
    ctx = new_ctx(5, 2, 1)
    for delta in range(1, 25):
        total = sum(ctx.quadratic_character(
            ctx.sub(ctx.pow(u, 10), ctx.mul(delta, ctx.mul(u, u))))
            for u in range(1, 25))
        want = ctx.pow(delta, 3) == ctx.neg(1)
        assert (total == 24) == want
        assert total <= 24
