import hashlib
import json

import numpy as np
import pytest

from ffplanar.families import (
    CubicCoeffs,
    MonomialFamilyParams,
    NbcFamilyParams,
    cubic_det,
    cubic_lemma_bruteforce,
    cubic_lemma_predicate,
    cubic_theorem_predicate,
    example1_construct,
    example1_generalized,
    example1_ell,
    nbc_recipe_trace_condition,
    nbc_recipe_zero_power,
    nonexistence_witness,
    theorem_monomial_predicate,
    theorem_monomial_predicates,
    theorem_nbc_forms,
    theorem_nbc_predicate,
)
from ffplanar.field import new_ctx
from ffplanar.linpoly import LinearizedPoly
from ffplanar.planarity import (
    PlanarCandidate,
    criterion_quadratic,
    is_planar_bruteforce,
    is_planar_rank,
    is_planar_reduction,
)

F27 = new_ctx(3, 1, 3)
F81 = new_ctx(3, 2, 2)
F625 = new_ctx(5, 2, 2)
F125 = new_ctx(5, 1, 3)


# ---------------------------------------------------------------------------
# Norm-inequal quadratic family.
# ---------------------------------------------------------------------------

def test_monomial_family_params_validation():
    with pytest.raises(ValueError):
        MonomialFamilyParams(F27, 1, 1, 2)  # not a quadratic tower
    with pytest.raises(ValueError):
        MonomialFamilyParams(F81, 0, 1, 2)  # k out of range
    with pytest.raises(ValueError):
        MonomialFamilyParams(F81, 1, 1, 1)  # equal norms


def test_monomial_family_ell_shape():
    params = MonomialFamilyParams(F625, 1, 3, 7)
    ell = params.ell()
    pk = 5
    for x in range(0, 625, 13):
        inner = F625.add(
            F625.mul(3, F625.frobenius(x, 2)), F625.mul(7, x)
        )
        assert ell(x) == F625.pow(inner, pk)


def test_nbc_family_ell_shape():
    # ell(x) = (b x^q + c x)^(p^k) - c0 (b x^q + c x) at every x
    neg1 = F81.neg(1)
    for b, c, c0 in ((1, neg1, 5), (1, 1, 0), (1, neg1, 77)):
        ell = NbcFamilyParams(F81, 1, b, c, c0).ell()
        for x in F81.elements():
            inner = F81.add(F81.mul(b, F81.frobenius(x, 2)), F81.mul(c, x))
            assert ell(x) == F81.sub(F81.pow(inner, 3), F81.mul(c0, inner))


def test_monomial_predicate_false_when_pk_3_mod_4():
    # q = 9, k = 1: p^k = 3 mod 4 fails the congruence condition
    count = 0
    for b in range(81):
        for c in range(0, 81, 5):
            if F81.rel_norm(b) == F81.rel_norm(c):
                continue
            assert not theorem_monomial_predicate(MonomialFamilyParams(F81, 1, b, c))
            count += 1
    assert count > 500


def test_monomial_family_oracle_empty_q9_sampled():
    rng = np.random.default_rng(21)
    done = 0
    while done < 60:
        b, c = int(rng.integers(0, 81)), int(rng.integers(0, 81))
        if F81.rel_norm(b) == F81.rel_norm(c):
            continue
        params = MonomialFamilyParams(F81, 1, b, c)
        assert not is_planar_bruteforce(params.candidate()).planar
        done += 1


def test_monomial_predicate_false_when_m_not_2k():
    ctx = new_ctx(3, 3, 2)  # q = 27, m = 3, no k with m = 2k
    for k in (1, 2):
        for b in (1, 5, 100):
            for c in (2, 9):
                if ctx.rel_norm(b) == ctx.rel_norm(c):
                    continue
                assert not theorem_monomial_predicate(
                    MonomialFamilyParams(ctx, k, b, c)
                )


def test_monomial_predicate_matches_oracle_q25_sampled():
    rng = np.random.default_rng(22)
    hits = 0
    done = 0
    while done < 120:
        b, c = int(rng.integers(0, 625)), int(rng.integers(0, 625))
        if F625.rel_norm(b) == F625.rel_norm(c):
            continue
        params = MonomialFamilyParams(F625, 1, b, c)
        pred = theorem_monomial_predicate(params)
        cand = params.candidate()
        assert pred == is_planar_bruteforce(cand).planar
        assert pred == criterion_quadratic(cand)
        hits += pred
        done += 1
    # the family is nonempty at q = 25; make sure the sample saw some planars
    assert hits > 0


def _binomial_pairs(ctx, count=None, seed=0):
    """Every pair (b, c) of the field with N(b) != N(c), or a seeded sample
    of `count` of them."""
    norms = ctx.norm_table
    if count is None:
        b, c = np.divmod(np.arange(ctx.order**2), ctx.order)
    else:
        b, c = np.random.default_rng(seed).integers(0, ctx.order, (2, count))
    keep = norms[b] != norms[c]
    return list(zip(b[keep].tolist(), c[keep].tolist()))


@pytest.mark.parametrize("pmn, k, count", [((3, 2, 2), 1, None), ((5, 2, 2), 1, 20_000),
                                           ((3, 4, 2), 2, 20_000)],
                         ids=["F_81-every-pair", "F_625-k1", "F_3^8-k2"])
def test_vector_closed_binomial_matches_scalar_predicate(pmn, k, count):
    # the batch's vector pass gives the scalar predicate's verdict pair by
    # pair: F_81 (p^k = 3, never planar) over every pair with N(b) != N(c),
    # seeded samples of F_625 and F_3^8 (p^k = 5 and 9, both 1 mod 4, m = 2k),
    # and the pairs with b = 0 or c = 0
    ctx = new_ctx(*pmn)
    pairs = _binomial_pairs(ctx, count, seed=ctx.order)
    pairs += [(0, c) for c in range(1, ctx.order, 7)] + [(b, 0) for b in range(1, ctx.order, 7)]
    params = [MonomialFamilyParams(ctx, k, b, c) for b, c in pairs]
    want = [theorem_monomial_predicate(x) for x in params]
    assert theorem_monomial_predicates(params) == want
    assert (True in want) == (pmn != (3, 2, 2))


def test_vector_closed_binomial_at_b_equal_to_c_conjugate():
    # b = c^q makes N(b - c^q) = 0, and N(b) = N(c), so the family refuses
    # it; with norms given by hand (as a decode passes them) both forms still
    # agree there, where the left side is 0
    ctx = F625
    rng = np.random.default_rng(11)
    subfield = ctx.subfield_elements()
    params = []
    for c in rng.integers(1, ctx.order, 40).tolist():
        b = ctx.frobenius(c, ctx.m)
        with pytest.raises(ValueError):
            MonomialFamilyParams(ctx, 1, b, c)
        other = [v for v in subfield if v != ctx.rel_norm(c)]
        norms = (ctx.rel_norm(c), other[int(rng.integers(0, len(other)))])
        params.append(MonomialFamilyParams(ctx, 1, b, c, norms=norms))
    assert theorem_monomial_predicates(params) == [theorem_monomial_predicate(x)
                                                   for x in params]


def test_planar_monomial_instances_have_unit_eta_sums():
    # for planar members, eta(u^(2 p^k) - delta u^2) = +1 for every u in F_q^*
    rng = np.random.default_rng(23)
    found = 0
    sub_star = [u for u in F625.subfield_elements() if u]
    while found < 3:
        b, c = int(rng.integers(0, 625)), int(rng.integers(0, 625))
        if F625.rel_norm(b) == F625.rel_norm(c):
            continue
        params = MonomialFamilyParams(F625, 1, b, c)
        if not theorem_monomial_predicate(params):
            continue
        gamma = F625.inv(F625.sub(F625.rel_norm(b), F625.rel_norm(c)))
        delta = F625.mul(
            F625.mul(gamma, gamma),
            F625.rel_norm(F625.sub(b, F625.frobenius(c, 2))),
        )
        total = 0
        for u in sub_star:
            w = F625.sub(F625.pow(u, 10), F625.mul(delta, F625.mul(u, u)))
            total += F625.quadratic_character(w, level=1)
        assert total == F625.q - 1
        found += 1


# ---------------------------------------------------------------------------
# Norm-equal quadratic family.
# ---------------------------------------------------------------------------

def test_nbc_params_validation():
    assert F81.rel_norm(1) != F81.rel_norm(3)
    with pytest.raises(ValueError):
        NbcFamilyParams(F81, 1, 1, 3, 0)  # norms differ
    with pytest.raises(ValueError):
        NbcFamilyParams(F81, 1, 0, 0, 0)  # zero coefficients


def test_nbc_predicate_equals_oracle_q9_full_scan():
    neg1 = F81.neg(1)
    planars = set()
    for c0 in range(81):
        params = NbcFamilyParams(F81, 1, 1, neg1, c0)
        pred = theorem_nbc_predicate(params)
        oracle = is_planar_bruteforce(params.candidate()).planar
        assert pred == oracle
        if oracle:
            planars.add(c0)
    assert 0 in planars
    assert 0 < len(planars) < 81


def test_nbc_bullet_and_simplified_forms_agree_q9():
    neg1 = F81.neg(1)
    for c0 in range(81):
        bullet, simplified = theorem_nbc_forms(NbcFamilyParams(F81, 1, 1, neg1, c0))
        assert simplified is not None  # d = gcd(2, 80) = 2 divides q-1 = 8
        assert bullet == simplified


@pytest.mark.parametrize("ctx", [F81, F625], ids=["F_81", "F_625"])
def test_nbc_degenerate_twisted_equation_matches_bruteforce(ctx):
    # (c^q/b)^(p^k) = 1 and (c^q/b) c0^q = c0: the twisted equation holds
    # for every omega, so the third bullet asks whether no omega has
    # omega^(q-1) = b^q/c at all.  The predicate, whose other bullets hold
    # on some of these inputs, matches brute force on each
    rng = np.random.default_rng(ctx.order)
    q, cases, deciding = ctx.q, 0, 0
    while cases < 40:
        b, c = (int(v) for v in rng.integers(1, ctx.order, 2))
        binv_cq = ctx.mul(ctx.inv(b), ctx.frobenius(c, ctx.m))
        if ctx.rel_norm(b) != ctx.rel_norm(c) or ctx.pow(binv_cq, ctx.p) != 1:
            continue
        for c0 in range(ctx.order):
            if ctx.mul(binv_cq, ctx.frobenius(c0, ctx.m)) != c0:
                continue
            params = NbcFamilyParams(ctx, 1, b, c, c0)
            assert theorem_nbc_predicate(params) == \
                is_planar_bruteforce(params.candidate()).planar
            first = ctx.pow(ctx.mul(ctx.inv(b), c), (q + 1) // 2) == ctx.neg(1)
            deciding += first and c0 == 0
            cases += 1
    assert deciding > 0


def test_nbc_first_bullet_violation():
    # c = b makes (b^-1 c)^((q+1)/2) = +1, so the predicate is false
    params = NbcFamilyParams(F81, 1, 1, 1, 0)
    assert not theorem_nbc_predicate(params)
    assert not is_planar_bruteforce(params.candidate()).planar


def test_nbc_recipes_land_in_planar_set_q9():
    neg1 = F81.neg(1)
    r1 = r2 = 0
    for c0 in range(81):
        params = NbcFamilyParams(F81, 1, 1, neg1, c0)
        if nbc_recipe_zero_power(params):
            assert is_planar_bruteforce(params.candidate()).planar
            r1 += 1
        if nbc_recipe_trace_condition(params):
            assert is_planar_bruteforce(params.candidate()).planar
            r2 += 1
    assert r1 > 0 and r2 > 0
    # c0 = 0 itself qualifies for the zero-power recipe
    assert nbc_recipe_zero_power(NbcFamilyParams(F81, 1, 1, neg1, 0))


def test_nbc_predicate_matches_oracle_q25_sampled():
    rng = np.random.default_rng(0x5EED)
    by_norm = {}
    for x in range(1, 625):
        by_norm.setdefault(F625.rel_norm(x), []).append(x)
    checked = 0
    agreements = 0
    while checked < 10_000:
        b = int(rng.integers(1, 625))
        pool = by_norm[F625.rel_norm(b)]
        c = pool[int(rng.integers(0, len(pool)))]
        c0 = int(rng.integers(0, 625))
        params = NbcFamilyParams(F625, 1, b, c, c0)
        pred = theorem_nbc_predicate(params)
        oracle = is_planar_bruteforce(params.candidate()).planar
        assert pred == oracle
        agreements += 1
        checked += 1
    assert agreements == 10_000


def test_nbc_planar_kernels_have_exactly_q_roots():
    # planar members satisfy ell(F_q^2) meeting F_q only at 0, and then the
    # kernel has exactly q elements
    neg1 = F81.neg(1)
    seen = 0
    for c0 in range(81):
        params = NbcFamilyParams(F81, 1, 1, neg1, c0)
        if not theorem_nbc_predicate(params):
            continue
        ell = params.ell()
        ker = ell.kernel()
        image = ell.image()
        fq = F81.subfield_elements()
        assert 3**ker.dim <= F81.q
        inter = [e for e in image.elements() if e in set(fq)]
        if inter == [0]:
            assert 3**ker.dim == F81.q
        seen += 1
    assert seen > 0


# ---------------------------------------------------------------------------
# Linearized-permutation construction.
# ---------------------------------------------------------------------------

def test_example1_construct_q25_planar_by_all_methods():
    cand = example1_construct(F625)
    assert criterion_quadratic(cand)
    assert is_planar_bruteforce(cand).planar
    assert is_planar_rank(cand).planar
    assert is_planar_reduction(cand).planar


def test_example1_ell_permutes_and_scales_subfield():
    for ctx in (F81, F625):
        ell = example1_ell(ctx)
        assert ell.is_permutation()
        minus2 = ctx.neg(2)
        for u in ctx.subfield_elements():
            assert ell(u) == ctx.mul(minus2, u)


def test_example1_rejects_characteristic_3():
    # alpha^2 - 1 = 3 = 0 in characteristic 3: the construction degenerates
    with pytest.raises(ValueError):
        example1_construct(F81)


def test_example1_requires_even_m():
    with pytest.raises(ValueError):
        example1_ell(new_ctx(3, 1, 2))


def test_example1_generalized_alpha_zero_needs_q_1_mod_4():
    # alpha = 0 forces -1 to be a nonzero square, i.e. q = 1 mod 4
    F9 = new_ctx(3, 1, 2)  # q = 3 = 3 mod 4
    with pytest.raises(ValueError, match="nonzero square"):
        example1_generalized(F9, 0, LinearizedPoly.identity(F9))
    # q = 9 = 1 mod 4 passes the discriminant check, but no linearized
    # permutation can vanish on F_q, so the ell validation must fail instead
    with pytest.raises(ValueError, match="permut|restrict"):
        example1_generalized(F81, 0, LinearizedPoly.identity(F81))


def test_example1_generalized_rejects_wrong_restriction():
    with pytest.raises(ValueError, match="restrict"):
        example1_generalized(F625, F625.neg(2), LinearizedPoly.identity(F625))


# ---------------------------------------------------------------------------
# Cubic tower.
# ---------------------------------------------------------------------------

def test_cubic_lemma_base_cases():
    assert cubic_lemma_predicate(F27, 1, 1, 2)
    assert not cubic_lemma_predicate(F27, 1, 1, 0)
    assert not cubic_lemma_predicate(F27, 1, 1, 1)
    assert cubic_lemma_bruteforce(F27, 1, 1, 2)
    assert not cubic_lemma_bruteforce(F27, 1, 1, 0)


def test_cubic_lemma_exhaustive_agreement_q3():
    for A in range(1, 27):
        for B in range(1, 27):
            for r in range(3):
                assert cubic_lemma_predicate(F27, A, B, r) == cubic_lemma_bruteforce(
                    F27, A, B, r
                )


def test_cubic_determinant_identity_f125():
    rng = np.random.default_rng(31)
    for _ in range(200):
        u = int(rng.integers(0, 125))
        A = int(rng.integers(1, 125))
        B = int(rng.integers(1, 125))
        lhs = F125.sub(
            F125.add(
                F125.add(F125.rel_norm(u), F125.rel_norm(A)), F125.rel_norm(B)
            ),
            F125.rel_trace(F125.mul(F125.mul(A, B), F125.frobenius(u, 2))),
        )
        assert lhs == cubic_det(F125, u, A, B)


def test_cubic_theorem_identity_instance():
    cc = CubicCoeffs(F27, 1, ((1, 0, 0),))
    assert cubic_theorem_predicate(cc)
    assert is_planar_bruteforce(cc.candidate()).planar


def test_cubic_theorem_rejects_nonpermutation():
    cc = CubicCoeffs(F27, 1, ((0, 0, 0),))
    assert not cubic_theorem_predicate(cc)


def test_cubic_theorem_matches_oracle_sampled_q3():
    rng = np.random.default_rng(32)
    g = F27.generator
    for _ in range(400):
        a = 1 if rng.integers(0, 2) == 0 else g
        row = tuple(int(v) for v in rng.integers(0, 27, size=3))
        cc = CubicCoeffs(F27, a, (row,))
        assert cubic_theorem_predicate(cc) == is_planar_bruteforce(
            cc.candidate()
        ).planar


def test_cubic_theorem_matches_oracle_sampled_q5():
    rng = np.random.default_rng(0x5EED)
    for _ in range(10_000):
        a = int(rng.integers(1, 125))
        row = tuple(int(v) for v in rng.integers(0, 125, size=3))
        cc = CubicCoeffs(F125, a, (row,))
        assert cubic_theorem_predicate(cc) == is_planar_bruteforce(
            cc.candidate()
        ).planar


# ---------------------------------------------------------------------------
# Non-existence on degree >= 5 towers.
# ---------------------------------------------------------------------------

def test_nonexistence_witness_odd_degree():
    ctx = new_ctx(3, 1, 5)
    for a in (1, 2, 7, 100, 242):
        u = nonexistence_witness(ctx, a)
        assert u is not None
        val = ctx.mul(ctx.mul(a, a), ctx.pow(u, ctx.q + 1))
        assert val != 0 and ctx.in_subfield(val)


def test_nonexistence_witness_power_route():
    ctx = new_ctx(3, 2, 5)  # q = 9, n = 5
    alpha = 17
    a = ctx.pow(alpha, (ctx.q + 1) // 2)
    u = nonexistence_witness(ctx, a)
    assert u is not None
    val = ctx.mul(ctx.mul(a, a), ctx.pow(u, ctx.q + 1))
    assert val != 0 and ctx.in_subfield(val)
    # the proof's u = alpha^(-1) is itself a witness
    val2 = ctx.mul(ctx.mul(a, a), ctx.pow(ctx.inv(alpha), ctx.q + 1))
    assert ctx.in_subfield(val2)


def test_nonexistence_witness_pinned():
    # every nonzero a on four towers: both routes and the even-degree None
    # (364 of them); the digest pins the exact u each route returns
    towers = [(3, 1, 5), (3, 1, 6), (3, 1, 7), (5, 1, 5)]
    out = {}
    for t in towers:
        ctx = new_ctx(*t)
        out[str(t)] = [nonexistence_witness(ctx, a) for a in range(1, ctx.order)]
    assert sum(ws.count(None) for ws in out.values()) == 364
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "a626d0e11af0cbb23324e10adc9b8a294407d3fa592fb72edecaa897dbc18e19"


def test_nonexistence_witness_guards():
    with pytest.raises(ValueError):
        nonexistence_witness(F27, 1)
    with pytest.raises(ValueError):
        nonexistence_witness(new_ctx(3, 1, 5), 0)


def test_witness_difference_values_cover_subfield():
    # v -> Tr(a u^q v^(1-q) + a u v^(q-1)) attains every value of F_q over
    # v in F_{q^n}^*
    ctx = new_ctx(3, 1, 5)
    vs = np.arange(1, ctx.order, dtype=np.int64)
    up = ctx.pow_vec(vs, ctx.q - 1)
    dn = ctx.inv_vec(up)
    for a in (1, 5, 50):
        u = nonexistence_witness(ctx, a)
        auq = ctx.mul(a, ctx.frobenius(u, ctx.m))
        au = ctx.mul(a, u)
        vals = ctx.trace_table[ctx.add_vec(ctx.mul_vec(auq, dn), ctx.mul_vec(au, up))]
        assert np.unique(vals).tolist() == ctx.subfield_elements()


def test_witness_induces_reduction_counterexamples():
    # with the witness's u, any ell with ell(u) in F_q admits v making the
    # two-variable expression vanish
    ctx = new_ctx(3, 1, 5)
    rng = np.random.default_rng(33)
    a = 7
    u = nonexistence_witness(ctx, a)
    auq = ctx.mul(a, ctx.frobenius(u, ctx.m))
    au = ctx.mul(a, u)
    vs = np.arange(1, ctx.order, dtype=np.int64)
    up = ctx.pow_vec(vs, ctx.q - 1)
    dn = ctx.inv_vec(up)
    vals = ctx.trace_table[ctx.add_vec(ctx.mul_vec(auq, dn), ctx.mul_vec(au, up))]
    hits = 0
    for _ in range(300):
        ell = LinearizedPoly(
            ctx, tuple(int(v) for v in rng.integers(0, ctx.order, size=5))
        )
        lu = ell(u)
        if not ctx.in_subfield(lu):
            continue
        target = ctx.neg(ctx.mul(2, lu))
        assert np.any(vals == target)
        hits += 1
    assert hits > 0
