import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffplanar.config import DEFAULT_TABLE_CAP
from ffplanar.field import (
    AdditiveChar,
    FieldCtx,
    MultiplicativeChar,
    additive_chars,
    ctx_from_json,
    find_primitive_modulus,
    multiplicative_chars,
    new_ctx,
)
from ffplanar.selftest import field_invariants_hold

F9 = new_ctx(3, 1, 2)
F27 = new_ctx(3, 1, 3)
F81 = new_ctx(3, 2, 2)
F625 = new_ctx(5, 2, 2)


def test_new_ctx_smallest_nontrivial():
    assert F9.order == 9
    assert F9.q == 3
    assert len(F9.modulus) == 3 and F9.modulus[-1] == 1


def test_new_ctx_is_deterministic():
    assert new_ctx(3, 1, 2) is new_ctx(3, 1, 2)
    assert new_ctx(3, 1, 2).modulus == find_primitive_modulus(3, 2)


def test_new_ctx_f625():
    assert F625.order == 625
    assert F625.q == 25


def test_new_ctx_rejects_bad_parameters():
    with pytest.raises(ValueError):
        new_ctx(2, 1, 2)
    with pytest.raises(ValueError):
        new_ctx(9, 1, 2)
    with pytest.raises(ValueError):
        new_ctx(3, 0, 2)
    with pytest.raises(ValueError):
        new_ctx(3, 1, 0)
    with pytest.raises(ValueError):
        new_ctx(3, 1, 60)


def test_field_axioms_exhaustive_f9():
    for x in F9.elements():
        assert F9.add(x, F9.neg(x)) == 0
        if x:
            assert F9.mul(x, F9.inv(x)) == 1
        for y in F9.elements():
            assert F9.add(x, y) == F9.add(y, x)
            assert F9.mul(x, y) == F9.mul(y, x)


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F9.inv(0)


def test_table_and_polynomial_modes_agree_on_f9():
    poly_ctx = new_ctx(3, 1, 2, table_cap=1)
    assert not poly_ctx.table_mode
    assert poly_ctx.modulus == F9.modulus
    for x in range(9):
        for y in range(9):
            assert poly_ctx.mul(x, y) == F9.mul(x, y)
        if x:
            assert poly_ctx.inv(x) == F9.inv(x)
            assert poly_ctx.pow(x, 5) == F9.pow(x, 5)


def test_frobenius_identity_and_order():
    for ctx in (F9, F27):
        for x in ctx.elements():
            assert ctx.frobenius(x, 0) == x
            assert ctx.frobenius(x, ctx.degree) == x


def test_frobenius_product_is_norm_f27():
    for x in F27.elements():
        prod = F27.mul(F27.mul(F27.frobenius(x, 1), F27.frobenius(x, 2)), x)
        assert prod == F27.rel_norm(x)


def test_trace_of_prime_subfield_is_2u():
    # Tr(u) = u + u^3 = 2u for u in F_3 inside F_9
    for u in range(3):
        assert F9.rel_trace(u) == F9.mul(2, u)


def test_trace_norm_trivial_values():
    assert F9.rel_trace(0) == 0
    assert F9.rel_norm(1) == 1


def test_trace_and_norm_land_in_subfield():
    for ctx in (F9, F27, F81):
        for x in ctx.elements():
            t, n = ctx.rel_trace(x), ctx.rel_norm(x)
            assert ctx.pow(t, ctx.q) == t
            assert ctx.pow(n, ctx.q) == n


def test_norm_is_uniform_cover_f27():
    # the norm onto F_3 is (q^n-1)/(q-1) = 13 to 1 on nonzero elements
    counts = {1: 0, 2: 0}
    for x in range(1, 27):
        counts[F27.rel_norm(x)] += 1
    assert counts == {1: 13, 2: 13}


def test_norm_multiplicative_f27():
    for x in F27.elements():
        for y in F27.elements():
            assert F27.rel_norm(F27.mul(x, y)) == F27.mul(
                F27.rel_norm(x), F27.rel_norm(y)
            )


def test_trace_linearity_exhaustive_f27():
    for lam in range(3):
        for x in F27.elements():
            for y in F27.elements():
                lhs = F27.rel_trace(F27.add(F27.mul(lam, x), y))
                rhs = F27.add(F27.mul(lam, F27.rel_trace(x)), F27.rel_trace(y))
                assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3**5 - 1), st.integers(0, 3**5 - 1), st.integers(0, 2))
def test_trace_linearity_random_f243(x, y, lam):
    ctx = new_ctx(3, 1, 5)
    lhs = ctx.rel_trace(ctx.add(ctx.mul(lam, x), y))
    rhs = ctx.add(ctx.mul(lam, ctx.rel_trace(x)), ctx.rel_trace(y))
    assert lhs == rhs


def test_quadratic_character_basics():
    F3 = new_ctx(3, 1, 1)
    assert F3.quadratic_character(1) == 1
    assert F3.quadratic_character(0) == 0
    assert F3.quadratic_character(2) == -1


def test_quadratic_character_factors_through_norm_f9():
    for u in F9.elements():
        assert F9.quadratic_character(u, level=2) == F9.quadratic_character(
            F9.rel_norm(u), level=1
        )


def test_quadratic_character_factors_through_norm_f81_tower():
    for u in F81.elements():
        assert F81.quadratic_character(u, level=2) == F81.quadratic_character(
            F81.rel_norm(u), level=1
        )


def test_quadratic_character_counts_squares():
    # exactly (q-1)/2 nonzero squares in F_q
    vals = [F81.quadratic_character(x) for x in range(1, 81)]
    assert vals.count(1) == 40 and vals.count(-1) == 40


def test_element_serialization_round_trip():
    assert F9.parse_element("1,2") == 1 + 2 * 3
    assert F9.format_element(7) == "1,2"
    for x in F9.elements():
        assert F9.parse_element(F9.format_element(x)) == x
    with pytest.raises(ValueError):
        F9.parse_element("3,0")
    with pytest.raises(ValueError):
        F9.parse_element("1,1,1")


def test_ctx_json_round_trip():
    obj = F9.to_json()
    assert obj == {"p": 3, "m": 1, "n": 2, "modulus": list(F9.modulus)}
    assert ctx_from_json(obj) is F9
    bad = dict(obj, modulus=[1, 0, 1])
    with pytest.raises(ValueError):
        ctx_from_json(bad)


def test_exp_log_consistency():
    for ctx in (F9, F27, F81):
        for e in range(1, ctx.order):
            assert int(ctx.exp_table[ctx.log_table[e]]) == e


def test_generator_has_full_order():
    for ctx in (F9, F27, F81, F625):
        g = ctx.generator
        seen = set()
        x = 1
        for _ in range(ctx.order - 1):
            seen.add(x)
            x = ctx.mul(x, g)
        assert x == 1 and len(seen) == ctx.order - 1


def test_vector_ops_match_scalar_ops_f81():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 81, size=200)
    b = rng.integers(0, 81, size=200)
    add = F81.add_vec(a, b)
    mul = F81.mul_vec(a, b)
    sq = F81.square_table[a]
    tr = F81.trace_table[a]
    nm = F81.norm_table[a]
    fr = F81.frob_vec(a, 2)
    for i in range(len(a)):
        x, y = int(a[i]), int(b[i])
        assert int(add[i]) == F81.add(x, y)
        assert int(mul[i]) == F81.mul(x, y)
        assert int(sq[i]) == F81.mul(x, x)
        assert int(tr[i]) == F81.rel_trace(x)
        assert int(nm[i]) == F81.rel_norm(x)
        assert int(fr[i]) == F81.frobenius(x, 2)
    # the trace and norm tables against the scalar forms at every element;
    # F_3^8 adds digit planes above ADD_TABLE_CAP
    for ctx in (F81, new_ctx(3, 2, 3), new_ctx(3, 2, 4)):
        xs = range(ctx.order)
        assert ctx.trace_table.tolist() == [ctx.rel_trace(x) for x in xs]
        assert ctx.norm_table.tolist() == [ctx.rel_norm(x) for x in xs]
        assert ctx.subfield_abs_trace_table.tolist() == \
            [ctx.subfield_abs_trace(x) for x in xs]


@pytest.mark.parametrize("shape", [(3, 1, 2), (3, 1, 5), (3, 2, 3), (257, 1, 1)])
def test_table_scalar_ops_match_digit_and_log_formulas(shape):
    # exhaustive over all pairs: scalar ops read the addition, negation and
    # exp/log tables; the tables match digitwise addition and discrete logs
    ctx = new_ctx(*shape)
    p, n = ctx.p, ctx.order
    xs = np.arange(n)
    digits = [xs // p**i % p for i in range(ctx.degree)]
    ref_add = sum((d[:, None] + d[None, :]) % p * p**i for i, d in enumerate(digits))
    ref_neg = sum(-d % p * p**i for i, d in enumerate(digits))
    log, exp = ctx.log_table, ctx.exp_table
    ref_mul = np.where((xs[:, None] == 0) | (xs[None, :] == 0), 0,
                       exp[(log[:, None] + log[None, :]) % (n - 1)])
    assert ctx.add_matrix.tolist() == ref_add.tolist()
    assert ctx._plane_add(xs[:, None], xs[None, :]).tolist() == ref_add.tolist()
    assert ctx.neg_vec(xs).tolist() == ref_neg.tolist()
    assert [ctx.neg(a) for a in range(n)] == ref_neg.tolist()
    for a in range(n):
        assert [ctx.add(a, b) for b in range(n)] == ref_add[a].tolist()
        assert [ctx.sub(a, b) for b in range(n)] == ref_add[a, ref_neg].tolist()
        assert [ctx.mul(a, b) for b in range(n)] == ref_mul[a].tolist()
    units = range(1, n)
    assert [ctx.inv(a) for a in units] == exp[-log[1:] % (n - 1)].tolist()
    assert [ctx.pow(a, 5) for a in units] == exp[log[1:] * 5 % (n - 1)].tolist()


def test_plane_addition_above_add_table_cap():
    # F_3^7 has no addition table: add_vec adds digit planes, scalar add
    # reads the Zech table
    ctx = new_ctx(3, 1, 7)
    assert ctx.add_matrix is None
    rng = np.random.default_rng(8)
    a = rng.integers(0, ctx.order, size=300)
    b = rng.integers(0, ctx.order, size=300)
    assert ctx.add_vec(a, b).tolist() == [ctx.add(x, y) for x, y in zip(a, b)]
    assert ctx.sub_vec(a, b).tolist() == [ctx.sub(x, y) for x, y in zip(a, b)]
    grid = ctx.add_vec(a[:20, None], b[None, :])
    assert grid.tolist() == [[ctx.add(x, y) for y in b] for x in a[:20]]
    # numpy-scalar operands
    c = np.int64(b[0])
    assert ctx.add_vec(a, c).tolist() == [ctx.add(x, int(c)) for x in a]
    both = ctx.add_vec(np.int64(a[0]), c)
    assert both == ctx.add(int(a[0]), int(c)) and both.dtype == np.int64


def _pair_class(ctx, v):
    """Reference for the class of {v, -v}: |V(v)|, v's digits read in
    -(p-1)/2 .. (p-1)/2."""
    p, out, w = ctx.p, 0, 1
    for _ in range(ctx.degree):
        digit = v % p
        out = out + (digit - p * (digit > p // 2)) * w
        v, w = v // p, w * p
    return abs(out)


@pytest.mark.parametrize("shape", [(7, 1, 1), (3, 1, 5), (5, 2, 2), (3, 1, 7),
                                   (257, 1, 1), (17, 1, 3)])
def test_shifted_differences_match_vector_ops(shape):
    # prime fields, odd and even degrees, one digit plane and two (F_3^7);
    # on F_257 and F_17^3 the half-digit sums exceed HALF_TABLE_CAP and are
    # made per call.  A stack of three tables, read in part, as a scan reads
    # a slice of the rows still undecided: at every point as drawn, and made
    # even, at 0 and one point of each pair {y, -y}, with each value read as
    # its pair {v, -v}
    ctx = new_ctx(*shape)
    rng = np.random.default_rng(ctx.order)
    drawn = rng.integers(0, ctx.order, size=(3, ctx.order))
    cs = np.sort(rng.choice(np.arange(1, ctx.order), size=min(ctx.order - 1, 40),
                            replace=False))
    xs = np.arange(ctx.order)
    shifted = ctx.add_vec(cs[:, None], xs[None, :])
    halves = ctx.mul_vec(cs, (ctx.p + 1) // 2)
    assert ctx.add_vec(halves, halves).tolist() == cs.tolist()
    for fs, even in [(drawn, False), (drawn[:, np.minimum(xs, ctx.neg_vec(xs))], True)]:
        points, differences = ctx.shifted_differences(fs)
        # D_c(x) = f(x + c) - f(x), then read at x = y - c/2
        want = np.array([ctx.sub_vec(f[shifted], f[None, :]) for f in fs[1:]])
        want = np.take_along_axis(want, ctx.sub_vec(points, halves[:, None])[None], axis=2)
        if even:
            assert len(points) == (ctx.order + 1) // 2
            both = set(points.tolist()) | set(ctx.neg_vec(points).tolist())
            assert both == set(xs.tolist())
            want = _pair_class(ctx, want)
        else:
            assert sorted(points.tolist()) == xs.tolist()
        assert differences(cs, slice(1, 3)).tolist() == want.tolist()


def test_scalar_tables_made_on_first_use():
    ctx = FieldCtx(3, 1, 5, DEFAULT_TABLE_CAP)
    assert ctx._cache == {}
    assert not {"_add_view", "_exp_view", "_log_view"} & set(vars(ctx))
    # sub is an add of a negation: the addition table and, for the
    # negation, the exp and log tables
    assert ctx.sub(ctx.add(7, 9), 9) == 7
    assert {"_add_view", "_exp_view", "_log_view"} <= set(vars(ctx))
    assert "_zech_view" not in vars(ctx)
    # the views are left out of a pickle and made again
    back = pickle.loads(pickle.dumps(ctx))
    assert back.mul(back.add(7, 9), 5) == ctx.mul(ctx.add(7, 9), 5)


def test_subfield_elements():
    sub = F81.subfield_elements()
    assert len(sub) == 9
    assert all(F81.pow(x, 9) == x for x in sub)
    assert sub == sorted(sub)
    # both modes list F_{q^level} from generator powers; each matches the
    # definition a^(q^level) = a at every level dividing n
    for shape in ((3, 2, 2), (3, 1, 6), (5, 1, 3)):
        table, poly = new_ctx(*shape), new_ctx(*shape, table_cap=1)
        assert table.table_mode and not poly.table_mode
        for level in range(1, shape[2] + 1):
            if shape[2] % level:
                continue
            defined = [a for a in table.elements() if table.in_subfield(a, level)]
            assert len(defined) == table.q**level
            assert table.subfield_elements(level) == defined
            assert poly.subfield_elements(level) == defined


def test_additive_character_orthogonality():
    for ctx in (F9, F81):
        sub = ctx.subfield_elements()
        for chi in additive_chars(ctx):
            total = sum(chi(x) for x in sub)
            if chi.trivial:
                assert abs(total - ctx.q) < 1e-9 * ctx.q
            else:
                assert abs(total) < 1e-9 * ctx.q


def test_multiplicative_character_orthogonality():
    for ctx in (F9, F81):
        sub = ctx.subfield_elements()
        for psi in multiplicative_chars(ctx):
            total = sum(psi(x) for x in sub if x)
            if psi.trivial:
                assert abs(total - (ctx.q - 1)) < 1e-9 * ctx.q
            else:
                assert abs(total) < 1e-9 * ctx.q


def test_characters_are_homomorphisms():
    chi = AdditiveChar(F81, 2)
    psi = MultiplicativeChar(F81, 3)
    sub = F81.subfield_elements()
    for x in sub:
        for y in sub:
            assert abs(chi(F81.add(x, y)) - chi(x) * chi(y)) < 1e-12
            if x and y:
                assert abs(psi(F81.mul(x, y)) - psi(x) * psi(y)) < 1e-12


def test_character_vector_values_match_scalar():
    chi = AdditiveChar(F81, 1)
    psi = MultiplicativeChar(F81, 2)
    sub = np.array(F81.subfield_elements())
    cv = chi.values(sub)
    pv = psi.values(sub)
    for i, x in enumerate(sub):
        assert abs(cv[i] - chi(int(x))) < 1e-12
        assert abs(pv[i] - psi(int(x))) < 1e-12


def test_field_invariants_detect_swapped_exp_entries():
    assert field_invariants_hold(FieldCtx(3, 1, 2, DEFAULT_TABLE_CAP))
    broken = FieldCtx(3, 1, 2, DEFAULT_TABLE_CAP)
    broken.exp_table = broken.exp_table.copy()
    broken.exp_table[[3, 4]] = broken.exp_table[[4, 3]]
    assert not field_invariants_hold(broken)


def _conjugate_product(ctx, a):
    """N(a) as the product of a's n conjugates a^(q^i), by scalar ops."""
    acc = 1
    for i in range(ctx.n):
        acc = ctx.mul(acc, ctx.frobenius(a, i * ctx.m))
    return acc


@pytest.mark.parametrize("ctx", [F81, F27, F625], ids=["F_81", "F_27", "F_625"])
def test_norm_is_the_conjugate_product_everywhere(ctx):
    # rel_norm and norm_table are one power a^((q^n - 1)/(q - 1))
    want = [_conjugate_product(ctx, x) for x in ctx.elements()]
    assert [ctx.rel_norm(x) for x in ctx.elements()] == want
    assert ctx.norm_table.tolist() == want


def test_norm_is_the_conjugate_product_in_polynomial_mode():
    ctx = FieldCtx(3, 2, 3, table_cap=1)  # F_3^6 over F_9, no tables
    assert not ctx.table_mode
    rng = np.random.default_rng(6)
    for x in [0, 1] + rng.integers(0, ctx.order, 40).tolist():
        assert ctx.rel_norm(x) == _conjugate_product(ctx, x)


@pytest.mark.parametrize("ctx", [F625, new_ctx(3, 1, 7), new_ctx(7, 1, 1)],
                         ids=["F_625", "F_3^7", "F_7"])
def test_format_element_is_the_digit_join_everywhere(ctx):
    # two half-digit string lists in table mode; odd degree splits unevenly
    want = [",".join(map(str, ctx.digits(x))) for x in ctx.elements()]
    assert [ctx.format_element(x) for x in ctx.elements()] == want
    if ctx.degree > 1:
        split, low, high = ctx._digit_strings
        assert len(low) == split == ctx.p ** -(-ctx.degree // 2)
        assert len(low) * len(high) == ctx.order


def test_format_element_in_polynomial_mode():
    ctx = FieldCtx(5, 1, 4, table_cap=1)
    assert ctx._digit_strings is None
    rng = np.random.default_rng(7)
    for x in [0, ctx.order - 1] + rng.integers(0, ctx.order, 40).tolist():
        assert ctx.format_element(x) == ",".join(map(str, ctx.digits(x)))
        assert ctx.parse_element(ctx.format_element(x)) == x


def _digitwise(ctx, a, b, sign=1):
    """a + sign * b digit by digit, for index arrays that broadcast."""
    p, out = ctx.p, 0
    for i in range(ctx.degree):
        out = out + (a // p**i % p + sign * (b // p**i % p)) % p * p**i
    return out


def test_zech_table_is_log_of_one_plus():
    # Z[k] = log(1 + g^k), with -1 where 1 + g^k = 0, at k = (order - 1)/2
    for ctx in (F9, F625, new_ctx(3, 1, 7), new_ctx(7, 1, 1)):
        k = np.arange(ctx.order - 1)
        one_plus = _digitwise(ctx, ctx.exp_table[k], 1)
        assert ctx.zech_table.tolist() == ctx.log_table[one_plus].tolist()
        assert ctx.zech_table.tolist().index(-1) == (ctx.order - 1) // 2
        assert (ctx.zech_table == -1).sum() == 1


def _assert_scalar_ops_on_every_pair(ctx):
    """Scalar add, sub and neg on every pair against digitwise sums made by
    vector arithmetic."""
    xs = np.arange(ctx.order)
    bs = range(ctx.order)
    assert list(map(ctx.neg, bs)) == _digitwise(ctx, 0, xs, -1).tolist()
    for a in range(ctx.order):
        row = [a] * ctx.order
        assert list(map(ctx.add, row, bs)) == _digitwise(ctx, a, xs).tolist()
        assert list(map(ctx.sub, row, bs)) == _digitwise(ctx, a, xs, -1).tolist()


def test_zech_scalar_ops_on_every_pair_of_f_3_7():
    # above ADD_TABLE_CAP scalar add reads Z, neg shifts a log and sub adds
    # the negation
    _assert_scalar_ops_on_every_pair(new_ctx(3, 1, 7))


@pytest.mark.parametrize("shape", [(3, 1, 2), (3, 1, 3), (3, 2, 2), (7, 1, 3), (3, 1, 5)])
def test_scalar_ops_below_the_add_table_cap_on_every_pair(shape):
    # add reads the addition table, neg shifts a log by (order - 1)/2, and
    # sub adds the negation
    ctx = new_ctx(*shape)
    assert ctx.add_matrix is not None
    _assert_scalar_ops_on_every_pair(ctx)


@pytest.mark.parametrize("shape", [(3, 1, 7), (5, 1, 5), (7, 1, 4), (11, 1, 3),
                                   (3, 2, 4), (3, 1, 10)])
def test_zech_scalar_ops_match_the_digit_loop(shape):
    # random pairs, 0 operands and a + (-a), against a polynomial-mode
    # context of the same field, whose scalar add runs digit by digit
    ctx = new_ctx(*shape)
    loop = FieldCtx(*shape, table_cap=1)
    assert ctx.table_mode and not loop.table_mode and ctx.add_matrix is None
    rng = np.random.default_rng(ctx.order)
    xs = [0, 1, ctx.order - 1] + rng.integers(0, ctx.order, 300).tolist()
    ys = [0, 0, 5] + rng.integers(0, ctx.order, 300).tolist()
    for a, b in zip(xs + ys + xs, ys + xs + [loop.neg(x) for x in xs]):
        assert ctx.add(a, b) == loop.add(a, b)
        assert ctx.sub(a, b) == loop.sub(a, b)
        assert ctx.neg(a) == loop.neg(a)
    for a in xs:
        assert ctx.add(a, ctx.neg(a)) == 0 and ctx.sub(a, a) == 0
