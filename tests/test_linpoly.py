import tracemalloc

import numpy as np
import pytest

from ffplanar.field import new_ctx
from ffplanar.linpoly import (
    LinearizedPoly,
    Subspace,
    all_subspaces,
    annihilator_coeffs,
    compose_formal,
    digit_rows,
    eval_formal,
    fill_values,
    fp_is_singular,
    fp_nullspace,
    fp_rank,
    fp_rref,
    fp_singular,
    full_field_annihilator,
    image_poly_coeffs,
    image_poly_for_subspace,
    value_tables,
)
from ffplanar.planarity import PlanarCandidate, criterion_quadratic

F9 = new_ctx(3, 1, 2)
F27 = new_ctx(3, 1, 3)
F81_T = new_ctx(3, 2, 2)  # tower F_81 / F_9
F81_4 = new_ctx(3, 1, 4)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional F_p space."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def random_poly(ctx, rng):
    return LinearizedPoly(
        ctx, tuple(int(v) for v in rng.integers(0, ctx.order, size=ctx.degree))
    )


def compose(f, g):
    """f(g(x)) as a functional polynomial, through the formal composition."""
    return LinearizedPoly.from_formal(f.ctx, compose_formal(f.ctx, f.coeffs, g.coeffs))


def test_identity_eval():
    ident = LinearizedPoly.identity(F27)
    for x in F27.elements():
        assert ident(x) == x


def test_example_poly_acts_as_minus_2u_on_subfield():
    # x^27 - x^9 - x^3 - x restricted to F_9 inside F_81
    ctx = F81_T
    neg = ctx.neg(1)
    ell = LinearizedPoly(ctx, (neg, neg, neg, 1))
    minus2 = ctx.neg(2)
    for u in ctx.subfield_elements():
        assert ell(u) == ctx.mul(minus2, u)
    # and it permutes F_81 (4x4 circulant determinant 16 != 0 in odd char)
    assert ell.is_permutation()


def test_additivity_exhaustive_f27():
    rng = np.random.default_rng(1)
    ell = random_poly(F27, rng)
    for x in F27.elements():
        for y in F27.elements():
            assert ell(F27.add(x, y)) == F27.add(ell(x), ell(y))


def test_fp_scaling_exhaustive_f27():
    rng = np.random.default_rng(2)
    ell = random_poly(F27, rng)
    for lam in range(3):
        for x in F27.elements():
            assert ell(F27.mul(lam, x)) == F27.mul(lam, ell(x))


def test_compose_identity():
    rng = np.random.default_rng(3)
    ell = random_poly(F27, rng)
    ident = LinearizedPoly.identity(F27)
    assert compose(ident, ell) == ell
    assert compose(ell, ident) == ell


def test_compose_frobenius_powers():
    for t in range(4):
        for s in range(4):
            ft = LinearizedPoly.monomial(F81_4, 1, t)
            fs = LinearizedPoly.monomial(F81_4, 1, s)
            assert compose(ft, fs) == LinearizedPoly.monomial(F81_4, 1, (t + s) % 4)


def test_compose_matches_nested_eval():
    rng = np.random.default_rng(4)
    for _ in range(100):
        l1 = random_poly(F81_4, rng)
        l2 = random_poly(F81_4, rng)
        comp = compose(l1, l2)
        for x in range(0, 81, 7):
            assert comp(x) == l1(l2(x))
    # polynomial mode (no tables) composes the same way, at every element
    poly_ctx = new_ctx(3, 1, 4, table_cap=1)
    assert not poly_ctx.table_mode
    for _ in range(5):
        l1 = random_poly(poly_ctx, rng)
        l2 = random_poly(poly_ctx, rng)
        comp = compose(l1, l2)
        assert [comp(x) for x in poly_ctx.elements()] == \
            [l1(l2(x)) for x in poly_ctx.elements()]


def test_compose_associative_and_matrix_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = (random_poly(F27, rng) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        lhs = compose(a, b).as_matrix()
        rhs = a.as_matrix() @ b.as_matrix() % 3
        assert np.array_equal(lhs, rhs)


def test_kernel_image_identity():
    ident = LinearizedPoly.identity(F27)
    assert ident.kernel().dim == 0
    assert ident.image().dim == 3
    assert ident.is_permutation()


def test_kernel_of_subfield_fixing_map():
    # x^q - x on F_{q^n} has kernel F_q, dimension m
    for ctx in (F27, F81_T):
        ell = LinearizedPoly.monomial(ctx, 1, ctx.m) - LinearizedPoly.identity(ctx)
        ker = ell.kernel()
        assert ker.dim == ctx.m
        assert sorted(ker.elements()) == ctx.subfield_elements()


def test_kernel_of_norm_equal_binomial():
    # b x^q + c x with N(b) = N(c), b, c != 0 has kernel beta*F_q with
    # beta^(q-1) = -c/b
    ctx = F81_T
    pairs = []
    for b in range(1, 81):
        for c in range(1, 81):
            if ctx.rel_norm(b) == ctx.rel_norm(c):
                pairs.append((b, c))
    rng = np.random.default_rng(6)
    for b, c in [pairs[i] for i in rng.integers(0, len(pairs), size=25)]:
        ell = LinearizedPoly.monomial(ctx, b, ctx.m) + LinearizedPoly.monomial(
            ctx, c, 0
        )
        ker = ell.kernel()
        assert ker.dim == ctx.m
        target = ctx.neg(ctx.mul(ctx.inv(b), c))
        beta = next(
            x for x in range(1, 81) if ctx.pow(x, ctx.q - 1) == target
        )
        expected = sorted(ctx.mul(beta, w) for w in ctx.subfield_elements())
        assert sorted(ker.elements()) == expected


def test_kernel_image_size_product():
    rng = np.random.default_rng(7)
    for _ in range(30):
        ell = random_poly(F81_4, rng)
        k, i = ell.kernel().dim, ell.image().dim
        assert 3**k * 3**i == 81


def test_zero_poly_degenerate():
    zero = LinearizedPoly.zero(F27)
    assert zero.kernel().dim == 3
    assert not zero.is_permutation()
    assert zero.image().dim == 0


def test_annihilator_trivial_cases():
    assert annihilator_coeffs(Subspace(F27, ())) == (1,)
    sub = Subspace.from_vectors(F27, F27.subfield_elements())
    raw = annihilator_coeffs(sub)
    # x^q - x
    assert raw == (F27.neg(1), 1, 0, 0)[: len(raw)]


def test_annihilator_roots_are_exactly_the_subspace():
    rng = np.random.default_rng(8)
    for _ in range(10):
        vecs = [int(v) for v in rng.integers(0, 81, size=2)]
        sub = Subspace.from_vectors(F81_4, vecs)
        raw = annihilator_coeffs(sub)
        roots = {x for x in F81_4.elements() if eval_formal(F81_4, raw, x) == 0}
        assert roots == set(sub.elements())
        assert len(roots) == 3**sub.dim


def test_annihilator_roots_large_degree():
    # same exhaustive root check on the degree-8 tower
    ctx = new_ctx(3, 1, 8)
    rng = np.random.default_rng(12)
    vecs = [int(v) for v in rng.integers(0, ctx.order, size=3)]
    sub = Subspace.from_vectors(ctx, vecs)
    raw = annihilator_coeffs(sub)
    members = set(sub.elements())
    roots = {x for x in ctx.elements() if eval_formal(ctx, raw, x) == 0}
    assert roots == members and len(roots) == 3**sub.dim


def test_annihilator_functional_form_matches():
    rng = np.random.default_rng(9)
    vecs = [int(v) for v in rng.integers(0, 27, size=2)]
    sub = Subspace.from_vectors(F27, vecs)
    raw = annihilator_coeffs(sub)
    poly = LinearizedPoly.from_formal(F27, raw)
    for x in F27.elements():
        assert poly(x) == eval_formal(F27, raw, x)


def test_image_poly_full_and_subfield():
    full = Subspace.from_vectors(F27, list(range(27)))
    assert image_poly_coeffs(full) == (1,)
    sub = Subspace.from_vectors(F27, F27.subfield_elements())
    g_raw = image_poly_coeffs(sub)
    g = image_poly_for_subspace(sub)
    assert g.image() == sub
    h_raw = annihilator_coeffs(sub)
    assert compose_formal(F27, h_raw, g_raw) == full_field_annihilator(F27)


def test_image_poly_round_trip_all_lines_f27():
    count = 0
    for sub in all_subspaces(F27, dim=1):
        g = image_poly_for_subspace(sub)
        assert g.image() == sub
        count += 1
    assert count == 13


def test_subspace_count_matches_gaussian_binomial():
    for ctx in (F27, F81_4):
        for k in range(ctx.degree + 1):
            subs = list(all_subspaces(ctx, dim=k))
            assert len(subs) == gaussian_binomial(ctx.degree, k, 3)
            assert len(set(subs)) == len(subs)


def test_images_cover_every_subspace_f27():
    # constructive form of the subspace/image correspondence: the image
    # polynomials of all k-dim subspaces realize every k-dim subspace
    for k in range(4):
        subs = list(all_subspaces(F27, dim=k)) if k <= 3 else []
        images = {image_poly_for_subspace(s).image() for s in subs}
        assert len(images) == gaussian_binomial(3, k, 3)


def test_subspace_membership_and_canonical_form():
    sub = Subspace.from_vectors(F81_4, [5, 7])
    members = set(sub.elements())
    assert len(members) == 3 ** sub.dim and {5, 7} <= members
    assert all(F81_4.add(x, y) in members for x in members for y in members)
    # canonical: building from any spanning set gives the same basis
    alt = Subspace.from_vectors(F81_4, list(sub.elements()))
    assert alt == sub


def test_linpoly_json_round_trip():
    rng = np.random.default_rng(10)
    ell = random_poly(F81_T, rng)
    assert LinearizedPoly.from_json(F81_T, ell.to_json()) == ell
    assert LinearizedPoly.from_json(F27, {"coeffs": {}}) == LinearizedPoly.zero(F27)


@pytest.mark.parametrize(
    "pmn", [(3, 1, 2), (3, 2, 2), (5, 2, 2), (3, 1, 7), (7, 1, 3), (257, 1, 1)],
    ids=["F_9", "F_81", "F_625", "F_3^7", "F_7^3", "F_257"])
def test_eval_vec_matches_scalar(pmn):
    # F_625 has an addition table (for scalar add), F_3^7 none, and
    # F_257 has p >= 256
    ctx = new_ctx(*pmn)
    rng = np.random.default_rng(11)
    xs = np.arange(ctx.order)
    for ell in (random_poly(ctx, rng), LinearizedPoly.zero(ctx)):
        vals = ell.values
        assert vals.shape == (ctx.order,) and not vals.flags.writeable
        assert ell.values is vals  # cached on the polynomial
        assert [int(v) for v in vals] == [ell(x) for x in range(ctx.order)]
        assert np.array_equal(ell.eval_vec(xs[::-1]), vals[::-1])
        # values, the matrix and the image all read the cached basis images
        images = tuple(ell(ctx.p**k) for k in range(ctx.degree))
        assert ell.images == images
        assert [ctx.from_digits(col) for col in ell.as_matrix().T] == list(images)
        assert ell.image() == Subspace.from_vectors(ctx, images)


def test_value_table_above_table_cap_raises_before_allocating():
    # F_13^4 lies above the order where the criterion leaves the value table
    for p in (11, 13):
        ctx = new_ctx(p, 2, 2, table_cap=p**2)
        assert not ctx.table_mode
        cand = PlanarCandidate(ctx, 1, LinearizedPoly(ctx, (1, 2, 0, 0)))
        for build in (lambda: cand.ell.values, cand.f_table,
                      lambda: criterion_quadratic(cand)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="table cap"):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one byte per element is less than any order-sized array takes
            assert peak < ctx.order


def assert_rref(red, pivots, ncols, p):
    assert pivots == sorted(set(pivots)) and len(pivots) <= len(red)
    for row in red:
        assert len(row) == ncols and all(0 <= v < p for v in row)
    for r, c in enumerate(pivots):
        assert red[r][:c] == [0] * c and red[r][c] == 1
        assert all(red[i][c] == 0 for i in range(len(red)) if i != r)
    assert all(not any(row) for row in red[len(pivots):])


def test_rank_helpers():
    mat = np.array([[1, 2, 0], [2, 1, 0], [0, 0, 0]], dtype=np.int64)
    assert fp_rank(mat, 3) == 1  # second row is 2 * first row mod 3
    mat = np.array([[1, 2, 0], [2, 1, 1], [0, 0, 0]], dtype=np.int64)
    assert fp_rank(mat, 3) == 2
    for p in (3, 5, 7):
        rng = np.random.default_rng(p)
        shapes = [(4, 4), (6, 6), (3, 5), (5, 3), (1, 4), (4, 1), (0, 3), (0, 0)]
        mats = [rng.integers(-2 * p, 2 * p, size=s) for s in shapes]
        mats += [rng.integers(0, p, size=(3, 1)) * rng.integers(0, p, size=(1, 5)),
                 np.zeros((3, 4), dtype=np.int64), [], [[0, 0]]]
        for mat in mats:
            # as an ndarray and as lists; a list without rows has no columns
            for rows in (mat, np.asarray(mat).tolist()):
                ncols = np.shape(rows)[-1]
                red, pivots = fp_rref(rows, p)
                assert_rref(red, pivots, ncols, p)
                null = fp_nullspace(rows, p)
                assert all(type(v) is list and len(v) == ncols for v in null)
                for v in null:
                    assert not np.any(np.asarray(mat) @ np.array(v) % p)
                assert len(pivots) + len(null) == ncols


def test_fp_singular_matches_nullspace():
    rng = np.random.default_rng(31)
    for p in (3, 5, 7, 11, 13, 101):
        for d in range(1, 9):
            mats = rng.integers(0, p, size=(40, d, d))
            # low-rank members: a repeated row, a proportional row, a zero row
            mats[1::4, -1] = mats[1::4, 0]
            mats[2::4, -1] = mats[2::4, 0] * int(rng.integers(2, p)) + p
            mats[3::4, d // 2] = 0
            stacks = [mats, mats[:1], np.zeros((1, d, d), dtype=np.int64),
                      np.eye(d, dtype=np.int64)[None], mats - 3 * p]
            for stack in stacks:
                want = [bool(fp_nullspace(m, p)) for m in stack]
                assert fp_singular(stack, p).tolist() == want
    # products of entries near 2^31 reach 2^62: exact in int64, no p-sized table
    p = 2**31 - 1
    mats = rng.integers(0, p, size=(64, 2, 2))
    mats[::2, 1] = mats[::2, 0] * int(rng.integers(2, p)) % p
    want = [bool(fp_nullspace(m, p)) for m in mats]
    assert want == [i % 2 == 0 for i in range(64)]
    assert fp_singular(mats, p).tolist() == want


def test_fp_is_singular_matches_rank():
    # forward elimination stops at the first column without a pivot; it must
    # agree with the full rank on random matrices (with unreduced entries, as
    # the rank route passes them) and on ones made singular on purpose
    rng = np.random.default_rng(37)
    for p in (3, 5, 7):
        for d in range(1, 8):
            mats = rng.integers(0, p, size=(60, d, d))
            mats[1::4, -1] = mats[1::4, 0]
            mats[2::4, -1] = mats[2::4, 0] * int(rng.integers(2, p)) + p
            mats[3::4, :, d // 2] = 0
            mats[::5] += p * rng.integers(0, 4, size=mats[::5].shape)
            for mat in [*mats, np.zeros((d, d), dtype=np.int64), np.eye(d, dtype=np.int64)]:
                rows = [tuple(int(v) for v in row) for row in mat]
                assert fp_is_singular(rows, p) == (fp_rank(rows, p) < d)
            assert {fp_is_singular(m.tolist(), p) for m in mats} == {True, False}


def _scalar_images(ell):
    """ell(p^j) = sum_t c_t (p^j)^(p^t), j < d, by scalar field ops."""
    ctx, out = ell.ctx, []
    for j in range(ctx.degree):
        acc = 0
        for t, c in enumerate(ell.coeffs):
            acc = ctx.add(acc, ctx.mul(c, ctx.frobenius(ctx.p**j, t)))
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("pmn", [(3, 1, 5), (5, 2, 2), (7, 1, 3), (3, 1, 7),
                                 (5, 1, 5), (3, 1, 8), (257, 1, 1)],
                         ids=["F_3^5", "F_625", "F_7^3", "F_3^7", "F_5^5", "F_3^8",
                              "F_257"])
def test_fill_values_matches_scalar_images(pmn):
    # one vector pass makes the images and the tables of a whole stack, dense
    # and sparse ells mixed, and returns that stack, whose rows each ell
    # keeps; each row matches the scalar images, the table built from them
    # alone, and ell at sampled points
    ctx = new_ctx(*pmn)
    rng = np.random.default_rng(ctx.order + 1)
    ells = [random_poly(ctx, rng) for _ in range(4)]
    ells += [LinearizedPoly.monomial(ctx, int(rng.integers(1, ctx.order)), t)
             for t in rng.integers(0, ctx.degree, 3).tolist()]
    ells += [LinearizedPoly.zero(ctx), LinearizedPoly.identity(ctx)]
    stack = fill_values(ells)
    assert stack.shape == (len(ells), ctx.order) and not stack.flags.writeable
    xs = rng.integers(0, ctx.order, 50).tolist()
    for ell, row in zip(ells, stack):
        assert np.shares_memory(stack, ell.values) and np.array_equal(row, ell.values)
        want = _scalar_images(ell)
        assert vars(ell)["images"] == want and ell.images == want
        assert all(type(v) is int for v in ell.images)
        assert not ell.values.flags.writeable
        assert np.array_equal(ell.values, value_tables(ctx, digit_rows(ctx, [want]))[0])
        assert [int(ell.values[x]) for x in xs] == [ell(x) for x in xs]


def test_fill_values_keeps_what_is_cached():
    # a table already made is not made again, and images already computed
    # stay the same object; the stack holds every row, cached or new
    ctx = new_ctx(5, 2, 2)
    rng = np.random.default_rng(3)
    done, fresh, imaged = (random_poly(ctx, rng) for _ in range(3))
    table = done.values
    images = imaged.images
    stack = fill_values([done, fresh, imaged])
    assert done.values is table and imaged.images is images
    assert [row.tolist() for row in stack] == \
        [ell.values.tolist() for ell in (done, fresh, imaged)]
    assert np.array_equal(fill_values([fresh, done])[::-1], stack[:2])
    assert fresh.images == _scalar_images(fresh)
