import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ffplanar
from ffplanar import field, planarity
from ffplanar.config import DEFAULT_TABLE_CAP
from ffplanar.families import (
    CubicCoeffs,
    MonomialFamilyParams,
    cubic_theorem_predicate,
    example1_construct,
    theorem_monomial_predicate,
)
from ffplanar.field import new_ctx
from ffplanar.linpoly import (
    LinearizedPoly,
    Subspace,
    compose_formal,
    eval_formal,
    fp_nullspace,
)
from ffplanar.planarity import (
    Batch,
    MonomialSum,
    PlanarCandidate,
    VerificationReport,
    check_witness,
    criterion_quadratic,
    f_tables,
    is_planar_bruteforce,
    is_planar_rank,
    is_planar_reduction,
)

F9 = new_ctx(3, 1, 2)
F27 = new_ctx(3, 1, 3)
F81_T = new_ctx(3, 2, 2)
F243 = new_ctx(3, 1, 5)
F625 = new_ctx(5, 2, 2)


def monomial_candidate(ctx, a, b, t):
    return PlanarCandidate(ctx, a, LinearizedPoly.monomial(ctx, b, t))


def square_candidate(ctx):
    # a = 0 and ell = identity realizes f(x) = x^2
    return PlanarCandidate(ctx, 0, LinearizedPoly.identity(ctx))


def perm_example_candidate(ctx):
    # x^(p^3k) - x^(p^2k) - x^(p^k) - x for m = 2k, acting as -2u on F_q
    neg = ctx.neg(1)
    ell = LinearizedPoly(ctx, (neg, neg, neg, 1))
    return PlanarCandidate(ctx, ctx.inv(2), ell)


def test_eval_square():
    cand = square_candidate(F9)
    for x in F9.elements():
        assert cand(x) == F9.mul(x, x)


def test_eval_normalized_is_x_q_plus_1():
    # Tr(a) = 1 and ell = 0 gives f(x) = x^(q+1) on the quadratic tower
    a = F81_T.inv(2)
    assert F81_T.rel_trace(a) == 1
    cand = PlanarCandidate(F81_T, a, LinearizedPoly.zero(F81_T))
    for x in F81_T.elements():
        assert cand(x) == F81_T.pow(x, F81_T.q + 1)


def test_eval_table_matches_scalar_and_shifts():
    cand = PlanarCandidate(F27, 1, LinearizedPoly.identity(F27))
    tab = cand.f_table()
    for x in F27.elements():
        expected = F27.add(F27.rel_trace(F27.pow(x, 4)), F27.mul(x, x))
        assert int(tab[x]) == cand(x) == expected
    # difference tables computed from the value table re-verify pointwise
    for c in (1, 5):
        for x in (0, 2, 20):
            d = F27.sub(cand(F27.add(x, c)), cand(x))
            assert d == F27.sub(int(tab[F27.add(x, c)]), int(tab[x]))


def test_bruteforce_square_is_planar():
    assert is_planar_bruteforce(square_candidate(F9)).planar
    assert is_planar_bruteforce(square_candidate(F27)).planar


def test_bruteforce_classical_trinomial_f9():
    neg = F9.neg(1)
    rep = is_planar_bruteforce(MonomialSum(F9, [(1, 10), (1, 6), (neg, 2)]))
    assert rep.planar


def test_bruteforce_x4_27_planar_x4_9_not():
    planar = is_planar_bruteforce(MonomialSum(F27, [(1, 4)]))
    assert planar.planar
    bad = is_planar_bruteforce(MonomialSum(F9, [(1, 4)]))
    assert not bad.planar
    assert bad.witness is not None
    assert check_witness(MonomialSum(F9, [(1, 4)]), F9, bad.witness)


def test_bruteforce_x14_on_f243():
    # x^((3^3+1)/2), gcd(3, 5) = 1 and the power's exponent odd
    assert is_planar_bruteforce(MonomialSum(F243, [(1, 14)])).planar


def test_bruteforce_ding_family_f27_all_u():
    for u in F27.elements():
        mono = [(1, 10), (F27.neg(u), 6), (F27.neg(F27.mul(u, u)), 2)]
        assert is_planar_bruteforce(MonomialSum(F27, mono)).planar


def test_bruteforce_constant_not_planar():
    rep = is_planar_bruteforce(MonomialSum(F9, [(2, 0)]))
    assert not rep.planar and rep.witness is not None


def test_bruteforce_size_cap():
    with pytest.raises(ValueError):
        is_planar_bruteforce(square_candidate(F27), brute_cap=10)


def test_bruteforce_beyond_add_table_cap():
    # F_3^7 exceeds the dense addition-table cap, exercising digit arithmetic
    ctx = new_ctx(3, 1, 7)
    assert ctx.add_matrix is None
    cand = square_candidate(ctx)
    assert is_planar_bruteforce(cand).planar
    assert is_planar_rank(cand).planar
    bad = PlanarCandidate(ctx, 0, LinearizedPoly.monomial(ctx, 1, 1)
                          - LinearizedPoly.identity(ctx))
    rep = is_planar_bruteforce(bad)
    assert not rep.planar
    assert check_witness(bad, ctx, rep.witness)


@pytest.mark.parametrize("shape", [(3, 1, 8), (17, 1, 3), (4099, 1, 1)],
                         ids=["F_3^8", "F_17^3", "F_4099"])
def test_bruteforce_memory_is_bounded_by_its_blocks(shape):
    # a full scan holds one block of differences at a time, not 128 rows of
    # the field (93 MB at peak on F_3^8 when it did), and no table of the
    # digitwise sums of all pairs of half-digit values, which holds p times
    # the order on an odd degree (134 MB of int64 on F_4099)
    ctx = new_ctx(*shape)
    tracemalloc.start()
    try:
        assert is_planar_bruteforce(square_candidate(ctx)).planar
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_rank_permutation_example_planar_q25():
    cand = perm_example_candidate(F625)
    assert is_planar_rank(cand).planar
    assert is_planar_bruteforce(cand).planar
    assert criterion_quadratic(cand)


def test_permutation_example_degenerates_in_characteristic_3():
    # ell(u)^2 - u^2 = 3u^2 vanishes when p = 3, so the q = 9 instance of the
    # same shape is not planar; every method agrees
    cand = perm_example_candidate(F81_T)
    assert not criterion_quadratic(cand)
    assert not is_planar_bruteforce(cand).planar
    assert not is_planar_rank(cand).planar


def test_rank_a0_nonpermutation_not_planar():
    cand = PlanarCandidate(F9, 0, LinearizedPoly.zero(F9))
    rep = is_planar_rank(cand)
    assert not rep.planar
    # and a = 0 with a permutation ell is planar
    cand = PlanarCandidate(F9, 0, LinearizedPoly.identity(F9))
    assert is_planar_rank(cand).planar


def test_methods_agree_on_all_monomials_f9():
    for a in F9.elements():
        for b in F9.elements():
            for t in range(2):
                cand = monomial_candidate(F9, a, b, t)
                verdicts = {
                    is_planar_bruteforce(cand).planar,
                    is_planar_rank(cand).planar,
                    is_planar_reduction(cand).planar,
                }
                assert len(verdicts) == 1


def test_methods_agree_on_random_f27():
    rng = np.random.default_rng(0x5EED)
    for _ in range(50):
        a = int(rng.integers(0, 27))
        ell = LinearizedPoly(F27, tuple(int(v) for v in rng.integers(0, 27, 3)))
        cand = PlanarCandidate(F27, a, ell)
        brute, rank = is_planar_bruteforce(cand), is_planar_rank(cand)
        verdicts = {brute.planar, rank.planar, is_planar_reduction(cand).planar}
        assert len(verdicts) == 1
        # both name the lowest direction whose difference map does not permute
        if not brute.planar:
            assert rank.witness[0] == brute.witness[0]


def _lowest_collision(ctx, f):
    """Reference for a scan of every direction: the lowest c whose difference
    map does not permute, with its lowest colliding pair x1 < x2."""
    vals = [f(x) for x in ctx.elements()]
    for c in range(1, ctx.order):
        seen = {}
        for x in ctx.elements():
            d = ctx.sub(vals[ctx.add(x, c)], vals[x])
            if d in seen:
                return (c, seen[d], x)
            seen[d] = x
    return None


@pytest.mark.parametrize("shape", [(5, 1, 3), (7, 1, 2)])
def test_witness_direction_is_lowest(shape):
    # rank skips the directions whose leading digit is not 1; brute force
    # skips all but the least of each coset of the group generated by -1 and
    # its input's scaling group (on a sum of monomials that scales under no
    # lam but 1, only the c > -c); neither may move the lowest non-permuting
    # direction, nor brute force its witness pair
    ctx = new_ctx(*shape)
    rng = np.random.default_rng(ctx.order)
    do_exps = [ctx.p**i + ctx.p**j for i in range(ctx.degree) for j in range(i + 1)]
    for _ in range(25):
        a = int(rng.integers(0, ctx.order))
        ell = LinearizedPoly(ctx, tuple(int(v) for v in
                                        rng.integers(0, ctx.order, ctx.degree)))
        cand = PlanarCandidate(ctx, a, ell)
        want = _lowest_collision(ctx, cand)
        assert is_planar_bruteforce(cand).witness == want
        rank = is_planar_rank(cand)
        assert rank.planar == (want is None)
        if want is not None:
            assert rank.witness[0] == want[0]
        mono = [(int(rng.integers(1, ctx.order)),
                 int(rng.choice(do_exps) if rng.random() < 0.7
                     else rng.integers(0, ctx.order)))
                for _ in range(int(rng.integers(1, 4)))]
        want = _lowest_collision(ctx, MonomialSum(ctx, mono))
        assert is_planar_bruteforce(MonomialSum(ctx, mono)).witness == want


def _orbit_minima(ctx, h):
    """Reference for _coset_minima: the least element of each orbit
    {lam c : lam^h = 1}, ascending, from every product."""
    group = np.array([lam for lam in range(1, ctx.order) if ctx.pow(lam, h) == 1])
    cs = np.arange(1, ctx.order)
    return sorted(set(ctx.mul_vec(group[:, None], cs).min(axis=0).tolist()))


def test_scans_visit_one_direction_per_class(monkeypatch):
    # brute force visits the first block of the pair minima {c, -c}, then one
    # direction per coset of the stack's scaling group, and evaluates
    # (order+1)/2 values in each on an even stack, order on any other.  x^2 scales under all of F^*, so planar x^2 visits only
    # the 8 directions of its first block, and a stack of 5 the 2 of its own.
    # A planar q25 binomial member scales under the 16 lam with lam^16 = 1
    # and visits its first block and the coset minima above it; x^2 + x is
    # not even, scales under no lam but 1 and visits one direction of each
    # pair {c, -c}, (order-1)/2 in all.  Rank visits one direction per coset
    # of the group read off f's monomials (matrices tested one by one in
    # narrow blocks, or in a stack by the batched eliminator): planar x^2
    # only v = 1, the member the 39 minima of the 16 lam with lam^16 = 1.
    # In polynomial mode rank visits one direction per class {lam c}, lam
    # in F_p^*, (order-1)/(p-1) in all
    values, directions = [], []
    shifted_differences = field.FieldCtx.shifted_differences
    one, singular = planarity.fp_is_singular, planarity.fp_singular

    def counting_differences(ctx, f_tabs):
        points, differences = shifted_differences(ctx, f_tabs)

        def counted(cs, rows):
            out = differences(cs, rows)
            values.append(out.size)
            return out

        return points, counted

    def counting_one(mat, p):
        directions.append(1)
        return one(mat, p)

    def counting_singular(mats, p):
        directions.append(len(mats))
        return singular(mats, p)

    monkeypatch.setattr(field.FieldCtx, "shifted_differences", counting_differences)
    monkeypatch.setattr(planarity, "fp_is_singular", counting_one)
    monkeypatch.setattr(planarity, "fp_singular", counting_singular)
    for ctx in (F625, new_ctx(3, 1, 7)):
        half = (ctx.order + 1) // 2
        values.clear()
        assert is_planar_bruteforce(square_candidate(ctx)).planar
        assert sum(values) == 8 * half
        # and once per stack row, however the stack is split
        values.clear()
        stack = np.stack([square_candidate(ctx).f_table()] * 5)
        assert planarity._bad_direction(ctx, stack, [square_candidate(ctx)] * 5) == [None] * 5
        assert sum(values) == 5 * 2 * half
    member = MonomialFamilyParams(F625, 1, 1, 2).candidate()
    first = _orbit_minima(F625, 2)[7]
    beyond = [c for c in _orbit_minima(F625, 16) if c > first]
    values.clear()
    assert is_planar_bruteforce(member).planar
    assert sum(values) == (F625.order + 1) // 2 * (8 + len(beyond))
    values.clear()
    assert is_planar_bruteforce(MonomialSum(F625, [(1, 2), (1, 1)])).planar
    assert sum(values) == F625.order * (F625.order - 1) // 2
    for pmn in ((5, 2, 2), (5, 1, 3), (7, 1, 2)):
        directions.clear()
        assert is_planar_rank(square_candidate(new_ctx(*pmn))).planar
        assert sum(directions) == 1
        ctx = new_ctx(*pmn, table_cap=1)
        directions.clear()
        assert is_planar_rank(square_candidate(ctx)).planar
        assert sum(directions) == (ctx.order - 1) // (ctx.p - 1)
    directions.clear()
    assert is_planar_rank(member).planar
    assert sum(directions) == len(_orbit_minima(F625, 16)) == 39


def _scaling_reference(ctx, f_tabs):
    """Reference for _scales: how many lam in F^* have, on every row,
    one mu with f(lam x) = mu f(x) for all x, tried one lam at a time."""
    xs = np.arange(ctx.order)
    count = 0
    for lam in range(1, ctx.order):
        moved = f_tabs[:, ctx.mul_vec(lam, xs)]
        ok = True
        for f, g in zip(f_tabs, moved):
            nonzero = f != 0
            ratios = set(ctx.mul_vec(g[nonzero], ctx.inv_vec(f[nonzero])).tolist())
            ok = ok and (g[~nonzero] == 0).all() and len(ratios) <= 1
        count += ok
    return count


@pytest.mark.parametrize("pmn", [(3, 1, 4), (5, 1, 2), (7, 1, 2), (5, 2, 2)],
                         ids=["F_3^4", "F_5^2", "F_7^2", "F_625"])
def test_scaling_order_and_coset_minima_match_references(pmn):
    # a claim of the subgroup of order e passes the table test iff that
    # group lies in the one the reference counts, iff e divides its order;
    # the group read off the monomials is always such a subgroup
    ctx = new_ctx(*pmn)
    p, M = ctx.p, ctx.order - 1
    random = list(_random_candidates(ctx, 8))
    cands = f_tables(random)
    square = square_candidate(ctx).f_table()
    plus_x = MonomialSum(ctx, [(1, 2), (1, 1)]).f_table()
    # x^2 with f(0) = 1: lam scales it iff lam^2 = 1, which only the test at
    # x = 0 sees.  Moved at a nonzero point instead, it scales under no lam
    # but 1
    at_zero, at_point = square.copy(), square.copy()
    at_zero[0] = 1
    at_point[M // 3] = ctx.add(int(at_point[M // 3]), 1)
    stacks = {
        "candidates": cands, "one candidate": cands[1:2], "x^2": square[None],
        "x^(p+1)": MonomialSum(ctx, [(1, p + 1)]).f_table()[None],
        "zero": np.zeros((1, ctx.order), dtype=np.int64),
        "x^2 + x": plus_x[None], "with x^2 + x": np.vstack([cands, plus_x]),
        "x^2 moved at 0": at_zero[None], "x^2 moved at a point": at_point[None],
    }
    want = {name: _scaling_reference(ctx, tabs) for name, tabs in stacks.items()}
    assert want["x^2"] == want["zero"] == M
    assert want["x^2 moved at 0"] == 2 and want["x^2 + x"] == 1
    assert want["candidates"] % (p - 1) == 0
    claims = {"candidates": math.gcd(*map(planarity._monomial_scaling, random)),
              "x^2": planarity._monomial_scaling(square_candidate(ctx)),
              "x^(p+1)": planarity._monomial_scaling(MonomialSum(ctx, [(1, p + 1)])),
              "x^2 + x": planarity._monomial_scaling(MonomialSum(ctx, [(1, 2), (1, 1)]))}
    assert claims["x^2"] == claims["x^(p+1)"] == M and claims["x^2 + x"] == 1
    assert all(want[name] % e == 0 for name, e in claims.items())
    divisors = [h for h in range(1, M + 1) if M % h == 0]
    for name, tabs in stacks.items():
        got = [e for e in divisors[1:] if planarity._scales(ctx, tabs, e)]
        assert got == [e for e in divisors[1:] if want[name] % e == 0], name
    for h in divisors:
        assert planarity._coset_minima(ctx, h).tolist() == _orbit_minima(ctx, h)


@pytest.mark.parametrize("entries", [planarity.BRUTE_BLOCK_ENTRIES, 1 << 12],
                         ids=["default-blocks", "split-stacks"])
def test_bruteforce_stack_matches_one_candidate_calls(entries, monkeypatch):
    # planar rows and rows whose first bad direction lies at different
    # depths, in one batch: each row gets the report it gets alone, by one
    # kernel run on tables made as one stack
    monkeypatch.setattr(planarity, "BRUTE_BLOCK_ENTRIES", entries)
    for ctx in (F625, new_ctx(3, 1, 7)):
        cands = [*_random_candidates(ctx, 12), square_candidate(ctx),
                 perm_example_candidate(ctx) if ctx.n == 2 else square_candidate(ctx)]
        cands.insert(3, cands.pop())
        alone = [is_planar_bruteforce(cand) for cand in cands]
        assert {rep.planar for rep in alone} == {True, False}
        assert len({rep.witness[0] for rep in alone if not rep.planar}) >= 3
        fresh = [PlanarCandidate(ctx, cand.a, LinearizedPoly(ctx, cand.ell.coeffs))
                 for cand in cands]
        kernel_runs = []
        bad_direction = planarity._bad_direction
        monkeypatch.setattr(planarity, "_bad_direction",
                            lambda ctx, f_tabs, fs: kernel_runs.append(len(f_tabs))
                            or bad_direction(ctx, f_tabs, fs))
        batch = Batch(fresh)
        stacked = [is_planar_bruteforce(cand, batch=batch) for cand in fresh]
        monkeypatch.setattr(planarity, "_bad_direction", bad_direction)
        assert kernel_runs == [len(cands)]
        assert [(rep.planar, rep.witness) for rep in stacked] == \
            [(rep.planar, rep.witness) for rep in alone]


def _first_collision(row, c):
    """(c, x1, x2) for one row of c-difference values: x2 the lowest x whose
    value an earlier x takes too, x1 the first x taking it."""
    xs = np.arange(len(row))
    first = np.full(len(row), len(row))
    np.minimum.at(first, row, xs)
    x2 = int(np.flatnonzero(first[row] != xs)[0])
    return (c, int(first[row[x2]]), x2)


@pytest.mark.parametrize("pmn", [(5, 2, 2), (3, 1, 7), (7, 1, 3)],
                         ids=["F_625", "F_3^7", "F_7^3"])
def test_batched_collisions_match_one_row_at_a_time(pmn, monkeypatch):
    # a stack of planar and non-planar rows: the one collision pass of each
    # block gives every newly bad row the witness its own difference row
    # gives, and a random array with repeats matches row by row too
    ctx = new_ctx(*pmn)
    cands = [*_random_candidates(ctx, 14), square_candidate(ctx)]
    cands.insert(5, cands.pop())
    f_tabs = f_tables(cands)
    passes = []
    first_collisions = planarity._first_collisions
    monkeypatch.setattr(planarity, "_first_collisions",
                        lambda diffs, cs: passes.append(len(diffs))
                        or first_collisions(diffs, cs))
    found = planarity._bad_direction(ctx, f_tabs, cands)
    assert {w is None for w in found} == {True, False}
    assert sum(passes) == sum(w is not None for w in found) > len(passes)
    xs = np.arange(ctx.order)
    for f, witness in zip(f_tabs, found):
        if witness is not None:
            c = witness[0]
            row = ctx.sub_vec(f[ctx.add_vec(xs, c)], f)
            assert witness == _first_collision(row, c)
    rng = np.random.default_rng(ctx.order)
    diffs = rng.integers(0, ctx.order, (9, ctx.order))
    cs = rng.integers(1, ctx.order, 9)
    assert first_collisions(diffs, cs) == \
        [_first_collision(row, c) for row, c in zip(diffs, cs.tolist())]


def _pair_scan_reference(ctx, f_tabs):
    """Reference for _bad_direction over every direction c < -c, ascending:
    per row, the lowest c whose difference map does not permute, with x2 the
    lowest x whose difference value an earlier x takes, and x1 the first x
    taking it."""
    xs = np.arange(ctx.order)
    found = [None] * len(f_tabs)
    for c in (c for c in range(1, ctx.order) if c < ctx.neg(c)):
        live = [r for r, w in enumerate(found) if w is None]
        if not live:
            break
        diffs = ctx.sub_vec(f_tabs[live][:, ctx.add_vec(xs, c)], f_tabs[live])
        srt = np.sort(diffs, axis=1)
        for i in np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1)):
            _, first, inverse = np.unique(diffs[i], return_index=True,
                                          return_inverse=True)
            x2 = int(np.flatnonzero(first[inverse] != xs)[0])
            found[live[i]] = (c, int(first[inverse[x2]]), x2)
    return found


@pytest.mark.parametrize("pmn", [(5, 2, 2), (5, 1, 5), (7, 1, 3), (3, 2, 3),
                                 (3, 1, 7), (3, 1, 8)],
                         ids=["F_625", "F_5^5", "F_7^3", "F_3^6", "F_3^7", "F_3^8"])
def test_bruteforce_matches_pair_scan_reference(pmn):
    # a stack of candidates scans one direction per coset of a group that
    # holds F_p^*, a stack with one row that scales under no lam but 1 scans
    # every c < -c; both must give the witnesses of a scan of every c < -c,
    # row by row.  A stack of even rows reads half the field, on one digit
    # plane or two (F_3^7, F_3^8); one with a row that is not even reads all
    # of it
    ctx = new_ctx(*pmn)
    p = ctx.p
    cands = [*_random_candidates(ctx, 10), square_candidate(ctx),
             PlanarCandidate(ctx, 0, LinearizedPoly.monomial(ctx, 2, 0))]
    cands.insert(4, cands.pop())
    if ctx.n == 2:
        cands.insert(7, perm_example_candidate(ctx))
    # f(x) = x^(p+1), which scales under all of F^*, planar on an odd degree
    fs = cands + [MonomialSum(ctx, [(1, p + 1)])]
    tabs = np.vstack([f_tables(cands), fs[-1].f_table()])
    # x^2 + x is planar but scales under no lam but 1; nor does x^2 with
    # delta = 2 added at one point, where D_1 still permutes (delta = f(x0+c)
    # - 2 f(x0) + f(x0-c) = 2 c^2 at c = 1) but some D_c does not, so the
    # one direction of x^2's group, c = 1, would call it planar
    plus_x_f = MonomialSum(ctx, [(1, 2), (1, 1)])
    plus_x = plus_x_f.f_table()
    broken = square_candidate(ctx).f_table()
    broken[7] = ctx.add(int(broken[7]), 2)
    stacks = [(tabs, fs, True),
              (np.vstack([tabs[:6], plus_x, tabs[6:]]), fs[:6] + [plus_x_f] + fs[6:], False),
              (np.vstack([broken, tabs]), [square_candidate(ctx)] + fs, False),
              (plus_x[None], [plus_x_f], False)]
    for stack, stack_fs, even in stacks:
        # the candidates scale under the group their monomials give, broken
        # claims x^2's and fails the table test, and x^2 + x claims none
        e = math.gcd(*map(planarity._monomial_scaling, stack_fs))
        assert e % (p - 1) == 0 if e > 1 else plus_x_f in stack_fs
        assert e <= 2 or planarity._scales(ctx, stack, e) == even
        points, _ = ctx.shifted_differences(stack)
        assert len(points) == ((ctx.order + 1) // 2 if even else ctx.order)
        got = planarity._bad_direction(ctx, stack, stack_fs)
        assert got == _pair_scan_reference(ctx, stack)
        assert {w is None for w in got} == ({True} if len(stack) == 1 else {True, False})
    assert planarity._bad_direction(ctx, broken[None], [square_candidate(ctx)])[0][0] > 1


@pytest.mark.parametrize("pmn", [(5, 2, 2), (3, 1, 6), (7, 1, 3), (5, 1, 4)],
                         ids=["F_625", "F_3^6", "F_7^3", "F_5^4"])
def test_corrupted_scaling_claim_keeps_the_pair_scan(pmn, monkeypatch):
    # rows that claim x^2's group, all of F^*, but hold other tables: x^2
    # moved at one point (broken), x^2 moved at 0, x^2 + x, and the random
    # candidate whose first bad direction comes last, which a scan of x^2's
    # one coset would call planar.  Alone or among true x^2 rows, every row
    # gets the verdict and witness of a scan of every c < -c, and the table
    # test rejects the claim exactly where such a row is still undecided
    # after the first block
    ctx = new_ctx(*pmn)
    square = MonomialSum(ctx, [(1, 2)])
    true = square.f_table()
    broken, at_zero = true.copy(), true.copy()
    broken[7] = ctx.add(int(broken[7]), 2)
    at_zero[0] = 1
    plus_x = MonomialSum(ctx, [(1, 2), (1, 1)]).f_table()
    cands = f_tables(list(_random_candidates(ctx, 40)))
    late = max(cands, key=lambda row: (_pair_scan_reference(ctx, row[None])[0] or (0,))[0])
    pairs = planarity._coset_minima(ctx, 2)
    verdicts = []
    scales = planarity._scales
    monkeypatch.setattr(planarity, "_scales", lambda ctx, f_tabs, e:
                        verdicts.append(scales(ctx, f_tabs, e)) or verdicts[-1])
    survived = []
    for held in (broken, at_zero, plus_x, late):
        for stack in (held[None], np.stack([true, held, true])):
            verdicts.clear()
            got = planarity._bad_direction(ctx, stack, [square] * len(stack))
            want = _pair_scan_reference(ctx, stack)
            assert got == want
            first_block = pairs[:-(-8 // len(stack))]
            witness = want[len(stack) // 2]
            survived.append(witness is None or witness[0] > first_block[-1])
            assert (False in verdicts) == survived[-1]
    assert _pair_scan_reference(ctx, late[None])[0] is not None
    assert survived[4:] == [True] * 4  # x^2 + x and the late row


@pytest.mark.parametrize("pmn", [(3, 1, 5), (3, 2, 3), (3, 1, 7), (5, 2, 2), (5, 1, 5),
                                 (7, 1, 3), (3, 4, 2), (5, 2, 3), (7, 1, 5)],
                         ids=["F_3^5", "F_9^3", "F_3^7", "F_625", "F_5^5", "F_7^3",
                              "F_81^2", "F_25^3", "F_7^5"])
def test_prefix_witnesses_match_the_whole_field(pmn, monkeypatch):
    # each decided row's witness is read off D_c on x <= p^(d-1); the first
    # collision over the whole field is the same, and on candidates (their
    # D_c are F_p-affine) no row falls back to it
    ctx = new_ctx(*pmn)
    cands = list(_random_candidates(ctx, 8))
    f_tabs = f_tables(cands)
    widths = []
    first_collisions = planarity._first_collisions
    monkeypatch.setattr(planarity, "_first_collisions",
                        lambda diffs, cs: widths.append(diffs.shape[1])
                        or first_collisions(diffs, cs))
    found = planarity._bad_direction(ctx, f_tabs, cands)
    assert set(widths) == {ctx.order // ctx.p + 1}
    rows = [i for i, w in enumerate(found) if w is not None]
    assert rows
    cs = np.array([found[i][0] for i in rows])
    whole = planarity._difference_rows(ctx, f_tabs[rows], cs, ctx.order)
    assert [found[i] for i in rows] == first_collisions(whole, cs)
    if pmn == (5, 2, 2):
        # the pinned count: 126 = p^(d-1) + 1 points per decided row
        assert widths[0] == 126


def test_prefix_witness_falls_back_on_a_table_that_is_not_affine(monkeypatch):
    # x^2 moved at the top element: D_c changes only at x = order - 1 and
    # x = order - 1 - c, both above p^(d-1), so the prefix of the first bad
    # direction holds no repeat and the witness comes from the whole field
    ctx = F625
    broken = square_candidate(ctx).f_table()
    broken[-1] = ctx.add(int(broken[-1]), 1)
    widths = []
    first_collisions = planarity._first_collisions
    monkeypatch.setattr(planarity, "_first_collisions",
                        lambda diffs, cs: widths.append(diffs.shape[1])
                        or first_collisions(diffs, cs))
    found = planarity._bad_direction(ctx, broken[None], [square_candidate(ctx)])
    assert widths == [ctx.order // ctx.p + 1, ctx.order]
    assert found == _pair_scan_reference(ctx, broken[None])
    assert found[0][2] > ctx.order // ctx.p


@pytest.mark.parametrize("pmn", [(5, 2, 2), (7, 1, 3)], ids=["F_625", "F_7^3"])
def test_one_witness_pass_per_stack(pmn, monkeypatch):
    # every witness of a stack comes from one _witnesses call after its scan:
    # rows decided in the first block and in later ones, beside planar rows,
    # x^2 moved at the top element (not affine: its prefix holds no repeat,
    # and the same call reads it again over the whole field) and, in the
    # second stack, x^2 moved at 7, which claims all of F^* and makes the
    # stack fail the table test.  Verdicts and witnesses are those of a scan
    # of every c < -c
    ctx = new_ctx(*pmn)
    cands = list(_random_candidates(ctx, 24))
    square = square_candidate(ctx)
    tabs, true = f_tables(cands), square.f_table()
    top, moved = true.copy(), true.copy()
    top[-1] = ctx.add(int(top[-1]), 1)
    moved[7] = ctx.add(int(moved[7]), 2)
    # the moved row at `at`, x^2 after it
    stacks = {name: (np.vstack([tabs[:at], held, true, tabs[at:]]),
                     cands[:at] + [square, square] + cands[at:], at)
              for name, held, at in (("not affine", top, 8), ("failed claim", moved, 5))}
    calls, widths, verdicts = [], [], []
    witnesses = planarity._witnesses
    first_collisions = planarity._first_collisions
    scales = planarity._scales
    monkeypatch.setattr(planarity, "_witnesses", lambda ctx, f_tabs, cs:
                        calls.append(len(f_tabs)) or witnesses(ctx, f_tabs, cs))
    monkeypatch.setattr(planarity, "_first_collisions", lambda diffs, cs:
                        widths.append(diffs.shape[1]) or first_collisions(diffs, cs))
    monkeypatch.setattr(planarity, "_scales", lambda ctx, f_tabs, e:
                        verdicts.append(scales(ctx, f_tabs, e)) or verdicts[-1])
    prefix = ctx.order // ctx.p + 1
    for name, (stack, fs, at) in stacks.items():
        calls.clear(), widths.clear(), verdicts.clear()
        got = planarity._bad_direction(ctx, stack, fs)
        assert got == _pair_scan_reference(ctx, stack), name
        decided = [w[0] for w in got if w is not None]
        assert calls == [len(decided)], name
        first_block = planarity._coset_minima(ctx, 2)[:-(-8 // len(stack))]
        assert min(decided) <= first_block[-1] < max(decided), name
        assert got[at] is not None and got[at + 1] is None, name
        if name == "not affine":
            assert widths == [prefix, ctx.order] and got[at][2] >= prefix
        else:
            assert verdicts == [False]
    # a stack with no bad direction makes no witness pass
    calls.clear()
    assert planarity._bad_direction(ctx, true[None], [square]) == [None]
    assert calls == []


def _pinned_bruteforce_reports():
    """(planar, witness) of brute force on seeded inputs: random candidates
    and x^2 on towers either side of ADD_TABLE_CAP, the general polynomials
    the tests above use, and random sums of monomials."""
    out = []
    for pmn, count in [((3, 1, 5), 24), ((5, 2, 2), 24), ((7, 1, 3), 24),
                       ((3, 1, 7), 10), ((5, 1, 5), 10), ((3, 1, 8), 6)]:
        ctx = new_ctx(*pmn)
        cands = list(_random_candidates(ctx, count))
        if ctx.order < 6561:
            cands.append(square_candidate(ctx))
        out += [is_planar_bruteforce(cand) for cand in cands]
    neg = F9.neg(1)
    general = [(F9, [(1, 10), (1, 6), (neg, 2)]), (F27, [(1, 4)]), (F9, [(1, 4)]),
               (F243, [(1, 14)]), (F9, [(2, 0)])]
    general += [(F27, [(1, 10), (F27.neg(u), 6), (F27.neg(F27.mul(u, u)), 2)])
                for u in F27.elements()]
    for pmn in [(5, 1, 3), (7, 1, 2), (3, 1, 7)]:
        ctx = new_ctx(*pmn)
        rng = np.random.default_rng(ctx.order + 1)
        do_exps = [ctx.p**i + ctx.p**j for i in range(ctx.degree) for j in range(i + 1)]
        for _ in range(12):
            general.append((ctx, [(int(rng.integers(1, ctx.order)),
                                   int(rng.choice(do_exps) if rng.random() < 0.7
                                       else rng.integers(0, ctx.order)))
                                  for _ in range(int(rng.integers(1, 4)))]))
    out += [is_planar_bruteforce(MonomialSum(ctx, mono)) for ctx, mono in general]
    return [(rep.planar, rep.witness) for rep in out]


@pytest.mark.parametrize("entries,half_cap", [
    (planarity.BRUTE_BLOCK_ENTRIES, field.HALF_TABLE_CAP), (1, field.HALF_TABLE_CAP),
    (planarity.BRUTE_BLOCK_ENTRIES, 0)],
    ids=["default-blocks", "one-direction-blocks", "half-sums-per-block"])
def test_bruteforce_witnesses_pinned(entries, half_cap, monkeypatch):
    # sha256 of the verdicts and witnesses of the brute-force kernel that
    # gathered x + c from add_matrix or the digit planes and found witnesses
    # with np.unique; every later kernel must report the same, however its
    # blocks of directions are split, wherever its half-digit sums come from
    # and whether a block's index tables are kept or made again
    monkeypatch.setattr(planarity, "BRUTE_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(field, "HALF_TABLE_CAP", half_cap)
    if not half_cap:
        # every block's tables made from its own half sums: contexts are
        # shared between tests, so what earlier calls kept is dropped
        shift_tables = field.FieldCtx._shift_tables

        def uncached(ctx, cs, even):
            ctx._shift_cache.clear()
            ctx._shift_cache_bytes = 0
            return shift_tables(ctx, cs, even)

        monkeypatch.setattr(field.FieldCtx, "_shift_tables", uncached)
    reports = _pinned_bruteforce_reports()
    assert {planar for planar, _ in reports} == {True, False}
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "890c5e1c37b45a8ef9c565bc7a1586d291a8a63fbffce0f48d0fd81c2c36792b"


def _pinned_reports(route):
    """(planar, witness) of `route` on seeded candidates and x^2, on towers
    either side of ADD_TABLE_CAP and of F_q degrees 1 and 2."""
    out = []
    for pmn, count in [((3, 1, 5), 24), ((5, 2, 2), 24), ((7, 1, 3), 24),
                       ((3, 1, 7), 10), ((5, 1, 5), 10), ((3, 1, 8), 6)]:
        ctx = new_ctx(*pmn)
        for cand in [*_random_candidates(ctx, count), square_candidate(ctx)]:
            rep = route(cand)
            out.append((rep.planar, rep.witness))
    assert {planar for planar, _ in out} == {True, False}
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


def test_rank_witnesses_pinned():
    # sha256 of the verdicts and witnesses of the rank route whose every exit
    # built and re-checked its own report
    digest = _pinned_reports(is_planar_rank)
    assert digest == "69ab22ac97aa1172a89843d3928ec0691babc7a0f9bb8260e07219d076af1dca"


@pytest.mark.parametrize("table_max", [planarity.CRITERION_TABLE_MAX, 0],
                         ids=["value-table", "kernel"])
def test_reduction_witnesses_pinned(table_max, monkeypatch):
    # as above for the reduction route, whichever way the u with ell(u) in
    # F_q are found: off ell's value table, or off the kernel of the images
    monkeypatch.setattr(planarity, "CRITERION_TABLE_MAX", table_max)
    digest = _pinned_reports(is_planar_reduction)
    assert digest == "0081fe5dc4b1d4a15a71c04c38f0747edb5d530949ebdfd2830c5a0143d9eb4a"


def _difference_matrix(cand, two_ell, v):
    """F_p matrix rows of x -> Tr(a v x^q + a v^q x) + 2 ell(v x)."""
    ctx = cand.ctx
    av = ctx.mul(cand.a, v)
    avq = ctx.mul(cand.a, ctx.frobenius(v, ctx.m))
    cols = []
    for j in range(ctx.degree):
        x = ctx.p**j
        t = ctx.rel_trace(
            ctx.add(ctx.mul(av, ctx.frobenius(x, ctx.m)), ctx.mul(avq, x))
        )
        cols.append(ctx.digits(ctx.add(t, two_ell(ctx.mul(v, x)))))
    return [list(row) for row in zip(*cols)]


def reference_rank(cand):
    """The rank route one direction at a time, as (planar, witness): the basis
    matrices derived by hand for this shape of f, a list-matrix sum and one
    fp_nullspace per direction whose leading nonzero digit is 1."""
    ctx = cand.ctx
    two_ell = cand.ell.scale(2)
    zero = [[0] * ctx.degree] * ctx.degree
    basis = []
    for k in range(ctx.degree):
        lead = ctx.p**k
        basis.append(_difference_matrix(cand, two_ell, lead))
        for v in range(lead, 2 * lead):
            mat = zero
            for vi, m_i in zip(ctx.digits(v), basis):
                if vi:
                    mat = [[a + vi * b for a, b in zip(row, row_i)]
                           for row, row_i in zip(mat, m_i)]
            null = fp_nullspace(mat, ctx.p)
            if null:
                return False, (v, ctx.from_digits(null[0]), 0)
    return True, None


def _random_candidates(ctx, count):
    # dense ell mostly exits in the first, narrow blocks; single terms are
    # more often planar or exit in a batched block
    rng = np.random.default_rng(ctx.order)
    for i in range(count):
        a = int(rng.integers(0, ctx.order))
        if i % 2:
            ell = LinearizedPoly(ctx, tuple(int(v) for v in
                                            rng.integers(0, ctx.order, ctx.degree)))
        else:
            ell = LinearizedPoly.monomial(ctx, int(rng.integers(1, ctx.order)),
                                          int(rng.integers(0, ctx.degree)))
        yield PlanarCandidate(ctx, a, ell)


@pytest.mark.parametrize("pmn", [(3, 1, 5), (5, 1, 3), (3, 2, 2), (7, 1, 3),
                                 (5, 2, 2), (3, 4, 2)],
                         ids=["F_3^5", "F_5^3", "F_9^2", "F_7^3", "F_25^2", "F_81^2"])
def test_rank_matches_reference(pmn):
    # 50 candidates per tower, 300 in all: same verdict, same witness
    ctx = new_ctx(*pmn)
    for cand in _random_candidates(ctx, 50):
        rep = is_planar_rank(cand)
        assert (rep.planar, rep.witness) == reference_rank(cand)


@pytest.mark.parametrize("pmn", [(3, 2, 2), (3, 1, 5)], ids=["F_81", "F_3^5"])
def test_rank_matches_reference_in_polynomial_mode(pmn):
    ctx = new_ctx(*pmn, table_cap=1)
    for cand in _random_candidates(ctx, 20):
        rep = is_planar_rank(cand)
        assert (rep.planar, rep.witness) == reference_rank(cand)


def test_rank_matches_reference_on_planar_fixtures():
    F343 = new_ctx(7, 1, 3)
    # b_0 solved from the closed predicate's i = 0 condition for random a, b_1, b_2
    cubic = CubicCoeffs(F343, 81, ((207, 62, 274),))
    assert cubic_theorem_predicate(cubic)
    fixtures = [square_candidate(new_ctx(*pmn)) for pmn in
                [(3, 1, 5), (5, 1, 3), (3, 4, 2), (5, 2, 2)]]
    fixtures += [example1_construct(F625), cubic.candidate()]
    for cand in fixtures:
        rep = is_planar_rank(cand)
        assert rep.planar and reference_rank(cand) == (True, None)


def _planar_binomial_members(ctx, count):
    """Planar members of the q25 binomial family, drawn by a seeded rng."""
    rng = np.random.default_rng(25)
    out = []
    while len(out) < count:
        b, c = (int(v) for v in rng.integers(0, ctx.order, 2))
        if ctx.rel_norm(b) != ctx.rel_norm(c):
            params = MonomialFamilyParams(ctx, 1, b, c)
            if theorem_monomial_predicate(params):
                out.append(params.candidate())
    return out


def _scaling_inputs(ctx, count):
    """Candidates whose monomials scale under groups of every size: random
    ones, rows with Tr(a) = 0 (on n = 2 their trace terms cancel and drop
    out) and one ell monomial, a = 0 with one ell monomial, and x^2."""
    rng = np.random.default_rng(ctx.order + 2)
    cands = list(_random_candidates(ctx, count))
    zero_trace = [a for a in range(1, ctx.order) if ctx.rel_trace(a) == 0]
    for _ in range(count // 2):
        t = int(rng.integers(0, ctx.degree))
        ell = LinearizedPoly.monomial(ctx, int(rng.integers(1, ctx.order)), t)
        cands.append(PlanarCandidate(ctx, zero_trace[int(rng.integers(len(zero_trace)))], ell))
        cands.append(PlanarCandidate(ctx, 0, ell))
    return cands + [square_candidate(ctx)]


@pytest.mark.parametrize("table_cap", [None, 1], ids=["table", "polynomial"])
@pytest.mark.parametrize("pmn", [(3, 1, 5), (5, 2, 2), (7, 1, 3), (3, 2, 3)],
                         ids=["F_3^5", "F_625", "F_7^3", "F_9^3"])
def test_rank_over_coset_minima_matches_every_class(pmn, table_cap):
    # rank tests the least v of each coset of the group read off f's
    # monomials; a scan of every class {lam v : lam in F_p^*} gives the
    # same verdict and witness.  Polynomial mode takes every class
    ctx = new_ctx(*pmn, table_cap=table_cap)
    cands = _scaling_inputs(ctx, 12)
    if pmn == (5, 2, 2):
        cands += _planar_binomial_members(ctx, 3)
    groups = [planarity._monomial_scaling(cand) for cand in cands]
    assert all(e % (ctx.p - 1) == 0 and (ctx.order - 1) % e == 0 for e in groups)
    if table_cap:
        assert set(groups) == {ctx.p - 1}
    else:
        # x^2 scales under all of F^*
        assert ctx.order - 1 in groups and min(groups) < ctx.order - 1
    for cand in cands:
        rep = is_planar_rank(cand)
        assert (rep.planar, rep.witness) == reference_rank(cand)
    assert {rep.planar for rep in map(is_planar_rank, cands)} == {True, False}


def test_rank_directions_are_the_class_minima_on_f_p_star():
    # the group F_p^* (every random non-planar input, every F_27 cubic)
    # keeps the class list {v : top digit 1} as ranges, as does polynomial
    # mode; a larger group keeps its coset minima, split by top digit
    for pmn in [(3, 1, 5), (5, 2, 2), (3, 1, 3)]:
        ctx = new_ctx(*pmn)
        p, d = ctx.p, ctx.degree
        assert planarity._rank_directions(ctx, p - 1) == \
            tuple(range(p**k, 2 * p**k) for k in range(d))
        for e in (e for e in range(p, ctx.order) if (ctx.order - 1) % e == 0
                  and e % (p - 1) == 0):
            by_k = planarity._rank_directions(ctx, e)
            flat = [int(v) for vs in by_k for v in vs]
            assert flat == _orbit_minima(ctx, e)
            assert all(p**k <= v < 2 * p**k for k, vs in enumerate(by_k) for v in vs)
            assert len(by_k[-1])
    cubic = CubicCoeffs(F27, 1, ((1, 2, 0),)).candidate()
    assert planarity._monomial_scaling(cubic) == 2
    assert planarity._monomial_scaling(square_candidate(new_ctx(3, 1, 5, table_cap=1))) == 2


@pytest.mark.parametrize("pmn", [(3, 1, 2), (3, 2, 2), (5, 2, 2), (3, 1, 3), (5, 1, 4)],
                         ids=["F_9", "F_81", "F_625", "F_27", "F_5^4"])
def test_candidate_terms_merge_equal_exponents(pmn):
    # on n = 2, a x^(q+1) and a^q x^(q^2+q) share the exponent q + 1 mod
    # q^2 - 1 and are one term Tr(a) x^(q+1), none where Tr(a) = 0; on
    # n >= 3 the n trace exponents differ.  ell's terms are never merged
    ctx = new_ctx(*pmn)
    M, q, log = ctx.order - 1, ctx.q, ctx.log_table
    rng = np.random.default_rng(ctx.order)
    ell = LinearizedPoly(ctx, tuple(int(v) for v in rng.integers(1, ctx.order, ctx.degree)))
    ell_terms = {(int(log[c]), 2 * ctx.p**t % M) for t, c in enumerate(ell.coeffs)}
    traces = {ctx.rel_trace(a): a for a in range(1, ctx.order)}
    assert 0 in traces and len(traces) == ctx.q
    for a in traces.values():
        terms = PlanarCandidate(ctx, a, ell)._log_terms
        assert len({e for _, e in terms}) == len(terms)
        trace = set(terms) - ell_terms
        assert set(terms) - trace == ell_terms
        tr = ctx.rel_trace(a)
        if ctx.n == 2:
            assert trace == ({(int(log[tr]), q + 1)} if tr else set())
        else:
            assert trace == {(int(log[a]) * q**k % M, (q + 1) * q**k % M)
                             for k in range(ctx.n)}
    if pmn == (5, 2, 2):
        # q25 candidates: Tr(a) x^(q+1) and ell's two terms
        members = _planar_binomial_members(ctx, 3) + [
            MonomialFamilyParams(ctx, 1, b, c).candidate() for b, c in
            rng.integers(1, ctx.order, (20, 2)).tolist() if ctx.rel_norm(b) != ctx.rel_norm(c)]
        assert {len(cand._log_terms) for cand in members} == {3}


def test_monomial_sum_terms_merge_equal_exponents():
    # e and e + (order - 1) are one term, whose coefficients add; a pair
    # that cancels drops out, and so do zero coefficients
    ctx = F243
    M, log = ctx.order - 1, ctx.log_table
    c1, c2, c3 = 5, 17, 101
    f = MonomialSum(ctx, [(c1, 4), (c3, 7), (0, 9), (c2, 4 + M)])
    assert f._log_terms == ((log[ctx.add(c1, c2)], 4), (log[c3], 7))
    cancelling = MonomialSum(ctx, [(c1, 4), (c3, 7), (ctx.neg(c1), 4 + M)])
    assert cancelling._log_terms == ((log[c3], 7),)
    assert planarity._monomial_scaling(cancelling) == M


def test_scaling_is_read_once_per_function(monkeypatch):
    # brute force and rank read one cached group per candidate, however
    # often they run; a MonomialSum caches its own
    calls = []
    scaling = planarity._monomial_scaling
    monkeypatch.setattr(planarity, "_monomial_scaling",
                        lambda f: calls.append(f) or scaling(f))
    planar, = _planar_binomial_members(F625, 1)
    for _ in range(2):
        assert is_planar_bruteforce(planar).planar and is_planar_rank(planar).planar
    assert calls == [planar]
    square = MonomialSum(F625, [(1, 2)])
    assert is_planar_bruteforce(square).planar and is_planar_bruteforce(square).planar
    assert calls == [planar, square]


def _unmerged_scaling(cand):
    """The group read off every monomial of a candidate with a nonzero
    coefficient, equal exponents listed apart: the trace pair of a Tr(a) = 0
    row on n = 2 keeps its exponent, which can only make the group smaller."""
    M = cand.ctx.order - 1
    es = [e % M for c, e in cand.monomials if c]
    return math.gcd(M, *(e - es[0] for e in es))


@pytest.mark.parametrize("pmn", [(3, 1, 2), (3, 2, 2), (5, 2, 2), (3, 4, 2)],
                         ids=["F_9", "F_81", "F_625", "F_3^8"])
def test_traceless_rows_match_unmerged_groups(pmn, monkeypatch):
    # a Tr(a) = 0 row scales under the group of ell(x^2) alone, at least as
    # large as the unmerged terms give; rank and brute force scan fewer
    # directions and report the verdicts and witnesses the smaller group gives
    ctx = new_ctx(*pmn)
    rng = np.random.default_rng(ctx.order)
    zero_trace = [a for a in range(1, ctx.order) if ctx.rel_trace(a) == 0]
    while True:
        dense = LinearizedPoly(ctx, tuple(int(v) for v in
                                          rng.integers(0, ctx.order, ctx.degree)))
        if not dense.is_permutation():
            break
    ells = [LinearizedPoly.identity(ctx),
            LinearizedPoly.monomial(ctx, int(rng.integers(1, ctx.order)), ctx.degree - 1),
            LinearizedPoly.monomial(ctx, 1, ctx.m) - LinearizedPoly.identity(ctx), dense]
    rows = [(int(rng.choice(zero_trace)), ell) for ell in ells]

    def routes(a, ell):
        cand = PlanarCandidate(ctx, a, ell)
        return [(rep.planar, rep.witness) for rep in
                (is_planar_bruteforce(cand), is_planar_rank(cand))], cand._scaling

    merged = [routes(a, ell) for a, ell in rows]
    monkeypatch.setattr(planarity, "_monomial_scaling", _unmerged_scaling)
    unmerged = [routes(a, ell) for a, ell in rows]
    assert [m[0] for m in merged] == [u[0] for u in unmerged]
    assert [m[0][0][0] for m in merged] == [True, True, False, False]
    directions = lambda e: sum(map(len, planarity._rank_directions(ctx, e)))
    assert all(m[1] % u[1] == 0 for m, u in zip(merged, unmerged))
    assert any(directions(m[1]) < directions(u[1]) for m, u in zip(merged, unmerged))


def reference_reduction(cand):
    """The reduction over every v: (v, u/v, 0) at the lowest u, then v, at
    which Tr(a u^q v^(1-q) + a u v^(q-1)) + 2 ell(u) = 0, by vector field
    ops, over the u with ell(u) in F_q (no other u can vanish,
    test_reduction_skipped_u_never_vanish)."""
    ctx = cand.ctx
    vs = np.arange(1, ctx.order)
    up = ctx.pow_vec(vs, ctx.q - 1)
    down = ctx.inv_vec(up)
    values = cand.ell.values
    for u in range(1, ctx.order):
        lu = int(values[u])
        if not ctx.in_subfield(lu):
            continue
        t = ctx.add_vec(ctx.mul_vec(ctx.mul(cand.a, ctx.frobenius(u, ctx.m)), down),
                        ctx.mul_vec(ctx.mul(cand.a, u), up))
        hits = np.flatnonzero(ctx.add_vec(ctx.trace_table[t], ctx.mul(2, lu)) == 0)
        if len(hits):
            v = int(vs[hits[0]])
            return (v, ctx.mul(u, ctx.inv(v)), 0)
    return None


@pytest.mark.parametrize("pmn", [(3, 1, 5), (3, 2, 3), (3, 1, 7), (5, 2, 2),
                                 (5, 1, 5), (7, 1, 3), (3, 4, 2)],
                         ids=["F_3^5", "F_9^3", "F_3^7", "F_625", "F_5^5", "F_7^3",
                              "F_81^2"])
def test_reduction_over_coset_minima_matches_every_v(pmn):
    # the reduction tries the least v of each coset of F_q^*; a scan of
    # every v finds the same lowest (u, v)
    ctx = new_ctx(*pmn)
    cands = list(_random_candidates(ctx, 10)) + [square_candidate(ctx)]
    if pmn == (5, 2, 2):
        cands.append(example1_construct(ctx))
    vs, _ = planarity._reduction_logs(ctx)
    assert len(vs) == (ctx.order - 1) // (ctx.q - 1)
    found = [planarity._vanishing_point(cand) for cand in cands]
    assert found == [reference_reduction(cand) for cand in cands]
    assert {w is None for w in found} == {True, False}


def test_rank_scales_to_f_3_10():
    # 29 524 directions, under the default brute_cap
    ctx = new_ctx(3, 1, 10)
    started = time.perf_counter()
    assert is_planar_rank(square_candidate(ctx)).planar
    assert time.perf_counter() - started <= 5.0


def test_rank_refuses_more_directions_than_brute_cap(monkeypatch):
    ctx = new_ctx(3, 1, 5)  # 121 directions
    assert is_planar_rank(square_candidate(ctx), brute_cap=121).planar
    # refused before f is evaluated once
    monkeypatch.setattr(PlanarCandidate, "__call__", lambda self, x: 1 / 0)
    with pytest.raises(ValueError, match="121 rank directions exceed"):
        is_planar_rank(square_candidate(ctx), brute_cap=120)
    with pytest.raises(ValueError, match="88573 rank directions exceed"):
        is_planar_rank(square_candidate(new_ctx(3, 1, 11)))  # default cap


def test_invalid_witness_raises_under_python_O():
    # corrupt the witness of every route; the re-check must not be an assert
    script = textwrap.dedent("""
        import sys
        from ffplanar import field, planarity
        from ffplanar.field import new_ctx
        from ffplanar.linpoly import LinearizedPoly

        assert sys.flags.optimize
        ctx = new_ctx(3, 1, 2)
        cand = planarity.PlanarCandidate(ctx, 1, LinearizedPoly.zero(ctx))
        planarity._first_collisions = lambda diffs, cs: [(c, 0, 0) for c in cs.tolist()]
        planarity.fp_nullspace = lambda mat, p: [[0] * len(mat[0])]
        planarity._vanishing_point = lambda cand: (1, 0, 0)
        for route in (planarity.is_planar_bruteforce, planarity.is_planar_rank,
                      planarity.is_planar_reduction):
            try:
                route(cand)
            except RuntimeError:
                print(route.__name__)
        # and a batch's one re-check of all its witnesses
        batch = planarity.Batch([cand, planarity.PlanarCandidate(ctx, 1, cand.ell)])
        try:
            planarity.is_planar_bruteforce(batch.cands[1], batch=batch)
        except RuntimeError:
            print("Batch")
    """)
    src = str(Path(ffplanar.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["is_planar_bruteforce", "is_planar_rank",
                                  "is_planar_reduction", "Batch"]


@pytest.mark.parametrize("pmn", [(3, 1, 5), (5, 2, 2), (7, 1, 3), (3, 1, 7),
                                 (5, 1, 5), (3, 1, 8)],
                         ids=["F_3^5", "F_625", "F_7^3", "F_3^7", "F_5^5", "F_3^8"])
def test_batched_recheck_matches_check_witness(pmn):
    # the pinned stacks: every witness a batch's kernel run finds passes
    # check_witness in _verdict; a witness with c = 0, with x1 = x2, or with
    # x2 moved off its collision raises there, naming that witness
    ctx = new_ctx(*pmn)
    cands = list(_random_candidates(ctx, 12)) + [square_candidate(ctx)]
    batch = Batch(cands)
    reports = [is_planar_bruteforce(cand, batch=batch) for cand in cands]
    assert {rep.planar for rep in reports} == {True, False}
    assert all(check_witness(cand, ctx, rep.witness)
               for cand, rep in zip(cands, reports) if not rep.planar)
    i = max(i for i, rep in enumerate(reports) if not rep.planar)
    c, x1, x2 = reports[i].witness
    moved = next(x for x in range(x2 + 1, ctx.order)
                 if not check_witness(cands[i], ctx, (c, x1, x)))
    for bad in [(0, x1, x2), (c, x1, x1), (c, x1, moved)]:
        batch._witnesses[i] = bad
        with pytest.raises(RuntimeError,
                           match=re.escape(f"bruteforce produced an invalid witness {bad}")):
            is_planar_bruteforce(cands[i], batch=batch)


def test_reduction_skipped_u_never_vanish():
    # u with ell(u) outside F_q cannot satisfy the two-variable equation
    rng = np.random.default_rng(12)
    ell = LinearizedPoly(F27, tuple(int(v) for v in rng.integers(0, 27, 3)))
    a = 1
    for u in range(1, 27):
        lu = ell(u)
        if F27.pow(lu, 3) == lu:
            continue
        for v in range(1, 27):
            t = F27.rel_trace(
                F27.add(
                    F27.mul(F27.mul(a, F27.frobenius(u, 1)), F27.pow(v, 1 - 3)),
                    F27.mul(F27.mul(a, u), F27.pow(v, 3 - 1)),
                )
            )
            assert F27.add(t, F27.mul(2, lu)) != 0


def test_reduction_a0_matches_permutation():
    rng = np.random.default_rng(13)
    for _ in range(20):
        ell = LinearizedPoly(F27, tuple(int(v) for v in rng.integers(0, 27, 3)))
        cand = PlanarCandidate(F27, 0, ell)
        assert is_planar_reduction(cand).planar == ell.is_permutation()


def test_criterion_requires_quadratic_tower_and_zero_trace_is_permutation():
    with pytest.raises(ValueError):
        criterion_quadratic(PlanarCandidate(F27, 1, LinearizedPoly.zero(F27)))
    # Tr(a) = 0 makes Tr(a x^(q+1)) = N(x) Tr(a) vanish: f = ell(x^2) is
    # planar iff ell permutes
    rng = np.random.default_rng(15)
    verdicts = set()
    for a in (a for a in range(81) if F81_T.rel_trace(a) == 0):
        dense = LinearizedPoly(F81_T, tuple(int(c) for c in rng.integers(0, 81, 4)))
        for ell in (LinearizedPoly.zero(F81_T), LinearizedPoly.identity(F81_T),
                    LinearizedPoly.monomial(F81_T, int(rng.integers(1, 81)), 1), dense):
            cand = PlanarCandidate(F81_T, a, ell)
            verdict = criterion_quadratic(cand)
            assert verdict == ell.is_permutation() == is_planar_bruteforce(cand).planar
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_criterion_zero_ell_fails():
    a = F9.inv(2)
    cand = PlanarCandidate(F9, a, LinearizedPoly.zero(F9))
    assert not criterion_quadratic(cand)
    assert not is_planar_bruteforce(cand).planar


def test_criterion_linear_ell_depends_on_norm():
    # ell(x) = b x: planar iff 1 - N(b)^-1 is a nonzero square in F_q
    a = F9.inv(2)
    for b in range(1, 9):
        cand = PlanarCandidate(F9, a, LinearizedPoly.monomial(F9, b, 0))
        want = (
            F9.quadratic_character(
                F9.sub(1, F9.inv(F9.rel_norm(b))), level=1
            )
            == 1
        )
        assert criterion_quadratic(cand) == want
        assert is_planar_bruteforce(cand).planar == want


def test_criterion_agrees_with_bruteforce_on_monomials_f9():
    a = F9.inv(2)
    for b in F9.elements():
        for t in range(2):
            cand = monomial_candidate(F9, a, b, t)
            assert criterion_quadratic(cand) == is_planar_bruteforce(cand).planar


def fq_value_subspace(ell: LinearizedPoly) -> Subspace:
    """The subspace {u : ell(u) in F_q}, as the kernel of (x^q - x) o ell."""
    ctx = ell.ctx
    fq_test = LinearizedPoly.monomial(ctx, 1, ctx.m) - LinearizedPoly.identity(ctx)
    return LinearizedPoly.from_formal(
        ctx, compose_formal(ctx, fq_test.coeffs, ell.coeffs)).kernel()


def reference_criterion(cand):
    """criterion_quadratic on the kernel subspace, by scalar evaluation."""
    ctx = cand.ctx
    ell = cand.ell.scale(ctx.inv(ctx.rel_trace(cand.a)))
    for u in fq_value_subspace(ell).elements():
        lu = ell(u)
        w = ctx.sub(ctx.mul(lu, lu), ctx.rel_norm(u))
        if u and ctx.quadratic_character(w, level=1) != 1:
            return False
    return True


def test_fq_value_subspace():
    ell = LinearizedPoly.monomial(F9, 2, 0)  # u -> 2u, values in F_q iff u in F_q
    sub = fq_value_subspace(ell)
    assert sorted(sub.elements()) == F9.subfield_elements()


@pytest.mark.parametrize("pmn", [(3, 2, 2), (5, 2, 2), (7, 1, 2), (3, 3, 2),
                                 (13, 2, 2), (7, 3, 2)],
                         ids=["F_3^4", "F_5^4", "F_7^2", "F_3^6", "F_13^4", "F_7^6"])
def test_criterion_matches_kernel_reference(pmn, monkeypatch):
    # dense ell rarely lands in F_q off a small subspace; single terms give
    # larger value subspaces and planar candidates.  Both ways of finding the
    # F_q-valued u run on every tower: the value table and the kernel.
    ctx = new_ctx(*pmn)
    rng = np.random.default_rng(5)
    verdicts, cands, want = set(), [], []
    for i in range(60):
        a = 0
        while ctx.rel_trace(a) == 0:
            a = int(rng.integers(1, ctx.order))
        if i % 2:
            ell = LinearizedPoly(ctx, tuple(int(c) for c in
                                            rng.integers(0, ctx.order, ctx.degree)))
        else:
            ell = LinearizedPoly.monomial(ctx, int(rng.integers(0, ctx.order)),
                                          int(rng.integers(0, ctx.degree)))
        cand = PlanarCandidate(ctx, a, ell)
        verdict = reference_criterion(cand)
        for table_max in (0, ctx.order):  # kernel, then value table
            monkeypatch.setattr(planarity, "CRITERION_TABLE_MAX", table_max)
            assert criterion_quadratic(cand) == verdict
        verdicts.add(verdict)
        cands.append(cand)
        want.append(verdict)
    assert verdicts == {True, False}
    # the same candidates in one batch, with Tr(a) = 0 rows among them,
    # which test whether ell permutes; fresh polynomials, so that the table
    # route makes their tables as one stack
    for ell in (LinearizedPoly.identity(ctx), LinearizedPoly.zero(ctx)):
        cands.insert(7, PlanarCandidate(ctx, 0, ell))
        want.insert(7, ell.is_permutation())
    for table_max in (0, ctx.order):
        monkeypatch.setattr(planarity, "CRITERION_TABLE_MAX", table_max)
        batch = Batch([PlanarCandidate(ctx, cand.a, LinearizedPoly(ctx, cand.ell.coeffs))
                       for cand in cands])
        assert [criterion_quadratic(cand, batch) for cand in batch.cands] == want
        # the kernel route makes no table
        assert all(("values" in vars(cand.ell)) == (table_max > 0 and ctx.rel_trace(cand.a) != 0)
                   for cand in batch.cands)


def test_substitution_and_scaling_preserve_verdicts():
    rng = np.random.default_rng(14)
    for _ in range(8):
        a = int(rng.integers(0, 9))
        ell = LinearizedPoly(F9, tuple(int(v) for v in rng.integers(0, 9, 2)))
        cand = PlanarCandidate(F9, a, ell)
        base = is_planar_bruteforce(cand).planar
        for lam in range(1, 9):
            # x -> f(lam x): a lam^(q+1) and ell(lam^2 x)
            moved = PlanarCandidate(
                F9, F9.mul(a, F9.pow(lam, F9.q + 1)), LinearizedPoly.from_formal(
                    F9, compose_formal(F9, ell.coeffs, (F9.mul(lam, lam),))))
            assert all(moved(x) == cand(F9.mul(lam, x)) for x in range(9))
            assert is_planar_bruteforce(moved).planar == base
        for c in (1, 2):
            # c f with c in F_q^*
            scaled = PlanarCandidate(F9, F9.mul(c, a), ell.scale(c))
            assert all(scaled(x) == F9.mul(c, cand(x)) for x in range(9))
            assert is_planar_bruteforce(scaled).planar == base


def test_candidate_and_report_json_round_trip():
    cand = perm_example_candidate(F81_T)
    back = PlanarCandidate.from_json(cand.to_json())
    assert back == cand
    rep = is_planar_bruteforce(MonomialSum(F9, [(1, 4)]))
    obj = json.loads(json.dumps(rep.to_json(F9)))
    assert obj == {"planar": False, "method": rep.method, "ms": rep.ms,
                   "witness": {k: F9.format_element(e)
                               for k, e in zip(("c", "x1", "x2"), rep.witness)}}


def test_report_witness_consistency_enforced():
    with pytest.raises(ValueError):
        VerificationReport(False, "bruteforce", None, 0.0)
    with pytest.raises(ValueError):
        VerificationReport(True, "bruteforce", (1, 0, 1), 0.0)


def test_criterion_builds_no_norm_table_on_a_big_tower():
    # F_7^6 lies above CRITERION_TABLE_MAX: N(u) is taken of the criterion's
    # own u, so a first call on a fresh context makes no order-sized norm
    # table, and the verdicts are the kernel reference's
    ctx = field.FieldCtx(7, 3, 2, DEFAULT_TABLE_CAP)
    rng = np.random.default_rng(8)
    cands = []
    for i in range(12):
        a = 0
        while ctx.rel_trace(a) == 0:
            a = int(rng.integers(1, ctx.order))
        ell = LinearizedPoly.monomial(ctx, int(rng.integers(1, ctx.order)),
                                      int(rng.integers(0, ctx.degree)))
        cands.append(PlanarCandidate(ctx, a, ell))
    got = [criterion_quadratic(cand) for cand in cands]
    assert "norm_table" not in vars(ctx)
    assert got == [reference_criterion(cand) for cand in cands]
    assert set(got) == {True, False}


def reference_f(cand, x):
    """f(x) by the formula Tr(a x^(q+1)) + ell(x^2): rel_trace, a sum of
    conjugates, and eval_formal."""
    ctx = cand.ctx
    t = ctx.rel_trace(ctx.mul(cand.a, ctx.pow(x, ctx.q + 1)))
    return ctx.add(t, eval_formal(ctx, cand.ell.coeffs, ctx.mul(x, x)))


def _candidates_for_evaluation(ctx, rng):
    """a dense candidate, a = 0, ell = 0, one sparse ell, and on n = 2 a
    nonzero a with Tr(a) = 0."""
    dense = tuple(int(v) for v in rng.integers(0, ctx.order, ctx.degree))
    a = int(rng.integers(1, ctx.order))
    cands = [PlanarCandidate(ctx, a, LinearizedPoly(ctx, dense)),
             PlanarCandidate(ctx, 0, LinearizedPoly(ctx, dense)),
             PlanarCandidate(ctx, a, LinearizedPoly.zero(ctx)),
             PlanarCandidate(ctx, a, LinearizedPoly.monomial(ctx, 1, ctx.degree - 1)),
             PlanarCandidate(ctx, 0, LinearizedPoly.zero(ctx))]
    if ctx.n == 2:
        traceless = next(x for x in range(2, ctx.order) if ctx.rel_trace(x) == 0)
        cands.append(PlanarCandidate(ctx, traceless, LinearizedPoly(ctx, dense)))
    return cands


@pytest.mark.parametrize("pmn", [(3, 2, 2), (5, 2, 2), (3, 1, 5), (7, 1, 3), (3, 1, 7)],
                         ids=["F_81", "F_625", "F_3^5", "F_7^3", "F_3^7"])
def test_log_domain_f_matches_the_conjugate_formula_everywhere(pmn):
    # in table mode f is summed from its monomials through the Zech table
    ctx = new_ctx(*pmn)
    for cand in _candidates_for_evaluation(ctx, np.random.default_rng(ctx.order)):
        assert [cand(x) for x in ctx.elements()] == \
            [reference_f(cand, x) for x in ctx.elements()]


@pytest.mark.parametrize("pmn", [(3, 1, 10), (5, 1, 6), (3, 5, 2)],
                         ids=["F_3^10", "F_5^6", "F_3^10/F_243"])
def test_log_domain_f_matches_the_conjugate_formula_at_random_points(pmn):
    ctx = new_ctx(*pmn)
    rng = np.random.default_rng(ctx.order)
    xs = [0, 1, ctx.order - 1] + rng.integers(0, ctx.order, 300).tolist()
    for cand in _candidates_for_evaluation(ctx, rng):
        assert [cand(x) for x in xs] == [reference_f(cand, x) for x in xs]


def test_f_in_polynomial_mode_keeps_the_conjugate_formula():
    ctx = field.FieldCtx(3, 1, 5, table_cap=1)
    assert not ctx.table_mode
    rng = np.random.default_rng(5)
    for cand in _candidates_for_evaluation(ctx, rng):
        assert "_log_terms" not in vars(cand)
        assert [cand(x) for x in ctx.elements()] == \
            [reference_f(cand, x) for x in ctx.elements()]
        assert "_log_terms" not in vars(cand)


@pytest.mark.parametrize("table_cap", [DEFAULT_TABLE_CAP, 1], ids=["table", "polynomial"])
@pytest.mark.parametrize("pmn", [(3, 1, 2), (3, 2, 2), (3, 1, 3), (3, 1, 5)],
                         ids=["F_9", "F_81", "F_27", "F_3^5"])
def test_f_is_its_monomials_in_both_modes(pmn, table_cap):
    # one body sums f's merged terms, through the Zech table or with scalar
    # ops, and reads f(0) as a constant; the trace + ell formula is the
    # reference: n = 2 merges the trace pair, and the candidates include
    # a = 0, ell = 0 and, on n = 2, Tr(a) = 0
    ctx = field.FieldCtx(*pmn, table_cap)
    assert ctx.table_mode == (table_cap > 1)
    for cand in _candidates_for_evaluation(ctx, np.random.default_rng(ctx.order)):
        assert [cand(x) for x in ctx.elements()] == \
            [reference_f(cand, x) for x in ctx.elements()]
        assert vars(cand)["_at_zero"] == 0
        if ctx.n == 2:
            tr = ctx.rel_trace(cand.a)
            trace_terms = [(c, e) for c, e in cand._terms if e == ctx.q + 1]
            assert trace_terms == ([(tr, ctx.q + 1)] if tr else [])
    # a constant term is f(0); at x != 0 it merges with x^(order - 1)
    c = [int(v) for v in np.random.default_rng(3).integers(1, ctx.order, 3)]
    f = MonomialSum(ctx, [(c[0], 0), (c[1], 2), (c[2], ctx.order - 1)])
    assert f(0) == c[0] and vars(f)["_at_zero"] == c[0]
    assert [f(x) for x in range(1, ctx.order)] == \
        [ctx.add(ctx.add(c[0], c[2]), ctx.mul(c[1], ctx.mul(x, x))) for x in range(1, ctx.order)]


@pytest.mark.parametrize("table_cap", [DEFAULT_TABLE_CAP, 1], ids=["table", "polynomial"])
def test_monomial_sum_in_the_log_domain(table_cap):
    # e = 0 is the constant term, which is f(0); e >= order and repeated
    # exponents reduce mod order - 1 at x != 0; zero coefficients drop out
    ctx = field.FieldCtx(3, 1, 5, table_cap)
    rng = np.random.default_rng(7)
    c = [int(v) for v in rng.integers(1, ctx.order, 6)]
    f = MonomialSum(ctx, [(c[0], 0), (c[1], 2), (c[2], ctx.order + 3),
                          (c[3], 2), (0, 7), (c[4], ctx.order - 1), (c[5], 2 * ctx.order)])

    def reference(x):
        acc = 0
        for coeff, e in f.monomials:
            acc = ctx.add(acc, ctx.mul(coeff, ctx.pow(x, e)))
        return acc

    assert [f(x) for x in ctx.elements()] == [reference(x) for x in ctx.elements()]
    assert f(0) == c[0]
    assert MonomialSum(ctx, [(c[0], 0), (ctx.neg(c[0]), ctx.order - 1)])(0) == c[0]
    cancelling = MonomialSum(ctx, [(c[1], 4), (ctx.neg(c[1]), 4 + ctx.order - 1)])
    assert {cancelling(x) for x in ctx.elements()} == {0}


def test_scalar_f_builds_no_order_sized_table_but_zech():
    # on a fresh context above ADD_TABLE_CAP, scalar f, the scalar ops and a
    # rank verdict read the exp, log and Zech tables only
    ctx = field.FieldCtx(3, 1, 7, DEFAULT_TABLE_CAP)
    rng = np.random.default_rng(9)
    cand = PlanarCandidate(ctx, int(rng.integers(1, ctx.order)), LinearizedPoly(
        ctx, tuple(int(v) for v in rng.integers(0, ctx.order, ctx.degree))))
    ctx.zech_table
    values = [cand(x) for x in ctx.elements()]
    report = is_planar_rank(cand)
    assert not report.planar and check_witness(cand, ctx, report.witness)
    assert len(set(values)) > 1
    built = set(vars(ctx))
    assert "zech_table" in built
    assert not {"trace_table", "square_table", "add_matrix", "_add_planes"} & built
    assert "values" not in vars(cand.ell)
