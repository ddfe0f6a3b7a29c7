"""Canonical field construction: the modulus search against the slow walk it
replaced, the blocked exp/log table build against a per-power loop, exact
factoring, and towers far above the table cap built in seconds."""

import time

import numpy as np
import pytest

from ffplanar.field import (
    TABLE_BLOCK,
    FieldCtx,
    _x_order_is,
    find_primitive_modulus,
    new_ctx,
    prime_factors,
)


def trial_division_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n >= 1 by plain trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def reference_modulus(p: int, degree: int) -> tuple[int, ...]:
    """The canonical modulus by its definition: walk every coefficient tuple,
    c_0 most significant, and return the first with x of full order."""
    order = p**degree - 1
    factors = trial_division_factors(order)
    for idx in range(p**degree):
        coeffs = [(idx // p ** (degree - 1 - i)) % p for i in range(degree)]
        if coeffs[0] == 0:
            continue
        modulus = coeffs + [1]
        if _x_order_is(modulus, p, order, factors):
            return tuple(modulus)
    raise ValueError(f"no primitive polynomial of degree {degree} over F_{p}")


def reference_tables(p: int, modulus) -> tuple[np.ndarray, np.ndarray]:
    """exp/log tables one power of alpha at a time: shift the digits and
    reduce by the monic modulus."""
    d = len(modulus) - 1
    order = p**d
    exp = np.zeros(order - 1, dtype=np.int64)
    log = np.full(order, -1, dtype=np.int64)
    digits = [1] + [0] * (d - 1)
    for i in range(order - 1):
        idx = sum(c * p**k for k, c in enumerate(digits))
        exp[i] = idx
        log[idx] = i
        top = digits[-1]
        digits = [0] + digits[:-1]
        for j in range(d):
            digits[j] = (digits[j] - top * modulus[j]) % p
    return exp, log


def odd_primes(limit: int) -> list[int]:
    return [k for k in range(3, limit + 1, 2) if trial_division_factors(k) == [k]]


# Every (p, d) with p^d <= 3^8, p an odd prime: 881 fields.
SMALL_FIELDS = [(p, d) for p in odd_primes(3**8) for d in range(1, 9) if p**d <= 3**8]

# Above 3^8: a sample, which holds every degree above 3^8 that the tests, the
# selftest and bench/ build (F_3^9, F_5^6, F_7^5, F_11^4) except F_3^10.
SAMPLED_FIELDS = [(3, 9), (3, 11), (5, 6), (7, 5), (11, 4), (13, 4), (23, 3),
                  (101, 2)]

# Found once with reference_modulus, which took 8.4 s on F_3^10, 5.0 s on
# F_5^7, 13.7 s on F_7^6, 163 s on F_3^12 and 268 s on F_5^9.  F_3^10 is the
# largest tower the tests build (F_{9^5}).
PINNED_MODULI = {
    (3, 10): (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1),
    (5, 7): (2, 0, 0, 0, 0, 0, 1, 1),
    (7, 6): (3, 0, 0, 0, 1, 1, 1),
    (3, 12): (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1),
    (5, 9): (2, 0, 0, 0, 0, 0, 0, 2, 4, 1),
}


def test_modulus_matches_reference_on_every_small_field():
    assert len(SMALL_FIELDS) == 881
    for p, d in SMALL_FIELDS:
        assert find_primitive_modulus(p, d) == reference_modulus(p, d), (p, d)


@pytest.mark.parametrize("p,d", SAMPLED_FIELDS, ids=[f"F{p}^{d}" for p, d in SAMPLED_FIELDS])
def test_modulus_matches_reference_above_3_8(p, d):
    assert find_primitive_modulus(p, d) == reference_modulus(p, d)


@pytest.mark.parametrize("p,d", list(PINNED_MODULI), ids=[f"F{p}^{d}" for p, d in PINNED_MODULI])
def test_pinned_moduli(p, d):
    assert find_primitive_modulus(p, d) == PINNED_MODULI[(p, d)]


TABLE_FIELDS = [(3, 1), (7, 1), (65537, 1), (3, 2), (3, 5), (5, 4), (3, 8), (5, 6), (3, 9)]


@pytest.mark.parametrize("p,d", TABLE_FIELDS, ids=[f"F{p}^{d}" for p, d in TABLE_FIELDS])
def test_blocked_tables_match_power_loop(p, d):
    # F_3^8 and up span several blocks; the last block is partial
    assert 3**9 - 1 > 4 * TABLE_BLOCK
    ctx = FieldCtx(p, 1, d, table_cap=p**d)
    exp, log = reference_tables(p, ctx.modulus)
    assert np.array_equal(ctx.exp_table, exp)
    assert np.array_equal(ctx.log_table, log)


def test_table_build_rejects_a_non_primitive_modulus():
    ctx = FieldCtx.__new__(FieldCtx)
    ctx.p, ctx.degree, ctx.order = 3, 2, 9
    ctx.modulus = (1, 0, 1)  # x^2 + 1: x has order 4, not 8
    with pytest.raises(ValueError, match="full multiplicative order"):
        ctx._build_tables()


def test_prime_factors_matches_trial_division_up_to_1e5():
    for n in range(1, 10**5 + 1):
        assert prime_factors(n) == trial_division_factors(n), n


@pytest.mark.parametrize("n,factors", [
    (11**17 - 1, [2, 5, 50544702849929377]),
    (3**39 - 1, [2, 13, 313, 6553, 7333, 797161]),
    (7**22 - 1, [2, 3, 23, 1123, 293459, 10746341]),
    # strong pseudoprime to the bases 2..23, and a product of two 31-bit primes
    (3825123056546413051, [149491, 747451, 34233211]),
    ((2**31 - 1) * (2**31 + 11), [2**31 - 1, 2**31 + 11]),
    (10007**3 * 10009, [10007, 10009]),
    (2**61 - 1, [2**61 - 1]),
], ids=["11^17-1", "3^39-1", "7^22-1", "spsp", "semiprime", "prime-power", "M61"])
def test_prime_factors_pinned(n, factors):
    started = time.perf_counter()
    assert prime_factors(n) == factors
    assert time.perf_counter() - started < 1.0
    rest = n
    for f in factors:
        while rest % f == 0:
            rest //= f
    assert rest == 1


def test_prime_factors_below_two():
    assert prime_factors(1) == prime_factors(0) == prime_factors(-7) == []


# m * n = 39, 26, 22 and 17: polynomial mode, far above the table cap
BIG_TOWERS = [(3, 13, 3), (5, 13, 2), (7, 11, 2), (11, 1, 17)]


@pytest.mark.parametrize("p,m,n", BIG_TOWERS, ids=[f"F{p}^{m * n}" for p, m, n in BIG_TOWERS])
def test_big_towers_construct_in_seconds(p, m, n):
    started = time.perf_counter()
    ctx = new_ctx(p, m, n)
    assert time.perf_counter() - started < 10.0
    assert not ctx.table_mode
    g = ctx.generator
    assert ctx.pow(g, ctx.order - 1) == 1
    assert all(ctx.pow(g, (ctx.order - 1) // r) != 1
               for r in prime_factors(ctx.order - 1))
    a = ctx.add(g, ctx.pow(g, 7))
    t = ctx.rel_trace(a)
    assert ctx.in_subfield(t)


@pytest.mark.parametrize("p,d", [(3, 12), (5, 9)], ids=["F3^12", "F5^9"])
def test_pinned_towers_construct_in_table_mode(p, d):
    started = time.perf_counter()
    ctx = new_ctx(p, 1, d)
    assert time.perf_counter() - started < 10.0
    assert ctx.table_mode
    assert ctx.modulus == PINNED_MODULI[(p, d)]
    assert np.array_equal(ctx.log_table[ctx.exp_table], np.arange(ctx.order - 1))
