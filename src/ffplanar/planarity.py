"""Planarity tests for f(x) = Tr(a x^(q+1)) + ell(x^2), cross-validated.

Three independent routes decide whether every difference map
D_c(x) = f(x+c) - f(x), c != 0, permutes the field:

* bruteforce - evaluates the difference maps and checks bijectivity with a
  hit count, for any function given as a value table; since
  D_{-c}(x) = -D_c(x - c), D_c and D_{-c} permute together, so only the
  directions c < -c are evaluated;
* rank       - f is a Dembowski-Ostrom polynomial, so f(x+v) - f(x) - f(v) + f(0)
  is a symmetric F_p-bilinear form B(v, x); f is planar iff x -> B(v, x) has
  full rank for every v != 0.  Its matrix is sum_i v_i M_i, column j of M_i
  the digits of B(p^i, p^j), read from f itself (and from M_j for j < i);
  since B(lam v, x) = lam B(v, x) for lam in F_p^*, only one v per class
  {lam v} is tested, (p^d - 1)/(p - 1) directions in all, a block at a time;
* reduction  - substitutes x = u/v and scans the equivalent two-variable
  nonvanishing condition, skipping u whose ell-value lies outside F_q.

The skipped directions of the first two routes are never the least of their
class, so both still report the lowest non-permuting direction, with the
witness a scan of every direction would give.

Brute force forms x + c for a block of directions with no arithmetic on x:
with split = p^ceil(d/2), x + c is the digitwise sum of the high halves of x
and c plus that of their low halves, one broadcast of the block's sums with
every high half and every low half.
D_c(x) then comes from digit planes of f and -f, split once per call: per
plane, one gather of f's plane at x + c, one add of -f's plane and one reduce
lookup give the canonical index, and a hit count per row decides.  A block
holds at most BRUTE_BLOCK_ENTRIES values, or one row on a bigger field, and
the witness is read off the bad row.

A quadratic-extension criterion (n = 2) decides planarity from the values
ell(u)^2 - N(u) on the subspace where ell lands in F_q.

Brute force (through f_table), the reduction and the criterion all read ell
from its value table `LinearizedPoly.values`, built once per polynomial, so
a filter and an oracle run on one candidate share it.  Above
CRITERION_TABLE_MAX elements the criterion reads the d images ell(p^k)
instead, which costs it the size of its subspace, not of the field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BRUTE_CAP, check_shape
from .field import FieldCtx, ctx_from_json
from .linpoly import LinearizedPoly, digit_rows, fp_nullspace, fp_singular, span_table

# rank: directions per batched elimination; narrower blocks go one matrix at a
# time, which beats a numpy call when a non-planar input exits in a few
RANK_BLOCK = 1024
NARROW_BLOCK = 16
# n = 2 criterion: largest order that reads ell's value table; above it the
# F_q-valued u come from a kernel of the d images.  Reading a table already
# built is faster on F_3^8, level with the kernel on F_11^4 (14 641 elements)
# and slower from F_13^4 (28 561) up
CRITERION_TABLE_MAX = 20_000
# brute force: most difference values (directions x order) held at once; a
# block of directions wider than this is scanned in narrower pieces.  The
# kernel's int64 temporaries then stay within a 2 MB L2 cache: full scans of
# x^2 on F_3^7, F_5^5 and F_3^8 ran 1.7-2x faster than at 2^19 entries, and
# F_625 the same (2-vCPU Xeon)
BRUTE_BLOCK_ENTRIES = 1 << 16

# the JSON shape of a candidate, which PlanarCandidate.from_json checks
CANDIDATE_SHAPE = {
    "ctx": {"p": int, "m": int, "n": int, "modulus?": [int]},
    "a": str,
    "ell": {"coeffs": {str: str}},
}


@dataclass(frozen=True)
class PlanarCandidate:
    """f(x) = Tr(a x^(q+1)) + ell(x^2); a = 0 is admitted as a degenerate case."""

    ctx: FieldCtx
    a: int
    ell: LinearizedPoly

    def __post_init__(self):
        if self.ell.ctx != self.ctx:
            raise ValueError("candidate parts use different field contexts")
        if not 0 <= self.a < self.ctx.order:
            raise ValueError("coefficient index out of range")

    def __call__(self, x: int) -> int:
        ctx = self.ctx
        t = ctx.rel_trace(ctx.mul(self.a, ctx.pow(x, ctx.q + 1)))
        return ctx.add(t, self.ell(ctx.mul(x, x)))

    def f_table(self) -> np.ndarray:
        ctx = self.ctx
        # first, so that above the table cap it raises before any order-sized
        # array is made
        ell_sq = self.ell.eval_vec(ctx.square_table)
        xs = np.arange(ctx.order, dtype=np.int64)
        t = ctx.trace_table[ctx.mul_vec(self.a, ctx.pow_vec(xs, ctx.q + 1))]
        return ctx.add_vec(t, ell_sq)

    def to_json(self) -> dict:
        return {
            "ctx": self.ctx.to_json(),
            "a": self.ctx.format_element(self.a),
            "ell": self.ell.to_json(),
        }

    @classmethod
    def from_json(cls, obj, table_cap: int | None = None) -> "PlanarCandidate":
        check_shape(obj, CANDIDATE_SHAPE)
        ctx = ctx_from_json(obj["ctx"], table_cap)
        return cls(
            ctx,
            ctx.parse_element(obj["a"]),
            LinearizedPoly.from_json(ctx, obj["ell"]),
        )


@dataclass(frozen=True)
class VerificationReport:
    planar: bool
    method: str
    witness: tuple[int, int, int] | None
    ms: float

    def __post_init__(self):
        if not self.planar and self.witness is None:
            raise ValueError("a non-planar report needs a witness")
        if self.planar and self.witness is not None:
            raise ValueError("a planar report must not carry a witness")

    def to_json(self, ctx: FieldCtx) -> dict:
        wit = None
        if self.witness is not None:
            c, x1, x2 = self.witness
            wit = {
                "c": ctx.format_element(c),
                "x1": ctx.format_element(x1),
                "x2": ctx.format_element(x2),
            }
        return {"planar": self.planar, "method": self.method, "witness": wit,
                "ms": self.ms}


def check_witness(f, ctx: FieldCtx, witness) -> bool:
    """True iff f(x1+c) - f(x1) = f(x2+c) - f(x2) with x1 != x2, c != 0."""
    c, x1, x2 = witness
    if c == 0 or x1 == x2:
        return False
    d1 = ctx.sub(f(ctx.add(x1, c)), f(x1))
    d2 = ctx.sub(f(ctx.add(x2, c)), f(x2))
    return d1 == d2


def _checked(report: VerificationReport, f, ctx: FieldCtx) -> VerificationReport:
    """Re-verify a non-planar report's witness; raises, so that it also runs
    under python -O."""
    if report.witness is not None and not check_witness(f, ctx, report.witness):
        raise RuntimeError(f"{report.method} produced an invalid witness "
                           f"{report.witness}")
    return report


# ---------------------------------------------------------------------------
# Brute force on value tables.
# ---------------------------------------------------------------------------

def _first_collision(row: np.ndarray, c: int):
    """(c, x1, x2) for the c-difference values row: x2 the lowest x whose
    value an earlier x takes too, x1 the first x taking it."""
    xs = np.arange(len(row))
    first = np.full(len(row), len(row))
    np.minimum.at(first, row, xs)
    x2 = int(np.flatnonzero(first[row] != xs)[0])
    return (c, int(first[row[x2]]), x2)


def _block_widths(n: int):
    """Ascending scan widths: small leading blocks catch early witnesses in
    non-planar candidates without slowing down full scans much."""
    lo = 1
    for width in (16, 48, 64, 128):
        if lo >= n:
            return
        yield lo, min(lo + width, n)
        lo += width
    while lo < n:
        yield lo, min(lo + 256, n)
        lo += 256


def _table_planarity(ctx: FieldCtx, f_tab: np.ndarray, method: str,
                     started: float) -> VerificationReport:
    n = ctx.order
    differences = ctx.shifted_differences(f_tab)
    per_block = max(1, BRUTE_BLOCK_ENTRIES // n)
    for lo, hi in _block_widths(n):
        # c and -c permute together, so only the smaller of the two is scanned
        cs = np.arange(lo, hi, dtype=np.int64)
        cs = cs[cs < ctx.neg_vec(cs)]
        for start in range(0, len(cs), per_block):
            sub = cs[start:start + per_block]
            width = len(sub)
            # diffs[i, x] = f(x + sub[i]) - f(x), then offset so row i counts
            # hits in bins i*n .. i*n + n - 1
            diffs = differences(sub)
            diffs += (np.arange(width) * n)[:, None]
            counts = np.bincount(diffs.ravel(), minlength=width * n)
            bad = np.flatnonzero(counts.reshape(width, n).max(axis=1) > 1)
            if len(bad):
                i = int(bad[0])
                witness = _first_collision(diffs[i] - i * n, int(sub[i]))
                ms = (time.perf_counter() - started) * 1e3
                return VerificationReport(False, method, witness, ms)
    ms = (time.perf_counter() - started) * 1e3
    return VerificationReport(True, method, None, ms)


def is_planar_bruteforce(cand: PlanarCandidate,
                         brute_cap: int = DEFAULT_BRUTE_CAP) -> VerificationReport:
    """Exact verdict: checks bijectivity of every difference map by hit counts."""
    started = time.perf_counter()
    ctx = cand.ctx
    if ctx.order > brute_cap:
        raise ValueError(f"field order {ctx.order} exceeds brute-force cap {brute_cap}")
    return _checked(_table_planarity(ctx, cand.f_table(), "bruteforce", started),
                    cand, ctx)


def eval_general(ctx: FieldCtx, monomials, x: int) -> int:
    """Evaluate sum coeff * x^exp for a list of (coeff, exp) pairs."""
    acc = 0
    for coeff, e in monomials:
        acc = ctx.add(acc, ctx.mul(coeff, ctx.pow(x, e)))
    return acc


def general_table(ctx: FieldCtx, monomials) -> np.ndarray:
    xs = np.arange(ctx.order, dtype=np.int64)
    acc = np.zeros(ctx.order, dtype=np.int64)
    for coeff, e in monomials:
        if e == 0:
            term = np.full(ctx.order, coeff, dtype=np.int64)
        else:
            term = ctx.mul_vec(coeff, ctx.pow_vec(xs, e))
        acc = ctx.add_vec(acc, term)
    return acc


def is_planar_bruteforce_general(ctx: FieldCtx, monomials,
                                 brute_cap: int = DEFAULT_BRUTE_CAP) -> VerificationReport:
    """Brute-force planarity for an arbitrary polynomial given as monomials."""
    started = time.perf_counter()
    if ctx.order > brute_cap:
        raise ValueError(f"field order {ctx.order} exceeds brute-force cap {brute_cap}")
    report = _table_planarity(ctx, general_table(ctx, monomials), "bruteforce", started)
    return _checked(report, lambda x: eval_general(ctx, monomials, x), ctx)


# ---------------------------------------------------------------------------
# Rank test on the linear part of the difference maps.
# ---------------------------------------------------------------------------

def is_planar_rank(cand: PlanarCandidate,
                   brute_cap: int = DEFAULT_BRUTE_CAP) -> VerificationReport:
    """Planar iff the linear part of every difference map has full rank; the
    witness is (v, x0, 0), x0 the first nullspace vector of the first singular M_v.
    A field with more than `brute_cap` directions is refused before the scan."""
    started = time.perf_counter()
    ctx = cand.ctx
    p, d = ctx.p, ctx.degree
    directions = (p**d - 1) // (p - 1)
    if directions > brute_cap:
        raise ValueError(f"{directions} rank directions exceed brute-force cap {brute_cap}")
    seen = {}  # f at every point read so far; the witness check reads f(0) again
    f = lambda x: seen[x] if x in seen else seen.setdefault(x, cand(x))
    B = lambda x, y: ctx.digits(ctx.sub(ctx.add(f(x + y), f(0)), ctx.add(f(x), f(y))))
    # cols[k][j]: B(p^k, p^j), column j of M_k and row j of M_k^T; M_k is built
    # when the scan reaches p^k, by d - k new evaluations of f
    cols = []

    def combination(v):  # rows of sum_i v_i M_i, unreduced; v_k = 1 leads
        acc = cols[-1]
        for vi, c_i in zip(ctx.digits(v), cols[:-1]):
            if vi:
                acc = [[a + vi * b for a, b in zip(x, y)] for x, y in zip(acc, c_i)]
        return list(zip(*acc))

    for k in range(d):
        lead = p**k
        cols.append([c[k] for c in cols] + [B(lead, p**j) for j in range(k, d)])
        for lo in range(lead, 2 * lead, RANK_BLOCK):
            hi = min(lo + RANK_BLOCK, 2 * lead)
            if hi - lo < NARROW_BLOCK:
                tried = ((v, combination(v)) for v in range(lo, hi))
            else:
                # the block's M_v^T, and one elimination of them all
                digits = np.arange(lo, hi)[:, None] // p ** np.arange(k + 1) % p
                mats = (digits @ np.reshape(cols, (k + 1, -1)) % p).reshape(-1, d, d)
                tried = [(lo + int(i), mats[i].T.tolist())
                         for i in np.flatnonzero(fp_singular(mats, p))[:1]]
            for v, mat in tried:
                null = fp_nullspace(mat, p)
                if null:
                    witness = (v, ctx.from_digits(null[0]), 0)
                    ms = (time.perf_counter() - started) * 1e3
                    return _checked(VerificationReport(False, "rank", witness, ms),
                                    f, ctx)
    ms = (time.perf_counter() - started) * 1e3
    return VerificationReport(True, "rank", None, ms)


# ---------------------------------------------------------------------------
# Two-variable reduction.
# ---------------------------------------------------------------------------

def is_planar_reduction(cand: PlanarCandidate,
                        brute_cap: int = DEFAULT_BRUTE_CAP) -> VerificationReport:
    """Scans Tr(a u^q v^(1-q) + a u v^(q-1)) + 2 ell(u) != 0 over u, v != 0.

    Only u with ell(u) in F_q can produce a zero, so other u are skipped.
    """
    started = time.perf_counter()
    ctx = cand.ctx
    if ctx.order > brute_cap:
        raise ValueError(f"field order {ctx.order} exceeds brute-force cap {brute_cap}")
    vs = np.arange(1, ctx.order, dtype=np.int64)
    v_pow_up = ctx.pow_vec(vs, ctx.q - 1)       # v^(q-1)
    v_pow_dn = ctx.inv_vec(v_pow_up)            # v^(1-q)
    tr = ctx.trace_table
    ell = cand.ell.values
    # ascending u != 0 with ell(u) in F_q; ell(0) = 0 always is, and comes first
    for u in np.flatnonzero(ctx.pow_vec(ell, ctx.q) == ell)[1:].tolist():
        lu = int(ell[u])
        target = ctx.neg(ctx.mul(2, lu))
        auq = ctx.mul(cand.a, ctx.frobenius(u, ctx.m))
        au = ctx.mul(cand.a, u)
        vals = tr[ctx.add_vec(ctx.mul_vec(auq, v_pow_dn), ctx.mul_vec(au, v_pow_up))]
        hits = np.nonzero(vals == target)[0]
        if len(hits):
            v = int(vs[hits[0]])
            witness = (v, ctx.mul(u, ctx.inv(v)), 0)
            ms = (time.perf_counter() - started) * 1e3
            return _checked(VerificationReport(False, "reduction", witness, ms),
                            cand, ctx)
    ms = (time.perf_counter() - started) * 1e3
    return VerificationReport(True, "reduction", None, ms)


# ---------------------------------------------------------------------------
# Closed criterion on quadratic extensions.
# ---------------------------------------------------------------------------

def criterion_quadratic(cand: PlanarCandidate) -> bool:
    """Planarity criterion for n = 2: after normalizing f to x^(q+1) + ell(x^2),
    every nonzero u with ell(u) in F_q must make ell(u)^2 - N(u) a nonzero
    square in F_q."""
    ctx = cand.ctx
    if ctx.n != 2:
        raise ValueError("the quadratic criterion requires a degree-2 tower")
    ctx._need_tables()  # before any order-sized array is built
    tr_a = ctx.rel_trace(cand.a)
    if tr_a == 0:
        raise ValueError("criterion requires Tr(a) != 0; use a permutation check")
    us, lu = _fq_values(cand.ell)
    # ell / Tr(a) lies in F_q exactly where ell does
    lu = ctx.mul_vec(ctx.inv(tr_a), lu)
    w = ctx.sub_vec(ctx.mul_vec(lu, lu), ctx.norm_table[us])
    return bool(np.all(ctx.subfield_eta_table[w] == 1))


def _fq_values(ell: LinearizedPoly) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the nonzero u with ell(u) in F_q and of their ell(u).

    Up to CRITERION_TABLE_MAX elements they are read off ell's value table.
    Above it, u runs over the kernel of u -> ell(u)^q - ell(u), found from
    the d images ell(p^k) by fp_nullspace; the span tables of its basis and
    of the basis images list u and ell(u), so the cost follows the kernel's
    size instead of the field's."""
    ctx = ell.ctx
    if ctx.order <= CRITERION_TABLE_MAX:
        vals = ell.values
        us = np.flatnonzero(ctx.pow_vec(vals, ctx.q) == vals)[1:]  # [0] is u = 0
        return us, vals[us]
    p = ctx.p
    moved = digit_rows(ctx, [ctx.sub(ctx.frobenius(v, ctx.m), v) for v in ell.images])
    basis = np.array(fp_nullspace(moved.T, p), dtype=np.int64)
    images = digit_rows(ctx, ell.images)
    # position 0 of a span table is u = 0
    return span_table(ctx, basis)[1:], span_table(ctx, basis @ images % p)[1:]
