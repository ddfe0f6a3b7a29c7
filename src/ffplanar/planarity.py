"""Planarity tests for f(x) = Tr(a x^(q+1)) + ell(x^2), cross-validated.

Three independent routes decide whether every difference map
D_c(x) = f(x+c) - f(x), c != 0, permutes the field:

* bruteforce - evaluates the difference maps and checks bijectivity with a
  hit count, for any function given as a value table: a candidate, or any
  polynomial as a MonomialSum; since D_{-c}(x) = -D_c(x - c), D_c and
  D_{-c} permute together, so only the directions c < -c are evaluated.
  Every candidate, a Dembowski-Ostrom polynomial, has f(lam x) = lam^2 f(x)
  for lam in F_p^*, so D_{lam c}(lam x) = lam^2 D_c(x) and D_c permutes iff
  D_{lam c} does: on a stack whose tables all pass that test for a
  generator of F_p^*, only the directions whose leading base-p digit is 1
  are evaluated, one per class {lam c}, as in rank;
* rank       - f is a Dembowski-Ostrom polynomial, so f(x+v) - f(x) - f(v) + f(0)
  is a symmetric F_p-bilinear form B(v, x); f is planar iff x -> B(v, x) has
  full rank for every v != 0.  Its matrix is sum_i v_i M_i, column j of M_i
  the digits of B(p^i, p^j), read from f itself (and from M_j for j < i);
  since B(lam v, x) = lam B(v, x) for lam in F_p^*, only one v per class
  {lam v} is tested, (p^d - 1)/(p - 1) directions in all, a block at a time;
* reduction  - substitutes x = u/v and scans the equivalent two-variable
  nonvanishing condition, skipping u whose ell-value lies outside F_q.

Each route refuses an input over its cap before any work, then runs a search
that returns a witness (c, x1, x2) or None; `_verdict` times the call,
re-checks the witness on f and builds the report.  The skipped directions of
the first two routes are never the least of their pair or class, so both
still report the lowest non-permuting direction, with the witness a scan of
every direction would give.

Brute force and the criterion work on a stack of candidates of one field.
A `Batch` holds candidates checked together: the first brute-force or
criterion call on one of them runs for all of them, and later calls read
their row.  Without a batch a call is a stack of one, so a scan batch and a
single verify run the same code.

Brute force forms x + c for a block of directions with no arithmetic on x:
with split = p^ceil(d/2), x + c is the digitwise sum of the high halves of x
and c plus that of their low halves, one broadcast of the block's sums with
every high half and every low half.
D_c(x) then comes from digit planes of the value tables and their
negations, split once per stack: per plane, one gather at x + c, one add and
one reduce lookup give the canonical index, and a hit count per row decides.
Blocks double in width from ceil(8 / k) directions on a stack of k up to
BRUTE_BLOCK_ENTRIES values (one row on a bigger field); each block runs on
every candidate still undecided, and a candidate leaves the stack with the
witness read off its first bad row.

A quadratic-extension criterion (n = 2) decides planarity from the values
ell(u)^2 - N(u) on the subspace where ell lands in F_q, or, when Tr(a) = 0,
from whether ell permutes.  The subspace test runs on all rows of a stack
at once, over the pairs (u, ell(u)) of every row.

Brute force (through f_table), the reduction and the criterion all read ell
from its value table `LinearizedPoly.values`, built once per polynomial, so
a filter and an oracle run on one candidate share it; a batch makes the
missing tables of all its ell as one stack (`linpoly.fill_values`).  Above
CRITERION_TABLE_MAX elements the reduction and the criterion read the d
images ell(p^k) instead, which costs them the size of the F_q-valued
subspace, not of the field.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BRUTE_CAP, check_shape
from .field import FieldCtx, ctx_from_json
from .linpoly import (
    LinearizedPoly,
    digit_rows,
    fill_values,
    fp_nullspace,
    fp_singular,
    span_table,
)

# rank: directions per batched elimination; narrower blocks go one matrix at a
# time, which beats a numpy call when a non-planar input exits in a few
RANK_BLOCK = 1024
NARROW_BLOCK = 16
# n = 2 criterion and reduction: largest order that reads ell's value table
# for the F_q-valued u; above it they come from a kernel of the d images.
# Reading a table already built is faster on F_3^8, level with the kernel on
# F_11^4 (14 641 elements) and slower from F_13^4 (28 561) up
CRITERION_TABLE_MAX = 20_000
# brute force: most difference values (directions x candidates x order) held
# at once, the cap on the doubling block widths and on the candidates a block
# runs on together.  The kernel's int64 temporaries then stay within a 2 MB
# L2 cache: full scans of x^2 on F_3^7, F_5^5 and F_3^8 ran 1.7-2x faster
# than at 2^19 entries, and F_625 the same (2-vCPU Xeon)
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
        return f_tables([self])[0]

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


def f_tables(cands: Sequence[PlanarCandidate]) -> np.ndarray:
    """(k, order) value tables of k candidates of one field, from the value
    tables of their ell, the missing ones made as one stack."""
    ctx = cands[0].ctx
    # ell's tables first, so that above the table cap it raises before any
    # order-sized array is made
    fill_values([cand.ell for cand in cands])
    ell_sq = np.array([cand.ell.values for cand in cands])[:, ctx.square_table]
    xs = np.arange(ctx.order, dtype=np.int64)
    a = np.array([cand.a for cand in cands], dtype=np.int64)[:, None]
    t = ctx.trace_table[ctx.mul_vec(a, ctx.pow_vec(xs, ctx.q + 1))]
    return ctx.add_vec(t, ell_sq)


def check_witness(f, ctx: FieldCtx, witness) -> bool:
    """True iff f(x1+c) - f(x1) = f(x2+c) - f(x2) with x1 != x2, c != 0."""
    c, x1, x2 = witness
    if c == 0 or x1 == x2:
        return False
    d1 = ctx.sub(f(ctx.add(x1, c)), f(x1))
    d2 = ctx.sub(f(ctx.add(x2, c)), f(x2))
    return d1 == d2


def _verdict(method: str, f, ctx: FieldCtx, started: float,
             witness) -> VerificationReport:
    """The report of a route whose search began at `started` and found
    `witness`, or None; a witness is re-checked on f first, by a raise, so
    that the check also runs under python -O."""
    ms = (time.perf_counter() - started) * 1e3
    if witness is not None and not check_witness(f, ctx, witness):
        raise RuntimeError(f"{method} produced an invalid witness {witness}")
    return VerificationReport(witness is None, method, witness, ms)


@dataclass(frozen=True)
class MonomialSum:
    """f(x) = sum coeff * x^exp over (coeff, exp) pairs: any polynomial, for
    brute force on functions outside the candidate shape.  One that is not
    homogeneous of degree 2 over F_p (x^2 + x, say) keeps the scan of every
    c < -c, and so does any stack it is part of."""

    ctx: FieldCtx
    monomials: Sequence[tuple[int, int]]

    def __call__(self, x: int) -> int:
        ctx, acc = self.ctx, 0
        for coeff, e in self.monomials:
            acc = ctx.add(acc, ctx.mul(coeff, ctx.pow(x, e)))
        return acc

    def f_table(self) -> np.ndarray:
        ctx = self.ctx
        xs = np.arange(ctx.order, dtype=np.int64)
        acc = np.zeros(ctx.order, dtype=np.int64)
        for coeff, e in self.monomials:
            if e == 0:
                term = np.full(ctx.order, coeff, dtype=np.int64)
            else:
                term = ctx.mul_vec(coeff, ctx.pow_vec(xs, e))
            acc = ctx.add_vec(acc, term)
        return acc


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


def _homogeneous(ctx: FieldCtx, f_tabs: np.ndarray) -> bool:
    """True iff every row has f(g x) = g^2 f(x) for all x, g generating F_p^*,
    and so f(lam x) = lam^2 f(x) for every lam in F_p^*."""
    gx, g2x = ctx.prime_scalings
    return bool((f_tabs[:, gx] == g2x[f_tabs]).all())


def _bad_direction(ctx: FieldCtx, f_tabs: np.ndarray) -> list:
    """For each row of a (k, order) stack of value tables, (c, x1, x2) for
    the lowest c whose difference map does not permute, or None.

    The directions are one of each pair {c, -c}, or one of each class
    {lam c} when every row is homogeneous (`_homogeneous`); the least of a
    class has leading digit 1, so either set holds the lowest bad direction.
    Blocks of directions double in width from ceil(8 / k), so that early
    witnesses cost little and a stack of one starts at 8, up to
    BRUTE_BLOCK_ENTRIES values.  Each block is evaluated for every row still
    undecided, as many rows at a time as keep block x rows x order within
    BRUTE_BLOCK_ENTRIES, and a row drops out at its first bad direction."""
    n, p = ctx.order, ctx.p
    # the directions whose leading base-p digit is below `top`: one of each
    # pair {c, -c} for top = (p + 1) / 2, one of each class {lam c} for 2;
    # for p = 3 the two are the same set
    top = 2 if p > 3 and _homogeneous(ctx, f_tabs) else (p + 1) // 2
    cs = np.concatenate([np.arange(p**k, top * p**k) for k in range(ctx.degree)])
    widest = max(1, BRUTE_BLOCK_ENTRIES // n)
    found = [None] * len(f_tabs)
    live = list(range(len(f_tabs)))  # the rows of f_tabs still undecided
    differences = ctx.shifted_differences(f_tabs)
    lo, width = 0, -(-8 // len(f_tabs))
    while lo < len(cs) and live:
        block = cs[lo:lo + min(width, widest)]
        lo, width = lo + len(block), 2 * width
        step = max(1, BRUTE_BLOCK_ENTRIES // (len(block) * n))
        decided = False
        for start in range(0, len(live), step):
            # diffs[r, i, x] = f_r(x + block[i]) - f_r(x), then offset so that
            # pair j = r * len(block) + i counts hits in bins j*n .. j*n + n - 1
            diffs = differences(block, slice(start, start + step))
            pairs = diffs.shape[0] * len(block)
            diffs += np.arange(0, pairs * n, n).reshape(-1, len(block), 1)
            counts = np.bincount(diffs.ravel(), minlength=pairs * n)
            bad = np.flatnonzero(counts.reshape(pairs, n).max(axis=1) > 1)
            # bad pairs ascend, so a row's first one is its lowest direction
            for j in bad.tolist():
                r, i = divmod(j, len(block))
                row = live[start + r]
                if found[row] is None:
                    found[row] = _first_collision(diffs[r, i] - j * n, int(block[i]))
                    decided = True
        if decided:
            live = [row for row in live if found[row] is None]
            if live:
                differences = ctx.shifted_differences(f_tabs[live])
    return found


def is_planar_bruteforce(f: PlanarCandidate | MonomialSum,
                         brute_cap: int = DEFAULT_BRUTE_CAP,
                         batch: Batch | None = None) -> VerificationReport:
    """Exact verdict for a candidate or any MonomialSum: checks bijectivity
    of every difference map by hit counts.  A candidate of `batch` reads its
    witness from the batch's one kernel run."""
    started = time.perf_counter()
    ctx = f.ctx
    if ctx.order > brute_cap:
        raise ValueError(f"field order {ctx.order} exceeds brute-force cap {brute_cap}")
    witness = (_bad_direction(ctx, f.f_table()[None])[0] if batch is None
               else batch.witness(f))
    return _verdict("bruteforce", f, ctx, started, witness)


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
    return _verdict("rank", f, ctx, started, _singular_direction(ctx, f))


def _singular_direction(ctx: FieldCtx, f):
    """(v, x0, 0) for the first v whose M_v is singular, or None."""
    p, d = ctx.p, ctx.degree
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
                    return (v, ctx.from_digits(null[0]), 0)
    return None


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
    return _verdict("reduction", cand, ctx, started, _vanishing_point(cand))


def _vanishing_point(cand: PlanarCandidate):
    """(v, u/v, 0) for the lowest u, then v, at which the reduced form
    vanishes, or None."""
    ctx = cand.ctx
    vs = np.arange(1, ctx.order, dtype=np.int64)
    v_pow_up = ctx.pow_vec(vs, ctx.q - 1)       # v^(q-1)
    v_pow_dn = ctx.inv_vec(v_pow_up)            # v^(1-q)
    tr = ctx.trace_table
    _, us, lus = _fq_values(ctx, [cand.ell])
    for u, lu in zip(us.tolist(), lus.tolist()):
        target = ctx.neg(ctx.mul(2, lu))
        auq = ctx.mul(cand.a, ctx.frobenius(u, ctx.m))
        au = ctx.mul(cand.a, u)
        vals = tr[ctx.add_vec(ctx.mul_vec(auq, v_pow_dn), ctx.mul_vec(au, v_pow_up))]
        hits = np.nonzero(vals == target)[0]
        if len(hits):
            v = int(vs[hits[0]])
            return (v, ctx.mul(u, ctx.inv(v)), 0)
    return None


# ---------------------------------------------------------------------------
# Closed criterion on quadratic extensions.
# ---------------------------------------------------------------------------

def criterion_quadratic(cand: PlanarCandidate, batch: Batch | None = None) -> bool:
    """Planarity criterion for n = 2: after normalizing f to x^(q+1) + ell(x^2),
    every nonzero u with ell(u) in F_q must make ell(u)^2 - N(u) a nonzero
    square in F_q.  If Tr(a) = 0, Tr(a x^(q+1)) = N(x) Tr(a) vanishes, and f
    is planar iff ell permutes.  A candidate of `batch` reads its verdict
    from the batch's one run of the criterion."""
    return (Batch([cand]) if batch is None else batch).criterion(cand)


def _quadratic_criteria(cands: Sequence[PlanarCandidate]) -> list[bool]:
    """criterion_quadratic of each candidate of a stack on one n = 2 tower.

    Rows with Tr(a) = 0 test whether ell permutes; the others go through one
    masked core over the pairs (u, ell(u)) of all of them (`_fq_values`)."""
    ctx = cands[0].ctx
    if ctx.n != 2:
        raise ValueError("the quadratic criterion requires a degree-2 tower")
    tr_a = [ctx.rel_trace(cand.a) for cand in cands]
    verdicts = [tr == 0 and cand.ell.is_permutation() for cand, tr in zip(cands, tr_a)]
    live = [i for i, tr in enumerate(tr_a) if tr]
    if not live:
        return verdicts
    ctx._need_tables()  # before any order-sized array is built
    rows, us, lu = _fq_values(ctx, [cands[i].ell for i in live])
    # ell / Tr(a) lies in F_q exactly where ell does, and (ell / Tr(a))^2 -
    # N(u) times the nonzero square Tr(a)^2 of F_q, ell^2 - Tr(a)^2 N(u), has
    # the same character
    tr_sq = np.array([ctx.mul(tr_a[i], tr_a[i]) for i in live], dtype=np.int64)
    w = ctx.sub_vec(ctx.mul_vec(lu, lu), ctx.mul_vec(tr_sq[rows], ctx.norm_table[us]))
    bad = set(rows[ctx.subfield_eta_table[w] != 1].tolist())
    for r, i in enumerate(live):
        verdicts[i] = r not in bad
    return verdicts


def _fq_values(ctx: FieldCtx, ells: Sequence[LinearizedPoly]):
    """(rows, us, ell(u)) over the nonzero u with ell(u) in F_q of each
    polynomial of a list on one field: index arrays, row by row, u ascending.

    Up to CRITERION_TABLE_MAX elements they are read off the stack of the
    polynomials' value tables, the missing ones made as one stack.  Above
    it, u runs over the kernel of u -> ell(u)^q - ell(u), found from the d
    images ell(p^k) by fp_nullspace; the span tables of its basis and of the
    basis images list u and ell(u), so the cost follows the kernel's size
    instead of the field's."""
    if ctx.order <= CRITERION_TABLE_MAX:
        fill_values(ells)
        tabs = np.array([ell.values for ell in ells])
        in_fq = ctx.pow_vec(tabs, ctx.q) == tabs
        in_fq[:, 0] = False
        rows, us = np.nonzero(in_fq)
        return rows, us, tabs[rows, us]
    p, us, lus = ctx.p, [], []
    for ell in ells:
        moved = [ctx.sub(ctx.frobenius(v, ctx.m), v) for v in ell.images]
        basis = np.array(fp_nullspace(digit_rows(ctx, moved).T, p), dtype=np.int64)
        images = digit_rows(ctx, ell.images)
        span = span_table(ctx, basis)
        ascending = np.argsort(span)[1:]  # u = 0 sorts first
        us.append(span[ascending])
        lus.append(span_table(ctx, basis @ images % p)[ascending])
    rows = np.repeat(np.arange(len(ells)), [len(u) for u in us])
    return rows, np.concatenate(us), np.concatenate(lus)


# ---------------------------------------------------------------------------
# Candidates checked together.
# ---------------------------------------------------------------------------

class Batch:
    """Candidates of one field checked together.  The first brute-force call
    on any of them runs the kernel once on the stack of all their value
    tables, the first criterion call runs one masked core over all of them,
    and every call reads its candidate's row.  The ell tables both read are
    made as one stack and cached on each polynomial, where a reduction oracle
    finds them too."""

    def __init__(self, cands: Sequence[PlanarCandidate]):
        self.cands = list(cands)
        self._rows = {id(cand): i for i, cand in enumerate(self.cands)}

    def witness(self, cand: PlanarCandidate):
        return self._witnesses[self._rows[id(cand)]]

    def criterion(self, cand: PlanarCandidate) -> bool:
        return self._criteria[self._rows[id(cand)]]

    @functools.cached_property
    def _witnesses(self) -> list:
        return _bad_direction(self.cands[0].ctx, f_tables(self.cands))

    @functools.cached_property
    def _criteria(self) -> list[bool]:
        return _quadratic_criteria(self.cands)
