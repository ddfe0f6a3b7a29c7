"""Planarity tests for f(x) = Tr(a x^(q+1)) + ell(x^2), cross-validated.

Three independent routes decide whether every difference map
D_c(x) = f(x+c) - f(x), c != 0, permutes the field:

* bruteforce - evaluates the difference maps and checks bijectivity by the
  values each one hits, for any function given as a value table: a
  candidate, or any polynomial as a MonomialSum; since D_{-c}(x) =
  -D_c(x - c), D_c and D_{-c} permute together.  If f(lam x) = mu f(x) for
  all x, then D_{lam c}(lam x) = mu D_c(x), and D_c and D_{lam c} permute
  together too.
  Every candidate, a Dembowski-Ostrom polynomial, scales so under F_p^*
  (mu = lam^2), and many under a larger subgroup of F^* (x^2 under all of
  it), read off f's monomials as rank reads it.  So brute force evaluates
  only the least direction of each coset of the group it generates with -1.
  Every candidate is even too, f(-x) = f(x), and then E(y) = D_c(y - c/2)
  is odd: D_c permutes iff y -> {E(y), -E(y)} is injective on 0 and one of
  each pair {y, -y}, so each direction is evaluated at (order+1)/2 points;
* rank       - f is a Dembowski-Ostrom polynomial, so f(x+v) - f(x) - f(v) + f(0)
  is a symmetric F_p-bilinear form B(v, x); f is planar iff x -> B(v, x) has
  full rank for every v != 0.  Its matrix is sum_i v_i M_i, column j of M_i
  the digits of B(p^i, p^j), read from f itself (and from M_j for j < i).
  If f(lam x) = mu f(x), then B(lam v, lam x) = mu B(v, x), and M_v and
  M_{lam v} are singular together.  f scales so under every lam with
  lam^(e_i - e_0) = 1 over its monomials' exponents e_i, a subgroup of
  order e = gcd(order - 1, e_i - e_0) that holds F_p^*; only the least v
  of each of its cosets is tested, a block at a time (a narrow block one
  matrix at a time by forward elimination alone), and M_k is built only
  while some such v lies at or above p^k: planar x^2 tests v = 1 alone.
  Where e = p - 1, and outside table mode, that is every v whose top
  digit is 1, (p^d - 1)/(p - 1) directions.  Only the first singular
  matrix is reduced, for its witness;
* reduction  - substitutes x = u/v and scans the equivalent two-variable
  nonvanishing condition, skipping u whose ell-value lies outside F_q; it
  reads v only through v^(q-1), so only the least v of each coset of
  F_q^* is tried, (order - 1)/(q - 1) of them per u.

Each route refuses an input over its cap before any work, then runs a search
that returns a witness (c, x1, x2) or None; `_verdict` times the call,
re-checks the witness on f and builds the report.  Scalar f, which rank's
basis values and the re-check read, is in table mode the sum of f's
monomials (f is Dembowski-Ostrom), a^(q^k) x^((q+1) q^k) for the trace and
c_t x^(2 p^t) for ell, with the coefficients of equal exponents mod
order - 1 added and zero sums dropped: on n = 2 the trace pair is one term
Tr(a) x^(q+1), and none where Tr(a) = 0.  A candidate and a MonomialSum
keep these terms as (log coefficient, exponent) pairs, made by one builder
(`_merged_log_terms`), and read their scaling group off the same pairs.
Each term at x is one exponent, and `FieldCtx.log_sum` adds them through
the Zech table, so scalar f reads no value table, addition table or digit
plane; polynomial mode sums the conjugates and ell's terms with scalar ops.
The directions and v the three scans skip are never the least of their
coset, so each still reports the lowest non-permuting direction (the
lowest vanishing v), with the witness a scan of every one would give.

Brute force and the criterion work on a stack of candidates of one field.
A `Batch` holds candidates checked together: the first brute-force or
criterion call on one of them runs for all of them, and later calls read
their row.  Without a batch a call is a stack of one, so a scan batch and a
single verify run the same code, and every witness, batched or not, is
re-checked by `_verdict`.

Brute force reads each direction c as E(y) = f(y + h) - f(y - h), h = c/2,
at points y of a set S (`FieldCtx.shifted_differences`).  On a stack of
even tables S is 0 and one of each pair {y, -y}, and each value counts as
its pair {v, -v}: (order+1)/2 values in as many pairs, so D_c permutes iff
no pair is hit twice.  Any other stack (x^2 + x as a MonomialSum, alone or
among candidates) reads S = F and the values themselves.  A block's index
tables of y + h and y - h over S need no arithmetic on y: with split =
p^ceil(d/2), y + h is the digitwise sum of the high halves of y and h plus
that of their low halves, one broadcast of the block's sums with the high
halves of S and every low half, and the tables of the blocks seen last are
kept per field.  E then comes from digit planes of the value tables and
their negations, split once per stack: per plane, one gather at y + h and
one at y - h along the table axis, one add and one reduce lookup give the
class.  A row has as many values as classes in each direction, so it
permutes there iff no two of its values share a class: sorted, no two
neighbours are equal.
Blocks double in width from ceil(8 / k) directions on a stack of k up to
BRUTE_BLOCK_ENTRIES / order (one row on a bigger field); each block runs on
every candidate still undecided, passed to the kernel as an index array
into the stack, which is split into digit planes once.  A candidate leaves
the stack at its first bad direction, and one collision pass per stack,
after the scan, reads the witnesses of all the candidates it decided off
D_c of their first bad directions, in x order, on x <= p^(d-1) alone:
where D_c is F_p-affine, as on every candidate, and not injective, its
kernel holds a w with top digit 1 at some position t, and x = p^t and
x - w < x take one value.  A row with no repeat there (a table that is not
affine) is read again over the whole field.
The first block takes the least of each pair {c, -c}.  Only the candidates
still undecided after it take a scaling group: the gcd of the orders their
monomials give (`_monomial_scaling`), kept if its generator scales every
point of their tables (`_scales`), else the scan keeps the pairs.

A quadratic-extension criterion (n = 2) decides planarity from the values
ell(u)^2 - N(u) on the subspace where ell lands in F_q, or, when Tr(a) = 0,
from whether ell permutes.  The subspace test runs on all rows of a stack
at once, over the pairs (u, ell(u)) of every row.

Brute force (through f_table), the reduction and the criterion all read ell
from its value table `LinearizedPoly.values`, built once per polynomial, so
a filter and an oracle run on one candidate share it; a batch makes the
missing tables of all its ell as one stack, their basis images ell(p^k)
included, by one vector pass with no scalar field op (`linpoly.fill_values`),
and f_tables takes the trace part once per distinct a, a x^(q+1) as one
add of log a to a per-field table of log x^(q+1).  The reduction forms
a u^q v^(1-q) and a u v^(q-1) over all v by subtracting or adding a
per-field array of (q-1) log v from log(a u^q) or to log(a u), mod
order - 1, and one exp lookup each.  Above CRITERION_TABLE_MAX elements
the reduction and the criterion read the d images instead, which costs
them the size of the F_q-valued subspace, not of the field.  The criterion takes N(u) = u^(q+1) of its own u, so it never
builds an order-sized norm table.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BRUTE_CAP, check_shape
from .field import FieldCtx, ctx_from_json
from .linpoly import (
    LinearizedPoly,
    digit_rows,
    fill_values,
    fp_is_singular,
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
# brute force: most of directions x candidates x order at once, the cap on
# the doubling block widths and on the candidates a block runs on together.
# The kernel's temporaries (about half as many values: even stacks read half
# the field) then stay within a 2 MB L2 cache: full scans of x^2 on F_3^7,
# F_5^5 and F_3^8 ran 1.7-2x faster than at 2^19 entries, and F_625 the same
# (2-vCPU Xeon)
BRUTE_BLOCK_ENTRIES = 1 << 16

# the JSON shape of a candidate, which PlanarCandidate.from_json checks
CANDIDATE_SHAPE = {
    "ctx": {"p": int, "m": int, "n": int, "modulus?": [int]},
    "a": str,
    "ell": {"coeffs": {str: str}},
}


class _Monomials:
    """What table mode reads of a function given by its `monomials`, each
    built once per object: its terms as `FieldCtx.log_sum` reads them
    (`_merged_log_terms`) and the order of a group it scales under
    (`_monomial_scaling`), which brute force and rank both read."""

    @functools.cached_property
    def _log_terms(self) -> tuple[tuple[int, int], ...]:
        return _merged_log_terms(self.ctx, self.monomials)

    @functools.cached_property
    def _scaling(self) -> int:
        return _monomial_scaling(self)


def _merged_log_terms(ctx: FieldCtx, monomials) -> tuple[tuple[int, int], ...]:
    """sum c x^e over (c, e) pairs as `FieldCtx.log_sum` reads it at x != 0:
    one (log c, e mod (order - 1)) pair per exponent.  x^e = x^(e mod
    (order - 1)) there, so the coefficients of equal exponents are added in
    the field (e = 0 and e = order - 1 are both the constant term), and
    zero sums, zero coefficients among them, drop out."""
    merged = {}
    for c, e in monomials:
        e %= ctx.order - 1
        merged[e] = ctx.add(merged[e], c) if e in merged else c
    return tuple((ctx._log_view[c], e) for e, c in merged.items() if c)


@dataclass(frozen=True)
class PlanarCandidate(_Monomials):
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
        if ctx.table_mode:
            return ctx.log_sum(self._log_terms, x) if x else 0
        t = ctx.rel_trace(ctx.mul(self.a, ctx.pow(x, ctx.q + 1)))
        return ctx.add(t, self.ell(ctx.mul(x, x)))

    @property
    def monomials(self) -> list[tuple[int, int]]:
        """f's monomials (coefficient, exponent) as the formula gives them:
        a^(q^k) x^((q+1) q^k) for k < n, the trace, and c_t x^(2 p^t) for
        t < m*n, ell; zero coefficients included."""
        ctx, q = self.ctx, self.ctx.q
        return ([(ctx.pow(self.a, q**k), (q + 1) * q**k) for k in range(ctx.n)]
                + [(c, 2 * ctx.p**t) for t, c in enumerate(self.ell.coeffs)])

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

    def witness_json(self, ctx: FieldCtx) -> dict | None:
        if self.witness is None:
            return None
        c, x1, x2 = map(ctx.format_element, self.witness)
        return {"c": c, "x1": x1, "x2": x2}

    def to_json(self, ctx: FieldCtx) -> dict:
        return {"planar": self.planar, "method": self.method,
                "witness": self.witness_json(ctx), "ms": self.ms}


def f_tables(cands: Sequence[PlanarCandidate], ell_tabs: np.ndarray | None = None) -> np.ndarray:
    """(k, order) value tables of k candidates of one field, from the stack
    of their ell's value tables (`fill_values`), made here unless given."""
    ctx = cands[0].ctx
    if ell_tabs is None:
        ell_tabs = fill_values([cand.ell for cand in cands])
    ell_sq = ell_tabs.take(ctx.square_table, axis=1)
    # the trace part once per distinct a, a x^(q+1) by one add of logs;
    # Tr(0) = 0 where a = 0 or x = 0
    index = {}
    row = [index.setdefault(cand.a, len(index)) for cand in cands]
    a = np.array(list(index), dtype=np.int64)
    t = ctx.trace_table.take(ctx.exp_table.take(
        (ctx.log_table.take(a)[:, None] + _log_powers_q_plus_1(ctx)) % (ctx.order - 1)))
    t[:, 0] = 0
    t[a == 0] = 0
    # one distinct a, as in a family scan, broadcasts over the stack
    return ctx.add_vec(t if len(index) == 1 else t.take(row, axis=0), ell_sq)


@functools.lru_cache(maxsize=None)
def _log_powers_q_plus_1(ctx: FieldCtx) -> np.ndarray:
    """log x^(q+1) = (q+1) log x mod order - 1 for every x != 0 (0 at x = 0,
    which has no log), the argument of f's trace part."""
    out = ctx.log_table * (ctx.q + 1) % (ctx.order - 1)
    out[0] = 0
    out.setflags(write=False)
    return out


def check_witness(f, ctx: FieldCtx, witness) -> bool:
    """True iff f(x1+c) - f(x1) = f(x2+c) - f(x2) with x1 != x2, c != 0."""
    c, x1, x2 = witness
    if c == 0 or x1 == x2:
        return False
    d1 = ctx.sub(f(ctx.add(x1, c)), f(x1))
    d2 = ctx.sub(f(ctx.add(x2, c)), f(x2))
    return d1 == d2


def _verdict(method: str, f, ctx: FieldCtx, started: float, witness) -> VerificationReport:
    """The report of a route whose search began at `started` and found
    `witness`, or None; a witness is re-checked on f first, by a raise, so
    that the check also runs under python -O."""
    ms = (time.perf_counter() - started) * 1e3
    if witness is not None and not check_witness(f, ctx, witness):
        raise RuntimeError(f"{method} produced an invalid witness {witness}")
    return VerificationReport(witness is None, method, witness, ms)


@dataclass(frozen=True)
class MonomialSum(_Monomials):
    """f(x) = sum coeff * x^exp over (coeff, exp) pairs: any polynomial, for
    brute force on functions outside the candidate shape.  One that scales
    under no lam but 1 (x^2 + x, say) keeps the scan of every c < -c, and so
    does any stack it is part of."""

    ctx: FieldCtx
    monomials: Sequence[tuple[int, int]]

    def __call__(self, x: int) -> int:
        ctx = self.ctx
        if ctx.table_mode and x:
            return ctx.log_sum(self._log_terms, x)
        acc = 0
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

def _first_collisions(diffs: np.ndarray, cs: np.ndarray) -> list:
    """(c, x1, x2) for each row of a (k, n) array of difference values at
    x < n, taken in direction c = cs[i]: x2 the lowest x whose value an
    earlier x takes too, x1 the first x taking it; None for a row with no
    repeat.  One np.minimum.at over all rows finds the first flat position
    of every value, row i's values offset into bins i*span .. i*span +
    span - 1, span one above the largest value."""
    k, n = diffs.shape
    span = int(diffs.max()) + 1
    pos = np.arange(k * n)
    starts = pos[::n]
    bins = (diffs + np.arange(0, k * span, span)[:, None]).ravel()
    first = np.full(k * span, k * n)  # above every position
    np.minimum.at(first, bins, pos)
    firsts = first[bins]
    at = (firsts != pos).reshape(k, n).argmax(axis=1) + starts  # x2 + i*n
    return [(c, x1, x2) if x1 != x2 else None
            for c, x1, x2 in zip(cs.tolist(), (firsts[at] - starts).tolist(),
                                 (at - starts).tolist())]


@functools.lru_cache(maxsize=None)
def _product_tables(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """(log, exp) for products by two lookups and no remainder: log[0] = 2M,
    M = order - 1, else log[x] = log_g x, and exp[i] = g^i below 2M and 0
    from there on, so exp[log x + log y] = x y for any x and any y != 0."""
    M = ctx.order - 1
    log = ctx.log_table.copy()
    log[0] = 2 * M
    exp = np.concatenate([ctx.exp_table, ctx.exp_table, np.zeros(M, dtype=np.int64)])
    log.setflags(write=False)
    exp.setflags(write=False)
    return log, exp


def _scales(ctx: FieldCtx, f_tabs: np.ndarray, e: int) -> bool:
    """Whether every row of a (k, order) stack has f(lam x) = mu f(x) at every
    x, lam = g^((order-1)/e) the generator of the subgroup of order e > 1 and
    mu the row's own, read off its first x0 with f(x0) != 0 (any mu serves a
    row that vanishes); then each lam of that group scales it."""
    M = ctx.order - 1
    log, exp = _product_tables(ctx)
    moved = f_tabs.take(_scaled_points(ctx, e), axis=1)
    rows = np.arange(len(f_tabs))
    x0 = (f_tabs != 0).argmax(axis=1)
    log_mu = (log.take(moved[rows, x0]) - log.take(f_tabs[rows, x0])) % M
    return bool((moved == exp.take(log.take(f_tabs) + log_mu[:, None])).all())


@functools.lru_cache(maxsize=None)
def _scaled_points(ctx: FieldCtx, e: int) -> np.ndarray:
    """lam x for every x, lam = g^((order-1)/e), e > 1."""
    log, exp = _product_tables(ctx)
    out = exp[log[np.arange(ctx.order)] + (ctx.order - 1) // e]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _coset_minima(ctx: FieldCtx, h: int) -> np.ndarray:
    """The least element of each coset of the subgroup of order h of F^*,
    ascending: c = g^i lies in coset i mod (order-1)/h."""
    cosets = (ctx.order - 1) // h
    minima = np.full(cosets, ctx.order, dtype=np.int64)
    np.minimum.at(minima, ctx.log_table[1:] % cosets, np.arange(1, ctx.order))
    minima.sort()
    minima.setflags(write=False)
    return minima


def _bad_direction(ctx: FieldCtx, f_tabs: np.ndarray, fs: Sequence) -> list:
    """For each row of a (k, order) stack of value tables, (c, x1, x2) for
    the lowest c whose difference map does not permute, or None.

    D_{-c}(x) = -D_c(x - c), and if the stack scales under a subgroup of F^*
    of order e, D_{lam c}(lam x) = mu D_c(x) for each lam in it.  So the bad
    directions of a row form a union of cosets of the subgroup of order
    lcm(e, 2), and only the least element of each coset (`_coset_minima`) is
    evaluated, in ascending order: the lowest bad direction is one of them.
    The first block runs over the pairs {c, -c}; then e is the gcd of
    `_monomial_scaling` over the functions `fs` of the rows still undecided,
    and the scan goes on over its minima if e > 2 and `_scales` holds.

    Each direction is read in symmetric coordinates
    (`FieldCtx.shifted_differences`): on an even stack, where every
    candidate lies, E(y) = D_c(y - c/2) is odd, so it is evaluated at
    (order+1)/2 points and its values counted by pairs {v, -v}; any other
    stack is evaluated at every point.  Blocks of directions double in width
    from ceil(8 / k), so that early witnesses cost little and a stack of one
    starts at 8, up to BRUTE_BLOCK_ENTRIES / order directions.  Each block
    is evaluated for every row still undecided, as many rows at a time as
    keep block x rows x order within BRUTE_BLOCK_ENTRIES, and a row drops
    out at its first bad direction.  The rows are read from the stack by
    index, so that it is split into digit planes once.  Each row's first bad
    direction is kept, and after the scan the witnesses of every decided row
    come from one `_witnesses` pass over D_c of those directions, in x
    order."""
    cs = _coset_minima(ctx, 2)
    widest = max(1, BRUTE_BLOCK_ENTRIES // ctx.order)
    first = np.zeros(len(f_tabs), dtype=np.int64)  # first bad c, 0 while undecided
    live = np.arange(len(f_tabs))  # the rows of f_tabs still undecided
    _, differences = ctx.shifted_differences(f_tabs)
    lo, width, scaled = 0, -(-8 // len(f_tabs)), False
    while lo < len(cs) and len(live):
        block = cs[lo:lo + min(width, widest)]
        lo, width = lo + len(block), 2 * width
        step = max(1, BRUTE_BLOCK_ENTRIES // (len(block) * ctx.order))
        for start in range(0, len(live), step):
            rows = live[start:start + step]
            # classes[r, i, s] is the class of row r's E at points[s] in
            # direction block[i], one of as many classes as points: it
            # permutes iff no two points share a class, which sorting shows.
            # While every row is live, a slice reads views of the stack,
            # not copies
            classes = differences(block, slice(start, start + step)
                                  if len(live) == len(f_tabs) else rows)
            classes.sort(axis=2)
            bad = (classes[:, :, 1:] == classes[:, :, :-1]).any(axis=2)
            hit = bad.any(axis=1).nonzero()[0]
            # a row's first bad direction is its lowest
            first[rows[hit]] = block[bad[hit].argmax(axis=1)]
        live = live[first[live] == 0]
        if len(live) and lo < len(cs) and not scaled:
            scaled = True
            e = math.gcd(*(fs[i]._scaling for i in live.tolist()))
            if e > 2 and _scales(ctx, f_tabs[live], e):
                cs = _coset_minima(ctx, math.lcm(2, e))
                lo = int(np.searchsorted(cs, block[-1], side="right"))
    found = [None] * len(f_tabs)
    decided = first.nonzero()[0]
    if len(decided):
        # each row's witness is its own, so one pass reads them all
        for row, witness in zip(decided.tolist(),
                                _witnesses(ctx, f_tabs[decided], first[decided])):
            found[row] = witness
    return found


def _witnesses(ctx: FieldCtx, f_tabs: np.ndarray, cs: np.ndarray) -> list:
    """(c, x1, x2) for each row of a (k, order) stack of value tables whose
    difference map does not permute in direction c = cs[i]: the first
    collision of D_c in x order, read off x <= p^(d-1).

    That prefix holds it whenever D_c is F_p-affine, as it is for every
    candidate: its linear part has a kernel vector w, scaled to top digit 1
    at some position t, and then x = p^t and x - w < x take one value.  A
    row with no repeat in the prefix (only a table that is not affine) is
    read again over the whole field."""
    found = _first_collisions(_difference_rows(ctx, f_tabs, cs, ctx.order // ctx.p + 1), cs)
    missed = [i for i, w in enumerate(found) if w is None]
    if missed:
        again = _first_collisions(_difference_rows(ctx, f_tabs[missed], cs[missed], ctx.order),
                                  cs[missed])
        for i, w in zip(missed, again):
            found[i] = w
    return found


def _difference_rows(ctx: FieldCtx, f_tabs: np.ndarray, cs: np.ndarray,
                     count: int) -> np.ndarray:
    """D_c(x) = f(x + c) - f(x) for x < count, row i of a (k, order) stack
    of value tables taken in direction cs[i]."""
    shifted = ctx.add_vec(cs[:, None], np.arange(count))
    shifted += np.arange(0, f_tabs.size, ctx.order)[:, None]  # flat, row by row
    return ctx.sub_vec(np.ascontiguousarray(f_tabs).take(shifted), f_tabs[:, :count])


def is_planar_bruteforce(f: PlanarCandidate | MonomialSum,
                         brute_cap: int = DEFAULT_BRUTE_CAP,
                         batch: Batch | None = None) -> VerificationReport:
    """Exact verdict for a candidate or any MonomialSum: checks bijectivity
    of every difference map by the values it hits.  A candidate of `batch`
    reads its witness from the batch's one kernel run."""
    started = time.perf_counter()
    ctx = f.ctx
    if ctx.order > brute_cap:
        raise ValueError(f"field order {ctx.order} exceeds brute-force cap {brute_cap}")
    witness = (_bad_direction(ctx, f.f_table()[None], [f])[0] if batch is None
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
    witness = _singular_direction(ctx, f, _rank_directions(ctx, cand._scaling))
    return _verdict("rank", f, ctx, started, witness)


def _monomial_scaling(f: PlanarCandidate | MonomialSum) -> int:
    """The order e of a subgroup of F^* under which f scales, read off the
    exponents e_i of its merged terms (`_log_terms`): f(lam x) = lam^(e_0)
    f(x) wherever every lam^(e_i - e_0) = 1, so e = gcd(order - 1, e_i -
    e_0).  Each exponent is listed once, with a nonzero coefficient, so
    terms that cancel (the trace pair on n = 2 where Tr(a) = 0) do not
    shrink the group.  For a candidate p - 1 divides e (every e_i is 2 mod
    p - 1).  Outside table mode, F_p^*: e = p - 1.  Brute force and rank
    read it as `f._scaling`, once per function."""
    ctx = f.ctx
    if not ctx.table_mode:
        return ctx.p - 1
    terms = f._log_terms
    g = ctx.order - 1
    for _, e in terms:
        g = math.gcd(g, e - terms[0][1])
    return g


@functools.lru_cache(maxsize=None)
def _rank_directions(ctx: FieldCtx, e: int) -> tuple:
    """Rank's directions with top digit at position k, for k = 0, 1, ...,
    ascending: the least v of each coset of the subgroup of F^* of order e,
    p - 1 dividing e.  Each such v has top digit 1, so they lie in [p^k,
    2 p^k), all of it when e = p - 1 (the classes {lam v : lam in F_p^*}),
    kept as ranges then; the tuple ends at the last k that holds one."""
    p, d = ctx.p, ctx.degree
    if e == p - 1:
        return tuple(range(p**k, 2 * p**k) for k in range(d))
    minima = _coset_minima(ctx, e)
    by_k = np.split(minima, np.searchsorted(minima, [p**k for k in range(1, d)]))
    while not len(by_k[-1]):
        by_k.pop()
    return tuple(by_k)


def _singular_direction(ctx: FieldCtx, f, directions):
    """(v, x0, 0) for the first v of `directions` (`_rank_directions`) whose
    M_v is singular, or None.

    B(lam v, lam x) = mu B(v, x) where f(lam x) = mu f(x), so M_v and
    M_{lam v} are singular together, the singular v form a union of cosets,
    and the lowest singular v is the least of its coset: scanning the least
    of each finds it, with the M_v and x0 a scan of every v gives."""
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

    for k, vs in enumerate(directions):
        lead = p**k
        cols.append([c[k] for c in cols] + [B(lead, p**j) for j in range(k, d)])
        for i in range(0, len(vs), RANK_BLOCK):
            block = vs[i:i + RANK_BLOCK]
            if len(block) < NARROW_BLOCK:
                # one matrix at a time, each by forward elimination alone
                tried = ((int(v), combination(int(v))) for v in block)
                singular = next(((v, mat) for v, mat in tried if fp_is_singular(mat, p)),
                                None)
            else:
                # the block's M_v^T, and one elimination of them all
                v = np.arange(block.start, block.stop) if isinstance(block, range) else block
                digits = v[:, None] // p ** np.arange(k + 1) % p
                mats = (digits @ np.reshape(cols, (k + 1, -1)) % p).reshape(-1, d, d)
                found = np.flatnonzero(fp_singular(mats, p))
                singular = (int(v[found[0]]), mats[found[0]].T.tolist()) if len(found) else None
            if singular is not None:
                # the reduced row echelon form is unique, and so is the
                # first nullspace vector read off it
                v, mat = singular
                return (v, ctx.from_digits(fp_nullspace(mat, p)[0]), 0)
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


@functools.lru_cache(maxsize=None)
def _reduction_logs(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """(vs, log v^(q-1) mod order - 1): vs the least v of each coset of
    F_q^*, ascending, the only v the reduction tries."""
    vs = _coset_minima(ctx, ctx.q - 1)
    out = ctx.log_table[vs] * (ctx.q - 1) % (ctx.order - 1)
    out.setflags(write=False)
    return vs, out


def _vanishing_point(cand: PlanarCandidate):
    """(v, u/v, 0) for the lowest u, then v, at which the reduced form
    vanishes, or None.  The form reads v only through v^(q-1), which is one
    value on each coset of F_q^*, so the lowest v at which it vanishes is
    the least of its coset, and only those are tried (`_reduction_logs`).
    For each u, a u^q v^(1-q) and a u v^(q-1) over them are one add of logs
    mod order - 1 and one exp lookup each."""
    ctx = cand.ctx
    _, us, lus = _fq_values(ctx, [cand.ell])
    if cand.a == 0:
        # every trace is Tr(0) = 0, which -2 ell(u) is only where ell(u) = 0
        zeros = np.flatnonzero(lus == 0)
        return (1, int(us[zeros[0]]), 0) if len(zeros) else None
    M, exp, tr = ctx.order - 1, ctx.exp_table, ctx.trace_table
    vs, up = _reduction_logs(ctx)
    la, log_u = ctx.log_table[cand.a], ctx.log_table[us]
    for u, lu, auq, au in zip(us.tolist(), lus.tolist(),
                              ((la + ctx.q % M * log_u) % M).tolist(),
                              ((la + log_u) % M).tolist()):
        target = ctx.neg(ctx.mul(2, lu))
        vals = tr[ctx.add_vec(exp[(auq - up) % M], exp[(au + up) % M])]
        hits = (vals == target).nonzero()[0]
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


def _quadratic_criteria(cands: Sequence[PlanarCandidate],
                        ell_tabs: Callable[[], np.ndarray] | None = None) -> list[bool]:
    """criterion_quadratic of each candidate of a stack on one n = 2 tower.
    `ell_tabs`, if given, returns the stack of all their ell's value tables;
    it is read where every row has Tr(a) != 0 and the tables serve
    (`_fq_values`), so that no table is made for a row that does not need
    one.

    Rows with Tr(a) = 0 test whether ell permutes; the others go through one
    masked core over the pairs (u, ell(u)) of all of them (`_fq_values`)."""
    ctx = cands[0].ctx
    if ctx.n != 2:
        raise ValueError("the quadratic criterion requires a degree-2 tower")
    traces = {a: ctx.rel_trace(a) for a in {cand.a for cand in cands}}
    tr_a = np.array([traces[cand.a] for cand in cands], dtype=np.int64)
    verdicts = [not tr and cand.ell.is_permutation() for cand, tr in zip(cands, tr_a.tolist())]
    live = tr_a.nonzero()[0]
    if not len(live):
        return verdicts
    ctx._need_tables()  # before any order-sized array is built
    shared = ell_tabs is not None and len(live) == len(cands) \
        and ctx.order <= CRITERION_TABLE_MAX
    rows, us, lu = _fq_values(ctx, [cands[i].ell for i in live.tolist()],
                              ell_tabs() if shared else None)
    # ell / Tr(a) lies in F_q exactly where ell does, and (ell / Tr(a))^2 -
    # N(u) times the nonzero square Tr(a)^2 of F_q, ell^2 - Tr(a)^2 N(u), has
    # the same character.  Tr(a)^2 N(u) = g^(2 log Tr(a) + (q+1) log u) is one
    # add of logs, Tr(a) and u being nonzero, taken of these u alone, so that
    # no order-sized norm table is built
    M, log = ctx.order - 1, ctx.log_table
    tr_sq_log = 2 * log.take(tr_a[live])
    scaled_norms = ctx.exp_table.take((tr_sq_log.take(rows) + (ctx.q + 1) * log.take(us)) % M)
    w = ctx.sub_vec(ctx.mul_vec(lu, lu), scaled_norms)
    bad = np.zeros(len(live), dtype=bool)
    bad[rows[ctx.subfield_eta_table.take(w) != 1]] = True
    for i, b in zip(live.tolist(), bad.tolist()):
        verdicts[i] = not b
    return verdicts


def _fq_values(ctx: FieldCtx, ells: Sequence[LinearizedPoly],
               ell_tabs: np.ndarray | None = None):
    """(rows, us, ell(u)) over the nonzero u with ell(u) in F_q of each
    polynomial of a list on one field: index arrays, row by row, u ascending.

    Up to CRITERION_TABLE_MAX elements they are read off the stack of the
    polynomials' value tables (`fill_values`), made here unless given.  Above
    it, u runs over the kernel of u -> ell(u)^q - ell(u), found from the d
    images ell(p^k) by fp_nullspace; the span tables of its basis and of the
    basis images list u and ell(u), so the cost follows the kernel's size
    instead of the field's."""
    if ctx.order <= CRITERION_TABLE_MAX:
        tabs = fill_values(ells) if ell_tabs is None else ell_tabs
        in_fq = ctx.subfield_mask.take(tabs)
        in_fq[:, 0] = False
        flat = in_fq.ravel().nonzero()[0]
        rows, us = np.divmod(flat, ctx.order)
        return rows, us, tabs.take(flat)
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
    and every call reads its candidate's row, whose witness `_verdict`
    re-checks.  The ell tables both read are one stack (`fill_values`),
    kept once for both: the stack made for the batch's new polynomials, no
    copy, whose rows each polynomial caches, where a reduction oracle finds
    them too."""

    def __init__(self, cands: Sequence[PlanarCandidate]):
        self.cands = list(cands)
        self._rows = {id(cand): i for i, cand in enumerate(self.cands)}

    def witness(self, cand: PlanarCandidate):
        return self._witnesses[self._rows[id(cand)]]

    def criterion(self, cand: PlanarCandidate) -> bool:
        return self._criteria[self._rows[id(cand)]]

    @functools.cached_property
    def _ell_tabs(self) -> np.ndarray:
        return fill_values([cand.ell for cand in self.cands])

    @functools.cached_property
    def _witnesses(self) -> list:
        return _bad_direction(self.cands[0].ctx, f_tables(self.cands, self._ell_tabs),
                              self.cands)

    @functools.cached_property
    def _criteria(self) -> list[bool]:
        return _quadratic_criteria(self.cands, lambda: self._ell_tabs)
