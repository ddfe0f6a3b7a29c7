"""Deterministic candidate enumeration with filter-before-oracle pipelines.

Jobs visit a family's parameter space in raw index order, apply cheap
closed-form filters, and evaluate the expensive planarity oracle on every
candidate, on a deterministic audit subsample, or whenever filters disagree.
Candidates are checked a batch at a time: the criterion and brute force run
once per batch (`planarity.Batch`), and so does closed-binomial, as vector
ops over the batch's parameters in table mode; the other filters and
oracles run once per candidate.
A raw index is a little-endian mixed-radix number of the family's parameter
digits, whose radices are declared once per family in `_RADICES`:
`candidate_space` is their product, `index_digits` splits an index into its
digits, and `decode_candidate` builds the candidate from them.  Indices are
processed in chunks of at most `CHUNK`, and output streams per chunk as it
completes: one JSON line per visited candidate plus a trailing summary line,
byte-identical for a given job no matter how many workers produced it.
"""

from __future__ import annotations

import functools
import json
import math
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from .config import DEFAULT_AUDIT_EVERY, DEFAULT_SEED, Config, from_fields
from .families import (
    CubicCoeffs,
    MonomialFamilyParams,
    NbcFamilyParams,
    cubic_theorem_predicate,
    example1_construct,
    theorem_monomial_predicate,
    theorem_monomial_predicates,
    theorem_nbc_predicate,
)
from .field import FieldCtx, new_ctx
from .linpoly import LinearizedPoly
from .planarity import (
    BRUTE_BLOCK_ENTRIES,
    Batch,
    PlanarCandidate,
    criterion_quadratic,
    is_planar_bruteforce,
    is_planar_rank,
    is_planar_reduction,
)

# Each family's radices, least significant first, on a field of order n and
# degree d = m*n: monomial (d, n, n) for the digits (t, b, a); binomial
# (n, n) for (c, b); nbc (n, n, n) for (c0, c, b); cubic n for each entry of
# the m x 3 b grid, row-major, then len(a_values) for the position of a in
# a_values; example1 none.
_RADICES = {
    "monomial": lambda job, ctx: (ctx.degree, ctx.order, ctx.order),
    "binomial": lambda job, ctx: (ctx.order,) * 2,
    "nbc": lambda job, ctx: (ctx.order,) * 3,
    "cubic": lambda job, ctx: (ctx.order,) * (3 * ctx.m) + (len(job.a_values),),
    "example1": lambda job, ctx: (),
}
FAMILIES = tuple(_RADICES)
ORACLES = ("bruteforce", "rank", "reduction")
# each closed predicate takes its own family's parameters
FILTERS = {"criterion-n2": None, "closed-binomial": "binomial",
           "closed-nbc": "nbc", "closed-cubic": "cubic"}
# json.dumps(obj, sort_keys=True) as one call: JSONEncoder.encode makes its C
# encoder again for every object, so the one here is made once (the Python
# encoder serves where the C accelerator is missing).  Findings hold no
# cycles, so it keeps no markers
_ENCODER = json.JSONEncoder(sort_keys=True)
if json.encoder.c_make_encoder is None:
    _encode = _ENCODER.encode
else:
    _C_ENCODER = json.encoder.c_make_encoder(
        None, _ENCODER.default, json.encoder.encode_basestring_ascii, None,
        _ENCODER.key_separator, _ENCODER.item_separator, True, False, True)

    def _encode(obj) -> str:
        return "".join(_C_ENCODER(obj, 0))


def splitmix64(x: int) -> int:
    """Stateless counter-based generator; one 64-bit draw per counter value."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def seeded_stream(seed: int, counter: int) -> int:
    return splitmix64((seed << 1) ^ counter)


@dataclass(frozen=True)
class SearchJob:
    p: int
    m: int
    n: int
    family: str
    filters: tuple[str, ...] = ()
    oracle: str = "bruteforce"
    mode: str = "exhaustive"
    sample_count: int = 0
    seed: int = DEFAULT_SEED
    audit_every: int = DEFAULT_AUDIT_EVERY
    oracle_all: bool = False
    k: int = 1
    a_values: tuple[str, ...] = ("1",)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.oracle not in ORACLES:
            raise ValueError(f"unknown oracle {self.oracle!r}")
        for f in self.filters:
            if f not in FILTERS:
                raise ValueError(f"unknown filter {f!r}")
            if FILTERS[f] not in (None, self.family):
                raise ValueError(f"filter {f!r} needs the {FILTERS[f]} family")
        if "criterion-n2" in self.filters and self.n != 2:
            raise ValueError("filter 'criterion-n2' needs a quadratic tower, n = 2")
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError("mode must be exhaustive or sample")
        if self.mode == "sample" and self.sample_count <= 0:
            raise ValueError("sample mode needs a positive sample_count")
        if self.audit_every <= 0:
            raise ValueError("audit ratio must be positive")

    def to_json(self) -> dict:
        return {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
                for f in fields(self)}

    @classmethod
    def from_json(cls, obj) -> "SearchJob":
        return from_fields(cls, obj)


@dataclass(frozen=True)
class Finding:
    index: int
    params: dict
    filters: dict
    oracle: bool | None
    witness: dict | None
    flagged: bool

    def to_json_line(self) -> str:
        return _encode({
            "index": self.index, "params": self.params,
            "filters": self.filters, "oracle": self.oracle,
            "witness": self.witness, "flagged": self.flagged,
        })


# ---------------------------------------------------------------------------
# Family parameter spaces.
# ---------------------------------------------------------------------------

def candidate_space(job: SearchJob, ctx: FieldCtx) -> int:
    """Raw index-space size; some raw indices may decode to no candidate."""
    return math.prod(_RADICES[job.family](job, ctx))


def index_digits(job: SearchJob, ctx: FieldCtx, index: int) -> list[int]:
    """The parameter digits of a raw index, least significant first."""
    digits = []
    for radix in _RADICES[job.family](job, ctx):
        index, digit = divmod(index, radix)
        digits.append(digit)
    return digits


@functools.lru_cache(maxsize=16)
def _cubic_a_elements(ctx: FieldCtx, a_values: tuple[str, ...]) -> tuple[int, ...]:
    """A cubic job's `a_values` as elements, parsed once per job and
    process rather than once per decoded index."""
    return tuple(ctx.parse_element(text) for text in a_values)


def decode_candidate(job: SearchJob, ctx: FieldCtx, index: int):
    """(params_json, PlanarCandidate, family_params) or None for skipped
    raw indices (for example a binomial pair with equal norms)."""
    digits = index_digits(job, ctx, index)
    fmt = ctx.format_element
    if job.family == "monomial":
        t, b, a = digits
        cand = PlanarCandidate(ctx, a, LinearizedPoly.monomial(ctx, b, t))
        return {"a": fmt(a), "b": fmt(b), "t": t}, cand, None
    if job.family == "binomial":
        c, b = digits
        norms = (ctx.rel_norm(b), ctx.rel_norm(c))
        if norms[0] == norms[1]:
            return None
        params = MonomialFamilyParams(ctx, job.k, b, c, norms=norms)
        return {"b": fmt(b), "c": fmt(c), "k": job.k}, params.candidate(), params
    if job.family == "nbc":
        c0, c, b = digits
        if b == 0 or c == 0 or ctx.rel_norm(b) != ctx.rel_norm(c):
            return None
        params = NbcFamilyParams(ctx, job.k, b, c, c0)
        return ({"b": fmt(b), "c": fmt(c), "c0": fmt(c0), "k": job.k},
                params.candidate(), params)
    if job.family == "cubic":
        *flat, which = digits
        a = _cubic_a_elements(ctx, job.a_values)[which]
        rows = tuple(tuple(flat[i:i + 3]) for i in range(0, len(flat), 3))
        params = CubicCoeffs(ctx, a, rows)
        return ({"a": fmt(a), "b": [[fmt(v) for v in row] for row in rows]},
                params.candidate(), params)
    return {"preset": "example1"}, example1_construct(ctx), None


def _apply_filter(name: str, cand: PlanarCandidate, params, batch: Batch) -> bool:
    if name == "criterion-n2":
        return criterion_quadratic(cand, batch)
    if name == "closed-binomial":
        return theorem_monomial_predicate(params)
    if name == "closed-nbc":
        return theorem_nbc_predicate(params)
    if name == "closed-cubic":
        return cubic_theorem_predicate(params)
    raise ValueError(f"unknown filter {name!r}")


def _run_oracle(job: SearchJob, cand: PlanarCandidate, config: Config, batch: Batch):
    if job.oracle == "bruteforce":
        return is_planar_bruteforce(cand, config.brute_cap, batch)
    if job.oracle == "rank":
        return is_planar_rank(cand, config.brute_cap)
    return is_planar_reduction(cand, config.brute_cap)


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------

CHUNK = 2048


def _chunk_findings(job: SearchJob, config: Config, indices) -> list[Finding]:
    """The findings of a chunk of indices, decoded in order and checked a
    batch at a time.  A batch holds as many candidates as the brute-force
    kernel takes value tables at once, so that its memory stays bounded."""
    ctx = new_ctx(job.p, job.m, job.n, config.table_cap)
    size = max(1, BRUTE_BLOCK_ENTRIES // ctx.order)
    out, batch = [], []
    for raw in indices:
        decoded = decode_candidate(job, ctx, raw)
        if decoded is not None:
            batch.append((raw, *decoded))
        if len(batch) == size:
            out += _batch_findings(job, config, ctx, batch)
            batch = []
    if batch:
        out += _batch_findings(job, config, ctx, batch)
    return out


def _filter_column(name: str, ctx: FieldCtx, batch, filtered: Batch) -> list[bool]:
    """One filter's verdicts on every candidate of a batch: closed-binomial
    in table mode as one vector pass over the batch, any other one candidate
    at a time."""
    if name == "closed-binomial" and ctx.table_mode:
        return theorem_monomial_predicates([params for *_, params in batch])
    return [_apply_filter(name, cand, params, filtered) for _, _, cand, params in batch]


def _batch_findings(job: SearchJob, config: Config, ctx: FieldCtx,
                    batch) -> list[Finding]:
    """Findings for (raw, params_json, candidate, family_params) tuples.  The
    filters run on every candidate, sharing a Batch of them all; the oracle
    runs on the candidates it must check, sharing a Batch of those (the same
    one when it checks them all)."""
    filtered = Batch([cand for _, _, cand, _ in batch])
    columns = [_filter_column(name, ctx, batch, filtered) for name in job.filters]
    fvals = [{name: column[i] for name, column in zip(job.filters, columns)}
             for i in range(len(batch))]
    flagged = [len(set(fv.values())) > 1 for fv in fvals]
    oracled = {i for i, (raw, *_) in enumerate(batch)
               if job.oracle_all or flagged[i] or raw % job.audit_every == 0}
    checked = filtered if len(oracled) == len(batch) else \
        Batch([batch[i][2] for i in sorted(oracled)])
    out = []
    for i, (raw, params_json, cand, _) in enumerate(batch):
        oracle = witness = None
        if i in oracled:
            report = _run_oracle(job, cand, config, checked)
            oracle = report.planar
            witness = report.witness_json(ctx)
            flagged[i] = flagged[i] or any(v != oracle for v in fvals[i].values())
        out.append(Finding(raw, params_json, fvals[i], oracle, witness, flagged[i]))
    return out


def findings(job: SearchJob, config: Config | None = None,
             workers: int = 1) -> Iterator[Finding]:
    """Yield the job's findings in output order, computed a chunk of indices
    at a time: exhaustive jobs in index order, sample jobs in stream order.

    A chunk holds at most `CHUNK` indices.  With several workers it holds
    fewer when that gives each worker at least four chunks, and the chunks
    go through a process pool, at most 2 * workers of them submitted ahead
    of the one being yielded, and come back in order, so the sequence does
    not depend on the worker count.  Family, tower and k mismatches raise ValueError
    from the first candidate built; a cubic `a_values` entry that is zero or
    not an element, or a sample over an empty space, raises before any chunk.
    """
    config = config or Config()
    ctx = new_ctx(job.p, job.m, job.n, config.table_cap)
    if job.family == "cubic":
        for text, a in zip(job.a_values, _cubic_a_elements(ctx, job.a_values)):
            if a == 0:
                raise ValueError(f"cubic a_values entry {text!r} is zero")
    space = candidate_space(job, ctx)
    sample = job.mode == "sample"
    if sample and not space:
        raise ValueError("sample mode needs a nonempty candidate space")
    total = job.sample_count if sample else space
    per_worker = total if workers <= 1 else -(-total // (4 * workers))
    size = max(1, min(CHUNK, per_worker))
    spans = (range(lo, min(lo + size, total)) for lo in range(0, total, size))
    if sample:
        spans = ([seeded_stream(job.seed, i) % space for i in span] for span in spans)
    if workers <= 1:
        for span in spans:
            yield from _chunk_findings(job, config, span)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    pending = deque()
    try:
        for span in spans:
            pending.append(pool.submit(_chunk_findings, job, config, span))
            if len(pending) > 2 * workers:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
    finally:
        # a consumer that stops early leaves queued chunks unstarted
        pool.shutdown(cancel_futures=True)


@dataclass
class RunResult:
    summary: dict


def run(job: SearchJob, config: Config | None = None, workers: int = 1,
        out=None) -> RunResult:
    """Execute a search job; writes JSON lines to `out` and returns a summary.

    Finding lines are written as their chunk arrives, so memory holds at most
    the chunks `findings` keeps in flight; the summary line comes last.  The
    output is independent of the worker count (see `findings`).
    """
    counts = {"candidates": 0, "oracled": 0, "planar_oracle": 0,
              "disagreements": 0}
    for name in job.filters:
        counts[f"filter_true[{name}]"] = 0
    for f in findings(job, config, workers):
        counts["candidates"] += 1
        counts["oracled"] += f.oracle is not None
        counts["planar_oracle"] += f.oracle is True
        counts["disagreements"] += f.flagged
        for name in job.filters:
            counts[f"filter_true[{name}]"] += f.filters[name]
        if out is not None:
            out.write(f.to_json_line() + "\n")
    if out is not None:
        out.write(_encode({"summary": counts}) + "\n")
    return RunResult(counts)

