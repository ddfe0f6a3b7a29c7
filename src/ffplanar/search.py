"""Deterministic candidate enumeration with filter-before-oracle pipelines.

Jobs visit a family's parameter space in a canonical order (lexicographic on
the raw parameter index), apply cheap closed-form filters, and evaluate the
expensive planarity oracle on every candidate, on a deterministic audit
subsample, or whenever filters disagree.  Output is one JSON line per visited
candidate plus a trailing summary line, byte-identical for a given job no
matter how many workers produced it.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from .config import DEFAULT_AUDIT_EVERY, DEFAULT_SEED, Config
from .families import (
    CubicCoeffs,
    MonomialFamilyParams,
    NbcFamilyParams,
    cubic_theorem_predicate,
    example1_construct,
    theorem_monomial_predicate,
    theorem_nbc_predicate,
)
from .field import FieldCtx, new_ctx
from .linpoly import LinearizedPoly
from .planarity import (
    PlanarCandidate,
    criterion_quadratic,
    is_planar_bruteforce,
    is_planar_rank,
    is_planar_reduction,
)

FAMILIES = ("monomial", "binomial", "nbc", "cubic", "example1")
ORACLES = ("bruteforce", "rank", "reduction")
FILTERS = ("criterion-n2", "closed-binomial", "closed-nbc", "closed-cubic")


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
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError("mode must be exhaustive or sample")
        if self.mode == "sample" and self.sample_count <= 0:
            raise ValueError("sample mode needs a positive sample_count")

    def to_json(self) -> dict:
        return {
            "p": self.p, "m": self.m, "n": self.n, "family": self.family,
            "filters": list(self.filters), "oracle": self.oracle,
            "mode": self.mode, "sample_count": self.sample_count,
            "seed": self.seed, "audit_every": self.audit_every,
            "oracle_all": self.oracle_all, "k": self.k,
            "a_values": list(self.a_values),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SearchJob":
        return cls(
            p=int(obj["p"]), m=int(obj["m"]), n=int(obj["n"]),
            family=obj["family"],
            filters=tuple(obj.get("filters", ())),
            oracle=obj.get("oracle", "bruteforce"),
            mode=obj.get("mode", "exhaustive"),
            sample_count=int(obj.get("sample_count", 0)),
            seed=int(obj.get("seed", DEFAULT_SEED)),
            audit_every=int(obj.get("audit_every", DEFAULT_AUDIT_EVERY)),
            oracle_all=bool(obj.get("oracle_all", False)),
            k=int(obj.get("k", 1)),
            a_values=tuple(obj.get("a_values", ("1",))),
        )


@dataclass(frozen=True)
class Finding:
    index: int
    params: dict
    filters: dict
    oracle: bool | None
    witness: dict | None
    flagged: bool

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "index": self.index, "params": self.params,
                "filters": self.filters, "oracle": self.oracle,
                "witness": self.witness, "flagged": self.flagged,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# Family parameter spaces.
# ---------------------------------------------------------------------------

def candidate_space(job: SearchJob, ctx: FieldCtx) -> int:
    """Raw index-space size; some raw indices may decode to no candidate."""
    n = ctx.order
    if job.family == "monomial":
        return n * n * ctx.degree
    if job.family == "binomial":
        return n * n
    if job.family == "nbc":
        return n * n * n
    if job.family == "cubic":
        return len(job.a_values) * n ** (3 * ctx.m)
    if job.family == "example1":
        return 1
    raise AssertionError


def decode_candidate(job: SearchJob, ctx: FieldCtx, index: int):
    """(params_json, PlanarCandidate, family_params) or None for skipped
    raw indices (for example a binomial pair with equal norms)."""
    n = ctx.order
    if job.family == "monomial":
        t = index % ctx.degree
        b = index // ctx.degree % n
        a = index // (ctx.degree * n)
        cand = PlanarCandidate(ctx, a, LinearizedPoly.monomial(ctx, b, t))
        return (
            {"a": ctx.format_element(a), "b": ctx.format_element(b), "t": t},
            cand,
            None,
        )
    if job.family == "binomial":
        b, c = divmod(index, n)
        if ctx.rel_norm(b) == ctx.rel_norm(c):
            return None
        params = MonomialFamilyParams(ctx, job.k, b, c)
        return (
            {"b": ctx.format_element(b), "c": ctx.format_element(c), "k": job.k},
            params.candidate(),
            params,
        )
    if job.family == "nbc":
        c0 = index % n
        c = index // n % n
        b = index // (n * n)
        if b == 0 or c == 0 or ctx.rel_norm(b) != ctx.rel_norm(c):
            return None
        params = NbcFamilyParams(ctx, job.k, b, c, c0)
        return (
            {
                "b": ctx.format_element(b), "c": ctx.format_element(c),
                "c0": ctx.format_element(c0), "k": job.k,
            },
            params.candidate(),
            params,
        )
    if job.family == "cubic":
        per_a = ctx.order ** (3 * ctx.m)
        a = ctx.parse_element(job.a_values[index // per_a])
        rest = index % per_a
        flat = []
        for _ in range(3 * ctx.m):
            flat.append(rest % n)
            rest //= n
        rows = tuple(
            tuple(flat[i * 3 + j] for j in range(3)) for i in range(ctx.m)
        )
        params = CubicCoeffs(ctx, a, rows)
        return (
            {
                "a": ctx.format_element(a),
                "b": [[ctx.format_element(v) for v in row] for row in rows],
            },
            params.candidate(),
            params,
        )
    if job.family == "example1":
        cand = example1_construct(ctx)
        return ({"preset": "example1"}, cand, None)
    raise AssertionError


def _apply_filter(name: str, cand: PlanarCandidate, params) -> bool:
    if name == "criterion-n2":
        ctx = cand.ctx
        if ctx.rel_trace(cand.a) == 0:
            return cand.ell.is_permutation()
        return criterion_quadratic(cand)
    if name == "closed-binomial":
        return theorem_monomial_predicate(params)
    if name == "closed-nbc":
        return theorem_nbc_predicate(params)
    if name == "closed-cubic":
        return cubic_theorem_predicate(params)
    raise ValueError(f"unknown filter {name!r}")


def _run_oracle(job: SearchJob, cand: PlanarCandidate, config: Config):
    if job.oracle == "bruteforce":
        return is_planar_bruteforce(cand, config.brute_cap)
    if job.oracle == "rank":
        return is_planar_rank(cand)
    return is_planar_reduction(cand, config.brute_cap)


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------

def _chunk_findings(job: SearchJob, config: Config, lo: int, hi: int,
                    indices=None) -> list[Finding]:
    ctx = new_ctx(job.p, job.m, job.n, config.table_cap)
    out = []
    span = range(lo, hi) if indices is None else indices
    for raw in span:
        decoded = decode_candidate(job, ctx, raw)
        if decoded is None:
            continue
        params_json, cand, params = decoded
        fvals = {name: _apply_filter(name, cand, params) for name in job.filters}
        distinct = set(fvals.values())
        need_oracle = (
            job.oracle_all
            or len(distinct) > 1
            or (raw % job.audit_every == 0)
        )
        oracle = None
        witness = None
        flagged = len(distinct) > 1
        if need_oracle:
            report = _run_oracle(job, cand, config)
            oracle = report.planar
            if report.witness is not None:
                c, x1, x2 = report.witness
                witness = {
                    "c": ctx.format_element(c),
                    "x1": ctx.format_element(int(x1)),
                    "x2": ctx.format_element(int(x2)),
                }
            if any(v != oracle for v in fvals.values()):
                flagged = True
        out.append(Finding(raw, params_json, fvals, oracle, witness, flagged))
    return out


def _pool_chunk(args) -> list[tuple]:
    job_json, config_args, lo, hi, indices = args
    job = SearchJob.from_json(job_json)
    config = Config(**config_args)
    finds = _chunk_findings(job, config, lo, hi, indices)
    return [
        (f.index, f.params, f.filters, f.oracle, f.witness, f.flagged)
        for f in finds
    ]


@dataclass
class RunResult:
    summary: dict
    findings: list[Finding] = field(default_factory=list)


def run(job: SearchJob, config: Config | None = None, workers: int = 1,
        out=None, collect: bool = False) -> RunResult:
    """Execute a search job; writes JSON lines to `out` and returns a summary.

    Every finding is held in memory until all chunks are done; only then are
    the finding lines and the summary line written.  The output is
    independent of the worker count: chunks are merged in candidate-index
    order before emission.
    """
    config = config or Config()
    ctx = new_ctx(job.p, job.m, job.n, config.table_cap)
    space = candidate_space(job, ctx)
    if job.mode == "sample":
        indices = [seeded_stream(job.seed, i) % space for i in range(job.sample_count)]
        plan = [(job, config, 0, 0, indices)]
        if workers > 1:
            step = (len(indices) + workers - 1) // workers
            plan = [
                (job, config, 0, 0, indices[i : i + step])
                for i in range(0, len(indices), step)
            ]
    else:
        step = (space + workers - 1) // workers
        step = max(1, step)
        plan = [
            (job, config, lo, min(lo + step, space), None)
            for lo in range(0, space, step)
        ]

    if workers <= 1:
        chunk_lists = [
            _chunk_findings(j, c, lo, hi, idx) for j, c, lo, hi, idx in plan
        ]
    else:
        args = [
            (j.to_json(), asdict(c), lo, hi, idx) for j, c, lo, hi, idx in plan
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw_lists = list(pool.map(_pool_chunk, args))
        chunk_lists = [
            [Finding(*tup) for tup in chunk] for chunk in raw_lists
        ]

    findings: list[Finding] = []
    for chunk in chunk_lists:
        findings.extend(chunk)
    if job.mode == "exhaustive":
        findings.sort(key=lambda f: f.index)

    counts = {
        "candidates": len(findings),
        "oracled": sum(1 for f in findings if f.oracle is not None),
        "planar_oracle": sum(1 for f in findings if f.oracle),
        "disagreements": sum(1 for f in findings if f.flagged),
    }
    for name in job.filters:
        counts[f"filter_true[{name}]"] = sum(
            1 for f in findings if f.filters[name]
        )
    if out is not None:
        for f in findings:
            out.write(f.to_json_line() + "\n")
        out.write(json.dumps({"summary": counts}, sort_keys=True) + "\n")
    return RunResult(counts, findings if collect else [])


# ---------------------------------------------------------------------------
# Orbit grouping under substitution and subfield scaling.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DedupGroup:
    representative: PlanarCandidate
    size: int
    members: tuple[int, ...]


def _orbit_key(cand: PlanarCandidate) -> tuple:
    ctx = cand.ctx
    best = None
    subfield_units = [c for c in ctx.subfield_elements() if c]
    for lam in range(1, ctx.order):
        moved = cand.substituted(lam)
        for c in subfield_units:
            final = moved.scaled(c)
            key = (final.a, final.ell.coeffs)
            if best is None or key < best:
                best = key
    return best


def dedup_by_scaling(candidates) -> list[DedupGroup]:
    """Group candidates equivalent under x -> lam x and scaling by F_q^*;
    each group keeps its lexicographically least member as representative."""
    groups: dict[tuple, list[int]] = {}
    reps: dict[tuple, PlanarCandidate] = {}
    for i, cand in enumerate(candidates):
        key = _orbit_key(cand)
        groups.setdefault(key, []).append(i)
        ctx = cand.ctx
        reps[key] = PlanarCandidate(
            ctx, key[0], LinearizedPoly(ctx, key[1])
        )
    return [
        DedupGroup(reps[k], len(v), tuple(v))
        for k, v in sorted(groups.items())
    ]


def orbit_size(cand: PlanarCandidate) -> int:
    """Number of distinct candidates in the substitution/scaling orbit."""
    ctx = cand.ctx
    seen = set()
    subfield_units = [c for c in ctx.subfield_elements() if c]
    for lam in range(1, ctx.order):
        moved = cand.substituted(lam)
        for c in subfield_units:
            final = moved.scaled(c)
            seen.add((final.a, final.ell.coeffs))
    return len(seen)
