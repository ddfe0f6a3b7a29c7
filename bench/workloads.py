"""The benchmark's workloads: seeded inputs, passes over them, and the gate.

A pass drives the library through its public entry points (`search.run`,
`cli.main`) for a time budget, or replays exactly the units of an earlier
pass.  The gate then checks every output outside the timed phase.  Each
workload is described in README.md; the constants here size them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from ffplanar import cli, search
from ffplanar.config import Config
from ffplanar.families import (
    CubicCoeffs,
    MonomialFamilyParams,
    cubic_theorem_predicate,
    example1_ell,
    nonexistence_witness,
    theorem_monomial_predicate,
)
from ffplanar.field import new_ctx
from ffplanar.linpoly import LinearizedPoly
from ffplanar.planarity import PlanarCandidate, check_witness, criterion_quadratic

import probe
from spans import Recorder

# Raw sample indices per q25 job: about 30 candidates, 65 ms, so that a
# pass has about 15 jobs per second and p90 many jobs above it.
Q25_CHUNK = 32
# Summary of q25_job(Q25_PINNED_SEED, Q25_PINNED_COUNT) on the seed code.
Q25_PINNED_SEED = 0x5EED
Q25_PINNED_COUNT = 200
Q25_PINNED = {
    "candidates": 189, "oracled": 189, "planar_oracle": 23, "disagreements": 0,
    "filter_true[closed-binomial]": 23, "filter_true[criterion-n2]": 23,
}
# Counts over the a = 1 half of every f27 job, which no seed changes.
F27_HALF = 27**3
F27_PINNED_HALF = {"candidates": F27_HALF, "planar_oracle": 432,
                   "filter_true[closed-cubic]": 432}

VERIFY_TOWERS = ((3, 1, 5), (3, 2, 3), (3, 1, 7), (5, 2, 2), (5, 1, 5),
                 (7, 1, 3), (3, 4, 2), (5, 2, 3), (7, 1, 5))
# A round is 140 calls.  The mix places each percentile on many calls of
# about equal cost, so that it moves little with the seed:
# - p50 on non-planar calls on F_3^5, F_5^4 and F_7^3 (5-7 ms: parsing,
#   early exits, witnesses), 116 of the 140 calls;
# - p90 on x^2 over F_3^5 (a full scan, about 50 ms, the same every time),
#   run 10 times; above it lie the other planar fixtures and the non-planar
#   calls on F_3^8, F_5^6 and F_7^5, 9 calls.
# x^2 on F_3^7 or F_5^5, the heavy towers, takes 1.2-1.9 s: one per round.
VERIFY_HEAVY = ((3, 1, 7), (5, 1, 5))
VERIFY_X2 = ((3, 2, 3), (5, 2, 2), (7, 1, 3)) + ((3, 1, 5),) * 10
VERIFY_NONPLANAR = {(3, 1, 5): 39, (5, 2, 2): 39, (7, 1, 3): 38}
# Three rounds put 42 samples above p90.
VERIFY_LEAST_ROUNDS = 3


def setup(towers) -> None:
    """Build and warm every context a workload uses, before timing starts."""
    for tower in towers:
        probe.warm(new_ctx(*tower))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@dataclass
class Pass:
    """What one pass did: units are scan jobs or verify rounds."""

    units: int = 0
    ops: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)  # per request
    candidate_ms: list[float] = field(default_factory=list)  # decode clock
    outputs: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    failed_ops: int = 0
    peak_rss_mb: float = 0.0
    workers: int = 1

    @property
    def rate(self) -> float:
        return self.ops / self.busy_s if self.busy_s else 0.0

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.outputs:
            h.update(out.digest_text().encode())
        return h.hexdigest()


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    witness_us: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def _keep_going(done: int, started: float, seconds: float, units,
                least: int = 1) -> bool:
    if units is not None:
        return done < units
    return done < least or time.perf_counter() - started < seconds


def _recheck(gate: Gate, cand, ctx, witness) -> bool:
    t = time.perf_counter()
    ok = check_witness(cand, ctx, witness)
    gate.witness_us.append((time.perf_counter() - t) * 1e6)
    return ok


# ---------------------------------------------------------------------------
# Scans.
# ---------------------------------------------------------------------------

@dataclass
class ScanOutput:
    job: search.SearchJob
    text: str

    def digest_text(self) -> str:
        return self.text

    def lines(self) -> list[dict]:
        return [json.loads(line) for line in self.text.splitlines()]


def candidate_latencies_ms(rec: Recorder) -> list[float]:
    """Per-candidate latency: from one decode_candidate call to the next one
    inside the same search.run, for raw indices that decoded to a candidate.
    The last candidate of each run has no successor and is left out."""
    arrs = rec.arrays()
    sel = np.isin(arrs["name"],
                  [i for i, n in enumerate(rec.names) if n == "search.decode"])
    start, parent, value = arrs["start"][sel], arrs["parent"][sel], arrs["value"][sel]
    keep = (parent[1:] == parent[:-1]) & (value[:-1] == 1)
    return ((start[1:] - start[:-1])[keep] * 1e3).tolist()


def decode_clock() -> Recorder:
    """A recorder with spans only at search.run and decode_candidate: one
    timestamp per candidate, cheap enough for an untraced pass."""
    rec = Recorder()
    rec.span(search, "run", "search.run")
    rec.span(search, "decode_candidate", "search.decode",
             outcome=lambda r: ("", 0 if r is None else 1), new_request=True)
    return rec


def scan_pass(jobs, seconds: float, path: Path, workers: int = 1, units=None,
              rec: Recorder | None = None) -> Pass:
    """Run jobs in order until `seconds` have passed (at least one job), or
    exactly `units` jobs, writing their output to the file at `path` as
    `ffplanar scan --out` would."""
    config = Config()
    res = Pass(workers=workers)
    done = []
    started = time.perf_counter()
    with open(path, "w") as sink:
        for job in jobs:
            if not _keep_going(res.units, started, seconds, units):
                break
            res.units += 1
            t = time.perf_counter()
            try:
                summary = search.run(job, config=config, workers=workers,
                                     out=sink).summary
            except Exception as exc:  # a raising candidate fails its job
                res.errors.append(f"{job}: {exc!r}")
                res.failed_ops += job.sample_count or 1
                res.ops += job.sample_count or 1
                continue
            dt = time.perf_counter() - t
            res.busy_s += dt
            res.latencies_ms.append(dt * 1e3)
            res.ops += summary["candidates"]
            done.append(job)
    res.wall_s = time.perf_counter() - started
    res.peak_rss_mb = peak_rss_mb()
    if rec is not None:
        res.candidate_ms = candidate_latencies_ms(rec)
    # Every job ends its output with exactly one summary line.
    chunks, lines = [], []
    with open(path) as fh:
        for line in fh:
            lines.append(line)
            if line.startswith('{"summary"'):
                chunks.append("".join(lines))
                lines = []
    res.outputs = [ScanOutput(job, text) for job, text in zip(done, chunks)]
    if len(chunks) != len(done) or lines:
        res.errors.append(f"{len(done)} jobs wrote {len(chunks)} summaries")
    return res


def check_scan(gate: Gate, out: ScanOutput) -> dict:
    """Re-check every record of one job's output; returns its summary."""
    job = out.job
    ctx = new_ctx(job.p, job.m, job.n)
    rows = out.lines()
    if not rows or "summary" not in rows[-1]:
        gate.fail(f"{job}: output has no summary line")
        return {}
    findings, summary = rows[:-1], rows[-1]["summary"]
    recount = {"candidates": len(findings), "oracled": 0, "planar_oracle": 0,
               "disagreements": 0}
    for name in job.filters:
        recount[f"filter_true[{name}]"] = 0
    for f in findings:
        gate.attempted += 1
        recount["oracled"] += f["oracle"] is not None
        recount["planar_oracle"] += f["oracle"] is True
        recount["disagreements"] += f["flagged"]
        for name in job.filters:
            recount[f"filter_true[{name}]"] += f["filters"][name] is True
        bad = f["flagged"] or f["oracle"] is None
        if f["oracle"] is False:
            wit = f["witness"]
            decoded = search.decode_candidate(job, ctx, f["index"])
            bad = bad or wit is None or decoded is None or not _recheck(
                gate, decoded[1], ctx,
                tuple(ctx.parse_element(wit[k]) for k in ("c", "x1", "x2")))
        elif f["oracle"] is True:
            bad = bad or f["witness"] is not None
        if bad:
            gate.fail(f"{job.family} index {f['index']}: {f}")
    if recount != summary:
        gate.fail(f"{job.family}: summary {summary} != records {recount}")
    return summary


def q25_job(job_seed: int, count: int = Q25_CHUNK) -> search.SearchJob:
    return search.SearchJob(
        5, 2, 2, family="binomial", filters=("closed-binomial", "criterion-n2"),
        oracle="bruteforce", mode="sample", sample_count=count, seed=job_seed,
        oracle_all=True, k=1)


def q25_jobs(seed: int):
    rng = random.Random(f"q25/{seed}")
    while True:
        yield q25_job(rng.getrandbits(62))


def f27_job(seed: int) -> search.SearchJob:
    ctx = new_ctx(3, 1, 3)
    a = random.Random(f"f27/{seed}").randrange(2, ctx.order)
    return search.SearchJob(
        3, 1, 3, family="cubic", filters=("closed-cubic",), oracle="rank",
        oracle_all=True, a_values=("1", ctx.format_element(a)))


def f27_jobs(seed: int):
    job = f27_job(seed)
    while True:
        yield job


# ---------------------------------------------------------------------------
# Verify calls.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyCall:
    kind: str
    tower: tuple[int, int, int]
    a: int
    coeffs: tuple[int, ...]
    planar: bool  # the verdict the paper's closed results give

    def argv(self) -> list[str]:
        p, m, n = self.tower
        ctx = new_ctx(p, m, n)
        argv = ["verify", "--p", str(p), "--m", str(m), "--n", str(n),
                "--a", ctx.format_element(self.a)]
        if self.kind == "x2":
            return argv + ["--ell-preset", "identity"]
        if self.kind == "example1":
            return argv + ["--ell-preset", "example1"]
        for t, c in enumerate(self.coeffs):
            if c:
                argv += ["--ell-coeff", f"{t}={ctx.format_element(c)}"]
        return argv

    def candidate(self) -> PlanarCandidate:
        ctx = new_ctx(*self.tower)
        return PlanarCandidate(ctx, self.a, LinearizedPoly(ctx, self.coeffs))


def _x2(tower) -> VerifyCall:
    ctx = new_ctx(*tower)
    return VerifyCall("x2", tower, 0, LinearizedPoly.identity(ctx).coeffs, True)


def _example1(tower) -> VerifyCall:
    ctx = new_ctx(*tower)
    return VerifyCall("example1", tower, ctx.inv(2), example1_ell(ctx).coeffs,
                      True)


def _binomial_member(rng: random.Random, tower) -> VerifyCall:
    ctx = new_ctx(*tower)
    while True:
        b, c = rng.randrange(ctx.order), rng.randrange(ctx.order)
        if ctx.rel_norm(b) == ctx.rel_norm(c):
            continue
        params = MonomialFamilyParams(ctx, 1, b, c)
        if theorem_monomial_predicate(params):
            cand = params.candidate()
            return VerifyCall("binomial", tower, cand.a, cand.ell.coeffs, True)


def _cubic_member(rng: random.Random, tower) -> VerifyCall:
    """Pick b[i][1], b[i][2] at random and solve for b[i][0] so that the
    closed predicate's coefficient sums hold; retry until ell permutes."""
    ctx = new_ctx(*tower)
    p, q = ctx.p, ctx.q
    while True:
        a = rng.randrange(1, ctx.order)
        rows = []
        for i in range(ctx.m):
            w = [ctx.pow(a, 2 * p**i * q ** (j + 1)) for j in range(3)]
            b1, b2 = rng.randrange(ctx.order), rng.randrange(ctx.order)
            target = ctx.rel_norm(a) if i == 0 else 0
            rest = ctx.add(ctx.mul(b1, w[1]), ctx.mul(b2, w[2]))
            rows.append((ctx.mul(ctx.sub(target, rest), ctx.inv(w[0])), b1, b2))
        coeffs = CubicCoeffs(ctx, a, tuple(rows))
        if cubic_theorem_predicate(coeffs):
            return VerifyCall("cubic", tower, a, coeffs.ell().coeffs, True)


def _nonplanar(rng: random.Random, tower) -> VerifyCall:
    """A random candidate that the paper's closed results call non-planar:
    the n = 2 criterion, the cubic characterization, or the non-existence
    witness for n >= 5.  Draws the closed results call planar are redrawn,
    so that no draw turns into a full scan of a big tower."""
    ctx = new_ctx(*tower)
    while True:
        a = rng.randrange(1, ctx.order)
        coeffs = tuple(rng.randrange(ctx.order) for _ in range(ctx.degree))
        if ctx.n == 2:
            cand = PlanarCandidate(ctx, a, LinearizedPoly(ctx, coeffs))
            planar = ctx.rel_trace(a) == 0 or criterion_quadratic(cand)
        elif ctx.n == 3:
            rows = tuple(tuple(coeffs[i + ctx.m * j] for j in range(3))
                         for i in range(ctx.m))
            planar = cubic_theorem_predicate(CubicCoeffs(ctx, a, rows))
        else:
            planar = nonexistence_witness(ctx, a) is None
        if not planar:
            return VerifyCall("nonplanar", tower, a, coeffs, False)


def verify_round(seed: int, r: int) -> list[VerifyCall]:
    """Round r of the seeded call list; every round has the same mix."""
    rng = random.Random(f"verify/{seed}/{r}")
    calls = [_x2(t) for t in VERIFY_X2]
    calls.append(_x2(VERIFY_HEAVY[r % len(VERIFY_HEAVY)]))
    calls.append(_example1((5, 2, 2)))
    calls.append(_binomial_member(rng, (5, 2, 2)))
    calls.append(_cubic_member(rng, (7, 1, 3)))
    calls.append(_cubic_member(rng, (3, 2, 3)))
    for tower in VERIFY_TOWERS:
        calls += [_nonplanar(rng, tower)
                  for _ in range(VERIFY_NONPLANAR.get(tower, 1))]
    rng.shuffle(calls)
    return calls


@dataclass
class VerifyOutput:
    call: VerifyCall
    code: int | None
    text: str

    def digest_text(self) -> str:
        rows = []
        for line in self.text.splitlines():
            row = json.loads(line)
            row.pop("ms", None)  # timings differ between runs
            rows.append(json.dumps(row, sort_keys=True))
        return f"{self.code}\n" + "\n".join(rows) + "\n"


def verify_pass(seed: int, seconds: float, units=None,
                rec: Recorder | None = None) -> Pass:
    """Run whole rounds of verify calls through cli.main, stdout captured."""
    res = Pass()
    started = time.perf_counter()
    while _keep_going(res.units, started, seconds, units, VERIFY_LEAST_ROUNDS):
        for call in verify_round(seed, res.units):
            argv = call.argv()
            sink = io.StringIO()
            if rec is not None:
                rec.request = res.ops
            span = rec.region("cli.verify") if rec else contextlib.nullcontext()
            with contextlib.redirect_stdout(sink), span:
                t = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    code = None
                    res.errors.append(f"{argv}: {exc!r}")
                dt = time.perf_counter() - t
            res.busy_s += dt
            res.ops += 1
            res.latencies_ms.append(dt * 1e3)
            res.outputs.append(VerifyOutput(call, code, sink.getvalue()))
        res.units += 1
    res.wall_s = time.perf_counter() - started
    res.peak_rss_mb = peak_rss_mb()
    return res


def check_verify(gate: Gate, out: VerifyOutput) -> bool | None:
    """Check one verify call; returns its planar verdict (None if broken)."""
    call = out.call
    gate.attempted += 1
    if out.code not in (0, 1):
        gate.fail(f"{call.kind} {call.tower}: exit code {out.code}")
        return None
    if (out.code == 0) != call.planar:
        gate.fail(f"{call.kind} {call.tower}: wrong verdict, exit {out.code}")
        return None
    try:
        rows = [json.loads(line) for line in out.text.splitlines()]
    except json.JSONDecodeError:
        gate.fail(f"{call.kind} {call.tower}: malformed output")
        return None
    if not rows or rows[-1].get("planar") != (out.code == 0) \
            or not rows[-1].get("agreement"):
        gate.fail(f"{call.kind} {call.tower}: bad summary {rows[-1:]}")
        return None
    ctx = new_ctx(*call.tower)
    cand = call.candidate()
    for row in rows[:-1]:
        wit = row.get("witness")
        if wit is None:
            # only the closed criterion decides "not planar" without a witness
            ok = row["planar"] or row["method"] == "criterion-n2"
        else:
            ok = not row["planar"] and _recheck(
                gate, cand, ctx,
                tuple(ctx.parse_element(wit[k]) for k in ("c", "x1", "x2")))
        if not ok:
            gate.fail(f"{call.kind} {call.tower}: {row['method']} witness {wit}")
            return None
    return out.code == 0


# ---------------------------------------------------------------------------
# Workload table.
# ---------------------------------------------------------------------------

def pin_q25(gate: Gate, outputs) -> None:
    """A pinned job, the same for every seed, must give the pinned summary."""
    job = q25_job(Q25_PINNED_SEED, Q25_PINNED_COUNT)
    summary = search.run(job, config=Config(), out=io.StringIO()).summary
    if summary != Q25_PINNED:
        gate.fail(f"pinned q25 job: {summary} != {Q25_PINNED}")


def pin_f27(gate: Gate, outputs) -> None:
    """The a = 1 half of every f27 job, which no seed changes, must have the
    pinned counts."""
    for out in outputs:
        half = [r for r in out.lines()[:-1] if r["index"] < F27_HALF]
        got = {"candidates": len(half),
               "planar_oracle": sum(r["oracle"] is True for r in half),
               "filter_true[closed-cubic]": sum(
                   r["filters"]["closed-cubic"] is True for r in half)}
        if got != F27_PINNED_HALF:
            gate.fail(f"f27 a=1 half: {got} != {F27_PINNED_HALF}")


@dataclass(frozen=True)
class Workload:
    name: str
    towers: tuple
    jobs: Callable | None = None     # seed -> scan jobs; None for verify calls
    workers: int = 1                 # workers of the timed pass
    pinned: Callable | None = None   # gate against counts pinned on seed code


WORKLOADS = {
    "q25-binomial-sweep": Workload("q25-binomial-sweep", ((5, 2, 2),),
                                   q25_jobs, 1, pin_q25),
    "f27-cubic-rank-scan": Workload("f27-cubic-rank-scan", ((3, 1, 3),),
                                    f27_jobs, 2, pin_f27),
    "verify-towers": Workload("verify-towers", VERIFY_TOWERS),
}
