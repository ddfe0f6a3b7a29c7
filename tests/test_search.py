import dataclasses
import hashlib
import io
import json
import math
import os
import time
import tracemalloc
from concurrent.futures import Future

import pytest

from ffplanar import linpoly, planarity, search
from ffplanar.config import Config
from ffplanar.families import MonomialFamilyParams
from ffplanar.field import FieldCtx, new_ctx
from ffplanar.linpoly import LinearizedPoly
from ffplanar.planarity import PlanarCandidate, criterion_quadratic, is_planar_bruteforce
from ffplanar.search import (
    CHUNK,
    Finding,
    SearchJob,
    candidate_space,
    decode_candidate,
    findings,
    index_digits,
    run,
    seeded_stream,
    splitmix64,
)

F9 = new_ctx(3, 1, 2)


def test_job_validation():
    with pytest.raises(ValueError):
        SearchJob(3, 1, 2, family="nope")
    with pytest.raises(ValueError):
        SearchJob(3, 1, 2, family="monomial", oracle="nope")
    with pytest.raises(ValueError):
        SearchJob(3, 1, 2, family="monomial", filters=("nope",))
    with pytest.raises(ValueError):
        SearchJob(3, 1, 2, family="monomial", mode="sample")
    for audit_every in (0, -1):
        with pytest.raises(ValueError, match="audit ratio must be positive"):
            SearchJob(3, 1, 2, family="monomial", audit_every=audit_every)
    # each closed predicate needs its own family, and the n = 2 criterion a
    # quadratic tower: rejected when the job is built, before any candidate
    for family, filt in (("monomial", "closed-cubic"),
                         ("monomial", "closed-binomial"),
                         ("binomial", "closed-nbc"), ("nbc", "closed-binomial"),
                         ("cubic", "closed-binomial"), ("example1", "closed-nbc")):
        with pytest.raises(ValueError, match="family"):
            SearchJob(3, 2, 2, family=family, filters=(filt,))
    with pytest.raises(ValueError, match="n = 2"):
        SearchJob(3, 1, 3, family="cubic", filters=("criterion-n2",))
    with pytest.raises(ValueError, match="n = 2"):
        SearchJob(3, 1, 4, family="monomial", filters=("criterion-n2",))
    with pytest.raises(ValueError, match="family"):
        SearchJob.from_json({"p": 3, "m": 1, "n": 2, "family": "monomial",
                             "filters": ["closed-binomial"]})
    for family, filt in (("binomial", "closed-binomial"), ("nbc", "closed-nbc"),
                         ("cubic", "closed-cubic"), ("binomial", "criterion-n2"),
                         ("example1", "criterion-n2")):
        SearchJob(3, 2, 3 if family == "cubic" else 2, family=family,
                  filters=(filt,))


def test_job_json_round_trip():
    job = SearchJob(3, 1, 2, family="binomial", filters=("closed-binomial",),
                    oracle_all=True, k=1)
    assert SearchJob.from_json(job.to_json()) == job
    # every field away from its default, through the JSON text as a file holds it
    full = SearchJob(5, 2, 2, family="nbc", filters=("closed-nbc", "criterion-n2"),
                     oracle="rank", mode="sample", sample_count=7, seed=11,
                     audit_every=5, oracle_all=True, k=2, a_values=("1", "2,1"))
    assert all(getattr(full, f.name) != f.default for f in dataclasses.fields(SearchJob)
               if f.default is not dataclasses.MISSING)
    assert SearchJob.from_json(json.loads(json.dumps(full.to_json()))) == full
    assert set(full.to_json()) == {f.name for f in dataclasses.fields(SearchJob)}


def test_splitmix_is_deterministic_and_spread():
    vals = [splitmix64(i) for i in range(100)]
    assert vals == [splitmix64(i) for i in range(100)]
    assert len(set(vals)) == 100
    assert seeded_stream(1, 5) != seeded_stream(2, 5)


def test_monomial_sweep_matches_direct_bruteforce():
    job = SearchJob(3, 1, 2, family="monomial", oracle_all=True)
    result = run(job)
    assert result.summary["candidates"] == 9 * 9 * 2
    assert result.summary["disagreements"] == 0
    expected_planar = 0
    for a in range(9):
        for b in range(9):
            for t in range(2):
                cand = PlanarCandidate(F9, a, LinearizedPoly.monomial(F9, b, t))
                expected_planar += is_planar_bruteforce(cand).planar
    assert result.summary["planar_oracle"] == expected_planar


def test_monomial_sweep_with_criterion_filter_sound():
    job = SearchJob(3, 1, 2, family="monomial", filters=("criterion-n2",),
                    oracle_all=True)
    found = list(findings(job))
    assert len(found) == 9 * 9 * 2
    for f in found:
        assert not f.flagged
        assert f.filters["criterion-n2"] == f.oracle


def test_binomial_grid_zero_disagreements_q9():
    job = SearchJob(3, 2, 2, family="binomial", filters=("closed-binomial",),
                    oracle_all=True, k=1)
    result = run(job)
    assert result.summary["candidates"] == 5760
    assert result.summary["disagreements"] == 0
    assert result.summary["planar_oracle"] == 0
    assert result.summary["filter_true[closed-binomial]"] == 0


def test_nbc_sample_zero_disagreements_q9():
    job = SearchJob(3, 2, 2, family="nbc", filters=("closed-nbc",),
                    oracle_all=True, mode="sample", sample_count=2000)
    result = run(job)
    assert result.summary["candidates"] > 50
    assert result.summary["disagreements"] == 0


def test_empty_grid_summary():
    job = SearchJob(3, 1, 3, family="cubic", a_values=())
    result = run(job)
    assert result.summary["candidates"] == 0
    assert result.summary["disagreements"] == 0


def test_audit_subsample_forces_oracle():
    job = SearchJob(3, 1, 2, family="monomial", filters=("criterion-n2",),
                    audit_every=7)
    found = list(findings(job))
    audited = [f for f in found if f.oracle is not None]
    assert audited
    for f in audited:
        assert f.index % 7 == 0
        assert f.filters["criterion-n2"] == f.oracle
    assert not any(f.flagged for f in found)


def test_example1_family_runs():
    job = SearchJob(5, 2, 2, family="example1", oracle="rank", oracle_all=True)
    result = run(job)
    assert result.summary == dict(
        candidates=1, oracled=1, planar_oracle=1, disagreements=0
    )


def test_output_byte_identical_across_worker_counts():
    job = SearchJob(3, 1, 2, family="monomial", filters=("criterion-n2",),
                    oracle_all=True)
    outs = []
    for workers in (1, 2, 3):
        buf = io.StringIO()
        run(job, workers=workers, out=buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] == outs[2]
    lines = outs[0].strip().split("\n")
    assert len(lines) == 162 + 1
    assert "summary" in json.loads(lines[-1])


def test_output_byte_identical_across_worker_counts_over_chunks():
    # 26 244 indices, so every run of either job spans several chunks
    exhaustive = SearchJob(3, 1, 4, family="monomial")
    space = candidate_space(exhaustive, new_ctx(3, 1, 4))
    assert space > 2 * CHUNK
    sample = SearchJob(3, 1, 4, family="monomial", mode="sample",
                       sample_count=2 * CHUNK + 100)
    stream = [seeded_stream(sample.seed, i) % space for i in range(sample.sample_count)]
    for job, order in ((exhaustive, list(range(space))), (sample, stream)):
        outs = []
        for workers in (1, 2, 3):
            buf = io.StringIO()
            run(job, workers=workers, out=buf)
            outs.append(buf.getvalue())
        # a set, not ==, so that a failure does not diff megabytes of text
        assert len(set(outs)) == 1
        lines = outs[0].splitlines()
        assert [json.loads(line)["index"] for line in lines[:-1]] == order


def test_findings_is_lazy(monkeypatch):
    decoded = []
    real = search.decode_candidate

    def counting(job, ctx, index):
        decoded.append(index)
        return real(job, ctx, index)

    monkeypatch.setattr(search, "decode_candidate", counting)
    job = SearchJob(3, 1, 4, family="monomial")
    assert candidate_space(job, new_ctx(3, 1, 4)) > 3 * CHUNK
    first = next(findings(job))
    assert first.index == 0
    assert 0 < len(decoded) <= CHUNK


def test_one_worker_takes_a_small_job_in_one_chunk(monkeypatch):
    # only a pool gains from four chunks per worker; one worker decodes the
    # job's indices as one chunk, so its batches are as full as they can be
    chunks = []
    real = search._chunk_findings

    def recording(job, config, indices):
        chunks.append(len(indices))
        return real(job, config, indices)

    monkeypatch.setattr(search, "_chunk_findings", recording)
    job = SearchJob(5, 2, 2, family="binomial", filters=("closed-binomial",),
                    mode="sample", sample_count=32)
    assert len(list(findings(job))) > 20
    assert chunks == [32]


@pytest.mark.parametrize("job", [
    SearchJob(3, 2, 2, family="binomial", filters=("criterion-n2",), oracle_all=True),
    SearchJob(3, 2, 2, family="nbc", filters=("criterion-n2",), oracle_all=True),
    SearchJob(3, 1, 7, family="monomial", oracle_all=True, mode="sample",
              sample_count=80),
], ids=["binomial-F_81", "nbc-F_81", "monomial-F_3^7"])
def test_batched_chunks_match_one_candidate_routes(job):
    # every candidate's verdict, witness and criterion value from the
    # batched chunk path equal those of the one-candidate routes; F_3^7 has
    # two digit planes and lies above ADD_TABLE_CAP
    ctx = new_ctx(job.p, job.m, job.n)
    depths = set()
    for f in findings(job):
        cand = decode_candidate(job, ctx, f.index)[1]
        rep = is_planar_bruteforce(cand)
        assert (f.oracle, f.witness) == (rep.planar, rep.to_json(ctx)["witness"])
        if job.filters:
            assert f.filters["criterion-n2"] == criterion_quadratic(cand)
        depths.add(None if rep.planar else rep.witness[0])
    # batches whose rows leave at different depths
    assert len(depths) > 2


@pytest.mark.parametrize("oracle, table_max, audit_every, tables", [
    ("reduction", planarity.CRITERION_TABLE_MAX, 1, "every"),
    ("bruteforce", planarity.CRITERION_TABLE_MAX, 7, "every"),
    ("bruteforce", 0, 7, "oracled"),
    ("rank", 0, 1, "none"),
], ids=["criterion+reduction", "criterion+audit", "kernel-criterion+audit",
        "kernel-criterion+rank"])
def test_batched_scan_makes_each_ell_table_once(oracle, table_max, audit_every,
                                                 tables, monkeypatch):
    # value tables are cached on each polynomial, so the criterion, brute
    # force and the reduction share one table per candidate; rows that
    # nothing reads get none: the criterion's kernel route (above
    # CRITERION_TABLE_MAX) reads the images, and brute force builds tables
    # only for the candidates it checks
    made = []
    real = linpoly.value_tables

    def counting(ctx, images):
        made.append(len(images))
        return real(ctx, images)

    monkeypatch.setattr(linpoly, "value_tables", counting)
    monkeypatch.setattr(planarity, "CRITERION_TABLE_MAX", table_max)
    job = SearchJob(3, 2, 2, family="binomial", filters=("criterion-n2",),
                    oracle=oracle, audit_every=audit_every, mode="sample",
                    sample_count=300)
    found = list(findings(job))
    oracled = sum(f.oracle is not None for f in found)
    assert 0 < oracled and (oracled < len(found)) == (audit_every > 1)
    assert sum(made) == {"every": len(found), "oracled": oracled, "none": 0}[tables]


def test_batched_chunk_memory_is_bounded_by_its_batches():
    # a batch holds the value tables of at most BRUTE_BLOCK_ENTRIES / order
    # candidates (9 on F_3^8); the tables of a whole chunk of 2048 would take
    # 107 MB
    job = SearchJob(3, 1, 8, family="monomial", oracle_all=True)
    ctx = new_ctx(3, 1, 8)
    base = ctx.degree * ctx.order  # a = 1
    search._chunk_findings(job, Config(), range(base, base + 9))  # warm tables
    tracemalloc.start()
    try:
        found = search._chunk_findings(job, Config(), range(base, base + 512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 512 and all(f.oracle is not None for f in found)
    assert peak < 16 << 20


class _InlinePool:
    """Stands in for ProcessPoolExecutor: runs each chunk when it is
    submitted and records the chunk's length."""
    submitted: list[int] = []

    def __init__(self, max_workers):
        pass

    def submit(self, fn, job, config, indices):
        self.submitted.append(len(indices))
        future = Future()
        future.set_result(fn(job, config, indices))
        return future

    def shutdown(self, cancel_futures):
        pass


def test_pool_splits_small_jobs_and_bounds_its_window(monkeypatch):
    monkeypatch.setattr(search, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "submitted", [])
    small = SearchJob(3, 1, 2, family="monomial")  # 162 indices, below CHUNK
    assert len(list(findings(small, workers=2))) == 162
    assert _InlinePool.submitted == [21] * 7 + [15]
    _InlinePool.submitted.clear()
    big = SearchJob(3, 1, 4, family="monomial")  # 13 chunks of at most CHUNK
    next(findings(big, workers=2))
    assert _InlinePool.submitted == [CHUNK] * 5  # 2 * workers ahead of the first


def _pid_chunk(job, config, indices):
    time.sleep(0.2)
    return [os.getpid()]


def test_small_job_reaches_every_worker(monkeypatch):
    monkeypatch.setattr(search, "_chunk_findings", _pid_chunk)
    pids = list(findings(SearchJob(3, 1, 2, family="monomial"), workers=2))
    assert len(pids) == 8
    assert len(set(pids)) == 2 and os.getpid() not in pids


@pytest.mark.parametrize("job", [
    SearchJob(3, 1, 3, family="cubic", a_values=("1", "0")),
    SearchJob(3, 1, 3, family="cubic", a_values=("1", "3")),
    SearchJob(3, 1, 3, family="cubic", a_values=(), mode="sample", sample_count=5),
], ids=["cubic-a-zero", "cubic-a-bad-digit", "sample-empty-space"])
def test_jobs_that_cannot_decode_are_rejected(job, monkeypatch):
    # constructors raise on the first candidate of any other bad job, but
    # these jobs fail later (after the a = 1 candidates) or in no constructor
    monkeypatch.setattr(search, "decode_candidate", None)  # never reached
    buf = io.StringIO()
    with pytest.raises(ValueError):
        run(job, out=buf)
    assert buf.getvalue() == ""


def test_rank_scan_output_pinned():
    # sha256 of the output of the rank route before it built direction
    # matrices from basis matrices; verdicts and witnesses must not move
    pinned = [
        (SearchJob(3, 1, 3, family="cubic", filters=("closed-cubic",), oracle="rank",
                   oracle_all=True, mode="sample", sample_count=500),
         "250e3781012ef230cf9eb4175053c595b5a7927ed6a96af86fbae2385b93289c"),
        (SearchJob(3, 1, 4, family="monomial", oracle="rank", oracle_all=True,
                   mode="sample", sample_count=300),
         "bb7fd51cb35cb40596d598f71121fc19da8ee9b77836e999a58bd9f230015531"),
        (SearchJob(5, 1, 2, family="monomial", filters=("criterion-n2",),
                   oracle="rank", oracle_all=True),
         "d8e8485ebf56febab9a2c5c16de4b50b42d6dc74f9f2456df2ae1b74068459a3"),
    ]
    for job, digest in pinned:
        buf = io.StringIO()
        run(job, out=buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_family_layout_scan_output_pinned():
    # sha256 of the output when each family decoded its raw index by its own
    # arithmetic: the nbc digits (c0, c, b) and the cubic a_values digit
    pinned = [
        (SearchJob(3, 2, 2, family="nbc", filters=("closed-nbc",), oracle_all=True,
                   mode="sample", sample_count=400),
         "eb9fa46dc1d54bb5b0ce25d376560482d517f32efeab6c10345d79d86d524f3a"),
        (SearchJob(3, 1, 3, family="cubic", filters=("closed-cubic",), oracle="rank",
                   oracle_all=True, mode="sample", sample_count=300,
                   a_values=("1", "0,1")),
         "482bd6cccf1a68d1ba8473fed4821e1124058263831cb39ae8975b127cab53f4"),
    ]
    for job, digest in pinned:
        buf = io.StringIO()
        run(job, out=buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_bruteforce_scan_output_pinned():
    # sha256 of the output of the brute-force route when it scanned every
    # direction and recovered witnesses by a Python loop; the F_3^7 job runs
    # on digit arithmetic, the others on the addition table
    pinned = [
        (SearchJob(5, 2, 2, family="binomial",
                   filters=("closed-binomial", "criterion-n2"), oracle="bruteforce",
                   oracle_all=True, mode="sample", sample_count=200, k=1),
         "249b4d61811a8656bbb508e5a2c1b9ddd667a65b46f2da571bcc0eb6dd0712c7"),
        (SearchJob(3, 1, 4, family="monomial", oracle="bruteforce", oracle_all=True,
                   mode="sample", sample_count=300),
         "d1c142a3e468b23ac7777c88b00c0927ec6f3d1b459e06efef621b33f627fb09"),
        (SearchJob(3, 1, 7, family="monomial", oracle="bruteforce", oracle_all=True,
                   mode="sample", sample_count=12),
         "7d11bdb1b61dbc9bd168f709a5fd57c38f64855ebab0605c05b0aa3410442d2a"),
        (SearchJob(5, 1, 2, family="monomial", filters=("criterion-n2",),
                   oracle="bruteforce", oracle_all=True),
         "a21e80609f34aa56b4842c3836b0624cae347546ed70b9cd82a172283dbe53a4"),
    ]
    for job, digest in pinned:
        buf = io.StringIO()
        run(job, out=buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_audit_path_scan_output_pinned():
    # every other pinned scan oracles every candidate; this one oracles only
    # the audit subsample, so the oracle's batch is a subset of the filters'
    # one.  The filters agree on every candidate, so nothing is flagged.
    # sha256 of the output before closed-binomial ran once per batch
    job = SearchJob(5, 2, 2, family="binomial", filters=("closed-binomial", "criterion-n2"),
                    mode="sample", sample_count=500)
    buf = io.StringIO()
    summary = run(job, out=buf).summary
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "54d1445cd5b2c91b27a7c59621e59bd060527b5006144bd4d5be0264db909242"
    assert 0 < summary["oracled"] < summary["candidates"]
    assert summary["disagreements"] == 0


def test_reduction_scan_output_pinned():
    # sha256 of the output of the reduction route when it evaluated ell(u) by
    # scalar arithmetic for every u, before it read ell's value table
    pinned = [
        (SearchJob(3, 1, 4, family="monomial", oracle="reduction", oracle_all=True,
                   mode="sample", sample_count=300),
         "de5f99575b52133658679b92315c12c15c0c362e44f761b9ac50cce93d871a6d"),
        (SearchJob(5, 2, 2, family="binomial", filters=("criterion-n2",),
                   oracle="reduction", oracle_all=True, mode="sample",
                   sample_count=200),
         "675b54ff1f1fa24b2cf215f50fff27d9b2789eafd339bfae487097784e06ecc4"),
    ]
    for job, digest in pinned:
        buf = io.StringIO()
        run(job, out=buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_finding_lines_are_json_dumps_with_sorted_keys():
    # the scan's encoder, made once per process, writes each finding and the
    # summary as json.dumps(obj, sort_keys=True) does: nested lists (cubic
    # params), witness dicts, nulls and flags
    jobs = [SearchJob(3, 1, 3, family="cubic", filters=("closed-cubic",), oracle="rank",
                      oracle_all=True, mode="sample", sample_count=40),
            SearchJob(5, 2, 2, family="binomial", filters=("closed-binomial", "criterion-n2"),
                      mode="sample", sample_count=60)]
    for job in jobs:
        lines = []
        for f in findings(job):
            lines.append(f.to_json_line())
            assert lines[-1] == json.dumps(dataclasses.asdict(f), sort_keys=True)
        assert any('"witness": {' in line for line in lines)
        assert any('"witness": null' in line for line in lines)
    summary = {"summary": {"candidates": 3, "filter_true[closed-cubic]": 1}}
    assert search._encode(summary) == json.dumps(summary, sort_keys=True)


def test_sample_mode_deterministic():
    job = SearchJob(3, 1, 3, family="cubic", mode="sample", sample_count=50,
                    oracle="rank", oracle_all=True, seed=7)
    r1 = [f.index for f in findings(job)]
    assert r1 == [f.index for f in findings(job)]
    job2 = SearchJob(3, 1, 3, family="cubic", mode="sample", sample_count=50,
                     oracle="rank", oracle_all=True, seed=8)
    assert r1 != [f.index for f in findings(job2)]


@pytest.mark.parametrize("job, radices", [
    (SearchJob(3, 1, 2, family="monomial"), (2, 9, 9)),
    (SearchJob(3, 2, 2, family="binomial"), (81, 81)),
    (SearchJob(3, 2, 2, family="nbc"), (81, 81, 81)),
    (SearchJob(3, 1, 3, family="cubic", a_values=("1", "2", "0,1")), (27, 27, 27, 3)),
    (SearchJob(3, 2, 2, family="example1"), ()),
], ids=["monomial", "binomial", "nbc", "cubic", "example1"])
def test_index_digits_are_little_endian_mixed_radix(job, radices):
    ctx = new_ctx(job.p, job.m, job.n)
    space = candidate_space(job, ctx)
    assert space == math.prod(radices)
    weights = [math.prod(radices[:i]) for i in range(len(radices))]
    for index in {0, space // 3, space - 1}:
        digits = index_digits(job, ctx, index)
        assert len(digits) == len(radices)
        assert all(0 <= d < r for d, r in zip(digits, radices))
        assert sum(d * w for d, w in zip(digits, weights)) == index


def test_decode_candidate_skips_invalid():
    ctx = new_ctx(3, 2, 2)
    job = SearchJob(3, 2, 2, family="binomial")
    # the binomial index is b * n + c; b = c = 1 has equal norms
    assert index_digits(job, ctx, 7 * 81 + 3) == [3, 7]
    assert decode_candidate(job, ctx, 1 * 81 + 1) is None
    decoded = decode_candidate(job, ctx, 1 * 81 + 3)
    assert decoded is not None
    params_json, cand, params = decoded
    assert params_json["k"] == 1
    assert cand.ctx is ctx


def test_cubic_rank_sweep_throughput_floor():
    # full 3-coefficient sweep over F_27 in rank mode within the time budget
    job = SearchJob(3, 1, 3, family="cubic", oracle="rank", oracle_all=True,
                    a_values=("1",))
    ctx = new_ctx(3, 1, 3)
    assert candidate_space(job, ctx) == 27**3
    started = time.perf_counter()
    result = run(job)
    elapsed = time.perf_counter() - started
    assert result.summary["candidates"] == 27**3
    assert elapsed <= 60.0


def test_binomial_decode_and_predicate_take_three_norms(monkeypatch):
    # decode's skip rule takes N(b) and N(c), the params keep them and the
    # closed predicate adds N(b - c^q): 3 norms per decoded index
    ctx = new_ctx(5, 2, 2)
    job = SearchJob(5, 2, 2, family="binomial", filters=("closed-binomial",), k=1)
    calls, real = [], FieldCtx.rel_norm
    monkeypatch.setattr(FieldCtx, "rel_norm",
                        lambda self, a: calls.append(a) or real(self, a))
    skipped = 0
    for raw in range(0, candidate_space(job, ctx), 997):
        calls.clear()
        decoded = decode_candidate(job, ctx, raw)
        if decoded is None:
            assert len(calls) == 2
            skipped += 1
            continue
        params = decoded[2]
        assert params.norms == (real(ctx, params.b), real(ctx, params.c))
        search.theorem_monomial_predicate(params)
        assert len(calls) == 3
    monkeypatch.undo()
    assert skipped and params == MonomialFamilyParams(ctx, 1, params.b, params.c)
