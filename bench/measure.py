"""Orchestration of one benchmark run: passes, gates, probes, metrics.

Imported by run.py once the program under test is pinned; see README.md.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import layers
import workloads as W
from spans import Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PROBES = 5          # cold set-up probes per untraced run
SPLIT_PROBES = 3    # cold probes with the modulus search timed apart
QUANTILE_MIN_TAIL = 10


def machine() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        rev = proc.stdout.strip() or None
    return {
        "machine": platform.machine(), "processor": platform.processor(),
        "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_revision": rev,
    }


# ---------------------------------------------------------------------------
# Cold set-up probes.
# ---------------------------------------------------------------------------

def probe(towers, split: bool = False) -> tuple[float, dict]:
    """Start a fresh interpreter that imports ffplanar and builds `towers`;
    returns the seconds until it reports ready, and its phase timings."""
    argv = [sys.executable, str(BENCH / "probe.py")]
    argv += [",".join(map(str, t)) for t in towers]
    argv += ["--split"] if split else []
    started = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return ready, json.loads(line)


def setup_seconds(towers) -> float:
    probe(towers[:1])  # compiles bytecode once, so every timed probe sees it
    return statistics.median(probe(towers)[0] for _ in range(PROBES))


def setup_split(towers) -> dict:
    """Median over cold probes of each phase, summed over the towers."""
    runs = [probe(towers, split=True)[1] for _ in range(SPLIT_PROBES)]

    def phase(fn):
        return statistics.median(sum(fn(t) for t in r["towers"]) for r in runs)

    return {
        "modulus_search_s": phase(lambda t: t["modulus_search_s"]),
        "table_build_s": phase(lambda t: t["new_ctx_s"] - t["modulus_search_s"]),
        "lazy_tables_s": phase(lambda t: t["lazy_tables_s"]),
        "towers": runs[0]["towers"],
    }


# ---------------------------------------------------------------------------
# Passes and gates per workload.
# ---------------------------------------------------------------------------

def quantiles_ms(latencies: list[float]) -> tuple[float, float]:
    if len(latencies) < 2:
        raise RuntimeError("too few latency samples")
    deciles = statistics.quantiles(latencies, n=10)
    return statistics.median(latencies), deciles[8]


def _pass(wl, seed, seconds, tag, units=None, rec=None, workers=1,
          clock=False):
    """A pass through search.run (scans) or cli.main (verify-towers); with
    `clock`, a 1-worker scan also times each candidate."""
    if wl.jobs is None:
        return W.verify_pass(seed, seconds, units, rec)
    path = OUT / f"{wl.name}-{seed}-{tag}.jsonl"
    if clock:
        with W.decode_clock() as clock_rec:
            return W.scan_pass(wl.jobs(seed), seconds, path, workers, units,
                               clock_rec)
    return W.scan_pass(wl.jobs(seed), seconds, path, workers, units, rec)


def gate_outputs(wl, res, gate) -> dict:
    """Check one pass's outputs; returns verdict counts for share metrics."""
    counts = {"ops": 0, "decided": 0, "oracled": 0, "planar": 0, "bytes": 0}
    gate.problems += res.errors
    gate.failed += res.failed_ops
    gate.attempted += res.failed_ops
    for out in res.outputs:
        if wl.jobs is None:
            counts["ops"] += 1
            counts["decided"] += 1
            counts["planar"] += bool(W.check_verify(gate, out))
        else:
            summary = W.check_scan(gate, out)
            counts["ops"] += summary.get("candidates", 0)
            counts["decided"] += summary.get("oracled", 0)
            counts["oracled"] += summary.get("oracled", 0)
            counts["planar"] += summary.get("planar_oracle", 0)
            counts["bytes"] += len(out.text.encode())
    if wl.pinned is not None:
        wl.pinned(gate, res.outputs)
    return counts


def gate_same(gate, res, ref) -> None:
    """The byte-identical contract: every unit of a multi-worker pass ran the
    one job of the workload, so each must equal the 1-worker output."""
    want = [o.digest_text() for o in ref.outputs[:1]]
    if not want or not res.outputs or \
            any(o.digest_text() != want[0] for o in res.outputs):
        gate.fail(f"output on {res.workers} workers differs from 1 worker")


def run_untraced(wl, seed: int, seconds: float) -> tuple[dict, dict, W.Gate]:
    gate = W.Gate()
    W.setup(wl.towers)
    timed = ref = _pass(wl, seed, seconds, "timed", workers=wl.workers)
    latencies = timed.latencies_ms
    if wl.workers > 1:
        ref = _pass(wl, seed, 0, "ref", units=1, clock=True)
        gate_same(gate, timed, ref)
        # The pass is one job, so latencies are per candidate, from the
        # 1-worker scan and over the a = 1 half that every seed shares: how
        # early the rank route exits depends on a.
        latencies = ref.candidate_ms[:W.F27_HALF]
    counts = gate_outputs(wl, ref, gate)
    gate.attempted = max(gate.attempted, timed.ops)
    p50, p90 = quantiles_ms(latencies)
    tail = sum(v > p90 for v in latencies)
    if tail < QUANTILE_MIN_TAIL:
        gate.problems.append(f"only {tail} latency samples above p90")
    metrics = {
        "setup_s": (setup_seconds(wl.towers), "s"),
        "cands_per_s": (timed.rate, "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_p90": (p90, "ms"),
        "peak_rss_mb": (timed.peak_rss_mb, "MB"),
    }
    detail = {
        "ops": timed.ops, "units": timed.units, "busy_s": timed.busy_s,
        "wall_s": timed.wall_s, "latency_samples": len(latencies),
        "latency_samples_above_p90": tail, "digest": timed.digest(),
        "planar_share": counts["planar"] / max(counts["decided"], 1),
    }
    return metrics, detail, gate


def run_traced(wl, seed: int, seconds: float) -> tuple[dict, dict, W.Gate]:
    gate = W.Gate()
    W.setup(wl.towers)
    base = _pass(wl, seed, seconds, "untraced")
    speedup = 0.0
    if wl.workers > 1:
        pool = _pass(wl, seed, 0, "pool", units=base.units, workers=wl.workers)
        gate_same(gate, pool, base)
        speedup = pool.rate / base.rate
    with layers.instrument(Recorder()) as rec:
        traced = _pass(wl, seed, 0, "traced", units=base.units, rec=rec)
    if traced.digest() != base.digest():
        gate.fail("traced and untraced outputs differ")
    counts = gate_outputs(wl, base, gate)
    split = setup_split(wl.towers)
    extra = dict(
        split,
        witness_us=gate.witness_us,
        planar_share=counts["planar"] / max(counts["decided"], 1),
        oracle_share=counts["oracled"] / max(counts["ops"], 1),
        output_bytes=counts["bytes"],
        pool_speedup=speedup,
        overhead_share=traced.busy_s / base.busy_s - 1.0,
    )
    metrics = layers.per_layer(rec, traced.ops, extra)
    spans_path = OUT / f"{wl.name}-{seed}-spans.npz"
    rec.save(spans_path)
    detail = {
        "ops": traced.ops, "units": traced.units,
        "untraced_busy_s": base.busy_s, "traced_busy_s": traced.busy_s,
        "tracing_overhead_s": traced.busy_s - base.busy_s,
        "spans": len(rec.name), "spans_file": str(spans_path.relative_to(ROOT)),
        "scalar_calls": rec.counts, "missing_wraps": rec.missing,
        "towers": split["towers"], "digest": base.digest(),
    }
    return metrics, detail, gate


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = W.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    runner = run_traced if trace else run_untraced
    metrics, detail, gate = runner(wl, seed, seconds)
    result = {
        "correct": gate.failed == 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds,
                  trace=trace, fail_share=gate.failed / max(gate.attempted, 1),
                  problems=gate.problems, detail=detail, machine=machine())
    path = OUT / f"{name}-{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(record)
    return result


def report(record: dict) -> None:
    err = sys.stderr
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} correct={record['correct']}", file=err)
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}", file=err)
    print(f"  {'fail_share':<40} {record['fail_share']:>14.6g} ratio "
          f"({record['failed']}/{record['attempted']})", file=err)
    for key, value in record["detail"].items():
        if key not in ("towers", "scalar_calls"):
            print(f"  . {key} = {value}", file=err)
    for msg in record["problems"]:
        print(f"  ! {msg}", file=err)
