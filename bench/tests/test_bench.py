"""Tests of the benchmark itself: tiny workloads, the gate, and tracing.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import workloads as W  # noqa: E402
from ffplanar import cli, search  # noqa: E402
from ffplanar.planarity import VerificationReport  # noqa: E402
from ffplanar.field import FieldCtx  # noqa: E402
from spans import Recorder  # noqa: E402


def _tiny_f27_jobs(seed):
    job = dataclasses.replace(W.f27_job(seed), mode="sample", sample_count=40)
    while True:
        yield job


def _tiny_round(seed, r):
    rng = random.Random(f"tiny/{seed}/{r}")
    return [W._x2((3, 1, 5)), W._example1((5, 2, 2)),
            W._binomial_member(rng, (5, 2, 2)),
            W._cubic_member(rng, (7, 1, 3)),
            W._nonplanar(rng, (7, 1, 3)), W._nonplanar(rng, (5, 2, 2)),
            W._nonplanar(rng, (3, 1, 5))]


@pytest.fixture
def tiny_verify(monkeypatch):
    monkeypatch.setattr(W, "verify_round", _tiny_round)
    monkeypatch.setattr(W, "VERIFY_LEAST_ROUNDS", 1)


def _gate(res, check) -> W.Gate:
    gate = W.Gate()
    for out in res.outputs:
        check(gate, out)
    gate.failed += res.failed_ops
    return gate


def _q25(tmp_path, tag="q25", **kw):
    return W.scan_pass(W.q25_jobs(3), 0, tmp_path / f"{tag}.jsonl", units=1,
                       **kw)


def test_q25_tiny_passes_gate(tmp_path):
    with W.decode_clock() as rec:
        res = _q25(tmp_path, rec=rec)
    gate = _gate(res, W.check_scan)
    assert res.ops > 20 and res.errors == []
    assert gate.failed == 0 and gate.attempted == res.ops
    assert gate.witness_us and len(res.latencies_ms) == res.units == 1
    assert len(res.candidate_ms) == res.ops - 1


def test_f27_tiny_same_output_on_two_workers(tmp_path):
    one = W.scan_pass(_tiny_f27_jobs(2), 0, tmp_path / "one.jsonl", units=1)
    two = W.scan_pass(_tiny_f27_jobs(2), 0, tmp_path / "two.jsonl", workers=2,
                      units=1)
    assert one.ops == 40 and _gate(one, W.check_scan).failed == 0
    assert one.digest() == two.digest()


def test_verify_tiny_passes_gate(tiny_verify):
    res = W.verify_pass(4, 0)
    gate = _gate(res, W.check_verify)
    assert res.ops == 7 and res.errors == []
    assert gate.failed == 0 and gate.attempted == 7
    assert [o.code for o in res.outputs] == [0, 0, 0, 0, 1, 1, 1]


def _flip(report):
    if report.planar:
        return VerificationReport(False, report.method, (1, 0, 1), report.ms)
    return VerificationReport(True, report.method, None, report.ms)


def _corrupt(report):
    if report.planar:
        return report
    c, x1, x2 = report.witness
    return VerificationReport(False, report.method, (c, x1, x1), report.ms)


@pytest.mark.parametrize("tamper", [_flip, _corrupt])
def test_gate_catches_bad_scan_oracle(tmp_path, monkeypatch, tamper):
    real = search.is_planar_bruteforce
    monkeypatch.setattr(search, "is_planar_bruteforce",
                        lambda *a, **k: tamper(real(*a, **k)))
    res = _q25(tmp_path)
    assert _gate(res, W.check_scan).failed > 0


@pytest.mark.parametrize("tamper", [_flip, _corrupt])
def test_gate_catches_bad_verify_route(monkeypatch, tiny_verify, tamper):
    real = cli.is_planar_rank
    monkeypatch.setattr(cli, "is_planar_rank",
                        lambda *a, **k: tamper(real(*a, **k)))
    res = W.verify_pass(4, 0)
    assert _gate(res, W.check_verify).failed > 0


def test_traced_and_untraced_outputs_match(tmp_path, tiny_verify):
    originals = (search.run, cli.is_planar_rank, FieldCtx.add)
    plain = _q25(tmp_path, "plain")
    with layers.instrument(Recorder()) as rec:
        traced = _q25(tmp_path, "traced", rec=rec)
        traced_verify = W.verify_pass(4, 0, rec=rec)
    assert (search.run, cli.is_planar_rank, FieldCtx.add) == originals
    assert rec.missing == []
    assert traced.digest() == plain.digest()
    assert traced_verify.digest() == W.verify_pass(4, 0).digest()
    assert rec.calls("planarity.bruteforce") == traced.ops + traced_verify.ops
    assert rec.calls("cli.verify") == traced_verify.ops
    # self times of all spans add up to the time of the top-level spans
    arrs = rec.arrays()
    roots = arrs["parent"] == -1
    assert arrs["self"].sum() == pytest.approx(arrs["dur"][roots].sum())


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, *extra, "bench/run.py", "--workload",
         "q25-binomial-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_refuses_under_optimize():
    proc = _run(ROOT, "-O")
    assert proc.returncode == 2 and proc.stdout == ""
