"""Acceptance gate: runs every criterion of the embedded suite once and
reports one pass/fail line per criterion.

The whole suite shares one selftest session (the q = 25 family sweep is the
dominant cost and is computed a single time).  Run with `pytest -v` for the
per-criterion lines, or `-s` to also see the detail strings.
"""

import os

import pytest

from ffplanar.config import Config
from ffplanar.families import MonomialFamilyParams, theorem_monomial_predicate
from ffplanar.planarity import criterion_quadratic, is_planar_bruteforce
from ffplanar.selftest import CHECKS, _Shared, run_selftest


@pytest.fixture(scope="module")
def acceptance_results():
    workers = min(8, os.cpu_count() or 1)
    return {r.name: r for r in run_selftest(workers=workers)}


@pytest.mark.parametrize(
    "name",
    [name for name, _, _ in CHECKS],
    ids=[f"{number:02d}-{name}" for name, number, _ in CHECKS],
)
def test_acceptance_criterion(acceptance_results, name):
    result = acceptance_results[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number:2d} [{result.name}] {status} "
          f"({result.seconds:.1f}s): {result.detail}")
    assert result.passed, (
        f"criterion {result.number} ({result.name}) failed: {result.detail}"
    )


def test_binomial_sweep_matches_direct_calls():
    # the shared sweep goes through the scan pipeline; compare a few q = 9
    # b-rows with direct calls of the predicate, criterion and brute force
    sweep = _Shared(Config(), 1).binomial_sweep(3, 2, 1)
    ctx = sweep["ctx"]
    for b in (0, 1, 7, 40, 80):
        for c in range(ctx.order):
            valid = ctx.rel_norm(b) != ctx.rel_norm(c)
            assert sweep["valid"][b, c] == valid
            if not valid:
                continue
            params = MonomialFamilyParams(ctx, 1, b, c)
            cand = params.candidate()
            assert sweep["pred"][b, c] == theorem_monomial_predicate(params)
            assert sweep["crit"][b, c] == criterion_quadratic(cand)
            assert sweep["oracle"][b, c] == is_planar_bruteforce(cand).planar
