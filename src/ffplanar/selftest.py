"""Embedded acceptance suite.

Each check runs one acceptance criterion end to end against the library's
own oracles and returns a pass/fail result with a short detail string.  The
expensive q = 25 family sweep is computed once per session and shared by the
checks that consume it.  `run_selftest` drives everything; the CLI selftest
subcommand and the pytest acceptance module are thin wrappers around it.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .charsum import (
    char_weighted_total,
    count_solutions,
    phi_degree_sum,
)
from .config import Config
from .families import (
    MonomialFamilyParams,
    NbcFamilyParams,
    cubic_det,
    cubic_lemma_bruteforce,
    cubic_lemma_predicate,
    nbc_recipe_trace_condition,
    nbc_recipe_zero_power,
    nonexistence_witness,
    theorem_nbc_predicate,
)
from .field import FieldCtx, additive_chars, multiplicative_chars, new_ctx
from .linpoly import (
    LinearizedPoly,
    all_subspaces,
    annihilator_coeffs,
    compose_formal,
    full_field_annihilator,
    image_poly_coeffs,
    image_poly_for_subspace,
)
from .planarity import (
    MonomialSum,
    PlanarCandidate,
    criterion_quadratic,
    is_planar_bruteforce,
    is_planar_rank,
    is_planar_reduction,
)
from .search import SearchJob, findings, index_digits, run as search_run


@dataclass(frozen=True)
class CheckResult:
    name: str
    number: int
    passed: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# Shared q = 25 family sweep (checks 3, 4, and 8).
# ---------------------------------------------------------------------------

class _Shared:
    """Lazily computed artifacts shared between checks."""

    def __init__(self, config: Config, workers: int):
        self.config = config
        self.workers = workers
        self._cache = {}

    def binomial_sweep(self, p: int, m: int, k: int) -> dict:
        """Closed predicate, n = 2 criterion and brute-force verdicts for every
        (b, c) of the binomial family on F_{p^2m}, as [b, c] arrays; `valid`
        masks the pairs with N(b) != N(c), the only ones the family has."""
        key = ("binomial", p, m, k)
        if key not in self._cache:
            ctx = new_ctx(p, m, 2)
            n = ctx.order
            started = time.perf_counter()
            job = SearchJob(p, m, 2, "binomial",
                            filters=("closed-binomial", "criterion-n2"),
                            oracle_all=True, k=k)
            valid, pred, crit, oracle = (np.zeros((n, n), dtype=bool)
                                         for _ in range(4))
            for f in findings(job, self.config, self.workers):
                c, b = index_digits(job, ctx, f.index)
                valid[b, c] = True
                pred[b, c] = f.filters["closed-binomial"]
                crit[b, c] = f.filters["criterion-n2"]
                oracle[b, c] = f.oracle
            self._cache[key] = {
                "ctx": ctx,
                "valid": valid,
                "pred": pred,
                "crit": crit,
                "oracle": oracle,
                "seconds": time.perf_counter() - started,
            }
        return self._cache[key]

    def nbc_q9_scan(self) -> dict:
        if "nbc9" not in self._cache:
            ctx = new_ctx(3, 2, 2)
            neg1 = ctx.neg(1)
            rows = []
            for c0 in range(81):
                params = NbcFamilyParams(ctx, 1, 1, neg1, c0)
                rows.append(
                    (
                        c0,
                        theorem_nbc_predicate(params),
                        is_planar_bruteforce(params.candidate(),
                                             self.config.brute_cap).planar,
                        nbc_recipe_zero_power(params),
                        nbc_recipe_trace_condition(params),
                    )
                )
            self._cache["nbc9"] = {"ctx": ctx, "rows": rows}
        return self._cache["nbc9"]

    def f9_monomial_scan(self) -> dict:
        if "f9mono" not in self._cache:
            ctx = new_ctx(3, 1, 2)
            a = ctx.inv(2)
            rows = []
            for b in range(9):
                for t in range(2):
                    cand = PlanarCandidate(ctx, a,
                                           LinearizedPoly.monomial(ctx, b, t))
                    rows.append(
                        (
                            b,
                            t,
                            criterion_quadratic(cand),
                            is_planar_bruteforce(cand).planar,
                        )
                    )
            self._cache["f9mono"] = {"ctx": ctx, "a": a, "rows": rows}
        return self._cache["f9mono"]


# ---------------------------------------------------------------------------
# Field invariants.
# ---------------------------------------------------------------------------

def field_invariants_hold(ctx: FieldCtx) -> bool:
    if ctx.table_mode:
        exp, log = ctx.exp_table, ctx.log_table
        for e in range(1, ctx.order):
            if int(exp[log[e]]) != e:
                return False
    for x in list(range(min(ctx.order, 64))):
        t, nm = ctx.rel_trace(x), ctx.rel_norm(x)
        if ctx.pow(t, ctx.q) != t or ctx.pow(nm, ctx.q) != nm:
            return False
        if x and ctx.mul(x, ctx.inv(x)) != 1:
            return False
    return True


def _check_field_tables(shared: _Shared) -> tuple[bool, str]:
    ctxs = [new_ctx(3, 1, 2), new_ctx(5, 2, 2), new_ctx(3, 2, 2)]
    ok = all(field_invariants_hold(c) for c in ctxs)
    poly_ctx = FieldCtx(3, 1, 2, table_cap=1)
    table_ctx = new_ctx(3, 1, 2)
    agree = all(
        poly_ctx.mul(x, y) == table_ctx.mul(x, y)
        for x in range(9)
        for y in range(9)
    )
    return ok and agree, "exp/log and mode agreement verified"


# ---------------------------------------------------------------------------
# The acceptance checks.
# ---------------------------------------------------------------------------

def _check_classical_fixtures(shared: _Shared) -> tuple[bool, str]:
    started = time.perf_counter()
    F9 = new_ctx(3, 1, 2)
    F27 = new_ctx(3, 1, 3)
    F243 = new_ctx(3, 1, 5)
    cap = shared.config.brute_cap
    neg = F9.neg(1)
    checks = [
        is_planar_bruteforce(MonomialSum(F9, [(1, 2)]), cap).planar,
        is_planar_bruteforce(MonomialSum(F27, [(1, 4)]), cap).planar,
        is_planar_bruteforce(MonomialSum(F243, [(1, 14)]), cap).planar,
        is_planar_bruteforce(MonomialSum(F9, [(1, 10), (1, 6), (neg, 2)]), cap).planar,
    ]
    for u in range(27):
        mono = [(1, 10), (F27.neg(u), 6), (F27.neg(F27.mul(u, u)), 2)]
        checks.append(is_planar_bruteforce(MonomialSum(F27, mono), cap).planar)
    bad = is_planar_bruteforce(MonomialSum(F9, [(1, 4)]), cap)
    checks.append(not bad.planar and bad.witness is not None)
    elapsed = time.perf_counter() - started
    checks.append(elapsed < 5.0)
    return all(checks), f"{len(checks)} fixtures in {elapsed:.2f}s"


def _check_method_agreement(shared: _Shared) -> tuple[bool, str]:
    F9 = new_ctx(3, 1, 2)
    F27 = new_ctx(3, 1, 3)
    cap = shared.config.brute_cap
    disagreements = 0
    total = 0
    for a in range(9):
        for b in range(9):
            for t in range(2):
                cand = PlanarCandidate(F9, a, LinearizedPoly.monomial(F9, b, t))
                verdicts = {
                    is_planar_bruteforce(cand, cap).planar,
                    is_planar_rank(cand).planar,
                    is_planar_reduction(cand, cap).planar,
                }
                disagreements += len(verdicts) != 1
                total += 1
    rng = np.random.default_rng(shared.config.seed)
    for _ in range(500):
        a = int(rng.integers(0, 27))
        ell = LinearizedPoly(F27, tuple(int(v) for v in rng.integers(0, 27, 3)))
        cand = PlanarCandidate(F27, a, ell)
        verdicts = {
            is_planar_bruteforce(cand, cap).planar,
            is_planar_rank(cand).planar,
            is_planar_reduction(cand, cap).planar,
        }
        disagreements += len(verdicts) != 1
        total += 1
    return disagreements == 0, f"{total} candidates, {disagreements} disagreements"


def _check_quadratic_criterion(shared: _Shared) -> tuple[bool, str]:
    mono = shared.f9_monomial_scan()
    f9_ok = all(crit == oracle for _, _, crit, oracle in mono["rows"])
    sweep = shared.binomial_sweep(5, 2, 1)
    valid = sweep["valid"]
    agree = bool(np.array_equal(sweep["crit"][valid], sweep["oracle"][valid]))
    budget = 600.0 if shared.workers == 1 else 120.0 * max(1, 8 / shared.workers)
    in_time = sweep["seconds"] <= budget
    detail = (
        f"F_9 monomials {'ok' if f9_ok else 'FAIL'}; q=25 sweep "
        f"{int(valid.sum())} candidates in {sweep['seconds']:.0f}s"
    )
    return f9_ok and agree and in_time, detail


def _check_family_equivalence_q25(shared: _Shared) -> tuple[bool, str]:
    sweep = shared.binomial_sweep(5, 2, 1)
    valid = sweep["valid"]
    same = bool(np.array_equal(sweep["pred"][valid], sweep["oracle"][valid]))
    nonempty = bool(sweep["pred"][valid].any())
    # q = 9, k = 1: p^k = 3 mod 4, so both sets must be empty
    q9 = shared.binomial_sweep(3, 2, 1)
    v9 = q9["valid"]
    empty9 = not q9["pred"][v9].any() and not q9["oracle"][v9].any()
    detail = (
        f"q=25 planar family size {int(sweep['pred'][valid].sum())}; "
        f"q=9 family empty: {empty9}"
    )
    return same and nonempty and empty9, detail


def _check_norm_equal_family(shared: _Shared) -> tuple[bool, str]:
    scan = shared.nbc_q9_scan()
    rows = scan["rows"]
    agree = all(pred == oracle for _, pred, oracle, _, _ in rows)
    planar = {c0 for c0, _, oracle, _, _ in rows if oracle}
    recipe1 = {c0 for c0, *_, r1, _ in rows if r1}
    recipe2 = {c0 for c0, *_, r2 in rows if r2}
    recipes_ok = recipe1 <= planar and recipe2 <= planar and 0 in recipe1
    detail = (
        f"81 candidates, planar {len(planar)}, recipes {len(recipe1)}/{len(recipe2)}"
    )
    return agree and recipes_ok and len(planar) > 0, detail


def _check_cubic_characterization(shared: _Shared) -> tuple[bool, str]:
    started = time.perf_counter()
    ctx = new_ctx(3, 1, 3)
    job = SearchJob(3, 1, 3, "cubic", filters=("closed-cubic",), oracle_all=True,
                    a_values=("1", ctx.format_element(ctx.generator)))
    disagreements = 0
    total = 0
    for f in findings(job, shared.config, shared.workers):
        disagreements += f.flagged
        total += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed <= 60.0
    return ok, f"{total} candidates in {elapsed:.1f}s, {disagreements} disagreements"


def _check_cubic_root_test(shared: _Shared) -> tuple[bool, str]:
    ctx = new_ctx(3, 1, 3)
    for A in range(1, 27):
        for B in range(1, 27):
            for r in range(3):
                if cubic_lemma_predicate(ctx, A, B, r) != cubic_lemma_bruteforce(
                    ctx, A, B, r
                ):
                    return False, f"disagreement at ({A},{B},{r})"
    ctx5 = new_ctx(5, 1, 3)
    rng = np.random.default_rng(shared.config.seed)
    for _ in range(10_000):
        A = int(rng.integers(1, 125))
        B = int(rng.integers(1, 125))
        r = int(rng.integers(0, 5))
        if cubic_lemma_predicate(ctx5, A, B, r) != cubic_lemma_bruteforce(
            ctx5, A, B, r
        ):
            return False, f"q=5 disagreement at ({A},{B},{r})"
    for _ in range(1000):
        u = int(rng.integers(0, 125))
        A = int(rng.integers(1, 125))
        B = int(rng.integers(1, 125))
        lhs = ctx5.sub(
            ctx5.add(ctx5.add(ctx5.rel_norm(u), ctx5.rel_norm(A)), ctx5.rel_norm(B)),
            ctx5.rel_trace(ctx5.mul(ctx5.mul(A, B), ctx5.frobenius(u, 2))),
        )
        if lhs != cubic_det(ctx5, u, A, B):
            return False, "determinant identity failed"
    return True, "2028 exhaustive + 10000 sampled + 1000 determinant triples"


def _kernel_fault(ell: LinearizedPoly, at: str, exact: bool = True) -> str | None:
    """Why ell breaks the kernel bound of a planar candidate, or None: its
    kernel has at most q elements, and, if `exact`, exactly q where its
    image meets F_q only in 0."""
    ctx, dim = ell.ctx, ell.kernel().dim
    if ctx.p**dim > ctx.q:
        return f"kernel too large at {at}"
    if exact and ctx.p**dim != ctx.q:
        fq = set(ctx.subfield_elements())
        if [e for e in ell.image().elements() if e in fq] == [0]:
            return f"kernel not exactly q at {at}"
    return None


def _check_kernel_bound(shared: _Shared) -> tuple[bool, str]:
    sweep = shared.binomial_sweep(5, 2, 1)
    ctx25 = sweep["ctx"]
    planar_pairs = np.argwhere(sweep["oracle"] & sweep["valid"])
    rng = np.random.default_rng(shared.config.seed)
    sample = planar_pairs[rng.integers(0, len(planar_pairs), size=300)]
    cases = [(MonomialFamilyParams(ctx25, 1, int(b), int(c)).ell(), f"({b},{c})", True)
             for b, c in sample]
    scan = shared.nbc_q9_scan()
    ctx9 = scan["ctx"]
    cases += [(NbcFamilyParams(ctx9, 1, 1, ctx9.neg(1), c0).ell(), f"c0={c0}", True)
              for c0, pred, oracle, _, _ in scan["rows"] if oracle]
    ctx = new_ctx(3, 1, 2)
    cases += [(LinearizedPoly.monomial(ctx, b, t), f"monomial ({b},{t})", False)
              for b, t, crit, oracle in shared.f9_monomial_scan()["rows"] if oracle]
    for case in cases:
        fault = _kernel_fault(*case)
        if fault:
            return False, fault
    return True, f"{len(cases)} planar candidates within the kernel bound"


def _check_subspace_roundtrip(shared: _Shared) -> tuple[bool, str]:
    total = 0
    for ctx in (new_ctx(3, 1, 3), new_ctx(3, 1, 4)):
        target = full_field_annihilator(ctx)
        for sub in all_subspaces(ctx):
            g_raw = image_poly_coeffs(sub)
            g = image_poly_for_subspace(sub)
            if g.image() != sub:
                return False, f"image mismatch for {sub}"
            h_raw = annihilator_coeffs(sub)
            if compose_formal(ctx, h_raw, g_raw) != target:
                return False, f"formal composition mismatch for {sub}"
            total += 1
    return True, f"{total} subspaces round-tripped"


def _check_counting_bounds(shared: _Shared) -> tuple[bool, str]:
    started = time.perf_counter()
    for k in (5, 6):
        ctx = new_ctx(3, 1, k)
        for upsilon in range(3):
            for omega in (1, 2):
                rec = count_solutions(ctx, upsilon, omega, 1)
                if rec.count < 1:
                    return False, f"empty count at k={k} ({upsilon},{omega})"
                if 3 * 2 * rec.count < rec.bound:
                    return False, f"bound violated at k={k} ({upsilon},{omega})"
                total = char_weighted_total(ctx, upsilon, omega, 1)
                if abs(total - 6 * rec.count) >= 1e-4:
                    return False, f"orthogonality failed at k={k}"
    for q_ctx, c in ((new_ctx(3, 1, 1), 1), (new_ctx(5, 1, 1), 2)):
        psi0 = multiplicative_chars(q_ctx)[0]
        for chi in additive_chars(q_ctx):
            if chi.trivial:
                continue
            if abs(phi_degree_sum(q_ctx, chi, psi0, 2, c) - q_ctx.q) >= 1e-9:
                return False, "degree-2 sum mismatch"
            if abs(phi_degree_sum(q_ctx, chi, psi0, 3, c)) >= 1e-9:
                return False, "degree-3 sum nonzero"
            for psi in multiplicative_chars(q_ctx):
                if psi.trivial:
                    continue
                want = psi(q_ctx.neg(c)) * q_ctx.q
                if abs(phi_degree_sum(q_ctx, chi, psi, 2, c) - want) >= 1e-9:
                    return False, "twisted degree-2 sum mismatch"
    elapsed = time.perf_counter() - started
    return elapsed <= 30.0, f"counting identities in {elapsed:.1f}s"


def _check_nonexistence(shared: _Shared) -> tuple[bool, str]:
    started = time.perf_counter()
    ctx = new_ctx(3, 1, 5)
    rng = np.random.default_rng(shared.config.seed)
    for i in range(1000):
        a = int(rng.integers(1, 243))
        ell = LinearizedPoly(ctx, tuple(int(v) for v in rng.integers(0, 243, 5)))
        u = nonexistence_witness(ctx, a)
        if u is None:
            return False, f"witness missing for a={a}"
        val = ctx.mul(ctx.mul(a, a), ctx.pow(u, ctx.q + 1))
        if val == 0 or not ctx.in_subfield(val):
            return False, f"witness invalid for a={a}"
        if is_planar_rank(PlanarCandidate(ctx, a, ell)).planar:
            return False, f"planar candidate found at i={i}"
    elapsed = time.perf_counter() - started
    return elapsed <= 600.0, f"1000 candidates refuted in {elapsed:.0f}s"


def _check_scan_determinism(shared: _Shared) -> tuple[bool, str]:
    outputs = []
    job = SearchJob(3, 1, 2, family="monomial", filters=("criterion-n2",),
                    oracle_all=True)
    for workers in (1, 2, 3):
        buf = io.StringIO()
        search_run(job, config=shared.config, workers=workers, out=buf)
        outputs.append(buf.getvalue())
    grid_ok = outputs[0] == outputs[1] == outputs[2]
    sample_job = SearchJob(3, 1, 3, family="cubic", mode="sample",
                           sample_count=64, oracle="rank", oracle_all=True)
    sample_out = []
    for workers in (1, 2):
        buf = io.StringIO()
        search_run(sample_job, config=shared.config, workers=workers, out=buf)
        sample_out.append(buf.getvalue())
    sample_ok = sample_out[0] == sample_out[1]
    return grid_ok and sample_ok, "byte-identical across 1/2/3 workers"


CHECKS = [
    ("field-tables", 0, _check_field_tables),
    ("classical-fixtures", 1, _check_classical_fixtures),
    ("method-agreement", 2, _check_method_agreement),
    ("quadratic-criterion", 3, _check_quadratic_criterion),
    ("family-equivalence-q25", 4, _check_family_equivalence_q25),
    ("norm-equal-family", 5, _check_norm_equal_family),
    ("cubic-characterization", 6, _check_cubic_characterization),
    ("cubic-root-test", 7, _check_cubic_root_test),
    ("kernel-bound", 8, _check_kernel_bound),
    ("subspace-roundtrip", 9, _check_subspace_roundtrip),
    ("counting-bounds", 10, _check_counting_bounds),
    ("nonexistence", 11, _check_nonexistence),
    ("scan-determinism", 12, _check_scan_determinism),
]


def run_selftest(name_filter: str | None = None, workers: int = 1,
                 config: Config | None = None) -> list[CheckResult]:
    config = config or Config()
    shared = _Shared(config, workers)
    results = []
    for name, number, func in CHECKS:
        if name_filter and name_filter not in name:
            continue
        started = time.perf_counter()
        try:
            passed, detail = func(shared)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"error: {exc}"
        results.append(
            CheckResult(name, number, passed, detail,
                        time.perf_counter() - started)
        )
    return results
