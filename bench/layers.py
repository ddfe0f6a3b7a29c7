"""Where the traced run wraps the library, and the per-layer metrics.

Names are wrapped where their callers look them up: the route functions
and predicates as imported into `ffplanar.search` and `ffplanar.cli`,
`fp_nullspace` as imported into `ffplanar.planarity`, `fp_rref` in
`ffplanar.linpoly` (so that it also catches `fp_nullspace`, `fp_rank` and
`is_permutation`), and methods on their classes.  `search._apply_filter` and
`search._run_oracle` are the scan's filter and oracle stages; they are the
only private names wrapped, and a name that no longer exists is reported as
missing rather than failing the run.
"""

from __future__ import annotations

import statistics

from ffplanar import cli, linpoly, planarity, search
from ffplanar.field import FieldCtx

from spans import Recorder

SCALAR_OPS = ("add", "sub", "neg", "mul", "inv", "pow", "frobenius",
              "rel_trace", "rel_norm")
VECTOR_OPS = ("add_vec", "sub_vec", "neg_vec", "mul_vec", "pow_vec", "inv_vec",
              "frob_vec")
ROUTES = ("bruteforce", "rank", "reduction")


def _route_outcome(report):
    """Planar or not, and the witness direction (c, or v for rank) as the
    number of directions scanned up to and including it."""
    if report.planar:
        return ".planar", -1
    return ".nonplanar", int(report.witness[0])


def instrument(rec: Recorder) -> Recorder:
    for mod in (search, cli):
        for route in ROUTES:
            rec.span(mod, f"is_planar_{route}", f"planarity.{route}",
                     outcome=_route_outcome)
        rec.span(mod, "criterion_quadratic", "planarity.criterion")
    rec.span(search, "run", "search.run")
    rec.span(search, "decode_candidate", "search.decode",
             outcome=lambda r: ("", 0 if r is None else 1), new_request=True)
    rec.span(search, "_apply_filter", "search.filters")
    rec.span(search, "_run_oracle", "search.oracle")
    for name in ("theorem_monomial_predicate", "theorem_nbc_predicate",
                 "cubic_theorem_predicate"):
        rec.span(search, name, "families.predicate")
    rec.span(planarity, "fp_nullspace", "linpoly.fp_nullspace")
    rec.span(linpoly, "fp_rref", "linpoly.fp_rref")
    rec.span(linpoly.LinearizedPoly, "is_permutation", "linpoly.is_permutation")
    rec.span(linpoly.LinearizedPoly, "eval_vec", "linpoly.eval_vec")
    rec.span(planarity.PlanarCandidate, "f_table", "planarity.f_table")
    for op in VECTOR_OPS:
        rec.span(FieldCtx, op, "field.vector")
    for op in SCALAR_OPS:
        rec.count(FieldCtx, op, f"field.scalar.{op}")
    return rec


def _mean(values) -> float:
    return float(sum(values) / len(values)) if len(values) else 0.0


def per_layer(rec: Recorder, ops: int, extra: dict) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    Self times and call counts are per operation (a scan candidate or a
    verify call) so that passes of different length compare; latencies are
    medians per call.  `extra` carries the figures measured outside the
    recorder: set-up phases, witness re-checks, verdict shares, output size,
    pool speed-up and tracing overhead.
    """
    per_op = 1.0 / max(ops, 1)
    ms_op = 1e3 * per_op
    m = {
        "field.scalar_calls": (sum(rec.counts.values()) * per_op, "count/op"),
        "field.vector_calls": (rec.calls("field.vector") * per_op, "count/op"),
        "field.vector_self_ms": (rec.self_s("field.vector") * ms_op, "ms/op"),
        "linpoly.fp_rref.calls": (rec.calls("linpoly.fp_rref") * per_op,
                                  "count/op"),
        "linpoly.fp_rref.self_ms": (rec.self_s("linpoly.fp_rref") * ms_op,
                                    "ms/op"),
        "linpoly.is_permutation.self_ms": (
            rec.self_s("linpoly.is_permutation") * ms_op, "ms/op"),
        "linpoly.eval_vec.self_ms": (rec.self_s("linpoly.eval_vec") * ms_op,
                                     "ms/op"),
    }
    for route in ROUTES:
        for verdict in ("planar", "nonplanar"):
            name = f"planarity.{route}.{verdict}"
            m[f"{name}.ms_p50"] = (rec.p50_s(name) * 1e3, "ms")
            m[f"{name}.calls"] = (rec.calls(name), "count")
    m["planarity.criterion.ms_p50"] = (rec.p50_s("planarity.criterion") * 1e3,
                                       "ms")
    m["planarity.criterion.calls"] = (rec.calls("planarity.criterion"), "count")
    m["planarity.f_table.self_ms"] = (rec.self_s("planarity.f_table") * ms_op,
                                      "ms/op")
    witness_us = extra["witness_us"]
    m["planarity.check_witness.us_p50"] = (
        statistics.median(witness_us) if witness_us else 0.0, "us")
    for route in ("bruteforce", "rank"):
        m[f"planarity.{route}.exit_dirs_mean"] = (
            _mean(rec.values(f"planarity.{route}.nonplanar")), "count")
    m["planarity.planar_share"] = (extra["planar_share"], "ratio")
    m["families.predicate.self_ms"] = (
        rec.self_s("families.predicate") * ms_op, "ms/op")
    for stage in ("decode", "filters", "oracle", "run"):
        m[f"search.{stage}.self_ms"] = (rec.self_s(f"search.{stage}") * ms_op,
                                        "ms/op")
    m["search.oracle_share"] = (extra["oracle_share"], "ratio")
    m["search.output_bytes"] = (extra["output_bytes"] * per_op, "B/op")
    m["search.pool_speedup"] = (extra["pool_speedup"], "ratio")
    m["cli.verify.self_ms"] = (rec.self_s("cli.verify") * ms_op, "ms/op")
    for phase in ("modulus_search_s", "table_build_s", "lazy_tables_s"):
        m[f"field.{phase}"] = (extra[phase], "s")
    m["trace.overhead_share"] = (extra["overhead_share"], "ratio")
    return m
