"""Command-line surface: verify candidates, run family scans, compute
character-sum counts, demonstrate subspace round-trips, and self-test.

Exit codes: 0 success (verify: planar), 1 verify: not planar or selftest
failure, 2 verify: method disagreement, 3 scan: disagreement records,
64 usage errors, 65 malformed input data or an input above a size cap, 66
missing or unreadable input file.

A candidate, job spec or config file is decoded by the `from_json` of its
type, which checks it against the shape declared beside that type (the job
and config keys are the dataclass fields): an unknown key, a missing key or
a mistyped value (a bool is no int) exits 65; a null config value keeps the
default.

`main(argv)` may be called many times in one process; every call reuses the
one parser built at the first call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

from .config import FORMATS, Config
from .families import example1_ell
from .field import MAX_ORDER, new_ctx, prime_factors
from .linpoly import (
    LinearizedPoly,
    Subspace,
    annihilator_coeffs,
    compose_formal,
    full_field_annihilator,
    image_poly_coeffs,
    image_poly_for_subspace,
)
from .charsum import count_solutions, char_weighted_total
from .planarity import (
    PlanarCandidate,
    criterion_quadratic,
    is_planar_bruteforce,
    is_planar_rank,
    is_planar_reduction,
)
from .search import FAMILIES, ORACLES, SearchJob, run as search_run
from .selftest import run_selftest

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66

ELL_PRESETS = {"zero": LinearizedPoly.zero, "identity": LinearizedPoly.identity,
               "example1": example1_ell}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n{self.format_usage()}")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built at first use.  parse_args leaves
    it unchanged and `append` actions copy their default list, so every
    main() call starts from fresh defaults."""
    parser = _Parser(prog="ffplanar",
                     description="planar-function toolkit on finite field towers")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--format", choices=FORMATS, default=None)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                        help="sampling seed (hex accepted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="test one candidate with all methods")
    p_verify.add_argument("--candidate", help="candidate JSON file")
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--a", default="0", help="digit string for a")
    p_verify.add_argument("--ell-preset", choices=ELL_PRESETS, default="zero")
    p_verify.add_argument("--ell-coeff", action="append", default=[],
                          metavar="T=DIGITS", help="coefficient of x^(p^T)")

    p_scan = sub.add_parser("scan", help="run a family scan job")
    p_scan.add_argument("--job", help="job spec JSON file")
    p_scan.add_argument("--p", type=int)
    p_scan.add_argument("--m", type=int)
    p_scan.add_argument("--n", type=int)
    p_scan.add_argument("--family", choices=FAMILIES)
    p_scan.add_argument("--filter", action="append", default=[],
                        dest="filters", metavar="NAME")
    p_scan.add_argument("--oracle", choices=ORACLES, default="bruteforce")
    p_scan.add_argument("--oracle-all", action="store_true")
    p_scan.add_argument("--sample", type=int, default=0,
                        help="sample this many candidates instead of exhausting")
    p_scan.add_argument("--k", type=int, default=1)
    p_scan.add_argument("--a-values", default="1",
                        help="element digit strings separated by ';'")
    p_scan.add_argument("--out", help="output file (default stdout)")

    p_charsum = sub.add_parser("charsum", help="element counts with bounds")
    p_charsum.add_argument("--q", type=int, required=True,
                           help="subfield size, a prime power")
    p_charsum.add_argument("--k", type=int, required=True)
    p_charsum.add_argument("--c", default="1", help="shift element digits")
    p_charsum.add_argument("--all-targets", action="store_true")
    p_charsum.add_argument("--upsilon", default="0")
    p_charsum.add_argument("--omega", default="1")
    p_charsum.add_argument("--orthogonality", action="store_true",
                           help="include the character-sum cross-check")

    p_subspace = sub.add_parser("subspace", help="subspace polynomial round-trip")
    p_subspace.add_argument("--p", type=int, required=True)
    p_subspace.add_argument("--m", type=int, default=1)
    p_subspace.add_argument("--n", type=int, required=True)
    p_subspace.add_argument("--basis", required=True,
                            help="basis digit strings separated by ';'")

    p_selftest = sub.add_parser("selftest", help="run the acceptance checks")
    p_selftest.add_argument("--filter", default=None,
                            help="substring filter on check names")
    return parser


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q > MAX_ORDER:
        raise ValueError("q overflows the element index range")
    factors = prime_factors(q)  # [] for q < 2
    if len(factors) != 1:
        raise ValueError("q must be a prime power")
    p, m = factors[0], 0
    while q > 1:
        q //= p
        m += 1
    return p, m


def _read_json(path: str | None, what: str, build, bad: str = ""):
    """build(obj) for the JSON document at path, or for {} when path is None.
    Exits 66 when the file cannot be read and 65 when build rejects the
    document with ValueError (bad JSON included); either exit writes one
    line on stderr, which starts with `bad` or "malformed <what>", and
    nothing on stdout."""
    text = "{}"
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"cannot read {what} file: {exc}", file=sys.stderr)
            raise SystemExit(EX_NOINPUT)
    try:
        return build(json.loads(text))
    except ValueError as exc:
        print(f"{bad or 'malformed ' + what}: {exc}", file=sys.stderr)
        raise SystemExit(EX_DATAERR)


def _candidate_from_args(args, config: Config) -> PlanarCandidate:
    if args.candidate:
        return _read_json(args.candidate, "candidate",
                          lambda obj: PlanarCandidate.from_json(obj, config.table_cap))
    if args.p is None or args.m is None or args.n is None:
        print("verify needs --candidate or all of --p --m --n", file=sys.stderr)
        raise SystemExit(EX_USAGE)
    ctx = new_ctx(args.p, args.m, args.n, config.table_cap)
    # each --ell-coeff T=DIGITS adds to the coefficient of x^(p^(T mod m*n))
    coeffs = list(ELL_PRESETS[args.ell_preset](ctx).coeffs)
    for spec in args.ell_coeff:
        t, _, digits = spec.partition("=")
        coeff = ctx.parse_element(digits)
        t = int(t) % ctx.degree
        coeffs[t] = ctx.add(coeffs[t], coeff)
    return PlanarCandidate(ctx, ctx.parse_element(args.a),
                           LinearizedPoly(ctx, tuple(coeffs)))


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "jsonl":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    elif fmt == "json":
        out.write(json.dumps(records, sort_keys=True, indent=2) + "\n")
    else:
        flat = []
        for rec in records:
            row = dict(rec)
            wit = row.pop("witness", None)
            row["witness_c"] = wit["c"] if wit else ""
            row["witness_x1"] = wit["x1"] if wit else ""
            row["witness_x2"] = wit["x2"] if wit else ""
            flat.append({k: json.dumps(v) if isinstance(v, (dict, list)) else v
                         for k, v in row.items()})
        fields = sorted({k for row in flat for k in row})
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(flat)


def cmd_verify(args, config: Config) -> int:
    cand = _candidate_from_args(args, config)
    ctx = cand.ctx
    reports = {}
    if ctx.order <= config.brute_cap:
        reports["bruteforce"] = is_planar_bruteforce(cand, config.brute_cap)
        reports["reduction"] = is_planar_reduction(cand, config.brute_cap)
    reports["rank"] = is_planar_rank(cand, config.brute_cap)
    records = [rep.to_json(ctx) for rep in reports.values()]
    methods = sorted(reports)
    if ctx.n == 2:
        started = time.perf_counter()
        criterion = criterion_quadratic(cand)
        ms = (time.perf_counter() - started) * 1e3
        records.append({"method": "criterion-n2", "planar": criterion,
                        "witness": None, "ms": ms})
        methods.append("criterion-n2")
    verdicts = {rec["planar"] for rec in records}
    agreement = len(verdicts) == 1
    planar = bool(verdicts == {True})
    summary = {"planar": planar, "agreement": agreement, "methods": methods}
    _emit(records + [summary], config.fmt, sys.stdout)
    if not agreement:
        return 2
    return 0 if planar else 1


class _LazyOut:
    """Opens `path` at the first write, so that a job rejected before its
    first line leaves any file at that path as it was."""
    fh = None

    def __init__(self, path: str):
        self.path = path

    def write(self, text: str) -> int:
        self.fh = self.fh or open(self.path, "w")
        return self.fh.write(text)


def cmd_scan(args, config: Config) -> int:
    if args.job:
        job = _read_json(args.job, "job spec", SearchJob.from_json)
    else:
        if args.p is None or args.m is None or args.n is None or args.family is None:
            print("scan needs --job or all of --p --m --n --family", file=sys.stderr)
            return EX_USAGE
        job = SearchJob(
            p=args.p, m=args.m, n=args.n, family=args.family,
            filters=tuple(args.filters), oracle=args.oracle,
            mode="sample" if args.sample else "exhaustive",
            sample_count=args.sample, seed=config.seed,
            audit_every=config.audit_every, oracle_all=args.oracle_all,
            k=args.k, a_values=tuple(args.a_values.split(";")),
        )
    sink = _LazyOut(args.out) if args.out else sys.stdout
    try:
        result = search_run(job, config=config, workers=config.workers, out=sink)
    finally:
        if args.out and sink.fh:
            sink.fh.close()
    return 0 if result.summary["disagreements"] == 0 else 3


def cmd_charsum(args, config: Config) -> int:
    try:
        p, m = _factor_prime_power(args.q)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EX_USAGE
    ctx = new_ctx(p, m, args.k, config.table_cap)
    c = ctx.parse_element(args.c)
    targets = []
    if args.all_targets:
        for upsilon in ctx.subfield_elements():
            for omega in ctx.subfield_elements():
                if omega:
                    targets.append((upsilon, omega))
    else:
        targets.append((ctx.parse_element(args.upsilon), ctx.parse_element(args.omega)))
    records = []
    for upsilon, omega in targets:
        rec = count_solutions(ctx, upsilon, omega, c)
        obj = rec.to_json(ctx)
        if args.orthogonality:
            total = char_weighted_total(ctx, upsilon, omega, c)
            obj["char_sum_residual"] = abs(total - ctx.q * (ctx.q - 1) * rec.count)
        records.append(obj)
    _emit(records, config.fmt, sys.stdout)
    return 0


def cmd_subspace(args, config: Config) -> int:
    ctx = new_ctx(args.p, args.m, args.n, config.table_cap)
    vecs = [ctx.parse_element(t) for t in args.basis.split(";")]
    sub = Subspace.from_vectors(ctx, vecs)
    g = image_poly_for_subspace(sub)
    g_raw = image_poly_coeffs(sub)
    h_raw = annihilator_coeffs(sub)
    ok = g.image() == sub and compose_formal(ctx, h_raw, g_raw) == \
        full_field_annihilator(ctx)
    record = {
        "subspace": sub.to_json(),
        "dim": sub.dim,
        "annihilator": {str(t): ctx.format_element(v)
                        for t, v in enumerate(h_raw) if v},
        "image_poly": g.to_json(),
        "roundtrip_ok": ok,
    }
    _emit([record], config.fmt, sys.stdout)
    return 0 if ok else 1


def cmd_selftest(args, config: Config) -> int:
    results = run_selftest(name_filter=args.filter, workers=config.workers,
                           config=config)
    width = max(len(r.name) for r in results) if results else 10
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{r.number:2d}] {r.name:<{width}}  {status}  "
              f"{r.seconds:7.1f}s  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "scan": cmd_scan,
        "charsum": cmd_charsum,
        "subspace": cmd_subspace,
        "selftest": cmd_selftest,
    }
    try:
        config = _read_json(
            args.config, "config", bad="bad configuration",
            build=lambda obj: Config.from_json(obj, workers=args.workers,
                                               fmt=args.format, seed=args.seed))
        return handlers[args.command](args, config)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())
