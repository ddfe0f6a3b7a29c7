import csv
import json
import time

import pytest

from ffplanar import cli
from ffplanar.cli import _factor_prime_power, main
from ffplanar.config import Config
from ffplanar.planarity import PlanarCandidate
from ffplanar.search import SearchJob


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_x4_on_f9_not_planar(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--m", "1", "--n", "2",
                           "--a", "1")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().split("\n")]
    summary = lines[-1]
    assert summary["agreement"] is True and summary["planar"] is False
    witnesses = [rec["witness"] for rec in lines[:-1] if rec.get("witness")]
    assert witnesses, "a non-planar verdict must print a witness"
    # Tr(a) != 0 on n = 2, so the criterion runs and reports its own time
    (criterion,) = [rec for rec in lines if rec.get("method") == "criterion-n2"]
    assert criterion["ms"] > 0


def test_verify_square_is_planar(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--m", "1", "--n", "2",
                           "--a", "0", "--ell-preset", "identity")
    assert code == 0
    *records, summary = [json.loads(line) for line in out.strip().split("\n")]
    assert summary["planar"] is True and summary["agreement"] is True
    # Tr(0) = 0: the criterion runs too, as a permutation check of ell
    assert summary["methods"][-1] == records[-1]["method"] == "criterion-n2"
    assert records[-1]["planar"] is True


def test_verify_example1_preset_q25(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--m", "2", "--n", "2",
                           "--a", "3,2", "--ell-preset", "example1")
    # a = inv(2) in F_625 has digits 3,2? irrelevant: any a with Tr(a) != 0
    # only changes normalization, so just demand agreement
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["agreement"] is True
    assert code in (0, 1)


def test_verify_example1_preset_q25_normalized(capsys):
    from ffplanar.field import new_ctx

    ctx = new_ctx(5, 2, 2)
    a = ctx.format_element(ctx.inv(2))
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--m", "2", "--n", "2",
                           "--a", a, "--ell-preset", "example1")
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["planar"] is True


def test_verify_example1_preset_degenerate_char3(capsys):
    from ffplanar.field import new_ctx

    ctx = new_ctx(3, 2, 2)
    a = ctx.format_element(ctx.inv(2))
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--m", "2", "--n", "2",
                           "--a", a, "--ell-preset", "example1")
    assert code == 1  # the shape degenerates in characteristic 3


def test_verify_missing_flags_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 64


def test_verify_refuses_rank_above_brute_cap(capsys):
    # planar x^2 on F_3^14: 2 391 484 rank directions, above the default cap
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--m", "1", "--n", "14",
                             "--ell-preset", "identity")
    assert code == 65 and out == ""
    assert err == "error: 2391484 rank directions exceed brute-force cap 65536\n"


def test_configured_brute_cap_bounds_rank(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"brute_cap": 12}))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"p": 3, "m": 1, "n": 3, "family": "monomial",
                               "oracle": "rank", "oracle_all": True}))
    # F_27 has 13 rank directions
    for argv in (["verify", "--p", "3", "--m", "1", "--n", "3"],
                 ["scan", "--job", str(job)]):
        code, out, err = run_cli(capsys, "--config", str(config), *argv)
        assert code == 65 and out == ""
        assert err == "error: 13 rank directions exceed brute-force cap 12\n"


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_verify_candidate_file(tmp_path, capsys):
    from ffplanar.field import new_ctx
    from ffplanar.linpoly import LinearizedPoly
    from ffplanar.planarity import PlanarCandidate

    ctx = new_ctx(3, 1, 2)
    cand = PlanarCandidate(ctx, 0, LinearizedPoly.identity(ctx))
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(cand.to_json()))
    code, out, _ = run_cli(capsys, "verify", "--candidate", str(path))
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "verify", "--candidate", str(bad))
    assert code == 65
    code, _, _ = run_cli(capsys, "verify", "--candidate", str(tmp_path / "no.json"))
    assert code == 66


def _without_ms(text: str, fmt: str) -> list[dict]:
    rows = (list(csv.DictReader(text.splitlines())) if fmt == "csv"
            else [json.loads(line) for line in text.splitlines()])
    for row in rows:
        row.pop("ms", None)  # timings differ between calls
    return rows


def test_main_reuses_one_parser_with_fresh_defaults(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    verify = ["verify", "--p", "3", "--m", "1", "--n", "2"]
    calls = [
        verify + ["--ell-coeff", "0=1", "--ell-coeff", "0=1"],  # 2 x^2: planar
        verify,  # f = 0: not planar, unless the coefficients above leak
        verify + ["--ell-preset", "bogus"],
        ["--format", "csv"] + verify,
        verify + ["--ell-coeff", "0=1", "--ell-coeff", "0=1"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fmt = "csv" if "csv" in argv else "jsonl"
        return code, _without_ms(out.out, fmt), out.err

    shared = [run(argv) for argv in calls]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run(argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 64, 1, 0]
    assert shared[4] == shared[0]


@pytest.fixture
def candidate_obj():
    from ffplanar.field import new_ctx
    from ffplanar.linpoly import LinearizedPoly
    from ffplanar.planarity import PlanarCandidate

    ctx = new_ctx(3, 1, 2)
    return PlanarCandidate(ctx, 1, LinearizedPoly.identity(ctx)).to_json()


@pytest.mark.parametrize("shape", ["list", "no-a", "no-ell", "no-ctx", "int-a",
                                   "int-coeff", "coeff-index", "null-p",
                                   "unknown-key", "bool-p"])
def test_verify_rejects_malformed_candidate(shape, candidate_obj, tmp_path, capsys):
    if shape == "list":
        obj = [candidate_obj]
    elif shape == "int-a":
        obj = dict(candidate_obj, a=5)
    elif shape == "int-coeff":
        obj = dict(candidate_obj, ell={"coeffs": {"0": 1}})
    elif shape == "coeff-index":  # F_9 has coefficients 0 and 1 only
        obj = dict(candidate_obj, ell={"coeffs": {"2": "1"}})
    elif shape == "null-p":
        obj = dict(candidate_obj, ctx=dict(candidate_obj["ctx"], p=None))
    elif shape == "unknown-key":
        obj = dict(candidate_obj, b="1")
    elif shape == "bool-p":
        obj = dict(candidate_obj, ctx=dict(candidate_obj["ctx"], p=True))
    else:
        obj = dict(candidate_obj)
        del obj[shape[3:]]
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", "--candidate", str(path))
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("malformed candidate:")
    with pytest.raises(ValueError):
        PlanarCandidate.from_json(obj)


@pytest.mark.parametrize("job", [[{"p": 3, "m": 1, "n": 2, "family": "monomial"}],
                                 {"p": 3, "m": 1, "n": 2},
                                 {"p": None, "m": 1, "n": 2, "family": "monomial"},
                                 {"p": 3, "m": 1, "n": 2, "family": "monomial",
                                  "filters": [["criterion-n2"]]},
                                 {"p": 3, "m": 1, "n": 2, "family": "monomial",
                                  "oracle_all": "no"},
                                 {"p": 3, "m": 1, "n": 2, "family": "monomial",
                                  "oracle_all": 1},
                                 {"p": 3, "m": 1, "n": 2, "family": "monomial",
                                  "filter": ["criterion-n2"]}],
                         ids=["list", "no-family", "null-p", "nested-filter",
                              "str-oracle_all", "int-oracle_all", "misspelled-filters"])
def test_scan_rejects_malformed_job(job, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "scan", "--job", str(path))
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("malformed job spec:")
    with pytest.raises(ValueError):
        SearchJob.from_json(job)


@pytest.mark.parametrize("command,flag", [("verify", "--candidate"),
                                          ("scan", "--job")])
def test_directory_as_input_file_exits_66(command, flag, tmp_path, capsys):
    code, out, err = run_cli(capsys, command, flag, str(tmp_path))
    assert code == 66
    assert out == ""
    assert err.count("\n") == 1


def test_scan_inline_job(capsys):
    code, out, _ = run_cli(capsys, "scan", "--p", "3", "--m", "1", "--n", "2",
                           "--family", "monomial", "--filter", "criterion-n2",
                           "--oracle-all")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 163
    assert json.loads(lines[-1])["summary"]["disagreements"] == 0


def test_scan_job_file_and_out(tmp_path, capsys):
    job = {
        "p": 3, "m": 1, "n": 2, "family": "monomial",
        "filters": ["criterion-n2"], "oracle_all": True,
    }
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job))
    out_path = tmp_path / "findings.jsonl"
    code, _, _ = run_cli(capsys, "scan", "--job", str(job_path),
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 163
    for line in lines:
        json.loads(line)


def test_scan_rejects_undecodable_job_before_output(tmp_path, capsys):
    # a = 0 is not a valid cubic coefficient; the a = 1 half must not be
    # written, and --out is neither created nor truncated
    kept, fresh = tmp_path / "kept.jsonl", tmp_path / "fresh.jsonl"
    kept.write_bytes(b"earlier findings\n")
    for out_path in (kept, fresh):
        code, _, err = run_cli(capsys, "scan", "--p", "3", "--m", "1", "--n", "3",
                               "--family", "cubic", "--a-values", "1;0",
                               "--out", str(out_path))
        assert code == 65
        assert "zero" in err
    assert kept.read_bytes() == b"earlier findings\n"
    assert not fresh.exists()


def test_scan_rejects_nonpositive_audit_ratio(tmp_path, capsys):
    # audit_every = 0 would divide by zero at the first candidate
    job_path, out_path = tmp_path / "job.json", tmp_path / "out.jsonl"
    job_path.write_text(json.dumps({"p": 3, "m": 1, "n": 2, "family": "monomial",
                                    "audit_every": 0}))
    code, out, err = run_cli(capsys, "scan", "--job", str(job_path),
                             "--out", str(out_path))
    assert code == 65
    assert out == ""
    assert err.count("\n") == 1 and "audit ratio must be positive" in err
    assert not out_path.exists()


def test_scan_rejects_filter_outside_its_family(tmp_path, capsys):
    # a closed predicate on another family, or the n = 2 criterion on a
    # cubic tower, is a malformed job: exit 65, nothing written
    out_path = tmp_path / "out.jsonl"
    for family, n, filt in (("monomial", "2", "closed-cubic"),
                            ("monomial", "2", "closed-binomial"),
                            ("cubic", "3", "criterion-n2")):
        code, out, err = run_cli(capsys, "scan", "--p", "3", "--m", "1",
                                 "--n", n, "--family", family, "--filter", filt,
                                 "--sample", "5", "--out", str(out_path))
        assert code == 65
        assert filt in err and out == ""
        assert not out_path.exists()


def test_scan_csv_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "charsum", "--q", "3",
                           "--k", "5", "--c", "1", "--all-targets")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7  # header + 6 targets
    assert "count" in lines[0]


def test_charsum_all_targets(capsys):
    code, out, _ = run_cli(capsys, "charsum", "--q", "3", "--k", "5", "--c", "1",
                           "--all-targets")
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 6
    for rec in records:
        assert rec["count"] >= 1
        assert rec["bound_holds"]


def test_charsum_single_target_with_orthogonality(capsys):
    code, out, _ = run_cli(capsys, "charsum", "--q", "3", "--k", "4",
                           "--c", "1", "--upsilon", "1", "--omega", "2",
                           "--orthogonality")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["char_sum_residual"] < 1e-4


def test_charsum_rejects_non_prime_power(capsys):
    for q in ("6", "1", "0"):
        code, _, err = run_cli(capsys, "charsum", "--q", q, "--k", "2")
        assert code == 64


def test_factor_prime_power_is_fast():
    started = time.perf_counter()
    assert _factor_prime_power(100000007) == (100000007, 1)
    assert _factor_prime_power(3**13) == (3, 13)
    assert _factor_prime_power(2) == (2, 1)
    assert time.perf_counter() - started < 1.0
    # the last q is a semiprime whose smaller factor rho would need about
    # 2^30 steps to find; it is above the index range, so it is not factored
    for q in (6, 100000007 * 3, 3**5 * 5, 1, 0, -9, (2**61 - 1) * (2**89 - 1)):
        with pytest.raises(ValueError):
            _factor_prime_power(q)
    assert time.perf_counter() - started < 2.0


def test_subspace_roundtrip_cli(capsys):
    code, out, _ = run_cli(capsys, "subspace", "--p", "3", "--n", "3",
                           "--basis", "1,0,0;0,1,0")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["dim"] == 2
    assert rec["roundtrip_ok"] is True


def test_selftest_filtered(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--filter", "field-tables")
    assert code == 0
    assert "PASS" in out


def test_selftest_cubic_filter_runs_only_cubic(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--filter", "cubic-root")
    assert code == 0
    assert "cubic-root-test" in out
    assert "classical-fixtures" not in out


def test_config_file_overrides_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"brute_cap": 1024, "fmt": "csv"}))
    doc = json.loads(path.read_text())
    cfg = Config.from_json(doc)
    assert cfg.brute_cap == 1024 and cfg.fmt == "csv"
    assert Config().brute_cap == 1 << 16
    # a keyword override wins over the file; a None override keeps it
    assert Config.from_json(doc, fmt="json", seed=None) == Config(brute_cap=1024,
                                                                  fmt="json")


def test_config_null_values_keep_the_defaults(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: None for key in Config.__dataclass_fields__}))
    assert Config.from_json(json.loads(path.read_text())) == Config()
    plain = run_cli(capsys, "verify", "--p", "3", "--m", "1", "--n", "2")
    nulls = run_cli(capsys, "--config", str(path), "verify", "--p", "3",
                    "--m", "1", "--n", "2")
    assert nulls[0] == plain[0] == 1
    assert _without_ms(nulls[1], "jsonl") == _without_ms(plain[1], "jsonl")


@pytest.mark.parametrize("doc", [{"seed": "5"}, {"audit_every": 2.5},
                                 {"workers": True}, {"table_caps": 4096},
                                 {"fmt": ["csv"]}],
                         ids=["str-seed", "float-audit", "bool-workers",
                              "unknown-key", "list-fmt"])
def test_mistyped_config_exits_65(doc, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "--config", str(path),
                             "verify", "--p", "3", "--m", "1", "--n", "2")
    assert code == 65 and out == ""
    assert err.count("\n") == 1 and err.startswith("bad configuration:")
    with pytest.raises(ValueError):
        Config.from_json(json.loads(path.read_text()))


def test_malformed_or_unreadable_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"fmt": "csv"}]))
    verify = ["verify", "--p", "3", "--m", "1", "--n", "2"]
    code, out, err = run_cli(capsys, "--config", str(path), *verify)
    assert code == 65 and out == "" and "bad configuration" in err
    for missing in (tmp_path, tmp_path / "none.json"):
        code, out, err = run_cli(capsys, "--config", str(missing), *verify)
        assert code == 66 and out == ""
        assert err.count("\n") == 1 and err.startswith("cannot read config file:")


def test_config_validation():
    with pytest.raises(ValueError):
        Config(table_cap=0)
    with pytest.raises(ValueError):
        Config(fmt="xml")


def _chained_candidate(p, m, n, a, preset, specs):
    """The candidate as built by one LinearizedPoly.__add__ per
    --ell-coeff T=DIGITS, T taken mod m*n."""
    from ffplanar.field import new_ctx
    from ffplanar.linpoly import LinearizedPoly

    ctx = new_ctx(p, m, n)
    ell = cli.ELL_PRESETS[preset](ctx)
    for spec in specs:
        t, _, digits = spec.partition("=")
        ell = ell + LinearizedPoly.monomial(ctx, ctx.parse_element(digits), int(t))
    return PlanarCandidate(ctx, ctx.parse_element(a), ell)


@pytest.mark.parametrize("tower,preset,specs", [
    ((3, 1, 5), "zero", []),
    ((3, 1, 5), "identity", ["0=1"]),
    ((3, 1, 5), "identity", ["0=2", "5=1", "5=1,1", "-1=2,0,1", "12=1"]),  # repeated, wrapped
    ((5, 2, 2), "example1", ["3=1,2", "-9=2", "1=0", "7=4,4,4,4"]),
])
def test_candidate_from_args_sums_repeated_coefficients(tower, preset, specs):
    p, m, n = tower
    argv = ["verify", "--p", str(p), "--m", str(m), "--n", str(n), "--a", "1,2",
            "--ell-preset", preset] + [f"--ell-coeff={spec}" for spec in specs]
    args = cli._build_parser().parse_args(argv)
    got = cli._candidate_from_args(args, Config())
    assert got == _chained_candidate(p, m, n, "1,2", preset, specs)


@pytest.mark.parametrize("spec", ["x=1", "1=3", "1=1,1,1,1,1,1", "2=", "=1"])
def test_candidate_from_args_rejects_what_the_chain_rejects(spec):
    args = cli._build_parser().parse_args(
        ["verify", "--p", "3", "--m", "1", "--n", "5", "--ell-coeff", "0=1",
         "--ell-coeff", spec])
    with pytest.raises(ValueError) as want:
        _chained_candidate(3, 1, 5, "0", "zero", ["0=1", spec])
    with pytest.raises(ValueError) as got:
        cli._candidate_from_args(args, Config())
    assert str(got.value) == str(want.value)
