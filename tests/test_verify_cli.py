"""Function-spec parsing, config precedence, report determinism, CLI wiring."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dirimor.analytic import SpaceParams
from dirimor.cli import main
from dirimor.verify import (
    DEFAULT_SUITE,
    FunctionSpecError,
    RunConfig,
    build_suite,
    emit_report,
    parse_function_spec,
    resolve_config,
    run_tasks,
    run_verification,
    select_tasks,
    summarize,
)

PARAMS = SpaceParams(0.5, 0.4)


# -- function specs -------------------------------------------------------------


def test_parse_taylor():
    f = parse_function_spec("taylor:0,1")
    assert complex(f(0.5)) == pytest.approx(0.5)
    g = parse_function_spec("taylor:1,0,2")
    assert complex(g(0.5)) == pytest.approx(1.5)


def test_parse_kernel():
    f = parse_function_spec("kernel:c=0.9+0i,s=0.35")
    assert complex(f(0.5)) == pytest.approx(0.55 ** -0.35, rel=1e-12)
    g = parse_function_spec("kernel:c=0.9+0i,s=auto", PARAMS)
    assert complex(g(0.0)) == pytest.approx(1.0)
    b = parse_function_spec("kernel:c=1+0i,s=auto", PARAMS)
    assert b.singular_angles == (0.0,)


def test_parse_gap_and_log():
    f = parse_function_spec("gap:q=0.3,K=20")
    assert complex(f(0.0)) == 0.0
    g = parse_function_spec("log1")
    assert g.label == "log1"


@pytest.mark.parametrize(
    "bad",
    [
        "mystery:1,2",
        "taylor:abc",
        "kernel:c=0.5+0i",
        "kernel:c=zz,s=1",
        "kernel:c=0.5+0i,s=auto",  # no params supplied
        "gap:K=20",
        "noseparator",
    ],
)
def test_parse_errors_name_token(bad):
    with pytest.raises(FunctionSpecError):
        parse_function_spec(bad)


def test_default_suite_builds():
    cfg = RunConfig()
    suite = build_suite(cfg, PARAMS)
    assert len(suite) == len(DEFAULT_SUITE)
    names = [n for n, _ in suite]
    assert "log1" in names


# -- config ----------------------------------------------------------------------


def test_config_overrides_and_validation(tmp_path):
    cfg = RunConfig().with_overrides({"k_a": 4, "suite": ["taylor:0,1"]})
    assert cfg.k_a == 4 and cfg.suite == ("taylor:0,1",)
    with pytest.raises(ValueError):
        RunConfig().with_overrides({"bogus_key": 1})


def test_config_precedence(tmp_path, monkeypatch):
    env_file = tmp_path / "env.json"
    env_file.write_text(json.dumps({"k_a": 3, "depth": 18}))
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps({"k_a": 5}))
    monkeypatch.setenv("DIRIMOR_CONFIG", str(env_file))
    cfg = resolve_config(None, None)
    assert cfg.k_a == 3 and cfg.depth == 18
    cfg2 = resolve_config(str(explicit), {"depth": 20})
    assert cfg2.k_a == 5 and cfg2.depth == 20  # CLI overrides file; file beats env


def test_select_tasks():
    assert select_tasks(["all"]) == [f"V{i}" for i in (1, 10, 2, 3, 4, 5, 6, 7, 8, 9)]
    assert select_tasks(["V9", "V4", "V4"]) == ["V4", "V9"]
    with pytest.raises(KeyError):
        select_tasks(["V42"])


# -- reports ----------------------------------------------------------------------


def _mask_runtime(doc):
    for t in doc["tasks"]:
        t["runtime_ms"] = 0
    return doc


def test_report_roundtrip_and_determinism(tmp_path):
    cfg = RunConfig().with_overrides({"out": str(tmp_path / "rep.json")})
    r1 = run_verification("V9", cfg)
    r2 = run_verification("V9", cfg)
    doc1 = emit_report([r1], tmp_path / "rep.json", cfg)
    doc2 = emit_report([r2], tmp_path / "rep2.json", cfg)
    assert _mask_runtime(doc1) == _mask_runtime(doc2)
    on_disk = json.loads((tmp_path / "rep.json").read_text())
    assert on_disk["schema"] == "dirimor-verify@1"
    assert on_disk["tasks"][0]["task_id"] == "V9"
    assert (tmp_path / "rep.txt").exists()
    assert "V9" in (tmp_path / "rep.txt").read_text()


def test_empty_report(tmp_path):
    doc = emit_report([], tmp_path / "empty.json", RunConfig())
    assert doc["tasks"] == [] and doc["all_passed"] is True


def test_worker_pool_matches_serial():
    cfg = RunConfig().with_overrides({"workers": 1})
    cfg4 = RunConfig().with_overrides({"workers": 4})
    serial = [r.as_dict() for r in run_tasks(["V9", "V10"], cfg)]
    pooled = [r.as_dict() for r in run_tasks(["V9", "V10"], cfg4)]
    for a, b in zip(serial, pooled):
        a["runtime_ms"] = b["runtime_ms"] = 0
        assert a == b


def test_summarize_format():
    cfg = RunConfig()
    res = run_verification("V9", cfg)
    text = summarize([res])
    assert "V9" in text and "overall: PASS" in text


# -- CLI ---------------------------------------------------------------------------


def test_cli_norm_json(tmp_path, capsys):
    rc = main([
        "norm", "--quantity", "dp", "--function", "taylor:0,1", "--p", "1.0",
        "--out", str(tmp_path / "norm.json"),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "norm.json").read_text())
    assert payload["value"] == pytest.approx(math.sqrt(0.5), rel=1e-9)
    assert payload["function"] == "taylor:0,1"


def test_cli_sweep_without_out_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["sweep", "--mode", "levels", "--function", "taylor:0,1", "--k-arc", "2"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("grid_level,quantity")
    assert list(tmp_path.iterdir()) == []


def test_cli_norm_rejects_bad_spec(capsys):
    rc = main(["norm", "--quantity", "dp", "--function", "wat:1"])
    assert rc == 2


def test_cli_membership(tmp_path):
    rc = main([
        "membership", "--criterion", "gap-qp", "--q", "0.6",
        "--coeff-rule", "remark:q=0.3", "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "m.json").read_text())
    assert payload["classification"] == "convergent-trend"
    want = 1 / (1 - 2.0 ** -0.3)
    assert payload["limit_estimate"] == pytest.approx(want, rel=1e-6)


def test_cli_membership_yamashita(tmp_path):
    rc = main([
        "membership", "--criterion", "yamashita", "--q", "0.3",
        "--coeff-rule", "remark:q=0.3", "--out", str(tmp_path / "y.json"),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "y.json").read_text())
    assert payload["tail_max"] == pytest.approx(1.0, rel=1e-9)


def test_cli_verify_exit_code_and_report(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--task", "V9", "--task", "V10", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [t["task_id"] for t in doc["tasks"]] == ["V10", "V9"]
    assert doc["all_passed"] is True
    assert out.with_suffix(".txt").exists()


def test_cli_verify_report_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--task", "V9", "--out", str(out1)]) == 0
    assert main(["verify", "--task", "V9", "--out", str(out2)]) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    d1["config"]["out"] = d2["config"]["out"] = ""
    assert _mask_runtime(d1) == _mask_runtime(d2)


def test_cli_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"k_arc": 3, "n_centers": 4}))
    out = tmp_path / "n.json"
    rc = main([
        "norm", "--quantity", "dm-box", "--function", "taylor:0,1",
        "--p", "1.0", "--lambda", "1.0",
        "--config", str(cfg_file), "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["grid"]["k_arc"] == 3


def test_cli_sweep_levels(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--mode", "levels", "--function", "taylor:0,1",
        "--p", "0.5", "--lambda", "1.0", "--k-arc", "3", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "grid_level,quantity"
    assert len(lines) > 3


def test_cli_sweep_params(tmp_path):
    out = tmp_path / "sweep2.csv"
    rc = main([
        "sweep", "--mode", "params", "--function", "taylor:0,1",
        "--p-grid", "0.4:0.6:2", "--lambda-grid", "0.3:0.7:2",
        "--k-a", "3", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,lambda,value,refinement_delta"
    assert len(lines) == 5


def test_cli_operator_scan_small(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({
        "k_c": 3, "c_directions": 2, "scan_k_a": 4, "scan_angle_cap": 8,
        "scan_depth": 12,
    }))
    out = tmp_path / "op.json"
    rc = main([
        "operator", "--kind", "jg", "--g", "taylor:1",
        "--p", "0.5", "--lambda", "0.4", "--config", str(cfg), "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "Jg"
    assert payload["max_ratio"] == 0.0  # constant symbol: J_g vanishes
    assert payload["classification"] == "bounded-trend"


@pytest.mark.parametrize(
    "quantity,function",
    [
        ("dm-translate", "taylor:0,1"),
        ("qp", "taylor:0,1"),
        ("qplog", "taylor:0,1"),
        ("hinf", "log1"),
        ("growth", "kernel:c=1+0i,s=auto"),
        ("morrey", "taylor:0,1"),
        ("boundary", "taylor:0,1"),
        ("gpcm", "taylor:0,1"),
    ],
)
def test_cli_norm_quantities_smoke(tmp_path, quantity, function):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({
        "k_a": 3, "a_angle_cap": 8, "k_arc": 2, "n_centers": 4,
        "depth": 12, "boundary_k_arc": 1, "boundary_n_centers": 2,
        "boundary_t_depth": 12,
    }))
    out = tmp_path / f"{quantity}.json"
    args = [
        "norm", "--quantity", quantity, "--function", function,
        "--p", "0.5", "--lambda", "0.4", "--config", str(cfg), "--out", str(out),
    ]
    if quantity == "morrey":
        args += ["--s", "0.3"]
    rc = main(args)
    assert rc == 0
    payload = json.loads(out.read_text())
    assert "value" in payload
    assert payload["value"] >= 0.0


@pytest.mark.parametrize(
    "bad",
    [
        "kernel:c=2+0i,s=0.3",      # base point outside the closed disc
        "kernel:c=0.5+0i,s=-1",     # negative exponent
        "gap:q=0.3,K=4",            # truncation too short for the tail bound
        "gap:q=1.5",                # exponent outside (0, 1)
    ],
)
def test_parse_wraps_constructor_errors(bad):
    with pytest.raises(FunctionSpecError):
        parse_function_spec(bad)


def test_cli_help_wiring():
    from dirimor.cli import build_parser

    parser = build_parser()
    for cmd in ("norm", "operator", "membership", "verify", "sweep"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([cmd, "--help"])
        assert exc.value.code == 0
