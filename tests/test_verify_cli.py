"""Function-spec parsing, config precedence, report determinism, CLI wiring."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dirimor.analytic import SpaceParams
from dirimor.cli import main
from dirimor.norms import NormReport, ParamGrid
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


PARSE_ERRORS = [
    ("mystery:1,2", "mystery"),
    ("taylor:abc", "abc"),
    ("kernel:c=0.5+0i", "missing s"),
    ("kernel:c=zz,s=1", "zz"),
    ("kernel:c=0.5+0i,s=auto", "s=auto"),  # no params supplied
    ("gap:K=20", "missing q"),
    ("noseparator", "noseparator"),
    # unknown and repeated keys were dropped, or the last one taken
    ("gap:q=0.3,k=30", "unknown key 'k'"),
    ("kernel:c=0.5,s=0.3,x=1", "unknown key 'x'"),
    ("gap:q=0.3,K=30,q=0.5", "repeated key 'q'"),
]


@pytest.mark.parametrize("bad,match", PARSE_ERRORS, ids=[bad for bad, _ in PARSE_ERRORS])
def test_parse_errors_name_token(bad, match):
    with pytest.raises(FunctionSpecError, match=match):
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
    # a float field takes an integer, and None leaves a field alone
    cfg = RunConfig().with_overrides({"p": 1, "out": "x.json", "tasks": ("V9",), "seed": None})
    assert (cfg.p, cfg.out, cfg.tasks, cfg.seed) == (1, "x.json", ("V9",), RunConfig().seed)
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


# the settings each quantity's report names under "grid": exactly those its
# scan reads
GRID_KEYS = {
    "dp": {"kind", "depth", "radial_order", "n_min", "growth_cap", "foci", "panel_order",
           "base_panels"},
    "dm-translate": {"scan", "k_a", "a_angle_cap", "depth", "base_panels"},
    "morrey": {"scan", "k_a", "a_angle_cap", "depth", "base_panels", "s"},
    "dm-box": {"scan", "k_arc", "n_centers", "radial_order", "p", "lam"},
    "qp": {"scan", "k_arc", "n_centers", "radial_order", "p", "lam"},
    "qplog": {"scan", "k_arc", "n_centers", "radial_order", "p"},
    "boundary": {"scan", "k_arc", "n_centers", "t_depth"},
    "gpcm": {"scan", "k_w", "w_angle_cap", "table_depth", "skipped"},
    "hinf": {"scan", "k_levels", "n_max"},
    "growth": {"scan", "k_levels", "n_directions"},
}


@pytest.mark.parametrize(
    "quantity,function",
    [
        ("dp", "taylor:0,1"),
        ("dm-translate", "taylor:0,1"),
        ("dm-box", "taylor:0,1"),
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
    # every quantity prints a NormReport and the function spec
    assert set(payload) == set(NormReport("q", 0.0, None, {}, 0.0).as_dict()) | {"function"}
    assert payload["value"] >= 0.0
    assert set(payload["grid"]) == GRID_KEYS[quantity]


@pytest.mark.parametrize("key", ["panel_order", "box_rel_depth", "box_panel_order",
                                 "box_base_panels"])
def test_removed_config_keys_rejected_by_name(key, tmp_path, capsys):
    # these four settings are constants of the scans now, not config fields
    with pytest.raises(ValueError, match=f"'{key}'"):
        RunConfig().with_overrides({key: 1})
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({key: 16}))
    assert main(["norm", "--quantity", "dp", "--function", "taylor:0,1",
                 "--config", str(cfg)]) == 2
    assert f"'{key}'" in _one_error_line(capsys.readouterr().err)


def test_cli_norm_hinf_reads_k_a(tmp_path):
    out = tmp_path / "hinf.json"
    rc = main(["norm", "--quantity", "hinf", "--function", "log1", "--k-a", "3",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["grid"]["k_levels"] == 3
    assert [l for l, _ in payload["levels"]] == [0, 1, 2, 3]


# the README "Command line" table: the flags each quantity reads
NORM_READS = {
    "dp": (), "gpcm": (), "growth": (), "boundary": (),
    "dm-translate": ("--k-a", "--depth", "--angular-min"),
    "morrey": ("--k-a", "--depth", "--angular-min", "--s"),
    "dm-box": ("--k-arc", "--radial-order"),
    "qp": ("--k-arc", "--radial-order"),
    "qplog": ("--k-arc", "--radial-order"),
    "hinf": ("--k-a",),
}
CHECKED_FLAGS = {"--depth": "12", "--k-a": "3", "--k-arc": "2", "--angular-min": "4",
                 "--radial-order": "4", "--s": "0.3"}


def _one_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err
    return lines[0]


@pytest.mark.parametrize("quantity", sorted(NORM_READS))
def test_cli_norm_rejects_unread_grid_flags(quantity, capsys):
    unread = [flag for flag in CHECKED_FLAGS if flag not in NORM_READS[quantity]]
    base = ["norm", "--quantity", quantity, "--function", "taylor:0,1"]
    for flag in unread:
        assert main(base + [flag, CHECKED_FLAGS[flag]]) == 2
        assert flag in _one_error_line(capsys.readouterr().err)
    every = [tok for flag in unread for tok in (flag, CHECKED_FLAGS[flag])]
    assert main(base + every) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert all(flag in line for flag in unread)


def test_cli_sweep_rejects_unread_flags(capsys):
    rc = main(["sweep", "--mode", "params", "--function", "taylor:0,1",
               "--p", "0.5", "--lambda", "0.4", "--k-arc", "3"])
    assert rc == 2
    line = _one_error_line(capsys.readouterr().err)
    assert "--p," in line and "--lambda" in line and "--k-arc" in line
    assert main(["sweep", "--mode", "levels", "--function", "taylor:0,1", "--k-a", "3"]) == 2
    assert "--k-a" in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv,token",
    [
        (["norm", "--quantity", "boundary", "--function", "log1"], "log1"),
        (["sweep", "--mode", "levels", "--function", "wat:1"], "wat"),
        (["norm", "--quantity", "dp", "--function", "taylor:0,1", "--p", "1.5"], "1.5"),
        (["operator", "--kind", "jg", "--g", "taylor:1", "--lambda", "2"], "lam"),
        (["verify", "--task", "V42"], "V42"),
        (["norm", "--quantity", "dp", "--function", "taylor:0,1", "--config", 'json:{"bogus": 1}'],
         "bogus"),
        (["sweep", "--function", "taylor:0,1", "--p-grid", "0.2:x:2"], "--p-grid"),
        # a family of the constant alone passed V6 and read bounded-trend
        (["verify", "--task", "V6", "--config", 'json:{"k_c": 0}'], "k_c"),
        (["operator", "--kind", "jg", "--g", "log1", "--config", 'json:{"k_c": 0}'], "k_c"),
        (["verify", "--task", "V6", "--config", 'json:{"c_directions": -1}'], "c_directions"),
        # a negative seed failed after every task had run, naming no token
        (["verify", "--task", "all", "--seed", "-1"], "seed"),
        (["verify", "--task", "V9", "--workers", "-3"], "workers"),
        (["norm", "--quantity", "dp", "--function", "taylor:0,1", "--config", 'json:"abc"'],
         "config0.json"),
        (["norm", "--quantity", "dp", "--function", "taylor:0,1", "--config", "json:[1, 2]"],
         "config0.json"),
        # text that is not JSON read an error line that named no file
        (["norm", "--quantity", "dp", "--function", "taylor:0,1", "--config", 'json:{"k_a": 3,'],
         "config0.json"),
    ],
    ids=["no-boundary-trace", "bad-spec", "bad-p", "bad-lambda", "unknown-task",
         "unknown-config-key", "bad-p-grid", "verify-k_c", "operator-k_c", "c_directions",
         "seed", "workers", "config-string", "config-list", "config-not-json"],
)
def test_cli_bad_input_exits_2_with_one_error_line(argv, token, tmp_path, capsys):
    # an argument "json:<text>" names a config file configN.json holding <text>
    files = {}
    for a in argv:
        if a.startswith("json:"):
            files[a] = tmp_path / f"config{len(files)}.json"
            files[a].write_text(a[len("json:"):])
    assert main([str(files.get(a, a)) for a in argv]) == 2
    assert token in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "quantity,flag,value,field",
    [
        ("dm-translate", None, {"a_angle_cap": 0}, "a_angle_cap"),
        ("dm-translate", None, {"a_angle_cap": -3}, "a_angle_cap"),
        ("dm-translate", "--k-a", "-1", "k_a"),
        ("dm-box", None, {"n_centers": 0}, "n_centers"),
        ("dm-box", "--k-arc", "-1", "k_arc"),
        ("hinf", "--k-a", "-1", "k_levels"),
    ],
    ids=["a_angle_cap-0", "a_angle_cap-negative", "k_a", "n_centers", "k_arc", "hinf-k_levels"],
)
def test_cli_rejects_empty_scan_sizes(quantity, flag, value, field, tmp_path, capsys):
    # a scan of a = 0 alone (or of no arcs) must not pass for a supremum
    argv = ["norm", "--quantity", quantity, "--function", "gap:q=0.5,K=20"]
    if flag is None:
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(value))
        argv += ["--config", str(cfg)]
    else:
        argv += [flag, value]
    assert main(argv) == 2
    assert field in _one_error_line(capsys.readouterr().err)
    # the empty-direction edge cases a scan may legitimately ask for
    ParamGrid(k_a=0, k_arc=0, a_angle_cap=1, n_centers=1)


def test_cli_boundary_rejects_t_depth_below_one(tmp_path, capsys):
    # a boundary scan without t-panels read 0.0 and "bounded-trend"
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"boundary_t_depth": 0}))
    assert main(["norm", "--quantity", "boundary", "--function", "taylor:0,1",
                 "--config", str(cfg)]) == 2
    assert "t_depth must be at least 1, got 0" in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "quantity,flag,value,token",
    [
        ("dm-translate", "--depth", "0", "depth"),
        ("dm-translate", "--angular-min", "0", "base_panels"),
        ("dm-box", "--radial-order", "0", "radial order"),
    ],
    ids=["depth", "angular-min", "radial-order"],
)
def test_cli_rejects_grid_sizes_below_their_floor(quantity, flag, value, token, capsys):
    # the scan would otherwise run at another size than the report names,
    # or fail inside numpy
    argv = ["norm", "--quantity", quantity, "--function", "gap:q=0.5,K=20", flag, value]
    assert main(argv) == 2
    assert token in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "rule,token",
    [("geometric", "missing r"), ("remark:v=1", "missing q"), ("geometric:r=x", "r='x'"),
     ("geometric:r=0.5,x=9", "unknown key 'x'"), ("geometric:r=0.5,r=0.6", "repeated key 'r'"),
     ("zero:x=1", "unknown key 'x'")],
)
def test_cli_membership_coeff_rule_names_key(rule, token, capsys):
    rc = main(["membership", "--criterion", "gap-qp", "--q", "0.6", "--coeff-rule", rule])
    assert rc == 2
    assert token in _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv",
    [
        ["membership", "--criterion", "gap-qp", "--q", "0.6", "--depth", "3"],
        ["operator", "--kind", "jg", "--g", "log1", "--workers", "2"],
    ],
    ids=["membership-depth", "operator-workers"],
)
def test_cli_subcommand_lacks_unread_flag(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_bad_input_process_exit_code():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("DIRIMOR_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-m", "dirimor.cli", "norm", "--quantity", "boundary", "--function", "log1"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "log1" in _one_error_line(proc.stderr)


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


# -- one test family per run -------------------------------------------------------


TINY_FAMILY = {"k_c": 3, "c_directions": 2, "scan_k_a": 4, "scan_angle_cap": 8, "scan_depth": 12}


def test_run_tasks_builds_the_v6_v7_family_once(monkeypatch):
    from dirimor import verify

    calls = []
    build = verify.make_test_family

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(verify, "make_test_family", counted)
    docs = []
    for workers in (1, 2):
        cfg = RunConfig().with_overrides({**TINY_FAMILY, "workers": workers})
        calls.clear()
        docs.append([r.as_dict() for r in run_tasks(["V6", "V7"], cfg)])
        assert len(calls) == 1
    for doc in docs:
        for task in doc:
            task["runtime_ms"] = 0
    assert docs[0] == docs[1]
    calls.clear()
    run_verification("V7", RunConfig().with_overrides(TINY_FAMILY))
    assert len(calls) == 1


def test_family_memo_builds_each_key_once_under_contention(monkeypatch):
    # more threads than cores ask for two families at once; a lost update in
    # the memo would build one of them twice
    import threading
    import time
    from concurrent.futures import ThreadPoolExecutor

    from dirimor import verify

    built = []
    lock = threading.Lock()

    def slow_build(params, **kwargs):
        time.sleep(0.01)
        with lock:
            built.append(params)
        return ("family", params)

    monkeypatch.setattr(verify, "make_test_family", slow_build)
    memo = verify._RunMemo()
    cfg = RunConfig()
    keys = [SpaceParams(0.5, 0.4), SpaceParams(0.6, 0.5)] * 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(verify._run_family, cfg, params, memo) for params in keys]
            got = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [("family", params) for params in keys]
    assert sorted(built, key=lambda q: q.p) == [SpaceParams(0.5, 0.4), SpaceParams(0.6, 0.5)]
    # the scan grid carries the family's whole translate scan, depth included
    assert set(memo._slots) == {("family", q, cfg.k_c, cfg.c_directions, cfg.scan_grid())
                                for q in keys}
    assert cfg.scan_grid() != cfg.with_overrides({"scan_depth": 12}).scan_grid()


TINY_REFINEMENT = {"suite": ["taylor:0,1", "kernel:c=0.9+0i,s=auto", "log1"],
                   "k_a": 3, "a_angle_cap": 8, "depth": 10, "k_arc": 1, "n_centers": 2}


def test_v1_v2_read_base_norms_off_one_refined_scan(monkeypatch):
    # V1 and V2 scan the suite's translates once, on the refined grid, V1
    # scans each function's boxes once, on the refined grid, and V2 runs one
    # envelope per function; their base-grid figures must equal, bit for
    # bit, those of explicit base-grid scans
    from dirimor import verify
    from dirimor.norms import dm_seminorm_box

    cfg = RunConfig().with_overrides(TINY_REFINEMENT)
    params = cfg.space_params()
    fs = [f for _, f in build_suite(cfg, params)]
    grid = cfg.param_grid()
    norms = [t.value for t in verify.dm_norms_translate(fs, params, grid)]
    envelopes = [verify.growth_envelope(f, params, k_levels=12).value for f in fs]
    boxes = [dm_seminorm_box(f, params, grid, radial_order=cfg.box_radial_order).value
             for f in fs]

    calls = {"dm_norms_translate": 0, "growth_envelope": 0, "dm_seminorm_box": 0}

    def spy(name):
        run = getattr(verify, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return run(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)

    for name in calls:
        spy(name)

    v1, _ = verify._v1(cfg, verify.TASKS["V1"].fixed, verify._RunMemo())
    assert calls == {"dm_norms_translate": 1, "growth_envelope": 0, "dm_seminorm_box": len(fs)}
    assert [row["ratio"] for row in v1] == [
        (n - abs(f.at_zero())) ** 2 / b for f, n, b in zip(fs, norms, boxes)]

    calls.update(dm_norms_translate=0, dm_seminorm_box=0)
    v2, _ = verify._v2(cfg, verify.TASKS["V2"].fixed, verify._RunMemo())
    assert calls == {"dm_norms_translate": 1, "growth_envelope": len(fs), "dm_seminorm_box": 0}
    assert [row["norm"] for row in v2[:-1]] == norms
    assert [row["envelope"] for row in v2[:-1]] == envelopes


def test_v5_reads_base_boundary_off_one_refined_scan(monkeypatch):
    # V5 runs one boundary scan per function, on the refined arc grid; its
    # base-grid quantity must equal, bit for bit, an explicit base-grid scan
    from dirimor import verify
    from dirimor.norms import dm_seminorm_box

    cfg = RunConfig().with_overrides({**TINY_REFINEMENT, "boundary_k_arc": 1,
                                      "boundary_n_centers": 2, "boundary_t_depth": 12})
    params = cfg.space_params()
    fs = [f for _, f in verify._boundary_suite(build_suite(cfg, params))]
    base = [verify.boundary_double_seminorm(f, params, cfg.boundary_grid(), t_depth=12).value
            for f in fs]
    boxes = [dm_seminorm_box(f, params, cfg.param_grid(), radial_order=cfg.box_radial_order).value
             for f in fs]

    scanned = []
    run = verify.boundary_double_seminorm

    def counted(f, *args, **kwargs):
        scanned.append(f)
        return run(f, *args, **kwargs)

    monkeypatch.setattr(verify, "boundary_double_seminorm", counted)
    v5, _ = verify._v5(cfg, verify.TASKS["V5"].fixed, verify._RunMemo())
    assert len(fs) >= 2 and [f.label for f in scanned] == [f.label for f in fs]
    assert [row["boundary"] for row in v5] == base
    assert [row["ratio"] for row in v5] == [d / b for d, b in zip(base, boxes)]


TINY_SHARED = {**TINY_REFINEMENT, "boundary_k_arc": 1, "boundary_n_centers": 2,
               "boundary_t_depth": 12}


def test_run_tasks_shares_the_refined_scans(monkeypatch):
    # one run makes one translate scan of the suite (V1, V2) and one box
    # scan per suite function (V1, V5), at any worker count
    import threading

    from dirimor import verify

    calls = []
    lock = threading.Lock()

    def spy(name):
        run = getattr(verify, name)

        def counted(*args, **kwargs):
            with lock:
                calls.append(name)
            return run(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)

    spy("dm_norms_translate")
    spy("dm_seminorm_box")
    docs = []
    for workers in (1, 2):
        cfg = RunConfig().with_overrides({**TINY_SHARED, "workers": workers})
        calls.clear()
        docs.append([r.as_dict() for r in run_tasks(["V1", "V2", "V5"], cfg)])
        assert sorted(calls) == ["dm_norms_translate"] + ["dm_seminorm_box"] * len(cfg.suite)
    for doc in docs:
        for task in doc:
            task["runtime_ms"] = 0
    assert docs[0] == docs[1]


def test_v2_skips_a_zero_norm_member(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"suite": ["taylor:0", "taylor:0,1"], "k_a": 2,
                               "a_angle_cap": 8, "depth": 8}))
    out = tmp_path / "rep.json"
    assert main(["verify", "--task", "V2", "--config", str(cfg), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["tasks"][0]["measured"]
    assert rows[0] == {"function": "taylor:0", "skipped": "degenerate"}
    assert rows[1]["function"] == "taylor:0,1" and rows[1]["pass"]
    assert rows[2] == {"C_est": max(rows[1]["ratio"], rows[1]["refined_ratio"])}


@pytest.mark.parametrize("key,value", [
    ("k_a", "3"), ("k_a", True), ("k_a", 3.0), ("p", "0.5"), ("p", False), ("out", 3),
    ("suite", "taylor:0,1"), ("suite", [1]), ("tasks", "V9"),
])
def test_mistyped_config_values_are_rejected_by_key(key, value, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"'{key}'"):
        RunConfig().with_overrides({key: value})
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({key: value}))
    for argv in (["verify", "--task", "V2"], ["norm", "--quantity", "dm-translate",
                                             "--function", "taylor:0,1"]):
        assert main(argv + ["--config", str(cfg)]) == 2
        assert f"'{key}'" in _one_error_line(capsys.readouterr().err)


# -- --out is checked before any computation ---------------------------------------


def test_cli_unwritable_out_fails_before_computing(tmp_path, monkeypatch, capsys):
    from dirimor import cli

    def never(*args, **kwargs):
        raise AssertionError("computation ran before --out was checked")

    monkeypatch.setattr(cli, "dirichlet_norm", never)
    monkeypatch.setattr(cli, "run_tasks", never)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = str(blocker / "x.json")
    for argv in (["norm", "--quantity", "dp", "--function", "taylor:0,1", "--out", out],
                 ["verify", "--task", "V9", "--out", out]):
        assert main(argv) == 2
        assert out in _one_error_line(capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
    assert blocker.read_text() == ""


def test_cli_out_must_not_be_a_directory(tmp_path, capsys):
    assert main(["membership", "--criterion", "gap-qp", "--q", "0.3",
                 "--out", str(tmp_path)]) == 2
    assert str(tmp_path) in _one_error_line(capsys.readouterr().err)


def test_missing_env_config_file_is_bad_input(tmp_path, monkeypatch, capsys):
    # a DIRIMOR_CONFIG naming no file is an error, as a missing --config is;
    # an explicit --config replaces the env file instead of layering on it
    missing = tmp_path / "no-such.json"
    monkeypatch.setenv("DIRIMOR_CONFIG", str(missing))
    with pytest.raises(OSError, match="DIRIMOR_CONFIG"):
        resolve_config(None, None)
    assert main(["norm", "--quantity", "growth", "--function", "taylor:0,1"]) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert "DIRIMOR_CONFIG" in line and str(missing) in line
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps({"k_a": 5}))
    assert resolve_config(str(explicit), None) == RunConfig(k_a=5)


def test_env_config_file_that_is_not_json_is_named(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k_a": 3,')
    monkeypatch.setenv("DIRIMOR_CONFIG", str(bad))
    with pytest.raises(ValueError, match=rf"^DIRIMOR_CONFIG={re.escape(str(bad))}: not valid JSON"):
        resolve_config(None, None)
    assert main(["norm", "--quantity", "dp", "--function", "taylor:0,1"]) == 2
    assert f"DIRIMOR_CONFIG={bad}" in _one_error_line(capsys.readouterr().err)
