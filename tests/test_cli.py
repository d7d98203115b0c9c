import json
import subprocess
import sys
from pathlib import Path

import pytest

from modnet import cli
from modnet.cli import main
from modnet.interface import SchemaError

FIXTURES = Path(__file__).parent / "fixtures" / "oracle_fixtures.json"


def _validate_config(tmp_path, **fields):
    doc = {"fixtures": str(FIXTURES), "iterations": 50, "chains": 1}
    doc.update(fields)
    path = tmp_path / "validate.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- oracle ---------------------------------------------------------------------

def test_oracle_reproduces_the_checked_in_fixtures(tmp_path, capsys):
    assert main(["oracle", "--out", str(tmp_path)]) == 0
    out = tmp_path / "oracle_fixtures.json"
    assert out.read_bytes() == FIXTURES.read_bytes()
    assert "wrote" in capsys.readouterr().out
    first = out.read_bytes()
    assert main(["oracle", "--out", str(tmp_path)]) == 0
    assert out.read_bytes() == first


def test_oracle_takes_no_config(tmp_path, capsys):
    cfg = tmp_path / "oracle.json"
    cfg.write_text(json.dumps({"models": ["switch_prior"]}))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "oracle_fixtures.json").exists()


# -- infer ----------------------------------------------------------------------

INFER_FLAGS = ["--iters", "25", "--chains", "1", "--seed", "5",
               "--particles", "5", "--train-samples", "50"]


def test_infer_runs_the_packaged_demo(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["infer", *INFER_FLAGS, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "site A:" in text
    assert "P(A=0)=" in text and "P(A=1)=" in text
    assert "acceptance" in text
    assert f"wrote trace_chain0.csv summary.json in {out}" in text
    assert (out / "trace_chain0.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["csv_schema_version"] == 1


def test_infer_is_deterministic_across_invocations(tmp_path, capsys):
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["infer", *INFER_FLAGS, "--out", str(out)]) == 0
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_infer_accepts_a_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"network": "chain3", "seed": 2,
                               "iterations": 40}))
    out = tmp_path / "chain3_runs"
    assert main(["infer", "--config", str(cfg), "--iters", "15",
                 "--out", str(out)]) == 0
    rows = (out / "trace_chain0.csv").read_text().splitlines()
    assert len(rows) == 16
    assert rows[0] == "iteration,z_X1,z_X2,lw_X1,lw_X2,lw_X3,total_lw,accepted"
    capsys.readouterr()


def test_infer_config_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["infer", "--config", str(bad)]) == 2
    assert "invalid JSON at line 1" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"network": "chain3", "seed": 1,
                                   "mystery": 2}))
    assert main(["infer", "--config", str(unknown)]) == 2
    assert "unknown config field" in capsys.readouterr().err


@pytest.mark.parametrize("network,proposal,why", [
    ("chain3", {"site": "X1", "port": "z", "kind": "flip", "sigmaa": 3},
     "field 'proposals[0]': unknown key 'sigmaa' for kind 'flip'"),
    ("outlier_regression",
     {"site": "A", "port": "a", "kind": "gaussian_walk", "sigma": -1},
     "field 'proposals[0]': 'sigma' must be a finite number > 0, got -1"),
    # only the built network knows its ports, so this one is refused after
    # the build but still before any file is written
    ("chain3", {"site": "X1", "port": "q", "kind": "flip"},
     "proposal at site 'X1': node 1 has no output port 'q'"),
    ("switch_hmm", {"site": "A", "kind": "gaussian_walk"},
     "proposal at site 'A': kind 'gaussian_walk' acts on real values, "
     "port 'a' holds discrete"),
], ids=["unknown-key", "negative-sigma", "unknown-port", "kind-mismatch"])
def test_infer_bad_proposal_exits_two(tmp_path, capsys, network, proposal, why):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"network": network, "seed": 1, "iterations": 5,
                               "train_samples": 0, "proposals": [proposal]}))
    out = tmp_path / "runs"
    assert main(["infer", "--config", str(cfg), "--out", str(out)]) == 2
    assert why in capsys.readouterr().err
    assert not out.exists()  # refused before any chain ran


def test_infer_off_support_proposal_is_a_rejection(tmp_path, capsys):
    # X1 = 2 has no row in X2's table: every such move scores -inf and is
    # rejected, and the run completes
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "network": "chain3", "seed": 3, "iterations": 200,
        "proposals": [{"site": "X1", "port": "z", "kind": "discrete_uniform",
                       "domain": [0, 1, 2]}]}))
    out = tmp_path / "runs"
    assert main(["infer", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    combined = summary["combined"]
    assert combined["neg_inf_proposals"] > 0
    assert set(combined["value_counts"]["X1"]) <= {"0", "1"}
    capsys.readouterr()


# -- validate ----------------------------------------------------------------------

def test_reduced_validate_passes_and_skips(tmp_path, capsys):
    cfg = _validate_config(tmp_path)
    assert main(["validate", "--config", cfg]) == 0
    text = capsys.readouterr().out
    lines = [l for l in text.splitlines() if l]
    assert lines[-1] == "3 passed, 0 failed, 6 skipped"
    assert sum(1 for l in lines if "PASS" in l) == 3
    assert sum(1 for l in lines if "SKIPPED" in l) == 6
    assert "FAIL" not in text


def test_reduced_validate_keeps_no_artifacts_and_help_says_so(tmp_path, capsys):
    out = tmp_path / "kept"
    assert main(["validate", "--config", _validate_config(tmp_path),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.is_dir() and list(out.iterdir()) == []
    with pytest.raises(SystemExit):
        main(["validate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "artifacts of a full-budget run" in text
    assert "a reduced run writes none there" in text


def test_validate_flags_override_config(tmp_path, capsys):
    cfg = _validate_config(tmp_path, iterations=1)
    assert main(["validate", "--config", cfg, "--iters", "60",
                 "--chains", "1"]) == 0
    assert "skipped" in capsys.readouterr().out


def test_validate_uses_the_default_fixtures_path(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)
    assert main(["validate", "--iters", "50", "--chains", "1"]) == 0
    capsys.readouterr()


def test_tampered_fixtures_fail_validation(tmp_path, capsys):
    doc = json.loads(FIXTURES.read_text())
    doc["posterior_switch_one"] += 1e-3
    tampered = tmp_path / "oracle_fixtures.json"
    tampered.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    cfg = _validate_config(tmp_path, fixtures=str(tampered))
    assert main(["validate", "--config", cfg]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert "drift" in text
    assert ", 1 failed," in text


def test_validate_config_errors_exit_two(tmp_path, capsys):
    missing = _validate_config(tmp_path, fixtures=str(tmp_path / "nope.json"))
    assert main(["validate", "--config", missing]) == 2
    err = capsys.readouterr().err
    assert "not found" in err and "modnet oracle" in err

    unknown = tmp_path / "v.json"
    unknown.write_text(json.dumps({"fixtures": str(FIXTURES), "extra": 1}))
    assert main(["validate", "--config", str(unknown)]) == 2
    assert "unknown validate config" in capsys.readouterr().err

    assert main(["validate", "--config", _validate_config(tmp_path),
                 "--iters", "0"]) == 2
    assert "iterations" in capsys.readouterr().err

    for key, bad in (("fixtures", 5), ("out", 7)):
        assert main(["validate", "--config",
                     _validate_config(tmp_path, **{key: bad})]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be a path string")

    empty = tmp_path / "empty_fixtures.json"
    empty.write_text("{}")
    assert main(["validate", "--config",
                 _validate_config(tmp_path, fixtures=str(empty))]) == 2
    err = capsys.readouterr().err
    for key in ("switch_marginal", "log_evidence_by_switch", "posterior_switch_one"):
        assert key in err

    # the three keys present, each with a wrong type or value
    good = json.loads(FIXTURES.read_text())
    for key, bad in (("switch_marginal", 1), ("switch_marginal", {"0": 0.5}),
                     ("log_evidence_by_switch", {"0": -1.0, "1": "x"}),
                     ("log_evidence_by_switch", [1, 2]),
                     ("posterior_switch_one", "0.97"),
                     ("posterior_switch_one", None),
                     ("posterior_switch_one", float("nan"))):
        typed = tmp_path / "typed_fixtures.json"
        typed.write_text(json.dumps({**good, key: bad}))
        assert main(["validate", "--config",
                     _validate_config(tmp_path, fixtures=str(typed))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and repr(key) in err
    typed.write_text(json.dumps({"switch_marginal": 1, "log_evidence_by_switch": 1,
                                 "posterior_switch_one": 1}))
    assert main(["validate", "--config",
                 _validate_config(tmp_path, fixtures=str(typed))]) == 2
    assert "'switch_marginal'" in capsys.readouterr().err


# -- output directories --------------------------------------------------------------

@pytest.mark.parametrize("command,out", [
    ("oracle", "F"), ("infer", "F/x"), ("validate", "F/x"),
])
def test_unusable_out_is_a_config_error(tmp_path, capsys, command, out):
    flags = {"oracle": [], "infer": INFER_FLAGS,
             "validate": ["--config", _validate_config(tmp_path)]}[command]
    (tmp_path / "F").write_text("a file, not a directory\n")
    before = sorted(tmp_path.rglob("*"))
    assert main([command, *flags, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: output directory {tmp_path / out}: ")
    assert sorted(tmp_path.rglob("*")) == before


# -- environment and plumbing ---------------------------------------------------------

def test_package_errors_exit_three_with_one_line(tmp_path, capsys, monkeypatch):
    def refuse(cfg, out_dir=None):
        raise SchemaError("node 1: output ports ['q'] != declared ['z']")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    assert main(["infer", *INFER_FLAGS, "--out", str(tmp_path / "runs")]) == 3
    err = capsys.readouterr().err
    assert err == ("error: SchemaError: node 1: output ports ['q'] "
                   "!= declared ['z']\n")


def test_bad_log_level_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODNET_LOG", "banana")
    assert main(["oracle", "--out", str(tmp_path)]) == 2
    assert "MODNET_LOG" in capsys.readouterr().err
    monkeypatch.setenv("MODNET_LOG", "debug")
    assert main(["oracle", "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "modnet.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for word in ("infer", "oracle", "validate"):
        assert word in proc.stdout


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
