import json

import pytest

from modnet.experiment import (
    ConfigError,
    ExperimentConfig,
    NETWORKS,
    load_config,
    parse_config,
    posterior_rate,
    read_config_document,
    run_experiment,
    run_one_chain,
)
from modnet.oracle import posterior
from modnet.reference_models import chain3_oracle


def _chain3_doc(**kw):
    doc = {"network": "chain3", "seed": 11, "chains": 2, "iterations": 60}
    doc.update(kw)
    return doc


# -- config parsing --------------------------------------------------------------

def test_defaults_and_frozen_proposals():
    cfg = parse_config({"network": "chain3", "seed": 5})
    assert cfg.chains == 1
    assert cfg.iterations == 1000
    assert cfg.particles == 30
    assert cfg.train_samples == 100_000
    assert cfg.workers == 1
    assert cfg.scan == "random"
    assert cfg.out is None
    assert cfg.proposals == (
        (("kind", "flip"), ("port", "z"), ("site", "X1")),
        (("kind", "flip"), ("port", "z"), ("site", "X2")),
    )
    assert "chain3" in NETWORKS


@pytest.mark.parametrize("doc,why", [
    ([1, 2], "config root"),
    ({"network": "chain3", "seed": 1, "colour": "red"}, "unknown config field"),
    ({"network": "mystery", "seed": 1}, "field 'network'"),
    ({"network": "chain3"}, "field 'seed'"),
    ({"network": "chain3", "seed": None}, "field 'seed'"),
    ({"network": "chain3", "seed": True}, "field 'seed'"),
    ({"network": "chain3", "seed": -1}, "field 'seed'"),
    ({"network": "chain3", "seed": 2**64}, "field 'seed'"),
    ({"network": "chain3", "seed": 1, "chains": 0}, "field 'chains'"),
    ({"network": "chain3", "seed": 1, "iterations": "many"},
     "field 'iterations'"),
    ({"network": "chain3", "seed": 1, "train_samples": -1},
     "field 'train_samples'"),
    ({"network": "chain3", "seed": 1, "train_samples": True},
     "field 'train_samples'"),
    ({"network": "chain3", "seed": 1, "scan": "sweep"}, "field 'scan'"),
    ({"network": "chain3", "seed": 1, "proposals": []}, "field 'proposals'"),
    ({"network": "chain3", "seed": 1, "proposals": [{"site": "X1"}]},
     "needs 'site' and 'kind'"),
    ({"network": "chain3", "seed": 1, "proposals": [7]}, "must be an object"),
    ({"network": "chain3", "seed": 1, "out": 4}, "field 'out'"),
    ({"network": "chain3", "seed": 1, "proposals": [{"site": "X1", "kind": "hop"}]},
     r"proposals\[0\]': unknown proposal kind 'hop'"),
    ({"network": "chain3", "seed": 1,
      "proposals": [{"site": "X1", "kind": "discrete_uniform", "domain": []}]},
     r"proposals\[0\]': 'domain' must be"),
    ({"network": "chain3", "seed": 1,
      "proposals": [{"site": "X1", "kind": "discrete_uniform", "domain": [0, 0]}]},
     r"proposals\[0\]': 'domain' must be"),
    ({"network": "chain3", "seed": 1,
      "proposals": [{"site": "X1", "kind": "discrete_uniform", "domain": [0, 0.5]}]},
     r"proposals\[0\]': 'domain' must be"),
    ({"network": "chain3", "seed": 1,
      "proposals": [{"site": "X1", "kind": "flip"},
                    {"site": "X2", "kind": "gaussian_walk", "sigma": 0}]},
     r"proposals\[1\]': 'sigma' must be"),
])
def test_bad_configs_are_named(doc, why):
    with pytest.raises(ConfigError, match=why):
        parse_config(doc)


def test_replace_revalidates():
    cfg = parse_config({"network": "chain3", "seed": 5})
    assert cfg.replace(iterations=9).iterations == 9
    with pytest.raises(ConfigError):
        cfg.replace(iterations=0)


def test_config_files_report_positions(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_chain3_doc(iterations=50)))
    assert load_config(good).iterations == 50
    assert load_config(good, {"iterations": 7}).iterations == 7

    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "network": "chain3",\n  seed: 1\n}\n')
    with pytest.raises(ConfigError, match=r"line 3 column 3"):
        read_config_document(bad)
    with pytest.raises(ConfigError, match="No such file"):
        read_config_document(tmp_path / "missing.json")
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="config root"):
        load_config(listy, {"iterations": 7})


# -- runs ------------------------------------------------------------------------

def test_run_writes_deterministic_artifacts(tmp_path):
    cfg = parse_config(_chain3_doc())
    outs = {}
    for name in ("one", "two"):
        out = tmp_path / name
        doc = run_experiment(cfg, out_dir=out)
        assert (out / "summary.json").exists()
        assert json.loads((out / "summary.json").read_text()) == doc
        outs[name] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    assert outs["one"] == outs["two"]
    assert set(outs["one"]) == {"trace_chain0.csv", "trace_chain1.csv",
                                "summary.json"}
    n_rows = outs["one"]["trace_chain0.csv"].decode().strip().count("\n")
    assert n_rows == cfg.iterations  # header plus one row per iteration


def test_chains_use_split_seed_streams(tmp_path):
    cfg = parse_config(_chain3_doc())
    run_experiment(cfg, out_dir=tmp_path)
    a = (tmp_path / "trace_chain0.csv").read_bytes()
    b = (tmp_path / "trace_chain1.csv").read_bytes()
    assert a != b
    # and a lone chain reproduces its slot in the pair
    acc = run_one_chain(cfg, 1, None)
    doc = run_experiment(cfg)
    assert acc.to_jsonable() == doc["chains"][1]


def test_worker_count_cannot_change_results(tmp_path):
    serial = run_experiment(parse_config(_chain3_doc(workers=1)),
                            out_dir=tmp_path / "serial")
    pooled = run_experiment(parse_config(_chain3_doc(workers=2)),
                            out_dir=tmp_path / "pooled")
    assert serial == pooled
    for name in ("trace_chain0.csv", "trace_chain1.csv"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "pooled" / name).read_bytes())


def test_summary_recovers_the_reference_posterior():
    cfg = parse_config({"network": "chain3", "seed": 77, "chains": 2,
                        "iterations": 6000})
    doc = run_experiment(cfg)
    post = posterior(chain3_oracle(), {"x3": 1}, ("x1",))
    assert posterior_rate(doc, "X1", 1) == pytest.approx(post[(1,)], abs=0.04)
    assert posterior_rate(doc, "X1", 1) == doc["combined"]["value_rates"]["X1"]["1"]
    assert posterior_rate(doc, "nonexistent", 1) == 0.0
    assert posterior_rate(doc, "X1", 9) == 0.0


def test_other_builtin_networks_run_end_to_end(tmp_path):
    # train_samples 0 exercises the exact-inverse path end to end
    for network, site, train in (("outlier_regression", "A", 300),
                                 ("switch_hmm", "A", 0)):
        cfg = parse_config({
            "network": network, "seed": 3, "iterations": 30,
            "particles": 5, "train_samples": train,
        })
        assert cfg.train_samples == train
        doc = run_experiment(cfg, out_dir=tmp_path / network)
        rates = doc["combined"]["value_rates"][site]
        assert sum(rates.values()) == pytest.approx(1.0, abs=1e-9)
        header = (tmp_path / network / "trace_chain0.csv").read_text().splitlines()[0]
        assert header.startswith("iteration,a,")
        assert header.endswith("total_lw,accepted")
