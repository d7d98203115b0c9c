import hashlib
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


# sha256 of every file run_experiment writes for two chains of 200
# iterations at seed 2024 with each network's default settings. Speed work
# on the sweep, the inverse or the trace sinks must leave these unchanged; a
# change that alters RNG consumption or arithmetic on purpose re-pins them
# and says so. They assume numpy's PCG64 streams and IEEE doubles.
PINNED_DIGESTS = {
    "chain3": {
        "summary.json": "9387df05fde36b1a8eb2d4320170963fb32691ca6ba8aeef1db71c6371b42ac8",
        "trace_chain0.csv": "1d30095caf27959f08fb470eded4b75604a37b2176f6dd8bba3a87abab39b075",
        "trace_chain1.csv": "88a5413a8dd3a045f524bccb4e94c20dfa351339a2c05482827f71c81736dc66",
    },
    "outlier_regression": {
        "summary.json": "130eee142f0cb7c8532bff4a0eff6779d336db0768f735e2776192b8b8e44197",
        "trace_chain0.csv": "9ac14db7a35bd312d049fffc1d2ef12d28bc6be1791255c8b0a413dee8c83f6f",
        "trace_chain1.csv": "0ba2a3cbad7e655c92c4d2a1fa878a2bf4bda016e677a0ff7cc5eca7dda23772",
    },
    "switch_hmm": {
        "summary.json": "75999f63d729210c60b54ca6141f47069936b83cd24e08f7606268657280b139",
        "trace_chain0.csv": "d151e3deffaedc12b3ace1f1851061d226db722d695093b4bb7f860711ef3d15",
        "trace_chain1.csv": "156d3d6ca2a6aa408adc636270acbfdf3a7852a00a7040e507717b8c8e702180",
    },
}


@pytest.mark.parametrize("network", sorted(PINNED_DIGESTS))
def test_run_artifacts_match_pinned_digests(tmp_path, network):
    cfg = parse_config({"network": network, "seed": 2024, "chains": 2,
                        "iterations": 200})
    run_experiment(cfg, out_dir=tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == PINNED_DIGESTS[network]
