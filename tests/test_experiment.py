import hashlib
import json
import math

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
from modnet.mh import discrete_uniform_proposal, gaussian_walk_proposal
from modnet.oracle import posterior
from modnet.reference_models import chain3_oracle
from modnet.traceio import TraceAccumulator


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
    # no scan field: the chain has one scan policy
    ({"network": "chain3", "seed": 1, "scan": "random"}, "field 'scan'"),
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


@pytest.mark.parametrize("key,value", [
    ("sigma", math.nan), ("sigma", math.inf), ("sigma", True),
    ("domain", [True, 0]), ("domain", [0, 2.7]), ("domain", ["1"]),
])
def test_config_and_constructor_refuse_a_setting_alike(key, value):
    # one check per setting: the constructor's own, which parse_config
    # reuses for its per-key message
    kind, make = {"sigma": ("gaussian_walk", gaussian_walk_proposal),
                  "domain": ("discrete_uniform", discrete_uniform_proposal)}[key]
    with pytest.raises(ValueError) as built:
        make(1, value)
    with pytest.raises(ConfigError) as parsed:
        parse_config({"network": "chain3", "seed": 1,
                      "proposals": [{"site": "X1", "kind": kind, key: value}]})
    assert str(parsed.value) == f"field 'proposals[0]': {built.value}, got {value!r}"


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


def test_interrupted_rerun_leaves_no_finished_looking_run(tmp_path, monkeypatch):
    cfg = parse_config(_chain3_doc())
    run_experiment(cfg, out_dir=tmp_path)

    class Interrupted(Exception):
        pass

    calls = []
    record = TraceAccumulator.__call__

    def interrupted(self, rec):
        # chain 0 runs whole, chain 1 stops halfway
        calls.append(rec.iteration)
        if len(calls) > cfg.iterations + cfg.iterations // 2:
            raise Interrupted
        record(self, rec)

    monkeypatch.setattr(TraceAccumulator, "__call__", interrupted)
    with pytest.raises(Interrupted):
        run_experiment(cfg.replace(seed=cfg.seed + 1), out_dir=tmp_path)
    assert not (tmp_path / "summary.json").exists()
    assert not list(tmp_path.glob("*.partial"))
    traces = sorted(p.name for p in tmp_path.glob("trace_chain*.csv"))
    assert traces == ["trace_chain0.csv", "trace_chain1.csv"]
    for name in traces:
        text = (tmp_path / name).read_text()
        assert text.count("\n") == 1 + cfg.iterations


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
        "summary.json": "9b0be3fcda638c5bf1366b09a00b8f03bb789434b8c09fbc8265fc3046af055a",
        "trace_chain0.csv": "70e0269ad84cd043af4ebdcc0143a5cdb6cbe3beb4d13cf57b744938b4368123",
        "trace_chain1.csv": "56f575ac94c9e57fa15614c72ec31ebca49e372ad610c034683b7d0da82ccf81",
    },
    "outlier_regression": {
        "summary.json": "ea5644b643521cef99a7105d03684f93abee84e1a7b3e412b6387e2a7aa5d338",
        "trace_chain0.csv": "009e98679ee44e2e656ea96a8af61f7f953b18d998be526b7d010148c84ee4da",
        "trace_chain1.csv": "00f6cfbc3e660f0c693abcc9f23c24127fec3ebdeb3300ca0b956e8c115fac1c",
    },
    "switch_hmm": {
        "summary.json": "f4f9511025ff5bea9745eb13c0f1cb5c4162e9ca64524392b6f59d913c30e8cc",
        "trace_chain0.csv": "d80118c0698b1f8706b4583c38d2c95c917a1e6ddd4ca15bd396e0d37ae9f588",
        "trace_chain1.csv": "b5807794d9944385b8c71aaf8e7c7592776424107ae21b8d9c8fc91fd2696915",
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


def test_shorter_run_writes_the_first_rows_of_a_longer_one(tmp_path):
    # chain3 has two sites, so its runs cross scan blocks at 1024 and 2048
    traces = {}
    for n in (200, 1025, 2500):
        cfg = parse_config({"network": "chain3", "seed": 9, "chains": 1,
                            "iterations": n})
        run_experiment(cfg, out_dir=tmp_path / str(n))
        traces[n] = (tmp_path / str(n) / "trace_chain0.csv").read_text().splitlines()
    for n in (200, 1025):
        assert traces[n] == traces[2500][:n + 1]
