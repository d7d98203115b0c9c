"""Config-driven chain runs: the engine behind the command line.

A config names a builtin network, how many chains to run, per-site proposal
settings, and a master seed. Chain i always runs from the generator seeded
with derive_seed(master, i): network construction (including any inverse
training), initialization, and the chain itself all draw from that one
stream, so results depend only on (config, master seed, i) and never on how
chains are scheduled across workers. Each chain writes trace_chain<i>.csv;
a single summary.json, written after every chain has finished, marks a run done.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .interface import SchemaError, check_domain
from .mh import (SiteProposal, check_sigma, discrete_uniform_proposal, flip_proposal,
                 gaussian_walk_proposal, resolve_port, run_chain)
from .network import ModuleNetwork
from .outlier_regression import build_outlier_network
from .reference_models import chain3_network, switch_hmm_network
from .seeds import derive_seed
from .traceio import TraceAccumulator, TraceWriter, summary_document, write_summary
from .values import DISCRETE, REAL


class ConfigError(Exception):
    """Invalid experiment config; message names the offending field."""


_SWITCH_A = {"site": "A", "port": "a", "kind": "discrete_uniform", "domain": [0, 1]}

# network name -> (builder(cfg, rng), default proposals)
NETWORKS = {
    "outlier_regression": (
        lambda cfg, rng: build_outlier_network(cfg.particles, cfg.train_samples, rng),
        [_SWITCH_A]),
    "chain3": (
        lambda cfg, rng: chain3_network(),
        [{"site": "X1", "port": "z", "kind": "flip"},
         {"site": "X2", "port": "z", "kind": "flip"}]),
    "switch_hmm": (
        lambda cfg, rng: switch_hmm_network(cfg.particles, cfg.train_samples, rng),
        [_SWITCH_A]),
}


# proposal kind -> (constructor, value kind it acts on, {setting: (default,
# the constructor's own check)}); every kind also takes 'site' and an
# optional 'port'
PROPOSAL_KINDS = {
    "flip": (flip_proposal, DISCRETE, {}),
    "discrete_uniform": (discrete_uniform_proposal, DISCRETE,
                         {"domain": ((0, 1), check_domain)}),
    "gaussian_walk": (gaussian_walk_proposal, REAL, {"sigma": (1.0, check_sigma)}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    network: str
    seed: int
    chains: int = 1
    iterations: int = 1000
    particles: int = 30
    train_samples: int = 100_000
    workers: int = 1
    proposals: tuple = ()
    out: str | None = None

    def replace(self, **kw) -> "ExperimentConfig":
        d = asdict(self)
        d.update(kw)
        return parse_config(d)


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")

    network = doc.get("network")
    if network not in NETWORKS:
        raise ConfigError(
            f"field 'network': expected one of {list(NETWORKS)}, got {network!r}")

    if "seed" not in doc or doc["seed"] is None:
        raise ConfigError("field 'seed': required; refusing to seed from the clock")
    seed = doc["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError("field 'seed': must be an integer in [0, 2^64)")

    def count(name: str, default: int) -> int:
        v = doc.get(name, default)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ConfigError(f"field {name!r}: must be an integer >= 1")
        return v

    train_samples = doc.get("train_samples", 100_000)
    if (not isinstance(train_samples, int) or isinstance(train_samples, bool)
            or train_samples < 0):
        raise ConfigError(
            "field 'train_samples': must be an integer >= 0 (0 = exact tables)")

    proposals = doc.get("proposals")
    if proposals is None:
        proposals = NETWORKS[network][1]
    if not isinstance(proposals, (list, tuple)) or not proposals:
        raise ConfigError("field 'proposals': must be a non-empty list")
    frozen = []
    for k, p in enumerate(proposals):
        where = f"field 'proposals[{k}]'"
        try:
            p = dict(p)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: must be an object")
        if "site" not in p or "kind" not in p:
            raise ConfigError(f"{where}: needs 'site' and 'kind'")
        if p["kind"] not in PROPOSAL_KINDS:
            raise ConfigError(f"{where}: unknown proposal kind {p['kind']!r}; "
                              f"expected one of {list(PROPOSAL_KINDS)}")
        settings = PROPOSAL_KINDS[p["kind"]][2]
        for key, v in p.items():
            if key in settings:
                try:
                    settings[key][1](v)
                except ValueError as e:
                    raise ConfigError(f"{where}: {e}, got {v!r}")
            elif key not in ("site", "kind", "port"):
                raise ConfigError(
                    f"{where}: unknown key {key!r} for kind {p['kind']!r}")
            if isinstance(v, list):
                p[key] = tuple(v)
        frozen.append(tuple(sorted(p.items())))

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("field 'out': must be a path string")

    return ExperimentConfig(
        network=network,
        seed=seed,
        chains=count("chains", 1),
        iterations=count("iterations", 1000),
        particles=count("particles", 30),
        train_samples=train_samples,
        workers=count("workers", 1),
        proposals=tuple(frozen),
        out=out,
    )


def read_config_document(path):
    """JSON body of a config file; bad JSON reports line and column."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        )
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}")


def load_config(path, overrides: Mapping | None = None) -> ExperimentConfig:
    """Parse a config file, with overrides (e.g. command-line flags) applied
    on top of the file's fields before validation."""
    doc = read_config_document(path)
    if overrides and isinstance(doc, dict):
        doc = {**doc, **overrides}
    return parse_config(doc)


def build_configured_network(cfg: ExperimentConfig, rng) -> ModuleNetwork:
    return NETWORKS[cfg.network][0](cfg, rng)


def build_proposal(net: ModuleNetwork, spec: tuple) -> SiteProposal:
    """The proposal a config entry describes, checked against the initialized
    network: the site must exist, have the port, and hold the value kind the
    proposal acts on. The returned proposal names its resolved port."""
    p = dict(spec)
    try:
        site = net.id_of(p["site"])
    except KeyError:
        raise ConfigError(f"proposal site {p['site']!r} is not a node name")
    make, value_kind, settings = PROPOSAL_KINDS[p["kind"]]
    kw = {k: p.get(k, default) for k, (default, _) in settings.items()}
    proposal = make(site, port=p.get("port"), **kw)
    try:
        port = resolve_port(net, proposal)
    except SchemaError as e:
        raise ConfigError(f"proposal at site {p['site']!r}: {e}")
    held = net.outputs_of(site)[port].kind
    if held != value_kind:
        raise ConfigError(f"proposal at site {p['site']!r}: kind {p['kind']!r} "
                          f"acts on {value_kind} values, port {port!r} holds {held}")
    return replace(proposal, port=port)


def make_out_dir(path) -> Path:
    """path as a directory, created with its parents if missing. A path that
    cannot be one (it or an ancestor is a file) is a configuration error."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"output directory {path}: {e.strerror or e}")
    return path


def run_one_chain(cfg: ExperimentConfig, index: int,
                  out_dir: Path | None) -> TraceAccumulator:
    rng = np.random.default_rng(derive_seed(cfg.seed, index))
    net = build_configured_network(cfg, rng)
    net.initialize(rng)
    schedule = [build_proposal(net, p) for p in cfg.proposals]
    site_ports = {p.target: p.port for p in schedule}
    acc = TraceAccumulator({i: net.name_of(i) for i in net.node_ids()},
                           tuple(site_ports))

    if out_dir is None:
        run_chain(net, schedule, cfg.iterations, rng, sink=acc)
        return acc

    # created only once the proposals fit the network, so a refused config
    # touches nothing; an old summary must not vouch for this run's traces
    out_dir = make_out_dir(out_dir)
    (out_dir / "summary.json").unlink(missing_ok=True)
    path = out_dir / f"trace_chain{index}.csv"
    with TraceWriter(path, net, site_ports) as writer:
        def sink(rec):
            writer(rec)
            acc(rec)
        run_chain(net, schedule, cfg.iterations, rng, sink=sink)
    return acc


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run all chains and return the summary document. When out_dir is set,
    also write trace_chain<i>.csv per chain plus summary.json."""
    if out_dir is not None:
        out_dir = Path(out_dir)

    if cfg.workers > 1 and cfg.chains > 1:
        n = cfg.chains
        with ProcessPoolExecutor(max_workers=min(cfg.workers, n)) as pool:
            accs = list(pool.map(run_one_chain, [cfg] * n, range(n), [out_dir] * n))
    else:
        accs = [run_one_chain(cfg, i, out_dir) for i in range(cfg.chains)]

    doc = summary_document(accs)
    if out_dir is not None:
        write_summary(out_dir / "summary.json", doc)
    return doc


def posterior_rate(summary: dict, site_name: str, value) -> float:
    """P-hat of a site value from a summary document's combined section."""
    rates = summary["combined"]["value_rates"].get(site_name, {})
    return rates.get(str(value), 0.0)
