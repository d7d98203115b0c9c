"""The benchmark under perfbench/ times the package by rebinding its entry
points by name. This checks, on a short traced run, that every name it
rebinds still exists and is still the one called, so renaming or inlining
one fails here rather than silently emptying a layer metric."""

from pathlib import Path

import numpy as np

import modnet
import modnet.outlier_oracle
from modnet.experiment import parse_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SPANS = ("experiment.run_one_chain", "mh.run_chain", "network.initialize",
         "smc.regenerate", "inverse.regenerate", "inverse.train",
         "traceio.writer", "traceio.accumulator", "traceio.write_summary")


def test_traced_run_reaches_every_benchmarked_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    cfg = parse_config({"network": "switch_hmm", "seed": 3, "chains": 1,
                        "iterations": 40, "particles": 4, "train_samples": 200})
    with tracing.traced(tracing.Tracer(), modnet) as tracer:
        modnet.experiment.run_experiment(cfg, tmp_path)
    spans = tracer.arrays()
    names = np.array(tracer.names)[spans["name"]]
    assert int((names == "mh.mh_update").sum()) == 40
    assert not set(SPANS) - set(names)
    # the training span's work is the InverseNetwork's n_train, which the
    # benchmark's samples-per-second reads
    assert spans["work"][names == "inverse.train"].tolist() == [cfg.train_samples]


def test_estimator_batch_sets_up_and_runs_a_unit(monkeypatch):
    # estimator_batch's set-up reads the exact inverse's factors and tables
    # and runs every estimator group; a break there shows here, not only as
    # a failed benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    work = workloads.EstimatorWorkload(modnet)
    groups, _spec, targets = work.setup(7)
    assert targets and all(len(row) >= 2 for _var, _key, row, _p in targets)
    result = work.unit(7, 0)
    assert result.iterations == work.calls_per_batch
    assert [g.error for g in groups] == [None] * len(groups)
    assert all(len(g.lws) == g.calls for g in groups)
    assert work.train_error is None and len(work.train_tables) == 1
    assert work.determinism(7) == (True, "ok")
