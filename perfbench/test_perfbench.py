"""Tests of the benchmark's own arithmetic. Nothing here measures time.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import speed
import tracing
from stats import Operations, geyer_ess, kish_ess, self_times
from workloads import ChainWorkload, UnitResult


def ar1(rho: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n) * math.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8, -0.3])
def test_geyer_ess_recovers_the_ar1_autocorrelation_time(rho):
    # tau = (1 + rho) / (1 - rho) for a stationary AR(1); within 10%.
    n = 200_000
    tau = (1.0 + rho) / (1.0 - rho)
    ess = geyer_ess(ar1(rho, n, seed=7))
    assert abs(n / ess - tau) <= 0.10 * tau


def test_geyer_ess_of_a_constant_series_is_one():
    assert geyer_ess(np.ones(500)) == 1.0


def test_kish_ess_counts_equal_weights_fully_and_one_dominant_weight_once():
    assert kish_ess(np.zeros(40)) == pytest.approx(40.0)
    assert kish_ess(np.array([0.0, -50.0, -50.0, -math.inf])) == pytest.approx(1.0)


def test_self_time_subtracts_direct_children_on_a_nested_tree():
    # root 0..100 holds 10..40 (which holds 15..25) and 50..90; a second
    # root covers 200..210.
    starts = np.array([0, 10, 15, 50, 200])
    ends = np.array([100, 40, 25, 90, 210])
    parents = np.array([-1, 0, 1, 0, -1])
    assert self_times(ends - starts, parents).tolist() == [30, 20, 10, 40, 10]


def test_tracer_links_a_call_to_the_span_that_caused_it():
    tr = tracing.Tracer()

    def inner():
        time.sleep(0.001)

    traced_inner = tr.wrap(inner, "smc.regenerate")

    def outer():
        traced_inner()
        traced_inner()

    tr.wrap(outer, "mh.mh_update", new_run=True)()
    a = tr.arrays()
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["run"].tolist() == [1, 1, 1]
    metrics = tracing.layer_metrics(tr)
    assert metrics["smc.regenerate_calls"] == 2
    assert metrics["mh.update_calls"] == 1
    total = (a["end"][0] - a["start"][0]) / 1e9
    assert metrics["mh.update_self_s"] + metrics["smc.self_s"] == pytest.approx(total)


def test_bracket_scales_by_the_reference_over_the_mean_kernel_time(monkeypatch):
    kernel = iter([2e-3, 4e-3])
    monkeypatch.setattr(speed, "kernel_s", lambda: next(kernel))
    result, scale = speed.bracket(lambda x: x + 1, 1)
    assert result == 2
    assert scale == pytest.approx(speed.REFERENCE_S / 3e-3)
    unit = UnitResult(wall_s=0.5, iterations=10, scale=scale)
    assert unit.scaled_s == pytest.approx(0.5 * speed.REFERENCE_S / 3e-3)


def test_ess_per_s_is_ess_per_iteration_at_the_median_rate():
    units = [UnitResult(1.0, 100, scale=0.5), UnitResult(1.0, 100, scale=1.0),
             UnitResult(2.0, 100, scale=1.0)]
    metrics, _ = run.end_to_end(units, ess=30.0, setups=[0.1, 0.3], rss=1.0)
    assert metrics["iters_per_s"] == pytest.approx(100.0)  # of 200, 100, 50
    assert metrics["ess_per_s"] == pytest.approx(30.0 / 300 * 100.0)
    assert metrics["run_s"] == pytest.approx(1.0)
    assert metrics["setup_s"] == pytest.approx(0.2)


def test_failed_frac_counts_a_raised_operation():
    ops = Operations()
    ops.run("fine", lambda: 1)
    ops.run("raises", lambda: 1 / 0)
    ops.record(False, "missed its oracle")
    assert (ops.attempted, ops.failed) == (3, 2)
    assert ops.failed_frac == pytest.approx(2 / 3)
    assert "ZeroDivisionError" in ops.reasons[0]


def test_a_raising_run_fails_every_chain_it_held():
    def boom(cfg, out_dir):
        raise RuntimeError("deliberate")

    fake = SimpleNamespace(experiment=SimpleNamespace(run_experiment=boom))
    wl = ChainWorkload("fake", fake, {"iterations": 10}, [], det_iterations=1)
    ops = Operations()
    cfg = SimpleNamespace(chains=3, iterations=10, seed=5)
    assert wl.unit(cfg, Path("never-written"), ops) is None
    assert (ops.attempted, ops.failed) == (3, 3)


def test_benchmark_json_names_what_run_py_reports():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
