"""Spans around the package's layer boundaries, recorded from outside.

The package has no timing of its own, so the traced pass rebinds the public
functions of each layer to wrappers that record a span per call: a name, a
start and end in perf_counter nanoseconds, the index of the enclosing span,
and a run id shared by all spans under one chain. Spans stay in flat arrays
in memory and are written once, at the end of the run. Every rebinding is
undone when the `traced` context exits.

A function is rebound in the module where its caller looks it up: run_chain
finds mh_update in modnet.mh, run_one_chain finds run_chain,
build_configured_network and write_summary in modnet.experiment, and the
network builders find train_inverse in their own modules.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from array import array
from pathlib import Path

import numpy as np

from stats import self_times

LAYERS = ("smc", "inverse", "mh", "network", "traceio", "experiment")


class Tracer:
    """In-memory span store. work and value are per-span numbers a wrapper
    may fill in: particle steps and log Z-hat of a sweep, training samples,
    or whether an update hit -inf and was accepted."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.run = array("l")
        self.work = array("q")
        self.value = array("d")
        self._stack: list[int] = []
        self._runs = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, new_run: bool = False, note=None):
        """fn, recording one span per call. note(args, result) returns the
        span's (work, value)."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kw):
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            if new_run:
                self._runs += 1
                run = self._runs
            else:
                run = self.run[parent] if parent >= 0 else 0
            self.name.append(nid)
            self.parent.append(parent)
            self.run.append(run)
            self.work.append(0)
            self.value.append(0.0)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kw)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if note is not None:
                self.work[idx], self.value[idx] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int_).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
            "run": np.frombuffer(self.run, dtype=np.int_).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Spans as compressed columns plus the name table."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            **self.arrays())


def _sweep_note(args, result):
    module = args[0]
    return module.num_particles * module.model.num_steps, result[0]


def _train_note(args, result):
    return result.n_train, 0.0


def _update_note(args, result):
    return int(result.neg_inf_proposal), float(result.accepted)


@contextlib.contextmanager
def traced(tracer: Tracer, modnet):
    """Rebind every traced entry point of the package for the duration."""
    exp, mh, smc, inverse = (modnet.experiment, modnet.mh, modnet.smc,
                             modnet.inverse)
    points = [
        (exp, "run_experiment", "experiment.run_experiment", False, None),
        (exp, "run_one_chain", "experiment.run_one_chain", True, None),
        (exp, "run_chain", "mh.run_chain", False, None),
        (mh, "mh_update", "mh.mh_update", False, _update_note),
        (exp, "build_configured_network", "network.build_configured_network",
         False, None),
        (modnet.network.ModuleNetwork, "initialize", "network.initialize",
         False, None),
        (smc.SmcModule, "regenerate", "smc.regenerate", False, _sweep_note),
        (smc.SmcModule, "simulate", "smc.simulate", False, None),
        (inverse.InverseModule, "regenerate", "inverse.regenerate", False, None),
        (modnet.outlier_regression, "train_inverse", "inverse.train", False,
         _train_note),
        (modnet.reference_models, "train_inverse", "inverse.train", False,
         _train_note),
        (inverse, "train_inverse", "inverse.train", False, _train_note),
        (modnet.traceio.TraceWriter, "__call__", "traceio.writer", False, None),
        (modnet.traceio.TraceAccumulator, "__call__", "traceio.accumulator",
         False, None),
        (exp, "write_summary", "traceio.write_summary", False, None),
    ]
    saved = []
    try:
        for owner, attr, name, new_run, note in points:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, new_run, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, busy times and self times from the recorded spans.
    Busy time is the summed duration of a layer's spans; self time subtracts
    the time their child spans cover."""
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    dur = a["end"] - a["start"]
    own = self_times(dur, a["parent"])
    out: dict[str, float] = {}

    def sel(name):
        return a["name"] == ids.get(name, -1)

    def busy_s(name):
        return float(dur[sel(name)].sum()) / 1e9

    def us(name, q):
        d = dur[sel(name)]
        return float(np.percentile(d, q)) / 1e3 if d.size else 0.0

    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names] or [""],
                        dtype=object)[a["name"]]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(own[layer_of == layer].sum()) / 1e9

    regen = sel("smc.regenerate")
    out["smc.regenerate_calls"] = int(regen.sum())
    out["smc.regenerate_s"] = busy_s("smc.regenerate")
    out["smc.regenerate_us_p50"] = us("smc.regenerate", 50)
    out["smc.regenerate_us_p99"] = us("smc.regenerate", 99)
    steps = int(a["work"][regen].sum())
    out["smc.particle_steps"] = steps
    out["smc.particle_steps_per_s"] = (steps / out["smc.regenerate_s"]
                                       if out["smc.regenerate_s"] else 0.0)
    out["smc.simulate_calls"] = int(sel("smc.simulate").sum())
    out["smc.simulate_s"] = busy_s("smc.simulate")
    dead = int(np.sum(a["value"][regen] == -math.inf))
    out["smc.dead_frac"] = dead / out["smc.regenerate_calls"] if regen.any() else 0.0

    out["inverse.regenerate_calls"] = int(sel("inverse.regenerate").sum())
    out["inverse.regenerate_s"] = busy_s("inverse.regenerate")
    out["inverse.regenerate_us_p50"] = us("inverse.regenerate", 50)
    train = sel("inverse.train")
    out["inverse.train_calls"] = int(train.sum())
    out["inverse.train_s"] = busy_s("inverse.train")
    samples = int(a["work"][train].sum())
    out["inverse.train_samples_per_s"] = (samples / out["inverse.train_s"]
                                          if out["inverse.train_s"] else 0.0)

    upd = sel("mh.mh_update")
    out["mh.update_calls"] = int(upd.sum())
    out["mh.update_s"] = busy_s("mh.mh_update")
    out["mh.update_self_s"] = float(own[upd].sum()) / 1e9
    out["mh.update_us_p50"] = us("mh.mh_update", 50)
    out["mh.update_us_p99"] = us("mh.mh_update", 99)
    n_upd = out["mh.update_calls"]
    out["mh.accept_rate"] = float(a["value"][upd].sum()) / n_upd if n_upd else 0.0
    out["mh.neg_inf_frac"] = float(a["work"][upd].sum()) / n_upd if n_upd else 0.0

    out["network.build_s"] = busy_s("network.build_configured_network")
    out["network.initialize_s"] = busy_s("network.initialize")
    out["network.initialize_calls"] = int(sel("network.initialize").sum())

    out["traceio.writer_rows"] = int(sel("traceio.writer").sum())
    out["traceio.writer_s"] = busy_s("traceio.writer")
    out["traceio.accumulator_s"] = busy_s("traceio.accumulator")
    out["traceio.summary_s"] = busy_s("traceio.write_summary")
    return out


def chain_busy(tracer: Tracer) -> list[list[float]]:
    """Busy seconds of each chain, grouped by the run_experiment call that
    ran it."""
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    if "experiment.run_one_chain" not in ids:
        return []
    dur = (a["end"] - a["start"]) / 1e9
    calls: dict[int, list[float]] = {}
    for i in np.flatnonzero(a["name"] == ids["experiment.run_one_chain"]):
        calls.setdefault(int(a["parent"][i]), []).append(float(dur[i]))
    return list(calls.values())
