"""Robust-regression demo network: a switch prior feeding an outlier model.

Two modules. Node A is a three-stage binary chain whose final output `a`
selects how contaminated the data is; it runs backward through a learned (or
exact) stochastic inverse. Node B observes the response vector `b` of a
linear regression where each point is an inlier or an outlier; the line is
integrated out in closed form, the per-point indicators are marginalized by
a particle sweep, and the sweep's log Z-hat is the module log-weight.

All constants, and the frozen dataset the tests and demos condition on, live
in configs/outlier_regression.json.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from typing import NamedTuple

from .interface import ProbModule, SchemaError
from .inverse import (DiscreteModelSpec, InverseModule, VariableSpec,
                      exact_inverse, train_inverse)
from .network import EdgeSpec, ModuleNetwork, NodeSpec, build_network
from .smc import SequentialModel, SmcModule
from .values import real_vector

_LOG_2PI = math.log(2.0 * math.pi)


def load_constants() -> dict:
    text = resources.files("modnet").joinpath("configs/outlier_regression.json").read_text()
    return json.loads(text)


# -- conjugate line posterior -------------------------------------------------


class ConjugateLineState(NamedTuple):
    """Gaussian posterior over (intercept, slope) after some observations.

    Plain scalar recursion; s00/s01/s11 are the covariance entries. Each
    update conditions on one point (x, b) with known noise level sigma and
    returns the new state, so histories can be replayed exactly.
    """

    m0: float
    m1: float
    s00: float
    s01: float
    s11: float

    def predictive(self, x: float, sigma: float) -> tuple[float, float]:
        """Mean and variance of b at covariate x under this posterior."""
        v0 = self.s00 + x * self.s01
        v1 = self.s01 + x * self.s11
        return self.m0 + self.m1 * x, sigma * sigma + v0 + x * v1

    def condition(self, x: float, b: float,
                  sigma: float) -> tuple[float, "ConjugateLineState"]:
        """The log predictive density of b at x and the posterior after
        observing it, both from one shared predictive."""
        m0, m1, s00, s01, s11 = self
        v0 = s00 + x * s01
        v1 = s01 + x * s11
        var = sigma * sigma + v0 + x * v1
        r = b - (m0 + m1 * x)
        return (-0.5 * (_LOG_2PI + math.log(var) + r * r / var),
                ConjugateLineState(m0 + v0 / var * r, m1 + v1 / var * r,
                                   s00 - v0 * v0 / var, s01 - v0 * v1 / var,
                                   s11 - v1 * v1 / var))

    def log_predictive(self, x: float, b: float, sigma: float) -> float:
        return self.condition(x, b, sigma)[0]

    def update(self, x: float, b: float, sigma: float) -> "ConjugateLineState":
        return self.condition(x, b, sigma)[1]

    def sample_line(self, rng) -> tuple[float, float]:
        """Draw (intercept, slope); lower-triangular square root by hand."""
        l00 = math.sqrt(max(self.s00, 0.0))
        l10 = self.s01 / l00 if l00 > 0.0 else 0.0
        l11 = math.sqrt(max(self.s11 - l10 * l10, 0.0))
        z0 = rng.standard_normal()
        z1 = rng.standard_normal()
        return self.m0 + l00 * z0, self.m1 + l10 * z0 + l11 * z1


def prior_line_state(doc: dict | None = None) -> ConjugateLineState:
    reg = (doc or load_constants())["regression"]
    pm, pv = reg["prior_mean"], reg["prior_var"]
    return ConjugateLineState(m0=float(pm[0]), m1=float(pm[1]),
                              s00=float(pv[0]), s01=0.0, s11=float(pv[1]))


# -- node B: regression with per-point outlier indicators ---------------------


class RegressionSequentialModel(SequentialModel):
    """Steps through the covariates in order. The per-step latent is the
    point's outlier indicator, proposed from its prior; the step weight is
    the predictive density of the response given everything before it, with
    the line already integrated out. Out-of-range values on the `a` input
    weight to -inf rather than raising, so upstream proposals outside the
    support are rejected instead of crashing the chain."""

    input_ports = ("a",)
    output_ports = ("b",)

    def __init__(self, constants: dict | None = None):
        doc = constants or load_constants()
        reg = doc["regression"]
        self.covariates = tuple(float(x) for x in reg_covariates(doc))
        self.num_steps = len(self.covariates)
        self.rates = {int(k): float(v) for k, v in reg["outlier_rate"].items()}
        self.sigma_in = float(reg["sigma_inlier"])
        self.sigma_out = float(reg["sigma_outlier"])
        self._prior = prior_line_state(doc)

    def initial_state(self, inputs):
        # a state is the line posterior; the outlier rate is read from inputs
        a = inputs["a"]
        if a.kind != "discrete":
            raise SchemaError(f"port 'a' expects a discrete value, got {a.kind}")
        return self._prior

    def prior_sample(self, t, states, inputs, rng):
        rate = self.rates.get(inputs["a"].data)
        if rate is None:
            return [0] * len(states)
        return [1 if u < rate else 0 for u in rng.random(len(states)).tolist()]

    def obs_sample(self, t, state, inputs, latent, rng):
        sigma = self.sigma_out if latent == 1 else self.sigma_in
        mean, var = state.predictive(self.covariates[t], sigma)
        return mean + math.sqrt(var) * rng.standard_normal()

    def step(self, t, states, inputs, latents, obs):
        x = self.covariates[t]
        sigma_in, sigma_out = self.sigma_in, self.sigma_out
        log_w, new_states = [], []
        for line, lat in zip(states, latents):
            w, after = line.condition(x, obs, sigma_out if lat == 1 else sigma_in)
            log_w.append(w)
            new_states.append(after)
        if self.rates.get(inputs["a"].data) is None:
            log_w = [-math.inf] * len(log_w)
        return log_w, new_states

    def finalize_extra(self, state, inputs, rng):
        return state.sample_line(rng)

    def pack_outputs(self, obs_list):
        return {"b": real_vector(obs_list)}

    def unpack_outputs(self, outputs):
        b = outputs["b"]
        if b.kind != "real_vector":
            raise SchemaError(f"port 'b' expects a real vector, got {b.kind}")
        return list(b.data)


def reg_covariates(doc: dict | None = None) -> tuple[float, ...]:
    return tuple(float(x) for x in (doc or load_constants())["dataset"]["covariates"])


# -- node A: switch prior -----------------------------------------------------


def switch_prior_spec(doc: dict | None = None) -> DiscreteModelSpec:
    sp = (doc or load_constants())["switch_prior"]

    def row(p1: float) -> tuple[float, float]:
        return (1.0 - p1, p1)

    return DiscreteModelSpec(
        latents=(
            VariableSpec("u1", (0, 1), (), {(): row(sp["u1"])}),
            VariableSpec("u2", (0, 1), ("u1",),
                         {(0,): row(sp["u2"][0]), (1,): row(sp["u2"][1])}),
            VariableSpec("u3", (0, 1), ("u2",),
                         {(0,): row(sp["u3"][0]), (1,): row(sp["u3"][1])}),
        ),
        outputs=(
            VariableSpec("a", (0, 1), ("u3",),
                         {(0,): row(sp["a"][0]), (1,): row(sp["a"][1])}),
        ),
    )


def build_switch_prior_module(train_samples: int, rng,
                              smoothing: float = 1.0) -> ProbModule:
    """train_samples = 0 selects the exact enumerated inverse."""
    spec = switch_prior_spec()
    if train_samples == 0:
        inv = exact_inverse(spec)
    else:
        inv = train_inverse(spec, train_samples, rng, smoothing)
    return InverseModule(spec, inv)


def build_regression_module(num_particles: int) -> ProbModule:
    return SmcModule(RegressionSequentialModel(), num_particles)


# -- dataset ------------------------------------------------------------------


def generate_dataset(seed: int, doc: dict | None = None) -> dict:
    """Regenerate a dataset from its seed: draw a line from the prior, then
    one response per covariate, with the forced positions using the outlier
    noise level. The checked-in dataset is exactly generate_dataset(91)."""
    doc = doc or load_constants()
    reg, ds = doc["regression"], doc["dataset"]
    import numpy as np

    rng = np.random.default_rng(seed)
    intercept = reg["prior_mean"][0] + math.sqrt(reg["prior_var"][0]) * rng.standard_normal()
    slope = reg["prior_mean"][1] + math.sqrt(reg["prior_var"][1]) * rng.standard_normal()
    forced = set(ds["forced_outliers"])
    responses = []
    for i, x in enumerate(ds["covariates"]):
        sigma = reg["sigma_outlier"] if i in forced else reg["sigma_inlier"]
        responses.append(intercept + slope * x + sigma * rng.standard_normal())
    return {
        "covariates": list(ds["covariates"]),
        "responses": responses,
        "seed": seed,
        "true_line": [intercept, slope],
        "forced_outliers": sorted(forced),
    }


def default_dataset() -> dict:
    return load_constants()["dataset"]


# -- wiring -------------------------------------------------------------------

SWITCH_NODE = 1
REGRESSION_NODE = 2


def build_outlier_network(num_particles: int, train_samples: int, rng,
                          responses=None) -> ModuleNetwork:
    """The two-node demo network, with node B observed at the frozen dataset
    (or at `responses` when given)."""
    if responses is None:
        responses = default_dataset()["responses"]
    nodes = [
        NodeSpec(SWITCH_NODE, build_switch_prior_module(train_samples, rng), name="A"),
        NodeSpec(REGRESSION_NODE, build_regression_module(num_particles), name="B"),
    ]
    edges = [EdgeSpec(SWITCH_NODE, "a", REGRESSION_NODE, "a")]
    observations = {REGRESSION_NODE: {"b": real_vector(responses)}}
    return build_network(nodes, edges, observations)
