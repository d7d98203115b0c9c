"""Small known-answer models used by the test suite and the demo configs.

Every generative model here is tiny enough to enumerate, so each builder
comes in two routes that share only the parameter literals: a module (or
network) for the inference engine, and a factored model for the exact
enumerator. Tests drive both and compare.
"""

from __future__ import annotations

import math

from .interface import (ModuleIO, SchemaError, bernoulli_module, table_module)
from .inverse import (DiscreteModelSpec, InverseModule, VariableSpec,
                      exact_inverse, train_inverse)
from .network import EdgeSpec, ModuleNetwork, NodeSpec, build_network
from .oracle import Factor, FactoredDiscreteModel
from .smc import SequentialModel, SmcModule
from .values import discrete, discrete_vector


def _row(p1: float) -> tuple[float, float]:
    return (1.0 - p1, p1)


# -- binary hidden chain ------------------------------------------------------


class BinaryHmm(SequentialModel):
    """Two-state hidden chain with Bernoulli emissions.

    trans and emit are (p(1 | prev=0), p(1 | prev=1)) pairs. With an input
    port, trans_by_input picks the transition pair from the input value; a
    value with no entry weights every step to -inf instead of raising.
    """

    output_ports = ("y",)

    def __init__(self, num_steps: int, init_p1: float, emit: tuple[float, float],
                 trans: tuple[float, float] | None = None,
                 trans_by_input: dict[int, tuple[float, float]] | None = None,
                 input_port: str | None = None):
        if (trans is None) == (trans_by_input is None):
            raise ValueError("give exactly one of trans or trans_by_input")
        if (input_port is None) != (trans_by_input is None):
            raise ValueError("trans_by_input requires an input port")
        self.num_steps = int(num_steps)
        self.init_p1 = float(init_p1)
        self.emit = (float(emit[0]), float(emit[1]))
        self.trans = trans
        self.trans_by_input = trans_by_input
        self.input_port = input_port
        self.input_ports = (input_port,) if input_port else ()

        # log p(y | h), indexed [y][h]; a zero-probability emission is -inf
        e0, e1 = self.emit
        self._log_emit = tuple(
            tuple(math.log(p) if p > 0.0 else -math.inf for p in probs)
            for probs in ((1.0 - e0, 1.0 - e1), (e0, e1)))

    def _row(self, inputs) -> tuple[float, float] | None:
        """This sweep's transition pair; None for an input with no entry."""
        if self.input_port is None:
            return self.trans
        return self.trans_by_input.get(inputs[self.input_port].data)

    def initial_state(self, inputs):
        # a state is the previous hidden value; None before the first step
        if self.input_port is not None:
            s = inputs[self.input_port]
            if s.kind != "discrete":
                raise SchemaError(
                    f"port {self.input_port!r} expects a discrete value, got {s.kind}")
        return None

    def prior_sample(self, t, states, inputs, rng):
        row = self._row(inputs)
        if row is None:
            return [0] * len(states)
        us = rng.random(len(states)).tolist()
        if t == 0:
            p = self.init_p1
            return [1 if u < p else 0 for u in us]
        return [1 if u < row[h] else 0 for h, u in zip(states, us)]

    def obs_sample(self, t, state, inputs, latent, rng):
        return 1 if rng.random() < self.emit[latent] else 0

    def step(self, t, states, inputs, latents, obs):
        if self._row(inputs) is None or obs not in (0, 1):
            return [-math.inf] * len(latents), latents
        lw = self._log_emit[obs]
        return [lw[h] for h in latents], latents

    def pack_outputs(self, obs_list):
        return {"y": discrete_vector(obs_list)}

    def unpack_outputs(self, outputs):
        y = outputs["y"]
        if y.kind != "discrete_vector":
            raise SchemaError(f"port 'y' expects a discrete vector, got {y.kind}")
        return list(y.data)


def hmm_oracle_model(num_steps: int, init_p1: float,
                     trans: tuple[float, float],
                     emit: tuple[float, float]) -> FactoredDiscreteModel:
    """Enumeration route for the fixed-transition chain; condition on the
    y variables to get exact evidence."""
    factors = [Factor("h0", (0, 1), (), {(): _row(init_p1)})]
    for t in range(1, num_steps):
        factors.append(Factor(f"h{t}", (0, 1), (f"h{t-1}",),
                              {(0,): _row(trans[0]), (1,): _row(trans[1])}))
    for t in range(num_steps):
        factors.append(Factor(f"y{t}", (0, 1), (f"h{t}",),
                              {(0,): _row(emit[0]), (1,): _row(emit[1])}))
    return FactoredDiscreteModel(factors)


def hmm_observation(ys) -> ModuleIO:
    return {"y": discrete_vector(ys)}


def hmm_oracle_observation(ys) -> dict[str, int]:
    return {f"y{t}": int(y) for t, y in enumerate(ys)}


# -- three-node discrete chain ------------------------------------------------

CHAIN3 = {
    "x1_p1": 0.35,
    "x2_p1": (0.3, 0.8),   # p(x2=1 | x1)
    "x3_p1": (0.1, 0.7),   # p(x3=1 | x2)
    "observed_x3": 1,
}

X1, X2, X3 = 1, 2, 3


def chain3_network(observed_x3: int | None = None) -> ModuleNetwork:
    """Three exact binary modules in a line, the last one observed."""
    c = CHAIN3
    if observed_x3 is None:
        observed_x3 = c["observed_x3"]
    nodes = [
        NodeSpec(X1, bernoulli_module(c["x1_p1"]), name="X1"),
        NodeSpec(X2, table_module(("x",), {(0,): _row(c["x2_p1"][0]),
                                           (1,): _row(c["x2_p1"][1])}), name="X2"),
        NodeSpec(X3, table_module(("x",), {(0,): _row(c["x3_p1"][0]),
                                           (1,): _row(c["x3_p1"][1])}), name="X3"),
    ]
    edges = [EdgeSpec(X1, "z", X2, "x"), EdgeSpec(X2, "z", X3, "x")]
    observations = {X3: {"z": discrete(observed_x3)}}
    return build_network(nodes, edges, observations)


def chain3_oracle() -> FactoredDiscreteModel:
    c = CHAIN3
    return FactoredDiscreteModel([
        Factor("x1", (0, 1), (), {(): _row(c["x1_p1"])}),
        Factor("x2", (0, 1), ("x1",), {(0,): _row(c["x2_p1"][0]),
                                       (1,): _row(c["x2_p1"][1])}),
        Factor("x3", (0, 1), ("x2",), {(0,): _row(c["x3_p1"][0]),
                                       (1,): _row(c["x3_p1"][1])}),
    ])


# -- inverse-fed hidden chain -------------------------------------------------
#
# A two-latent switch feeds the transition choice of a short hidden chain.
# Exercises an inverse-backed module and a sweep-backed module in one
# network while staying small enough to enumerate.

SWITCH_HMM = {
    "u1_p1": 0.6,
    "u2_p1": (0.25, 0.75),  # p(u2=1 | u1)
    "a_p1": (0.3, 0.85),    # p(a=1 | u2)
    "init_p1": 0.4,
    "trans_by_input": {0: (0.2, 0.6), 1: (0.5, 0.9)},
    "emit": (0.2, 0.85),
    "observed_y": (1, 0, 1),
}

SWITCH_NODE, HMM_NODE = 1, 2


def switch_spec() -> DiscreteModelSpec:
    c = SWITCH_HMM
    return DiscreteModelSpec(
        latents=(
            VariableSpec("u1", (0, 1), (), {(): _row(c["u1_p1"])}),
            VariableSpec("u2", (0, 1), ("u1",), {(0,): _row(c["u2_p1"][0]),
                                                 (1,): _row(c["u2_p1"][1])}),
        ),
        outputs=(
            VariableSpec("a", (0, 1), ("u2",), {(0,): _row(c["a_p1"][0]),
                                                (1,): _row(c["a_p1"][1])}),
        ),
    )


def switch_hmm_network(num_particles: int, train_samples: int, rng,
                       observed_y=None) -> ModuleNetwork:
    """train_samples = 0 selects the exact inverse for the switch node."""
    c = SWITCH_HMM
    if observed_y is None:
        observed_y = c["observed_y"]
    spec = switch_spec()
    inv = exact_inverse(spec) if train_samples == 0 else train_inverse(
        spec, train_samples, rng)
    hmm = BinaryHmm(len(observed_y), c["init_p1"], c["emit"],
                    trans_by_input=c["trans_by_input"], input_port="s")
    nodes = [
        NodeSpec(SWITCH_NODE, InverseModule(spec, inv), name="A"),
        NodeSpec(HMM_NODE, SmcModule(hmm, num_particles), name="B"),
    ]
    edges = [EdgeSpec(SWITCH_NODE, "a", HMM_NODE, "s")]
    observations = {HMM_NODE: hmm_observation(observed_y)}
    return build_network(nodes, edges, observations)


def switch_hmm_oracle() -> FactoredDiscreteModel:
    c = SWITCH_HMM
    T = len(c["observed_y"])
    factors = [
        Factor("u1", (0, 1), (), {(): _row(c["u1_p1"])}),
        Factor("u2", (0, 1), ("u1",), {(0,): _row(c["u2_p1"][0]),
                                       (1,): _row(c["u2_p1"][1])}),
        Factor("a", (0, 1), ("u2",), {(0,): _row(c["a_p1"][0]),
                                      (1,): _row(c["a_p1"][1])}),
        Factor("h0", (0, 1), (), {(): _row(c["init_p1"])}),
    ]
    for t in range(1, T):
        rows = {}
        for a in (0, 1):
            for h in (0, 1):
                rows[(a, h)] = _row(c["trans_by_input"][a][h])
        factors.append(Factor(f"h{t}", (0, 1), ("a", f"h{t-1}"), rows))
    for t in range(T):
        factors.append(Factor(f"y{t}", (0, 1), (f"h{t}",),
                              {(0,): _row(c["emit"][0]), (1,): _row(c["emit"][1])}))
    return FactoredDiscreteModel(factors)


def switch_hmm_observation() -> dict[str, int]:
    return hmm_oracle_observation(SWITCH_HMM["observed_y"])
