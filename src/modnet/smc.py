"""Sequential Monte Carlo as a module backend.

A SequentialModel describes per-step latents proposed from their prior and a
per-step observation likelihood, and it works on the whole particle
population at once: each model call draws, scores or advances all K
particles of one step. smc_run estimates the normalizing constant with
multinomial resampling at every step, and the resulting log Z-hat is the
module log-weight. The conditional variant (smc_run with pinned=...) runs the
same sweep with one uniformly chosen particle slot pinned to a given latent
trajectory; it is what simulate uses to score a forward sample. Why log Z-hat
is the right log-weight on both paths is worked through in
docs/smc-module-weights.md.

The running estimate uses max-shifted logsumexp with a fixed left-to-right
reduction, and recompute_log_z replays the stored particle system through the
identical operations, so the two agree bit-for-bit, not just approximately.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

from .interface import DegenerateTraceError, ModuleIO, ProbModule, SchemaError


def logsumexp(vals) -> float:
    return _normalise(list(vals))[0]


class SequentialModel:
    """Stepwise model contract consumed by smc_run.

    Every sweep call covers the whole particle population: prior_sample gets
    a list of states and returns one latent per state, and step scores and
    advances every particle at once, returning (log_weights, new_states).
    Anything constant over a sweep (a transition row, a rate picked by an
    input) is read from inputs rather than carried in each state.

    States are treated as immutable and step must be deterministic, which is
    what makes replay verification exact. Neither method may modify the
    lists it is given. prior_sample must draw its randomness in particle
    order, so a population call draws exactly what one call per particle
    would; given no states it draws nothing. obs_sample draws one particle's
    observation for the forward pass of simulate. finalize_extra samples any
    non-sequential latents from their exact conditional given the final
    state (return None when there are none).
    """

    num_steps: int
    input_ports: tuple[str, ...] = ()
    output_ports: tuple[str, ...] = ()

    def initial_state(self, inputs: ModuleIO):
        raise NotImplementedError

    def prior_sample(self, t: int, states: list, inputs: ModuleIO, rng) -> list:
        raise NotImplementedError

    def step(self, t: int, states: list, inputs: ModuleIO, latents,
             obs) -> tuple[list[float], list]:
        raise NotImplementedError

    def obs_sample(self, t: int, state, inputs: ModuleIO, latent, rng):
        raise NotImplementedError

    def finalize_extra(self, state, inputs: ModuleIO, rng):
        return None

    def pack_outputs(self, obs_list) -> ModuleIO:
        raise NotImplementedError

    def unpack_outputs(self, outputs: ModuleIO) -> list:
        raise NotImplementedError


@dataclass(frozen=True)
class Latents:
    """One full latent assignment: per-step values plus non-sequential extras."""

    steps: tuple
    extra: Any = None


@dataclass(frozen=True)
class ParticleSystem:
    """Everything a sweep did: values, weights, ancestry, selection, log Z-hat.

    latents[t][p] is the value particle p proposed at step t, after that
    step's resampling relabeled particles; ancestors[t][p] says which step
    t-1 particle it continued (ancestors[0] is the identity row).
    """

    num_particles: int
    latents: tuple[tuple, ...]
    log_weights: tuple[tuple[float, ...], ...]
    ancestors: tuple[tuple[int, ...], ...]
    selected: int
    log_z: float


@dataclass(frozen=True)
class SmcAux:
    """Auxiliary record stored in the network: trajectory plus its sweep."""

    latents: Latents
    particles: ParticleSystem


def _normalise(row_w) -> tuple[float, list[float] | None]:
    """logsumexp of one step's log-weights and their normalized cumulative
    sum (None when everything is -inf), from one pass of exponentials."""
    m = max(row_w)
    if m == -math.inf:
        return -math.inf, None
    probs = [math.exp(w - m) for w in row_w]
    total = sum(probs)
    cum = []
    acc = 0.0
    for p in probs:
        acc += p / total
        cum.append(acc)
    cum[-1] = 1.0
    return m + math.log(total), cum


def _multinomial_row(cum, K, rng) -> list[int]:
    us = rng.random(K).tolist()
    return [min(bisect_right(cum, u), K - 1) for u in us]


def _uniform_row(K, rng) -> list[int]:
    return [int(a) for a in rng.integers(0, K, size=K)]


def smc_run(model: SequentialModel, inputs: ModuleIO, outputs: ModuleIO,
            num_particles: int, rng,
            pinned: Latents | None = None) -> tuple[Latents, ParticleSystem]:
    """One sweep conditioned on outputs; returns a selected trajectory and
    the particle system with its log normalizing-constant estimate.

    If every particle dies at some step the sweep keeps going under uniform
    resampling so a structurally valid trajectory still comes back, but
    log Z-hat is -inf.

    With pinned set, the sweep is conditional: one slot, drawn uniformly
    once, replays the pinned trajectory at every step while the rest of the
    system runs as usual. The pinned lineage survives resampling by always
    keeping itself as ancestor, and is the selected trajectory.
    """
    K = int(num_particles)
    if K < 1:
        raise ValueError("need at least one particle")
    obs = model.unpack_outputs(outputs)
    T = model.num_steps
    if len(obs) != T:
        raise SchemaError(f"expected {T} observation steps, got {len(obs)}")
    slot = -1  # no particle is pinned
    if pinned is not None:
        if len(pinned.steps) != T:
            raise SchemaError(f"pinned trajectory has {len(pinned.steps)} steps, want {T}")
        slot = int(rng.integers(K))

    log_k = math.log(K)
    states = [model.initial_state(inputs)] * K
    lat_rows, w_rows, anc_rows = [], [], []
    log_z = 0.0
    cum: list[float] | None = None
    prior_sample = model.prior_sample
    step = model.step

    for t in range(T):
        if t == 0:
            anc = list(range(K))
        else:
            # K uniforms drawn either way; a pinned slot ignores its draw.
            anc = _uniform_row(K, rng) if cum is None else _multinomial_row(cum, K, rng)
            if pinned is not None:
                anc[slot] = slot
            states = [states[a] for a in anc]
        if pinned is None:
            row_lat = prior_sample(t, states, inputs, rng)
        else:
            # the free particles draw in slot order, the pinned one not at all
            row_lat = prior_sample(t, states[:slot] + states[slot + 1:], inputs, rng)
            row_lat.insert(slot, pinned.steps[t])
        row_w, states = step(t, states, inputs, row_lat, obs[t])
        lse, cum = _normalise(row_w)
        log_z += lse - log_k
        lat_rows.append(tuple(row_lat))
        w_rows.append(tuple(row_w))
        anc_rows.append(tuple(anc))

    if pinned is not None:
        k, v = slot, pinned
    else:
        if cum is None:
            k = int(rng.integers(K))
        else:
            k = min(bisect_right(cum, rng.random()), K - 1)
        extra = model.finalize_extra(states[k], inputs, rng)
        # the selected lineage, read back through the recorded ancestry
        steps, a = [], k
        for t in reversed(range(T)):
            steps.append(lat_rows[t][a])
            a = anc_rows[t][a]
        v = Latents(tuple(reversed(steps)), extra)
    ps = ParticleSystem(K, tuple(lat_rows), tuple(w_rows), tuple(anc_rows), k, log_z)
    return v, ps


def recompute_log_z(model: SequentialModel, inputs: ModuleIO, outputs: ModuleIO,
                    ps: ParticleSystem) -> float:
    """Re-derive log Z-hat from a stored system by replaying states along the
    recorded ancestry. Exactly equal to ps.log_z for systems this module
    produced, because the arithmetic and reduction order are identical."""
    obs = model.unpack_outputs(outputs)
    K = ps.num_particles
    log_k = math.log(K)
    states = [model.initial_state(inputs)] * K
    log_z = 0.0
    for t in range(len(obs)):
        if t > 0:
            states = [states[a] for a in ps.ancestors[t]]
        row_w, states = model.step(t, states, inputs, list(ps.latents[t]), obs[t])
        log_z += _normalise(row_w)[0] - log_k
    return log_z


class SmcModule(ProbModule):
    """Module whose regenerate is an SMC sweep and whose simulate scores its
    own forward sample with a conditional sweep."""

    def __init__(self, model: SequentialModel, num_particles: int, name=None):
        if num_particles < 1:
            raise ValueError("need at least one particle")
        self.model = model
        self.num_particles = int(num_particles)
        self.input_ports = tuple(model.input_ports)
        self.output_ports = tuple(model.output_ports)
        if name:
            self.name = name

    def regenerate(self, inputs, outputs, rng):
        self.check_inputs(inputs)
        self.check_outputs(outputs)
        v, ps = smc_run(self.model, inputs, outputs, self.num_particles, rng)
        return ps.log_z, SmcAux(v, ps)

    def simulate(self, inputs, rng):
        self.check_inputs(inputs)
        m = self.model
        state = m.initial_state(inputs)
        steps, obs = [], []
        for t in range(m.num_steps):
            lat = m.prior_sample(t, [state], inputs, rng)[0]
            ob = m.obs_sample(t, state, inputs, lat, rng)
            _, (state,) = m.step(t, [state], inputs, [lat], ob)
            steps.append(lat)
            obs.append(ob)
        extra = m.finalize_extra(state, inputs, rng)
        v = Latents(tuple(steps), extra)
        outputs = m.pack_outputs(obs)
        self.check_outputs(outputs)
        _, ps = smc_run(m, inputs, outputs, self.num_particles, rng, pinned=v)
        if ps.log_z == -math.inf:
            raise DegenerateTraceError("conditional sweep scored the forward sample at zero")
        return outputs, ps.log_z, SmcAux(v, ps)
