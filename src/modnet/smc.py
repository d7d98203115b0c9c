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

A sweep hands back only what crosses the module boundary: the selected
trajectory and log Z-hat. It keeps the latent and ancestor rows that the final
backward walk reads, and nothing else. log Z-hat is a max-shifted logsumexp per
step, summed in a fixed left-to-right order, so the same draws give the same
float. Every float sum here is an explicit fold rather than sum(), which
compensates its rounding from Python 3.12 on.

With one particle the sweep is sequential importance sampling, and smc_run
runs it as its own short loop: per step one prior draw (or the pinned
latent) and one step call, with the step's log-weight added to log Z-hat.
Resampling and the final selection have only particle 0 to pick, so the loop
keeps no ancestor rows and draws no uniform for either; a pinned one-particle
sweep draws nothing at all. Each step's term is the same float the general
step gives for a one-entry row, so log Z-hat has the same bits for the same
latents whatever the weight, -0.0, +inf and NaN included. That is also why a
one-particle simulate sums its forward pass's step weights instead of
running the pinned sweep over the same steps again.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from numbers import Integral
from typing import Any

from .interface import DegenerateTraceError, ModuleIO, ProbModule, SchemaError


class SequentialModel:
    """Stepwise model contract consumed by smc_run.

    Every sweep call covers the whole particle population: prior_sample gets
    a list of states and returns one latent per state, and step scores and
    advances every particle at once, returning (log_weights, new_states).
    Anything constant over a sweep (a transition row, a rate picked by an
    input) is read from inputs rather than carried in each state.

    States are treated as immutable and step must be deterministic, which is
    what makes the same draws give the same log Z-hat, and what lets a model
    compute one result per distinct (state, latent) pair: resampling copies
    parents, so the same state object often recurs in one population.
    Neither method may modify the lists it is given. prior_sample must draw
    its randomness in particle order, so a population call draws exactly
    what one call per particle would; given no states it draws nothing.
    obs_sample draws one particle's observation for the forward pass of
    simulate, and unpack_outputs(pack_outputs(obs)) must give those
    observations back. finalize_extra samples any non-sequential latents from their
    exact conditional given the final state (return None when there are
    none).
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


def _normalise(row_w) -> tuple[float, list[float] | None]:
    """logsumexp of one step's log-weights and their normalized cumulative
    sum (None when everything is -inf), from one pass of exponentials."""
    m = max(row_w)
    if m == -math.inf:
        return -math.inf, None
    probs = []
    total = 0.0
    for w in row_w:
        p = math.exp(w - m)
        probs.append(p)
        total += p
    cum = []
    acc = 0.0
    for p in probs:
        acc += p / total
        cum.append(acc)
    # rounding can leave the last live particle's sum just below 1.0
    i = len(probs) - 1
    while probs[i] == 0.0:
        cum[i] = 1.0
        i -= 1
    cum[i] = 1.0
    return m + math.log(total), cum


# Neither here nor in smc_run's final draw does bisect_right(cum, u) need a
# clamp to K - 1, nor can it pick a zero-probability particle: _normalise
# sets cum to 1.0 from the last positive-probability particle on, and every
# uniform u is < 1.
def _multinomial_row(cum, K, rng) -> list[int]:
    return [bisect_right(cum, u) for u in rng.random(K).tolist()]


def _uniform_row(K, rng) -> list[int]:
    return [int(a) for a in rng.integers(0, K, size=K)]


def _particle_count(num_particles) -> int:
    """The one rule for a particle count, in smc_run and SmcModule: an
    integer (a numpy one too), not a bool, of at least 1. Nothing is
    truncated."""
    # a plain int, as every sweep passes, takes a single test
    if type(num_particles) is not int:
        if isinstance(num_particles, bool) or not isinstance(num_particles, Integral):
            raise ValueError(f"num_particles must be an integer, got {num_particles!r}")
        num_particles = int(num_particles)
    if num_particles < 1:
        raise ValueError("need at least one particle")
    return num_particles


def smc_run(model: SequentialModel, inputs: ModuleIO, outputs: ModuleIO,
            num_particles: int, rng,
            pinned: Latents | None = None) -> tuple[Latents, float]:
    """One sweep conditioned on outputs; returns a selected trajectory and
    the log normalizing-constant estimate, log Z-hat.

    If every particle dies at some step the sweep keeps going under uniform
    resampling so a structurally valid trajectory still comes back, but
    log Z-hat is -inf.

    With pinned set, the sweep is conditional: one slot, drawn uniformly
    once, replays the pinned trajectory at every step while the rest of the
    system runs as usual. The pinned lineage survives resampling by always
    keeping itself as ancestor, and is the selected trajectory.

    One particle runs as sequential importance sampling (_sis_run).
    """
    K = _particle_count(num_particles)
    obs = model.unpack_outputs(outputs)
    T = model.num_steps
    if len(obs) != T:
        raise SchemaError(f"expected {T} observation steps, got {len(obs)}")
    if pinned is not None and len(pinned.steps) != T:
        raise SchemaError(f"pinned trajectory has {len(pinned.steps)} steps, want {T}")
    if K == 1:
        return _sis_run(model, inputs, obs, rng, pinned)
    slot = -1 if pinned is None else int(rng.integers(K))

    log_k = math.log(K)
    states = [model.initial_state(inputs)] * K
    lat_rows, anc_rows = [], []  # what the final backward walk reads
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
        lat_rows.append(row_lat)
        anc_rows.append(anc)

    if pinned is not None:
        k, v = slot, pinned
    else:
        if cum is None:
            k = int(rng.integers(K))
        else:
            k = bisect_right(cum, rng.random())
        extra = model.finalize_extra(states[k], inputs, rng)
        # the selected lineage, read back through the recorded ancestry
        steps, a = [], k
        for t in reversed(range(T)):
            steps.append(lat_rows[t][a])
            a = anc_rows[t][a]
        v = Latents(tuple(reversed(steps)), extra)
    return v, log_z


def _sis_term(w: float) -> float:
    """_normalise's logsumexp of the one-entry row [w]. log K = 0 is not
    subtracted, since x - 0.0 is x for every double."""
    return -math.inf if w == -math.inf else w + math.log(math.exp(w - w))


def _sis_run(model: SequentialModel, inputs: ModuleIO, obs: list, rng,
             pinned: Latents | None) -> tuple[Latents, float]:
    """smc_run with one particle. Pinned, there is no free particle:
    prior_sample is not called and nothing is drawn."""
    state = model.initial_state(inputs)
    prior_sample = model.prior_sample
    step = model.step
    steps = [] if pinned is None else pinned.steps
    log_z = 0.0
    for t, ob in enumerate(obs):
        if pinned is None:
            (lat,) = prior_sample(t, [state], inputs, rng)
            steps.append(lat)
        else:
            lat = steps[t]
        (w,), (state,) = step(t, [state], inputs, [lat], ob)
        log_z += _sis_term(w)
    if pinned is not None:
        return pinned, log_z
    return Latents(tuple(steps), model.finalize_extra(state, inputs, rng)), log_z


class SmcModule(ProbModule):
    """Module whose regenerate is an SMC sweep and whose simulate scores its
    own forward sample with a conditional sweep. The log-weight is the
    sweep's log Z-hat and the aux is the selected Latents."""

    def __init__(self, model: SequentialModel, num_particles: int):
        self.model = model
        self.num_particles = _particle_count(num_particles)
        self.input_ports = tuple(model.input_ports)
        self.output_ports = tuple(model.output_ports)

    def regenerate(self, inputs, outputs, rng):
        self.check_inputs(inputs)
        self.check_outputs(outputs)
        v, log_z = smc_run(self.model, inputs, outputs, self.num_particles, rng)
        return log_z, v

    def simulate(self, inputs, rng):
        self.check_inputs(inputs)
        m = self.model
        state = m.initial_state(inputs)
        steps, obs = [], []
        log_z = 0.0
        for t in range(m.num_steps):
            lat = m.prior_sample(t, [state], inputs, rng)[0]
            ob = m.obs_sample(t, state, inputs, lat, rng)
            (w,), (state,) = m.step(t, [state], inputs, [lat], ob)
            log_z += _sis_term(w)
            steps.append(lat)
            obs.append(ob)
        extra = m.finalize_extra(state, inputs, rng)
        v = Latents(tuple(steps), extra)
        outputs = m.pack_outputs(obs)
        self.check_outputs(outputs)
        # with one particle the pinned sweep would draw nothing and repeat
        # the forward pass's steps, so their sum is already its log Z-hat
        if self.num_particles > 1:
            _, log_z = smc_run(m, inputs, outputs, self.num_particles, rng, pinned=v)
        if log_z == -math.inf:
            raise DegenerateTraceError("conditional sweep scored the forward sample at zero")
        return outputs, log_z, v
