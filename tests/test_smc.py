import copy
import hashlib
import itertools
import math
import re
import struct
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from modnet.interface import DegenerateTraceError, SchemaError
from modnet.oracle import log_evidence
from modnet.outlier_regression import RegressionSequentialModel, default_dataset
from modnet.reference_models import BinaryHmm, hmm_oracle_model, hmm_observation
from modnet.smc import Latents, SmcModule, _multinomial_row, _normalise, smc_run
from modnet.validation import check_module_contract
from modnet.values import discrete, real_vector

INIT_P1 = 0.6
TRANS = (0.3, 0.8)
EMIT = (0.2, 0.75)
YS = [1, 0]


def _model(num_steps=2):
    return BinaryHmm(num_steps, INIT_P1, EMIT, trans=TRANS)


class HistoryHmm(BinaryHmm):
    """BinaryHmm whose particle state is its whole history tuple, so
    finalize_extra hands back the selected particle's own lineage."""

    def initial_state(self, inputs):
        super().initial_state(inputs)
        return ()

    def prior_sample(self, t, states, inputs, rng):
        return super().prior_sample(t, [s[-1] if s else None for s in states],
                                    inputs, rng)

    def step(self, t, states, inputs, latents, obs):
        log_w, _ = super().step(t, states, inputs, latents, obs)
        return log_w, [s + (h,) for s, h in zip(states, latents)]

    def finalize_extra(self, state, inputs, rng):
        return state


class _Delegate:
    """A model whose every attribute is model's, for overriding one."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)


def _recording(model):
    """Wrap model.step to record (states, latents, log_weights) per call,
    states in particle order after resampling."""
    calls = []
    step = model.step

    def recording(t, states, inputs, latents, obs):
        log_w, after = step(t, states, inputs, latents, obs)
        calls.append((list(states), list(latents), list(log_w)))
        return log_w, after

    model.step = recording
    return calls


def _hand_evidence():
    total = 0.0
    for h0 in (0, 1):
        for h1 in (0, 1):
            p = INIT_P1 if h0 else 1 - INIT_P1
            p *= EMIT[h0] if YS[0] else 1 - EMIT[h0]
            p *= TRANS[h0] if h1 else 1 - TRANS[h0]
            p *= EMIT[h1] if YS[1] else 1 - EMIT[h1]
            total += p
    return total


def test_logsumexp_matches_scipy():
    vals = [-3.2, 0.1, -700.0, 2.5]
    assert _normalise(vals)[0] == pytest.approx(scipy_logsumexp(vals), rel=1e-14)
    assert _normalise([-math.inf, -math.inf]) == (-math.inf, None)
    assert _normalise([0.0])[0] == 0.0


class _FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("row", [
    [0.0, -2.0, -math.inf],
    [0.0, -2.0, -math.inf, -math.inf],
    [-math.inf, -1.0, 0.0, -3.0, -math.inf],
    [-math.inf, 0.0],
])
def test_resampling_never_picks_a_zero_weight_particle(row):
    # the largest uniform below 1 must land on a live particle, both in
    # resampling and in the final selection's bisect over the same sums
    u = float(np.nextafter(1.0, 0.0))
    _, cum = _normalise(row)
    live = max(i for i, w in enumerate(row) if w > -math.inf)
    assert bisect_right(cum, u) == live
    assert _multinomial_row(cum, 4, _FixedUniform(u)) == [live] * 4
    assert cum[live:] == [1.0] * (len(row) - live)


def _bits(x):
    return struct.pack("<d", x)


def _reference_normalise(row_w):
    """The general step written out: max-shifted exponentials, their
    left-to-right total, the normalized running sums, and 1.0 from the last
    particle whose exponential is not zero on."""
    m = max(row_w)
    if m == -math.inf:
        return -math.inf, None
    probs = [math.exp(w - m) for w in row_w]
    total = 0.0
    for p in probs:
        total += p
    cum, acc = [], 0.0
    for p in probs:
        acc += p / total
        cum.append(acc)
    live = max(i for i, p in enumerate(probs) if p != 0.0)
    cum[live:] = [1.0] * (len(cum) - live)
    return m + math.log(total), cum


@pytest.mark.parametrize("w", [-3.2, 0.0, -0.0, 1e300, -math.inf, math.nan])
def test_one_particle_step_matches_the_general_formulas(w):
    lse, cum = _normalise([w])
    want_lse, want_cum = _reference_normalise([w])
    assert _bits(lse) == _bits(want_lse)
    assert cum == want_cum

    # the one-particle loop adds the same term per step, plain and pinned
    class Constant(_Delegate):
        def step(self, t, states, inputs, latents, obs):
            return [w] * len(states), self.model.step(t, states, inputs, latents, obs)[1]

    want = 0.0
    for _ in range(3):
        want += want_lse - math.log(1)
    model, outputs = Constant(_model(3)), hmm_observation([1, 0, 1])
    v, log_z = smc_run(model, {}, outputs, 1, np.random.default_rng(21))
    _, pinned_log_z = smc_run(model, {}, outputs, 1, np.random.default_rng(21), pinned=v)
    assert _bits(log_z) == _bits(pinned_log_z) == _bits(want)


def _k1_cases():
    """The one-particle digest's six cases: the input-driven BinaryHmm and
    the regression model, each on two live inputs and a dead one."""
    hmm = BinaryHmm(4, 0.4, (0.15, 0.8),
                    trans_by_input={0: (0.25, 0.7), 1: (0.6, 0.3)}, input_port="s")
    y = hmm_observation([1, 0, 1, 1])
    reg = RegressionSequentialModel()
    b = {"b": real_vector(default_dataset()["responses"])}
    return [(hmm, {"s": discrete(0)}, y), (hmm, {"s": discrete(1)}, y),
            (hmm, {"s": discrete(9)}, y), (reg, {"a": discrete(1)}, b),
            (reg, {"a": discrete(0)}, b), (reg, {"a": discrete(5)}, b)]


# sha256 over 200 seeds of one-particle sweeps: the regression and BinaryHmm
# models on plain, pinned and dead inputs, covering each log Z-hat's bits,
# the selected Latents and the generator's state after every seed, plus a
# one-particle simulate (forward pass and pinned sweep) on each live input.
K1_SWEEPS_SHA256 = "241ce279167f9b8f261ff0886c7c7e0ff1a72eb7bb39876b6e7ab2e077bbf573"


def test_one_particle_sweeps_match_the_pinned_digest():
    cases = _k1_cases()
    h = hashlib.sha256()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        for model, inputs, outputs in cases:
            v, log_z = smc_run(model, inputs, outputs, 1, rng)
            _, pinned_log_z = smc_run(model, inputs, outputs, 1, rng, pinned=v)
            h.update(_bits(log_z) + _bits(pinned_log_z) + repr(v).encode())
            if log_z > -math.inf:
                sim_out, sim_lw, sim_v = SmcModule(model, 1).simulate(inputs, rng)
                h.update(_bits(sim_lw) + repr((sim_out, sim_v)).encode())
        h.update(repr(rng.bit_generator.state).encode())
    assert h.hexdigest() == K1_SWEEPS_SHA256


def test_pinned_one_particle_sweep_skips_the_empty_prior_draw():
    # the sweep used to call prior_sample on the empty free population
    # before every step; replaying that call must change no float, no
    # latent and no generator state, and the sweep no longer makes it
    hmm = BinaryHmm(4, 0.4, (0.15, 0.8),
                    trans_by_input={0: (0.25, 0.7), 1: (0.6, 0.3)}, input_port="s")
    y = hmm_observation([1, 0, 1, 1])
    reg = RegressionSequentialModel()
    b = {"b": real_vector(default_dataset()["responses"])}
    cases = [(hmm, {"s": discrete(0)}, y), (hmm, {"s": discrete(9)}, y),
             (reg, {"a": discrete(1)}, b), (reg, {"a": discrete(0)}, b),
             (reg, {"a": discrete(5)}, b)]
    sizes = []

    class Spy(_Delegate):
        def prior_sample(self, t, states, inputs, rng):
            sizes.append(len(states))
            return self.model.prior_sample(t, states, inputs, rng)

    class EmptyDrawFirst(_Delegate):
        def __init__(self, model, rng):
            super().__init__(model)
            self.rng = rng

        def step(self, t, states, inputs, latents, obs):
            assert self.model.prior_sample(t, [], inputs, self.rng) == []
            return self.model.step(t, states, inputs, latents, obs)

    for seed in range(30):
        for model, inputs, outputs in cases:
            v, _ = smc_run(model, inputs, outputs, 1, np.random.default_rng(seed))
            got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            w, log_z = smc_run(Spy(model), inputs, outputs, 1, got, pinned=v)
            w_ref, log_z_ref = smc_run(EmptyDrawFirst(model, ref), inputs,
                                       outputs, 1, ref, pinned=v)
            assert (w, _bits(log_z)) == (w_ref, _bits(log_z_ref))
            assert got.bit_generator.state == ref.bit_generator.state
    assert sizes == []


def _reference_sis(model, inputs, outputs, rng, pinned=None):
    """Sequential importance sampling from the model's own methods: log
    Z-hat sums each step's one-entry logsumexp minus log 1, left to right,
    and nothing is drawn but the prior latents and the extras."""
    obs = model.unpack_outputs(outputs)
    state = model.initial_state(inputs)
    steps, log_z = [], 0.0
    for t in range(model.num_steps):
        if pinned is None:
            lat = model.prior_sample(t, [state], inputs, rng)[0]
        else:
            lat = pinned.steps[t]
        log_w, (state,) = model.step(t, [state], inputs, [lat], obs[t])
        log_z += _reference_normalise(log_w)[0] - math.log(1)
        steps.append(lat)
    if pinned is not None:
        return pinned, log_z
    return Latents(tuple(steps), model.finalize_extra(state, inputs, rng)), log_z


def test_one_particle_sweep_is_sequential_importance_sampling():
    for seed in range(150):
        for model, inputs, outputs in _k1_cases():
            got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            v, log_z = smc_run(model, inputs, outputs, 1, got)
            v_ref, log_z_ref = _reference_sis(model, inputs, outputs, ref)
            assert (v, _bits(log_z)) == (v_ref, _bits(log_z_ref))
            assert got.bit_generator.state == ref.bit_generator.state
            # pinned, the sweep replays v, scores it the same and draws nothing
            before = got.bit_generator.state
            w, pinned_log_z = smc_run(model, inputs, outputs, 1, got, pinned=v)
            assert w is v and _bits(pinned_log_z) == _bits(log_z)
            assert got.bit_generator.state == before


def _reference_simulate(model, inputs, K, rng):
    """simulate as a forward pass that discards its step weights, then the
    pinned sweep over the forward sample, at any particle count."""
    state = model.initial_state(inputs)
    steps, obs = [], []
    for t in range(model.num_steps):
        lat = model.prior_sample(t, [state], inputs, rng)[0]
        ob = model.obs_sample(t, state, inputs, lat, rng)
        _, (state,) = model.step(t, [state], inputs, [lat], ob)
        steps.append(lat)
        obs.append(ob)
    v = Latents(tuple(steps), model.finalize_extra(state, inputs, rng))
    outputs = model.pack_outputs(obs)
    _, log_z = smc_run(model, inputs, outputs, K, rng, pinned=v)
    return outputs, log_z, v


def test_one_particle_simulate_scores_its_forward_pass_once():
    # one particle: the forward pass's step weights, summed as the
    # one-particle sweep sums them, are the pinned sweep's log Z-hat to the
    # bit, so simulate calls step once per step; more particles still run
    # the pinned sweep
    hmm = BinaryHmm(4, 0.4, (0.15, 0.8),
                    trans_by_input={0: (0.25, 0.7), 1: (0.6, 0.3)}, input_port="s")
    reg = RegressionSequentialModel()
    cases = [(reg, {"a": discrete(0)}), (reg, {"a": discrete(1)}),
             (hmm, {"s": discrete(0)}), (hmm, {"s": discrete(1)})]
    for K, seeds in ((1, 300), (3, 20)):
        for seed in range(seeds):
            for model, inputs in cases:
                got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                out, lw, v = SmcModule(model, K).simulate(inputs, got)
                want = _reference_simulate(model, inputs, K, ref)
                assert (out, _bits(lw), v) == (want[0], _bits(want[1]), want[2])
                assert got.bit_generator.state == ref.bit_generator.state
    for K in (1, 3):
        model = _model(4)
        calls = _recording(model)
        SmcModule(model, K).simulate({}, np.random.default_rng(K))
        assert [len(states) for states, _, _ in calls] == [1] * 4 + [K] * 4 * (K > 1)
    # a dead input weighs its steps -inf and still raises
    for model, inputs in ((hmm, {"s": discrete(9)}), (reg, {"a": discrete(5)})):
        with pytest.raises(DegenerateTraceError):
            SmcModule(model, 1).simulate(inputs, np.random.default_rng(0))


@pytest.mark.parametrize("K", [2, 3])
def test_more_than_one_particle_runs_the_population_sweep(K):
    # only K = 1 takes the one-particle loop: from two particles on, every
    # step scores the whole population and log Z-hat subtracts log K
    model = _model(3)
    calls = _recording(model)
    outputs = hmm_observation([1, 0, 1])
    rng = np.random.default_rng(K)
    for pinned in (None, Latents((1, 0, 1))):
        calls.clear()
        _, log_z = smc_run(model, {}, outputs, K, rng, pinned=pinned)
        assert [len(states) for states, _, _ in calls] == [K] * 3
        want = 0.0
        for _, _, log_w in calls:
            want += _normalise(log_w)[0] - math.log(K)
        assert _bits(log_z) == _bits(want)


def test_regression_one_particle_step_is_the_population_entry():
    model = RegressionSequentialModel()
    obs = default_dataset()["responses"]
    rng = np.random.default_rng(3)
    for a in (1, 5):
        inputs = {"a": discrete(a)}
        state = model.initial_state(inputs)
        for t in range(model.num_steps):
            for lat in (0, 1):
                (w,), (line,) = model.step(t, [state], inputs, [lat], obs[t])
                pop_w, pop_lines = model.step(t, [state, state, state], inputs,
                                              [1 - lat, lat, lat], obs[t])
                assert (_bits(w), line) == (_bits(pop_w[1]), pop_lines[1])
                if a == 5:
                    assert w == -math.inf
            state = model.step(t, [state], inputs, [int(rng.integers(2))], obs[t])[1][0]


@pytest.mark.parametrize("num_steps", [2.7, 2.0, True, False, 0, -2, "3", None])
def test_binary_hmm_refuses_a_bad_step_count(num_steps):
    message = re.escape(f"num_steps must be an integer >= 1, got {num_steps!r}")
    with pytest.raises(ValueError, match=message):
        BinaryHmm(num_steps, INIT_P1, EMIT, trans=TRANS)


@pytest.mark.parametrize("kwargs, message", [
    ({"init_p1": 1.5}, "init_p1 must be a probability in [0, 1], got 1.5"),
    ({"init_p1": math.nan}, "init_p1 must be a probability in [0, 1], got nan"),
    ({"emit": (0.2, math.nan)}, "emit[1] must be a probability"),
    ({"emit": (-0.1, 0.5)}, "emit[0] must be a probability"),
    ({"emit": (0.2,)}, "emit must be a pair of probabilities"),
    ({"trans": (0.3, math.inf)}, "trans[1] must be a probability"),
    ({"trans": None, "trans_by_input": {0: TRANS, 1: (1.2, 0.5)}, "input_port": "s"},
     "trans_by_input[1][0] must be a probability"),
])
def test_binary_hmm_refuses_a_bad_probability(kwargs, message):
    # a NaN emission used to be scored -inf, and init_p1 1.5 was taken
    args = {"init_p1": INIT_P1, "emit": EMIT, "trans": TRANS, **kwargs}
    with pytest.raises(ValueError, match=re.escape(message)):
        BinaryHmm(2, **args)


def test_binary_hmm_takes_numpy_counts_and_the_closed_interval():
    model = BinaryHmm(np.int64(3), 0.0, (0.0, 1.0), trans=(1.0, 0.0))
    assert type(model.num_steps) is int and model.num_steps == 3
    _, log_z = smc_run(model, {}, hmm_observation([0, 1, 0]), 2, np.random.default_rng(0))
    assert log_z == 0.0


def test_oracle_route_agrees_with_four_term_sum():
    want = _hand_evidence()
    got = log_evidence(hmm_oracle_model(2, INIT_P1, TRANS, EMIT),
                       {"y0": YS[0], "y1": YS[1]})
    assert got == pytest.approx(math.log(want), rel=1e-13)


def test_single_particle_log_z_is_the_path_score():
    rng = np.random.default_rng(4)
    for _ in range(20):
        model = HistoryHmm(2, INIT_P1, EMIT, trans=TRANS)
        calls = _recording(model)
        v, log_z = smc_run(model, {}, hmm_observation(YS), 1, rng)
        assert log_z == sum(log_w[0] for _, _, log_w in calls)
        assert v.steps == tuple(lat[0] for _, lat, _ in calls) == v.extra
        # pinned, the only particle is the pinned path: same score, bit for bit
        _, pinned_log_z = smc_run(_model(), {}, hmm_observation(YS), 1, rng,
                                  pinned=Latents(v.steps))
        assert pinned_log_z == log_z


def test_selected_trajectory_is_the_ancestral_lineage():
    # the history state is the lineage each particle really carried, so the
    # backward walk's trajectory must equal the selected particle's history
    model = HistoryHmm(5, INIT_P1, EMIT, trans=TRANS)
    calls = _recording(model)
    outputs = hmm_observation([1, 0, 1, 1, 0])
    rng = np.random.default_rng(8)
    moved = 0
    for _ in range(50):
        calls.clear()
        v, _ = smc_run(model, {}, outputs, 6, rng)
        assert v.extra == v.steps and len(v.steps) == 5
        # the states each step received are not just the previous step's
        # particles in place: resampling really relabeled them
        moved += any(calls[t][0] != [s + (h,) for s, h in zip(*calls[t - 1][:2])]
                     for t in range(1, 5))
    assert moved > 0


def test_estimate_is_unbiased_for_the_evidence():
    res = check_module_contract(SmcModule(_model(), 5), {}, hmm_observation(YS),
                                _hand_evidence(), 20_000, np.random.default_rng(2024))
    assert res["z"] < 4.5


def test_simulated_weight_satisfies_the_harmonic_identity():
    # For a fixed output z*, exp(-lw) 1{z = z*} averages to one under simulate.
    res = check_module_contract(SmcModule(_model(), 5), {}, hmm_observation(YS),
                                _hand_evidence(), 20_000, np.random.default_rng(99))
    assert res["harmonic"]["z"] < 4.5


def test_conditional_sweep_pins_one_slot():
    pinned = Latents((1, 0, 0, 1))
    model = HistoryHmm(4, INIT_P1, EMIT, trans=TRANS)
    calls = _recording(model)
    outputs = hmm_observation([1, 0, 1, 1])
    rng = np.random.default_rng(17)
    slots = set()
    for _ in range(10):
        calls.clear()
        # the sweep's first draw is the pinned slot
        slot = int(copy.deepcopy(rng).integers(6))
        v, _ = smc_run(model, {}, outputs, 6, rng, pinned=pinned)
        assert v is pinned
        # at every step the slot replays the pinned value and carries its
        # own history: it kept itself as ancestor through each resampling
        for t, (states, latents, _) in enumerate(calls):
            assert latents[slot] == pinned.steps[t]
            assert states[slot] == pinned.steps[:t]
        slots.add(slot)
    assert len(slots) > 1


def test_replay_reproduces_log_z_bit_for_bit():
    # log Z-hat is the fixed left-to-right sum of each step's logsumexp minus
    # log K, over the weight rows step returned
    cases = [
        (_model(), {}, hmm_observation(YS)),
        (RegressionSequentialModel(), {"a": discrete(1)},
         {"b": real_vector(default_dataset()["responses"])}),
    ]

    def replayed(calls, K):
        log_z = 0.0
        for _, _, log_w in calls:
            log_z += _normalise(log_w)[0] - math.log(K)
        return log_z

    for model, inputs, outputs in cases:
        calls = _recording(model)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            calls.clear()
            v, log_z = smc_run(model, inputs, outputs, 4, rng)
            assert replayed(calls, 4) == log_z
            calls.clear()
            _, pinned_log_z = smc_run(model, inputs, outputs, 4, rng, pinned=v)
            assert replayed(calls, 4) == pinned_log_z


def test_dead_inputs_give_minus_inf_without_raising():
    # an input value with no transition entry weights every step to -inf
    model = HistoryHmm(2, INIT_P1, EMIT,
                       trans_by_input={0: TRANS, 1: TRANS}, input_port="s")
    inputs = {"s": discrete(7)}
    rng = np.random.default_rng(12)
    for _ in range(20):
        v, log_z = smc_run(model, inputs, hmm_observation(YS), 5, rng)
        assert log_z == -math.inf
        # uniform resampling still hands back a real lineage
        assert v.extra == v.steps and len(v.steps) == 2
    module = SmcModule(model, 5)
    lw, aux = module.regenerate(inputs, hmm_observation(YS), rng)
    assert lw == -math.inf
    assert isinstance(aux, Latents) and len(aux.steps) == 2


def test_inconsistent_forward_sampler_is_rejected():
    class BrokenHmm(BinaryHmm):
        def obs_sample(self, t, state, inputs, latent, rng):
            return 2  # outside what step accepts

    module = SmcModule(BrokenHmm(2, INIT_P1, EMIT, trans=TRANS), 3)
    with pytest.raises(DegenerateTraceError):
        module.simulate({}, np.random.default_rng(0))


def test_module_wires_ports_and_aux():
    model = BinaryHmm(2, INIT_P1, EMIT,
                      trans_by_input={0: TRANS, 1: (0.5, 0.5)}, input_port="s")
    module = SmcModule(model, 4)
    assert module.input_ports == ("s",)
    assert module.output_ports == ("y",)
    rng = np.random.default_rng(3)
    with pytest.raises(SchemaError):
        module.regenerate({}, hmm_observation(YS), rng)
    # the aux is the selected trajectory; lw is the sweep's log Z-hat
    lw, aux = module.regenerate({"s": discrete(0)}, hmm_observation(YS),
                                np.random.default_rng(3))
    v, log_z = smc_run(model, {"s": discrete(0)}, hmm_observation(YS), 4,
                       np.random.default_rng(3))
    assert (lw, aux) == (log_z, v)
    assert len(aux.steps) == 2


def test_size_validation():
    with pytest.raises(ValueError):
        smc_run(_model(), {}, hmm_observation(YS), 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        smc_run(_model(), {}, hmm_observation(YS), 0, np.random.default_rng(0),
                pinned=Latents((0, 0)))
    with pytest.raises(ValueError):
        SmcModule(_model(), 0)
    with pytest.raises(ValueError, match="num_particles must be an integer >= 1, got -2"):
        SmcModule(_model(), -2)
    with pytest.raises(SchemaError, match="observation steps"):
        smc_run(_model(), {}, hmm_observation([1, 0, 1]), 3,
                np.random.default_rng(0))
    with pytest.raises(SchemaError, match="pinned trajectory"):
        smc_run(_model(), {}, hmm_observation(YS), 3, np.random.default_rng(0),
                pinned=Latents((0,)))


@pytest.mark.parametrize("count", [2.9, 2.0, True, False, "3", None])
def test_particle_count_is_never_truncated(count):
    message = f"num_particles must be an integer >= 1, got {count!r}"
    with pytest.raises(ValueError, match=message):
        SmcModule(_model(), count)
    with pytest.raises(ValueError, match=message):
        smc_run(_model(), {}, hmm_observation(YS), count, np.random.default_rng(0))
    with pytest.raises(ValueError, match=message):
        smc_run(_model(), {}, hmm_observation(YS), count, np.random.default_rng(0),
                pinned=Latents((0, 0)))


def test_numpy_particle_count_runs_as_the_plain_int():
    module = SmcModule(_model(), np.int64(3))
    assert type(module.num_particles) is int and module.num_particles == 3
    runs = [smc_run(_model(), {}, hmm_observation(YS), k, np.random.default_rng(4))
            for k in (3, np.int64(3))]
    assert runs[0] == runs[1]


_prob = st.one_of(st.sampled_from([0.0, 1.0]),
                  st.floats(0.05, 0.95).map(lambda p: round(p, 2)))


@st.composite
def random_hmms(draw):
    """(model, inputs, ys, p(ys | inputs)): a BinaryHmm of 1-4 steps whose
    probabilities may be exactly 0 or 1, half of them taking their
    transition pair from an input value, and an observation it can emit."""
    T = draw(st.integers(1, 4))
    init, emit = draw(_prob), (draw(_prob), draw(_prob))
    trans = (draw(_prob), draw(_prob))
    oracle_model = hmm_oracle_model(T, init, trans, emit)
    evidence = {ys: math.exp(log_evidence(oracle_model, {f"y{t}": y for t, y in enumerate(ys)}))
                for ys in itertools.product((0, 1), repeat=T)}
    ys = draw(st.sampled_from([ys for ys, p in evidence.items() if p > 0.0]))
    if draw(st.booleans()):
        return BinaryHmm(T, init, emit, trans=trans), {}, list(ys), evidence[ys]
    model = BinaryHmm(T, init, emit, trans_by_input={3: trans, 4: (0.5, 0.5)},
                      input_port="x")
    return model, {"x": discrete(3)}, list(ys), evidence[ys]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=random_hmms(), k=st.sampled_from([1, 2, 5]), seed=st.integers(0, 2**32 - 1))
def test_random_sweeps_hold_both_halves_of_the_contract(case, k, seed):
    # a step weight of 0 on the prior's support leaves some regenerate draws
    # at -inf; the harmonic mean then estimates their survival fraction, not 1
    model, inputs, ys, evidence = case
    res = check_module_contract(SmcModule(model, k), inputs, hmm_observation(ys),
                                evidence, 1000, np.random.default_rng(seed))
    assert res["z"] < 4.5 and res["harmonic"]["z"] < 4.5
