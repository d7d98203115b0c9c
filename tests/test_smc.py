import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from modnet.interface import DegenerateTraceError, SchemaError
from modnet.oracle import log_evidence
from modnet.outlier_regression import RegressionSequentialModel, default_dataset
from modnet.reference_models import BinaryHmm, hmm_oracle_model, hmm_observation
from modnet.smc import Latents, SmcModule, logsumexp, recompute_log_z, smc_run
from modnet.values import discrete, real_vector

INIT_P1 = 0.6
TRANS = (0.3, 0.8)
EMIT = (0.2, 0.75)
YS = [1, 0]


def _model(num_steps=2):
    return BinaryHmm(num_steps, INIT_P1, EMIT, trans=TRANS)


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
    assert logsumexp(vals) == pytest.approx(scipy_logsumexp(vals), rel=1e-14)
    assert logsumexp([-math.inf, -math.inf]) == -math.inf
    assert logsumexp([0.0]) == 0.0


def test_oracle_route_agrees_with_four_term_sum():
    want = _hand_evidence()
    got = log_evidence(hmm_oracle_model(2, INIT_P1, TRANS, EMIT),
                       {"y0": YS[0], "y1": YS[1]})
    assert got == pytest.approx(math.log(want), rel=1e-13)


def test_single_particle_log_z_is_the_path_score():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v, ps = smc_run(_model(), {}, hmm_observation(YS), 1, rng)
        assert ps.num_particles == 1
        assert ps.selected == 0
        assert ps.ancestors == ((0,), (0,))
        assert ps.log_z == sum(row[0] for row in ps.log_weights)
        assert v.steps == tuple(row[0] for row in ps.latents)
        # pinned, the only particle is the pinned path: same score, bit for bit
        _, cps = smc_run(_model(), {}, hmm_observation(YS), 1, rng, pinned=v)
        assert cps.log_z == ps.log_z


def test_selected_trajectory_is_the_ancestral_lineage():
    model = _model(num_steps=5)
    outputs = hmm_observation([1, 0, 1, 1, 0])
    rng = np.random.default_rng(8)
    moved = 0
    for _ in range(50):
        v, ps = smc_run(model, {}, outputs, 6, rng)
        lineage, a = [], ps.selected
        for t in reversed(range(5)):
            lineage.append(ps.latents[t][a])
            a = ps.ancestors[t][a]
        assert v.steps == tuple(reversed(lineage))
        moved += any(row != tuple(range(6)) for row in ps.ancestors[1:])
    assert moved > 0  # resampling really relabeled particles


def test_estimate_is_unbiased_for_the_evidence():
    rng = np.random.default_rng(2024)
    outputs = hmm_observation(YS)
    model = _model()
    zs = np.empty(20_000)
    for i in range(zs.size):
        _, ps = smc_run(model, {}, outputs, 5, rng)
        zs[i] = math.exp(ps.log_z)
    want = _hand_evidence()
    se = zs.std(ddof=1) / math.sqrt(zs.size)
    assert abs(zs.mean() - want) < 4.5 * se


def test_simulated_weight_satisfies_the_harmonic_identity():
    # For a fixed output z*, exp(-lw) 1{z = z*} averages to one under simulate.
    module = SmcModule(_model(), 5)
    rng = np.random.default_rng(99)
    target = tuple(YS)
    acc = np.zeros(20_000)
    for i in range(acc.size):
        outputs, lw, _aux = module.simulate({}, rng)
        if outputs["y"].data == target:
            acc[i] = math.exp(-lw)
    se = acc.std(ddof=1) / math.sqrt(acc.size)
    assert abs(acc.mean() - 1.0) < 4.5 * se


def test_conditional_sweep_pins_one_slot():
    pinned = Latents((1, 0))
    rng = np.random.default_rng(17)
    for _ in range(10):
        v, ps = smc_run(_model(), {}, hmm_observation(YS), 6, rng, pinned=pinned)
        slot = ps.selected
        assert v is pinned
        for t in range(2):
            assert ps.latents[t][slot] == pinned.steps[t]
        assert ps.ancestors[0] == tuple(range(6))
        assert ps.ancestors[1][slot] == slot


def test_replay_reproduces_log_z_bit_for_bit():
    cases = [
        (_model(), {}, hmm_observation(YS)),
        (RegressionSequentialModel(), {"a": discrete(1)},
         {"b": real_vector(default_dataset()["responses"])}),
    ]
    for model, inputs, outputs in cases:
        for seed in range(50):
            rng = np.random.default_rng(seed)
            v, ps = smc_run(model, inputs, outputs, 4, rng)
            assert recompute_log_z(model, inputs, outputs, ps) == ps.log_z
            _, cps = smc_run(model, inputs, outputs, 4, rng, pinned=v)
            assert recompute_log_z(model, inputs, outputs, cps) == cps.log_z


def test_dead_inputs_give_minus_inf_without_raising():
    # an input value with no transition entry weights every step to -inf
    model = BinaryHmm(2, INIT_P1, EMIT,
                      trans_by_input={0: TRANS, 1: TRANS}, input_port="s")
    inputs = {"s": discrete(7)}
    rng = np.random.default_rng(12)
    v, ps = smc_run(model, inputs, hmm_observation(YS), 5, rng)
    assert ps.log_z == -math.inf
    assert len(v.steps) == 2
    assert all(0 <= a < 5 for row in ps.ancestors for a in row)
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
    v, ps = smc_run(model, {"s": discrete(0)}, hmm_observation(YS), 4,
                    np.random.default_rng(3))
    assert (lw, aux) == (ps.log_z, v)
    assert len(aux.steps) == 2


def test_size_validation():
    with pytest.raises(ValueError):
        smc_run(_model(), {}, hmm_observation(YS), 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        smc_run(_model(), {}, hmm_observation(YS), 0, np.random.default_rng(0),
                pinned=Latents((0, 0)))
    with pytest.raises(ValueError):
        SmcModule(_model(), 0)
    with pytest.raises(SchemaError, match="observation steps"):
        smc_run(_model(), {}, hmm_observation([1, 0, 1]), 3,
                np.random.default_rng(0))
    with pytest.raises(SchemaError, match="pinned trajectory"):
        smc_run(_model(), {}, hmm_observation(YS), 3, np.random.default_rng(0),
                pinned=Latents((0,)))

