import math

import numpy as np
import pytest
from scipy import stats

from modnet.interface import SchemaError
from modnet.mh import discrete_uniform_proposal, mh_update
from modnet.outlier_oracle import conjugate_log_marginal
from modnet.outlier_regression import (
    REGRESSION_NODE,
    SWITCH_NODE,
    RegressionSequentialModel,
    build_outlier_network,
    build_regression_module,
    build_switch_prior_module,
    default_dataset,
    generate_dataset,
    load_constants,
    prior_line_state,
    reg_covariates,
    switch_prior_spec,
)
from modnet.values import discrete, real_vector


@pytest.fixture(scope="module")
def constants():
    return load_constants()


def test_dataset_regenerates_bit_identically_from_its_seed(constants):
    ds = constants["dataset"]
    regen = generate_dataset(ds["seed"])
    assert regen["responses"] == ds["responses"]
    assert regen["true_line"] == ds["true_line"]
    assert regen["covariates"] == ds["covariates"]
    assert regen["forced_outliers"] == ds["forced_outliers"]
    assert default_dataset() == ds


# -- conjugate line recursion ---------------------------------------------------

def _matrix_update(m, S, x, b, sigma):
    phi = np.array([1.0, x])
    v = S @ phi
    var = sigma * sigma + phi @ v
    r = b - phi @ m
    return m + v * r / var, S - np.outer(v, v) / var


def test_scalar_recursion_matches_matrix_form(constants):
    state = prior_line_state()
    m = np.array([0.0, 0.0])
    S = np.diag(constants["regression"]["prior_var"]).astype(float)
    points = [(0.2, 1.1, 0.22), (-0.8, -0.4, 3.16), (1.0, 0.9, 0.22),
              (0.5, -2.0, 0.22)]
    for x, b, sigma in points:
        state = state.update(x, b, sigma)
        m, S = _matrix_update(m, S, x, b, sigma)
        assert state.m0 == pytest.approx(m[0], rel=1e-12)
        assert state.m1 == pytest.approx(m[1], rel=1e-12)
        assert state.s00 == pytest.approx(S[0, 0], rel=1e-12)
        assert state.s01 == pytest.approx(S[0, 1], rel=1e-12)
        assert state.s11 == pytest.approx(S[1, 1], rel=1e-12)


def test_log_predictive_matches_a_plain_normal_density():
    state = prior_line_state().update(0.3, 0.8, 0.22)
    for x, b, sigma in [(0.3, 0.8, 0.22), (-1.0, 2.0, 3.16), (0.0, 0.0, 0.22)]:
        mean, var = state.predictive(x, sigma)
        want = stats.norm.logpdf(b, loc=mean, scale=math.sqrt(var))
        assert state.log_predictive(x, b, sigma) == pytest.approx(want, rel=1e-12)


def test_sequential_predictives_telescope_to_the_batch_marginal(constants):
    ds, reg = constants["dataset"], constants["regression"]
    sigmas = [reg["sigma_outlier"] if i in (2, 6) else reg["sigma_inlier"]
              for i in range(9)]
    state = prior_line_state()
    total = 0.0
    for x, b, sigma in zip(ds["covariates"], ds["responses"], sigmas):
        total += state.log_predictive(x, b, sigma)
        state = state.update(x, b, sigma)
    want = conjugate_log_marginal(ds["covariates"], ds["responses"], sigmas,
                                  reg["prior_mean"], reg["prior_var"])
    assert total == pytest.approx(want, rel=1e-11)


def test_sample_line_has_the_posterior_moments():
    state = prior_line_state().update(0.4, 1.2, 0.22).update(-0.6, -0.1, 0.22)
    rng = np.random.default_rng(20)
    draws = np.array([state.sample_line(rng) for _ in range(20_000)])
    n = draws.shape[0]
    assert draws[:, 0].mean() == pytest.approx(
        state.m0, abs=4 * math.sqrt(state.s00 / n))
    assert draws[:, 1].mean() == pytest.approx(
        state.m1, abs=4 * math.sqrt(state.s11 / n))
    cov = np.cov(draws.T)
    assert cov[0, 0] == pytest.approx(state.s00, abs=0.05 * state.s00 + 1e-3)
    assert cov[0, 1] == pytest.approx(state.s01, abs=5 * math.sqrt(2.0 / n))
    assert cov[1, 1] == pytest.approx(state.s11, abs=0.05 * state.s11 + 1e-3)


# -- regression module ----------------------------------------------------------

def test_first_step_weight_is_the_prior_predictive(constants):
    model = RegressionSequentialModel()
    ds = constants["dataset"]
    inputs = {"a": discrete(0)}
    state = model.initial_state(inputs)
    x, b = ds["covariates"][0], ds["responses"][0]
    sigma = constants["regression"]["sigma_inlier"]
    got, (line,) = model.step(0, [state], inputs, [0], b)
    assert got == [prior_line_state().log_predictive(x, b, sigma)]
    assert line == prior_line_state().update(x, b, sigma)
    assert model.covariates == reg_covariates()
    assert model.num_steps == 9


def test_regression_module_tracks_the_enumerated_evidence(oracle_fixtures,
                                                          constants):
    # one big sweep; the estimate concentrates on the closed-form value
    module = build_regression_module(3000)
    b = real_vector(constants["dataset"]["responses"])
    for a in (0, 1):
        lw, aux = module.regenerate({"a": discrete(a)}, {"b": b},
                                    np.random.default_rng(40 + a))
        want = oracle_fixtures["log_evidence_by_switch"][str(a)]
        assert abs(lw - want) < 0.2
        assert len(aux.latents.steps) == 9
        assert aux.latents.extra is not None and len(aux.latents.extra) == 2


def test_off_support_switch_value_weights_to_minus_inf(constants):
    module = build_regression_module(8)
    b = real_vector(constants["dataset"]["responses"])
    lw, _ = module.regenerate({"a": discrete(5)}, {"b": b},
                              np.random.default_rng(0))
    assert lw == -math.inf
    with pytest.raises(SchemaError, match="'a' expects a discrete"):
        module.regenerate({"a": real_vector([1.0])}, {"b": b},
                          np.random.default_rng(0))
    with pytest.raises(SchemaError, match="'b' expects a real vector"):
        module.regenerate({"a": discrete(0)}, {"b": discrete(1)},
                          np.random.default_rng(0))


# -- switch prior module ----------------------------------------------------------

def test_exact_switch_module_scores_the_marginal(oracle_fixtures):
    module = build_switch_prior_module(0, None)
    assert module.output_ports == ("a",)
    for a in ("0", "1"):
        lws = {
            module.regenerate({}, {"a": discrete(int(a))},
                              np.random.default_rng(seed))[0]
            for seed in range(25)
        }
        assert len(lws) == 1
        assert lws.pop() == pytest.approx(
            math.log(oracle_fixtures["switch_marginal"][a]), rel=1e-13)


def test_trained_switch_module_is_unbiased_for_the_marginal(oracle_fixtures):
    module = build_switch_prior_module(2000, np.random.default_rng(60))
    rng = np.random.default_rng(61)
    ws = np.empty(4000)
    for i in range(ws.size):
        ws[i] = math.exp(module.regenerate({}, {"a": discrete(1)}, rng)[0])
    want = oracle_fixtures["switch_marginal"]["1"]
    se = ws.std(ddof=1) / math.sqrt(ws.size)
    assert abs(ws.mean() - want) < 4.5 * se


def test_switch_simulate_frequencies(oracle_fixtures):
    module = build_switch_prior_module(0, None)
    rng = np.random.default_rng(62)
    n = 4000
    ones = sum(module.simulate({}, rng)[0]["a"].data for _ in range(n))
    p = oracle_fixtures["switch_marginal"]["1"]
    assert abs(ones / n - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_switch_spec_layout(constants):
    spec = switch_prior_spec()
    assert [v.name for v in spec.latents] == ["u1", "u2", "u3"]
    assert [v.name for v in spec.outputs] == ["a"]
    sp = constants["switch_prior"]
    assert spec.variable("u1").table[()] == (1.0 - sp["u1"], sp["u1"])
    assert spec.variable("a").table[(1,)] == (1.0 - sp["a"][1], sp["a"][1])


# -- the wired network -------------------------------------------------------------

def test_network_wiring_and_a_few_updates(constants):
    rng = np.random.default_rng(70)
    net = build_outlier_network(num_particles=10, train_samples=0, rng=rng)
    assert net.name_of(SWITCH_NODE) == "A"
    assert net.name_of(REGRESSION_NODE) == "B"
    assert net.children(SWITCH_NODE) == (REGRESSION_NODE,)
    assert net.is_observed(REGRESSION_NODE)
    net.initialize(rng)
    assert net.outputs_of(REGRESSION_NODE)["b"].data == tuple(
        constants["dataset"]["responses"])
    assert math.isfinite(net.total_log_weight())
    prop = discrete_uniform_proposal(SWITCH_NODE, (0, 1), port="a")
    for _ in range(5):
        info = mh_update(net, prop, rng)
        assert info.port == "a"
        assert net.outputs_of(SWITCH_NODE)["a"].data in (0, 1)
        assert math.isfinite(net.total_log_weight())
