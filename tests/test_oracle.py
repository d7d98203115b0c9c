import itertools
import json
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from modnet import oracle, smc
from modnet import outlier_oracle as oo
from modnet.oracle import (
    ContinuousLeaf,
    Factor,
    FactoredDiscreteModel,
    UndefinedConditionalError,
    enumerate_joint,
    evidence_and_posterior,
    log_evidence,
    posterior,
)
from modnet.outlier_regression import build_regression_module
from modnet.reference_models import CHAIN3, chain3_oracle
from modnet.values import discrete, real_vector


def _two_coin_model():
    # x ~ Bern(0.6); y | x ~ Bern(0.2 / 0.9)
    return FactoredDiscreteModel([
        Factor("x", (0, 1), (), {(): (0.4, 0.6)}),
        Factor("y", (0, 1), ("x",), {(0,): (0.8, 0.2), (1,): (0.1, 0.9)}),
    ])


def test_enumeration_matches_hand_products():
    joint = enumerate_joint(_two_coin_model())
    assert joint[(0, 0)] == pytest.approx(0.4 * 0.8, abs=1e-15)
    assert joint[(0, 1)] == pytest.approx(0.4 * 0.2, abs=1e-15)
    assert joint[(1, 0)] == pytest.approx(0.6 * 0.1, abs=1e-15)
    assert joint[(1, 1)] == pytest.approx(0.6 * 0.9, abs=1e-15)


def test_evidence_and_posterior_by_hand():
    m = _two_coin_model()
    p_y1 = 0.4 * 0.2 + 0.6 * 0.9
    assert log_evidence(m, {"y": 1}) == pytest.approx(math.log(p_y1), rel=1e-14)
    post = posterior(m, {"y": 1}, ("x",))
    assert post[(1,)] == pytest.approx(0.6 * 0.9 / p_y1, rel=1e-14)
    assert post[(0,)] + post[(1,)] == pytest.approx(1.0, abs=1e-12)


def test_observation_and_query_names_are_checked():
    m = _two_coin_model()
    with pytest.raises(ValueError, match="unknown variables"):
        log_evidence(m, {"b": 0.5})
    with pytest.raises(ValueError, match="unknown variables"):
        posterior(m, {"b": 0.5}, ("x",))
    with pytest.raises(ValueError, match="is observed"):
        posterior(m, {"x": 1}, ("x",))
    with pytest.raises(KeyError):
        posterior(m, {}, ("b",))
    with_leaf = FactoredDiscreteModel(m.factors,
                                      ContinuousLeaf("b", ("x", "y"), _leaf_log_density))
    assert log_evidence(with_leaf, {"b": 0.5}) == pytest.approx(
        math.log(sum(p * math.exp(_leaf_log_density({"x": x, "y": y}, 0.5))
                     for (x, y), p in enumerate_joint(m).items())), rel=1e-14)


def test_zero_probability_conditioning_is_refused():
    m = FactoredDiscreteModel([
        Factor("x", (0, 1), (), {(): (1.0, 0.0)}),
    ])
    with pytest.raises(UndefinedConditionalError):
        posterior(m, {"x": 1}, ())


def test_model_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        FactoredDiscreteModel([
            Factor("x", (0, 1), (), {(): (0.5, 0.6)}),  # does not sum to 1
        ])
    with pytest.raises(ValueError):
        FactoredDiscreteModel([
            Factor("x", (0, 1), ("ghost",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}),
        ])
    with pytest.raises(ValueError):
        FactoredDiscreteModel([
            Factor("x", (0, 1), (), {(): (0.4, 0.6)}),
            Factor("y", (0, 1), ("x",), {(0,): (0.8, 0.2)}),  # missing row
        ])


@pytest.mark.parametrize("factors", [
    [Factor("x", (0, 1), (), {(): (math.nan, 1.0)})],
    [Factor("w", (0, 1), (), {(): (0.5, 0.5)}),
     Factor("x", (0, 1), ("w",), {(0,): (0.5, 0.5), (2,): (0.5, 0.5)})],
    [Factor("x", (0, 0), (), {(): (0.5, 0.5)})],
], ids=["nan_entry", "row_key_outside_parent_domain", "duplicate_domain_value"])
def test_malformed_factor_is_refused_at_construction(factors):
    with pytest.raises(ValueError, match="'x'"):
        FactoredDiscreteModel(factors)


@pytest.mark.parametrize("parents", [("ghost",), ("x", "x"), ("b",)],
                         ids=["unknown_variable", "repeated_variable", "itself"])
def test_leaf_reading_anything_but_distinct_variables_is_refused(parents):
    with pytest.raises(ValueError, match="leaf 'b'"):
        FactoredDiscreteModel(_two_coin_model().factors,
                              ContinuousLeaf("b", parents, _leaf_log_density))


def test_a_model_past_the_configuration_cap_is_refused_before_any_allocation():
    coins = [Factor(f"c{i}", (0, 1), (), {(): (0.5, 0.5)}) for i in range(21)]
    assert len(coins) == oracle.MAX_CONFIGS.bit_length()
    FactoredDiscreteModel(coins[:-1])  # exactly at the cap
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            FactoredDiscreteModel(coins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _leaf_log_density(config, obs):
    return -0.5 * (obs - sum(config.values()) / 3.0) ** 2 - 0.9189385332046727


@st.composite
def small_models(draw):
    """1-4 variables over 2-3 consecutive values that need not start at zero,
    random parents among earlier variables, rows from integer weights 0-3 so
    some entries are zero, an optional leaf that reads a random subset of the
    variables, and an observation that fixes some variables; returns (model,
    observation, query)."""
    factors: list[Factor] = []
    for i in range(draw(st.integers(1, 4))):
        start = draw(st.integers(-2, 5))
        domain = tuple(range(start, start + draw(st.integers(2, 3))))
        parents = [f for f in factors if draw(st.booleans())]
        table = {}
        for key in itertools.product(*[f.domain for f in parents]):
            weights = draw(st.lists(st.integers(0, 3), min_size=len(domain),
                                    max_size=len(domain)).filter(any))
            table[key] = tuple(w / sum(weights) for w in weights)
        factors.append(Factor(f"v{i}", domain, tuple(f.var for f in parents), table))
    leaf = None
    if draw(st.booleans()):
        reads = tuple(f.var for f in factors if draw(st.booleans()))
        leaf = ContinuousLeaf("y", reads, _leaf_log_density)
    observation = {f.var: draw(st.sampled_from(f.domain))
                   for f in factors if draw(st.booleans())}
    if leaf is not None and draw(st.booleans()):
        observation["y"] = draw(st.floats(-3.0, 3.0))
    query = tuple(f.var for f in factors
                  if f.var not in observation and draw(st.booleans()))
    return FactoredDiscreteModel(factors, leaf), observation, query


def _ref_logsumexp(vals):
    m = max(vals)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in vals))


def _ref_configs(model, observation):
    """Every configuration, as a fresh dict, with its probability found by
    domain.index in each factor's table, factors multiplied in order."""
    names = [f.var for f in model.factors]
    domains = [(observation[f.var],) if f.var in observation else f.domain
               for f in model.factors]
    for combo in itertools.product(*domains):
        config = dict(zip(names, combo))
        p = 1.0
        for f in model.factors:
            p *= f.table[tuple(config[q] for q in f.parents)][
                f.domain.index(config[f.var])]
        yield config, p


def _ref_log_terms(model, observation):
    observation = dict(observation)
    leaf_obs = None
    if model.leaf is not None and model.leaf.name in observation:
        leaf_obs = observation.pop(model.leaf.name)
    for config, p in _ref_configs(model, observation):
        if p == 0.0:
            continue
        lp = math.log(p)
        if leaf_obs is not None:
            # the leaf at this one assignment: one-entry columns
            dens = model.leaf.log_density(
                {q: np.array([config[q]]) for q in model.leaf.parents}, leaf_obs)
            lp += float(np.broadcast_to(dens, (1,))[0])
        yield config, lp


def _ref_log_evidence(model, observation):
    terms = [lp for _, lp in _ref_log_terms(model, observation)]
    return _ref_logsumexp(terms) if terms else -math.inf


def _ref_posterior(model, observation, query):
    log_terms = {}
    for config, lp in _ref_log_terms(model, observation):
        log_terms.setdefault(tuple(config[q] for q in query), []).append(lp)
    if not log_terms:
        return None
    log_probs = {k: _ref_logsumexp(v) for k, v in log_terms.items()}
    log_total = _ref_logsumexp(list(log_probs.values()))
    return {k: math.exp(lp - log_total) for k, lp in log_probs.items()}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=small_models())
def test_enumeration_matches_the_per_configuration_reference(case):
    model, observation, query = case
    assert log_evidence(model, observation) == _ref_log_evidence(model, observation)
    want = _ref_posterior(model, observation, query)
    if want is None:
        with pytest.raises(UndefinedConditionalError):
            posterior(model, observation, query)
        return
    assert posterior(model, observation, query) == want
    log_ev, log_joint, post = evidence_and_posterior(model, observation, query)
    assert log_ev == _ref_log_evidence(model, observation)
    assert post == want
    assert log_joint == {
        k: _ref_log_evidence(model, {**observation, **dict(zip(query, k))})
        for k in want}
    if model.leaf is None:
        joint = {tuple(c.values()): p for c, p in _ref_configs(model, {})}
        assert enumerate_joint(model) == joint


def test_chain3_posterior_by_hand_enumeration():
    # independent arithmetic straight from the published constants
    p1 = CHAIN3["x1_p1"]
    t2 = CHAIN3["x2_p1"]
    t3 = CHAIN3["x3_p1"]
    joint = {}
    for x1 in (0, 1):
        for x2 in (0, 1):
            px1 = p1 if x1 else 1 - p1
            px2 = t2[x1] if x2 else 1 - t2[x1]
            px3 = t3[x2]  # observed x3 = 1
            joint[(x1, x2)] = px1 * px2 * px3
    total = sum(joint.values())
    want_x1 = (joint[(1, 0)] + joint[(1, 1)]) / total

    post = posterior(chain3_oracle(), {"x3": CHAIN3["observed_x3"]}, ("x1",))
    assert post[(1,)] == pytest.approx(want_x1, rel=1e-13)


def test_switch_marginal_by_hand_path_sum():
    c = oo.load_constants()["switch_prior"]
    p_a1 = 0.0
    for u1 in (0, 1):
        for u2 in (0, 1):
            for u3 in (0, 1):
                p = (c["u1"] if u1 else 1 - c["u1"])
                p *= c["u2"][u1] if u2 else 1 - c["u2"][u1]
                p *= c["u3"][u2] if u3 else 1 - c["u3"][u2]
                p *= c["a"][u3]
                p_a1 += p
    marg = oo.switch_marginal()
    assert marg[1] == pytest.approx(p_a1, rel=1e-14)
    assert marg[0] + marg[1] == pytest.approx(1.0, abs=1e-12)


def test_conjugate_marginal_against_multivariate_normal():
    c = oo.load_constants()
    xs = c["dataset"]["covariates"]
    bs = c["dataset"]["responses"]
    reg = c["regression"]
    X = np.column_stack([np.ones(len(xs)), xs])
    cov_prior = X @ np.diag(reg["prior_var"]) @ X.T
    for sigmas in (
        [reg["sigma_inlier"]] * 9,
        [reg["sigma_outlier"]] * 9,
        [reg["sigma_outlier"] if i in (2, 6) else reg["sigma_inlier"]
         for i in range(9)],
    ):
        want = stats.multivariate_normal.logpdf(
            bs, mean=X @ np.asarray(reg["prior_mean"]),
            cov=cov_prior + np.diag(np.square(sigmas)),
        )
        got = oo.conjugate_log_marginal(
            xs, bs, sigmas, reg["prior_mean"], reg["prior_var"]
        )
        assert got == pytest.approx(want, rel=1e-12)


def test_fixture_file_matches_live_enumeration(oracle_fixtures):
    assert oo.compute_fixtures() == oracle_fixtures


def _neumaier_sum(xs, start=0):
    """sum() of floats as Python 3.12 computes it: Neumaier's compensated
    summation, the compensation added once at the end when finite."""
    total, c = float(start), 0.0
    for x in xs:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_pinned_floats_do_not_depend_on_the_python_sum(monkeypatch,
                                                       oracle_fixtures):
    # a K=30 sweep's log Z-hat and the fixture file hold the doubles of a
    # left-to-right sum; under a compensated sum() both must stay the same
    assert _neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    b = real_vector(oo.load_constants()["dataset"]["responses"])
    monkeypatch.setattr(smc, "sum", _neumaier_sum, raising=False)
    monkeypatch.setattr(oracle, "sum", _neumaier_sum, raising=False)
    lw, _ = build_regression_module(30).regenerate(
        {"a": discrete(1)}, {"b": b}, np.random.default_rng(0))
    assert repr(lw) == "-11.11429329780598"
    assert oo.compute_fixtures() == oracle_fixtures


def test_leaf_is_evaluated_once_per_indicator_pattern(monkeypatch):
    calls = []
    closed_form = oo.conjugate_log_marginal

    def counted(*args):
        calls.append(args)
        return closed_form(*args)

    monkeypatch.setattr(oo, "conjugate_log_marginal", counted)
    n = len(oo.load_constants()["dataset"]["covariates"])
    first = oo.compute_fixtures()
    assert len(calls) == 1
    sigmas = calls[0][2]
    assert sigmas.shape == (2 ** n, n) == (512, 9)
    assert len(np.unique(sigmas, axis=0)) == 512  # every pattern, once
    # a second call builds a fresh model and enumerates again from scratch
    assert oo.compute_fixtures() == first
    assert len(calls) == 2


def test_batched_rows_equal_the_one_row_call(monkeypatch):
    calls = []
    closed_form = oo.conjugate_log_marginal
    monkeypatch.setattr(oo, "conjugate_log_marginal",
                        lambda *args: calls.append(args) or closed_form(*args))
    oo.compute_fixtures()
    (xs, bs, sigmas, prior_mean, prior_var), = calls
    batch = closed_form(xs, bs, sigmas, prior_mean, prior_var)
    for row, got in zip(sigmas.tolist(), batch.tolist()):
        one = closed_form(xs, bs, row, prior_mean, prior_var)
        assert type(one) is float
        assert repr(got) == repr(one)
    with pytest.raises(ValueError, match="equal length"):
        closed_form(xs, bs, sigmas[:, 1:], prior_mean, prior_var)


def test_pinned_floats_do_not_depend_on_numpy_kernels(monkeypatch, oracle_fixtures):
    # numpy's exp and log may round differently from libm by build, and its
    # sum adds pairwise; the fixture bits come from math and a fold alone
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called a numpy kernel its bits must not depend on")

    guarded = {name: refuse for name in ("exp", "log", "sum")}
    for module in (oracle, oo):
        monkeypatch.setattr(module, "np",
                            types.SimpleNamespace(**{**vars(np), **guarded}))
        with pytest.raises(AssertionError):
            module.np.log(1.0)
    assert oo.compute_fixtures() == oracle_fixtures


def _fold_reference(xs):
    total = 0.0
    for x in xs:
        total += x
    return total


@settings(derandomize=True, deadline=None, max_examples=300)
@given(xs=st.lists(st.floats(-1e300, 1e300).filter(
    lambda x: x != 0.0 or math.copysign(1.0, x) > 0), min_size=1, max_size=60))
def test_the_fold_adds_left_to_right_bit_for_bit(xs):
    # np.add.accumulate adds each entry to the running total, so it rounds
    # as a Python loop does, unlike np.sum's pairwise tree
    assert repr(oracle._fold(np.array(xs))) == repr(_fold_reference(xs))


def test_the_fold_is_not_a_pairwise_sum():
    xs = np.array([1.0] + [2.0 ** -53] * 16)
    assert oracle._fold(xs) == 1.0 == _fold_reference(xs.tolist())
    assert float(np.sum(xs)) != 1.0


def _counting_leaf(calls):
    def leaf(columns, obs):
        calls.append({k: v.tolist() for k, v in columns.items()})
        return _leaf_log_density(columns, obs)
    return leaf


def test_leaf_is_called_once_per_assignment_of_its_parents():
    calls = []
    m = FactoredDiscreteModel([
        Factor("x", (0, 1), (), {(): (0.4, 0.6)}),
        Factor("y", (0, 1, 2), ("x",), {(0,): (0.2, 0.3, 0.5), (1,): (0.5, 0.0, 0.5)}),
        Factor("z", (0, 1), ("y",), {(y,): (0.5, 0.5) for y in (0, 1, 2)}),
    ], ContinuousLeaf("w", ("z", "x"), _counting_leaf(calls)))
    post = posterior(m, {"w": 0.5}, ("y",))
    # one call; columns in product order over (x, z), the factor order
    assert calls == [{"x": [0, 0, 1, 1], "z": [0, 1, 0, 1]}]
    assert post == _ref_posterior(m, {"w": 0.5}, ("y",))
    # an observed parent's column repeats its value
    calls.clear()
    log_ev = log_evidence(m, {"w": 0.5, "x": 1})
    assert calls == [{"x": [1, 1], "z": [0, 1]}]
    assert log_ev == _ref_log_evidence(m, {"w": 0.5, "x": 1})


@pytest.mark.parametrize("parents, observation", [
    ((), {"w": 0.5}),
    (("x", "z"), {"w": 0.5, "x": 1, "z": 0}),
], ids=["reads_no_variable", "all_parents_observed"])
def test_leaf_with_no_open_parent(parents, observation):
    calls = []
    m = FactoredDiscreteModel([
        Factor("x", (0, 1), (), {(): (0.4, 0.6)}),
        Factor("y", (0, 1, 2), ("x",), {(0,): (0.2, 0.3, 0.5), (1,): (0.5, 0.0, 0.5)}),
        Factor("z", (0, 1), ("y",), {(y,): (0.3, 0.7) for y in (0, 1, 2)}),
    ], ContinuousLeaf("w", parents, _counting_leaf(calls)))
    log_ev, log_joint, post = evidence_and_posterior(m, observation, ("y",))
    assert calls == [{p: [observation[p]] for p in parents}]
    assert log_ev == _ref_log_evidence(m, observation)
    assert post == _ref_posterior(m, observation, ("y",))
    assert log_joint == {k: _ref_log_evidence(m, {**observation, "y": k[0]})
                         for k in post}


def test_fixture_internal_consistency(oracle_fixtures):
    j0 = oracle_fixtures["log_evidence_joint_by_switch"]["0"]
    j1 = oracle_fixtures["log_evidence_joint_by_switch"]["1"]
    total = np.logaddexp(j0, j1)
    assert oracle_fixtures["log_evidence_dataset"] == pytest.approx(total, rel=1e-14)
    assert oracle_fixtures["posterior_switch_one"] == pytest.approx(
        math.exp(j1 - total), rel=1e-13
    )
    for a in ("0", "1"):
        joint = oracle_fixtures["log_evidence_joint_by_switch"][a]
        cond = oracle_fixtures["log_evidence_by_switch"][a]
        prior = oracle_fixtures["switch_marginal"][a]
        assert joint == pytest.approx(cond + math.log(prior), rel=1e-13)


def test_write_fixtures_is_idempotent(tmp_path, oracle_fixtures):
    p = tmp_path / "fx.json"
    oo.write_fixtures(p, oo.compute_fixtures())
    first = p.read_bytes()
    oo.write_fixtures(p, oo.compute_fixtures())
    assert p.read_bytes() == first
    assert json.loads(first) == oracle_fixtures


def test_failed_fixture_write_keeps_the_old_file(tmp_path, monkeypatch, oracle_fixtures):
    p = tmp_path / "oracle_fixtures.json"
    oo.write_fixtures(p, oracle_fixtures)
    before = p.read_bytes()

    def dump_halfway(doc, fh, **kwargs):
        fh.write('{\n  "dataset": ')
        raise OSError("device full")

    monkeypatch.setattr(oo.json, "dump", dump_halfway)
    with pytest.raises(OSError, match="device full"):
        oo.write_fixtures(p, {"schema": 1})
    assert p.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [p]
