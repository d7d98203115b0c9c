import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from modnet import mh, network
from modnet.interface import ExactModule, SchemaError, bernoulli_module, table_module
from modnet.mh import (
    SiteProposal,
    discrete_uniform_proposal,
    flip_proposal,
    gaussian_walk_proposal,
    mh_update,
    resolve_port,
    run_chain,
)
from modnet.network import EdgeSpec, NodeSpec, build_network
from modnet.oracle import posterior
from modnet.reference_models import (CHAIN3, chain3_network, chain3_oracle,
                                     switch_hmm_network)
from modnet.traceio import TraceAccumulator
from modnet.values import discrete, real


class CountingRng:
    """Pass-through rng that counts uniform draws and records the arguments
    of every integers call."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.random_calls = 0
        self.integers_calls = []

    def random(self):
        self.random_calls += 1
        return self._rng.random()

    def integers(self, *args, **kwargs):
        self.integers_calls.append((args, kwargs))
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _bern_lw(p1, v):
    return math.log(p1) if v == 1 else math.log1p(-p1)


def _row_lw(p1, v):
    # matches a stored CPT row (1.0 - p1, p1)
    return math.log(p1) if v == 1 else math.log(1.0 - p1)


# -- proposal library ----------------------------------------------------------

def test_flip_proposal_is_deterministic_and_symmetric():
    prop = flip_proposal(1)
    rng = np.random.default_rng(0)
    assert prop.sample(discrete(0), rng).data == 1
    assert prop.sample(discrete(1), rng).data == 0
    assert prop.log_density(discrete(1), discrete(0)) == 0.0
    assert prop.log_density(discrete(0), discrete(0)) == -math.inf
    with pytest.raises(SchemaError):
        prop.sample(discrete(2), rng)
    with pytest.raises(SchemaError):
        prop.sample(real(0.5), rng)


def test_discrete_uniform_proposal_density_and_frequencies():
    # nothing is coerced: True, 2.7 and "1" would otherwise become ints
    for bad in ([], [0, 0, 1], [True, 0], [0, 2.7], ["1"]):
        with pytest.raises(ValueError, match="'domain' must be"):
            discrete_uniform_proposal(1, bad)
    prop = discrete_uniform_proposal(1, [0, 1, 2])
    assert prop.log_density(discrete(2), discrete(0)) == pytest.approx(
        -math.log(3), rel=1e-15
    )
    assert prop.log_density(discrete(7), discrete(0)) == -math.inf
    rng = np.random.default_rng(42)
    n = 3000
    draws = [prop.sample(discrete(0), rng).data for _ in range(n)]
    assert set(draws) <= {0, 1, 2}
    se = math.sqrt((1 / 3) * (2 / 3) / n)
    for v in (0, 1, 2):
        assert abs(draws.count(v) / n - 1 / 3) < 4 * se
    # one integers(len(domain)) per draw, on a domain that is not 0..n-1
    prop = discrete_uniform_proposal(1, [5, -2, 9])
    got, ref = np.random.default_rng(43), np.random.default_rng(43)
    for _ in range(50):
        assert prop.sample(discrete(9), got) == discrete((5, -2, 9)[int(ref.integers(3))])
    assert got.bit_generator.state == ref.bit_generator.state


def test_gaussian_walk_proposal_matches_normal_density():
    # a non-finite step would only fail mid-chain; a bool is not a number
    for bad in (0.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="'sigma' must be"):
            gaussian_walk_proposal(1, bad)
    prop = gaussian_walk_proposal(1, 0.7)
    for old, new in ((0.0, 0.3), (-1.2, 2.5), (4.0, 4.0)):
        want = stats.norm.logpdf(new, loc=old, scale=0.7)
        assert prop.log_density(real(new), real(old)) == pytest.approx(
            want, rel=1e-12
        )
    rng = np.random.default_rng(9)
    draws = [prop.sample(real(2.0), rng).data for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(2.0, abs=4 * 0.7 / math.sqrt(4000))
    with pytest.raises(SchemaError):
        prop.sample(discrete(0), rng)


# -- port resolution and guard rails --------------------------------------------

def test_resolve_port():
    two_port = ExactModule(
        lambda inputs, rng: {"a": discrete(0), "b": discrete(0)},
        lambda inputs, outputs: 0.0,
        input_ports=(), output_ports=("a", "b"),
    )
    net = build_network([NodeSpec(1, two_port)], [], {})
    noop = lambda *args: None
    assert resolve_port(net, SiteProposal(1, noop, noop, port="b")) == "b"
    with pytest.raises(SchemaError, match="no output port"):
        resolve_port(net, SiteProposal(1, noop, noop, port="c"))
    with pytest.raises(SchemaError, match="must name one"):
        resolve_port(net, SiteProposal(1, noop, noop))
    single = chain3_network()
    assert resolve_port(single, flip_proposal(1)) == "z"


def test_update_refuses_observed_site():
    net = chain3_network()
    net.initialize(np.random.default_rng(0))
    with pytest.raises(SchemaError, match="observed"):
        mh_update(net, flip_proposal(3), np.random.default_rng(1))


def test_run_chain_input_validation():
    net = chain3_network()
    net.initialize(np.random.default_rng(0))
    with pytest.raises(ValueError, match="schedule is empty"):
        run_chain(net, [], 10, np.random.default_rng(1))
    with pytest.raises(SchemaError, match="observed"):
        run_chain(net, [flip_proposal(3)], 10, np.random.default_rng(1))


def test_one_entry_schedule_takes_no_scan_draw():
    # run_chain skips the draw because numpy's integers(1) is 0 and leaves
    # the generator where it was; a numpy that advanced would shift streams
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    assert [int(rng.integers(1)) for _ in range(5)] == [0] * 5
    assert rng.bit_generator.state == before

    net = chain3_network()
    rng = np.random.default_rng(12)
    net.initialize(rng)
    records = []
    run_chain(net, [flip_proposal(1)], 200, rng, sink=records.append)
    chained = ([(r.site, r.proposed_value, r.accepted, r.site_values)
                for r in records], rng.random())

    net = chain3_network()
    rng = np.random.default_rng(12)
    net.initialize(rng)
    bare = []
    for _ in range(200):
        info = mh_update(net, flip_proposal(1), rng)
        bare.append((info.site, info.proposed_value, info.accepted,
                     (net.outputs_of(1)["z"].data,)))
    assert chained == (bare, rng.random())


# -- exact agreement with a hand-rolled chain ------------------------------------

def _reference_chain3(seed, iterations):
    """Plain single-site MH on the three-node chain, written from scratch.

    Consumes the rng exactly like initialize + run_chain with flip
    proposals: two uniforms to initialize, then at iterations 0, 1024, ...
    one integers(2, size=1024) draw for the next 1,024 sites, and per update
    one uniform for the accept test.
    """
    p1, t2, t3 = CHAIN3["x1_p1"], CHAIN3["x2_p1"], CHAIN3["x3_p1"]
    rng = np.random.default_rng(seed)
    x1 = 1 if rng.random() < p1 else 0
    x2 = 0 if rng.random() < 1.0 - t2[x1] else 1
    lw1 = _bern_lw(p1, x1)
    lw2 = _row_lw(t2[x1], x2)
    lw3 = _row_lw(t3[x2], 1)
    states = []
    for it in range(iterations):
        if it % 1024 == 0:
            block = [int(k) for k in rng.integers(2, size=1024)]
        if block[it % 1024] == 0:
            new = 1 - x1
            n1 = _bern_lw(p1, new)
            n2 = _row_lw(t2[new], x2)
            log_alpha = 0.0 - 0.0 + ((n1 - lw1) + (n2 - lw2))
            if math.log(rng.random()) <= log_alpha:
                x1, lw1, lw2 = new, n1, n2
        else:
            new = 1 - x2
            n2 = _row_lw(t2[x1], new)
            n3 = _row_lw(t3[new], 1)
            log_alpha = 0.0 - 0.0 + ((n2 - lw2) + (n3 - lw3))
            if math.log(rng.random()) <= log_alpha:
                x2, lw2, lw3 = new, n2, n3
        states.append((x1, x2))
    return states


def _chain3_sites(seed, iterations):
    net = chain3_network()
    rng = np.random.default_rng(seed)
    net.initialize(rng)
    got = []
    run_chain(
        net, [flip_proposal(1), flip_proposal(2)], iterations, rng,
        sink=lambda r: got.append(r.site_values),
    )
    return got


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_random_scan_chain_matches_reference_implementation_exactly(seed):
    assert _chain3_sites(seed, 300) == _reference_chain3(seed, 300)


def test_chain_across_scan_blocks_matches_reference_implementation():
    # 2,500 iterations draw three blocks of sites, refilled at 1024 and 2048
    assert _chain3_sites(5, 2500) == _reference_chain3(5, 2500)


@pytest.mark.parametrize("iterations, blocks", [(0, 0), (1, 1), (1024, 1),
                                                (1025, 2), (2500, 3)])
def test_scan_draws_one_full_block_per_1024_iterations(iterations, blocks):
    # flip proposals and exact modules draw no integers, so every integers
    # call here is a scan draw
    net = chain3_network()
    net.initialize(np.random.default_rng(3))
    rng = CountingRng(4)
    run_chain(net, [flip_proposal(1), flip_proposal(2)], iterations, rng)
    assert rng.integers_calls == [((2,), {"size": 1024})] * blocks

    rng = CountingRng(4)
    run_chain(net, [flip_proposal(2)], iterations, rng)
    assert rng.integers_calls == []


@pytest.mark.parametrize("schedule", [[flip_proposal(2), flip_proposal(1)],
                                      [flip_proposal(1)]],
                         ids=["two-site", "one-site"])
def test_chain_is_a_prefix_of_any_longer_chain(schedule):
    def records(iterations):
        net = chain3_network()
        rng = np.random.default_rng(21)
        net.initialize(rng)
        got = []
        run_chain(net, schedule, iterations, rng, sink=got.append)
        return got

    longest = records(4000)
    for n in (200, 1024, 1025, 2500):
        assert records(n) == longest[:n]


@pytest.mark.parametrize("iterations", [-3, True, False, 2.5, 3.0, "3", None])
def test_run_chain_refuses_a_bad_iteration_count(iterations):
    net = chain3_network()
    net.initialize(np.random.default_rng(0))
    with pytest.raises(ValueError, match="iterations must be an integer >= 0, "
                       f"got {iterations!r}"):
        run_chain(net, [flip_proposal(1)], iterations, np.random.default_rng(1))


def test_run_chain_takes_zero_and_numpy_iteration_counts():
    got = []
    net = chain3_network()
    net.initialize(np.random.default_rng(0))
    run_chain(net, [flip_proposal(1), flip_proposal(2)], 0,
              np.random.default_rng(1), sink=got.append)
    assert got == []
    run_chain(net, [flip_proposal(1), flip_proposal(2)], np.int64(3),
              np.random.default_rng(1), sink=got.append)
    assert [r.iteration for r in got] == [0, 1, 2]


# -- record semantics -------------------------------------------------------------

def test_records_report_the_evaluated_configuration():
    p1, t2, t3 = CHAIN3["x1_p1"], CHAIN3["x2_p1"], CHAIN3["x3_p1"]
    net = chain3_network()
    rng = np.random.default_rng(31)
    net.initialize(rng)
    cur = {1: net.outputs_of(1)["z"].data, 2: net.outputs_of(2)["z"].data}
    records = []

    def sink(rec):
        # the stored slot must be what the module gives for the inputs the
        # wiring derives now; exact modules draw nothing from rng
        records.append(rec)
        for j in net.node_ids():
            lw, _ = net.module_of(j).regenerate(net.node(j).inputs({}),
                                                net.outputs_of(j), rng)
            assert lw.hex() == net.lookup_log_weight(j).hex()

    run_chain(net, [flip_proposal(1), flip_proposal(2)], 400, rng,
              sink=sink)
    for r in records:
        v = r.proposed_value
        if r.site == 1:
            want = {1: _bern_lw(p1, v),
                    2: _row_lw(t2[v], cur[2]),
                    3: _row_lw(t3[cur[2]], 1)}
        else:
            want = {1: _bern_lw(p1, cur[1]),
                    2: _row_lw(t2[cur[1]], v),
                    3: _row_lw(t3[v], 1)}
        # positional: site values and weights both in node order
        assert r.log_weights == (want[1], want[2], want[3])
        assert r.total_log_weight == want[1] + want[2] + want[3]
        assert not r.neg_inf_proposal
        if r.accepted:
            cur[r.site] = v
        assert r.site_values == (cur[1], cur[2])
    assert records[-1].site_values == (
        net.outputs_of(1)["z"].data, net.outputs_of(2)["z"].data)


def test_rejected_rows_keep_the_log_weight_series_moving():
    net = chain3_network()
    rng = np.random.default_rng(5)
    net.initialize(rng)
    records = []
    run_chain(net, [flip_proposal(1), flip_proposal(2)], 200, rng,
              sink=records.append)
    rejected = [r for r in records if not r.accepted]
    assert rejected, "expected some rejections in 200 iterations"
    for r in rejected:
        # the row carries the discarded proposal, not the retained state
        # sites 1 and 2 sit at positions 0 and 1 of the schedule
        assert r.site_values[r.site - 1] == 1 - r.proposed_value


# -- zero-probability proposals ----------------------------------------------------

def _dead_end_network():
    return build_network(
        [NodeSpec(1, bernoulli_module(0.5)),
         NodeSpec(2, table_module(("x",), {(0,): (0.5, 0.5), (1,): (1.0, 0.0)}))],
        [EdgeSpec(1, "z", 2, "x")],
        {2: {"z": discrete(1)}},
    )


def test_impossible_proposal_is_rejected_without_raising():
    net = _dead_end_network()
    net.initialize(np.random.default_rng(1))
    assert net.outputs_of(1)["z"].data == 0
    rng = CountingRng(8)
    info = mh_update(net, flip_proposal(1), rng)
    assert info.neg_inf_proposal
    assert not info.accepted
    assert info.log_alpha == -math.inf
    assert info.regen_log_weights[2] == -math.inf
    assert math.isfinite(info.regen_log_weights[1])
    # the accept uniform is still drawn, keeping the stream aligned
    assert rng.random_calls == 1
    # and the chain state is untouched
    assert net.outputs_of(1)["z"].data == 0
    assert all(math.isfinite(net.lookup_log_weight(j)) for j in net.node_ids())


def test_forced_rejection_leaves_stored_weights_intact():
    net = _dead_end_network()
    net.initialize(np.random.default_rng(1))
    before = {j: net.lookup_log_weight(j) for j in net.node_ids()}
    mh_update(net, flip_proposal(1), np.random.default_rng(2))
    assert {j: net.lookup_log_weight(j) for j in net.node_ids()} == before


# -- distributional correctness ------------------------------------------------------

def test_chain_recovers_enumerated_posterior():
    net = chain3_network()
    rng = np.random.default_rng(202)
    net.initialize(rng)
    records = []
    run_chain(net, [flip_proposal(1), flip_proposal(2)], 30_000, rng,
              sink=records.append)
    burn = 500
    xs1 = [r.site_values[0] for r in records[burn:]]
    xs2 = [r.site_values[1] for r in records[burn:]]
    post = posterior(chain3_oracle(), {"x3": 1}, ("x1", "x2"))
    p_x1 = post[(1, 0)] + post[(1, 1)]
    p_x2 = post[(0, 1)] + post[(1, 1)]
    assert np.mean(xs1) == pytest.approx(p_x1, abs=0.03)
    assert np.mean(xs2) == pytest.approx(p_x2, abs=0.03)


def test_empirical_acceptance_matches_analytic_ratio():
    p1, t2 = CHAIN3["x1_p1"], CHAIN3["x2_p1"]
    net = chain3_network()
    rng = np.random.default_rng(77)
    net.initialize(rng)
    cur = {1: net.outputs_of(1)["z"].data, 2: net.outputs_of(2)["z"].data}
    trials = {}
    wins = {}
    records = []
    run_chain(net, [flip_proposal(1), flip_proposal(2)], 20_000, rng,
              sink=records.append)
    for r in records:
        if r.site == 1:
            key = (cur[1], cur[2])
            trials[key] = trials.get(key, 0) + 1
            wins[key] = wins.get(key, 0) + int(r.accepted)
        if r.accepted:
            cur[r.site] = r.proposed_value
    for (x1, x2), n in trials.items():
        num = _bern_lw(p1, 1 - x1) + _row_lw(t2[1 - x1], x2)
        den = _bern_lw(p1, x1) + _row_lw(t2[x1], x2)
        alpha = min(1.0, math.exp(num - den))
        se = math.sqrt(max(alpha * (1 - alpha), 1e-12) / n)
        assert abs(wins[(x1, x2)] / n - alpha) < 5 * se + 1e-9


# -- summaries ---------------------------------------------------------------------

def test_summary_and_stats_agree_with_records():
    net = chain3_network()
    rng = np.random.default_rng(13)
    net.initialize(rng)
    records = []
    acc = TraceAccumulator({i: net.name_of(i) for i in net.node_ids()}, (1, 2))

    def sink(rec):
        records.append(rec)
        acc(rec)

    assert run_chain(net, [flip_proposal(1), flip_proposal(2)], 500, rng,
                     sink=sink) is None
    # the counts are current after a fold, which to_jsonable runs first
    rates = acc.to_jsonable()["acceptance_rates"]
    assert acc.iterations == len(records) == 500
    assert sum(acc.proposals.values()) == 500
    for site in (1, 2):
        manual = [r.accepted for r in records if r.site == site]
        assert acc.proposals[site] == len(manual)
        assert acc.accepts.get(site, 0) == sum(manual)
        assert rates[net.name_of(site)] == sum(manual) / len(manual)
    assert acc.neg_inf_proposals == sum(r.neg_inf_proposal for r in records)


# -- hot-path bookkeeping -------------------------------------------------------------

def _chain3_updates():
    net = chain3_network()
    rng = np.random.default_rng(3)
    net.initialize(rng)
    return net, [flip_proposal(1, port="z"), flip_proposal(2, port="z")], rng


def _switch_hmm_updates():
    rng = np.random.default_rng(4)
    net = switch_hmm_network(num_particles=4, train_samples=0, rng=rng)
    net.initialize(rng)
    return net, [discrete_uniform_proposal(net.id_of("A"), (0, 1), port="a")], rng


@pytest.mark.parametrize("setup", [_chain3_updates, _switch_hmm_updates],
                         ids=["chain3", "switch_hmm"])
def test_each_regenerated_weight_is_checked_once(setup, monkeypatch):
    net, schedule, rng = setup()
    calls = {"mh": 0, "network": 0}

    def counting(where, check):
        def counted(lw):
            calls[where] += 1
            return check(lw)
        return counted

    monkeypatch.setattr(mh, "check_log_weight",
                        counting("mh", mh.check_log_weight))
    monkeypatch.setattr(network, "check_log_weight",
                        counting("network", network.check_log_weight))
    accepted = 0
    for it in range(300):
        before = calls["mh"]
        info = mh_update(net, schedule[it % len(schedule)], rng)
        regenerated = 1 + len(net.node(info.site).children)
        assert len(info.regen_log_weights) == regenerated
        assert calls["mh"] - before == regenerated
        accepted += info.accepted
    # the accept path writes the slot without a second check
    assert accepted > 0 and calls["network"] == 0


# -- random exact networks against the per-update reference ----------------------

@st.composite
def exact_networks(draw):
    """2-4 nodes in id order, each a bernoulli_module or a table_module over
    (0, 1) or (0, 1, 2) on random earlier parents; rows from integer weights
    0-3, so some entries are zero and some proposals score -inf. Observed
    nodes draw weights 1-3, so every observation stays reachable. Returns
    (nodes, edges, observed, sites): plain data, so each call of _build
    makes its own modules."""
    n = draw(st.integers(2, 4))
    nodes, edges = [], []
    for i in range(1, n + 1):
        parents = [j for j in range(1, i) if draw(st.booleans())]
        domain = draw(st.sampled_from([(0, 1), (0, 1, 2)]))
        nodes.append([i, parents, domain, 0])
    observed = {}
    for node in nodes:
        if draw(st.booleans()) and len(observed) < n - 1:
            node[3] = 1
            observed[node[0]] = draw(st.sampled_from(node[2]))
    made = []
    for i, parents, domain, lo in nodes:
        keys = list(product(*[nodes[j - 1][2] for j in parents]))
        rows = {}
        for key in keys:
            w = draw(st.lists(st.integers(lo, 3), min_size=len(domain),
                              max_size=len(domain)).filter(any))
            rows[key] = tuple(x / sum(w) for x in w)
        bern = (not parents and domain == (0, 1) and 0.0 < rows[()][1] < 1.0
                and draw(st.booleans()))
        made.append((i, parents, domain, rows, bern))
        edges += [(j, i, f"x{k}") for k, j in enumerate(parents)]
    sites = []
    for i, parents, domain, rows, bern in made:
        if i in observed:
            continue
        kinds = ["uniform"] + (["flip"] if domain == (0, 1) else [])
        kind = draw(st.sampled_from(kinds))
        # a uniform proposal over a wider domain may leave the table's support
        wide = kind == "uniform" and draw(st.booleans())
        sites.append((i, kind, domain + (len(domain),) if wide else domain))
    return made, edges, observed, sites


def _build(made, edges, observed):
    specs = []
    for i, parents, domain, rows, bern in made:
        if bern:
            module = bernoulli_module(rows[()][1])
        else:
            module = table_module(tuple(f"x{k}" for k in range(len(parents))),
                                  rows, domain)
        specs.append(NodeSpec(i, module))
    return build_network(specs, [EdgeSpec(j, "z", i, port) for j, i, port in edges],
                         {i: {"z": discrete(v)} for i, v in observed.items()})


def _reference_chain(net, edges, schedule, iterations, rng):
    """The per-update loop as it stood before the family and wiring tuples:
    inputs read from the edge list, the family rebuilt every update, the
    record laid over the stored weights. Sites are drawn in blocks of 1,024
    as run_chain draws them. Returns the ChainRecords as tuples."""
    wires = {i: [(port, j) for j, k, port in edges if k == i] for i in net.node_ids()}
    children = {i: sorted({k for j, k, _ in edges if j == i}) for i in net.node_ids()}
    ids = net.node_ids()
    sites = {p.target: resolve_port(net, p) for p in schedule}
    records = []
    for it in range(iterations):
        if len(schedule) == 1:
            k = 0
        else:
            if it % 1024 == 0:
                block = [int(k) for k in rng.integers(len(schedule), size=1024)]
            k = block[it % 1024]
        prop = schedule[k]
        i = prop.target
        old = net.outputs_of(i)
        old_value = old["z"]
        new_value = prop.sample(old_value, rng)
        new = {**old, "z": new_value}
        regen = []
        delta, neg_inf = 0.0, False
        for j in (i, *children[i]):
            inputs = {port: (new if src == i else net.outputs_of(src))["z"]
                      for port, src in wires[j]}
            lw, aux = net.module_of(j).regenerate(
                inputs, new if j == i else net.outputs_of(j), rng)
            regen.append((j, lw, aux))
            if lw == -math.inf:
                neg_inf = True
            else:
                delta += lw - net.lookup_log_weight(j)
        log_alpha = -math.inf if neg_inf else (
            prop.log_density(old_value, new_value)
            - prop.log_density(new_value, old_value) + delta)
        u = rng.random()
        log_s = math.log(u) if u > 0.0 else -math.inf
        accepted = log_alpha != -math.inf and log_s <= log_alpha
        if accepted:
            net.node(i).outputs = new
            for j, lw, aux in regen:
                net.node(j).state = (lw, aux)
        lws = [net.lookup_log_weight(j) for j in ids]
        if not accepted:
            for j, lw, _ in regen:
                lws[ids.index(j)] = lw
        total = 0.0
        for lw in lws:
            total += lw
        records.append((it, i, new_value.data, accepted, neg_inf,
                        tuple(net.outputs_of(j)[sites[j]].data for j in ids if j in sites),
                        tuple(lws), total))
    return records


def _schedule(sites):
    return [flip_proposal(i, "z") if kind == "flip"
            else discrete_uniform_proposal(i, domain, "z")
            for i, kind, domain in sites]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(spec=exact_networks(), seed=st.integers(0, 2**32 - 1))
def test_chain_records_match_the_per_update_reference(spec, seed):
    made, edges, observed, sites = spec
    net, ref = _build(made, edges, observed), _build(made, edges, observed)
    for n in (net, ref):
        n.initialize(np.random.default_rng(seed))
    # every module counts its regenerate calls, reset after each record
    calls = {}
    for i in net.node_ids():
        module = net.module_of(i)

        def counted(inputs, outputs, rng, _i=i, _regenerate=module.regenerate):
            calls[_i] = calls.get(_i, 0) + 1
            return _regenerate(inputs, outputs, rng)
        module.regenerate = counted
    children = {i: {k for j, k, _ in edges if j == i} for i in net.node_ids()}
    records = []

    def sink(rec):
        # one regenerate per member of the site's family, none elsewhere
        assert calls == dict.fromkeys({rec.site, *children[rec.site]}, 1)
        calls.clear()
        records.append(rec)

    run_chain(net, _schedule(sites), 200, np.random.default_rng(seed + 1), sink)
    want = _reference_chain(ref, edges, _schedule(sites), 200,
                            np.random.default_rng(seed + 1))
    assert records == want
    assert [n.state for n in map(net.node, net.node_ids())] == \
        [n.state for n in map(ref.node, ref.node_ids())]
