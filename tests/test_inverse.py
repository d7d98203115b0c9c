import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnet import inverse
from modnet.interface import SchemaError, _walk, table_module
from modnet.inverse import (
    DiscreteModelSpec,
    InverseModule,
    VariableSpec,
    exact_inverse,
    train_inverse,
)
from modnet.oracle import Factor, FactoredDiscreteModel, log_evidence
from modnet.outlier_regression import switch_prior_spec
from modnet.reference_models import switch_spec
from modnet.validation import check_module_contract
from modnet.values import discrete, real

U1 = (0.7, 0.3)
U2 = {(0,): (0.8, 0.2), (1,): (0.4, 0.6)}
Z = {(0,): (0.9, 0.1), (1,): (0.25, 0.75)}


def _spec():
    return DiscreteModelSpec(
        latents=(
            VariableSpec("u1", (0, 1), (), {(): U1}),
            VariableSpec("u2", (0, 1), ("u1",), U2),
        ),
        outputs=(VariableSpec("z", (0, 1), ("u2",), Z),),
    )


def _joint(u1, u2, z):
    return U1[u1] * U2[(u1,)][u2] * Z[(u2,)][z]


def _p_z(z):
    return sum(_joint(a, b, z) for a in (0, 1) for b in (0, 1))


def _check_rows(inv):
    """Every row sums to 1 within 1e-12, and a learned row has no zero entry."""
    for f in inv.factors:
        for key, row in f.table.items():
            assert abs(float(sum(row)) - 1.0) <= 1e-12, (f.var, key)
            assert inv.exact or all(float(p) > 0.0 for p in row), (f.var, key)


# -- spec validation -----------------------------------------------------------

def test_spec_rejects_malformed_variables():
    good = VariableSpec("u1", (0, 1), (), {(): U1})
    cases = [
        ("duplicate variable", [good, good]),
        ("domain must be nonempty", [VariableSpec("v", (), (), {(): ()})]),
        ("domain must be nonempty and distinct",
         [VariableSpec("v", (0, 0), (), {(): (0.5, 0.5)})]),
        ("domain values must be ints",
         [VariableSpec("v", (True, False), (), {(): (0.5, 0.5)})]),
        ("not an earlier variable",
         [VariableSpec("v", (0, 1), ("ghost",),
                       {(0,): (0.5, 0.5), (1,): (0.5, 0.5)})]),
        ("entries", [VariableSpec("v", (0, 1), (), {(): (1.0,)})]),
        ("not a probability", [VariableSpec("v", (0, 1), (), {(): (1.2, -0.2)})]),
        ("sums to", [VariableSpec("v", (0, 1), (), {(): (0.6, 0.6)})]),
        ("missing table row",
         [good, VariableSpec("v", (0, 1), ("u1",), {(0,): (0.5, 0.5)})]),
    ]
    for why, latents in cases:
        with pytest.raises(SchemaError, match=why):
            DiscreteModelSpec(latents=tuple(latents), outputs=())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.2, 1.5])
def test_spec_refuses_an_entry_outside_the_unit_interval(bad):
    # NaN fails both the sign test and the sum test, so it is refused by
    # name, as every entry outside [0, 1] is, whatever the row sums to
    good = VariableSpec("u", (0, 1), (), {(): (0.5, 0.5)})
    rows = {(0,): (0.5, 0.5), (1,): (bad, 1.0)}
    with pytest.raises(SchemaError, match=r"^v: row \(1,\) has .*not a probability"):
        DiscreteModelSpec(latents=(good, VariableSpec("v", (0, 1), ("u",), rows)),
                          outputs=())


def test_parent_order_is_declaration_order():
    # an output may depend on any earlier variable, including other outputs
    DiscreteModelSpec(
        latents=(VariableSpec("u", (0, 1), (), {(): (0.5, 0.5)}),),
        outputs=(
            VariableSpec("z1", (0, 1), ("u",), U2),
            VariableSpec("z2", (0, 1), ("z1",), U2),
        ),
    )


# -- forward sampling ----------------------------------------------------------

def test_forward_sample_matches_marginals():
    spec = _spec()
    module = InverseModule(spec, exact_inverse(spec))
    rng = np.random.default_rng(10)
    n = 8000
    hits = sum(module.simulate({}, rng)[0]["z"].data for _ in range(n))
    p1 = _p_z(1)
    assert abs(hits / n - p1) < 4 * math.sqrt(p1 * (1 - p1) / n)


def _order(spec):
    """train_inverse's code order: outputs, then latents last to first."""
    return (*spec.outputs, *reversed(spec.latents))


def _walk_law(row):
    """The probability _walk gives each value of a row: the measure of the
    uniforms in [0, 1) it sends there, between the running float sums on
    either side of the value, each clipped to 1; the last positive entry
    takes everything from its start up to 1, and the entries after it
    nothing."""
    last = max(j for j, p in enumerate(row) if p > 0.0)
    starts = [min(x, 1.0) for x in accumulate(map(float, row[:last]), initial=0.0)]
    return ([b - a for a, b in zip(starts, starts[1:] + [1.0])]
            + [0.0] * (len(row) - 1 - last))


def _reference_law(spec):
    """The normalised forward law at each full assignment, in code order,
    one product of walk probabilities per assignment."""
    names = [v.name for v in _order(spec)]
    law = []
    for combo in product(*[v.domain for v in _order(spec)]):
        assign = dict(zip(names, combo))
        law.append(math.prod(
            _walk_law(v.table[tuple(assign[q] for q in v.parents)])[
                v.domain.index(assign[v.name])] for v in spec.variables))
    law = np.array(law)
    return law / law.sum()


class _CountingRng:
    """A generator that keeps every count vector its multinomial draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def multinomial(self, n, pvals):
        out = self.rng.multinomial(n, pvals)
        self.draws.append(out)
        return out


def _walk_spec(*, high=0.3):
    """Zero-probability entries, a non-zero-based domain, w rows summing to
    1 + 5e-10 (whose running sum passes 1 before the last value) and
    1 - 5e-10, and u's row summing to 0.7 + high."""
    return DiscreteModelSpec(
        latents=(VariableSpec("u", (0, 1, 2), (), {(): (0.2, 0.5, high)}),),
        outputs=(VariableSpec("w", (3, 5, 7, 9), ("u",), {
            (0,): (0.1, 0.2, 0.3, 0.4),
            (1,): (0.0, 0.5 + 5e-10, 0.5, 0.0),
            (2,): (0.25, 0.25, 0.25, 0.25 - 5e-10)}),),
    )


@pytest.mark.parametrize("high", [0.3, 0.3 + 5e-10, 0.3 - 5e-10])
def test_training_law_is_the_walks_law(high):
    # the law counts are drawn from is, to the bit, the product of the
    # probabilities the forward walk gives each row's values; each value's
    # interval of uniforms is checked against _walk at both its ends
    spec = _walk_spec(high=high)
    for v in spec.variables:
        for row in v.table.values():
            starts = [min(x, 1.0) for x in accumulate(row[:-1], initial=0.0)]
            for j, (lo, p) in enumerate(zip(starts, _walk_law(row))):
                assert p >= 0.0
                if p > 0.0:
                    for u in (lo, float(np.nextafter(lo + p, 0.0))):
                        assert _walk(v.domain, row, u) == v.domain[j]
    law, possible = inverse._joint(spec, False)
    assert law.tolist() == _reference_law(spec).tolist()
    assert law[possible].sum() > 0.0 and not law[~possible].any()
    # u's last value takes 1 - 0.7 whatever its own entry: a short row's
    # missing mass goes to the last value, as the walk's fallback sends it
    # there, and a long row's excess is dropped; so does w's at u = 1, whose
    # running sum passes 1 at value 7
    assert abs(law.reshape(4, 3).sum(axis=0)[2] - 0.3) < 1e-15
    assert law.reshape(4, 3)[:, 1].tolist() == pytest.approx(
        [0.0, 0.5 * (0.5 + 5e-10), 0.5 * (1.0 - (0.5 + 5e-10)), 0.0], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("make", [_spec, _walk_spec], ids=["chain", "walk"])
def test_training_counts_follow_the_forward_law(make):
    # the one count draw per training call is Multinomial(n, p) over the
    # joint: every cell's mean and variance over many seeds against n p and
    # n p (1 - p), each within 4 SE
    spec = make()
    n, seeds = 1000, 2000
    p = _reference_law(spec)
    draws = []
    for seed in range(seeds):
        rng = _CountingRng(seed)
        train_inverse(spec, n, rng)
        (counts,) = rng.draws
        assert counts.sum() == n
        draws.append(counts)
    counts = np.array(draws, dtype=float)
    mean, var = counts.mean(axis=0), counts.var(axis=0, ddof=1)
    for k, pk in enumerate(p):
        sigma2 = n * pk * (1.0 - pk)
        if sigma2 == 0.0:
            assert not counts[:, k].any()
            continue
        mu4 = sigma2 * (1.0 + 3.0 * (n - 2) * pk * (1.0 - pk))
        assert abs(mean[k] - n * pk) < 4.0 * math.sqrt(sigma2 / seeds)
        assert abs(var[k] - sigma2) < 4.0 * math.sqrt((mu4 - sigma2**2) / seeds
                                                      + 2.0 * sigma2**2 / seeds**2)


def test_training_memory_does_not_grow_with_the_sample_count():
    # one count draw over the joint: after a warm-up call, the same peak at
    # 1e2 and 1e9 samples up to the few hundred bytes that Python's free
    # lists move between any two calls; forward-sampling 1e6 samples held
    # 5 MiB
    spec = switch_prior_spec()
    train_inverse(spec, 100, np.random.default_rng(0))
    peaks = []
    for n in (100, 10**9):
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            inv = train_inverse(spec, n, rng)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert inv.n_train == n
    assert max(peaks) <= 64 * 2**10
    assert abs(peaks[0] - peaks[1]) <= 2**10


# -- exact inverse ---------------------------------------------------------------

def test_exact_inverse_rows_are_rational_and_normalized():
    inv = exact_inverse(_spec())
    _check_rows(inv)
    assert inv.exact
    assert [f.var for f in inv.factors] == ["u2", "u1"]
    assert inv.factors[0].context == ("z",)
    assert inv.factors[1].context == ("z", "u2")
    for f in inv.factors:
        for row in f.table.values():
            assert all(isinstance(p, Fraction) for p in row)
            assert sum(row) == 1


def test_exact_inverse_weight_is_the_output_probability_bit_for_bit():
    module = InverseModule(_spec(), exact_inverse(_spec()))
    for z in (0, 1):
        seen = set()
        for seed in range(60):
            lw, aux = module.regenerate({}, {"z": discrete(z)},
                                        np.random.default_rng(seed))
            seen.add(lw)
            assert set(aux) == {"u1", "u2"}
            assert aux["u1"] in (0, 1) and aux["u2"] in (0, 1)
        assert len(seen) == 1, "exact inverse weight must not depend on latents"
        assert seen.pop() == pytest.approx(math.log(_p_z(z)), rel=1e-13)


def test_exact_inverse_conditional_matches_bayes():
    inv = exact_inverse(_spec())
    u2_given_z = inv.factors[0].table
    for z in (0, 1):
        want = sum(_joint(a, 1, z) for a in (0, 1)) / _p_z(z)
        assert float(u2_given_z[(z,)][1]) == pytest.approx(want, rel=1e-13)


def test_exact_weight_of_an_impossible_output_is_minus_inf():
    # z = 1 is in the domain but has probability zero; the exact inverse
    # falls back to a uniform row for it and the ratio is 0, not an error
    spec = DiscreteModelSpec(
        latents=(VariableSpec("u", (0, 1), (), {(): (0.5, 0.5)}),),
        outputs=(VariableSpec("z", (0, 1), ("u",),
                              {(0,): (1.0, 0.0), (1,): (1.0, 0.0)}),),
    )
    module = InverseModule(spec, exact_inverse(spec))
    lw, aux = module.regenerate({}, {"z": discrete(1)}, np.random.default_rng(0))
    assert lw == -math.inf
    assert aux["u"] in (0, 1)


# -- learned inverse --------------------------------------------------------------

def test_codes_wider_than_a_byte_count_exactly():
    # a 300-value latent: (z, u) codes reach 599, past one byte
    d, n = 300, 5000
    spec = DiscreteModelSpec(
        latents=(VariableSpec("u", tuple(range(d)), (), {(): (1 / d,) * d}),),
        outputs=(VariableSpec("z", (0, 1), ("u",),
                              {(u,): (0.5, 0.5) for u in range(d)}),),
    )
    joint = np.random.default_rng(2).multinomial(n, _reference_law(spec)).reshape(2, d)
    inv = train_inverse(spec, n, np.random.default_rng(2))
    for z in (0, 1):
        assert inv.factors[0].table[(z,)] == tuple((joint[z] + 1.0) / (joint[z].sum() + d))


def test_trained_tables_approach_the_true_conditionals():
    spec = _spec()
    inv = train_inverse(spec, 100_000, np.random.default_rng(8))
    _check_rows(inv)
    assert not inv.exact
    assert inv.n_train == 100_000
    exact = exact_inverse(spec)
    for f, ef in zip(inv.factors, exact.factors):
        assert f.var == ef.var and f.context == ef.context
        for key, row in f.table.items():
            for p, q in zip(row, ef.table[key]):
                assert abs(p - float(q)) < 0.02


def test_training_validates_arguments():
    # the count rule's refusals are test_values::test_every_count_follows_one_rule
    want = train_inverse(_spec(), 5, np.random.default_rng(0))
    for n in (np.int64(5), np.uint8(5)):
        got = train_inverse(_spec(), n, np.random.default_rng(0))
        assert got == want and type(got.n_train) is int


def test_unseen_contexts_fall_back_to_uniform():
    inv = train_inverse(_spec(), 1, np.random.default_rng(0))
    _check_rows(inv)
    u2_rows = inv.factors[0].table
    uniform = sum(1 for row in u2_rows.values() if row == (0.5, 0.5))
    smoothed = sum(1 for row in u2_rows.values()
                   if row in ((2 / 3, 1 / 3), (1 / 3, 2 / 3)))
    assert uniform == 1 and smoothed == 1


def test_learned_weight_is_joint_over_inverse():
    spec = _spec()
    inv = train_inverse(spec, 500, np.random.default_rng(4))
    module = InverseModule(spec, inv)
    z, lw, aux = module.simulate({}, np.random.default_rng(9))
    assign = {"u1": aux["u1"], "u2": aux["u2"], "z": z["z"].data}
    lp = math.log(_joint(assign["u1"], assign["u2"], assign["z"]))
    lq = 0.0
    for f in inv.factors:
        row = f.table[tuple(assign[c] for c in f.context)]
        lq += math.log(row[f.domain.index(assign[f.var])])
    assert lw == pytest.approx(lp - lq, rel=1e-12)


# -- module contract ----------------------------------------------------------------

def test_module_ports_and_mismatch_guard():
    spec = _spec()
    module = InverseModule(spec, exact_inverse(spec))
    assert module.input_ports == ()
    assert module.output_ports == ("z",)
    other = DiscreteModelSpec(
        latents=(VariableSpec("w", (0, 1), (), {(): (0.5, 0.5)}),),
        outputs=(VariableSpec("z", (0, 1), ("w",), U2),),
    )
    with pytest.raises(SchemaError, match="do not match"):
        InverseModule(spec, exact_inverse(other))


def test_off_domain_output_scores_zero_with_empty_latents():
    module = InverseModule(_spec(), exact_inverse(_spec()))
    lw, aux = module.regenerate({}, {"z": discrete(5)}, np.random.default_rng(0))
    assert lw == -math.inf
    assert aux == {"u1": None, "u2": None}
    with pytest.raises(SchemaError, match="port 'z': expected discrete value, got real"):
        module.regenerate({}, {"z": real(0.5)}, np.random.default_rng(0))


def test_learned_module_weight_is_unbiased_for_the_output_probability():
    spec = _spec()
    module = InverseModule(spec, train_inverse(spec, 300,
                                               np.random.default_rng(6)))
    res = check_module_contract(module, {}, {"z": discrete(1)}, _p_z(1), 20_000,
                                np.random.default_rng(123))
    assert res["z"] < 4.5


def test_learned_module_satisfies_the_harmonic_identity():
    spec = _spec()
    module = InverseModule(spec, train_inverse(spec, 300,
                                               np.random.default_rng(7)))
    res = check_module_contract(module, {}, {"z": discrete(0)}, _p_z(0), 20_000,
                                np.random.default_rng(55))
    assert res["harmonic"]["z"] < 4.5


def test_smoothing_stays_on_the_posterior_support():
    # v0 is always 1, so p(v0 = 0, v1 = 1) = 0: the learned row for v0 given
    # v1 = 1 smooths over v0 = 1 alone, and every weight is exactly 1, in
    # both halves of the contract, as the exact inverse's is. v1 = 0 is
    # ruled out, so its context supports no value and its row is uniform.
    spec = DiscreteModelSpec(
        latents=(VariableSpec("v0", (0, 1), (), {(): (0.0, 1.0)}),),
        outputs=(VariableSpec("v1", (0, 1), (), {(): (0.0, 1.0)}),),
    )
    z = {"v1": discrete(1)}
    inv = train_inverse(spec, 200, np.random.default_rng(0))
    assert inv.factors[0].table == {(0,): (0.5, 0.5), (1,): (0.0, 1.0)}
    for module in (InverseModule(spec, inv), InverseModule(spec, exact_inverse(spec))):
        res = check_module_contract(module, {}, z, 1.0, 2000, np.random.default_rng(1))
        assert res["harmonic"]["mean"] == 1.0 and res["z"] == res["harmonic"]["z"] == 0.0


def test_an_unseen_context_is_uniform_over_its_support():
    # v0 = 0 is impossible, so both rows of v0 given v1 smooth over {1, 2};
    # one training sample leaves one v1 context unseen
    spec = DiscreteModelSpec(
        latents=(VariableSpec("v0", (0, 1, 2), (), {(): (0.0, 0.5, 0.5)}),),
        outputs=(VariableSpec("v1", (0, 1), ("v0",),
                              {(u,): (0.5, 0.5) for u in (0, 1, 2)}),),
    )
    # the one sample's code is v1 * 3 + v0
    (code,) = np.flatnonzero(np.random.default_rng(3).multinomial(1, _reference_law(spec)))
    seen, drawn = divmod(int(code), 3)
    table = train_inverse(spec, 1, np.random.default_rng(3)).factors[0].table
    assert table[(1 - seen,)] == (0.0, 0.5, 0.5)
    assert table[(seen,)] == tuple((2.0 if v == drawn else 1.0) / 3.0 if v else 0.0
                                   for v in (0, 1, 2))


def test_more_training_data_stabilizes_the_weight():
    spec = _spec()
    rng = np.random.default_rng(14)
    rough = InverseModule(spec, train_inverse(spec, 200, rng))
    tight = InverseModule(spec, train_inverse(spec, 50_000, rng))
    draws = np.random.default_rng(15)
    var = {}
    for name, module in (("rough", rough), ("tight", tight)):
        lws = [module.regenerate({}, {"z": discrete(1)}, draws)[0]
               for _ in range(2000)]
        var[name] = np.var(lws)
    assert var["tight"] < var["rough"]
    assert var["tight"] < 1e-2


# -- random specs ---------------------------------------------------------------------

@st.composite
def small_specs(draw):
    """2-4 variables over 2-3 values, random parents among earlier variables,
    rows from integer weights 0-3 so some entries are zero."""
    n = draw(st.integers(2, 4))
    n_latent = draw(st.integers(1, n - 1))
    made: list[VariableSpec] = []
    for i in range(n):
        domain = tuple(range(draw(st.integers(2, 3))))
        parents = tuple(p.name for p in made if draw(st.booleans()))
        table = {}
        for key in product(*[p.domain for p in made if p.name in parents]):
            weights = draw(st.lists(st.integers(0, 3), min_size=len(domain),
                                    max_size=len(domain)).filter(any))
            table[key] = tuple(w / sum(weights) for w in weights)
        made.append(VariableSpec(f"v{i}", domain, parents, table))
    return DiscreteModelSpec(tuple(made[:n_latent]), tuple(made[n_latent:]))


def _hand_log_weight(spec, inv, assign):
    lp = 0.0
    for v in spec.variables:
        p = v.table[tuple(assign[q] for q in v.parents)][v.domain.index(assign[v.name])]
        if p == 0.0:
            return -math.inf
        lp += math.log(p)
    lq = 0.0
    for f in inv.factors:
        lq += math.log(f.table[tuple(assign[c] for c in f.context)][
            f.domain.index(assign[f.var])])
    return lp - lq


@settings(derandomize=True, deadline=None, max_examples=60)
@given(spec=small_specs(), seed=st.integers(0, 2**32 - 1))
def test_inverse_weights_on_random_specs(spec, seed):
    oracle = FactoredDiscreteModel(
        [Factor(v.name, v.domain, v.parents, v.table) for v in spec.variables])
    exact = InverseModule(spec, exact_inverse(spec))
    learned_inv = train_inverse(spec, 200, np.random.default_rng(seed))
    learned = InverseModule(spec, learned_inv)
    rng = np.random.default_rng(seed)
    for zs in product(*[o.domain for o in spec.outputs]):
        z = dict(zip(learned.output_ports, zs))
        outputs = {k: discrete(v) for k, v in z.items()}
        # exact: log p(z) whatever latents were drawn, to the bit
        want = log_evidence(oracle, z)
        lws = {exact.regenerate({}, outputs, rng)[0] for _ in range(5)}
        assert len(lws) == 1
        lw = lws.pop()
        if want == -math.inf:
            assert lw == -math.inf
        else:
            assert lw == pytest.approx(want, rel=1e-12, abs=1e-12)
        # learned: log p(u, z) - log q(u | z) at the drawn latents
        for _ in range(5):
            lw, aux = learned.regenerate({}, outputs, rng)
            assert lw == pytest.approx(
                _hand_log_weight(spec, learned_inv, {**z, **aux}), rel=1e-12)
    # the contract at one forward-sampled output, both halves for both
    # inverses: smoothing stays on the posterior's support, so the learned
    # tables put no mass where the posterior has none
    outputs = exact.simulate({}, rng)[0]
    z = {k: v.data for k, v in outputs.items()}
    truth = math.exp(log_evidence(oracle, z))
    for module in (exact, learned):
        got = check_module_contract(module, {}, outputs, truth, 2000, rng)
        assert got["z"] < 4.5 and got["harmonic"]["z"] < 4.5


def _reference_exact(spec):
    """exact_inverse's factors by a loop over the enumerated assignments:
    each assignment's probability a product of the table entries as
    Fractions, summed per context and per (context, value) in dicts, and
    each conditional their ratio; a context no assignment of nonzero
    probability reaches gets a uniform row."""
    names = [v.name for v in spec.variables]
    joint = {}
    for combo in product(*[v.domain for v in spec.variables]):
        assign = dict(zip(names, combo))
        pr = math.prod(Fraction(v.table[tuple(assign[q] for q in v.parents)][
            v.domain.index(assign[v.name])]) for v in spec.variables)
        if pr:
            joint[combo] = pr
    factors = []
    ctx = [v.name for v in spec.outputs]
    for v in reversed(spec.latents):
        marg, cond = {}, {}
        for combo, pr in joint.items():
            assign = dict(zip(names, combo))
            key = tuple(assign[c] for c in ctx)
            marg[key] = marg.get(key, 0) + pr
            cond[key, assign[v.name]] = cond.get((key, assign[v.name]), 0) + pr
        table = {}
        for key in product(*[spec.variable(c).domain for c in ctx]):
            if key in marg:
                table[key] = tuple(Fraction(cond.get((key, x), 0)) / marg[key]
                                   for x in v.domain)
            else:
                table[key] = (Fraction(1, len(v.domain)),) * len(v.domain)
        factors.append((v.name, v.domain, tuple(ctx), table))
        ctx.append(v.name)
    return factors


def _check_exact_against_the_reference(spec):
    inv = exact_inverse(spec)
    assert inv.exact and inv.n_train == 0
    got = [(f.var, f.domain, f.context, f.table) for f in inv.factors]
    assert got == _reference_exact(spec)
    for f in inv.factors:
        assert all(isinstance(p, Fraction) for row in f.table.values() for p in row)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(spec=small_specs())
def test_exact_tables_match_the_enumerated_reference(spec):
    _check_exact_against_the_reference(spec)


@pytest.mark.parametrize("make", [switch_prior_spec, switch_spec])
def test_exact_tables_of_the_shipped_specs_match_the_enumerated_reference(make):
    _check_exact_against_the_reference(make())


def _possible_assignments(spec):
    """Every full assignment to which each forward table gives mass."""
    names = [v.name for v in spec.variables]
    for combo in product(*[v.domain for v in spec.variables]):
        assign = dict(zip(names, combo))
        if all(v.table[tuple(assign[p] for p in v.parents)][v.domain.index(assign[v.name])]
               > 0.0 for v in spec.variables):
            yield assign


def _reference_tables(spec, n, rng):
    """train_inverse's tables from the same count draw, each factor's
    (context, value) cells counted by a loop over the enumerated
    assignments, and smoothed with a pseudo-count of 1 over the values the
    possible assignments reach in a context; a context none reaches gets a
    uniform row."""
    names = [v.name for v in _order(spec)]
    counted = list(zip(
        (dict(zip(names, combo)) for combo in product(*[v.domain for v in _order(spec)])),
        rng.multinomial(n, _reference_law(spec)).tolist()))
    possible = list(_possible_assignments(spec))
    tables = []
    ctx = list(spec.outputs)
    for v in reversed(spec.latents):
        d = len(v.domain)
        cells: dict = {}
        for assign, count in counted:
            cell = (tuple(assign[c.name] for c in ctx), assign[v.name])
            cells[cell] = cells.get(cell, 0) + count
        reached = {(tuple(a[c.name] for c in ctx), a[v.name]) for a in possible}
        table = {}
        for key in product(*[c.domain for c in ctx]):
            support = [(key, x) in reached for x in v.domain]
            if not any(support):
                table[key] = (1.0 / d,) * d
                continue
            total = float(sum(cells[key, x] for x in v.domain))
            table[key] = tuple((cells[key, x] + 1.0) / (total + sum(support))
                               if on else 0.0 for x, on in zip(v.domain, support))
        tables.append((v.name, tuple(c.name for c in ctx), table))
        ctx.append(v)
    return tables


def test_reference_tables_hold_past_a_one_byte_radix():
    # u's context (z1, z2) has radix 3 * 200: z1's one-byte column is
    # scaled by 200, past what a uint8 product holds (2 * 200 wraps to 144)
    spec = DiscreteModelSpec(
        latents=(VariableSpec("u", (0, 1), (), {(): (0.3, 0.7)}),),
        outputs=(
            VariableSpec("z1", (0, 1, 2), ("u",),
                         {(0,): (0.2, 0.3, 0.5), (1,): (0.6, 0.3, 0.1)}),
            VariableSpec("z2", tuple(range(200)), ("u",),
                         {(u,): (1 / 200,) * 200 for u in (0, 1)}),
        ),
    )
    inv = train_inverse(spec, 4000, np.random.default_rng(8))
    want = _reference_tables(spec, 4000, np.random.default_rng(8))
    assert [(f.var, f.context, f.table) for f in inv.factors] == want


@pytest.mark.parametrize("high", [0.3 + 5e-10, 0.3 - 5e-10])
def test_reference_tables_hold_for_rows_off_one_by_the_tolerance(high):
    spec = _walk_spec(high=high)
    for n in (1, 50, 10**6):
        inv = train_inverse(spec, n, np.random.default_rng(n))
        want = _reference_tables(spec, n, np.random.default_rng(n))
        assert [(f.var, f.context, f.table) for f in inv.factors] == want


def _reference_log_weight(spec, inv, assign):
    """The module's weight recomputed from the factor tables themselves:
    rationals for an exact inverse, float logs for a learned one."""
    if not inv.exact:
        return _hand_log_weight(spec, inv, assign)
    r = math.prod(Fraction(v.table[tuple(assign[q] for q in v.parents)][
        v.domain.index(assign[v.name])]) for v in spec.variables)
    if not r:
        return -math.inf
    r /= math.prod(f.table[tuple(assign[c] for c in f.context)][
        f.domain.index(assign[f.var])] for f in inv.factors)
    return math.log(r.numerator) - math.log(r.denominator)


def _reference_regenerate(spec, inv, z, rng):
    assign = dict(z)
    for f in inv.factors:
        assign[f.var] = _walk(f.domain, f.table[tuple(assign[c] for c in f.context)],
                              rng.random())
    aux = {v.name: assign[v.name] for v in spec.latents}
    return _reference_log_weight(spec, inv, assign), aux


def _reference_simulate(spec, inv, rng):
    assign = {}
    for v in spec.variables:
        assign[v.name] = _walk(v.domain, v.table[tuple(assign[q] for q in v.parents)],
                               rng.random())
    z = {o.name: discrete(assign[o.name]) for o in spec.outputs}
    aux = {v.name: assign[v.name] for v in spec.latents}
    return z, _reference_log_weight(spec, inv, assign), aux


@settings(derandomize=True, deadline=None, max_examples=60)
@given(spec=small_specs(), seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from([1, 2, 5, 40, 2000]))
def test_training_and_weight_memo_match_the_per_call_reference(spec, seed, n):
    # training draws the counts once and leaves the stream where the
    # reference's draw does
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    inv = train_inverse(spec, n, rng)
    want = _reference_tables(spec, n, ref)
    assert [(f.var, f.context, f.table) for f in inv.factors] == want
    assert rng.bit_generator.state == ref.bit_generator.state

    for inv in (exact_inverse(spec), inv):
        module = InverseModule(spec, inv)
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # every output value several times, so later calls read the memo
        for _ in range(3):
            for zs in product(*[o.domain for o in spec.outputs]):
                z = dict(zip(module.output_ports, zs))
                outputs = {k: discrete(v) for k, v in z.items()}
                lw, aux = module.regenerate({}, outputs, got_rng)
                ref_lw, ref_aux = _reference_regenerate(spec, inv, z, ref_rng)
                assert (repr(lw), aux) == (repr(ref_lw), ref_aux)
                assert got_rng.random() == ref_rng.random()
            out, lw, aux = module.simulate({}, got_rng)
            ref_out, ref_lw, ref_aux = _reference_simulate(spec, inv, ref_rng)
            assert (out, repr(lw), aux) == (ref_out, repr(ref_lw), ref_aux)
            assert got_rng.random() == ref_rng.random()


class _MaxUniform:
    """Every uniform is the largest double below 1."""

    U = float(np.nextafter(1.0, 0.0))

    def random(self, size=None):
        return self.U if size is None else np.full(size, self.U)


def _short_row_inverse(spec):
    """A hand-built inverse for _spec() whose u2 row at z=0 sums to 0.5, so a
    uniform past its float sum falls back to the last value."""
    return inverse.InverseNetwork((
        inverse.InverseFactor("u2", (0, 1), ("z",), {(0,): (0.3, 0.2), (1,): (0.4, 0.6)}),
        inverse.InverseFactor("u1", (0, 1), ("z", "u2"),
                              {key: (0.5, 0.5) for key in product((0, 1), (0, 1))}),
    ), 0)


def test_inverse_draws_match_the_one_uniform_per_row_walk():
    # regenerate and simulate draw every row's uniform in one call and pick
    # by bisection; the reference walks each row with its own rng.random(),
    # in _walk order, and must leave the generator at the same place
    demo = switch_prior_spec()
    short = _spec()
    cases = [(demo, train_inverse(demo, 20_000, np.random.default_rng(1))),
             (demo, exact_inverse(demo)),
             (switch_spec(), train_inverse(switch_spec(), 20_000, np.random.default_rng(2))),
             (short, _short_row_inverse(short))]
    short_picks = []
    for spec, inv in cases:
        module = InverseModule(spec, inv)
        (out,) = spec.outputs
        for seed in range(2000):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for val in out.domain:
                lw, aux = module.regenerate({}, {out.name: discrete(val)}, got_rng)
                ref_lw, ref_aux = _reference_regenerate(spec, inv, {out.name: val}, ref_rng)
                assert (repr(lw), aux) == (repr(ref_lw), ref_aux)
                if spec is short and val == 0:
                    short_picks.append(aux["u2"])
            got = module.simulate({}, got_rng)
            ref = _reference_simulate(spec, inv, ref_rng)
            assert (got[0], repr(got[1]), got[2]) == (ref[0], repr(ref[1]), ref[2])
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    # the short row picks u2 = 1 for u in [0.3, 1): 0.2 of that by its own
    # entry and 0.5 past its sum, by falling back to the last value ...
    assert sum(short_picks) > 1200
    # ... and a forward row whose float sum is below 1 falls back the same way
    low = 0.5 - 5e-10
    spec = DiscreteModelSpec(
        latents=(VariableSpec("u", (0, 1, 2), (), {(): (0.25, 0.25, low)}),),
        outputs=(VariableSpec("z", (0, 1), ("u",),
                              {(u,): (0.5, 0.5) for u in (0, 1, 2)}),))
    module = InverseModule(spec, exact_inverse(spec))
    got = module.simulate({}, _MaxUniform())
    assert got[2] == {"u": 2} and got[0] == {"z": discrete(1)}
    ref = _reference_simulate(spec, module.inv, _MaxUniform())
    assert (got[0], repr(got[1]), got[2]) == (ref[0], repr(ref[1]), ref[2])


def _short_tail_spec():
    """u's row (0.5, 0.5 - 5e-10, 0.0) ends in a zero entry and its float
    sum falls 5e-10 short of 1."""
    return DiscreteModelSpec(
        latents=(VariableSpec("u", (0, 1, 2), (), {(): (0.5, 0.5 - 5e-10, 0.0)}),),
        outputs=(VariableSpec("z", (0, 1), ("u",), {
            (0,): (0.3, 0.7), (1,): (0.6, 0.4), (2,): (0.5, 0.5)}),))


def test_a_uniform_past_a_short_row_takes_its_last_positive_value():
    # a u past the row's float sum must not draw u = 2, which the row's zero
    # entry rules out: the walk, the forward and inverse bisections and a
    # table module all give it the last value of positive probability
    spec = _short_tail_spec()
    row = spec.latents[0].table[()]
    assert _walk((0, 1, 2), row, _MaxUniform.U) == 1
    assert _walk_law(row) == [0.5, 0.5, 0.0]
    for inv in (exact_inverse(spec), train_inverse(spec, 1000, np.random.default_rng(0))):
        module = InverseModule(spec, inv)
        _, lw, aux = module.simulate({}, _MaxUniform())
        assert aux == {"u": 1} and lw > -math.inf
        for z in (0, 1):
            lw, aux = module.regenerate({}, {"z": discrete(z)}, _MaxUniform())
            assert aux == {"u": 1} and lw > -math.inf
    out, lw, _ = table_module((), {(): row}, domain=(0, 1, 2)).simulate({}, _MaxUniform())
    assert out == {"z": discrete(1)} and lw == math.log(row[1])


def test_learned_rows_of_a_short_row_sum_to_one():
    # the training law gives the zero entry nothing, so no count lands on a
    # cell the support rules out and every row's denominator is its cells'
    # sum; a law with 2.5e-10 on each u = 2 cell leaves rows summing to
    # 0.9999999994 at 1e11 samples
    spec = _short_tail_spec()
    law, possible = inverse._joint(spec, False)
    assert not law[~possible].any()
    inv = train_inverse(spec, 10**11, np.random.default_rng(25))
    for f in inv.factors:
        for probs in f.table.values():
            assert abs(sum(probs) - 1.0) <= 1e-15 and probs[2] == 0.0
