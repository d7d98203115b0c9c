import math
from fractions import Fraction

import numpy as np
import pytest

from modnet.interface import SchemaError, _walk
from modnet.inverse import (
    DiscreteModelSpec,
    InverseModule,
    VariableSpec,
    exact_inverse,
    forward_sample,
    load_inverse,
    sample_batch,
    save_inverse,
    train_inverse,
)
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
        ("negative", [VariableSpec("v", (0, 1), (), {(): (1.2, -0.2)})]),
        ("sums to", [VariableSpec("v", (0, 1), (), {(): (0.6, 0.6)})]),
        ("missing table row",
         [good, VariableSpec("v", (0, 1), ("u1",), {(0,): (0.5, 0.5)})]),
    ]
    for why, latents in cases:
        with pytest.raises(SchemaError, match=why):
            DiscreteModelSpec(latents=tuple(latents), outputs=())


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
    rng = np.random.default_rng(10)
    n = 8000
    hits = sum(forward_sample(spec, rng)["z"] for _ in range(n))
    p1 = _p_z(1)
    assert abs(hits / n - p1) < 4 * math.sqrt(p1 * (1 - p1) / n)


def test_sample_batch_matches_forward_distribution():
    spec = _spec()
    cols = sample_batch(spec, 50_000, np.random.default_rng(3))
    assert set(cols) == {"u1", "u2", "z"}
    p_u2 = U1[0] * U2[(0,)][1] + U1[1] * U2[(1,)][1]
    for name, p in (("u1", U1[1]), ("u2", p_u2), ("z", _p_z(1))):
        se = math.sqrt(p * (1 - p) / 50_000)
        assert abs(cols[name].mean() - p) < 4 * se
    # conditional structure, not just marginals
    mask = cols["u1"] == 1
    se = math.sqrt(U2[(1,)][1] * U2[(1,)][0] / mask.sum())
    assert abs(cols["u2"][mask].mean() - U2[(1,)][1]) < 4 * se


def test_sample_batch_agrees_with_the_scalar_walk():
    # the batched index is the value _walk picks from the same uniforms,
    # including zero-probability entries and a non-zero-based domain
    spec = DiscreteModelSpec(
        latents=(VariableSpec("u", (0, 1, 2), (), {(): (0.2, 0.5, 0.3)}),),
        outputs=(VariableSpec("w", (3, 5, 7, 9), ("u",), {
            (0,): (0.1, 0.2, 0.3, 0.4),
            (1,): (0.0, 0.5, 0.5, 0.0),
            (2,): (0.25, 0.25, 0.25, 0.25)}),),
    )
    n = 4000
    cols = sample_batch(spec, n, np.random.default_rng(6))
    rng = np.random.default_rng(6)
    u_draws = rng.random(n)
    w_draws = rng.random(n)
    for i in range(n):
        u = _walk((0, 1, 2), (0.2, 0.5, 0.3), u_draws[i])
        row = spec.variable("w").table[(u,)]
        w = _walk((3, 5, 7, 9), row, w_draws[i])
        assert (cols["u"][i], cols["w"][i]) == (u, (3, 5, 7, 9).index(w))


# -- exact inverse ---------------------------------------------------------------

def test_exact_inverse_rows_are_rational_and_normalized():
    inv = exact_inverse(_spec())
    inv.validate()
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


# -- learned inverse --------------------------------------------------------------

def test_trained_tables_approach_the_true_conditionals():
    spec = _spec()
    inv = train_inverse(spec, 100_000, np.random.default_rng(8))
    inv.validate()
    assert not inv.exact
    assert inv.n_train == 100_000
    exact = exact_inverse(spec)
    for f, ef in zip(inv.factors, exact.factors):
        assert f.var == ef.var and f.context == ef.context
        for key, row in f.table.items():
            for p, q in zip(row, ef.table[key]):
                assert abs(p - float(q)) < 0.02


def test_training_validates_arguments():
    with pytest.raises(ValueError):
        train_inverse(_spec(), 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        train_inverse(_spec(), 10, np.random.default_rng(0), smoothing=0.0)


def test_unseen_contexts_fall_back_to_uniform():
    inv = train_inverse(_spec(), 1, np.random.default_rng(0))
    inv.validate()
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
    with pytest.raises(SchemaError, match="expects a discrete value"):
        module.regenerate({}, {"z": real(0.5)}, np.random.default_rng(0))


def test_learned_module_weight_is_unbiased_for_the_output_probability():
    spec = _spec()
    module = InverseModule(spec, train_inverse(spec, 300,
                                               np.random.default_rng(6)))
    rng = np.random.default_rng(123)
    ws = np.empty(20_000)
    for i in range(ws.size):
        lw, _ = module.regenerate({}, {"z": discrete(1)}, rng)
        ws[i] = math.exp(lw)
    se = ws.std(ddof=1) / math.sqrt(ws.size)
    assert abs(ws.mean() - _p_z(1)) < 4.5 * se


def test_learned_module_satisfies_the_harmonic_identity():
    spec = _spec()
    module = InverseModule(spec, train_inverse(spec, 300,
                                               np.random.default_rng(7)))
    rng = np.random.default_rng(55)
    acc = np.zeros(20_000)
    for i in range(acc.size):
        z, lw, _ = module.simulate({}, rng)
        if z["z"].data == 0:
            acc[i] = math.exp(-lw)
    se = acc.std(ddof=1) / math.sqrt(acc.size)
    assert abs(acc.mean() - 1.0) < 4.5 * se


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


# -- serialization --------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    spec = _spec()
    for inv in (exact_inverse(spec),
                train_inverse(spec, 1000, np.random.default_rng(2))):
        path = tmp_path / "inv.json"
        save_inverse(inv, path)
        assert load_inverse(path) == inv
