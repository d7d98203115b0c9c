import math

import numpy as np
import pytest
from numpy.random import default_rng
from scipy import stats

from modnet import values
from modnet.interface import (
    DegenerateTraceError,
    ExactModule,
    ProbModule,
    SchemaError,
    bernoulli_module,
    check_log_weight,
    normal_module,
    table_module,
)
from modnet.inverse import InverseModule, exact_inverse
from modnet.reference_models import BinaryHmm, switch_spec
from modnet.smc import SmcModule


class _NoRng:
    """Stand-in that fails loudly if any method is touched."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was called on a deterministic path")


def test_check_log_weight_range_contract():
    assert check_log_weight(-1.5) == -1.5
    assert check_log_weight(-math.inf) == -math.inf
    assert check_log_weight(0) == 0.0 and isinstance(check_log_weight(0), float)
    with pytest.raises(SchemaError):
        check_log_weight(math.nan)
    with pytest.raises(SchemaError):
        check_log_weight(math.inf)


def test_bernoulli_density_and_support():
    m = bernoulli_module(0.3)
    lw1, aux = m.regenerate({}, {"z": values.discrete(1)}, _NoRng())
    lw0, _ = m.regenerate({}, {"z": values.discrete(0)}, _NoRng())
    assert aux is None
    assert lw1 == math.log(0.3)
    assert lw0 == math.log1p(-0.3)
    off, _ = m.regenerate({}, {"z": values.discrete(2)}, _NoRng())
    assert off == -math.inf
    with pytest.raises(ValueError):
        bernoulli_module(1.0)


def test_exact_regenerate_is_bit_deterministic():
    m = normal_module(0.8, 1.6)
    outs = {"z": values.real(-0.3)}
    first, _ = m.regenerate({}, outs, _NoRng())
    assert all(m.regenerate({}, outs, _NoRng())[0] == first for _ in range(20))


def test_normal_density_matches_reference():
    m = normal_module(0.8, 1.6)
    for z in (-0.3, 0.0, 2.7):
        lw, _ = m.regenerate({}, {"z": values.real(z)}, _NoRng())
        assert lw == pytest.approx(stats.norm.logpdf(z, 0.8, 1.6), rel=1e-12)


@pytest.mark.parametrize("mu, sigma, message", [
    (0.0, math.nan, "sigma must be positive and finite"),
    (0.0, math.inf, "sigma must be positive and finite"),
    (0.0, 0.0, "sigma must be positive and finite"),
    (0.0, -1.0, "sigma must be positive and finite"),
    (math.inf, 1.0, "mu must be finite"),
    (-math.inf, 1.0, "mu must be finite"),
    (math.nan, 1.0, "mu must be finite"),
])
def test_normal_module_refuses_non_finite_or_non_positive_parameters(mu, sigma, message):
    # each used to build a module: NaN raised in the middle of a chain at the
    # first regenerate, and an infinity scored every output -inf
    with pytest.raises(ValueError, match=message):
        normal_module(mu, sigma)


def test_table_module_rows_and_missing_key():
    m = table_module(("x",), {(0,): (0.9, 0.1), (1,): (0.4, 0.6)})
    lw, _ = m.regenerate({"x": values.discrete(1)}, {"z": values.discrete(0)}, _NoRng())
    assert lw == math.log(0.4)
    # no row: scored as impossible, so an MH move there is a cheap rejection
    lw, _ = m.regenerate({"x": values.discrete(7)}, {"z": values.discrete(0)}, _NoRng())
    assert lw == -math.inf
    with pytest.raises(SchemaError, match="no row"):
        m.simulate({"x": values.discrete(7)}, default_rng(0))
    zero = table_module(("x",), {(0,): (1.0, 0.0)})
    lw, _ = zero.regenerate({"x": values.discrete(0)}, {"z": values.discrete(1)}, _NoRng())
    assert lw == -math.inf
    # a row that sums to 1 through a negative entry is no distribution
    with pytest.raises(ValueError, match="bad CPT row"):
        table_module(("x",), {(0,): (1.5, -0.5), (1,): (0.5, 0.5)})


@pytest.mark.parametrize("domain", [(), (0, 0), (0.5, 1.5), (True, 2), ("0", "1"), [0, 0.0]])
def test_table_module_refuses_a_domain_that_is_not_distinct_ints(domain):
    # (0, 0) used to build a module that always drew 0 yet scored z = 0 at
    # log 0.5; (0.5, 1.5) failed only at simulate; (True, 2) read as (1, 2)
    rows = {(): (0.5, 0.5)} if len(domain) == 2 else {(): ()}
    with pytest.raises(ValueError, match="'domain' must be"):
        table_module((), rows, domain=domain)


def test_table_module_takes_a_domain_that_does_not_start_at_zero():
    m = table_module((), {(): (0.25, 0.75)}, domain=[3, -1])
    lw, _ = m.regenerate({}, {"z": values.discrete(-1)}, _NoRng())
    assert lw == math.log(0.75)
    assert m.simulate({}, default_rng(0))[0]["z"].data in (3, -1)


def test_port_schema_enforced_on_both_paths():
    m = bernoulli_module(0.5)
    with pytest.raises(SchemaError):
        m.regenerate({"extra": values.discrete(0)}, {"z": values.discrete(0)}, _NoRng())
    with pytest.raises(SchemaError):
        m.regenerate({}, {"y": values.discrete(0)}, _NoRng())
    with pytest.raises(SchemaError):
        m.simulate({"extra": values.discrete(0)}, default_rng(0))



def test_port_checks_are_one_base_check_with_pinned_messages():
    hmm = BinaryHmm(2, 0.5, (0.8, 0.3), trans_by_input={0: (0.9, 0.2)},
                    input_port="s")
    modules = [bernoulli_module(0.5), SmcModule(hmm, 2),
               InverseModule(switch_spec(), exact_inverse(switch_spec()))]
    for m in modules:
        assert type(m).check_inputs is ProbModule.check_inputs
        assert type(m).check_outputs is ProbModule.check_outputs
        name = type(m).__name__
        m.check_inputs({p: None for p in m.input_ports})
        m.check_outputs({p: None for p in m.output_ports})
        with pytest.raises(SchemaError) as err:
            m.check_inputs({"q": None, **{p: None for p in m.input_ports}})
        assert str(err.value) == (
            f"{name}: input ports {sorted(['q', *m.input_ports])} != "
            f"declared {sorted(m.input_ports)}")
        with pytest.raises(SchemaError) as err:
            m.check_outputs({})
        assert str(err.value) == (
            f"{name}: output ports [] != declared {sorted(m.output_ports)}")

def test_simulate_returns_its_own_density():
    m = bernoulli_module(0.3)
    rng = default_rng(7)
    for _ in range(50):
        outs, lw, aux = m.simulate({}, rng)
        expect = math.log(0.3) if outs["z"].data == 1 else math.log1p(-0.3)
        assert lw == expect and aux is None


def test_simulate_frequencies_match_density():
    m = bernoulli_module(0.3)
    rng = default_rng(123)
    n = 20000
    ones = sum(m.simulate({}, rng)[0]["z"].data for _ in range(n))
    se = math.sqrt(0.3 * 0.7 / n)
    assert abs(ones / n - 0.3) < 4 * se


def test_inconsistent_exact_sampler_is_a_defect():
    # sampler emits a value its own density says is impossible
    bad = ExactModule(
        lambda inputs, rng: {"z": values.discrete(2)},
        lambda inputs, outputs: -math.inf,
        (), ("z",),
    )
    with pytest.raises(DegenerateTraceError):
        bad.simulate({}, default_rng(0))


def test_exact_module_rejects_bad_log_weights():
    nan_mod = ExactModule(
        lambda inputs, rng: {"z": values.discrete(0)},
        lambda inputs, outputs: math.nan,
        (), ("z",),
    )
    with pytest.raises(SchemaError):
        nan_mod.regenerate({}, {"z": values.discrete(0)}, _NoRng())


class _Real(float):
    pass


class _Value(values.Value):
    pass


def test_malformed_weights_and_values_raise_the_pinned_messages():
    # the checks test the well-formed case first; everything else takes the
    # full check, which converts what it accepts and raises as it always has
    for bad, msg in ((math.nan, "log-weight is NaN"), (math.inf, "log-weight is +inf"),
                     (np.float64("nan"), "log-weight is NaN"),
                     (np.float64("inf"), "log-weight is +inf"),
                     (_Real("nan"), "log-weight is NaN"), (_Real("inf"), "log-weight is +inf")):
        with pytest.raises(SchemaError) as err:
            check_log_weight(bad)
        assert str(err.value) == msg
    for ok in (-1.5, -math.inf, np.float64(-1.5), np.float64("-inf"), _Real(-2.0), 3):
        got = check_log_weight(ok)
        assert type(got) is float and got == float(ok)

    table = table_module(("x",), {(0,): (0.9, 0.1), (1,): (0.4, 0.6)})
    x0 = {"x": values.discrete(0)}
    cases = [(bernoulli_module(0.3), {}, "bernoulli", values.DISCRETE, values.real(1.0)),
             (normal_module(0.0, 1.0), {}, "normal", values.REAL, values.discrete(1)),
             (table, x0, "table output", values.DISCRETE, values.real(1.0))]
    for module, inputs, where, kind, wrong in cases:
        for bad, msg in ((wrong, f"{where}: expected {kind} value, got {wrong.kind}"),
                         (1, f"{where}: expected a Value, got int")):
            with pytest.raises(SchemaError) as err:
                module.regenerate(inputs, {"z": bad}, _NoRng())
            assert str(err.value) == msg
        # a subclass of Value of the right kind passes the full check
        good = _Value(kind, 1 if kind == values.DISCRETE else 1.0)
        assert module.regenerate(inputs, {"z": good}, _NoRng())[0] == \
            module.regenerate(inputs, {"z": values.Value(kind, good.data)}, _NoRng())[0]
    for bad, msg in ((values.real(0.0), "table input 'x': expected discrete value, got real"),
                     (0, "table input 'x': expected a Value, got int")):
        for call in (lambda: table.regenerate({"x": bad}, {"z": values.discrete(0)}, _NoRng()),
                     lambda: table.simulate({"x": bad}, default_rng(0))):
            with pytest.raises(SchemaError) as err:
                call()
            assert str(err.value) == msg
    assert table.regenerate({"x": _Value(values.DISCRETE, 1)}, {"z": values.discrete(1)},
                            _NoRng())[0] == math.log(0.6)
