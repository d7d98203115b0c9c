import math

import pytest
from numpy.random import default_rng
from scipy import stats

from modnet import values
from modnet.interface import (
    DegenerateTraceError,
    ExactModule,
    SchemaError,
    bernoulli_module,
    categorical_module,
    check_log_weight,
    normal_module,
    table_module,
)


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


def test_categorical_density_and_validation():
    m = categorical_module((0.2, 0.5, 0.3))
    lw, _ = m.regenerate({}, {"z": values.discrete(1)}, _NoRng())
    assert lw == math.log(0.5)
    assert m.regenerate({}, {"z": values.discrete(5)}, _NoRng())[0] == -math.inf
    with pytest.raises(ValueError):
        categorical_module((0.2, 0.2))
    with pytest.raises(SchemaError):
        m.regenerate({}, {"z": values.real(1.0)}, _NoRng())


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


def test_port_schema_enforced_on_both_paths():
    m = bernoulli_module(0.5)
    with pytest.raises(SchemaError):
        m.regenerate({"extra": values.discrete(0)}, {"z": values.discrete(0)}, _NoRng())
    with pytest.raises(SchemaError):
        m.regenerate({}, {"y": values.discrete(0)}, _NoRng())
    with pytest.raises(SchemaError):
        m.simulate({"extra": values.discrete(0)}, default_rng(0))


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
