import math

import numpy as np
import pytest

from modnet import values
from modnet.experiment import ConfigError, parse_config
from modnet.inverse import train_inverse
from modnet.mh import flip_proposal, run_chain
from modnet.reference_models import BinaryHmm, chain3_network, hmm_observation, switch_spec
from modnet.smc import Latents, SmcModule, smc_run
from modnet.values import Value, discrete, discrete_vector, real, real_vector


def test_constructors_coerce_and_tag():
    assert discrete(3) == Value(values.DISCRETE, 3)
    assert real(2) == Value(values.REAL, 2.0)
    assert discrete_vector([1, 0, 1]).data == (1, 0, 1)
    assert real_vector([1, 2.5]).data == (1.0, 2.5)


def test_constructors_take_numpy_numbers():
    assert discrete(np.int64(3)) == discrete(3)
    assert type(discrete(np.uint8(3)).data) is int
    assert real(np.float32(0.5)) == real(0.5)
    assert real(np.int64(2)) == real(2.0)
    assert discrete_vector(np.array([1, 0])).data == (1, 0)
    assert real_vector(np.array([1.5, 2.0])).data == (1.5, 2.0)
    assert all(type(x) is float for x in real_vector(np.array([1.5, 2])).data)


@pytest.mark.parametrize("make, bad", [
    (discrete, 2.7), (discrete, 2.0), (discrete, "3"), (discrete, True), (discrete, np.bool_(1)),
    (discrete, None), (discrete_vector, [1.9, 0.2]), (discrete_vector, [1, True]),
    (discrete_vector, ["1"]), (real, "1.5"), (real, True), (real, None), (real, 1j),
    (real_vector, [1.0, "2"]), (real_vector, [False, 1.0]),
])
def test_constructors_refuse_what_they_would_coerce_lossily(make, bad):
    with pytest.raises(ValueError):
        make(bad)


def test_payload_type_enforcement():
    with pytest.raises(ValueError):
        Value(values.DISCRETE, 1.0)
    with pytest.raises(ValueError):
        Value(values.DISCRETE, True)  # bools are not discrete payloads
    with pytest.raises(ValueError):
        Value(values.REAL, 1)
    with pytest.raises(ValueError):
        Value(values.DISCRETE_VECTOR, [1, 2])  # list, not tuple
    with pytest.raises(ValueError):
        Value(values.REAL_VECTOR, (1.0, 2))
    with pytest.raises(ValueError):
        Value("complex", 1j)


def test_real_payloads_must_be_finite():
    with pytest.raises(ValueError):
        real(math.inf)
    with pytest.raises(ValueError):
        real(math.nan)
    with pytest.raises(ValueError):
        real_vector([0.0, -math.inf])


def test_values_are_immutable_and_hashable():
    v = real_vector([1.0, 2.0])
    with pytest.raises(Exception):
        v.data = (3.0,)
    assert len({discrete(1), discrete(1), discrete(0)}) == 2
    assert discrete(1) != real(1.0)


def _hmm(num_steps=2):
    return BinaryHmm(num_steps, 0.6, (0.2, 0.75), trans=(0.3, 0.8))


def _sweep(n, pinned=None):
    return smc_run(_hmm(), {}, hmm_observation([1, 0]), n, np.random.default_rng(0),
                   pinned=pinned)


def _chain(n):
    net = chain3_network()
    net.initialize(np.random.default_rng(0))
    got = []
    run_chain(net, [flip_proposal(1), flip_proposal(2)], n, np.random.default_rng(1),
              sink=got.extend)
    return got


def _field(name):
    return lambda n: getattr(parse_config({"network": "chain3", "seed": 1, name: n}), name)


# entry point -> (count name, least, call that sets the count and returns
# what it stored or computed from it)
COUNTS = {
    "SmcModule": ("num_particles", 1, lambda n: SmcModule(_hmm(), n).num_particles),
    "smc_run": ("num_particles", 1, _sweep),
    "smc_run pinned": ("num_particles", 1, lambda n: _sweep(n, Latents((0, 0)))),
    "train_inverse": ("n_samples", 1, lambda n: train_inverse(
        switch_spec(), n, np.random.default_rng(0)).n_train),
    "BinaryHmm": ("num_steps", 1, lambda n: _hmm(n).num_steps),
    "run_chain": ("iterations", 0, _chain),
    **{f"config {name}": (name, least, _field(name)) for name, least in (
        ("chains", 1), ("iterations", 1), ("particles", 1), ("workers", 1),
        ("train_samples", 0))},
}
_LEAST_MINUS_ONE = object()


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, 2.7, 2.9, 3.0, np.float64(3.0),
                                 "3", None, -2, -3, _LEAST_MINUS_ONE],
                         ids=lambda v: "least-1" if v is _LEAST_MINUS_ONE else None)
@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_follows_one_rule(entry, bad):
    # values.check_count everywhere: one message, no bool, no float however
    # whole, no string, nothing truncated; a config field names itself too
    name, least, call = COUNTS[entry]
    if bad is _LEAST_MINUS_ONE:
        bad = least - 1
    want = f"{name} must be an integer >= {least}, got {bad!r}"
    with pytest.raises((ValueError, ConfigError)) as err:
        call(bad)
    if entry.startswith("config"):
        assert err.type is ConfigError and str(err.value) == f"field {name!r}: {want}"
    else:
        assert err.type is ValueError and str(err.value) == want


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_takes_a_numpy_integer_as_the_plain_int(entry):
    _, _, call = COUNTS[entry]
    got, want = call(np.int64(3)), call(3)
    assert got == want
    if type(want) is int:
        assert type(got) is int
