import math

import numpy as np
import pytest

from modnet import values
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
