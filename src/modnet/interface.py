"""The module contract: simulate and regenerate with auxiliary log-weights.

A module is a conditional sampler over named output ports given named input
ports. Internally it may draw arbitrary auxiliary randomness u; externally it
reports a log-weight lw alongside every call such that

  exp(lw) = (joint density of u and outputs under the model)
            / (density of u under the sampler the call actually used),

evaluated at the sampled point. regenerate draws fresh u for fixed outputs, so
exp(lw) is an unbiased estimate of the marginal probability of the outputs
given the inputs. simulate draws u and outputs jointly. Modules with no
auxiliary randomness collapse to exact density evaluation: regenerate becomes
deterministic (see ExactModule).

Log-weights are plain floats on the natural-log scale. -inf is a legal value
(impossible outputs); NaN and +inf never are. The auxiliary record is opaque
to everything outside the module and only meaningful next to the log-weight
returned by the same call; network code stores the pair in one slot.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Mapping

from . import values
from .values import Value


class ModnetError(Exception):
    """Base for everything this package raises on purpose."""


class SchemaError(ModnetError):
    """Module IO violated a declared port schema or value-kind contract."""


class DegenerateTraceError(ModnetError):
    """A sampling procedure produced a trace of probability zero."""

    def __init__(self, message: str = "degenerate trace"):
        super().__init__(message)
        self.log_weight = -math.inf


def check_log_weight(lw: float) -> float:
    """Validate the log-weight range contract: finite or -inf, never NaN/+inf."""
    lw = float(lw)
    if math.isnan(lw):
        raise SchemaError("log-weight is NaN")
    if lw == math.inf:
        raise SchemaError("log-weight is +inf")
    return lw


ModuleIO = dict[str, Value]


class ProbModule(ABC):
    """Base class fixing the port schema and the two sampling entry points."""

    input_ports: tuple[str, ...] = ()
    output_ports: tuple[str, ...] = ()

    @abstractmethod
    def simulate(self, inputs: ModuleIO, rng) -> tuple[ModuleIO, float, Any]:
        """Sample outputs, returning (outputs, log_weight, aux)."""

    @abstractmethod
    def regenerate(self, inputs: ModuleIO, outputs: ModuleIO, rng) -> tuple[float, Any]:
        """Score fixed outputs with fresh auxiliary randomness: (log_weight, aux)."""

    def check_inputs(self, inputs: Mapping[str, Value]) -> None:
        if set(inputs) != set(self.input_ports):
            raise SchemaError(
                f"{type(self).__name__}: input ports {sorted(inputs)} != "
                f"declared {sorted(self.input_ports)}"
            )

    def check_outputs(self, outputs: Mapping[str, Value]) -> None:
        if set(outputs) != set(self.output_ports):
            raise SchemaError(
                f"{type(self).__name__}: output ports {sorted(outputs)} != "
                f"declared {sorted(self.output_ports)}"
            )


class ExactModule(ProbModule):
    """Module with no auxiliary randomness: lw is the exact log-density.

    regenerate never touches the RNG, so repeated calls at fixed (inputs,
    outputs) are bit-identical. simulate must only produce outputs the density
    supports; a sampler that contradicts its own density is a defect and
    surfaces as DegenerateTraceError.
    """

    def __init__(self, sampler, log_density, input_ports, output_ports, name=None):
        self._sampler = sampler
        self._log_density = log_density
        self.input_ports = tuple(input_ports)
        self.output_ports = tuple(output_ports)
        if name:
            self.name = name

    def simulate(self, inputs, rng):
        self.check_inputs(inputs)
        outputs = self._sampler(inputs, rng)
        self.check_outputs(outputs)
        lw = check_log_weight(self._log_density(inputs, outputs))
        if lw == -math.inf:
            raise DegenerateTraceError("exact sampler left its own support")
        return outputs, lw, None

    def regenerate(self, inputs, outputs, rng):
        self.check_inputs(inputs)
        self.check_outputs(outputs)
        return check_log_weight(self._log_density(inputs, outputs)), None


def _walk(domain, probs, u: float):
    """The domain value where the cumulative sum of probs first passes u."""
    acc = 0.0
    for val, p in zip(domain, probs):
        acc += float(p)
        if u < acc:
            return val
    return domain[-1]


def _require_kind(value: Value, kind: str, where: str) -> Value:
    if not isinstance(value, Value):
        raise SchemaError(f"{where}: expected a Value, got {type(value).__name__}")
    if value.kind != kind:
        raise SchemaError(f"{where}: expected {kind} value, got {value.kind}")
    return value


def bernoulli_module(theta: float, port: str = "z") -> ProbModule:
    """Exact coin with fixed success probability."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie strictly inside (0, 1)")

    def sample(inputs, rng):
        return {port: values.discrete(1 if rng.random() < theta else 0)}

    def log_density(inputs, outputs):
        z = _require_kind(outputs[port], values.DISCRETE, "bernoulli").data
        if z == 1:
            return math.log(theta)
        if z == 0:
            return math.log1p(-theta)
        return -math.inf

    return ExactModule(sample, log_density, (), (port,), name=f"bernoulli({theta})")


def categorical_module(probs, port: str = "z") -> ProbModule:
    """Exact categorical over values 0..k-1 with the given probabilities."""
    probs = tuple(float(p) for p in probs)
    if not probs or any(p < 0.0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError("probs must be nonnegative and sum to 1")

    support = range(len(probs))

    def sample(inputs, rng):
        return {port: values.discrete(_walk(support, probs, rng.random()))}

    def log_density(inputs, outputs):
        z = _require_kind(outputs[port], values.DISCRETE, "categorical").data
        if 0 <= z < len(probs) and probs[z] > 0.0:
            return math.log(probs[z])
        return -math.inf

    return ExactModule(sample, log_density, (), (port,))


def normal_module(mu: float, sigma: float, port: str = "z") -> ProbModule:
    """Exact scalar Gaussian."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")

    def sample(inputs, rng):
        return {port: values.real(mu + sigma * rng.standard_normal())}

    def log_density(inputs, outputs):
        z = _require_kind(outputs[port], values.REAL, "normal").data
        t = (z - mu) / sigma
        return -0.5 * math.log(2.0 * math.pi) - math.log(sigma) - 0.5 * t * t

    return ExactModule(sample, log_density, (), (port,))


def table_module(
    input_ports: tuple[str, ...],
    rows: Mapping[tuple, tuple[float, ...]],
    domain: tuple[int, ...] = (0, 1),
    port: str = "z",
) -> ProbModule:
    """Exact CPT over a finite domain, rows keyed by discrete input tuples.

    An input combination with no row has no support: log_density scores it
    -inf, so a proposal that leads there is rejected rather than raising.
    """
    domain = tuple(domain)
    rows = {tuple(k): tuple(float(p) for p in v) for k, v in rows.items()}
    for key, probs in rows.items():
        if len(probs) != len(domain) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"bad CPT row {key!r}")

    def key_of(inputs):
        return tuple(
            _require_kind(inputs[p], values.DISCRETE, f"table input {p!r}").data
            for p in input_ports
        )

    def sample(inputs, rng):
        key = key_of(inputs)
        if key not in rows:
            raise SchemaError(f"table: no row for input combination {key!r}")
        return {port: values.discrete(_walk(domain, rows[key], rng.random()))}

    def log_density(inputs, outputs):
        probs = rows.get(key_of(inputs))
        z = _require_kind(outputs[port], values.DISCRETE, "table output").data
        if probs is not None and z in domain:
            p = probs[domain.index(z)]
            if p > 0.0:
                return math.log(p)
        return -math.inf

    return ExactModule(sample, log_density, tuple(input_ports), (port,))
