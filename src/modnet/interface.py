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
from functools import cached_property
from typing import Any, Mapping

from . import values
from .values import DISCRETE, REAL, Value


class ModnetError(Exception):
    """Base for everything this package raises on purpose."""


class SchemaError(ModnetError):
    """Module IO violated a declared port schema or value-kind contract."""


class DegenerateTraceError(ModnetError):
    """A sampling procedure produced a trace of probability zero."""


def check_log_weight(lw: float) -> float:
    """Validate the log-weight range contract: finite or -inf, never NaN/+inf.

    A plain float below +inf (NaN compares false) is returned as it is; any
    other value is converted and checked the long way, which raises."""
    if type(lw) is float and lw < math.inf:
        return lw
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

    # The key views compare against the declared ports, frozen once per
    # instance, so a passing call builds no set; a mismatch raises below.
    @cached_property
    def _port_sets(self) -> tuple[frozenset, frozenset]:
        return frozenset(self.input_ports), frozenset(self.output_ports)

    def check_inputs(self, inputs: Mapping[str, Value]) -> None:
        if inputs.keys() != self._port_sets[0]:
            raise SchemaError(
                f"{type(self).__name__}: input ports {sorted(inputs)} != "
                f"declared {sorted(self.input_ports)}"
            )

    def check_outputs(self, outputs: Mapping[str, Value]) -> None:
        if outputs.keys() != self._port_sets[1]:
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

    def __init__(self, sampler, log_density, input_ports, output_ports):
        self._sampler = sampler
        self._log_density = log_density
        self.input_ports = tuple(input_ports)
        self.output_ports = tuple(output_ports)

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
    """The domain value where the cumulative sum of probs first passes u; a
    u past the whole float sum, which may fall short of 1 by rounding, takes
    the last value of positive probability."""
    acc = 0.0
    for val, p in zip(domain, probs):
        acc += float(p)
        if u < acc:
            return val
    return next(val for val, p in zip(reversed(domain), reversed(probs)) if p > 0)


# The exact modules test the well-formed case, `type(v) is Value and
# v.kind == kind`, inline and call _require_kind only when it fails: that
# raises, or returns a subclass of Value of the right kind unchanged.
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
        v = outputs[port]
        z = v.data if type(v) is Value and v.kind == DISCRETE else \
            _require_kind(v, DISCRETE, "bernoulli").data
        if z == 1:
            return math.log(theta)
        if z == 0:
            return math.log1p(-theta)
        return -math.inf

    return ExactModule(sample, log_density, (), (port,))


def normal_module(mu: float, sigma: float, port: str = "z") -> ProbModule:
    """Exact scalar Gaussian."""
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if not 0.0 < sigma < math.inf:  # NaN fails too
        raise ValueError("sigma must be positive and finite")

    def sample(inputs, rng):
        return {port: values.real(mu + sigma * rng.standard_normal())}

    def log_density(inputs, outputs):
        v = outputs[port]
        z = v.data if type(v) is Value and v.kind == REAL else \
            _require_kind(v, REAL, "normal").data
        t = (z - mu) / sigma
        return -0.5 * math.log(2.0 * math.pi) - math.log(sigma) - 0.5 * t * t

    return ExactModule(sample, log_density, (), (port,))


def check_domain(domain) -> tuple[int, ...]:
    """A finite discrete domain, a table_module's or a discrete_uniform
    proposal's: a non-empty list or tuple of distinct ints. Nothing is
    coerced, so a bool, a float or a string is refused."""
    if (not isinstance(domain, (list, tuple)) or not domain
            or any(not isinstance(d, int) or isinstance(d, bool) for d in domain)
            or len(set(domain)) != len(domain)):
        raise ValueError("'domain' must be a non-empty list of distinct integers")
    return tuple(domain)


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
    domain = check_domain(domain)
    rows = {tuple(k): tuple(float(p) for p in v) for k, v in rows.items()}
    for key, probs in rows.items():
        if (len(probs) != len(domain) or not all(p >= 0.0 for p in probs)
                or abs(sum(probs) - 1.0) > 1e-9):
            raise ValueError(f"bad CPT row {key!r}: not a distribution over {domain}")

    # log p per (input key, z) over the nonzero entries; anything else is -inf
    column = [(z, domain.index(z)) for z in domain]
    log_p = {(key, z): math.log(probs[k]) for key, probs in rows.items()
             for z, k in column if probs[k] > 0.0}

    def key_of(inputs):
        key = []
        for p in input_ports:
            v = inputs[p]
            key.append(v.data if type(v) is Value and v.kind == DISCRETE else
                       _require_kind(v, DISCRETE, f"table input {p!r}").data)
        return tuple(key)

    def sample(inputs, rng):
        key = key_of(inputs)
        if key not in rows:
            raise SchemaError(f"table: no row for input combination {key!r}")
        return {port: values.discrete(_walk(domain, rows[key], rng.random()))}

    def log_density(inputs, outputs):
        key = key_of(inputs)
        v = outputs[port]
        z = v.data if type(v) is Value and v.kind == DISCRETE else \
            _require_kind(v, DISCRETE, "table output").data
        return log_p.get((key, z), -math.inf)

    return ExactModule(sample, log_density, tuple(input_ports), (port,))
