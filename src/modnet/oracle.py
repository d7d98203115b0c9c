"""Brute-force enumeration oracle for small discrete models.

This is the verification path the test suite trusts: plain dictionaries,
explicit sums over every configuration, nothing shared with the inference
engine. Models are factored as CPTs in topological order, optionally with one
continuous leaf whose marginal density given a full discrete configuration is
available in closed form.

One generator walks the configurations consistent with an observation, in
enumeration order, and yields each one's log joint; log_evidence, posterior
and evidence_and_posterior are sums over that one stream, so a caller that
needs several of them pays for one pass. The walk is depth first and keeps a
prefix product per depth, so each configuration's probability is the
left-to-right product of its table entries in factor order, while shared
prefixes are multiplied once and a zero prefix drops its subtree. Every
configuration of positive probability is still summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

MAX_CONFIGS = 1 << 20
_ROW_TOL = 1e-9


class UndefinedConditionalError(ValueError):
    """Conditioning event has probability zero."""


@dataclass(frozen=True)
class Factor:
    """CPT for one variable: rows keyed by parent-value tuples."""

    var: str
    domain: tuple
    parents: tuple[str, ...]
    table: Mapping[tuple, tuple[float, ...]]


@dataclass(frozen=True)
class ContinuousLeaf:
    """One continuous observation hanging off the discrete skeleton.

    log_density(config, obs) must return the closed-form log marginal density
    of obs given the full discrete configuration.
    """

    name: str
    log_density: Callable[[dict, Any], float]


class FactoredDiscreteModel:
    def __init__(self, factors, leaf: ContinuousLeaf | None = None):
        self.factors = tuple(factors)
        self.leaf = leaf
        self._validate()

    def _validate(self):
        seen: list[str] = []
        for f in self.factors:
            if f.var in seen:
                raise ValueError(f"duplicate variable {f.var!r}")
            for p in f.parents:
                if p not in seen:
                    raise ValueError(
                        f"factor {f.var!r} references {p!r} before it is defined"
                    )
            if not f.domain:
                raise ValueError(f"factor {f.var!r} has empty domain")
            if len(set(f.domain)) != len(f.domain):
                raise ValueError(f"factor {f.var!r} has duplicate domain values")
            parent_domains = [self._domain(v) for v in f.parents]
            expected_rows = 1
            for d in parent_domains:
                expected_rows *= len(d)
            if len(f.table) != expected_rows:
                raise ValueError(
                    f"factor {f.var!r}: expected {expected_rows} rows, got {len(f.table)}"
                )
            for key, probs in f.table.items():
                if len(key) != len(f.parents) or any(
                    v not in d for v, d in zip(key, parent_domains)
                ):
                    raise ValueError(f"factor {f.var!r}: bad row key {key!r}")
                if len(probs) != len(f.domain):
                    raise ValueError(f"factor {f.var!r}: row {key!r} has wrong arity")
                if not all(p >= 0.0 for p in probs):
                    raise ValueError(
                        f"factor {f.var!r}: row {key!r} has a negative or NaN probability"
                    )
                if abs(sum(probs) - 1.0) > _ROW_TOL:
                    raise ValueError(f"factor {f.var!r}: row {key!r} does not sum to 1")
            seen.append(f.var)
        if self.leaf is not None and self.leaf.name in seen:
            raise ValueError(f"leaf name {self.leaf.name!r} clashes with a variable")
        n = 1
        for f in self.factors:
            n *= len(f.domain)
            if n > MAX_CONFIGS:
                raise ValueError("model too large to enumerate")

    def _domain(self, var: str) -> tuple:
        for f in self.factors:
            if f.var == var:
                return f.domain
        raise KeyError(var)

    def variables(self) -> tuple[str, ...]:
        return tuple(f.var for f in self.factors)


def _fold(xs) -> float:
    """Left-to-right float sum: sum() compensates from Python 3.12 on, and
    the pinned fixtures hold the uncompensated doubles."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _logsumexp(vals):
    m = max(vals)
    if m == -math.inf:
        return -math.inf
    return m + math.log(_fold(math.exp(v - m) for v in vals))


def _configs(model: FactoredDiscreteModel, fixed: Mapping[str, Any],
             keep_zero: bool = False):
    """Yield (config, probability) for every full configuration consistent
    with the fixed assignments, in itertools.product order, skipping those of
    probability zero unless keep_zero. Depth first, with one running product
    per depth taken in factor order, so a subtree whose prefix is 0.0 is
    dropped at once and memory stays O(factors)."""
    names = model.variables()
    choices = []  # per factor: (index in its domain, value) pairs
    for f in model.factors:
        if f.var in fixed:
            if fixed[f.var] not in f.domain:
                return
            choices.append(((f.domain.index(fixed[f.var]), fixed[f.var]),))
        else:
            choices.append(tuple(enumerate(f.domain)))
    if math.prod(map(len, choices)) > MAX_CONFIGS:
        raise ValueError("enumeration space exceeds the configuration cap")
    if not names:
        yield {}, 1.0
        return
    pos = {v: i for i, v in enumerate(names)}
    parents = [[pos[p] for p in f.parents] for f in model.factors]
    vals: list = [None] * len(names)
    prefix = [1.0] * len(names)

    def level(i):
        row = model.factors[i].table[tuple([vals[q] for q in parents[i]])]
        return iter(choices[i]), row

    stack = [level(0)]
    while stack:
        i = len(stack) - 1
        values, row = stack[-1]
        for j, v in values:
            p = prefix[i] * row[j]
            if p == 0.0 and not keep_zero:
                continue
            vals[i] = v
            if i + 1 == len(names):
                yield dict(zip(names, vals)), p
            else:
                prefix[i + 1] = p
                stack.append(level(i + 1))
                break
        else:
            stack.pop()


def enumerate_joint(model: FactoredDiscreteModel) -> dict[tuple, float]:
    """Exact joint over all discrete variables, keyed by value tuples.

    Only defined for fully discrete models; a continuous leaf has no finite
    joint table.
    """
    if model.leaf is not None:
        raise ValueError("enumerate_joint requires a fully discrete model")
    names = model.variables()
    joint = {}
    for config, p in _configs(model, {}, keep_zero=True):
        joint[tuple(config[v] for v in names)] = p
    total = _fold(joint.values())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"joint sums to {total}, expected 1")
    return joint


def _log_joint(model: FactoredDiscreteModel, observation: Mapping[str, Any]):
    """Yield (config, log p(config, observation)) for every configuration
    consistent with the observation, in enumeration order, skipping those of
    probability zero; the leaf's density is added when the leaf is observed."""
    observation = dict(observation)
    leaf_obs = None
    if model.leaf is not None and model.leaf.name in observation:
        leaf_obs = observation.pop(model.leaf.name)
    unknown = set(observation) - set(model.variables())
    if unknown:
        raise ValueError(f"observation names unknown variables: {sorted(unknown)}")
    for config, p in _configs(model, observation):
        lp = math.log(p)
        if leaf_obs is not None:
            lp += model.leaf.log_density(config, leaf_obs)
        yield config, lp


def log_evidence(model: FactoredDiscreteModel, observation: Mapping[str, Any]) -> float:
    """log p(observation), summing the joint over unobserved configurations."""
    terms = [lp for _, lp in _log_joint(model, observation)]
    if not terms:
        return -math.inf
    return _logsumexp(terms)


def evidence_and_posterior(
    model: FactoredDiscreteModel,
    observation: Mapping[str, Any],
    query: tuple[str, ...],
) -> tuple[float, dict[tuple, float], dict[tuple, float]]:
    """One enumeration pass for three answers: log p(observation); log p(query
    = k, observation) for every query tuple k of positive probability; and the
    posterior over k. Each equals, bit for bit, what log_evidence (with k added
    to the observation) and posterior return."""
    for q in query:
        model._domain(q)  # raises KeyError for unknown names
        if q in observation:
            raise ValueError(f"query variable {q!r} is observed")
    terms: list[float] = []
    log_terms: dict[tuple, list[float]] = {}
    for config, lp in _log_joint(model, observation):
        terms.append(lp)
        log_terms.setdefault(tuple(config[q] for q in query), []).append(lp)
    if not terms:
        raise UndefinedConditionalError("observation has probability zero")
    log_probs = {k: _logsumexp(v) for k, v in log_terms.items()}
    log_total = _logsumexp(list(log_probs.values()))
    post = {k: math.exp(lp - log_total) for k, lp in log_probs.items()}
    return _logsumexp(terms), log_probs, post


def posterior(
    model: FactoredDiscreteModel,
    observation: Mapping[str, Any],
    query: tuple[str, ...],
) -> dict[tuple, float]:
    """Exact posterior over query-variable tuples given the observation."""
    return evidence_and_posterior(model, observation, query)[2]
