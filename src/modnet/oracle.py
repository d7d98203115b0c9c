"""Brute-force enumeration oracle for small discrete models.

This is the verification path the test suite trusts: explicit sums over
every configuration, nothing shared with the inference engine. Models are
factored as CPTs in topological order, optionally with one continuous leaf
that reads some of the variables and whose log marginal density given them
is available in closed form.

Every answer reads one grid, an array with one axis per factor over the
values the observation leaves open. Each factor's table is indexed by the
open index grids of its variables' axes and multiplied in, in factor order,
so an entry is the left-to-right product of its configuration's table
entries; numpy rounds a multiply as Python does, so these are the doubles of
a walk one configuration at a time. A C-order flatten gives
itertools.product order, a mask drops probability zero, and the leaf is
called once, on a column per variable it reads that lists every assignment
of them. Past the grid the bits are kept too: log and exp go through math
on .tolist() values, as numpy's kernels may differ from libm in the last
bit, log once per distinct probability, and every sum is a left-to-right
fold (np.add.accumulate, as np.sum is pairwise). evidence_and_posterior
takes the total's exponentials once and reuses them for any group whose
maximum is the total's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Mapping

import numpy as np

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

    log_density(columns, obs) must return the closed-form log marginal
    density of obs given each assignment of the parents. columns maps every
    parent to a 1-D array of its values, one entry per assignment, in
    itertools.product order over the parents in factor order (an observed
    parent's column repeats its value). The oracle calls it once per grid;
    it returns one log density per entry, or a scalar when the leaf reads no
    open variable.
    """

    name: str
    parents: tuple[str, ...]
    log_density: Callable[[dict, Any], Any]


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
            expected_rows = math.prod(map(len, parent_domains))
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
        leaf = self.leaf
        if leaf is not None and leaf.name in seen:
            raise ValueError(f"leaf name {leaf.name!r} clashes with a variable")
        if leaf is not None and (len(set(leaf.parents)) != len(leaf.parents)
                                 or not set(leaf.parents) <= set(seen)):
            raise ValueError(f"leaf {leaf.name!r} reads {leaf.parents!r}, "
                             "not distinct variables of the model")
        if math.prod(len(f.domain) for f in self.factors) > MAX_CONFIGS:
            raise ValueError("model too large to enumerate")

    def _domain(self, var: str) -> tuple:
        for f in self.factors:
            if f.var == var:
                return f.domain
        raise KeyError(var)

    def variables(self) -> tuple[str, ...]:
        return tuple(f.var for f in self.factors)


def _fold(xs: np.ndarray) -> float:
    """Left-to-right float sum of a non-empty array: sum() compensates from
    Python 3.12 on and np.sum adds pairwise, while accumulate adds each entry
    to the running total, the uncompensated doubles the fixtures pin."""
    return float(np.add.accumulate(xs)[-1])


def _exps(vals: np.ndarray, m: float) -> np.ndarray:
    # numpy subtracts as Python does; math.exp keeps libm's bits
    return np.array(list(map(math.exp, (vals - m).tolist())))


def _logsumexp(vals: np.ndarray) -> float:
    m = float(vals.max())  # exact
    if m == -math.inf:
        return -math.inf
    return m + math.log(_fold(_exps(vals, m)))


def _grid(model: FactoredDiscreteModel, fixed: Mapping[str, Any]):
    """(law, index): law holds the probability of every configuration
    consistent with the fixed values, with one axis per factor over the
    domain indices in index (one where the value is fixed); None when a
    fixed value is outside its domain."""
    index = []
    for f in model.factors:
        if f.var not in fixed:
            index.append(range(len(f.domain)))
        elif fixed[f.var] in f.domain:
            index.append([f.domain.index(fixed[f.var])])
        else:
            return None
    grids = dict(zip(model.variables(), np.ix_(*index)))
    law = np.ones(())
    for f in model.factors:
        domains = [model._domain(p) for p in f.parents]
        table = np.array([f.table[key] for key in product(*domains)], dtype=float)
        table = table.reshape(*map(len, domains), len(f.domain))
        law = law * table[tuple(grids[v] for v in (*f.parents, f.var))]
    return law, index


def _leaf_grid(model: FactoredDiscreteModel, index, obs) -> np.ndarray:
    """The leaf's log density of obs at every assignment of its parents in
    the grid, from one call, shaped to broadcast over the grid's other
    axes."""
    reads = [k for k, f in enumerate(model.factors) if f.var in model.leaf.parents]
    sizes = [len(index[k]) for k in reads]
    count = math.prod(sizes)
    coords = np.indices(sizes).reshape(len(reads), count)
    columns = {model.factors[k].var:
               np.array(model.factors[k].domain)[np.array(index[k])][c]
               for k, c in zip(reads, coords)}
    dens = np.asarray(model.leaf.log_density(columns, obs), dtype=float)
    shape = [len(ix) if k in reads else 1 for k, ix in enumerate(index)]
    return np.broadcast_to(dens, (count,)).reshape(shape)


def enumerate_joint(model: FactoredDiscreteModel) -> dict[tuple, float]:
    """Exact joint over all discrete variables, keyed by value tuples.

    Only defined for fully discrete models; a continuous leaf has no finite
    joint table.
    """
    if model.leaf is not None:
        raise ValueError("enumerate_joint requires a fully discrete model")
    law, _ = _grid(model, {})
    flat = law.reshape(-1)
    joint = dict(zip(product(*[f.domain for f in model.factors]), flat.tolist()))
    total = _fold(flat)
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"joint sums to {total}, expected 1")
    return joint


def _log_joint(model: FactoredDiscreteModel, observation: Mapping[str, Any]):
    """(terms, keep, shape): an array of log p(config, observation) for
    every configuration consistent with the observation that has positive
    probability, in enumeration order, with the leaf's density added when
    the leaf is observed; their positions in the flat grid; the grid's
    shape."""
    observation = dict(observation)
    leaf_obs = None
    if model.leaf is not None and model.leaf.name in observation:
        leaf_obs = observation.pop(model.leaf.name)
    unknown = set(observation) - set(model.variables())
    if unknown:
        raise ValueError(f"observation names unknown variables: {sorted(unknown)}")
    grid = _grid(model, observation)
    if grid is None:
        return np.empty(0), None, None
    law, index = grid
    flat = law.reshape(-1)
    keep = np.flatnonzero(flat)
    # one math.log per distinct probability: the demo's 8,192 hold 437
    values, inverse = np.unique(flat[keep], return_inverse=True)
    terms = np.array(list(map(math.log, values.tolist())))[inverse]
    if leaf_obs is not None:
        dens = np.broadcast_to(_leaf_grid(model, index, leaf_obs), law.shape)
        terms += dens.reshape(-1)[keep]
    return terms, keep, law.shape


def log_evidence(model: FactoredDiscreteModel, observation: Mapping[str, Any]) -> float:
    """log p(observation), summing the joint over unobserved configurations."""
    terms = _log_joint(model, observation)[0]
    if not terms.size:
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
    terms, keep, shape = _log_joint(model, observation)
    if not terms.size:
        raise UndefinedConditionalError("observation has probability zero")
    # group the terms by a code of their query coordinates: a stable sort keeps
    # each group in enumeration order, taken in the order the keys first appear
    axes = [model.variables().index(q) for q in query]
    coords = {k: keep // math.prod(shape[k + 1:]) % shape[k] for k in axes}
    code = np.zeros(len(terms), dtype=np.int64)
    for k in axes:
        code = code * shape[k] + coords[k]
    order = np.argsort(code, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(code[order])) + 1)
    # a group whose max is the total's has t - m_g == t - m exactly, so it
    # reads its exponentials off the total's
    m = float(terms.max())
    exps = _exps(terms, m) if m != -math.inf else None
    log_probs = {}
    for g in sorted(groups, key=lambda g: g[0]):
        key = tuple(model.factors[k].domain[coords[k][g[0]]] for k in axes)
        if exps is not None and float(terms[g].max()) == m:
            log_probs[key] = m + math.log(_fold(exps[g]))
        else:
            log_probs[key] = _logsumexp(terms[g])
    log_total = _logsumexp(np.array(list(log_probs.values())))
    post = {k: math.exp(lp - log_total) for k, lp in log_probs.items()}
    log_ev = m + math.log(_fold(exps)) if exps is not None else -math.inf
    return log_ev, log_probs, post


def posterior(
    model: FactoredDiscreteModel,
    observation: Mapping[str, Any],
    query: tuple[str, ...],
) -> dict[tuple, float]:
    """Exact posterior over query-variable tuples given the observation."""
    return evidence_and_posterior(model, observation, query)[2]
