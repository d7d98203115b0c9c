"""Learned stochastic inverses for small discrete generative models.

A DiscreteModelSpec lists latent variables in forward sampling order, then
output variables, each with a conditional probability table over its parents.
The inverse runs the other way: conditioned on the outputs, latents are
sampled last-to-first, each from a conditional table over the outputs plus
the latents already drawn. Tables are either estimated from forward samples
(with add-one smoothing: a pseudo-count of 1 on every entry the forward
model allows, that is each value v with p(context, v) > 0, read from the
zero pattern of the forward tables; one count of every full assignment
serves all the tables) or enumerated exactly in rational arithmetic.

Training never forward-samples. The tables read n forward samples only
through their count of every full assignment, and for n iid samples that
count vector is Multinomial(n, p) over the joint; the joint is small enough
to enumerate, so training builds p and draws the counts once, in time and
memory that grow with the joint's size and not with n. p takes each forward
row as the walk realises it: a value's probability is the difference of the
row's running float sums, clipped to [0, 1], so a row that sums to
1 +/- PROB_ROW_TOL keeps the law the walk gives it.

An inverse wrapped as a module reports lw = log p(u, z) - log q(u | z). With
the exact inverse that ratio telescopes to p(z) identically, and evaluating
it in rationals keeps the reported value bit-for-bit independent of which
latents were drawn. The module computes each full assignment's weight once,
in rationals for an exact inverse, then looks it up.

Each row's running float sums are built once, with the module. A call draws
all its uniforms with one rng.random(n), n the number of rows it samples,
and picks each value by bisecting its row's sums. That is the value the walk
over the row (interface._walk) picks with one rng.random() per row, which
gives the same doubles and leaves the generator at the same place; a u past
a row's whole float sum takes the last value, as the walk does.

regenerate is unbiased for p(z) with either kind of table. simulate meets the
harmonic identity E[exp(-lw) 1{z = z*}] = 1 when the inverse puts no mass on
latents that p(u, z*) rules out, which holds for both: exact tables give
those latents probability 0, and learned rows smooth only over the values
the forward model allows in their context.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product
from numbers import Integral
from typing import Mapping

import numpy as np

from .interface import ProbModule, SchemaError
from .values import Value, discrete

PROB_ROW_TOL = 1e-9


@dataclass(frozen=True)
class VariableSpec:
    """One discrete variable: its support and a table keyed by parent values."""

    name: str
    domain: tuple[int, ...]
    parents: tuple[str, ...] = ()
    table: Mapping[tuple, tuple[float, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class DiscreteModelSpec:
    latents: tuple[VariableSpec, ...]
    outputs: tuple[VariableSpec, ...]

    def __post_init__(self):
        by_name: dict[str, VariableSpec] = {}
        for v in self.latents + self.outputs:
            if v.name in by_name:
                raise SchemaError(f"duplicate variable name {v.name!r}")
            _check_variable(v, by_name)
            by_name[v.name] = v

    @property
    def variables(self) -> tuple[VariableSpec, ...]:
        return self.latents + self.outputs

    def variable(self, name: str) -> VariableSpec:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)


def _check_variable(v: VariableSpec, earlier: Mapping[str, VariableSpec]) -> None:
    if not v.domain or len(set(v.domain)) != len(v.domain):
        raise SchemaError(f"{v.name}: domain must be nonempty and distinct")
    if any(not isinstance(d, int) or isinstance(d, bool) for d in v.domain):
        raise SchemaError(f"{v.name}: domain values must be ints")
    for p in v.parents:
        if p not in earlier:
            raise SchemaError(f"{v.name}: parent {p!r} is not an earlier variable")
    for key, probs in v.table.items():
        if len(probs) != len(v.domain):
            raise SchemaError(f"{v.name}: row {key} has {len(probs)} entries")
        for p in probs:
            if not 0.0 <= p <= 1.0:  # NaN fails both comparisons
                raise SchemaError(f"{v.name}: row {key} has {p!r}, "
                                  "not a probability in [0, 1]")
        if abs(sum(probs) - 1.0) > PROB_ROW_TOL:
            raise SchemaError(f"{v.name}: row {key} sums to {sum(probs)}")
    for key in product(*[earlier[p].domain for p in v.parents]):
        if key not in v.table:
            raise SchemaError(f"{v.name}: missing table row for parents {key}")


@dataclass(frozen=True)
class InverseFactor:
    """Sampling rule for one latent, conditioned on `context` variables.

    Probabilities are floats for learned tables and Fractions for exact ones.
    """

    var: str
    domain: tuple[int, ...]
    context: tuple[str, ...]
    table: Mapping[tuple, tuple]


@dataclass(frozen=True)
class InverseNetwork:
    """Factors listed in sampling order: last forward latent first."""

    factors: tuple[InverseFactor, ...]
    n_train: int
    exact: bool = False


# -- table rows and sampling --------------------------------------------------


def _bound_rows(rows) -> tuple:
    """(variable, domain, conditioning, bounds) rows, where bounds maps each
    table key to the row's running float sums, the totals _walk compares u
    with, without the last. bisect_right over them picks the value _walk
    picks, and a u past the whole sum lands on the last value, as _walk's
    fallback does."""
    return tuple(
        (var, domain, cond,
         {key: list(accumulate(map(float, row), initial=0.0))[1:-1]
          for key, row in table.items()})
        for var, domain, cond, table in rows)


def _draw(rows, assign: dict[str, int], rng) -> dict[str, int]:
    """Draw each row's variable in order, given the values already in
    assign. All the rows' uniforms come from one rng.random call, whose
    doubles are those of one call per row."""
    for (var, domain, cond, bounds), u in zip(rows, rng.random(len(rows)).tolist()):
        assign[var] = domain[bisect_right(bounds[tuple(map(assign.__getitem__, cond))], u)]
    return assign


def _forward_rows(spec: DiscreteModelSpec) -> tuple:
    return tuple((v.name, v.domain, v.parents, v.table) for v in spec.variables)


def _row_probs(rows, assign: Mapping[str, int]) -> list:
    """The probability each (variable, domain, conditioning, table) row
    assigns to the variable's value in assign."""
    return [table[tuple(assign[c] for c in cond)][domain.index(assign[var])]
            for var, domain, cond, table in rows]


# -- inverse construction -----------------------------------------------------


def _sampling_plan(spec: DiscreteModelSpec) -> list[tuple[str, tuple[str, ...]]]:
    """(latent, context) pairs in sampling order; contexts grow as we go."""
    ctx = [o.name for o in spec.outputs]
    plan = []
    for v in reversed(spec.latents):
        plan.append((v.name, tuple(ctx)))
        ctx.append(v.name)
    return plan


def _joint(spec: DiscreteModelSpec, order) -> tuple[np.ndarray, np.ndarray]:
    """The forward law and its support at each full assignment, flat in
    mixed-radix code order over order, first variable most significant, so
    codes count up in itertools.product order.

    The law takes each row as the forward walk realises it: value j gets
    the difference of the running float sums on either side of it, each
    clipped to [0, 1], and the last value everything from its start up to 1.
    The support is the AND of every forward table's positive entries."""
    axis = {v.name: k for k, v in enumerate(order)}
    grid = np.indices([len(v.domain) for v in order], sparse=True)
    law, possible = 1.0, True
    for v in spec.variables:
        parents = [spec.variable(p) for p in v.parents]
        rows = np.array([v.table[key] for key in product(*[p.domain for p in parents])],
                        dtype=float).reshape(*[len(p.domain) for p in parents], -1)
        edges = np.minimum(rows.cumsum(axis=-1)[..., :-1], 1.0)
        walked = np.diff(edges, axis=-1, prepend=0.0, append=1.0)
        # indexed by the open grids, each entry reaches every full
        # assignment that agrees with it on the table's variables
        at = tuple(grid[axis[n]] for n in (*v.parents, v.name))
        law = law * walked[at]
        possible = possible & (rows > 0.0)[at]
    law = law.reshape(-1)
    return law / law.sum(), possible.reshape(-1)


def train_inverse(spec: DiscreteModelSpec, n_samples: int, rng) -> InverseNetwork:
    """Estimate inverse conditionals from the counts of n_samples forward
    samples, drawn as one Multinomial(n_samples, p) over the joint.

    Add-one smoothing covers the values v with p(context, v) > 0 and leaves
    the rest at 0, so a context never seen in training gets a uniform row
    over them; where every forward entry is positive that is every value, and
    a row is (joint + 1) / (counts + d). A context the forward model rules out
    gets a uniform row over the whole domain. Time and memory grow with the
    joint's size, not with n_samples, which must be an integer >= 1.
    """
    if (isinstance(n_samples, bool) or not isinstance(n_samples, Integral)
            or n_samples < 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    n_samples = int(n_samples)

    # The count of every full assignment, coded in sampling order: outputs,
    # then latents last to first. Each factor's (context, variable) is a
    # prefix of that order, so its joint counts are the full counts with the
    # later variables summed out, exactly, in integers. The forward model's
    # support is reduced the same way, with any() for the sum: a factor's
    # row smooths only over the values v with p(context, v) > 0.
    order = (*spec.outputs, *reversed(spec.latents))
    law, possible = _joint(spec, order)
    prefix = rng.multinomial(n_samples, law)
    factors = []
    for var, ctx in reversed(_sampling_plan(spec)):
        v = spec.variable(var)
        d = len(v.domain)
        ctx_vars = [spec.variable(c) for c in ctx]
        joint = prefix.reshape(-1, d)
        prefix = joint.sum(axis=1)
        joint = joint.astype(np.float64)
        counts = joint.sum(axis=1, keepdims=True)
        support = possible.reshape(-1, d)
        possible = support.any(axis=1)
        # a context the model rules out is reached only from an impossible
        # output, which weighs -inf whatever is drawn: its row is uniform
        support = support | ~possible[:, None]
        table_arr = (np.where(support, joint + 1.0, 0.0)
                     / (counts + support.sum(axis=1, keepdims=True)))
        table = dict(zip(product(*[c.domain for c in ctx_vars]), map(tuple, table_arr)))
        factors.append(InverseFactor(var, v.domain, ctx, table))
    return InverseNetwork(tuple(reversed(factors)), n_samples)


def exact_inverse(spec: DiscreteModelSpec) -> InverseNetwork:
    """Enumerate the joint in rational arithmetic and read off each
    conditional. Every float in the forward tables converts to a Fraction
    exactly, so these tables carry no rounding at all."""
    names = [v.name for v in spec.variables]
    rows = _forward_rows(spec)
    joint: dict[tuple, Fraction] = {}
    for combo in product(*[v.domain for v in spec.variables]):
        pr = math.prod(map(Fraction, _row_probs(rows, dict(zip(names, combo)))))
        if pr:
            joint[combo] = pr

    idx = {n: i for i, n in enumerate(names)}
    factors = []
    for var, ctx in _sampling_plan(spec):
        v = spec.variable(var)
        ctx_vars = [spec.variable(c) for c in ctx]
        marg: dict[tuple, Fraction] = {}
        cond: dict[tuple, dict[int, Fraction]] = {}
        for combo, pr in joint.items():
            key = tuple(combo[idx[c.name]] for c in ctx_vars)
            marg[key] = marg.get(key, Fraction(0)) + pr
            row = cond.setdefault(key, {})
            val = combo[idx[var]]
            row[val] = row.get(val, Fraction(0)) + pr
        table = {}
        for key in product(*[c.domain for c in ctx_vars]):
            if key in marg:
                table[key] = tuple(cond[key].get(d, Fraction(0)) / marg[key]
                                   for d in v.domain)
            else:
                # context has zero probability: only an impossible output
                # reaches it, and that output weighs -inf
                table[key] = (Fraction(1, len(v.domain)),) * len(v.domain)
        factors.append(InverseFactor(var, v.domain, ctx, table))
    return InverseNetwork(tuple(factors), 0, exact=True)


# -- module wrapper -----------------------------------------------------------


def _sum_log(probs) -> float:
    out = 0.0
    for p in probs:
        if p == 0:
            return -math.inf
        out += math.log(p)
    return out


class InverseModule(ProbModule):
    """Module backed by a stochastic inverse. No input ports; one output
    port per output variable."""

    def __init__(self, spec: DiscreteModelSpec, inv: InverseNetwork):
        if [f.var for f in inv.factors] != [v.name for v in reversed(spec.latents)]:
            raise SchemaError("inverse factors do not match the model's latents")
        self.spec = spec
        self.inv = inv
        # (variable, domain, conditioning, table) rows, in sampling order,
        # and the bounds the draws bisect, summed from the same floats _walk
        # makes of an exact table's rationals
        self._forward = _forward_rows(spec)
        self._inverse = tuple((f.var, f.domain, f.context, f.table)
                              for f in inv.factors)
        self._forward_bounds = _bound_rows(self._forward)
        self._inverse_bounds = _bound_rows(self._inverse)
        self._latents = tuple(v.name for v in spec.latents)
        self._names = tuple(v.name for v in spec.variables)
        # log-weight per full assignment (spec.variables order), lazily filled
        self._weights: dict[tuple, float] = {}
        self.input_ports = ()
        self.output_ports = tuple(o.name for o in spec.outputs)

    def _log_weight(self, assign: Mapping[str, int]) -> float:
        """log p(u, z) - log q(u | z) at one full assignment."""
        key = tuple(map(assign.__getitem__, self._names))
        lw = self._weights.get(key)
        if lw is None:
            lw = self._weights[key] = self._compute_log_weight(assign)
        return lw

    def _compute_log_weight(self, assign: Mapping[str, int]) -> float:
        if self.inv.exact:
            # in rationals, so the ratio is exactly p(z) whatever u was drawn
            r = math.prod(map(Fraction, _row_probs(self._forward, assign)))
            if not r:
                return -math.inf
            r /= math.prod(_row_probs(self._inverse, assign))
            # works for magnitudes far outside float range
            return math.log(r.numerator) - math.log(r.denominator)
        lp = _sum_log(_row_probs(self._forward, assign))
        if lp == -math.inf:
            return lp
        return lp - _sum_log(_row_probs(self._inverse, assign))

    def simulate(self, inputs, rng):
        self.check_inputs(inputs)
        assign = _draw(self._forward_bounds, {}, rng)
        z = {name: discrete(assign[name]) for name in self.output_ports}
        aux = {name: assign[name] for name in self._latents}
        return z, self._log_weight(assign), aux

    def regenerate(self, inputs, outputs, rng):
        self.check_inputs(inputs)
        self.check_outputs(outputs)
        assign: dict[str, int] = {}
        for o in self.spec.outputs:
            val = _discrete_value(outputs[o.name], o.name)
            if val not in o.domain:
                return -math.inf, dict.fromkeys(self._latents)
            assign[o.name] = val
        assign = _draw(self._inverse_bounds, assign, rng)
        return self._log_weight(assign), {name: assign[name] for name in self._latents}


def _discrete_value(v: Value, port: str) -> int:
    if v.kind != "discrete":
        raise SchemaError(f"port {port!r} expects a discrete value, got {v.kind}")
    return v.data
