"""Learned stochastic inverses for small discrete generative models.

A DiscreteModelSpec lists latent variables in forward sampling order, then
output variables, each with a conditional probability table over its parents.
The inverse runs the other way: conditioned on the outputs, latents are
sampled last-to-first, each from a conditional table over the outputs plus
the latents already drawn. Both kinds of table are read off one enumeration
of the joint by one reduction: learned tables off the counts of forward
samples, with a pseudo-count of 1 on every entry the forward model allows
(each value v with p(context, v) > 0, read from the zero pattern of the
forward tables), exact ones off the joint itself in rational arithmetic,
with a pseudo-count of 0, the learned tables' infinite-data limit.

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
a row's whole float sum takes the last positive entry, as the walk does.

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


def _bounds(row) -> list[float]:
    """The row's running float sums, the totals _walk compares u with, up
    to the start of its last positive entry. bisect_right over them picks
    the value _walk picks, and a u past them lands on that last positive
    entry, where _walk's fallback puts a u past the whole sum."""
    probs = list(map(float, row))
    last = max(j for j, p in enumerate(probs) if p > 0.0)
    return list(accumulate(probs[:last], initial=0.0))[1:]


def _walk_probs(row) -> list[float]:
    """The probability _walk gives each value of row: the length of the
    interval of uniforms in [0, 1) it sends there, between the row's _bounds
    on either side, each clipped to 1; the last positive entry takes
    everything from its start up to 1, the entries after it nothing."""
    ends = [min(b, 1.0) for b in _bounds(row)]
    ends += [1.0] * (len(row) - len(ends))
    return [b - a for a, b in zip([0.0, *ends], ends)]


def _bound_rows(rows) -> tuple:
    """(variable, domain, conditioning, bounds) rows, where bounds maps each
    table key to its row's _bounds."""
    return tuple(
        (var, domain, cond, {key: _bounds(row) for key, row in table.items()})
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


def _joint(spec: DiscreteModelSpec, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """The forward law and its support at each full assignment, flat in
    mixed-radix code order: outputs, then latents last to first, first
    variable most significant, so codes count up in itertools.product order.

    The float law takes each row as the forward walk realises it, its
    _walk_probs; it is normalised. The exact law is the product of the
    table entries as Fractions, in an object array, not normalised: every
    table read off it is a ratio of its cells. The support is the AND of
    every forward table's positive entries."""
    order = (*spec.outputs, *reversed(spec.latents))
    axis = {v.name: k for k, v in enumerate(order)}
    grid = np.indices([len(v.domain) for v in order], sparse=True)
    law, possible = 1, True
    for v in spec.variables:
        parents = [spec.variable(p) for p in v.parents]
        keys = list(product(*[p.domain for p in parents]))
        rows = np.array([v.table[key] for key in keys],
                        dtype=float).reshape(*[len(p.domain) for p in parents], -1)
        if exact:
            probs = np.frompyfunc(Fraction, 1, 1)(rows)
        else:
            probs = np.array([_walk_probs(v.table[key]) for key in keys]).reshape(rows.shape)
        # indexed by the open grids, each entry reaches every full
        # assignment that agrees with it on the table's variables
        at = tuple(grid[axis[n]] for n in (*v.parents, v.name))
        law = law * probs[at]
        possible = possible & (rows > 0.0)[at]
    law = law.reshape(-1)
    return (law if exact else law / law.sum()), possible.reshape(-1)


def _factors(spec: DiscreteModelSpec, cells: np.ndarray, possible: np.ndarray,
             pseudo) -> tuple[InverseFactor, ...]:
    """Each latent's factor, read off the joint's cells (counts or exact
    probabilities) and support, both flat in _joint's code order.

    A latent's context is the code order's prefix before it, so its joint
    cells are the full cells with the later variables summed out, and the
    support is reduced the same way, with any() for the sum. A row is each
    cell plus pseudo on the values v with p(context, v) > 0, over the
    context's total plus pseudo per such value. A context the model rules
    out is reached only from an impossible output, which weighs -inf
    whatever is drawn: it takes a pseudo-count of 1 on every value, a
    uniform row."""
    order = [*spec.outputs, *reversed(spec.latents)]
    factors = []
    for v in spec.latents:
        order.pop()
        d = len(v.domain)
        joint = cells.reshape(-1, d)
        cells = joint.sum(axis=1)
        support = possible.reshape(-1, d)
        possible = support.any(axis=1)
        support = support | ~possible[:, None]
        smooth = np.where(possible, pseudo, 1)[:, None]
        rows = (np.where(support, joint + smooth, 0)
                / (cells[:, None] + smooth * support.sum(axis=1, keepdims=True)))
        table = dict(zip(product(*[c.domain for c in order]), map(tuple, rows)))
        factors.append(InverseFactor(v.name, v.domain, tuple(c.name for c in order), table))
    return tuple(reversed(factors))


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
    law, possible = _joint(spec, False)
    return InverseNetwork(_factors(spec, rng.multinomial(n_samples, law), possible, 1),
                          n_samples)


def exact_inverse(spec: DiscreteModelSpec) -> InverseNetwork:
    """The training rule applied to the exact joint: the same reduction as
    train_inverse, with the product of the table entries as Fractions in
    place of the counts and a pseudo-count of 0. Every float in the forward
    tables converts to a Fraction exactly, so these tables carry no rounding
    at all."""
    law, possible = _joint(spec, True)
    return InverseNetwork(_factors(spec, law, possible, 0), 0, exact=True)


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
