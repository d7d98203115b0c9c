"""Learned stochastic inverses for small discrete generative models.

A DiscreteModelSpec lists latent variables in forward sampling order, then
output variables, each with a conditional probability table over its parents.
The inverse runs the other way: conditioned on the outputs, latents are
sampled last-to-first, each from a conditional table over the outputs plus
the latents already drawn. Tables are either estimated from forward samples
(with additive smoothing, so every row stays strictly positive) or computed
exactly by enumeration in rational arithmetic.

An inverse wrapped as a module reports lw = log p(u, z) - log q(u | z). With
the exact inverse that ratio telescopes to p(z) identically, and evaluating
it in rationals keeps the reported value bit-for-bit independent of which
latents were drawn.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Mapping

import numpy as np

from .interface import ModuleIO, ProbModule, SchemaError, _walk
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
        if any(p < 0.0 for p in probs):
            raise SchemaError(f"{v.name}: negative probability in row {key}")
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
    smoothing: float
    n_train: int
    exact: bool = False

    def validate(self) -> None:
        for f in self.factors:
            for key, probs in f.table.items():
                total = sum(probs)
                if abs(float(total) - 1.0) > 1e-12:
                    raise SchemaError(f"{f.var}: row {key} sums to {float(total)}")
                if not self.exact and any(float(p) <= 0.0 for p in probs):
                    raise SchemaError(f"{f.var}: learned row {key} has a zero entry")


# -- forward sampling ---------------------------------------------------------


def forward_sample(spec: DiscreteModelSpec, rng) -> dict[str, int]:
    assign: dict[str, int] = {}
    for v in spec.variables:
        probs = v.table[tuple(assign[p] for p in v.parents)]
        assign[v.name] = _walk(v.domain, probs, rng.random())
    return assign


def sample_batch(spec: DiscreteModelSpec, n: int, rng) -> dict[str, np.ndarray]:
    """Forward-sample n assignments at once; columns hold domain indices."""
    cols: dict[str, np.ndarray] = {}
    for v in spec.variables:
        radix = 1
        code = np.zeros(n, dtype=np.int64)
        for p in reversed(v.parents):
            code += cols[p] * radix
            radix *= len(spec.variable(p).domain)
        table = np.empty((radix, len(v.domain)))
        for key, probs in v.table.items():
            k = 0
            for p, val in zip(v.parents, key):
                k = k * len(spec.variable(p).domain) + spec.variable(p).domain.index(val)
            table[k] = probs
        cum = np.cumsum(table, axis=1)
        u = rng.random(n)
        idx = (u[:, None] >= cum[code]).sum(axis=1)
        cols[v.name] = np.minimum(idx, len(v.domain) - 1).astype(np.int64)
    return cols


# -- inverse construction -----------------------------------------------------


def _sampling_plan(spec: DiscreteModelSpec) -> list[tuple[str, tuple[str, ...]]]:
    """(latent, context) pairs in sampling order; contexts grow as we go."""
    ctx = [o.name for o in spec.outputs]
    plan = []
    for v in reversed(spec.latents):
        plan.append((v.name, tuple(ctx)))
        ctx.append(v.name)
    return plan


def train_inverse(spec: DiscreteModelSpec, n_samples: int, rng,
                  smoothing: float = 1.0) -> InverseNetwork:
    """Estimate inverse conditionals by counting forward samples.

    Additive smoothing keeps every row positive; a context never seen in
    training falls back to a uniform row.
    """
    if n_samples < 1:
        raise ValueError("need at least one training sample")
    if smoothing <= 0.0:
        raise ValueError("smoothing must be positive")
    cols = sample_batch(spec, n_samples, rng)

    factors = []
    for var, ctx in _sampling_plan(spec):
        v = spec.variable(var)
        d = len(v.domain)
        radix = 1
        code = np.zeros(n_samples, dtype=np.int64)
        ctx_vars = [spec.variable(c) for c in ctx]
        for c in reversed(ctx_vars):
            code += cols[c.name] * radix
            radix *= len(c.domain)
        joint = np.bincount(code * d + cols[var], minlength=radix * d)
        joint = joint.reshape(radix, d).astype(np.float64)
        counts = joint.sum(axis=1, keepdims=True)
        table_arr = (joint + smoothing) / (counts + smoothing * d)

        table = {}
        for i, key in enumerate(product(*[c.domain for c in ctx_vars])):
            if counts[i, 0] == 0.0:
                table[key] = (1.0 / d,) * d
            else:
                table[key] = tuple(table_arr[i])
        factors.append(InverseFactor(var, v.domain, ctx, table))
    return InverseNetwork(tuple(factors), float(smoothing), int(n_samples))


def exact_inverse(spec: DiscreteModelSpec) -> InverseNetwork:
    """Enumerate the joint in rational arithmetic and read off each
    conditional. Every float in the forward tables converts to a Fraction
    exactly, so these tables carry no rounding at all."""
    names = [v.name for v in spec.variables]
    joint: dict[tuple, Fraction] = {}
    for combo in product(*[v.domain for v in spec.variables]):
        assign = dict(zip(names, combo))
        pr = Fraction(1)
        for v in spec.variables:
            row = v.table[tuple(assign[p] for p in v.parents)]
            pr *= Fraction(row[v.domain.index(assign[v.name])])
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
                # context has zero probability; never reached when sampling
                table[key] = (Fraction(1, len(v.domain)),) * len(v.domain)
        factors.append(InverseFactor(var, v.domain, ctx, table))
    return InverseNetwork(tuple(factors), 0.0, 0, exact=True)


# -- weights ------------------------------------------------------------------


def _log_joint(spec: DiscreteModelSpec, assign: Mapping[str, int]) -> float:
    out = 0.0
    for v in spec.variables:
        row = v.table[tuple(assign[p] for p in v.parents)]
        p = float(row[v.domain.index(assign[v.name])])
        if p == 0.0:
            return -math.inf
        out += math.log(p)
    return out


def _log_inverse(inv: InverseNetwork, assign: Mapping[str, int]) -> float:
    out = 0.0
    for f in inv.factors:
        row = f.table[tuple(assign[c] for c in f.context)]
        p = float(row[f.domain.index(assign[f.var])])
        if p == 0.0:
            return -math.inf
        out += math.log(p)
    return out


def _fraction_ratio(spec: DiscreteModelSpec, inv: InverseNetwork,
                    assign: Mapping[str, int]) -> Fraction:
    num = Fraction(1)
    for v in spec.variables:
        row = v.table[tuple(assign[p] for p in v.parents)]
        num *= Fraction(row[v.domain.index(assign[v.name])])
    den = Fraction(1)
    for f in inv.factors:
        row = f.table[tuple(assign[c] for c in f.context)]
        den *= row[f.domain.index(assign[f.var])]
    return num / den


def _log_fraction(r: Fraction) -> float:
    # works for magnitudes far outside float range
    return math.log(r.numerator) - math.log(r.denominator)


def _log_weight(spec, inv, assign) -> float:
    if inv.exact:
        return _log_fraction(_fraction_ratio(spec, inv, assign))
    lp = _log_joint(spec, assign)
    return -math.inf if lp == -math.inf else lp - _log_inverse(inv, assign)


# -- module wrapper -----------------------------------------------------------


class InverseModule(ProbModule):
    """Module backed by a stochastic inverse. No input ports; one output
    port per output variable."""

    def __init__(self, spec: DiscreteModelSpec, inv: InverseNetwork, name=None):
        if [f.var for f in inv.factors] != [v.name for v in reversed(spec.latents)]:
            raise SchemaError("inverse factors do not match the model's latents")
        self.spec = spec
        self.inv = inv
        self.input_ports = ()
        self.output_ports = tuple(o.name for o in spec.outputs)
        if name:
            self.name = name

    def simulate(self, inputs, rng):
        self.check_inputs(inputs)
        assign = forward_sample(self.spec, rng)
        lw = _log_weight(self.spec, self.inv, assign)
        z = {o.name: discrete(assign[o.name]) for o in self.spec.outputs}
        aux = {name: assign[name] for name in (v.name for v in self.spec.latents)}
        return z, lw, aux

    def regenerate(self, inputs, outputs, rng):
        self.check_inputs(inputs)
        self.check_outputs(outputs)
        assign: dict[str, int] = {}
        for o in self.spec.outputs:
            val = _discrete_value(outputs[o.name], o.name)
            if val not in o.domain:
                return -math.inf, {v.name: None for v in self.spec.latents}
            assign[o.name] = val
        for f in self.inv.factors:
            row = f.table[tuple(assign[c] for c in f.context)]
            assign[f.var] = _walk(f.domain, row, rng.random())
        lw = _log_weight(self.spec, self.inv, assign)
        aux = {name: assign[name] for name in (v.name for v in self.spec.latents)}
        return lw, aux


def _discrete_value(v: Value, port: str) -> int:
    if v.kind != "discrete":
        raise SchemaError(f"port {port!r} expects a discrete value, got {v.kind}")
    return v.data


# -- serialization ------------------------------------------------------------


def _enc_prob(p):
    if isinstance(p, Fraction):
        return f"{p.numerator}/{p.denominator}"
    return float(p)


def _dec_prob(p):
    if isinstance(p, str):
        num, den = p.split("/")
        return Fraction(int(num), int(den))
    return float(p)


def inverse_to_json(inv: InverseNetwork) -> dict:
    return {
        "smoothing": inv.smoothing,
        "n_train": inv.n_train,
        "exact": inv.exact,
        "factors": [
            {
                "var": f.var,
                "domain": list(f.domain),
                "context": list(f.context),
                "table": [
                    {"key": list(k), "probs": [_enc_prob(p) for p in row]}
                    for k, row in sorted(f.table.items())
                ],
            }
            for f in inv.factors
        ],
    }


def inverse_from_json(doc: dict) -> InverseNetwork:
    factors = []
    for fd in doc["factors"]:
        table = {
            tuple(r["key"]): tuple(_dec_prob(p) for p in r["probs"])
            for r in fd["table"]
        }
        factors.append(InverseFactor(fd["var"], tuple(fd["domain"]),
                                     tuple(fd["context"]), table))
    return InverseNetwork(tuple(factors), float(doc["smoothing"]),
                          int(doc["n_train"]), bool(doc["exact"]))


def save_inverse(inv: InverseNetwork, path) -> None:
    with open(path, "w") as fh:
        json.dump(inverse_to_json(inv), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_inverse(path) -> InverseNetwork:
    with open(path) as fh:
        return inverse_from_json(json.load(fh))
