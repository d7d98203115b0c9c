"""Exact reference answers for the outlier-regression experiment.

Everything here goes through brute-force enumeration (oracle.py) plus a
hand-rolled conjugate Gaussian marginal likelihood, sharing no machinery with
the inference engine. The constants file is re-read and re-interpreted here on
purpose, by this module's own load_constants, which each model builder calls
itself; only the raw JSON is common ground.

Model being scored: a three-stage binary switch prior feeding a 9-point linear
regression whose per-point noise scale is chosen by latent outlier indicators,
with the regression line integrated out analytically.

compute_fixtures takes every constant from one pass over all 2^13
configurations with the responses observed. The closed-form leaf names the
nine outlier indicators as the variables it reads, so the oracle hands it
all 2^9 indicator patterns at once; it stacks their noise scales into one
(512, 9) matrix, runs the conjugate recursion once over its rows, and the
oracle broadcasts each pattern's value over the switch variables. Nothing
is cached here, across models or calls.
"""

from __future__ import annotations

import json
import math
import os
from importlib import resources
from typing import Sequence

import numpy as np

from .oracle import (
    ContinuousLeaf,
    Factor,
    FactoredDiscreteModel,
    enumerate_joint,
    evidence_and_posterior,
)

_SWITCH_VARS = ("u1", "u2", "u3", "a")


def load_constants() -> dict:
    text = (
        resources.files("modnet")
        .joinpath("configs/outlier_regression.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _bern_factor(var: str, parents: tuple[str, ...], p_one_by_parent) -> Factor:
    if not parents:
        p = float(p_one_by_parent)
        return Factor(var, (0, 1), (), {(): (1.0 - p, p)})
    rows = {}
    for parent_val in (0, 1):
        p = float(p_one_by_parent[parent_val])
        rows[(parent_val,)] = (1.0 - p, p)
    return Factor(var, (0, 1), parents, rows)


def _switch_factors(cpts) -> list[Factor]:
    return [
        _bern_factor("u1", (), cpts["u1"]),
        _bern_factor("u2", ("u1",), cpts["u2"]),
        _bern_factor("u3", ("u2",), cpts["u3"]),
        _bern_factor("a", ("u3",), cpts["a"]),
    ]


def switch_prior_model() -> FactoredDiscreteModel:
    """The binary switch prior as a four-variable chain u1 -> u2 -> u3 -> a."""
    return FactoredDiscreteModel(_switch_factors(load_constants()["switch_prior"]))


def switch_marginal() -> dict[int, float]:
    """Exact p(a) by summing the 16-row joint."""
    joint = enumerate_joint(switch_prior_model())
    out = {0: 0.0, 1: 0.0}
    for config, prob in joint.items():
        out[config[_SWITCH_VARS.index("a")]] += prob
    return out


def conjugate_log_marginal(
    xs: Sequence[float],
    bs: Sequence[float],
    sigmas,
    prior_mean: Sequence[float],
    prior_var: Sequence[float],
):
    """log p(bs) for b_i = c + m*x_i + eps_i with (c, m) integrated out.

    Prior (c, m) ~ N(prior_mean, diag(prior_var)), eps_i ~ N(0, sigmas[i]^2).
    Computed in precision form with explicit 2x2 determinant and Cramer solve;
    no matrix library involved.

    sigmas is shaped (n,), giving a float, or (P, n), giving one value per
    row as an array of P. The rows run through the recursion together: each
    is the same IEEE operations in the same order as a one-row call, so every
    row's double is that call's. log is taken by math, once per distinct
    sigma and once per row's determinant.
    """
    n = len(xs)
    s = np.asarray(sigmas, dtype=float)
    if s.ndim not in (1, 2) or not (len(bs) == s.shape[-1] == n):
        raise ValueError("xs, bs, sigmas must have equal length")
    rows = s.reshape(-1, n)
    scales, which = np.unique(rows, return_inverse=True)
    log_s = np.array(list(map(math.log, scales.tolist())))[which.reshape(rows.shape)]
    l0_c = 1.0 / prior_var[0]
    l0_m = 1.0 / prior_var[1]
    # Posterior precision [[acc, abm], [abm, amm]] and shift eta.
    acc = l0_c
    abm = 0.0
    amm = l0_m
    eta_c = l0_c * prior_mean[0]
    eta_m = l0_m * prior_mean[1]
    quad_obs = 0.0
    log_sigma_sum = 0.0
    for i, (x, b) in enumerate(zip(xs, bs)):
        w = 1.0 / (rows[:, i] * rows[:, i])
        acc = acc + w
        abm = abm + w * x
        amm = amm + w * x * x
        eta_c = eta_c + w * b
        eta_m = eta_m + w * b * x
        quad_obs = quad_obs + w * b * b
        log_sigma_sum = log_sigma_sum + log_s[:, i]
    det0 = l0_c * l0_m
    detn = acc * amm - abm * abm
    quad_post = (amm * eta_c * eta_c - 2.0 * abm * eta_c * eta_m + acc * eta_m * eta_m) / detn
    quad_prior = l0_c * prior_mean[0] * prior_mean[0] + l0_m * prior_mean[1] * prior_mean[1]
    log_detn = np.array(list(map(math.log, detn.tolist())))
    out = (
        -0.5 * n * math.log(2.0 * math.pi)
        - log_sigma_sum
        + 0.5 * (math.log(det0) - log_detn)
        + 0.5 * (quad_post - quad_prior - quad_obs)
    )
    return float(out[0]) if s.ndim == 1 else out


def full_model() -> FactoredDiscreteModel:
    """Complete discrete skeleton (u1, u2, u3, a, o1..o9) with the response
    vector as a continuous leaf. 2^13 configurations, enumerable directly."""
    constants = load_constants()
    reg = constants["regression"]
    xs = tuple(constants["dataset"]["covariates"])
    rate = (float(reg["outlier_rate"]["0"]), float(reg["outlier_rate"]["1"]))
    indicators = tuple(f"o{i + 1}" for i in range(len(xs)))
    factors = _switch_factors(constants["switch_prior"])
    factors += [_bern_factor(o, ("a",), rate) for o in indicators]
    sigma = np.array([float(reg["sigma_inlier"]), float(reg["sigma_outlier"])])
    prior_mean = tuple(reg["prior_mean"])
    prior_var = tuple(reg["prior_var"])

    def leaf_log_density(columns: dict, obs) -> np.ndarray:
        sigmas = np.stack([sigma[columns[o]] for o in indicators], axis=1)
        return conjugate_log_marginal(xs, obs, sigmas, prior_mean, prior_var)

    return FactoredDiscreteModel(
        factors, leaf=ContinuousLeaf("b", indicators, leaf_log_density))


def compute_fixtures() -> dict:
    """All oracle constants the test suite pins against, as one JSON document."""
    ds = load_constants()["dataset"]
    bs = tuple(ds["responses"])
    prior_a = switch_marginal()
    log_ev_b, log_joint, post = evidence_and_posterior(full_model(), {"b": bs}, ("a",))
    log_ev = {a: log_joint[(a,)] for a in (0, 1)}
    return {
        "schema": 1,
        "dataset": {
            "covariates": list(ds["covariates"]),
            "responses": list(ds["responses"]),
            "seed": ds["seed"],
        },
        "switch_marginal": {"0": prior_a[0], "1": prior_a[1]},
        "log_evidence_by_switch": {
            "0": log_ev[0] - math.log(prior_a[0]),
            "1": log_ev[1] - math.log(prior_a[1]),
        },
        "log_evidence_joint_by_switch": {"0": log_ev[0], "1": log_ev[1]},
        "posterior_switch_one": post[(1,)],
        "log_evidence_dataset": log_ev_b,
    }


def write_fixtures(path, doc: dict) -> None:
    """Serialize a fixture document the one pinned way (sorted keys, indent 2,
    trailing newline) so repeated runs are byte-identical.

    The document goes to <path>.partial, which replaces path only once it is
    complete and is deleted on any error, so a failed write leaves the old
    file as it was. traceio writes the same way; its helper is not imported,
    so the oracle loads none of the engine."""
    partial = f"{path}.partial"
    try:
        with open(partial, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        os.remove(partial)
        raise
    os.replace(partial, path)
