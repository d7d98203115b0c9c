"""The acceptance suite: one function per numbered criterion.

Each criterion returns a CriterionResult carrying the measured value, the
bound it was held to, and a PASS/FAIL/SKIPPED verdict; run_all drives the
full battery. Statistical criteria use generators seeded from the PINNED
table below, so every verdict is reproducible bit for bit; reduced-budget
runs mark those criteria SKIPPED rather than silently weakening them.

run_all takes its oracle targets from one live enumeration
(outlier_oracle.compute_fixtures); the criteria that read them take the
document as an argument, so a test can pass the pinned copy in
tests/fixtures instead. check_module_contract is the one sampling
check of the module contract; criterion 2 and the per-backend tests both
call it.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import struct
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import outlier_oracle as oo
from .experiment import parse_config, posterior_rate, run_experiment
from .interface import bernoulli_module, check_log_weight, normal_module, table_module
from .inverse import InverseModule, exact_inverse, train_inverse
from .mh import SiteProposal, flip_proposal, mh_update, run_chain
from .network import EdgeSpec, NodeSpec, build_network
from .oracle import log_evidence, posterior
from .outlier_regression import (build_regression_module, default_dataset,
                                 load_constants, prior_line_state, switch_prior_spec)
from .reference_models import (BinaryHmm, chain3_network, chain3_oracle,
                               hmm_oracle_model, hmm_oracle_observation,
                               hmm_observation, switch_hmm_network)
from .smc import SmcModule, smc_run
from .values import DISCRETE, DISCRETE_VECTOR, discrete, real, real_vector

# One seed per stochastic criterion. Verdicts are deterministic given these.
PINNED = {
    "c2_inverse": 2001,
    "c2_sweep_k1": 2002,
    "c2_sweep_k30": 2003,
    "c2_hmm": 2004,
    "c3a": 3001,
    "c3b": 3002,
    "c4": 4001,
    "c5": 5003,
    "c7": 7001,
}

FULL_ITERATIONS = 50_000
FULL_CHAINS = 4
# criterion 3a's chain length and criterion 4's sweeps per particle count
CHAIN3_ITERATIONS = 200_000
SWEEP_RUNS = 1000


@dataclass
class CriterionResult:
    name: str
    passed: bool | None
    measured: str
    bound: str
    runtime_s: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "SKIPPED"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return (f"criterion {self.name}: {self.measured} | bound {self.bound}"
                f" | {self.verdict} ({self.runtime_s:.1f}s)")


def _criterion(name: str, bound: str):
    """Declare a criterion's name and bound once. The decorated function
    returns (passed, measured[, details]); the wrapper times it and builds
    the CriterionResult, and its skipped() is the reduced-budget row."""
    def deco(fn):
        def run(*args, **kw):
            t0 = time.perf_counter()
            passed, measured, *details = fn(*args, **kw)
            return CriterionResult(name, passed, measured, bound,
                                   time.perf_counter() - t0, *details)
        run.skipped = lambda: CriterionResult(
            name, None, "not run (reduced budget)", bound)
        return run
    return deco


# -- criterion 1: exact modules reduce to their closed-form log-density ------


@_criterion("1 exact reduction", "bit-stable and rel err <= 1e-15")
def exact_reduction():
    theta, mu, sigma, x = 0.37, 0.8, 1.6, -0.3
    rows = {(0,): (0.25, 0.75), (1,): (0.6, 0.4)}
    cases = [
        (bernoulli_module(theta), {}, {"z": discrete(1)}, math.log(theta)),
        (bernoulli_module(theta), {}, {"z": discrete(0)}, math.log(1.0 - theta)),
        (normal_module(mu, sigma), {}, {"z": real(x)},
         -0.5 * math.log(2.0 * math.pi * sigma * sigma)
         - (x - mu) ** 2 / (2.0 * sigma * sigma)),
        (table_module(("c",), rows), {"c": discrete(1)}, {"z": discrete(0)},
         math.log(rows[(1,)][0])),
    ]
    worst = 0.0
    deterministic = True
    for mod, inputs, outputs, closed in cases:
        lws = set()
        for s in range(8):
            rng = np.random.default_rng(s)
            lw, aux = mod.regenerate(inputs, outputs, rng)
            lws.add(struct.pack("<d", lw))
            if aux is not None:
                deterministic = False
            # no randomness may be consumed
            if rng.random() != np.random.default_rng(s).random():
                deterministic = False
        if len(lws) != 1:
            deterministic = False
        lw = struct.unpack("<d", lws.pop())[0]
        worst = max(worst, abs(lw - closed) / abs(closed))
    return (deterministic and worst <= 1e-15,
            f"deterministic={deterministic}, max rel err {worst:.2e}")


# -- criterion 2: the module contract against the oracle evidence -----------


def _log_weights(module, inputs, outputs, n: int, rng) -> np.ndarray:
    """n regenerate log-weights at fixed (inputs, outputs), each range-checked."""
    return np.fromiter(
        (check_log_weight(module.regenerate(inputs, outputs, rng)[0]) for _ in range(n)),
        dtype=float, count=n)


def _z_score(draws: np.ndarray, truth: float, truth_se: float = 0.0) -> dict:
    """|mean - truth| in standard errors. truth_se is the SE of a truth that
    is itself a sample mean, independent of the draws; the SE of the
    difference is then used. The SE is floored at 1e-12 * truth, so draws
    that are constant up to rounding are held to rounding."""
    mean = float(draws.mean())
    se = float(draws.std(ddof=1) / math.sqrt(len(draws)))
    if truth_se:
        se = math.sqrt(se * se + truth_se * truth_se)
    se = max(se, 1e-12 * truth)
    z = abs(mean - truth) / se if se else (0.0 if mean == truth else math.inf)
    return {"mean": mean, "truth": truth, "se": se, "z": z, "n": len(draws)}


def check_module_contract(module, inputs, outputs, truth: float, n: int, rng) -> dict:
    """Hold a module to its contract by sampling, every draw from rng.

    n regenerate calls at (inputs, outputs): the mean of exp(lw) is scored
    against truth = p(outputs | inputs) > 0 ("z"), next to sd(lw) ("lw_sd").
    When every output value is discrete, n simulate calls follow, and the
    mean of exp(-lw) 1{simulated outputs == outputs} is scored against the
    fraction of the n regenerate draws with lw > -inf, with the SE of the
    difference of the two means ("harmonic", with its own mean, truth, se
    and z). The harmonic identity gives P(regenerate's weight > 0), which is
    1, with SE 0, where no draw is -inf. A real output is never hit exactly,
    so it has no harmonic half.
    """
    lws = _log_weights(module, inputs, outputs, n, rng)
    # math.exp per draw: np.exp may round some draws differently
    result = _z_score(np.fromiter(map(math.exp, lws), dtype=float, count=n), truth)
    # a weight of zero (lw = -inf) makes sd(lw) infinite, not NaN
    alive = lws > -math.inf
    result["lw_sd"] = float(lws.std(ddof=1)) if alive.all() else math.inf
    if all(v.kind in (DISCRETE, DISCRETE_VECTOR) for v in outputs.values()):
        def hit() -> float:
            sim, lw, _ = module.simulate(inputs, rng)
            return math.exp(-check_log_weight(lw)) if sim == outputs else 0.0
        survival = alive.astype(float)
        result["harmonic"] = _z_score(
            np.fromiter((hit() for _ in range(n)), dtype=float, count=n),
            float(survival.mean()), float(survival.std(ddof=1) / math.sqrt(n)))
    return result


def _c2_inverse(fixtures: dict) -> dict:
    # trains and checks on one generator, so it is one task
    rng = np.random.default_rng(PINNED["c2_inverse"])
    spec = switch_prior_spec()
    return check_module_contract(
        InverseModule(spec, train_inverse(spec, 100_000, rng)), {},
        {"a": discrete(1)}, fixtures["switch_marginal"]["1"], 100_000, rng)


def _c2_sweep(fixtures: dict, key: str, k: int, n: int) -> dict:
    truth = math.exp(fixtures["log_evidence_by_switch"]["1"])
    return check_module_contract(
        build_regression_module(k), {"a": discrete(1)},
        {"b": real_vector(default_dataset()["responses"])}, truth, n,
        np.random.default_rng(PINNED[key]))


def _c2_hmm(fixtures: dict) -> dict:
    T, init, trans, emit = 4, 0.4, (0.25, 0.7), (0.15, 0.8)
    ys = (1, 0, 1, 1)
    truth = math.exp(log_evidence(hmm_oracle_model(T, init, trans, emit),
                                  hmm_oracle_observation(ys)))
    return check_module_contract(
        SmcModule(BinaryHmm(T, init, emit, trans=trans), 5), {},
        hmm_observation(ys), truth, 30_000, np.random.default_rng(PINNED["c2_hmm"]))


# criterion 2's groups: each draws from its own pinned generator, so they
# give the same numbers in any process and in any order
_C2_GROUPS = {
    "module A (inverse)": (_c2_inverse,),
    "module B (sweep, K=1)": (_c2_sweep, "c2_sweep_k1", 1, 100_000),
    "module B (sweep, K=30)": (_c2_sweep, "c2_sweep_k30", 30, 10_000),
    "discrete sequential model": (_c2_hmm,),
}


@_criterion("2 unbiasedness", "<= 4 SEs on every module")
def unbiasedness(fixtures: dict, workers: int = 1):
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(_C2_GROUPS)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = {name: pool.submit(fn, fixtures, *args)
                       for name, (fn, *args) in _C2_GROUPS.items()}
            parts = {name: f.result() for name, f in futures.items()}
    else:
        parts = {name: fn(fixtures, *args) for name, (fn, *args) in _C2_GROUPS.items()}

    zs = [p["z"] for p in parts.values()]
    zs += [p["harmonic"]["z"] for p in parts.values() if "harmonic" in p]
    worst = max(zs)
    return worst <= 4.0, f"worst |mean - oracle| = {worst:.2f} estimated SEs", parts


# -- criterion 3: the chain targets the enumerated posterior -----------------


@_criterion("3a chain stationarity", "< 0.01")
def chain3_posterior():
    iterations = CHAIN3_ITERATIONS
    oracle = posterior(chain3_oracle(), {"x3": 1}, ("x1", "x2"))
    rng = np.random.default_rng(PINNED["c3a"])
    net = chain3_network()
    net.initialize(rng)
    # site values in node order: (x1, x2)
    counts = Counter()
    run_chain(net, [flip_proposal(1, port="z"), flip_proposal(2, port="z")],
              iterations, rng,
              sink=lambda block: counts.update(r.site_values for r in block))
    tv = 0.5 * sum(abs(counts.get(k, 0) / iterations - p) for k, p in oracle.items())
    return (tv < 0.01, f"TV distance {tv:.4f} at {iterations} iterations",
            {"empirical": {str(k): c / iterations for k, c in sorted(counts.items())},
             "oracle": {str(k): v for k, v in sorted(oracle.items())}})


@_criterion("3b app posterior", "< 0.02")
def app_posterior(fixtures: dict, out_dir, workers: int = 1,
                  chains: int = FULL_CHAINS,
                  iterations: int = FULL_ITERATIONS):
    cfg = parse_config({
        "network": "outlier_regression",
        "seed": PINNED["c3b"],
        "chains": chains,
        "iterations": iterations,
        "particles": 30,
        "train_samples": 100_000,
        "workers": workers,
    })
    summary = run_experiment(cfg, out_dir)
    p_hat = posterior_rate(summary, "A", 1)
    target = fixtures["posterior_switch_one"]
    err = abs(p_hat - target)
    return (err < 0.02,
            f"|P-hat(a=1) - {target:.6f}| = {err:.4f} "
            f"({chains} chains x {iterations} iterations)",
            {"p_hat": p_hat, "target": target,
             "acceptance": summary["combined"]["acceptance_rates"]})


# -- criterion 4: sweep log-weights tighten toward the oracle density --------


@_criterion("4 sweep convergence", "1.1x slack per step; final gap < 0.05")
def sweep_convergence():
    T, init, trans, emit = 5, 0.45, (0.25, 0.75), (0.2, 0.8)
    ys = (1, 0, 1, 1, 0)
    truth = log_evidence(hmm_oracle_model(T, init, trans, emit),
                         hmm_oracle_observation(ys))
    hmm = BinaryHmm(T, init, emit, trans=trans)
    outputs = hmm_observation(ys)
    rng = np.random.default_rng(PINNED["c4"])

    ks = (1, 2, 5, 10, 30, 100)
    variances, gaps, means = [], [], []
    for k in ks:
        lws = np.fromiter(
            (smc_run(hmm, {}, outputs, k, rng)[1] for _ in range(SWEEP_RUNS)),
            dtype=float, count=SWEEP_RUNS)
        variances.append(float(lws.var(ddof=1)))
        means.append(float(lws.mean()))
        gaps.append(max(truth - means[-1], 0.0))

    var_ok = all(variances[i + 1] <= 1.1 * variances[i] for i in range(len(ks) - 1))
    gap_ok = all(gaps[i + 1] <= 1.1 * gaps[i] + 1e-9 for i in range(len(ks) - 1))
    final_err = abs(means[-1] - truth)
    ok = var_ok and gap_ok and final_err < 0.05
    return (ok,
            f"var chain {'monotone' if var_ok else 'NOT monotone'}, "
            f"mean-gap chain {'monotone' if gap_ok else 'NOT monotone'}, "
            f"|mean lw(K=100) - log p| = {final_err:.4f}",
            {"K": list(ks), "variance": variances, "mean": means,
             "gap": gaps, "log_p": truth})


# -- criterion 5: more training data tightens the learned inverse ------------


@_criterion("5 inverse limit", "stddev strictly smaller; table err <= 0.005")
def inverse_limit():
    spec = switch_prior_spec()
    rng = np.random.default_rng(PINNED["c5"])
    inv_small = train_inverse(spec, 100, rng)
    inv_big = train_inverse(spec, 1_000_000, rng)
    exact = exact_inverse(spec)

    table_err = 0.0
    for fl, fe in zip(inv_big.factors, exact.factors):
        for key, row in fl.table.items():
            for p_l, p_e in zip(row, fe.table[key]):
                table_err = max(table_err, abs(p_l - float(p_e)))

    out = {"a": discrete(1)}
    n = 20_000

    def lw_std(inv) -> float:
        return float(_log_weights(InverseModule(spec, inv), {}, out, n, rng).std(ddof=1))

    std_small = lw_std(inv_small)
    std_big = lw_std(inv_big)
    ok = std_big < std_small and table_err <= 0.005
    return (ok,
            f"lw stddev {std_big:.5f} (n_train=1e6) vs {std_small:.5f} (n_train=1e2); "
            f"max table err {table_err:.5f}",
            {"std_small": std_small, "std_big": std_big, "table_err": table_err})


# -- criterion 6: total_lw fluctuates inside constant-a stretches ------------


def _constant_runs(values: list[str], totals: list[str]):
    """Maximal constant-value segments as (value, length, distinct totals)."""
    runs = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            runs.append((values[start], i - start, len(set(totals[start:i]))))
            start = i
    return runs


@_criterion("6 trace variation", ">= 2 distinct total_lw per run; a visits 0 and 1")
def trace_variation(out_dir, chains: int):
    # this run's traces only: an earlier run with more chains leaves more
    paths = [Path(out_dir) / f"trace_chain{i}.csv" for i in range(chains)]
    if not all(map(Path.exists, paths)):
        return False, f"no trace files of {chains} chains under {out_dir}"
    qualifying = 0
    worst_distinct = math.inf
    visits_ok = True
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            a_col, lw_col = [], []
            for row in reader:
                a_col.append(row["a"])
                lw_col.append(row["total_lw"])
        visits_ok = visits_ok and {"0", "1"} <= set(a_col)
        for _value, length, distinct in _constant_runs(a_col, lw_col):
            if length >= 10:
                qualifying += 1
                worst_distinct = min(worst_distinct, distinct)
    ok = visits_ok and qualifying > 0 and worst_distinct >= 2
    return (ok,
            f"{qualifying} constant-a runs of length >= 10, min distinct total_lw "
            f"{worst_distinct if qualifying else 'n/a'}, both values visited: {visits_ok}")


# -- criterion 7: rejections change nothing; -inf always rejects -------------


def _state_fingerprint(net) -> list:
    fp = []
    for i in net.node_ids():
        fp.append((
            i,
            tuple((p, id(v)) for p, v in sorted(net.outputs_of(i).items())),
            struct.pack("<d", net.lookup_log_weight(i)),
            id(net.lookup_aux(i)),
        ))
    return fp


@_criterion("7 reject purity", "bit-identical state, -inf always rejected")
def reject_purity():
    failures = []
    rng = np.random.default_rng(PINNED["c7"])

    # natural rejections on the 3-node chain leave every id and bit in place
    net = chain3_network()
    net.initialize(rng)
    schedule = [flip_proposal(1, port="z"), flip_proposal(2, port="z")]
    rejects = 0
    for it in range(600):
        before = _state_fingerprint(net)
        info = mh_update(net, schedule[it % 2], rng)
        if not info.accepted:
            rejects += 1
            if _state_fingerprint(net) != before:
                failures.append(f"natural rejection mutated state at step {it}")
    if rejects == 0:
        failures.append("no natural rejections observed")

    # off-support proposal at the inverse-backed site: target lw hits -inf
    net = switch_hmm_network(num_particles=4, train_samples=0, rng=rng)
    net.initialize(rng)
    bad = SiteProposal(1, lambda cur, rng: discrete(7), lambda cand, cur: 0.0, "a")
    for _ in range(50):
        before = _state_fingerprint(net)
        info = mh_update(net, bad, rng)
        if info.accepted or not info.neg_inf_proposal or info.log_alpha != -math.inf:
            failures.append("off-support proposal was not forced to reject")
        if _state_fingerprint(net) != before:
            failures.append("off-support rejection mutated state")

    # zero-probability child row: flipping the parent kills the observed child
    dead = build_network(
        nodes=[NodeSpec(1, bernoulli_module(0.5), name="P"),
               NodeSpec(2, table_module(("x",), {(0,): (0.2, 0.8),
                                                 (1,): (1.0, 0.0)}), name="C")],
        edges=[EdgeSpec(1, "z", 2, "x")],
        observations={2: {"z": discrete(1)}},
    )
    dead.initialize(rng)
    if dead.outputs_of(1)["z"].data != 0:
        failures.append("initialization admitted a zero-probability child")
    for _ in range(50):
        before = _state_fingerprint(dead)
        info = mh_update(dead, flip_proposal(1, port="z"), rng)
        if info.accepted or not info.neg_inf_proposal:
            failures.append("zero-probability child did not force rejection")
        if _state_fingerprint(dead) != before:
            failures.append("child -inf rejection mutated state")

    # reverse proposal density of -inf also forces rejection: a flip that
    # claims it can never propose 0
    net3 = chain3_network()
    net3.initialize(rng)
    one_way = SiteProposal(
        1, lambda cur, rng: discrete(1 - cur.data),
        lambda cand, cur: -math.inf if cand.data == 0 else 0.0, "z")
    saw_reverse_block = False
    for _ in range(50):
        cur = net3.outputs_of(1)["z"].data
        before = _state_fingerprint(net3)
        info = mh_update(net3, one_way, rng)
        if cur == 0:
            # proposing 1 from 0; the reverse move has density zero
            saw_reverse_block = True
            if info.accepted or info.log_alpha != -math.inf:
                failures.append("reverse-density -inf move was accepted")
            if _state_fingerprint(net3) != before:
                failures.append("reverse-density rejection mutated state")
    if not saw_reverse_block:
        failures.append("never exercised the blocked direction")

    return (not failures,
            "all rejection paths state-preserving" if not failures
            else "; ".join(sorted(set(failures))),
            {"natural_rejects": rejects})


# -- criterion 8: the integrated line matches the batch closed form ----------


@_criterion("8 conjugate recursion", "<= 1e-10")
def conjugate_correctness():
    doc = load_constants()
    reg = doc["regression"]
    ds = default_dataset()
    xs, bs = ds["covariates"], ds["responses"]
    n = len(xs)
    s_in, s_out = reg["sigma_inlier"], reg["sigma_outlier"]

    prior = prior_line_state()

    def sequential(sigmas) -> float:
        st = prior
        total = 0.0
        for x, b, s in zip(xs, bs, sigmas):
            lp, st = st.condition(x, b, s)
            total += lp
        return total

    # row r is indicator pattern r: point i takes s_out where bit i of r is set
    noise = np.where(np.arange(1 << n)[:, None] >> np.arange(n) & 1, s_out, s_in)
    batch = oo.conjugate_log_marginal(xs, bs, noise,
                                      reg["prior_mean"], reg["prior_var"])
    worst = 0.0
    for sigmas, closed in zip(noise.tolist(), batch.tolist()):
        worst = max(worst, abs(sequential(sigmas) - closed))

    return (worst <= 1e-10,
            f"max |sequential - batch| {worst:.2e} over {1 << n} configs")


# -- driver -------------------------------------------------------------------

STATISTICAL = (unbiasedness, chain3_posterior, app_posterior, sweep_convergence,
               inverse_limit, trace_variation)


def run_all(out_dir=None, workers: int = 1,
            iterations: int | None = None,
            chains: int | None = None) -> list[CriterionResult]:
    """Run the battery. iterations/chains below the full budget switch the
    statistical criteria to SKIPPED; criteria 1, 7, and 8 always run. A
    full run enumerates the oracle targets of criteria 2 and 3b once."""
    iterations = FULL_ITERATIONS if iterations is None else iterations
    chains = FULL_CHAINS if chains is None else chains
    full = iterations >= FULL_ITERATIONS and chains >= FULL_CHAINS

    results = [exact_reduction()]
    if full:
        tmp = None
        if out_dir is None:
            tmp = tempfile.TemporaryDirectory(prefix="modnet-validate-")
            out_dir = tmp.name
        fixtures = oo.compute_fixtures()
        results += [
            unbiasedness(fixtures, workers=workers),
            chain3_posterior(),
            app_posterior(fixtures, out_dir, workers=workers, chains=chains,
                          iterations=iterations),
            sweep_convergence(),
            inverse_limit(),
            trace_variation(out_dir, chains),
        ]
        if tmp is not None:
            tmp.cleanup()
    else:
        results += [c.skipped() for c in STATISTICAL]
    results.append(reject_purity())
    results.append(conjugate_correctness())
    return results
