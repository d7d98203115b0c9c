"""The three workloads, their unit of work, and their correctness checks.

Why each workload exists:

- chain3_exact: exact CPT modules only. smc, inverse and the process pool do
  no work; iterations split between mh bookkeeping and the trace sinks. It
  is the mechanism workload for mh/values/traceio changes and the bypass
  workload for every sweep change, where the prediction is no change.
- switch_hmm_pool: a learned inverse feeding a 3-step sweep, two chains on
  two pool workers. Short, cheap sweeps where per-call overhead dominates;
  the only workload through the process pool; it carries the mixing metric
  where P(a=1) is near 0.6, so a faster but noisier sweep shows.
- estimator_batch: the validation battery's estimator loops with no network,
  no MH and no traces. The only place csmc_run and large-sample
  train_inverse carry real load, and where batching independent sweeps can
  show. Its K=30 regression sweep is the packaged demo's sweep, which is
  most of every demo iteration.

The packaged demo (`modnet infer` on outlier_regression) is not a workload
of its own: P(a=1) is 0.978 there, and ten 30-second runs of it spread
ess_per_s by 0.20 of the median, 0.12 of that from the rarity of a=0
alone: too close to the benchmark's bound of 0.24.

A workload turns the run seed into its inputs; the program only ever sees
the generated configs. Every unit of work is checked against an exact
answer the repository already has, with a bound of 4 standard errors taken
from the run's own effective sample size or draw count.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stats import Operations, geyer_ess, kish_ess, within_4se

# Salts that keep the sub-streams of one run seed apart.
_SETUP, _UNIT, _DET = 1, 2, 3


def sub_seed(seed: int, *keys: int) -> int:
    """A 63-bit seed derived from the run seed and a path of keys."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)
    return int(state[0]) >> 1


@dataclass
class UnitResult:
    wall_s: float
    iterations: int
    bytes_written: int = 0
    log_z_sd: float = 0.0
    scale: float = 1.0  # speed.bracket's factor for the machine's speed

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Site:
    """A scheduled site checked against its exact posterior P(value == 1)."""

    node: str
    column: str
    p1: float


# -- chain workloads ------------------------------------------------------------


@dataclass
class ChainWorkload:
    """One unit is one run_experiment call writing CSV traces, exactly what
    `modnet infer` does. One operation is one chain of that call: it fails
    when the call raises or its trace disagrees with the summary. The
    posterior check pools every chain of the run and is one more operation:
    a short chain can visit a rare state too seldom for a per-chain bound
    to be fair."""

    name: str
    modnet: object
    doc: dict
    sites: list[Site]
    det_iterations: int
    sweep_node: str | None = None
    indicators: list = field(default_factory=list)

    def config(self, seed: int, **overrides):
        return self.modnet.experiment.parse_config(
            {**self.doc, "seed": seed, **overrides})

    def setup(self, seed: int) -> None:
        """Config to ready state for chain 0: build plus initialize."""
        exp = self.modnet.experiment
        cfg = self.config(sub_seed(seed, _SETUP))
        rng = np.random.default_rng(self.modnet.seeds.derive_seed(cfg.seed, 0))
        net = exp.build_configured_network(cfg, rng)
        net.initialize(rng)

    def unit(self, cfg, out_dir: Path, ops: Operations) -> UnitResult | None:
        t0 = time.perf_counter()
        try:
            summary = self.modnet.experiment.run_experiment(cfg, out_dir)
        except Exception as e:
            for c in range(cfg.chains):
                ops.record(False, f"{self.name} chain {c}: {type(e).__name__}: {e}")
            return None
        wall = time.perf_counter() - t0
        for c in range(cfg.chains):
            try:
                ind = self.read_chain(out_dir / f"trace_chain{c}.csv",
                                      summary["chains"][c], cfg.iterations)
                ok, why = True, "ok"
            except (OSError, KeyError, ValueError, StopIteration) as e:
                ind, ok, why = None, False, f"{type(e).__name__}: {e}"
            ops.record(ok, f"{self.name} seed {cfg.seed} chain {c}: {why}")
            if ind is not None:
                self.indicators.append(ind)
        written = sum(p.stat().st_size for p in out_dir.iterdir())
        return UnitResult(wall, cfg.chains * cfg.iterations, written,
                          self._log_z_sd(summary))

    def read_chain(self, path: Path, chain_summary: dict, iterations: int):
        """(iterations, sites) array of value == 1 indicators from a trace,
        after checking its length and that the summary agrees with it."""
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            cols = [header.index(s.column) for s in self.sites]
            ind = np.array([[r[k] == "1" for k in cols] for r in rows], dtype=bool)
        if ind.shape != (iterations, len(self.sites)):
            raise ValueError(f"trace has shape {ind.shape}")
        for k, site in enumerate(self.sites):
            rate = chain_summary["value_rates"][site.node].get("1", 0.0)
            if rate != ind[:, k].mean():
                raise ValueError(f"summary rate {rate} != trace rate {ind[:, k].mean()}")
        return ind

    def ess(self) -> float:
        """ESS of the first site's indicator over every chain of the run,
        by the multi-chain form of Geyer's estimator. Summing per-chain
        ESS instead would score each short chain that never left a rare
        state as one effective sample however long the run."""
        if not self.indicators:
            return 0.0
        return geyer_ess(np.stack(self.indicators)[:, :, 0])

    def finish(self, ops: Operations) -> None:
        """Every site's pooled P(value == 1) against the oracle, within 4 SE
        from the ESS of all the run's chains together."""
        if not self.indicators:
            ops.record(False, f"{self.name} posterior: no chain finished")
            return
        x = np.stack(self.indicators)
        for k, site in enumerate(self.sites):
            p_hat = float(x[:, :, k].mean())
            se = math.sqrt(site.p1 * (1.0 - site.p1) / geyer_ess(x[:, :, k]))
            if not within_4se(p_hat, site.p1, se):
                ops.record(False, f"{self.name} posterior: P({site.node}=1) "
                                  f"{p_hat:.5f} vs oracle {site.p1:.5f}, "
                                  f"4 SE = {4 * se:.5f} over {x.shape[0]} chains")
                return
        ops.record(True, f"{self.name} posterior over {x.shape[0]} chains")

    def _log_z_sd(self, summary: dict) -> float:
        if self.sweep_node is None:
            return 0.0
        by_value = summary["combined"]["lw_variance_by_value"][self.sites[0].node]
        var = by_value.get("1", {}).get(f"lw_{self.sweep_node}", math.nan)
        return math.sqrt(var) if var == var else 0.0

    def determinism(self, seed: int, workdir: Path) -> tuple[bool, str]:
        """Same config twice gives byte-identical traces and summary (the
        second time serially, so the pool must not matter); another seed
        changes the traces."""
        cfg = self.config(sub_seed(seed, _DET), iterations=self.det_iterations)
        dirs = [workdir / f"det{k}" for k in range(3)]
        runs = [cfg, cfg.replace(workers=1), cfg.replace(seed=cfg.seed + 1)]
        for d, c in zip(dirs, runs):
            self.modnet.experiment.run_experiment(c, d)
        files = sorted(p.name for p in dirs[0].iterdir())
        if sorted(p.name for p in dirs[1].iterdir()) != files:
            return False, "two runs of one seed wrote different files"
        for name in files:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                return False, f"{name} differs between two runs of one seed"
        traces = [n for n in files if n.endswith(".csv")]
        if all((dirs[0] / n).read_bytes() == (dirs[2] / n).read_bytes()
               for n in traces):
            return False, "a different seed wrote identical traces"
        return True, "ok"


def make_chain_workload(name: str, modnet) -> ChainWorkload:
    oracle, rm = modnet.oracle, modnet.reference_models
    if name == "chain3_exact":
        post = oracle.posterior(rm.chain3_oracle(), {"x3": 1}, ("x1", "x2"))
        p_x1 = sum(p for (x1, _), p in post.items() if x1 == 1)
        p_x2 = sum(p for (_, x2), p in post.items() if x2 == 1)
        return ChainWorkload(
            name, modnet,
            {"network": "chain3", "chains": 1, "iterations": 4_000,
             "train_samples": 0, "workers": 1},
            [Site("X1", "z_X1", p_x1), Site("X2", "z_X2", p_x2)],
            det_iterations=200)
    if name == "switch_hmm_pool":
        post = oracle.posterior(rm.switch_hmm_oracle(),
                                rm.switch_hmm_observation(), ("a",))
        return ChainWorkload(
            name, modnet,
            {"network": "switch_hmm", "chains": 2, "iterations": 4_000,
             "particles": 30, "train_samples": 100_000, "workers": 2},
            [Site("A", "a", post[(1,)])],
            det_iterations=50, sweep_node="B")
    raise KeyError(name)


# -- estimator batch ------------------------------------------------------------


@dataclass
class Group:
    """One estimator loop: `calls` draws per batch of a weight whose mean
    must match `truth`. harmonic groups average exp(-lw) instead."""

    name: str
    calls: int
    draw: object
    truth: float
    harmonic: bool = False
    lws: list = field(default_factory=list)
    error: str | None = None


HMM = {"T": 4, "init": 0.4, "trans": (0.25, 0.7), "emit": (0.15, 0.8),
       "ys": (1, 0, 1, 1)}
TRAIN_SAMPLES = 1_000_000


class EstimatorWorkload:
    """Independent estimator calls as in validation criteria 2, 4 and 5.
    One unit is one fixed batch; one operation is one estimator group,
    checked once on the draws of the whole run."""

    name = "estimator_batch"

    def __init__(self, modnet):
        self.modnet = modnet
        self.state = None
        self.train_tables: list = []
        self.train_error: str | None = None

    def setup(self, seed: int):
        """Module construction plus the oracle targets."""
        m = self.modnet
        rng = np.random.default_rng(sub_seed(seed, _SETUP))
        fixtures = m.outlier_oracle.compute_fixtures()
        regression = {k: m.outlier_regression.build_regression_module(k)
                      for k in (1, 30, 300)}
        in_b = {"a": m.values.discrete(1)}
        out_b = {"b": m.values.real_vector(fixtures["dataset"]["responses"])}
        truth_b = math.exp(fixtures["log_evidence_by_switch"]["1"])

        rm = m.reference_models
        hmm = rm.BinaryHmm(HMM["T"], HMM["init"], HMM["emit"], trans=HMM["trans"])
        truth_h = math.exp(m.oracle.log_evidence(
            rm.hmm_oracle_model(HMM["T"], HMM["init"], HMM["trans"], HMM["emit"]),
            rm.hmm_oracle_observation(HMM["ys"])))
        out_h = rm.hmm_observation(HMM["ys"])
        sweeps = {k: m.smc.SmcModule(hmm, k) for k in (1, 5, 30)}

        spec = m.outlier_regression.switch_prior_spec()
        learned = m.inverse.InverseModule(
            spec, m.inverse.train_inverse(spec, 100_000, rng))
        exact = m.inverse.exact_inverse(spec)
        exact_mod = m.inverse.InverseModule(spec, exact)
        out_a = {"a": m.values.discrete(1)}
        truth_a = fixtures["switch_marginal"]["1"]

        joint = m.oracle.enumerate_joint(m.outlier_oracle.switch_prior_model())
        order = ("u1", "u2", "u3", "a")

        def ctx_prob(ctx, key):
            return sum(p for combo, p in joint.items()
                       if all(combo[order.index(c)] == v for c, v in zip(ctx, key)))

        targets = [(f.var, key, [float(p) for p in row], ctx_prob(f.context, key))
                   for f in exact.factors for key, row in f.table.items()]

        def regen(mod, ins, outs):
            return lambda r: mod.regenerate(ins, outs, r)[0]

        groups = [
            Group("regen_k1", 2000, regen(regression[1], in_b, out_b), truth_b),
            Group("regen_k30", 200, regen(regression[30], in_b, out_b), truth_b),
            Group("regen_k300", 20, regen(regression[300], in_b, out_b), truth_b),
            Group("simulate_k30", 300,
                  lambda r: sweeps[30].simulate({}, r)[1],
                  2.0 ** HMM["T"], harmonic=True),
            Group("hmm_k1", 1000, regen(sweeps[1], {}, out_h), truth_h),
            Group("hmm_k5", 500, regen(sweeps[5], {}, out_h), truth_h),
            Group("hmm_k30", 200, regen(sweeps[30], {}, out_h), truth_h),
            Group("inverse_learned", 5000, regen(learned, {}, out_a), truth_a),
            Group("inverse_exact", 1000, regen(exact_mod, {}, out_a), truth_a),
        ]
        self.state = (groups, spec, targets)
        return self.state

    @property
    def calls_per_batch(self) -> int:
        return sum(g.calls for g in self.state[0]) + 1

    def unit(self, seed: int, index: int) -> UnitResult:
        groups, spec, _targets = self.state
        rng = np.random.default_rng(sub_seed(seed, _UNIT, index))
        t0 = time.perf_counter()
        for g in groups:
            try:
                g.lws.extend(g.draw(rng) for _ in range(g.calls))
            except Exception as e:
                g.error = f"{type(e).__name__}: {e}"
        try:
            self.train_tables.append(
                self.modnet.inverse.train_inverse(spec, TRAIN_SAMPLES, rng))
        except Exception as e:
            self.train_error = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        return UnitResult(wall, self.calls_per_batch)

    def finish(self, ops: Operations) -> tuple[float, dict]:
        """Check every group on the run's pooled draws. Returns the summed
        Kish ESS of the weight draws and the sd of log Z-hat per group."""
        groups, _spec, targets = self.state
        ess, sd = 0.0, {}
        for g in groups:
            lw = np.asarray(g.lws, dtype=float)
            if g.error is not None or lw.size < 2:
                ops.record(False, f"{g.name}: {g.error or 'no draws'}")
                continue
            x = -lw if g.harmonic else lw
            w = np.exp(x)
            se = max(float(w.std(ddof=1)) / math.sqrt(w.size), 1e-12 * g.truth)
            ok = within_4se(float(w.mean()), g.truth, se)
            ops.record(ok, f"{g.name}: mean {w.mean():.6g} vs oracle "
                           f"{g.truth:.6g}, 4 SE = {4 * se:.3g}")
            ess += kish_ess(x)
            sd[g.name] = float(lw.std(ddof=1))
        ops.record(*self._check_training(targets))
        return ess, sd

    def _check_training(self, targets) -> tuple[bool, str]:
        """Every table row, averaged over the run's m learned tables, against
        the exact conditional: within 4 SE of a frequency over m n P(context)
        samples, plus the at most 1/(n P(context) + 2) shift that additive
        smoothing adds. One comparison per row and run, as every other check
        here pools its run: a comparison per table made 14 rows times m
        tables of them, and at 4 SE a run of 25 to 30 tables then failed about
        one time in forty with nothing wrong."""
        if self.train_error is not None or not self.train_tables:
            return False, f"train_inverse: {self.train_error or 'not run'}"
        m = len(self.train_tables)
        learned = [{f.var: f.table for f in inv.factors} for inv in self.train_tables]
        for var, key, exact_row, p_ctx in targets:
            n = TRAIN_SAMPLES * p_ctx
            mean_row = np.mean([t[var][key] for t in learned], axis=0)
            for p_l, p_e in zip(mean_row, exact_row):
                se = math.sqrt(p_e * (1.0 - p_e) / (m * n))
                if abs(p_l - p_e) > 4.0 * se + 1.0 / (n + 2.0):
                    return False, (f"train_inverse {var}{key}: mean of {m} tables "
                                   f"{p_l:.5f} vs exact {p_e:.5f}")
        return True, f"train_inverse: mean of {m} tables ok"

    def determinism(self, seed: int) -> tuple[bool, str]:
        """A few draws of every group: same seed, same bits; other seed,
        other bits."""
        groups = self.state[0]

        def draws(s):
            rng = np.random.default_rng(s)
            return np.array([g.draw(rng) for g in groups for _ in range(3)])

        s = sub_seed(seed, _DET)
        a, b, c = draws(s), draws(s), draws(s + 1)
        if a.tobytes() != b.tobytes():
            return False, "same seed gave different log-weights"
        if a.tobytes() == c.tobytes():
            return False, "another seed gave identical log-weights"
        return True, "ok"
