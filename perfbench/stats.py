"""The benchmark's own arithmetic: effective sample sizes, span self time,
operation accounting and order statistics.

Everything here is fixed on purpose. Later changes to the program must not
change how the benchmark scores it, so the ESS estimator stays Geyer's
initial positive sequence even if the package grows diagnostics of its own.
"""

from __future__ import annotations

import math
import traceback

import numpy as np


def geyer_ess(chains) -> float:
    """Effective sample size by Geyer's initial positive sequence.

    chains is one series or an (m, n) array of m chains of equal length.
    The autocorrelation at lag t is 1 - (W - mean autocovariance(t)) / var+,
    where W is the mean within-chain variance and var+ adds the between-chain
    variance of the chain means (Gelman et al., BDA3, section 11.5), so
    chains that disagree lower the ESS. tau = -1 + 2 * sum of the pair sums
    rho(2k) + rho(2k+1), stopping before the first pair sum that is not
    positive; ESS = m n / tau. Series that never move carry no information
    about their own mixing and score 1 per chain.
    """
    x = np.atleast_2d(np.asarray(chains, dtype=float))
    m, n = x.shape
    if n < 2:
        return float(m * n)
    d = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(d, size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n].mean(axis=0) / n
    within = acov[0] * n / (n - 1)
    between = float(x.mean(axis=1).var(ddof=1)) if m > 1 else 0.0
    var_plus = acov[0] + between
    if var_plus == 0.0:
        return float(m)
    rho = 1.0 - (within - acov) / var_plus
    k = (n - 1) // 2 * 2
    pairs = rho[0:k:2] + rho[1:k:2]
    stop = np.flatnonzero(pairs <= 0.0)
    tau = -1.0 + 2.0 * float(pairs[:stop[0] if stop.size else pairs.size].sum())
    return m * n / tau


def kish_ess(log_weights) -> float:
    """(sum w)^2 / sum w^2 for w = exp(lw), computed max-shifted."""
    lw = np.asarray(log_weights, dtype=float)
    lw = lw[np.isfinite(lw)]
    if lw.size == 0:
        return 0.0
    w = np.exp(lw - lw.max())
    return float(w.sum() ** 2 / (w @ w))


def within_4se(estimate: float, truth: float, se: float) -> bool:
    """The benchmark's single correctness rule: |estimate - truth| <= 4 SE."""
    return abs(estimate - truth) <= 4.0 * se


def self_times(durations, parents) -> np.ndarray:
    """Self time of every span: its duration minus its children's durations.

    parents[i] is the index of span i's parent, or -1 for a root. Spans of
    one thread nest without overlap, so the union of a span's children is
    their sum.
    """
    dur = np.asarray(durations, dtype=np.int64)
    par = np.asarray(parents, dtype=np.int64)
    has_parent = par >= 0
    child_total = np.bincount(par[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
    return dur - child_total.astype(np.int64)


class Operations:
    """Counts operations attempted and failed. An operation fails when it
    raises, fails its correctness check, or breaks determinism; failures keep
    a one-line reason so a run can say what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)

    def run(self, what: str, fn, *args, **kw):
        """Call fn as one operation; an exception marks it failed and the
        result is None."""
        try:
            result = fn(*args, **kw)
        except Exception:
            self.record(False, f"{what}: {traceback.format_exc(limit=3).strip()}")
            return None
        self.record(True, what)
        return result

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else math.nan
