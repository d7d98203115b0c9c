"""Trace capture for chain runs: a CSV of per-iteration state and a JSON
summary of what the chain did.

Formatting is pinned so identical runs produce identical bytes: floats go
through repr (shortest round-trip form), vectors join entries with ';', and
JSON is dumped with sorted keys. Files are written as <name>.partial and
renamed only when complete, so no half-written file carries a final name.

Both sinks take one block of ChainRecords per call, as run_chain hands them
over, and hold nothing between calls. TraceWriter joins each row's cells
with ',' itself and writes a block's rows in one write. The bytes are those
csv.writer's excel dialect would write: it quotes only a cell holding ',',
'"', '\r' or '\n', or an empty cell alone on its row, and no trace cell is
any of these (ints, float reprs, ';'-joined tuples and 0/1, at least three
cells a row). Records are positional tuples in node order (see
ChainRecord), so a row is read in column order. Within a block, a row's
joined tail (its log-weight cells, total and accepted flag) is formatted
once per distinct tail and then reused, keyed by those values; single cells
are not cached. A tail holding a zero or another integral value skips the
cache: 0.0 == -0.0 and 1 == 1.0, and equal keys would share one text.

TraceAccumulator reduces each block as it comes: one pass over the block's
columns counts values and acceptances, groups rows by (site, used value
cell) with np.unique, and takes each group's count, mean and M2 per node
from np.bincount; Chan, Golub and LeVeque's pairwise update merges them
across blocks and chains. Each group's column is first shifted by one of its
own values, so a constant group reads exactly 0. The summary is
byte-reproducible for a config; its variances match a per-row Welford loop
to rounding, not bit for bit.

CSV schema, versioned below: one column per scheduled site, in topological
order, holding that site's current output value, named after the site's
proposal port (falling back to port_nodename when two sites share a port
name), then lw_<node name> for every node in topological order, then
total_lw, then accepted (0/1). Both sinks order the sites by the network's
node order themselves, so the order a caller lists them in cannot matter.

The value columns trace the chain itself. The lw columns carry the
log-weights the iteration evaluated (see ChainRecord), so on rejected rows
they describe the discarded proposal rather than the retained state; the
accepted column says which. Regeneration is stochastic, so total_lw keeps
fluctuating even across stretches where every value column is constant.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress

import numpy as np

from .mh import ChainRecord
from .network import ModuleNetwork

CSV_SCHEMA_VERSION = 1

_NEG_INF = -math.inf


def format_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ";".join(format_cell(x) for x in v)
    raise TypeError(f"cannot format {type(v).__name__} into a trace cell")


def site_column_names(net: ModuleNetwork, site_ports: dict[int, str]) -> dict[int, str]:
    ports = list(site_ports.values())
    return {
        s: p if ports.count(p) == 1 else f"{p}_{net.name_of(s)}"
        for s, p in site_ports.items()
    }


@contextlib.contextmanager
def _atomic_open(path, newline=None):
    """<path>.partial for writing; renamed to path on a clean exit, else deleted."""
    partial = f"{path}.partial"
    fh = open(partial, "w", newline=newline)
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(partial)
        raise
    os.replace(partial, path)


class TraceWriter:
    """Streams blocks of ChainRecords to one CSV file, as the sink for
    run_chain: each call writes its block's rows at once. close (or a clean
    exit from a with block) moves the file to path; an exception deletes it."""

    def __init__(self, path, net: ModuleNetwork, site_ports: dict[int, str]):
        # the column order of a record's site values: node order
        self.site_ids = tuple(i for i in net.node_ids() if i in site_ports)
        cols = site_column_names(net, site_ports)
        self._file = _atomic_open(path, newline="")
        self._fh = self._file.__enter__()
        header = ["iteration"]
        header += [cols[s] for s in self.site_ids]
        header += [f"lw_{net.name_of(i)}" for i in net.node_ids()]
        header += ["total_lw", "accepted"]
        csv.writer(self._fh).writerow(header)

    def __call__(self, block: list[ChainRecord]) -> None:
        # joined row tails by (log_weights, total, accepted), for this block:
        # exact modules give a few table entries, so tails repeat
        tails: dict[tuple, str] = {}
        rows = []
        for rec in block:
            cells = [str(rec.iteration)]
            for v in rec.site_values:
                # type, not isinstance: str(True) is "True", a bool's cell is "1"
                cells.append(str(v) if type(v) is int else format_cell(v))
            key = (rec.log_weights, rec.total_log_weight, rec.accepted)
            tail = tails.get(key)
            if tail is None:
                tail = _tail(key, tails)
            cells.append(tail)
            rows.append(",".join(cells))
        rows.append("")  # the last row's line terminator
        self._fh.write("\r\n".join(rows))

    def close(self) -> None:
        """Move the finished trace to path."""
        self.__exit__(None, None, None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.__exit__(*exc)
        return False


def _tail(key, tails: dict) -> str:
    """A row's log-weight, total and accepted cells, joined; kept in tails
    unless a weight is integral (zeros and ints included)."""
    lws, total, accepted = key
    xs = (*lws, total)
    # log-weights are floats by the range contract, so repr is their cell
    tail = ",".join([*map(repr, xs), "1" if accepted else "0"])
    # zeros (0.0 == -0.0) and integral values (1 == 1.0) skip the cache:
    # equal keys with different reprs would share a tail
    if all(type(x) is float and x and not x.is_integer() for x in xs):
        tails[key] = tail
    return tail


@dataclass(slots=True)
class _Moments:
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def merge(self, other: "_Moments") -> None:
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return
        n = self.count + other.count
        d = other.mean - self.mean
        self.mean += d * other.count / n
        self.m2 += other.m2 + d * d * self.count * other.count / n
        self.count = n

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else math.nan


def _cells(column) -> list[str]:
    """format_cell of each value, through str where that is the same text."""
    plain = set(map(type, column)) <= {int, float}
    return list(map(str if plain else format_cell, column))


@dataclass
class TraceAccumulator:
    """Running summary over a stream of ChainRecords: per-site value counts
    and acceptance counts, plus per-node log-weight moments grouped by the
    site value each evaluation used, which is the proposed value at the
    updated site and the current value elsewhere (infinite log-weights are
    counted, not averaged). lw_moments maps (site, value cell) to that
    group's moments per column label (lw_<node name> or total).
    Accumulators merge, so chains summarize independently and combine.

    node_names lists every node in net.node_ids() order, and site_ids every
    scheduled site, kept in node_names order whatever order it is given in:
    the positions of a record's log_weights and site_values. Each call folds
    one block of records into the counts and moments (see the module
    docstring), so they are current after every call."""

    node_names: dict[int, str]
    site_ids: tuple[int, ...]
    iterations: int = 0
    frequencies: dict = field(default_factory=dict)
    proposals: Counter = field(default_factory=Counter)
    accepts: Counter = field(default_factory=Counter)
    neg_inf_proposals: int = 0
    lw_moments: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.site_ids) - set(self.node_names)
        if unknown:
            raise ValueError(f"site ids {sorted(unknown)} are not in node_names")
        self.site_ids = tuple(i for i in self.node_names if i in self.site_ids)

    def __call__(self, block: list[ChainRecord]) -> None:
        """Take a block of records into the counts and moments in one pass
        over their columns."""
        _, sites, proposed, accepted, neg_inf, values, lws, totals = zip(*block)
        self.iterations += len(sites)
        self.neg_inf_proposals += sum(neg_inf)
        self.proposals.update(sites)
        self.accepts.update(compress(sites, accepted))
        # one column per node, then the total
        labels = (*(f"lw_{n}" for n in self.node_names.values()), "total")
        x = np.column_stack((np.fromiter(chain.from_iterable(lws), float)
                             .reshape(len(sites), -1), totals))
        proposed = _cells(proposed)
        block = {}
        for s, column in zip(self.site_ids, zip(*values)):
            cells = _cells(column)
            self.frequencies.setdefault(s, Counter()).update(cells)
            used = [p if t == s else c for t, p, c in zip(sites, proposed, cells)]
            keys, g = np.unique(used, return_inverse=True)
            for key, *by_node in zip(keys.tolist(), *_group_moments(x, g, len(keys))):
                block[s, key] = {node: _Moments(int(n), mean, m2)
                                 for node, n, mean, m2 in zip(labels, *by_node) if n}
        self._merge_moments(block)

    def _merge_moments(self, lw_moments: dict) -> None:
        for group_key, by_node in lw_moments.items():
            mine = self.lw_moments.setdefault(group_key, {})
            for node, mom in by_node.items():
                mine.setdefault(node, _Moments()).merge(mom)

    def merge(self, other: "TraceAccumulator") -> None:
        self.iterations += other.iterations
        self.neg_inf_proposals += other.neg_inf_proposals
        self.proposals.update(other.proposals)
        self.accepts.update(other.accepts)
        for s, per_site in other.frequencies.items():
            self.frequencies.setdefault(s, Counter()).update(per_site)
        self._merge_moments(other.lw_moments)

    def to_jsonable(self) -> dict:
        name = self.node_names
        lw_variance: dict = {}
        for (s, k), by_node in sorted(self.lw_moments.items()):
            lw_variance.setdefault(name[s], {})[k] = {
                label: m.variance for label, m in sorted(by_node.items())}
        return {
            "iterations": self.iterations,
            "neg_inf_proposals": self.neg_inf_proposals,
            "value_counts": {
                name[s]: dict(sorted(per.items()))
                for s, per in sorted(self.frequencies.items())
            },
            "value_rates": {
                name[s]: {k: n / self.iterations for k, n in sorted(per.items())}
                for s, per in sorted(self.frequencies.items())
            },
            "acceptance_rates": {
                name[s]: self.accepts.get(s, 0) / n
                for s, n in sorted(self.proposals.items()) if n
            },
            "lw_variance_by_value": lw_variance,
        }


def _group_moments(x, g, groups: int):
    """Count, mean and M2 of x's live (not -inf) cells per group and column,
    rows grouped by g, as lists of rows. Each group's column is shifted by
    its largest live value before the two-pass sums, so a constant one reads
    exactly 0."""
    live = x != _NEG_INF
    flat = (g[:, None] * x.shape[1] + np.arange(x.shape[1])).ravel()

    def sums(w):
        return np.bincount(flat, weights=w.ravel(),
                           minlength=groups * x.shape[1]).reshape(groups, -1)

    shift = np.full(groups * x.shape[1], _NEG_INF)
    np.maximum.at(shift, flat, x.ravel())
    shift = np.where(shift == _NEG_INF, 0.0, shift).reshape(groups, -1)
    y = np.where(live, x - shift[g], 0.0)
    count = sums(live)
    mean = sums(y) / np.maximum(count, 1)
    d = np.where(live, y - mean[g], 0.0)
    return count.tolist(), (mean + shift).tolist(), sums(d * d).tolist()


def summary_document(per_chain: list[TraceAccumulator]) -> dict:
    first = per_chain[0]
    combined = TraceAccumulator(dict(first.node_names), first.site_ids)
    for acc in per_chain:
        combined.merge(acc)
    return {
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "chains": [acc.to_jsonable() for acc in per_chain],
        "combined": combined.to_jsonable(),
    }


def write_summary(path, doc: dict) -> None:
    with _atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
