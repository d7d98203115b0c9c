"""Trace capture for chain runs: a CSV of per-iteration state and a JSON
summary of what the chain did.

Formatting is pinned so identical runs produce identical bytes: floats go
through repr (shortest round-trip form), vectors join entries with ';', and
JSON is dumped with sorted keys. Files are written as <name>.partial and
renamed only when complete, so no half-written file carries a final name.

TraceWriter joins each row's cells with ',' itself and writes rows in blocks
of _BLOCK. The bytes are those csv.writer's excel dialect would write: it
quotes only a cell holding ',', '"', '\r' or '\n', or an empty cell alone on
its row, and no trace cell is any of these (ints, float reprs, ';'-joined
tuples and 0/1, at least three cells a row). Records are positional tuples
in node order (see ChainRecord), so a row is read in column order. Within a
block, a row's joined tail (its log-weight cells, total and accepted flag)
is formatted once per distinct tail and then reused, keyed by those values;
single cells are not cached. A tail holding a zero or another integral value
skips the cache: 0.0 == -0.0 and 1 == 1.0, and equal keys would share one
text.

TraceAccumulator holds rows and folds them per block. Each row makes one
lookup of its (site, proposed value, site values), which gives a plan made
on the first such row of the block: the value cells to count and the held
row lists of each site's (site, used value) group. The row's log-weights and
total are appended to those lists as one tuple. Every _BLOCK rows, and
before merge, to_jsonable or pickling, Welford's update runs per group and
node over the held rows in row order: the same arithmetic in the same order
as one update per row, so the moments are bit-identical. The fold then drops
the plans and rows, so a real-valued site holds at most a block of them.

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
from dataclasses import dataclass, field

from .mh import ChainRecord
from .network import ModuleNetwork

CSV_SCHEMA_VERSION = 1

_NEG_INF = -math.inf

# rows a TraceWriter holds before writing them in one call
_BLOCK = 1024


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
    """Streams ChainRecords to one CSV file, as the sink for run_chain. close (or
    a clean exit from a with block) writes the last block and moves the file to
    path; an exception deletes it, rows still held included."""

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
        self._rows: list[str] = []
        # joined row tails by (log_weights, total, accepted), per block:
        # exact modules give a few table entries, so tails repeat
        self._tails: dict[tuple, str] = {}

    def __call__(self, rec: ChainRecord) -> None:
        cells = [str(rec.iteration)]
        for v in rec.site_values:
            # type, not isinstance: str(True) is "True", a bool's cell is "1"
            cells.append(str(v) if type(v) is int else format_cell(v))
        key = (rec.log_weights, rec.total_log_weight, rec.accepted)
        tail = self._tails.get(key)
        if tail is None:
            tail = self._tail(key)
        cells.append(tail)
        rows = self._rows
        rows.append(",".join(cells))
        if len(rows) == _BLOCK:
            self._write_block()

    def _tail(self, key) -> str:
        """A row's log-weight, total and accepted cells, joined; kept for
        the block unless a weight is integral (zeros and ints included)."""
        lws, total, accepted = key
        xs = (*lws, total)
        # log-weights are floats by the range contract, so repr is their cell
        tail = ",".join([*map(repr, xs), "1" if accepted else "0"])
        # zeros (0.0 == -0.0) and integral values (1 == 1.0) skip the cache:
        # equal keys with different reprs would share a tail
        if all(type(x) is float and x and not x.is_integer() for x in xs):
            self._tails[key] = tail
        return tail

    def _write_block(self) -> None:
        rows = self._rows
        if rows:
            rows.append("")  # the last row's line terminator
            self._fh.write("\r\n".join(rows))
            rows.clear()
            self._tails.clear()

    def close(self) -> None:
        """Write the held rows and move the finished trace to path."""
        self.__exit__(None, None, None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # a failed last write deletes the file like any other error
        try:
            if exc[0] is None:
                self._write_block()
        except BaseException as err:
            exc = (type(err), err, err.__traceback__)
            raise
        finally:
            self._file.__exit__(*exc)
        return False


@dataclass(slots=True)
class _Moments:
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        d = x - self.mean
        self.mean += d / self.count
        self.m2 += d * (x - self.mean)

    def merge(self, other: "_Moments") -> None:
        if other.count == 0:
            return
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


def _plain(v) -> bool:
    """Whether equal values of v's kind always share one cell: a site holds
    one kind, and only a float zero (0.0 == -0.0) or a tuple, which may hold
    one, has an equal value of another cell."""
    return type(v) is int or type(v) is float and v != 0.0


@dataclass
class TraceAccumulator:
    """Running summary over a stream of ChainRecords: per-site value counts
    and acceptance counts, plus per-node log-weight moments grouped by the
    site value each evaluation used, which is the proposed value at the
    updated site and the current value elsewhere (infinite log-weights are
    counted, not averaged). lw_moments maps (site, value cell) to that
    group's moments per node. Accumulators merge, so chains summarize
    independently and combine.

    node_names lists every node in net.node_ids() order, and site_ids every
    scheduled site, kept in node_names order whatever order it is given in:
    the positions of a record's log_weights and site_values. frequencies and
    lw_moments take in held rows at each fold (see the module docstring);
    the other counts are current after every row."""

    node_names: dict[int, str]
    site_ids: tuple[int, ...]
    iterations: int = 0
    frequencies: dict = field(default_factory=dict)
    proposals: dict = field(default_factory=dict)
    accepts: dict = field(default_factory=dict)
    neg_inf_proposals: int = 0
    lw_moments: dict = field(default_factory=dict)
    # this block's plans by (site, proposed, site values), plans not kept
    # there, and held rows by (site, used value cell)
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _loose: list = field(default_factory=list, init=False, repr=False,
                         compare=False)
    _held: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        self.site_ids = tuple(i for i in self.node_names if i in self.site_ids)

    def __call__(self, rec: ChainRecord) -> None:
        self.iterations += 1
        site = rec.site
        proposals = self.proposals
        proposals[site] = proposals.get(site, 0) + 1
        if rec.accepted:
            self.accepts[site] = self.accepts.get(site, 0) + 1
        if rec.neg_inf_proposal:
            self.neg_inf_proposals += 1
        key = (site, rec.proposed_value, rec.site_values)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plan(key)
        plan[0] += 1
        row = (*rec.log_weights, rec.total_log_weight)
        for held in plan[2]:
            held.append(row)
        if self.iterations % _BLOCK == 0:
            self._fold()

    def _plan(self, key) -> list:
        """[row count, (site, value cell) pairs, held row list per site]
        for the rows that share key; kept for the block when every value
        in key is plain."""
        site, proposed, values = key
        cells = [str(v) if type(v) is int else format_cell(v) for v in values]
        used = str(proposed) if type(proposed) is int else format_cell(proposed)
        held = self._held
        groups = []
        for s, cell in zip(self.site_ids, cells):
            group = (s, used if s == site else cell)
            rows = held.get(group)
            if rows is None:
                rows = held[group] = []
            groups.append(rows)
        plan = [0, tuple(zip(self.site_ids, cells)), groups]
        if _plain(proposed) and all(map(_plain, values)):
            self._plans[key] = plan
        else:
            self._loose.append(plan)
        return plan

    def _fold(self) -> None:
        """Take the held rows into frequencies and lw_moments, then drop
        them with this block's plans."""
        frequencies = self.frequencies
        for plan in (*self._plans.values(), *self._loose):
            n = plan[0]
            for s, cell in plan[1]:
                counts = frequencies.get(s)
                if counts is None:
                    counts = frequencies[s] = {}
                counts[cell] = counts.get(cell, 0) + n
        lw_moments = self.lw_moments
        labels = (*self.node_names, "total")
        for group_key, rows in self._held.items():
            group = lw_moments.get(group_key)
            if group is None:
                group = lw_moments[group_key] = {}
            for node, xs in zip(labels, zip(*rows)):
                m = group.get(node)
                if m is None:
                    count, mean, m2 = 0, 0.0, 0.0
                else:
                    count, mean, m2 = m.count, m.mean, m.m2
                # Welford's update in row order: _Moments.add's arithmetic,
                # on locals
                for x in xs:
                    if x != _NEG_INF:
                        count += 1
                        d = x - mean
                        mean += d / count
                        m2 += d * (x - mean)
                if count:
                    if m is None:
                        m = group[node] = _Moments()
                    m.count, m.mean, m.m2 = count, mean, m2
        self._plans.clear()
        self._loose.clear()
        self._held.clear()

    def __getstate__(self) -> dict:
        self._fold()
        state = dict(self.__dict__)
        for name in ("_plans", "_loose", "_held"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _plans={}, _loose=[], _held={})

    def merge(self, other: "TraceAccumulator") -> None:
        self._fold()
        other._fold()
        self.iterations += other.iterations
        self.neg_inf_proposals += other.neg_inf_proposals
        for s, n in other.proposals.items():
            self.proposals[s] = self.proposals.get(s, 0) + n
        for s, n in other.accepts.items():
            self.accepts[s] = self.accepts.get(s, 0) + n
        for s, per_site in other.frequencies.items():
            mine = self.frequencies.setdefault(s, {})
            for k, n in per_site.items():
                mine[k] = mine.get(k, 0) + n
        for group_key, by_node in other.lw_moments.items():
            mine = self.lw_moments.setdefault(group_key, {})
            for node, mom in by_node.items():
                mine.setdefault(node, _Moments()).merge(mom)

    def to_jsonable(self) -> dict:
        def label(node) -> str:
            return node if node == "total" else f"lw_{self.node_names[node]}"

        self._fold()
        name = self.node_names
        lw_variance: dict = {}
        for (s, k), by_node in sorted(self.lw_moments.items()):
            lw_variance.setdefault(name[s], {})[k] = {
                label(node): by_node[node].variance
                for node in sorted(by_node, key=str)}
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
