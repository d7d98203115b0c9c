import csv
import io
import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modnet import traceio
from modnet.mh import ChainRecord, flip_proposal, run_chain
from modnet.reference_models import chain3_network
from modnet.traceio import (
    CSV_SCHEMA_VERSION,
    TraceAccumulator,
    TraceWriter,
    _Moments,
    format_cell,
    site_column_names,
    summary_document,
    write_summary,
)


def _chain3_records(seed, iterations=120):
    net = chain3_network()
    rng = np.random.default_rng(seed)
    net.initialize(rng)
    records = []
    run_chain(net, [flip_proposal(1), flip_proposal(2)], iterations, rng,
              sink=records.append)
    return net, records


# -- cell formatting --------------------------------------------------------------

def test_format_cell_is_typed_and_round_trippable():
    assert format_cell(True) == "1" and format_cell(False) == "0"
    assert format_cell(7) == "7" and format_cell(-3) == "-3"
    assert format_cell(0.1) == "0.1"
    assert format_cell(-70.33438459994356) == "-70.33438459994356"
    assert float(format_cell(1 / 3)) == 1 / 3
    assert format_cell(-math.inf) == "-inf"
    assert format_cell((1, 0, 1)) == "1;0;1"
    assert format_cell((0.5, -1.25)) == "0.5;-1.25"
    for bad in ("text", None, [1, 2], {}):
        with pytest.raises(TypeError):
            format_cell(bad)


def test_site_columns_fall_back_to_qualified_names():
    net = chain3_network()
    assert site_column_names(net, {1: "z"}) == {1: "z"}
    assert site_column_names(net, {1: "z", 2: "z"}) == {1: "z_X1", 2: "z_X2"}


# -- CSV writing --------------------------------------------------------------------

def test_writer_emits_the_pinned_header_and_faithful_rows(tmp_path):
    net, records = _chain3_records(1)
    path = tmp_path / "trace.csv"
    with TraceWriter(path, net, {1: "z", 2: "z"}) as sink:
        for rec in records:
            sink(rec)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "z_X1", "z_X2", "lw_X1", "lw_X2", "lw_X3",
                       "total_lw", "accepted"]
    assert len(rows) == 1 + len(records)
    for row, rec in zip(rows[1:], records):
        assert int(row[0]) == rec.iteration
        # site values and log-weights both in node order
        assert int(row[1]) == rec.site_values[0]
        assert int(row[2]) == rec.site_values[1]
        assert [float(c) for c in row[3:6]] == list(rec.log_weights)
        assert float(row[6]) == rec.total_log_weight
        assert row[7] == ("1" if rec.accepted else "0")


@pytest.mark.parametrize("listed", [{1: "z", 2: "z"}, {2: "z", 1: "z"}])
def test_sinks_label_sites_in_node_order_whatever_the_order_given(tmp_path, listed):
    # the schedule lists X2 before X1, and the sinks get the sites in either
    # order; every column and rate must still belong to its own site
    net = chain3_network()
    rng = np.random.default_rng(0)
    net.initialize(rng)
    acc = TraceAccumulator({i: net.name_of(i) for i in net.node_ids()}, tuple(listed))
    states = []
    path = tmp_path / "trace.csv"
    with TraceWriter(path, net, listed) as writer:
        def sink(rec):
            writer(rec)
            acc(rec)
            states.append((net.outputs_of(1)["z"].data, net.outputs_of(2)["z"].data))
        run_chain(net, [flip_proposal(2), flip_proposal(1)], 2000, rng, sink=sink)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][1:3] == ["z_X1", "z_X2"]
    assert [(int(r[1]), int(r[2])) for r in rows[1:]] == states
    rates = acc.to_jsonable()["value_rates"]
    assert rates["X1"]["1"] == sum(x1 for x1, _ in states) / 2000
    assert rates["X2"]["1"] == sum(x2 for _, x2 in states) / 2000
    assert rates["X1"]["1"] != rates["X2"]["1"]


def test_identical_runs_write_identical_bytes(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        net, records = _chain3_records(33)
        path = tmp_path / name
        with TraceWriter(path, net, {1: "z", 2: "z"}) as sink:
            for rec in records:
                sink(rec)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def _csv_writer_bytes(records):
    """A chain3 trace with sites 1 and 2 as csv.writer writes it, one
    writerow per record."""
    buf = io.StringIO(newline="")
    out = csv.writer(buf)
    out.writerow(["iteration", "z_X1", "z_X2", "lw_X1", "lw_X2", "lw_X3",
                  "total_lw", "accepted"])
    for rec in records:
        out.writerow([
            str(rec.iteration),
            *[format_cell(v) for v in rec.site_values],
            *[repr(lw) for lw in rec.log_weights],
            repr(rec.total_log_weight),
            "1" if rec.accepted else "0",
        ])
    return buf.getvalue().encode()

# edge floats, drawn often so that rows in one block repeat them
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 0.1, 1e16,
                -math.inf)
_floats = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False)
_site_values = st.one_of(
    st.integers(-10**20, 10**20),
    st.booleans(),
    _floats.filter(math.isfinite),
    st.lists(st.integers(-5, 300), max_size=4).map(tuple),
    st.lists(_floats.filter(math.isfinite), max_size=3).map(tuple),
)
# ints break the float contract but must still get their own cells
_lws = (st.sampled_from(_EDGE_FLOATS) | st.integers(-1, 1)
        | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _records(draw):
    n = draw(st.integers(0, 12))
    records = []
    for it in range(n):
        lws = tuple(draw(_lws) for _ in (1, 2, 3))
        records.append(ChainRecord(
            it, draw(st.sampled_from((1, 2))), draw(_site_values),
            draw(st.booleans()), False,
            (draw(_site_values), draw(_site_values)),
            lws, draw(_lws | st.just(-math.inf))))
    return records


@settings(derandomize=True, deadline=None, max_examples=100)
@given(records=_records(), block=st.sampled_from([1, 2, 3, 1024]))
def test_writer_bytes_equal_csv_writer_rows(records, block):
    # rows are joined and written in blocks; the bytes are csv.writer's
    # whatever the cells and wherever the block boundaries fall
    net = chain3_network()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(traceio, "_BLOCK", block)
        path = Path(tmp) / "trace.csv"
        with TraceWriter(path, net, {1: "z", 2: "z"}) as sink:
            for rec in records:
                sink(rec)
        got = path.read_bytes()
    assert got == _csv_writer_bytes(records)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_rows_around_one_block_are_all_written(tmp_path, extra):
    n = traceio._BLOCK + extra
    net, records = _chain3_records(5, iterations=n)
    path = tmp_path / "trace.csv"
    sink = TraceWriter(path, net, {1: "z", 2: "z"})
    for rec in records:
        sink(rec)
    sink.close()
    got = path.read_bytes()
    assert got == _csv_writer_bytes(records)
    assert got.count(b"\r\n") == 1 + n
    assert not (tmp_path / "trace.csv.partial").exists()


def test_an_error_mid_block_leaves_no_trace_and_no_partial(tmp_path):
    net, records = _chain3_records(6, iterations=traceio._BLOCK + 7)
    path = tmp_path / "trace.csv"
    with pytest.raises(RuntimeError, match="mid-block"):
        with TraceWriter(path, net, {1: "z", 2: "z"}) as sink:
            for rec in records:
                sink(rec)
            raise RuntimeError("mid-block")
    assert list(tmp_path.iterdir()) == []

    # a last block that fails to write deletes the file the same way
    def fail(self):
        raise OSError("disk full")

    sink = TraceWriter(path, net, {1: "z", 2: "z"})
    sink(records[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TraceWriter, "_write_block", fail)
        with pytest.raises(OSError, match="disk full"):
            sink.close()
    assert list(tmp_path.iterdir()) == []


def test_writer_keeps_equal_weights_of_different_cells_apart_in_a_block(tmp_path):
    # 0.0 == -0.0 and 1 == 1.0, so rows holding either of a pair must not
    # share a cached tail
    net = chain3_network()
    records = []
    for it in range(40):
        z = (-0.0, 0.0, 1, 1.0)[it % 4]
        lws = (z, -1.25, -0.5) if it % 3 else (-1.25, z, -0.5)
        records.append(ChainRecord(it, 1, 1, bool(it % 5), False, (1, 0),
                                   lws, z if it % 7 else sum(lws)))
    path = tmp_path / "trace.csv"
    with TraceWriter(path, net, {1: "z", 2: "z"}) as sink:
        for rec in records:
            sink(rec)
    got = path.read_bytes()
    assert got == _csv_writer_bytes(records)
    for cell in (b",-0.0,", b",0.0,", b",1,", b",1.0,"):
        assert cell in got


# -- moments ---------------------------------------------------------------------------

def _add(m: _Moments, x: float) -> None:
    """Welford's update for one row: the per-row reference that the block
    reduction is held to."""
    m.count += 1
    d = x - m.mean
    m.mean += d / m.count
    m.m2 += d * (x - m.mean)


def test_moments_match_numpy():
    xs = [0.3, -1.2, 5.5, 0.3, 2.0, -0.7]
    m = _Moments()
    for x in xs:
        _add(m, x)
    assert m.count == len(xs)
    assert m.mean == pytest.approx(np.mean(xs), rel=1e-14)
    assert m.variance == pytest.approx(np.var(xs), rel=1e-14)
    assert math.isnan(_Moments().variance)


def test_moments_merge_equals_single_pass():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=300).tolist()
    whole = _Moments()
    for x in xs:
        _add(whole, x)
    left, right = _Moments(), _Moments()
    for x in xs[:117]:
        _add(left, x)
    for x in xs[117:]:
        _add(right, x)
    left.merge(right)
    assert left.count == whole.count
    assert left.mean == pytest.approx(whole.mean, rel=1e-12)
    assert left.variance == pytest.approx(whole.variance, rel=1e-12)


# -- accumulator -------------------------------------------------------------------------

def _rec(iteration, site, proposed, accepted, neg_inf, values, lws):
    """A record with site values and log-weights (nodes 1, 2, 3) given by
    position."""
    total = -math.inf if -math.inf in lws else sum(lws)
    return ChainRecord(iteration=iteration, site=site, proposed_value=proposed,
                       accepted=accepted, neg_inf_proposal=neg_inf,
                       site_values=values, log_weights=lws,
                       total_log_weight=total)


def test_accumulator_refuses_site_ids_outside_node_names():
    with pytest.raises(ValueError, match=r"site ids \[7, 9\] are not in node_names"):
        TraceAccumulator({1: "A", 2: "B"}, (9, 2, 7))


def test_accumulator_counts_by_hand():
    acc = TraceAccumulator({1: "A", 2: "B", 3: "C"}, (1, 2))
    acc(_rec(0, 1, 1, True, False, (1, 0), (-0.5, -1.0, -2.0)))
    acc(_rec(1, 1, 0, False, True, (1, 0), (-0.7, -math.inf, -2.0)))
    doc = acc.to_jsonable()
    assert doc["iterations"] == 2
    assert doc["neg_inf_proposals"] == 1
    assert doc["value_counts"] == {"A": {"1": 2}, "B": {"0": 2}}
    assert doc["value_rates"] == {"A": {"1": 1.0}, "B": {"0": 1.0}}
    assert doc["acceptance_rates"] == {"A": 0.5}
    by_val = doc["lw_variance_by_value"]["A"]
    # the rejected row groups under its proposed value, not the kept one
    assert set(by_val) == {"1", "0"}
    assert set(by_val["1"]) == {"lw_A", "lw_B", "lw_C", "total"}
    # -inf entries are counted, never averaged
    assert set(by_val["0"]) == {"lw_A", "lw_C"}
    assert by_val["0"]["lw_A"] == 0.0
    assert doc["lw_variance_by_value"]["B"]["0"]["lw_B"] == pytest.approx(
        np.var([-1.0]), abs=0.0)


def _walk_close(a, b, path=""):
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), path
        for k in a:
            _walk_close(a[k], b[k], f"{path}/{k}")
    elif isinstance(a, float):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12), path
    else:
        assert a == b, path


def test_merged_chains_equal_one_long_pass():
    _, records = _chain3_records(17, iterations=200)
    names = {1: "X1", 2: "X2", 3: "X3"}
    whole = TraceAccumulator(dict(names), (1, 2))
    for rec in records:
        whole(rec)
    left = TraceAccumulator(dict(names), (1, 2))
    right = TraceAccumulator(dict(names), (1, 2))
    for rec in records[:90]:
        left(rec)
    for rec in records[90:]:
        right(rec)
    left.merge(right)
    _walk_close(left.to_jsonable(), whole.to_jsonable())


def _reference_document(records, names, site_ids=(1, 2, 3)):
    """The accumulator as first written: nested setdefault groups and one
    _add per node, site and row, in record order. Records are
    positional: site values in site_ids order, log-weights in names order."""
    freq, proposals, accepts, moments, neg_inf = {}, {}, {}, {}, 0
    for rec in records:
        proposals[rec.site] = proposals.get(rec.site, 0) + 1
        if rec.accepted:
            accepts[rec.site] = accepts.get(rec.site, 0) + 1
        neg_inf += rec.neg_inf_proposal
        for s, v in zip(site_ids, rec.site_values):
            per_site = freq.setdefault(s, {})
            per_site[format_cell(v)] = per_site.get(format_cell(v), 0) + 1
            used = rec.proposed_value if s == rec.site else v
            by_val = moments.setdefault(s, {}).setdefault(format_cell(used), {})
            for node, lw in zip(names, rec.log_weights):
                if lw != -math.inf:
                    _add(by_val.setdefault(node, _Moments()), lw)
            if rec.total_log_weight != -math.inf:
                _add(by_val.setdefault("total", _Moments()), rec.total_log_weight)
    n = len(records)
    label = {**{i: f"lw_{name}" for i, name in names.items()}, "total": "total"}
    return {
        "iterations": n,
        "neg_inf_proposals": neg_inf,
        "value_counts": {names[s]: per for s, per in freq.items()},
        "value_rates": {names[s]: {k: c / n for k, c in per.items()}
                        for s, per in freq.items()},
        "acceptance_rates": {names[s]: accepts.get(s, 0) / c
                             for s, c in proposals.items()},
        "lw_variance_by_value": {
            names[s]: {k: {label[node]: m.variance for node, m in by_node.items()}
                       for k, by_node in per.items()}
            for s, per in moments.items()},
    }


# equal tuples of different cells, as 0.0 == -0.0
_TUPLES = ((0.0,), (-0.0,), (1, 2), (0.5, -1.25))


def _random_records(seed, n, reals=(-0.5, 0.25, 1.0, 2.75)):
    """A chain-shaped record stream over a discrete site, a real one and a
    tuple-valued one: rejected rows keep the old value and carry a different
    proposed one, and about one node weight in ten is -inf. Node 1 weighs
    the used value of site 1 exactly, as a table module does, so its groups
    there are constant."""
    rng = np.random.default_rng(seed)
    cur = {1: 0, 2: reals[1], 3: _TUPLES[0]}
    records = []
    for it in range(n):
        site = int(rng.integers(1, 4))
        choices = {1: (0, 1, 2), 2: reals, 3: _TUPLES}[site]
        proposed = choices[int(rng.integers(len(choices)))]
        lws = [-math.inf if rng.random() < 0.1
               else float(rng.normal(-3.0, 2.0)) for _ in (1, 2, 3)]
        if lws[0] != -math.inf:
            lws[0] = -0.1 - 0.7 * (proposed if site == 1 else cur[1])
        lws = tuple(lws)
        neg_inf = -math.inf in lws
        accepted = not neg_inf and bool(rng.random() < 0.5)
        if accepted:
            cur[site] = proposed
        records.append(_rec(it, site, proposed, accepted, neg_inf,
                            (cur[1], cur[2], cur[3]), lws))
    return records


def _assert_matches_reference(got, want):
    """Every count, rate and key set equals the reference's; each variance
    is within relative 1e-12 of it, and exactly 0.0 where it reads 0.0."""
    lw = "lw_variance_by_value"
    assert {k: v for k, v in got.items() if k != lw} == {
        k: v for k, v in want.items() if k != lw}
    assert got[lw].keys() == want[lw].keys()
    for site, by_value in want[lw].items():
        assert got[lw][site].keys() == by_value.keys(), site
        for cell, by_node in by_value.items():
            assert got[lw][site][cell].keys() == by_node.keys(), (site, cell)
            for node, var in by_node.items():
                x = got[lw][site][cell][node]
                if var == 0.0:
                    assert x == 0.0, (site, cell, node, x)
                else:
                    assert abs(x - var) <= 1e-12 * abs(var), (site, cell, node, x, var)


def _fed(acc, records):
    for rec in records:
        acc(rec)
    return acc


_NAMES = {1: "A", 2: "B", 3: "C"}


def _acc():
    return TraceAccumulator(dict(_NAMES), (1, 2, 3))


def test_accumulator_matches_the_reference_loop_within_1e_12_and_exact_zeros():
    for seed in (0, 1, 2):
        records = _random_records(seed, 400)
        assert any(not r.accepted
                   and r.proposed_value != r.site_values[r.site - 1]
                   for r in records)
        assert any(r.neg_inf_proposal for r in records)
        acc = _fed(_acc(), records)
        want = _reference_document(records, _NAMES)
        assert "-0.0" in want["value_counts"]["C"] and "0.0" in want["value_counts"]["C"]
        assert want["lw_variance_by_value"]["A"]["2"]["lw_A"] == 0.0
        _assert_matches_reference(acc.to_jsonable(), want)

        left = _fed(_acc(), records[:157])
        right = _fed(_acc(), records[157:])
        _assert_matches_reference(left.to_jsonable(),
                                  _reference_document(records[:157], _NAMES))
        left.merge(right)
        _walk_close(left.to_jsonable(), acc.to_jsonable())


@pytest.mark.parametrize("seed", range(6))
def test_block_folds_match_the_reference_loop_within_1e_12_and_exact_zeros(
        seed, monkeypatch):
    # folds every 7 rows, and mid-block at each merge and pickle; the real
    # and tuple sites visit both zeros, whose cells differ though 0.0 == -0.0
    monkeypatch.setattr(traceio, "_BLOCK", 7)
    records = _random_records(seed, 300, reals=(-0.5, 0.0, -0.0, 0.25, 2.75))
    assert any(not r.accepted for r in records)
    assert any(r.neg_inf_proposal for r in records)
    want = _reference_document(records, _NAMES)
    for site in ("B", "C"):
        assert "-0.0" in want["value_counts"][site]
        assert "0.0" in want["value_counts"][site]
    assert want["lw_variance_by_value"]["A"]["2"]["lw_A"] == 0.0
    _assert_matches_reference(_fed(_acc(), records).to_jsonable(), want)

    # an empty merge, and a pickle round trip, taken mid-block
    k = 7 * 20 + 3
    acc = _fed(_acc(), records[:k])
    acc.merge(_acc())
    _assert_matches_reference(_fed(acc, records[k:]).to_jsonable(), want)
    acc = _fed(_acc(), records[:k])
    acc = pickle.loads(pickle.dumps(acc))
    _assert_matches_reference(_fed(acc, records[k:]).to_jsonable(), want)

    # two halves split mid-block merge by Chan's update, so equal to one
    # pass to rounding, and to a merge of the folded halves exactly
    halves = []
    for fold_first in (False, True):
        left = _fed(_acc(), records[:k])
        right = _fed(_acc(), records[k:])
        if fold_first:
            left.to_jsonable()
            right.to_jsonable()
        left.merge(right)
        halves.append(left.to_jsonable())
    assert halves[0] == halves[1]
    _assert_matches_reference(halves[0], want)


def test_pickled_accumulator_holds_no_block_state():
    records = _random_records(3, 500)
    held = _fed(_acc(), records)
    folded = _fed(_acc(), records)
    folded.to_jsonable()
    assert pickle.dumps(held) == pickle.dumps(folded)
    assert "_rows" not in held.__getstate__()


def test_a_real_site_holds_fewer_than_a_block_of_records_between_folds(monkeypatch):
    monkeypatch.setattr(traceio, "_BLOCK", 16)
    rng = np.random.default_rng(8)
    acc = TraceAccumulator({1: "S", 2: "T"}, (1,))
    x = 0.5
    most = 0
    for it in range(16 * 6 + 5):
        proposed = x + float(rng.normal())  # a fresh value every row
        accepted = bool(rng.random() < 0.5)
        if accepted:
            x = proposed
        acc(_rec(it, 1, proposed, accepted, False, (x,), (-1.5, -2.5)))
        assert len(acc._rows) < 16
        most = max(most, len(acc._rows))
    # a record per row until each 16th row folds them all away
    assert most == 15
    assert acc.to_jsonable()["iterations"] == 16 * 6 + 5
    assert not acc._rows


# -- summary documents ----------------------------------------------------------------------

def test_summary_document_shape_and_combination():
    names = {1: "X1", 2: "X2", 3: "X3"}
    accs = []
    for seed in (3, 4):
        _, records = _chain3_records(seed, iterations=80)
        acc = TraceAccumulator(dict(names), (1, 2))
        for rec in records:
            acc(rec)
        accs.append(acc)
    doc = summary_document(accs)
    assert doc["csv_schema_version"] == CSV_SCHEMA_VERSION == 1
    assert len(doc["chains"]) == 2
    assert doc["combined"]["iterations"] == 160
    counts = doc["combined"]["value_counts"]["X1"]
    want = {}
    for chain in doc["chains"]:
        for k, n in chain["value_counts"]["X1"].items():
            want[k] = want.get(k, 0) + n
    assert counts == want


def test_write_summary_is_deterministic_and_sorted(tmp_path):
    doc = {"b": 1, "a": {"z": 2.5, "m": [1, 2]}}
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    write_summary(p1, doc)
    write_summary(p2, doc)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.endswith(b"\n")
    text = b1.decode()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == doc
