import csv

import pytest

from modnet.validation import (
    CriterionResult,
    _constant_runs,
    conjugate_correctness,
    exact_reduction,
    reject_purity,
    run_all,
    trace_variation,
)


def test_result_lines_carry_the_verdict():
    ok = CriterionResult("9 demo", True, "err 0.001", "< 0.01", runtime_s=1.25)
    assert ok.verdict == "PASS"
    assert ok.line() == "criterion 9 demo: err 0.001 | bound < 0.01 | PASS (1.2s)"
    assert CriterionResult("x", False, "m", "b").verdict == "FAIL"
    assert CriterionResult("x", None, "m", "b").verdict == "SKIPPED"


def test_constant_runs_segmentation():
    assert _constant_runs([], []) == []
    assert _constant_runs(["0"], ["t"]) == [("0", 1, 1)]
    values = ["0", "0", "1", "1", "1", "0"]
    totals = ["a", "b", "c", "c", "d", "a"]
    assert _constant_runs(values, totals) == [
        ("0", 2, 2), ("1", 3, 2), ("0", 1, 1),
    ]
    assert _constant_runs(["1"] * 4, ["t"] * 4) == [("1", 4, 1)]


def _write_trace(path, pairs):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "a", "total_lw", "accepted"])
        for i, (a, total) in enumerate(pairs):
            w.writerow([i, a, total, "1"])


def test_trace_variation_verdicts(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    res = trace_variation(empty, 1)
    assert res.passed is False
    assert "no trace files" in res.measured

    good = tmp_path / "good"
    good.mkdir()
    rows = [("0", f"-{1 + i % 3}.5") for i in range(12)]
    rows += [("1", f"-{2 + i % 2}.25") for i in range(11)]
    _write_trace(good / "trace_chain0.csv", rows)
    res = trace_variation(good, 1)
    assert res.passed is True
    assert "2 constant-a runs" in res.measured

    frozen = tmp_path / "frozen"
    frozen.mkdir()
    rows = [("0", "-4.0")] * 12 + [("1", "-3.0")] * 3
    _write_trace(frozen / "trace_chain0.csv", rows)
    assert trace_variation(frozen, 1).passed is False

    stuck = tmp_path / "stuck"
    stuck.mkdir()
    rows = [("0", f"-{i}.0") for i in range(15)]
    _write_trace(stuck / "trace_chain0.csv", rows)
    res = trace_variation(stuck, 1)
    assert res.passed is False
    assert "both values visited: False" in res.measured


def test_trace_variation_reads_only_this_runs_chains(tmp_path):
    # an earlier run with more chains, of another network, left its traces
    rows = [("0", f"-{1 + i % 3}.5") for i in range(12)]
    rows += [("1", f"-{2 + i % 2}.25") for i in range(11)]
    for i in (0, 1):
        _write_trace(tmp_path / f"trace_chain{i}.csv", rows)
    with open(tmp_path / "trace_chain7.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["iteration", "z", "total_lw", "accepted"],
                                  [0, 1, "-2.5", 1]])
    res = trace_variation(tmp_path, 2)
    assert res.passed is True
    assert "4 constant-a runs" in res.measured
    assert trace_variation(tmp_path, 3).passed is False


def test_always_on_criteria_pass():
    assert exact_reduction().passed is True
    assert reject_purity().passed is True
    assert conjugate_correctness(None).passed is True


def test_fixture_drift_is_caught(oracle_fixtures):
    clean = conjugate_correctness(oracle_fixtures)
    assert clean.passed is True
    assert "fixture drift" in clean.measured
    tampered = dict(oracle_fixtures)
    tampered["posterior_switch_one"] = oracle_fixtures["posterior_switch_one"] + 1e-3
    res = conjugate_correctness(tampered)
    assert res.passed is False


def test_reduced_budget_skips_the_statistical_criteria(oracle_fixtures):
    results = run_all(fixtures=oracle_fixtures, iterations=100, chains=1)
    assert [r.name for r in results] == [
        "1 exact reduction",
        "2 unbiasedness",
        "3a chain stationarity",
        "3b app posterior",
        "4 sweep convergence",
        "5 inverse limit",
        "6 trace variation",
        "7 reject purity",
        "8 conjugate recursion",
    ]
    verdicts = {r.name: r.verdict for r in results}
    assert verdicts["1 exact reduction"] == "PASS"
    assert verdicts["7 reject purity"] == "PASS"
    assert verdicts["8 conjugate recursion"] == "PASS"
    skipped = [r for r in results if r.passed is None]
    assert len(skipped) == 6
    for r in skipped:
        assert "not run" in r.measured
        assert r.line().endswith("SKIPPED (0.0s)")


def test_full_budget_needs_both_axes(oracle_fixtures):
    # enough iterations but too few chains still counts as reduced
    results = run_all(fixtures=oracle_fixtures, iterations=60_000, chains=1)
    assert sum(1 for r in results if r.passed is None) == 6
