"""The acceptance battery, one test per numbered criterion.

Each test prints its criterion's verdict line (even without -s) and fails
with that same line if the bound is not met. The four-chain application run
is executed once and shared by the two criteria that read it. Its chains,
and criterion 2's four module groups, run on a process pool of up to four
workers; pooled chains and groups give the same numbers as serial ones, so
the verdict does not depend on the machine's core count.
"""

import os

import pytest

from modnet import validation


@pytest.fixture(scope="module")
def app_run(oracle_fixtures, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("acceptance_chains")
    res = validation.app_posterior(oracle_fixtures, out_dir,
                                   workers=min(4, os.cpu_count() or 1))
    return res, out_dir


def _report(res, capsys):
    with capsys.disabled():
        print(flush=True)
        print(res.line(), flush=True)
    assert res.passed, res.line()


def test_criterion_1_exact_reduction(capsys):
    _report(validation.exact_reduction(), capsys)


def test_criterion_2_unbiasedness(oracle_fixtures, capsys):
    _report(validation.unbiasedness(oracle_fixtures,
                                    workers=min(4, os.cpu_count() or 1)), capsys)


def test_criterion_3a_chain_stationarity(capsys):
    _report(validation.chain3_posterior(), capsys)


def test_criterion_3b_app_posterior(app_run, capsys):
    res, _out_dir = app_run
    _report(res, capsys)


def test_criterion_4_sweep_convergence(capsys):
    _report(validation.sweep_convergence(), capsys)


def test_criterion_5_inverse_limit(capsys):
    _report(validation.inverse_limit(), capsys)


def test_criterion_6_trace_variation(app_run, capsys):
    _res, out_dir = app_run
    _report(validation.trace_variation(out_dir, validation.FULL_CHAINS), capsys)


def test_criterion_7_reject_purity(capsys):
    _report(validation.reject_purity(), capsys)


def test_criterion_8_conjugate_recursion(capsys):
    _report(validation.conjugate_correctness(), capsys)
