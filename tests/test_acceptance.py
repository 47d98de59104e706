"""Acceptance suite: one test per verification criterion.

Each test prints a PASS/FAIL line with the measured residuals and then
asserts.  The same check implementations back ``triclone verify``, so the
CLI report and this module cannot disagree.
"""

from triclone import verification as v
from triclone.cli import DEFAULT_SEED


def _report(index, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{index:2d}/10] {status}  {result.name}: {result.detail}")
    return result


def test_criterion_01_input_state_closed_forms(grid):
    result = _report(1, v.check_input_closed_forms(grid))
    assert result.passed, result.detail


def test_criterion_02_local_cloning_oracle(grid):
    result = _report(2, v.check_local_oracle(grid))
    assert result.passed, result.detail


def test_criterion_03_nonlocal_cloning_oracle(grid):
    result = _report(3, v.check_nonlocal_oracle(grid))
    assert result.passed, result.detail


def test_criterion_04_closed_form_measure_curves(grid):
    result = _report(4, v.check_measure_curves(grid))
    assert result.passed, result.detail


def test_criterion_05_fidelities(grid):
    result = _report(5, v.check_fidelities(grid))
    assert result.passed, result.detail


def test_criterion_06_e2_amplification_window():
    # The pinned reference boundaries cannot both be crossings of the
    # implemented curves: any crossing pair must satisfy lo^2 + hi^2 = 1
    # and the reference pair does not.  The check reports the measured
    # roots and fails; see the known-discrepancy note in the README.
    result = _report(6, v.check_amplification_window())
    assert result.passed, result.detail


def test_criterion_07_iterated_cloning_decay():
    result = _report(7, v.check_iteration_decay())
    assert result.passed, result.detail


def test_criterion_08_channel_properties():
    result = _report(8, v.check_channel_properties(DEFAULT_SEED))
    assert result.passed, result.detail


def test_criterion_09_measure_properties():
    result = _report(9, v.check_measure_properties(DEFAULT_SEED))
    assert result.passed, result.detail


def test_criterion_10_sweep_determinism():
    result = _report(10, v.check_sweep_determinism())
    assert result.passed, result.detail
