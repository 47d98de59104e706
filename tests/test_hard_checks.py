"""The exact failure message of every internal hard check."""

import math
import traceback

import numpy as np
import pytest

from triclone import cloners, entanglement, iteration, linalg


def _nth_residual(monkeypatch, module, n, value):
    """Make the n-th ``max_abs`` call in ``module`` (1-based) return ``value``."""
    calls = []

    def patched(*arrays):
        calls.append(None)
        return value if len(calls) == n else linalg.max_abs(*arrays)

    monkeypatch.setattr(module, "max_abs", patched)


def _tensor(entries):
    """Tensor [orig, copy, machine, in] of shape (2, 2, 1, 1) with ``entries``."""
    v = np.zeros((2, 2, 1, 1), dtype=complex)
    for index, value in entries.items():
        v[index] = value
    return v


def _choi_not_hermitian(monkeypatch):
    tensor = cloners.nonlocal_isometry(2).reshape(2, 2, 2, 2)
    _nth_residual(monkeypatch, cloners, 3, 1.0)
    cloners.compile_channel(tensor)


def _choi_not_psd(monkeypatch):
    tensor = cloners.nonlocal_isometry(2).reshape(2, 2, 2, 2)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([-0.5]))
    cloners.compile_channel(tensor)


def _not_an_isometry(monkeypatch):
    _nth_residual(monkeypatch, cloners, 1, 1.0)
    cloners._isometry.__wrapped__(2)  # uncached, so no other call sees it


def _route_deviates(monkeypatch):
    rho = cloners.evaluate_states(entanglement.input_states([0.3]), ())[0]
    _nth_residual(monkeypatch, iteration, 1, 1.0)
    iteration.spectral_trajectory(rho, 1)


def _diagonal(entries):
    """8 x 8 matrix with ``entries`` on the diagonal at their indices."""
    m = np.zeros((8, 8), dtype=complex)
    for k, value in entries.items():
        m[k, k] = value
    return m


# (check, how to trip it, exception, message); each check exactly once.
CHECKS = [
    (
        "linalg.norm",
        lambda mp: linalg.check_pure_states(np.array([[2.0, 0.0]])),
        ValueError,
        "state norm 2.0 is not 1 within 1e-12",
    ),
    (
        "linalg.hermitian",
        lambda mp: linalg.check_density_matrices(np.array([[0.5, 1.0], [0.0, 0.5]])),
        ValueError,
        "matrix is not Hermitian (residual 1.000e+00)",
    ),
    (
        "linalg.trace",
        lambda mp: linalg.check_density_matrices(np.eye(2, dtype=complex)),
        ValueError,
        "trace (2+0j) is not 1 within 1e-12",
    ),
    (
        "linalg.eigenvalue_floor",
        lambda mp: linalg.check_density_matrices(np.diag([1.5, -0.5])),
        ValueError,
        "matrix is not positive semidefinite (min eigenvalue -5.000e-01)",
    ),
    (
        "linalg.eig_hermitian",
        lambda mp: linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]])),
        ValueError,
        "matrix is not Hermitian (residual 1.000e+00)",
    ),
    (
        "cloners.symmetry_gap",
        lambda mp: cloners.compile_channel(_tensor({(0, 1, 0, 0): 1.0})),
        RuntimeError,
        "original and copy maps differ by 1.000e+00; "
        "the cloner output should be symmetric",
    ),
    (
        "cloners.trace_map",
        lambda mp: cloners.compile_channel(_tensor({(0, 0, 0, 0): 2.0})),
        RuntimeError,
        "map does not preserve trace (residual 3.000e+00)",
    ),
    (
        "cloners.choi_hermitian",
        _choi_not_hermitian,
        RuntimeError,
        "Choi matrix is not Hermitian (residual 1.000e+00)",
    ),
    (
        "cloners.choi_floor",
        _choi_not_psd,
        RuntimeError,
        "Choi matrix is not positive semidefinite (min eigenvalue -5.000e-01)",
    ),
    (
        "cloners.isometry",
        _not_an_isometry,
        ValueError,
        "map is not an isometry (V+V residual 1.000e+00)",
    ),
    (
        "entanglement.coherence_norm",
        lambda mp: entanglement.correlations(_diagonal({0: 2.0})),
        ValueError,
        "coherence vector norm 2.0 exceeds 1",
    ),
    (
        "entanglement.correlation_ceiling",
        lambda mp: entanglement.correlations(_diagonal({0: 1.0, 7: 1.0})),
        ValueError,
        "correlation entry 2.0 exceeds 1",
    ),
    (
        "entanglement.measure_range",
        lambda mp: entanglement.measure_stack(_diagonal({0: 1.0, 7: 1.0})),
        ValueError,
        "E2(1, 2) value 1.3333333333333333 outside [0, 1]",
    ),
    (
        "iteration.route_agreement",
        _route_deviates,
        RuntimeError,
        "spectral-mixture route deviates from direct channel application by "
        "1.000e+00",
    ),
]


@pytest.mark.parametrize(
    "trip, error, message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS]
)
def test_each_check_fails_with_its_exact_message(monkeypatch, trip, error, message):
    with pytest.raises(error) as info:
        trip(monkeypatch)
    assert type(info.value) is error
    assert str(info.value) == message


def test_the_table_names_fourteen_distinct_checks():
    assert len({c[0] for c in CHECKS}) == len(CHECKS) == 14


def test_positivity_failure_hides_the_factorization_error():
    # The eigenvalue test is the verdict; Cholesky's LinAlgError only chose
    # to run it, so it is not shown as the failure's context.
    with pytest.raises(ValueError) as info:
        linalg.check_density_matrices(np.diag([1.5, -0.5]))
    assert info.value.__cause__ is None
    assert info.value.__suppress_context__
    assert "LinAlgError" not in "".join(traceback.format_exception(info.value))


NEGATED_FLOOR = -linalg.EIGENVALUE_FLOOR


class _Unformattable:
    def __format__(self, spec):
        raise AssertionError("formatted on success")


class _CheckError(Exception):
    pass


class TestRequire:
    """``linalg.require``, the failure rule behind every check above."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nan_and_infinite_values_fail(self, value):
        with pytest.raises(ValueError, match=f"^{value}$"):
            linalg.require(value, 1e-12, ValueError, "{}")

    @pytest.mark.parametrize("smallest", [math.nan, -math.inf])
    def test_nan_and_infinite_values_fail_a_negated_floor(self, smallest):
        with pytest.raises(ValueError, match=f"^{smallest}$"):
            linalg.require(-smallest, NEGATED_FLOOR, ValueError, "{1}", smallest)

    def test_value_at_the_bound_passes(self):
        linalg.require(1e-12, 1e-12, ValueError, "{}")
        linalg.require(NEGATED_FLOOR, NEGATED_FLOOR, ValueError, "{}")

    def test_error_class_passes_through(self):
        with pytest.raises(_CheckError) as info:
            linalg.require(2.0, 1.0, _CheckError, "{0} over {1}: {2}", "bound", "why")
        assert type(info.value) is _CheckError
        assert str(info.value) == "2.0 over bound: why"

    def test_success_formats_no_shown_argument(self):
        shown = _Unformattable()
        linalg.require(0.0, 1.0, ValueError, "{1}", shown)
        with pytest.raises(AssertionError, match="formatted on success"):
            linalg.require(2.0, 1.0, ValueError, "{1}", shown)
