import math

import numpy as np
import pytest

from triclone import iteration
from triclone.cli import main
from triclone.cloners import apply_nonlocal_cloning, nonlocal_channel
from triclone.entanglement import input_state, measures
from triclone.iteration import (
    EIGENVALUE_CUTOFF,
    clone_mixed_nonlocal,
    clone_mixed_stack,
    iterate,
)
from triclone.linalg import DensityMatrix, eig_hermitian
from triclone.reference import closed_form_input_measures
from triclone.verification import random_density_matrices

GEOMETRIC_RATIO = 25.0 / 81.0

TABLE_E3 = (1.0000, 0.3086, 0.0953, 0.0294, 0.0091, 0.0028)
TABLE_E2 = (0.3333, 0.1029, 0.0318, 0.0098, 0.0030, 0.0009)


def _ghz_rho():
    return input_state(math.pi / 4).density_matrix()


class TestCloneMixed:
    def test_equals_direct_channel_on_random_states(self, rng):
        for matrix in random_density_matrices(rng, 5):
            rho = DensityMatrix((2, 2, 2), matrix)
            mixed_route = clone_mixed_nonlocal(rho).matrix
            direct = apply_nonlocal_cloning(rho).matrix
            assert np.max(np.abs(mixed_route - direct)) <= 1e-12

    def test_first_step_spectral_structure(self):
        rho1 = clone_mixed_nonlocal(_ghz_rho())
        values, vectors = eig_hermitian(rho1.matrix)
        expected = np.array([11.0 / 18.0] + [1.0 / 18.0] * 7)
        assert np.max(np.abs(values - expected)) <= 1e-12
        ghz = input_state(math.pi / 4).amplitudes
        overlap = abs(np.vdot(ghz, vectors[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_second_step_entries(self):
        rho2 = clone_mixed_nonlocal(clone_mixed_nonlocal(_ghz_rho())).matrix
        assert rho2[0, 0].real == pytest.approx(13.0 / 54.0, abs=1e-12)
        assert rho2[7, 7].real == pytest.approx(13.0 / 54.0, abs=1e-12)
        assert rho2[0, 7].real == pytest.approx(25.0 / 162.0, abs=1e-12)
        for k in range(1, 7):
            assert rho2[k, k].real == pytest.approx(7.0 / 81.0, abs=1e-12)


def _per_state_route(rho):
    """The spectral route one state at a time, as a reference for the kernel."""
    values, vectors = np.linalg.eigh(rho)
    weights, vectors = values[::-1], vectors[:, ::-1]
    kept = weights > EIGENVALUE_CUTOFF
    columns = vectors[:, kept].T
    outputs = nonlocal_channel().map(columns[:, :, None] * columns[:, None, :].conj())
    mixed = np.zeros_like(rho)
    for weight, output in zip(weights[kept], outputs):
        mixed = mixed + weight * output
    return mixed


def _mixed_rank_stack(rng):
    """16 states of rank 8, 1 and 2, so rows keep different eigenvector counts."""
    full = random_density_matrices(rng, 6)
    pure = [input_state(a).density_matrix().matrix for a in (0.0, 0.3, 0.7, 1.2)]
    rank_two = []
    for _ in range(4):
        a = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        a /= np.linalg.norm(a, axis=1)[:, None]
        p = rng.uniform(0.2, 0.8)
        rank_two.append(
            p * np.outer(a[0], a[0].conj()) + (1 - p) * np.outer(a[1], a[1].conj())
        )
    ghz_out = apply_nonlocal_cloning(_ghz_rho()).matrix
    return np.stack([*full[:3], *pure, *rank_two, ghz_out, *full[3:], pure[2]])


class TestCloneMixedStack:
    def test_equals_per_state_route_bit_for_bit(self, rng):
        stack = _mixed_rank_stack(rng)
        kept = np.sum(np.linalg.eigvalsh(stack) > EIGENVALUE_CUTOFF, axis=-1)
        assert set(kept.tolist()) == {1, 2, 8}
        mixed = clone_mixed_stack(stack)
        for k, rho in enumerate(stack):
            assert np.array_equal(mixed[k], _per_state_route(rho))
            assert np.array_equal(
                mixed[k], clone_mixed_nonlocal(DensityMatrix((2, 2, 2), rho)).matrix
            )

    def test_pure_stack_keeps_one_eigenvector(self):
        stack = np.stack(
            [input_state(a).density_matrix().matrix for a in (0.1, 0.5, 0.9)]
        )
        mixed = clone_mixed_stack(stack)
        for k, rho in enumerate(stack):
            assert np.array_equal(mixed[k], _per_state_route(rho))

    def test_random_full_rank_stack(self, rng):
        stack = random_density_matrices(rng, 16)
        mixed = clone_mixed_stack(stack)
        for k, rho in enumerate(stack):
            assert np.array_equal(mixed[k], _per_state_route(rho))


class TestIterate:
    def test_reproduces_decay_table(self):
        trace = iterate(math.pi / 4, 6)
        for k in range(6):
            assert trace.steps[k].e3 == pytest.approx(TABLE_E3[k], abs=5e-5)
            assert trace.steps[k].e2 == pytest.approx(TABLE_E2[k], abs=5e-5)

    def test_second_step_closed_form(self):
        trace = iterate(math.pi / 4, 2)
        assert trace.steps[2].e3 == pytest.approx(GEOMETRIC_RATIO**2, abs=1e-12)
        assert trace.steps[2].e2 == pytest.approx(
            GEOMETRIC_RATIO**2 / 3.0, abs=1e-12
        )

    def test_decay_is_exactly_geometric_for_balanced_input(self):
        trace = iterate(math.pi / 4, 6)
        for step in trace.steps:
            assert step.e3 == pytest.approx(GEOMETRIC_RATIO**step.step, abs=1e-12)
            assert step.e2 == pytest.approx(
                GEOMETRIC_RATIO**step.step / 3.0, abs=1e-12
            )

    def test_strictly_monotone_decay(self):
        trace = iterate(math.pi / 4, 6)
        e3 = [s.e3 for s in trace.steps]
        e2 = [s.e2 for s in trace.steps]
        assert all(a > b for a, b in zip(e3, e3[1:]))
        assert all(a > b for a, b in zip(e2, e2[1:]))

    def test_support_pattern_is_preserved(self):
        # Every iterate keeps the two corner coherences plus a diagonal;
        # nothing else appears.
        trace = iterate(math.pi / 4, 4)
        corner_pairs = {(0, 7), (7, 0)}
        for m in trace.states:
            for i in range(8):
                for j in range(8):
                    if i != j and (i, j) not in corner_pairs:
                        assert abs(m[i, j]) <= 1e-12

    def test_states_stay_valid(self):
        trace = iterate(math.pi / 4, 6)
        for m in trace.states:
            assert abs(np.trace(m).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(m)[0] >= -1e-10

    def test_step_zero_matches_input_closed_form(self):
        alpha = 0.6
        trace = iterate(alpha, 1)
        e3, e2 = closed_form_input_measures(alpha)
        assert trace.steps[0].e3 == pytest.approx(e3, abs=1e-12)
        assert trace.steps[0].e2 == pytest.approx(e2, abs=1e-12)

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            iterate(math.pi / 4, 0)
        with pytest.raises(ValueError):
            iterate(math.pi / 4, 13)

    def test_states_are_the_read_only_chain_of_single_clones(self):
        trace = iterate(0.7, 12)
        assert trace.states.shape == (13, 8, 8)
        assert not trace.states.flags.writeable
        with pytest.raises(ValueError):
            trace.states[1, 0, 0] = 0.0
        rho = input_state(0.7).density_matrix()
        assert np.array_equal(trace.states[0], rho.matrix)
        for k in range(1, 13):
            rho = clone_mixed_nonlocal(rho)
            assert np.array_equal(trace.states[k], rho.matrix)

    def test_measures_come_from_the_states(self):
        trace = iterate(0.7, 12)
        assert [s.step for s in trace.steps] == list(range(13))
        for step, m in zip(trace.steps, trace.states):
            report = measures(DensityMatrix((2, 2, 2), m))
            assert step.e3 == report.e3
            assert step.e2 == report.e2[(1, 2)]


class TestTrajectoryCertificate:
    """``iterate`` certifies the whole trajectory once, after the last step."""

    def test_checks_run_per_trace_not_per_step(self, monkeypatch):
        seen = []
        check = iteration.check_density_matrices

        def recording(matrices):
            seen.append(np.array(matrices))
            check(matrices)

        monkeypatch.setattr(iteration, "check_density_matrices", recording)
        iterate(0.7, 1)
        one_step = len(seen)
        seen.clear()
        trace = iterate(0.7, 12)
        assert len(seen) == one_step
        # The last two checks are the direct outputs and the cloned states.
        direct, cloned = seen[-2:]
        assert np.array_equal(direct, nonlocal_channel().map(trace.states[:-1]))
        assert np.array_equal(cloned, trace.states[1:])
        assert len(direct) == len(cloned) == 12

    def test_dropped_eigenvectors_fail_the_route_check(self, monkeypatch, capsys):
        # Step 1 clones a pure state; step 2 would drop the 1/18 eigenvectors
        # of its output, so its mixture misses 7/18 of the trace.
        monkeypatch.setattr(iteration, "EIGENVALUE_CUTOFF", 0.5)
        with pytest.raises(RuntimeError, match="spectral-mixture route"):
            iterate(math.pi / 4, 2)
        with pytest.raises(RuntimeError, match="spectral-mixture route"):
            iterate(math.pi / 4, 6)
        assert main(["iterate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal check failed:")
        assert "spectral-mixture route" in err
