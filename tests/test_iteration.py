import math

import numpy as np
import pytest

from triclone.cloners import apply_nonlocal_cloning
from triclone.entanglement import input_state
from triclone.iteration import clone_mixed_nonlocal, iterate
from triclone.linalg import eig_hermitian
from triclone.reference import closed_form_input_measures
from triclone.verification import random_density_matrix

GEOMETRIC_RATIO = 25.0 / 81.0

TABLE_E3 = (1.0000, 0.3086, 0.0953, 0.0294, 0.0091, 0.0028)
TABLE_E2 = (0.3333, 0.1029, 0.0318, 0.0098, 0.0030, 0.0009)


def _ghz_rho():
    return input_state(math.pi / 4).density_matrix()


class TestCloneMixed:
    def test_equals_direct_channel_on_random_states(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng)
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
        for step in trace.steps:
            m = step.rho.matrix
            for i in range(8):
                for j in range(8):
                    if i != j and (i, j) not in corner_pairs:
                        assert abs(m[i, j]) <= 1e-12

    def test_states_stay_valid(self):
        trace = iterate(math.pi / 4, 6)
        for step in trace.steps:
            m = step.rho.matrix
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

