import math

import numpy as np
import pytest

from triclone.cloners import apply_local_cloning, apply_nonlocal_cloning
from triclone.entanglement import (
    COMPONENT_CEILING,
    MEASURE_CEILING,
    PAIRS,
    _ALL_OPS,
    _EXPECTATION_MATRIX,
    EntanglementReport,
    _correlation_stack,
    correlations,
    input_state,
    measure_stack,
    measures,
)
from triclone.linalg import DensityMatrix, kron_all
from triclone.reference import closed_form_input_measures
from triclone.verification import (
    random_density_matrices,
    random_product_states,
    random_unitaries,
)

ALPHAS = (0.0, 0.3, math.pi / 8, math.pi / 4, 1.1, math.pi / 2)


def _rho(alpha):
    return input_state(alpha).density_matrix()


def _state(matrix):
    return DensityMatrix((2, 2, 2), matrix)


def _diagonal_state(weights):
    """Diagonal three-qubit state with the given weights on basis kets."""
    diag = np.zeros(8)
    for ket, weight in weights.items():
        diag[ket] = weight
    return DensityMatrix((2, 2, 2), np.diag(diag))


class TestPauliOperators:
    def test_trace_orthogonality(self):
        # Tr(O_k O_l) = 8 delta_kl over all 63 operators of the stack.
        gram = np.einsum("kpq,lqp->kl", _ALL_OPS, _ALL_OPS)
        assert np.max(np.abs(gram - 8.0 * np.eye(63))) <= 1e-14

    def test_third_operator_sign(self):
        # diag(-1, +1): |000> has lambda_3 = -1 exactly on every qubit,
        # which pins the sign convention of the whole triple.
        lam, _, _ = correlations(input_state(0.0).density_matrix())
        assert (lam[:, 2] == -1).all()

    def test_first_operator_flips(self):
        # The stack starts with the flip on qubit 1, the most significant.
        e000, e100 = np.eye(8)[0b000], np.eye(8)[0b100]
        assert np.allclose(_ALL_OPS[0] @ e000, e100, atol=1e-14)


def _einsum_expectations(rhos):
    """Reference kernel: Tr(rho O_k) for all 63 operators as one einsum."""
    return np.einsum("...pq,kqp->...k", rhos, _ALL_OPS).real


def _flat_correlation_stack(rhos):
    """``_correlation_stack`` flattened back into the 9/27/27 operator order."""
    shape = rhos.shape[:-2]
    parts = [t.reshape(shape + (-1,)) for t in _correlation_stack(rhos)]
    return np.concatenate(parts, axis=-1)


class TestExpectationKernel:
    # The kernel is a BLAS matrix product, which promises no summation
    # order; these tests are what holds it to the einsum's bits.
    def test_equals_the_einsum_on_random_states(self):
        rng = np.random.default_rng(2024)
        rhos = random_density_matrices(rng, 500)
        assert (_flat_correlation_stack(rhos) == _einsum_expectations(rhos)).all()

    def test_equals_the_einsum_on_both_channel_outputs(self, grid):
        for outputs in (grid.local_out, grid.nonlocal_out):
            assert len(outputs) == 201
            values = _flat_correlation_stack(outputs)
            assert (values == _einsum_expectations(outputs)).all()

    def test_rows_of_a_stack_equal_a_stack_of_one(self):
        rng = np.random.default_rng(2025)
        rhos = random_density_matrices(rng, 128)
        values = _flat_correlation_stack(rhos)
        for i in range(len(rhos)):
            assert (values[i] == _flat_correlation_stack(rhos[i : i + 1])[0]).all()

    def test_matrix_is_read_only(self):
        with pytest.raises(ValueError):
            _EXPECTATION_MATRIX[0, 0] = 0.0


class TestInputState:
    def test_alpha_zero_is_first_corner(self):
        psi = input_state(0.0)
        assert np.allclose(psi.amplitudes, np.eye(8)[0], atol=1e-14)

    def test_balanced_state(self):
        psi = input_state(math.pi / 4)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / math.sqrt(2)
        assert np.allclose(psi.amplitudes, expected, atol=1e-14)

    def test_unit_norm_for_all_alpha(self):
        for alpha in np.linspace(-2.0, 5.0, 23):
            psi = input_state(alpha)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            input_state(float("nan"))


class TestCoherenceVector:
    def test_input_family(self):
        for alpha in ALPHAS:
            lam = correlations(_rho(alpha))[0]
            expected = [0.0, 0.0, -math.cos(2 * alpha)]
            assert np.max(np.abs(lam - expected)) <= 1e-12

    def test_local_clone_output(self):
        for alpha in (0.3, 1.0):
            lam = correlations(apply_local_cloning(_rho(alpha)))[0]
            for value in lam[:, 2]:
                assert value == pytest.approx(
                    -(2.0 / 3.0) * math.cos(2 * alpha), abs=1e-12
                )

    def test_maximally_mixed(self):
        rho = DensityMatrix((2, 2, 2), np.eye(8) / 8)
        assert np.max(np.abs(correlations(rho)[0])) <= 1e-14

    def test_rejects_wrong_dims(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        with pytest.raises(ValueError, match="three-qubit"):
            correlations(rho)


class TestPairCorrelation:
    def test_input_family_is_pure_zz(self):
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        for alpha in ALPHAS:
            k2 = correlations(_rho(alpha))[1]
            assert np.max(np.abs(k2 - expected)) <= 1e-12

    def test_nonlocal_clone_output(self):
        k2 = correlations(apply_nonlocal_cloning(_rho(0.7)))[1]
        for value in k2[:, 2, 2]:
            assert value == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_product_state_factorizes(self, rng):
        # Distinct coherence vectors per qubit, so this also pins the
        # QUBITS row order and the PAIRS slab order.
        lam, k2, _ = correlations(_state(random_product_states(rng, 1)[0]))
        for i, (m, n) in enumerate(PAIRS):
            outer = np.outer(lam[m - 1], lam[n - 1])
            assert np.max(np.abs(k2[i] - outer)) <= 1e-12

    def test_entry_ceiling_on_a_valid_state(self):
        # Negative weights within EIGENVALUE_FLOOR push K2_zz(1,2) to
        # 1 + 8e-11 while every coherence vector stays zero.
        w = 2e-11
        rho = _diagonal_state(
            {0b000: 0.5 + w, 0b111: 0.5 + w, 0b010: -w, 0b101: -w}
        )
        with pytest.raises(ValueError, match="correlation entry"):
            correlations(rho)
        measures(rho)


class TestTripleCorrelation:
    def test_input_family_components(self):
        for alpha in ALPHAS:
            k = correlations(_rho(alpha))[2]
            s, c = math.sin(2 * alpha), math.cos(2 * alpha)
            assert k[0, 0, 0] == pytest.approx(s, abs=1e-12)
            assert k[2, 2, 2] == pytest.approx(-c, abs=1e-12)
            for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
                assert k[idx] == pytest.approx(-s, abs=1e-12)

    def test_maximally_mixed_vanishes(self):
        rho = DensityMatrix((2, 2, 2), np.eye(8) / 8)
        assert np.max(np.abs(correlations(rho)[2])) <= 1e-14

    def test_local_clone_components(self):
        # The (3,3,3) component comes out negative: the sign is forced by
        # consistency with the coherence vector and the (3,3,3) tensor
        # component, and the channel output is the source of truth.
        for alpha in (0.3, 1.0):
            s, c = math.sin(2 * alpha), math.cos(2 * alpha)
            out = apply_local_cloning(_rho(alpha))
            k = correlations(out)[2]
            assert k[2, 2, 2] == pytest.approx(-(8.0 / 27.0) * c, abs=1e-12)
            assert k[0, 0, 0] == pytest.approx((8.0 / 27.0) * s, abs=1e-12)
            for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
                assert k[idx] == pytest.approx(-(8.0 / 27.0) * s, abs=1e-12)


class TestEntanglementTensors:
    def test_input_family_full_tensors(self):
        for alpha in ALPHAS:
            s, c = math.sin(2 * alpha), math.cos(2 * alpha)
            tensors = measures(_rho(alpha))
            expected_m3 = np.zeros((3, 3, 3))
            expected_m3[0, 0, 0] = s
            expected_m3[0, 1, 1] = expected_m3[1, 0, 1] = expected_m3[1, 1, 0] = -s
            expected_m3[2, 2, 2] = 2.0 * s * s * c
            assert np.max(np.abs(tensors.m3 - expected_m3)) <= 1e-12
            expected_m2 = np.zeros((3, 3))
            expected_m2[2, 2] = s * s
            for pair in PAIRS:
                assert np.max(np.abs(tensors.m2[pair] - expected_m2)) <= 1e-12

    def test_nonlocal_clone_m333(self):
        for alpha in (0.2, 0.9):
            c = math.cos(2 * alpha)
            out = apply_nonlocal_cloning(_rho(alpha))
            m333 = measures(out).m3[2, 2, 2]
            expected = (10.0 / 27.0) * (1.0 - (25.0 / 27.0) * c * c) * c
            assert m333 == pytest.approx(expected, abs=1e-12)

    def test_product_states_vanish(self, rng):
        for matrix in random_product_states(rng, 5):
            tensors = measures(_state(matrix))
            assert np.max(np.abs(tensors.m3)) <= 1e-12
            for pair in PAIRS:
                assert np.max(np.abs(tensors.m2[pair])) <= 1e-12

    def test_recomputation_from_correlations(self, rng):
        # The stored tensors are exactly the correlation/coherence
        # combination, for an arbitrary mixed state.
        rho = _state(random_density_matrices(rng, 1)[0])
        rows, slabs, k3 = correlations(rho)
        lam = {m: rows[m - 1] for m in (1, 2, 3)}
        k2 = dict(zip(PAIRS, slabs))
        m2 = {pair: k2[pair] - np.outer(lam[pair[0]], lam[pair[1]]) for pair in PAIRS}
        m3 = (
            k3
            - np.einsum("i,jk->ijk", lam[1], m2[(2, 3)])
            - np.einsum("j,ik->ijk", lam[2], m2[(1, 3)])
            - np.einsum("k,ij->ijk", lam[3], m2[(1, 2)])
            - np.einsum("i,j,k->ijk", lam[1], lam[2], lam[3])
        )
        tensors = measures(rho)
        assert np.max(np.abs(tensors.m3 - m3)) <= 1e-12
        for pair in PAIRS:
            assert np.max(np.abs(tensors.m2[pair] - m2[pair])) <= 1e-12


class TestMeasures:
    def test_balanced_state_is_maximal(self):
        report = measures(_rho(math.pi / 4))
        assert report.e3 == pytest.approx(1.0, abs=1e-12)
        for pair in PAIRS:
            assert report.e2[pair] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_corner_state_is_zero(self):
        report = measures(_rho(0.0))
        assert report.e3 <= 1e-12
        assert max(report.e2.values()) <= 1e-12

    def test_local_clone_of_balanced_state(self):
        report = measures(apply_local_cloning(_rho(math.pi / 4)))
        assert report.e3 == pytest.approx(64.0 / 729.0, abs=1e-12)
        for pair in PAIRS:
            assert report.e2[pair] == pytest.approx(16.0 / 243.0, abs=1e-12)

    def test_closed_form_agreement_on_grid(self):
        worst = 0.0
        for alpha in np.linspace(0.0, math.pi / 2, 201):
            report = measures(_rho(alpha))
            e3, e2 = closed_form_input_measures(alpha)
            worst = max(worst, abs(report.e3 - e3))
            worst = max(worst, *(abs(report.e2[p] - e2) for p in PAIRS))
        assert worst <= 1e-12

    def test_closed_form_at_pi_over_8(self):
        e3, e2 = closed_form_input_measures(math.pi / 8)
        assert e3 == pytest.approx(0.625, abs=1e-14)
        assert e2 == pytest.approx(1.0 / 12.0, abs=1e-14)

    def test_local_unitary_invariance(self, rng):
        random_state = _state(random_density_matrices(rng, 1)[0])
        states = [_rho(math.pi / 4), _rho(0.5), random_state]
        for trial in range(10):
            rho = states[trial % len(states)]
            u = kron_all(random_unitaries(rng, 3))
            rotated = DensityMatrix((2, 2, 2), u @ rho.matrix @ u.conj().T)
            before, after = measures(rho), measures(rotated)
            assert abs(before.e3 - after.e3) <= 1e-10
            for pair in PAIRS:
                assert abs(before.e2[pair] - after.e2[pair]) <= 1e-10

    def test_permutation_symmetric_states_have_equal_pairs(self):
        for alpha in (0.4, math.pi / 4):
            for rho in (
                _rho(alpha),
                apply_local_cloning(_rho(alpha)),
                apply_nonlocal_cloning(_rho(alpha)),
            ):
                e2 = measures(rho).e2
                values = [e2[p] for p in PAIRS]
                assert max(values) - min(values) <= 1e-12

    def test_range_on_random_states(self, rng):
        for matrix in random_density_matrices(rng, 1000):
            report = measures(_state(matrix))
            assert 0.0 <= report.e3 <= 1.0 + 1e-10
            for pair in PAIRS:
                assert 0.0 <= report.e2[pair] <= 1.0 + 1e-10

    def test_product_states_have_zero_measures(self, rng):
        for matrix in random_product_states(rng, 20):
            report = measures(_state(matrix))
            assert report.e3 <= 1e-12
            assert max(report.e2.values()) <= 1e-12


class TestMeasureStack:
    def test_rows_equal_single_state_measures(self, rng):
        states = [_state(m) for m in random_density_matrices(rng, 6)] + [_rho(0.7)]
        e3, e2, *_ = measure_stack(np.stack([rho.matrix for rho in states]))
        for i, rho in enumerate(states):
            report = measures(rho)
            assert e3[i] == report.e3
            assert e2[i].tolist() == [report.e2[p] for p in PAIRS]

    @pytest.mark.parametrize("size", [0.5, 2.0])
    def test_e3_ceiling_matches_the_report(self, size):
        # Scaling the balanced projector by c gives E3 = c^2 and zero
        # coherence vectors, so only the E3 range check can fire.
        c = math.sqrt(1.0 + size * (MEASURE_CEILING - 1.0))
        stack = np.stack([_rho(0.3).matrix, c * _rho(math.pi / 4).matrix])
        if size < 1.0:
            e3, *_ = measure_stack(stack)
            EntanglementReport(e3=float(e3[1]), e2={}, m2={}, m3=None)
            return
        with pytest.raises(ValueError, match="E3 value"):
            measure_stack(stack)
        with pytest.raises(ValueError, match="E3 value"):
            EntanglementReport(e3=c * c, e2={}, m2={}, m3=None)

    @pytest.mark.parametrize("size", [0.5, 2.0])
    def test_coherence_ceiling_matches_the_vector(self, size):
        # A negative weight within EIGENVALUE_FLOOR on |100> stretches the
        # first coherence vector to 1 + size * (COMPONENT_CEILING - 1); the
        # stack and the coherence vectors of ``correlations`` agree.
        eps = 0.5 * size * (COMPONENT_CEILING - 1.0)
        rho = _diagonal_state({0b000: 1.0 + eps, 0b100: -eps})
        stack = np.stack([_rho(0.3).matrix, rho.matrix])
        if size < 1.0:
            measure_stack(stack)
            correlations(rho)
            return
        with pytest.raises(ValueError, match="coherence vector norm"):
            measure_stack(stack)
        with pytest.raises(ValueError, match="coherence vector norm"):
            correlations(rho)
