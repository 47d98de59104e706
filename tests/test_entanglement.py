import math
import re

import numpy as np
import pytest

from triclone import entanglement
from triclone.cloners import evaluate, local_channel, nonlocal_channel
from triclone.entanglement import (
    COMPONENT_CEILING,
    MEASURE_CEILING,
    PAIRS,
    _ALL_OPS,
    _EXPECTATION_MATRIX,
    _correlation_stack,
    correlations,
    input_states,
    measure_stack,
)
from triclone.iteration import iterate
from triclone.linalg import check_density_matrices, kron_all
from triclone.reference import closed_form_input_measures
from triclone.verification import (
    random_density_matrices,
    random_product_states,
    random_unitaries,
)

ALPHAS = (0.0, 0.3, math.pi / 8, math.pi / 4, 1.1, math.pi / 2)


def _rho(alpha):
    """Projector (8, 8) of the two-corner input at ``alpha``."""
    psi = input_states([alpha])[0]
    return np.outer(psi, psi.conj())


def _local(rho):
    out = local_channel().map(rho)
    check_density_matrices(out)
    return out


def _nonlocal(rho):
    out = nonlocal_channel().map(rho)
    check_density_matrices(out)
    return out


def _measures(rho):
    """E3, the E2 row (3,) and M2 (3, 3, 3) in ``PAIRS`` order, and M3 of one state."""
    e3, e2, m2, m3 = measure_stack(rho[None])
    return e3[0], e2[0], m2[0], m3[0]


def _diagonal_state(weights):
    """Validated diagonal three-qubit state with the given weights on basis kets."""
    diag = np.zeros(8)
    for ket, weight in weights.items():
        diag[ket] = weight
    rho = np.diag(diag).astype(complex)
    check_density_matrices(rho)
    return rho


class TestPauliOperators:
    def test_trace_orthogonality(self):
        # Tr(O_k O_l) = 8 delta_kl over all 63 operators of the stack.
        gram = np.einsum("kpq,lqp->kl", _ALL_OPS, _ALL_OPS)
        assert np.max(np.abs(gram - 8.0 * np.eye(63))) <= 1e-14

    def test_third_operator_sign(self):
        # diag(-1, +1): |000> has lambda_3 = -1 exactly on every qubit,
        # which pins the sign convention of the whole triple.
        lam, _, _ = correlations(_rho(0.0))
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
        for outputs in grid[0][1:]:
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
        psis = input_states([0.0])
        assert psis.shape == (1, 8)
        assert np.allclose(psis[0], np.eye(8)[0], atol=1e-14)

    def test_balanced_state(self):
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / math.sqrt(2)
        assert np.allclose(input_states([math.pi / 4])[0], expected, atol=1e-14)

    def test_unit_norm_for_all_alpha(self):
        psis = input_states(np.linspace(-2.0, 5.0, 23).tolist())
        assert psis.shape == (23, 8)
        assert np.max(np.abs(np.linalg.norm(psis, axis=1) - 1.0)) <= 1e-12

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be finite"):
                input_states([0.3, bad])

    @pytest.mark.parametrize(
        "run, alphas",
        [
            (evaluate, ["0.1"]),
            (evaluate, [[0.1, 0.2]]),
            (lambda alphas: iterate(alphas[0], 1), ["0.3"]),
        ],
        ids=["evaluate-string", "evaluate-nested", "iterate-string"],
    )
    def test_callers_leave_angles_to_input_states(self, run, alphas):
        # No caller converts the angles first, so a string or a nested
        # sequence fails as it does in ``input_states`` itself.
        with pytest.raises(TypeError) as expected:
            input_states(alphas)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            run(alphas)


class TestCoherenceVector:
    def test_input_family(self):
        for alpha in ALPHAS:
            lam = correlations(_rho(alpha))[0]
            expected = [0.0, 0.0, -math.cos(2 * alpha)]
            assert np.max(np.abs(lam - expected)) <= 1e-12

    def test_local_clone_output(self):
        for alpha in (0.3, 1.0):
            lam = correlations(_local(_rho(alpha)))[0]
            for value in lam[:, 2]:
                assert value == pytest.approx(
                    -(2.0 / 3.0) * math.cos(2 * alpha), abs=1e-12
                )

    def test_maximally_mixed(self):
        assert np.max(np.abs(correlations(np.eye(8) / 8)[0])) <= 1e-14

    def test_rejects_wrong_dims(self):
        for rhos in (np.eye(4) / 4, np.ones((2, 32)) / 32, np.eye(16)[None] / 16):
            with pytest.raises(ValueError, match="three-qubit"):
                correlations(rhos)
            with pytest.raises(ValueError, match="three-qubit"):
                measure_stack(rhos)

    def test_stack_members_equal_single_calls(self):
        stack = np.stack([_rho(alpha) for alpha in ALPHAS])
        lam, k2, k3 = correlations(stack)
        assert lam.shape == (len(ALPHAS), 3, 3)
        assert k2.shape == k3.shape == (len(ALPHAS), 3, 3, 3)
        for i, alpha in enumerate(ALPHAS):
            one = correlations(stack[i])
            assert all(np.array_equal(a[i], b) for a, b in zip((lam, k2, k3), one))


class TestPairCorrelation:
    def test_input_family_is_pure_zz(self):
        expected = np.zeros((3, 3))
        expected[2, 2] = 1.0
        for alpha in ALPHAS:
            k2 = correlations(_rho(alpha))[1]
            assert np.max(np.abs(k2 - expected)) <= 1e-12

    def test_nonlocal_clone_output(self):
        k2 = correlations(_nonlocal(_rho(0.7)))[1]
        for value in k2[:, 2, 2]:
            assert value == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_product_state_factorizes(self, rng):
        # Distinct coherence vectors per qubit, so this also pins the
        # QUBITS row order and the PAIRS slab order.
        lam, k2, _ = correlations(random_product_states(rng, 1)[0])
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
        with pytest.raises(ValueError, match="correlation entry"):
            correlations(np.stack([_rho(0.3), rho]))
        measure_stack(rho)

    def test_nan_stack_is_rejected(self, monkeypatch):
        stack = np.full((1, 8, 8), np.nan)
        with pytest.raises(ValueError, match="coherence vector norm nan exceeds 1"):
            correlations(stack)
        with pytest.raises(ValueError, match="coherence vector norm nan exceeds 1"):
            measure_stack(stack)
        # With the norm check out of the way, the entry check still rejects it.
        monkeypatch.setattr(entanglement, "_check_norms", lambda lams: None)
        with pytest.raises(ValueError, match="correlation entry nan exceeds 1"):
            correlations(stack)


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
        assert np.max(np.abs(correlations(np.eye(8) / 8)[2])) <= 1e-14

    def test_local_clone_components(self):
        # The (3,3,3) component comes out negative: the sign is forced by
        # consistency with the coherence vector and the (3,3,3) tensor
        # component, and the channel output is the source of truth.
        for alpha in (0.3, 1.0):
            s, c = math.sin(2 * alpha), math.cos(2 * alpha)
            k = correlations(_local(_rho(alpha)))[2]
            assert k[2, 2, 2] == pytest.approx(-(8.0 / 27.0) * c, abs=1e-12)
            assert k[0, 0, 0] == pytest.approx((8.0 / 27.0) * s, abs=1e-12)
            for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
                assert k[idx] == pytest.approx(-(8.0 / 27.0) * s, abs=1e-12)


class TestEntanglementTensors:
    def test_input_family_full_tensors(self):
        for alpha in ALPHAS:
            s, c = math.sin(2 * alpha), math.cos(2 * alpha)
            _, _, m2, m3 = _measures(_rho(alpha))
            expected_m3 = np.zeros((3, 3, 3))
            expected_m3[0, 0, 0] = s
            expected_m3[0, 1, 1] = expected_m3[1, 0, 1] = expected_m3[1, 1, 0] = -s
            expected_m3[2, 2, 2] = 2.0 * s * s * c
            assert np.max(np.abs(m3 - expected_m3)) <= 1e-12
            expected_m2 = np.zeros((3, 3))
            expected_m2[2, 2] = s * s
            assert np.max(np.abs(m2 - expected_m2)) <= 1e-12

    def test_nonlocal_clone_m333(self):
        for alpha in (0.2, 0.9):
            c = math.cos(2 * alpha)
            m333 = _measures(_nonlocal(_rho(alpha)))[3][2, 2, 2]
            expected = (10.0 / 27.0) * (1.0 - (25.0 / 27.0) * c * c) * c
            assert m333 == pytest.approx(expected, abs=1e-12)

    def test_product_states_vanish(self, rng):
        _, _, m2, m3 = measure_stack(random_product_states(rng, 5))
        assert np.max(np.abs(m3)) <= 1e-12
        assert np.max(np.abs(m2)) <= 1e-12

    def test_recomputation_from_correlations(self, rng):
        # The stored tensors are exactly the correlation/coherence
        # combination, for an arbitrary mixed state.
        rho = random_density_matrices(rng, 1)[0]
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
        _, _, got_m2, got_m3 = _measures(rho)
        assert np.max(np.abs(got_m3 - m3)) <= 1e-12
        assert np.max(np.abs(got_m2 - np.stack([m2[p] for p in PAIRS]))) <= 1e-12


class TestMeasures:
    def test_balanced_state_is_maximal(self):
        e3, e2, _, _ = _measures(_rho(math.pi / 4))
        assert e3 == pytest.approx(1.0, abs=1e-12)
        for value in e2:
            assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_corner_state_is_zero(self):
        e3, e2, _, _ = _measures(_rho(0.0))
        assert e3 <= 1e-12
        assert max(e2) <= 1e-12

    def test_local_clone_of_balanced_state(self):
        e3, e2, _, _ = _measures(_local(_rho(math.pi / 4)))
        assert e3 == pytest.approx(64.0 / 729.0, abs=1e-12)
        for value in e2:
            assert value == pytest.approx(16.0 / 243.0, abs=1e-12)

    def test_closed_form_agreement_on_grid(self):
        alphas = np.linspace(0.0, math.pi / 2, 201)
        psis = input_states(alphas.tolist())
        e3, e2, _, _ = measure_stack(psis[:, :, None] * psis[:, None, :].conj())
        cf = np.array([closed_form_input_measures(a) for a in alphas])
        assert np.max(np.abs(e3 - cf[:, 0])) <= 1e-12
        assert np.max(np.abs(e2 - cf[:, 1:2])) <= 1e-12

    def test_closed_form_at_pi_over_8(self):
        e3, e2 = closed_form_input_measures(math.pi / 8)
        assert e3 == pytest.approx(0.625, abs=1e-14)
        assert e2 == pytest.approx(1.0 / 12.0, abs=1e-14)

    def test_local_unitary_invariance(self, rng):
        random_state = random_density_matrices(rng, 1)[0]
        states = [_rho(math.pi / 4), _rho(0.5), random_state]
        for trial in range(10):
            rho = states[trial % len(states)]
            u = kron_all(random_unitaries(rng, 3))
            rotated = u @ rho @ u.conj().T
            check_density_matrices(rotated)
            e3, e2, _, _ = measure_stack(np.stack([rho, rotated]))
            assert abs(e3[0] - e3[1]) <= 1e-10
            assert np.max(np.abs(e2[0] - e2[1])) <= 1e-10

    def test_permutation_symmetric_states_have_equal_pairs(self):
        for alpha in (0.4, math.pi / 4):
            rho = _rho(alpha)
            _, e2, _, _ = measure_stack(np.stack([rho, _local(rho), _nonlocal(rho)]))
            assert np.max(np.ptp(e2, axis=1)) <= 1e-12

    def test_range_on_random_states(self, rng):
        e3, e2, _, _ = measure_stack(random_density_matrices(rng, 1000))
        assert np.all((0.0 <= e3) & (e3 <= 1.0 + 1e-10))
        assert np.all((0.0 <= e2) & (e2 <= 1.0 + 1e-10))

    def test_product_states_have_zero_measures(self, rng):
        e3, e2, _, _ = measure_stack(random_product_states(rng, 20))
        assert np.max(e3) <= 1e-12
        assert np.max(e2) <= 1e-12


class TestMeasureStack:
    def test_rows_equal_single_state_measures(self, rng):
        # Each row of a stack equals a stack of that state alone, bit for bit.
        states = np.concatenate([random_density_matrices(rng, 6), _rho(0.7)[None]])
        e3, e2, m2, m3 = measure_stack(states)
        for i in range(len(states)):
            one_e3, one_e2, one_m2, one_m3 = measure_stack(states[i : i + 1])
            assert e3[i] == one_e3[0]
            assert e2[i].tolist() == one_e2[0].tolist()
            assert np.array_equal(m3[i], one_m3[0])
            assert np.array_equal(m2[i], one_m2[0])

    @pytest.mark.parametrize("size", [0.5, 2.0])
    def test_e3_ceiling_matches_the_report(self, size):
        # Scaling the balanced projector by c gives E3 = c^2 and zero
        # coherence vectors, so only the E3 range check can fire.
        c = math.sqrt(1.0 + size * (MEASURE_CEILING - 1.0))
        stack = np.stack([_rho(0.3), c * _rho(math.pi / 4)])
        if size < 1.0:
            e3, *_ = measure_stack(stack)
            assert e3[1] == pytest.approx(c * c, abs=1e-15)
            return
        with pytest.raises(ValueError, match="E3 value"):
            measure_stack(stack)
        with pytest.raises(ValueError, match="E3 value"):
            measure_stack(stack[1])

    @pytest.mark.parametrize("size", [0.5, 2.0])
    def test_e2_ceiling_names_the_pair(self, size):
        # I/2 x |Phi+><Phi+| on qubits 2-3 scaled by c has zero coherence
        # vectors, E3 = 0 and E2 = (0, c^2, 0), so only the E2 range check
        # of pair (2, 3) can fire.
        phi = np.array([1, 0, 0, 1]) / math.sqrt(2)
        c = math.sqrt(1.0 + size * (MEASURE_CEILING - 1.0))
        rho = c * kron_all([np.eye(2) / 2, np.outer(phi, phi)])
        stack = np.stack([_rho(0.3), rho])
        if size < 1.0:
            e3, e2, *_ = measure_stack(stack)
            assert e3[1] == pytest.approx(0.0, abs=1e-15)
            assert e2[1] == pytest.approx([0.0, c * c, 0.0], abs=1e-15)
            return
        message = re.escape("E2(2, 3) value 1.0000000001999996 outside [0, 1]")
        with pytest.raises(ValueError, match=message):
            measure_stack(stack)
        with pytest.raises(ValueError, match=message):
            measure_stack(stack[1])

    @pytest.mark.parametrize("size", [0.5, 2.0])
    def test_coherence_ceiling_matches_the_vector(self, size):
        # A negative weight within EIGENVALUE_FLOOR on |100> stretches the
        # first coherence vector to 1 + size * (COMPONENT_CEILING - 1); the
        # stack and the coherence vectors of ``correlations`` agree.
        eps = 0.5 * size * (COMPONENT_CEILING - 1.0)
        rho = _diagonal_state({0b000: 1.0 + eps, 0b100: -eps})
        stack = np.stack([_rho(0.3), rho])
        if size < 1.0:
            measure_stack(stack)
            correlations(rho)
            return
        with pytest.raises(ValueError, match="coherence vector norm"):
            measure_stack(stack)
        with pytest.raises(ValueError, match="coherence vector norm"):
            correlations(rho)

    @pytest.mark.parametrize("shape", [(0, 8, 8), (2, 0, 8, 8)], ids=str)
    @pytest.mark.parametrize(
        "function", [measure_stack, correlations], ids=lambda f: f.__name__
    )
    def test_empty_stacks(self, function, shape):
        # Like the validators and the channel map, both take a stack with no
        # members and return empty results with the usual trailing shapes.
        lead = shape[:-2]
        trailing = {
            measure_stack: [(), (3,), (3, 3, 3), (3, 3, 3)],
            correlations: [(3, 3), (3, 3, 3), (3, 3, 3)],
        }[function]
        results = function(np.zeros(shape, dtype=complex))
        assert [r.shape for r in results] == [lead + t for t in trailing]
