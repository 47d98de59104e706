import math
import re

import numpy as np
import pytest

from triclone.linalg import (
    EIGENVALUE_FLOOR,
    HERMITIAN_ATOL,
    NORM_ATOL,
    PSD_CERTIFICATE_MARGIN,
    TRACE_ATOL,
    check_density_matrices,
    check_pure_states,
    eig_hermitian,
    fidelities,
    kron_all,
    max_abs,
)
from triclone.cloners import nonlocal_isometry
from triclone.entanglement import input_states
from triclone.verification import GRID_ALPHAS

from partial_trace import partial_trace_matrix


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def _random_density(rng, n):
    """Validated full-rank n x n density matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    check_density_matrices(m)
    return m


def _projector(amplitudes):
    a = np.asarray(amplitudes, dtype=complex)
    return np.outer(a, a.conj())


class TestKron:
    def test_identity_times_identity(self):
        assert np.max(np.abs(kron_all([np.eye(2), np.eye(2)]) - np.eye(4))) <= 1e-14

    def test_basis_ordering_first_factor_most_significant(self):
        e0 = np.array([[1.0], [0.0]])
        e1 = np.array([[0.0], [1.0]])
        out = kron_all([e0, e1]).reshape(-1)
        # |0> x |1> = |01>, index 1 of the 4-dim space
        assert np.allclose(out, [0, 1, 0, 0], atol=1e-14)

    def test_block_structure(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = kron_all([a, b])
        assert out.shape == (6, 6)
        assert np.max(np.abs(out[:3, :3] - a[0, 0] * b)) <= 1e-14
        assert np.max(np.abs(out[3:, :3] - a[1, 0] * b)) <= 1e-14

    def test_associativity(self, rng):
        mats = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)
        ]
        left = kron_all([kron_all(mats[:2]), mats[2]])
        right = kron_all([mats[0], kron_all(mats[1:])])
        assert np.max(np.abs(left - right)) <= 1e-14

    def test_matches_np_kron_on_matrices(self, rng):
        # The (8, 2) qubit cloner, as the local register takes it, and
        # non-square random factors.
        v = nonlocal_isometry(2)
        assert np.array_equal(kron_all([v, v, v]), np.kron(np.kron(v, v), v))
        a, b, c = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((2, 3), (3, 1), (1, 4))
        )
        assert np.array_equal(kron_all([a, b, c]), np.kron(np.kron(a, b), c))
        assert np.array_equal(kron_all([a]), a)

    def test_stack_members_equal_per_member_products(self, rng):
        a, b = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((5, 2, 2), (5, 3, 2))
        )
        c = rng.standard_normal((2, 2))
        out = kron_all([a, b, c])
        assert out.shape == (5, 12, 8)
        for k in range(5):
            assert np.array_equal(out[k], np.kron(np.kron(a[k], b[k]), c))

    @pytest.mark.parametrize("factors", [[], iter(())], ids=["list", "iterator"])
    def test_rejects_no_factor(self, factors):
        with pytest.raises(ValueError, match="kron_all needs at least one factor"):
            kron_all(factors)


class TestPureState:
    """``check_pure_states`` on a single amplitude vector."""

    def test_norm_validation(self):
        with pytest.raises(ValueError, match="state norm"):
            check_pure_states(np.array([1.0, 1.0], dtype=complex))


class TestDensityMatrix:
    """``check_density_matrices`` on a single matrix."""

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrices(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrices(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            check_density_matrices(m)

    @pytest.mark.parametrize("shape", [(8, 7), (8,), (), (0, 8, 7), (2, 1, 8)])
    def test_rejects_non_square_shapes_of_any_stack_size(self, shape):
        message = re.escape(f"expected a square matrix, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            check_density_matrices(np.zeros(shape, dtype=complex))


def _skew(m, size):
    m[0, 1] += size * HERMITIAN_ATOL


def _shift_trace(m, size):
    m[0, 0] += size * TRACE_ATOL


def _negative_eigenvalue(m, size):
    m[:] = np.diag([1.0 - size * EIGENVALUE_FLOOR, size * EIGENVALUE_FLOOR] + [0.0] * 6)


class TestCheckDensityMatrices:
    @pytest.mark.parametrize(
        "perturb, message",
        [
            (_skew, "Hermitian"),
            (_shift_trace, "trace"),
            (_negative_eigenvalue, "semidefinite"),
        ],
    )
    def test_one_bad_member_is_rejected_at_the_single_state_tolerance(
        self, rng, perturb, message
    ):
        stack = np.stack([_random_density(rng, 8) for _ in range(4)])
        check_density_matrices(stack)
        inside = stack.copy()
        perturb(inside[2], 0.5)
        check_density_matrices(inside)
        check_density_matrices(inside[2])
        outside = stack.copy()
        perturb(outside[2], 2.0)
        with pytest.raises(ValueError, match=message):
            check_density_matrices(outside)
        with pytest.raises(ValueError, match=message):
            check_density_matrices(outside[2])

    def test_empty_stack_passes(self):
        check_density_matrices(np.zeros((0, 8, 8), dtype=complex))


def _eigvalsh_verdict(matrices):
    """Positivity verdict of the eigenvalue test alone: None or the message."""
    smallest = np.linalg.eigvalsh(matrices)[..., 0].min()
    if smallest < EIGENVALUE_FLOOR:
        return f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})"
    return None


def _verdict(matrices):
    try:
        check_density_matrices(matrices)
    except ValueError as exc:
        return str(exc)
    return None


def _with_min_eigenvalue(rng, smallest, rotate):
    """Unit-trace Hermitian 8 x 8 matrix whose lowest eigenvalue is ``smallest``."""
    rest = rng.uniform(0.1, 1.0, 7)
    values = np.concatenate([[smallest], rest * (1.0 - smallest) / rest.sum()])
    if not rotate:
        return np.diag(values).astype(complex)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    m = (q * values) @ q.conj().T
    return 0.5 * (m + m.conj().T)


class TestPsdCertificate:
    """The Cholesky certificate decides exactly as the eigenvalue test."""

    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3, 1 - 1e-6, 1 + 1e-6])
    def test_edge_of_the_floor(self, rng, factor, rotate):
        verdicts = set()
        for _ in range(20):
            stack = np.stack([_random_density(rng, 8) for _ in range(4)])
            stack[1] = _with_min_eigenvalue(rng, factor * EIGENVALUE_FLOOR, rotate)
            expected = _eigvalsh_verdict(stack)
            assert _verdict(stack) == expected
            assert _verdict(stack[1]) == _eigvalsh_verdict(stack[1])
            verdicts.add(expected is None)
        if abs(factor - 1.0) > 1e-4:
            # 1e-13 from the floor is far above rounding: the verdict is the
            # side the spectrum was put on.
            assert verdicts == {factor < 1.0}

    def test_grid_stacks(self, grid):
        psis = input_states(GRID_ALPHAS.tolist())
        rho_in = psis[:, :, None] * psis[:, None, :].conj()
        states = grid[0]
        assert np.array_equal(states[0], rho_in)
        for stack in states:
            assert _eigvalsh_verdict(stack) is None
            assert _verdict(stack) is None

    def test_rank_one_projectors(self, rng):
        columns = np.stack([_random_amplitudes(rng) for _ in range(128)])
        stack = columns[:, :, None] * columns[:, None, :].conj()
        assert _eigvalsh_verdict(stack) is None
        assert _verdict(stack) is None

    def test_accept_path_runs_no_eigenvalue_solver(self, rng, monkeypatch):
        stack = np.stack([_random_density(rng, 8) for _ in range(16)])

        def forbidden(_):
            raise AssertionError("eigvalsh called on a certified stack")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        check_density_matrices(stack)


def _previous_verdict(matrices):
    """Verdict of the validator as it was before it used one work buffer."""
    herm = max_abs(matrices - matrices.conj().swapaxes(-1, -2))
    if not herm <= HERMITIAN_ATOL:
        return f"matrix is not Hermitian (residual {herm:.3e})"
    tr = np.trace(matrices, axis1=-2, axis2=-1).ravel()
    off = np.abs(tr - 1.0)
    if not off.max() <= TRACE_ATOL:
        return f"trace {tr[off.argmax()]} is not 1 within {TRACE_ATOL}"
    shift = (-EIGENVALUE_FLOOR - PSD_CERTIFICATE_MARGIN) * np.eye(matrices.shape[-1])
    try:
        np.linalg.cholesky(matrices + shift)
    except np.linalg.LinAlgError:
        return _eigvalsh_verdict(matrices)
    return None


class TestHermitianResidual:
    """The one-buffer residual decides as the previous form, message and all."""

    @pytest.mark.parametrize("part, passes", [(0.8e-12, False), (0.7e-12, True)])
    def test_near_miss_uses_the_complex_modulus(self, rng, part, passes):
        # |Re| = |Im| = part, so |z| = sqrt(2) part: 1.13e-12 fails and
        # 0.99e-12 passes, though each part alone is under the tolerance.
        stack = np.stack([_random_density(rng, 8) for _ in range(4)])
        stack[2, 0, 1] += part * (1 + 1j)
        expected = _previous_verdict(stack)
        assert (expected is None) == passes
        assert _verdict(stack) == expected
        if not passes:
            assert expected == "matrix is not Hermitian (residual 1.131e-12)"

    def test_random_perturbations_match_the_previous_form(self, rng):
        verdicts = set()
        for _ in range(200):
            stack = np.stack([_random_density(rng, 8) for _ in range(3)])
            k, i, j = rng.integers(3), rng.integers(8), rng.integers(8)
            size = rng.uniform(0.3, 1.7) * HERMITIAN_ATOL
            stack[k, i, j] += size * np.exp(2j * np.pi * rng.uniform())
            if rng.uniform() < 0.25:
                stack[rng.integers(3)] = _with_min_eigenvalue(
                    rng, rng.uniform(0.5, 1.5) * EIGENVALUE_FLOOR, rotate=True
                )
            expected = _previous_verdict(stack)
            assert _verdict(stack) == expected
            verdicts.add(expected and expected.split(" (")[0])
        # Both sides of the Hermitian test and the positivity test are reached.
        assert {
            None,
            "matrix is not Hermitian",
            "matrix is not positive semidefinite",
        } <= verdicts

    @pytest.mark.parametrize("dtype", [float, int])
    def test_real_input(self, dtype):
        for diagonal in ([1, 0], [2, -1]):
            m = np.diag(diagonal).astype(dtype)
            assert _verdict(m) == _previous_verdict(m)
        m = np.array([[1, 1], [0, 0]], dtype=dtype)
        assert _verdict(m) == _previous_verdict(m) == (
            "matrix is not Hermitian (residual 1.000e+00)"
        )

    @pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
    def test_wide_input_reports_its_residual(self, dtype):
        # The residual keeps the input's wide dtype; its modulus is read as
        # such, not as pairs of 8-byte floats.
        m = np.array([[0.5, 1], [0, 0.5]], dtype=dtype)
        assert _verdict(m) == _previous_verdict(m) == (
            "matrix is not Hermitian (residual 1.000e+00)"
        )
        if dtype is np.clongdouble:
            m[0, 1] = m[1, 0] = 0.5j
            assert _verdict(m) == _previous_verdict(m) == (
                "matrix is not Hermitian (residual 1.000e+00)"
            )


def _random_amplitudes(rng):
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return a / np.linalg.norm(a)


class TestCheckPureStates:
    def test_empty_stack_passes(self):
        check_pure_states(np.zeros((0, 8), dtype=complex))

    @pytest.mark.parametrize("size", [0.5, 2.0])
    def test_one_off_norm_member_at_the_single_state_tolerance(self, rng, size):
        stack = np.stack([_random_amplitudes(rng) for _ in range(4)])
        check_pure_states(stack)
        stack[2] *= 1.0 + size * NORM_ATOL
        if size < 1.0:
            check_pure_states(stack)
            check_pure_states(stack[2])
            return
        with pytest.raises(ValueError, match="state norm"):
            check_pure_states(stack)
        with pytest.raises(ValueError, match="state norm"):
            check_pure_states(stack[2])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_one_non_finite_member_is_rejected(self, rng, bad):
        stack = np.stack([_random_amplitudes(rng) for _ in range(4)])
        stack[2, 5] = bad
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            check_pure_states(stack)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            check_pure_states(stack[2])

    @pytest.mark.parametrize(
        "amplitudes", [np.array(1.0 + 0j), 1.0], ids=["0-d", "float"]
    )
    def test_rejects_input_without_an_amplitude_axis(self, amplitudes):
        message = re.escape("expected amplitudes (..., d), got shape ()")
        with pytest.raises(ValueError, match=message):
            check_pure_states(amplitudes)


class TestMaxAbs:
    def test_largest_absolute_entry_over_all_arrays(self):
        arrays = (np.array([1.0, -3.0]), np.array([[2j, 0.5]]), [-2.5])
        assert max_abs(*arrays) == 3.0
        assert max_abs(3 - 4j) == 5.0

    @pytest.mark.parametrize("position", range(3))
    def test_a_nan_in_any_array_gives_nan(self, position):
        arrays = [np.zeros(2), np.full((2, 2), -4.0 + 0j), np.ones(3)]
        arrays[position][-1] = np.nan
        assert math.isnan(max_abs(*arrays))

    @pytest.mark.parametrize("shapes", [[(0,)], [(0, 8, 8), (3, 0)]])
    def test_empty_stacks_give_zero(self, shapes):
        value = max_abs(*(np.zeros(shape, dtype=complex) for shape in shapes))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestPartialTrace:
    def test_product_state(self):
        rho = _projector([1.0, 0.0, 0.0, 0.0])
        reduced = partial_trace_matrix(rho, (2, 2), [0])
        assert np.allclose(reduced, [[1, 0], [0, 0]], atol=1e-14)

    def test_bell_state_is_maximally_mixed(self):
        rho = _projector(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
        reduced = partial_trace_matrix(rho, (2, 2), [0])
        assert np.max(np.abs(reduced - np.eye(2) / 2)) <= 1e-14

    def test_trace_preserved(self, rng):
        rho = _random_density(rng, 8)
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            reduced = partial_trace_matrix(rho, (2, 2, 2), keep)
            assert abs(np.trace(reduced) - 1.0) <= 1e-12

    def test_composition(self, rng):
        # Tracing out the middle qubit and then the last equals tracing
        # out both at once.
        rho = _random_density(rng, 8)
        outer = partial_trace_matrix(rho, (2, 2, 2), [0, 2])
        two_step = partial_trace_matrix(outer, (2, 2), [0])
        one_step = partial_trace_matrix(rho, (2, 2, 2), [0])
        assert np.max(np.abs(two_step - one_step)) <= 1e-12

    def test_keep_order_is_original_order(self, rng):
        rho = _random_density(rng, 8)
        a = partial_trace_matrix(rho, (2, 2, 2), (2, 0))
        b = partial_trace_matrix(rho, (2, 2, 2), (0, 2))
        assert np.max(np.abs(a - b)) == 0.0

    def test_bad_index_raises(self, rng):
        rho = _random_density(rng, 4)
        with pytest.raises(ValueError):
            partial_trace_matrix(rho, (2, 2), [2])
        with pytest.raises(ValueError):
            partial_trace_matrix(rho, (2, 2), [])


class TestEigHermitian:
    def test_descending_order(self):
        values, vectors = eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(values, [3.0, 2.0, 1.0], atol=1e-14)
        assert np.allclose(np.abs(vectors[:, 0]), [1, 0, 0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self, rng):
        h = _random_hermitian(rng, 8)
        values, vectors = eig_hermitian(h)
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(rebuilt - h)) <= 1e-10
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10

    def test_density_eigenvalues_sum_to_one(self, rng):
        values, _ = eig_hermitian(_random_density(rng, 8))
        assert abs(values.sum() - 1.0) <= 1e-10

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match=re.escape("got shape (8, 7)")):
            eig_hermitian(np.zeros((8, 7), dtype=complex))

    def test_rejects_non_hermitian(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(g)

    def test_stack_equals_per_matrix_calls(self, rng):
        stack = np.stack([_random_density(rng, 8) for _ in range(32)])
        values, vectors = eig_hermitian(stack)
        assert values.shape == (32, 8) and vectors.shape == (32, 8, 8)
        for k, h in enumerate(stack):
            one_values, one_vectors = eig_hermitian(h)
            assert np.array_equal(values[k], one_values)
            assert np.array_equal(vectors[k], one_vectors)
        assert np.all(np.diff(values, axis=-1) <= 0.0)

    def test_empty_stack(self):
        values, vectors = eig_hermitian(np.zeros((0, 8, 8), dtype=complex))
        assert values.shape == (0, 8) and vectors.shape == (0, 8, 8)

    def test_rejects_nan_input(self):
        # NaN compares false with the tolerance, so the check must not pass it
        # on to eigh, which would fail with LinAlgError instead.
        stack = np.full((2, 8, 8), np.nan)
        for h in (stack[0], stack):
            with pytest.raises(ValueError, match=r"not Hermitian \(residual nan\)"):
                eig_hermitian(h)

    def test_stack_rejects_one_non_hermitian_member(self, rng):
        stack = np.stack([_random_hermitian(rng, 4) for _ in range(3)])
        stack[1, 0, 1] += 2.0 * HERMITIAN_ATOL
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(stack)


class TestFidelityPure:
    """``fidelities`` on stacks of amplitudes and matrices."""

    def test_self_fidelity_is_one(self, rng):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = v / np.linalg.norm(v)
        value = fidelities(psi[None], _projector(psi)[None])[0]
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_state_is_zero(self):
        psi = np.eye(8, dtype=complex)[:1]
        rho = _projector(np.eye(8)[7])[None]
        assert fidelities(psi, rho)[0] == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_rho(self, rng):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = (v / np.linalg.norm(v))[None]
        rho1 = _random_density(rng, 8)
        rho2 = _random_density(rng, 8)
        p = 0.37
        mixed = p * rho1 + (1 - p) * rho2
        check_density_matrices(mixed)
        f1, f2, f_mixed = (fidelities(psi, r[None])[0] for r in (rho1, rho2, mixed))
        assert f_mixed == pytest.approx(p * f1 + (1 - p) * f2, abs=1e-12)

    def test_dimension_mismatch_raises(self, rng):
        psi = np.array([[1.0, 0.0]], dtype=complex)
        rho = _random_density(rng, 4)[None]
        with pytest.raises(ValueError, match="mismatch"):
            fidelities(psi, rho)
        with pytest.raises(ValueError, match="mismatch"):
            fidelities(np.eye(4, dtype=complex)[:1], np.stack([rho[0]] * 3))

    def test_rejects_amplitudes_without_one_stack_axis(self):
        psi = input_states([0.3])
        rho = psi[:, :, None] * psi[:, None, :].conj()
        for psis, rhos in [(psi[0], rho[0]), (psi[None], rho[None])]:
            message = re.escape(f"expected amplitudes (n, d), got shape {psis.shape}")
            with pytest.raises(ValueError, match=message):
                fidelities(psis, rhos)

    def test_rejects_nan_input(self):
        # NaN compares false with the tolerance, so the guard is written to
        # reject anything not shown to be within it.
        psi = np.full((1, 8), np.nan, dtype=complex)
        rho = np.full((1, 8, 8), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="non-real value"):
            fidelities(psi, rho)
