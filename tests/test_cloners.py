import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from triclone import cloners
from triclone.cloners import (
    CROSSING_BRACKET,
    MAX_CLONER_DIMENSION,
    OUTPUT_SYMMETRY_ATOL,
    compile_channel,
    e2_gaps,
    evaluate,
    evaluate_states,
    find_e2_crossings,
    local_channel,
    nonlocal_channel,
    nonlocal_isometry,
)
from triclone.entanglement import input_states, measure_stack
from triclone.linalg import (
    EIGENVALUE_FLOOR,
    HERMITIAN_ATOL,
    TRACE_ATOL,
    check_density_matrices,
    eig_hermitian,
    fidelities,
    kron_all,
)
from triclone.reference import (
    closed_form_input_measures,
    closed_form_local_measures,
    closed_form_local_outputs,
    closed_form_nonlocal_measures,
    closed_form_nonlocal_outputs,
    fidelity_local,
    fidelity_nonlocal,
)
from triclone.verification import GRID_ALPHAS, random_density_matrices

from partial_trace import partial_trace_matrix

GRID = np.linspace(0.0, math.pi / 2, 41)

# Analytic crossing points of the pairwise-measure curves: the squared
# boundary in cos(2*alpha) is 9/14, so cos(alpha) = sqrt((1 +/- 3/sqrt(14))/2).
CROSSING_LO = math.sqrt((1.0 - 3.0 / math.sqrt(14.0)) / 2.0)
CROSSING_HI = math.sqrt((1.0 + 3.0 / math.sqrt(14.0)) / 2.0)


def _inputs(alphas):
    """Projectors (n, 8, 8) of the two-corner inputs at ``alphas``."""
    psis = input_states(alphas)
    return psis[:, :, None] * psis[:, None, :].conj()


def _rho(alpha):
    return _inputs([alpha])[0]


def _clone(channel, rhos):
    """Validated outputs of a compiled channel for inputs (..., 8, 8)."""
    out = channel().map(rhos)
    check_density_matrices(out)
    return out


def _random_rank(rng, rank):
    """Random three-qubit density matrix of the given rank."""
    g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _test_states(rng):
    """Pure, rank-2 and full-rank random states, two-corner states and I/8."""
    states = [_random_rank(rng, rank) for rank in (1, 1, 1, 2, 2, 2, 8, 8, 8)]
    states += list(_inputs([0.0, 0.3, math.pi / 4]))
    states.append(np.eye(8, dtype=complex) / 8)
    stack = np.stack(states)
    check_density_matrices(stack)
    return stack


# The 512-dimensional path: V rho V+ on original x copy x machine, then
# a partial trace per output side.  Reference only; the channels use the
# compiled superoperators.
REFERENCE_PATHS = {
    "local": (
        local_channel,
        lambda: kron_all([nonlocal_isometry(2)] * 3),
        (2,) * 9,
        (0, 3, 6),
        (1, 4, 7),
    ),
    "nonlocal": (
        nonlocal_channel,
        lambda: nonlocal_isometry(8),
        (8, 8, 8),
        (0,),
        (1,),
    ),
}


def _reference_outputs(v, dims, keep_originals, keep_copies, rho):
    joint = v @ rho @ v.conj().T
    return (
        partial_trace_matrix(joint, dims, keep_originals),
        partial_trace_matrix(joint, dims, keep_copies),
    )


def _depolarize_each_qubit(matrix, shrink):
    """Apply rho -> shrink*rho + (1 - shrink)*Tr_q(rho) (x) I/2 to each qubit q."""
    t = matrix.reshape((2,) * 6)
    for q in range(3):
        reduced = np.trace(t, axis1=q, axis2=q + 3)
        refilled = np.multiply.outer(reduced, np.eye(2) / 2)
        refilled = np.moveaxis(refilled, (4, 5), (q, q + 3))
        t = shrink * t + (1.0 - shrink) * refilled
    return t.reshape(8, 8)


class TestLocalIsometry:
    # The local scheme's qubit cloner is the n = 2 universal cloner.
    def test_is_isometry(self):
        v = nonlocal_isometry(2)
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-12

    def test_machine_is_a_qubit(self):
        assert nonlocal_isometry(2).shape == (8, 2)

    def test_column_amplitudes(self):
        # |0> -> sqrt(2/3)|00,up> + sqrt(1/6)(|10> + |01>)|down> and |1> ->
        # sqrt(2/3)|11,down> + sqrt(1/6)(|10> + |01>)|up>, the machine kets
        # up/down stored as indices 0/1 of (orig, copy, machine).
        v = nonlocal_isometry(2)
        s23, s16 = math.sqrt(2 / 3), math.sqrt(1 / 6)
        expected = np.zeros((8, 2))
        expected[0b000, 0] = s23
        expected[0b101, 0] = expected[0b011, 0] = s16
        expected[0b111, 1] = s23
        expected[0b100, 1] = expected[0b010, 1] = s16
        assert np.max(np.abs(v - expected)) <= 1e-14

    def test_copy_fidelity_five_sixths(self):
        v = nonlocal_isometry(2)
        for ket in (0, 1):
            out = v[:, ket]
            joint = np.outer(out, out.conj())
            copy = partial_trace_matrix(joint, (2, 2, 2), (1,))
            assert copy[ket, ket].real == pytest.approx(5.0 / 6.0, abs=1e-12)


class TestNonlocalIsometry:
    def test_coefficients_for_register_cloner(self):
        v = nonlocal_isometry(8)
        assert v.shape == (512, 8)
        column = v[:, 3].reshape(8, 8, 8)
        assert column[3, 3, 3].real ** 2 == pytest.approx(2.0 / 9.0, abs=1e-14)
        assert column[3, 5, 5].real ** 2 == pytest.approx(1.0 / 18.0, abs=1e-14)
        assert column[5, 3, 5].real ** 2 == pytest.approx(1.0 / 18.0, abs=1e-14)

    def test_is_isometry(self):
        v = nonlocal_isometry(8)
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-12

    def test_column_normalization_identity(self):
        for n in (2, 3, 8, 11):
            c2 = 2.0 / (n + 1)
            d2 = 1.0 / (2.0 * (n + 1))
            assert c2 + 2 * (n - 1) * d2 == pytest.approx(1.0, abs=1e-15)

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            nonlocal_isometry(1)

    @pytest.mark.parametrize("n", [8.5, 8.0, "8", True])
    def test_rejects_non_integral_dimension(self, n):
        # The value is rejected before the cache learns a key for it.
        size = nonlocal_isometry.cache_info().currsize
        with pytest.raises(ValueError, match=f"must be an integer, got {n!r}"):
            nonlocal_isometry(n)
        assert nonlocal_isometry.cache_info().currsize == size

    def test_accepts_numpy_integers(self):
        for n in (2, 8):
            assert nonlocal_isometry(np.int64(n)) is nonlocal_isometry(n)

    @pytest.mark.parametrize("n", [MAX_CLONER_DIMENSION + 1, 10**6])
    def test_rejects_large_dimension_before_allocating(self, n):
        # The (n, n, n, n) build is never started and the cache learns no key.
        size = nonlocal_isometry.cache_info().currsize
        message = f"between 2 and {MAX_CLONER_DIMENSION}, got {n}"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                nonlocal_isometry(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert nonlocal_isometry.cache_info().currsize == size

    def test_builds_at_the_dimension_bound(self):
        n = MAX_CLONER_DIMENSION
        v = nonlocal_isometry(n)
        assert v.shape == (n**3, n)
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 8])
    def test_cached_isometry_is_read_only(self, n):
        v = nonlocal_isometry(n)
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0] = 0.0
        assert nonlocal_isometry(n) is v


class TestLocalChannel:
    def test_corner_entries(self):
        for alpha in (0.3, math.pi / 4, 1.2):
            sa, ca = math.sin(alpha), math.cos(alpha)
            out = _clone(local_channel, _rho(alpha))
            assert out[0, 0].real == pytest.approx(
                (1 + 124 * ca * ca) / 216, abs=1e-12
            )
            assert out[7, 7].real == pytest.approx(
                (1 + 124 * sa * sa) / 216, abs=1e-12
            )
            assert out[7, 0].real == pytest.approx(8 * sa * ca / 27, abs=1e-12)
            assert out[6, 6].real == pytest.approx((5 + 20 * sa * sa) / 216, abs=1e-12)
            assert out[1, 1].real == pytest.approx((5 + 20 * ca * ca) / 216, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        sim = _clone(local_channel, _inputs(GRID.tolist()))
        assert np.max(np.abs(sim - closed_form_local_outputs(GRID))) <= 1e-12

    def test_rejects_wrong_dims(self):
        for rhos in (np.eye(4) / 4, np.ones((2, 32)) / 32):
            for channel in (local_channel, nonlocal_channel):
                with pytest.raises(ValueError, match="three-qubit"):
                    channel().map(rhos)


class TestNonlocalChannel:
    def test_corner_and_single_entries(self):
        for alpha in (0.25, math.pi / 4, 1.3):
            sa, ca = math.sin(alpha), math.cos(alpha)
            out = _clone(nonlocal_channel, _rho(alpha))
            assert out[0, 0].real == pytest.approx((1 + 10 * ca * ca) / 18, abs=1e-12)
            assert out[7, 0].real == pytest.approx(5 * sa * ca / 9, abs=1e-12)
            for k in range(1, 7):
                assert out[k, k].real == pytest.approx(1.0 / 18.0, abs=1e-12)

    def test_matches_closed_form_on_grid(self):
        sim = _clone(nonlocal_channel, _inputs(GRID.tolist()))
        assert np.max(np.abs(sim - closed_form_nonlocal_outputs(GRID))) <= 1e-12


class TestChannelProperties:
    def test_outputs_are_valid_density_matrices(self, rng):
        rhos = random_density_matrices(rng, 10)
        for channel in (local_channel, nonlocal_channel):
            out = _clone(channel, rhos)
            assert np.max(np.abs(np.trace(out, axis1=1, axis2=2).real - 1.0)) <= 1e-12
            assert np.max(np.abs(out - out.conj().swapaxes(1, 2))) <= 1e-12
            assert np.min(np.linalg.eigvalsh(out)[:, 0]) >= -1e-10

    def test_linearity(self, rng):
        for _ in range(5):
            rho1, rho2 = random_density_matrices(rng, 2)
            p = float(rng.uniform(0.1, 0.9))
            mixed = p * rho1 + (1 - p) * rho2
            check_density_matrices(mixed)
            for channel in (local_channel, nonlocal_channel):
                direct, out1, out2 = _clone(channel, np.stack([mixed, rho1, rho2]))
                combined = p * out1 + (1 - p) * out2
                assert np.max(np.abs(direct - combined)) <= 1e-12


class TestCompiledChannels:
    @pytest.mark.parametrize("name", sorted(REFERENCE_PATHS))
    def test_matches_the_joint_state_path(self, name, rng):
        channel, isometry, dims, keep_orig, keep_copy = REFERENCE_PATHS[name]
        v = isometry()
        for rho in _test_states(rng):
            out = _clone(channel, rho)
            originals, copies = _reference_outputs(v, dims, keep_orig, keep_copy, rho)
            assert np.max(np.abs(out - originals)) <= 1e-14
            assert np.max(np.abs(out - copies)) <= 1e-14

    def test_nonlocal_output_is_the_werner_shrink(self, rng):
        # Werner's optimal 1 -> 2 cloner of an 8-dimensional system shrinks
        # toward I/8 by (d + 2) / (2(d + 1)) = 5/9.
        for rho in _test_states(rng):
            expected = (5.0 / 9.0) * rho + (4.0 / 9.0) * np.eye(8) / 8.0
            out = _clone(nonlocal_channel, rho)
            assert np.max(np.abs(out - expected)) <= 1e-12

    def test_local_output_is_a_per_qubit_buzek_hillery_shrink(self, rng):
        # The Buzek-Hillery qubit cloner shrinks each qubit's Bloch vector
        # by 2/3; three independent cloners act as a product of such maps.
        for rho in _test_states(rng):
            expected = _depolarize_each_qubit(rho, 2.0 / 3.0)
            out = _clone(local_channel, rho)
            assert np.max(np.abs(out - expected)) <= 1e-12

    def test_local_cloning_scales_e2_and_e3_by_powers_of_the_shrink(self):
        # Each qubit's shrink 2/3 scales a pair correlation by (2/3)^2 and a
        # three-qubit one by (2/3)^3; E2 and E3 are quadratic in them.  So
        # local cloning keeps 16/81 of E2 but only 64/729 of E3, on any state.
        rng = np.random.default_rng(7)
        g = rng.standard_normal((2, 300, 8))
        psis = g[0] + 1j * g[1]
        psis /= np.linalg.norm(psis, axis=1)[:, None]
        pure = psis[:, :, None] * psis[:, None, :].conj()
        mixed = random_density_matrices(np.random.default_rng(7), 300)
        for rhos in (mixed, pure):
            e3, e2, _, _ = measure_stack(rhos)
            out_e3, out_e2, _, _ = measure_stack(_clone(local_channel, rhos))
            assert np.max(np.abs(out_e2 - (16.0 / 81.0) * e2)) <= 1e-15
            assert np.max(np.abs(out_e3 - (64.0 / 729.0) * e3)) <= 1e-15

    @pytest.mark.parametrize("build", [local_channel, nonlocal_channel])
    def test_build_time_residuals_are_kept(self, build):
        compiled = build()
        assert compiled.superoperator.shape == (64, 64)
        assert not compiled.superoperator.flags.writeable
        assert compiled.symmetry_gap <= OUTPUT_SYMMETRY_ATOL
        assert compiled.trace_residual <= TRACE_ATOL
        assert compiled.choi_hermitian_residual <= HERMITIAN_ATOL
        assert compiled.choi_min_eigenvalue >= EIGENVALUE_FLOOR

    def test_rejects_asymmetric_isometry(self):
        # |i> -> |i>|0>|0>: an isometry whose originals keep the input while
        # the copies are always |0>.
        tensor = np.zeros((8, 8, 8, 8))
        for i in range(8):
            tensor[i, 0, 0, i] = 1.0
        with pytest.raises(RuntimeError, match="differ"):
            compile_channel(tensor)

    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                local_channel,
                "3e5f78d12be03f14345150a4762059b90965e38f16e6402c814524786fe6d64b",
            ),
            (
                nonlocal_channel,
                "252c18da46f529a749ecad5334ec93de9ffbd3d263198b94fee2c231791cdb5a",
            ),
        ],
        ids=["local", "nonlocal"],
    )
    def test_superoperator_bits_are_pinned(self, build, digest):
        # SHA-256 of the compiled superoperator's bytes, numpy 2.4.6.
        data = build().superoperator.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_rejects_nan_tensor_at_the_symmetry_check(self):
        with pytest.raises(RuntimeError, match="differ by nan"):
            compile_channel(np.full((2, 2, 2, 2), np.nan, dtype=complex))

    def test_rejects_non_trace_preserving_tensor(self):
        tensor = 1.1 * nonlocal_isometry(8).reshape(8, 8, 8, 8)
        with pytest.raises(RuntimeError, match="trace"):
            compile_channel(tensor)


def _oracle_measures(stack_of, alpha):
    """E3 and the E2 row of the oracle output at ``alpha``."""
    e3, e2, _, _ = measure_stack(stack_of([alpha]))
    return e3[0], e2[0]


class TestClosedFormOutputs:
    def test_unit_trace_for_all_alpha(self):
        for stack_of in (closed_form_local_outputs, closed_form_nonlocal_outputs):
            stack = stack_of(GRID)
            assert stack.shape == (len(GRID), 8, 8)
            for member in stack:
                assert abs(np.trace(member) - 1.0) <= 1e-14

    def test_local_balanced_state_measures(self):
        e3, _ = _oracle_measures(closed_form_local_outputs, math.pi / 4)
        assert e3 == pytest.approx(64.0 / 729.0, abs=1e-12)

    def test_local_corner_input_is_unentangled(self):
        e3, e2 = _oracle_measures(closed_form_local_outputs, 0.0)
        assert e3 <= 1e-12
        assert max(e2) <= 1e-12

    def test_nonlocal_balanced_state_spectrum(self):
        values, _ = eig_hermitian(closed_form_nonlocal_outputs([math.pi / 4])[0])
        expected = np.array([11.0 / 18.0] + [1.0 / 18.0] * 7)
        assert np.max(np.abs(values - expected)) <= 1e-12

    def test_nonlocal_balanced_state_measures(self):
        e3, e2 = _oracle_measures(closed_form_nonlocal_outputs, math.pi / 4)
        assert e3 == pytest.approx(25.0 / 81.0, abs=1e-12)
        for value in e2:
            assert value == pytest.approx(25.0 / 243.0, abs=1e-12)


class TestOracleStacks:
    @pytest.mark.parametrize(
        "oracle",
        [
            closed_form_input_measures,
            closed_form_local_measures,
            closed_form_nonlocal_measures,
            fidelity_local,
            closed_form_local_outputs,
            closed_form_nonlocal_outputs,
        ],
        ids=lambda oracle: oracle.__name__,
    )
    def test_stack_equals_stacked_single_calls(self, oracle):
        # One row per alpha, as a call on that alpha alone gives it.
        singles = np.stack([oracle([alpha])[0] for alpha in GRID_ALPHAS])
        assert np.array_equal(oracle(GRID_ALPHAS), singles)


class TestMeasureCurves:
    def test_simulated_measures_match_closed_forms(self):
        rhos = _inputs(GRID.tolist())
        for channel, closed_form in (
            (local_channel, closed_form_local_measures),
            (nonlocal_channel, closed_form_nonlocal_measures),
        ):
            e3, e2, _, _ = measure_stack(_clone(channel, rhos))
            cf = np.array([closed_form([alpha])[0] for alpha in GRID])
            assert np.max(np.abs(e3 - cf[:, 0])) <= 1e-12
            assert np.max(np.abs(e2[:, 0] - cf[:, 1])) <= 1e-12

    def test_nonlocal_cloning_preserves_more(self, grid):
        _, e3, e2, _ = grid
        assert np.all(e3[2] >= e3[1] - 1e-12)
        assert np.all(e2[2] >= e2[1] - 1e-12)

    def test_e3_never_amplified_by_the_local_channel(self, grid):
        # The local output curve is the input curve scaled by 64/729, so
        # it sits below the input everywhere, corners included.
        _, e3, _, _ = grid
        assert np.all(e3[1] <= e3[0] + 1e-12)

    def test_e3_never_amplified_away_from_the_corners(self, grid):
        # The non-local clone of a product corner keeps an E3 floor of
        # 100/531441 while the input E3 vanishes quadratically, so
        # amplification-freedom only holds once the input clears that
        # floor, about 0.00825 rad from each corner; on this grid that is
        # every point except the two nearest each end.
        inner = slice(2, -2)
        _, e3, _, _ = grid
        assert np.all(e3[2, inner] <= e3[0, inner] + 1e-12)

    def test_e3_corner_artifact_is_the_known_floor(self, grid):
        _, e3, _, _ = grid
        for idx in (0, -1):
            assert e3[0, idx] <= 1e-12
            assert e3[1, idx] <= 1e-12
            assert e3[2, idx] == pytest.approx(
                100.0 / 531441.0, abs=1e-12
            )
        # Inside the corner zone the output stays bounded by the floor's
        # scale even where it exceeds the input.
        for idx in (1, -2):
            assert e3[2, idx] <= 3e-4

    def test_retention_ratios_for_balanced_input(self):
        e3_ratio = (64.0 / 729.0) / 1.0 * 100
        e2_ratio = (16.0 / 243.0) / (1.0 / 3.0) * 100
        assert abs(e3_ratio - 8.76) <= 0.05
        assert abs(e2_ratio - 19.8) <= 0.05


class TestFidelities:
    def test_local_formula_endpoints(self):
        assert fidelity_local([0.0])[0] == pytest.approx(125.0 / 216.0, abs=1e-14)
        f_balanced = fidelity_local([math.pi / 4])[0]
        assert f_balanced == pytest.approx(95.0 / 216.0, abs=1e-14)

    def test_local_matches_simulation(self):
        alphas = GRID[::4].tolist()
        psis = input_states(alphas)
        sim = fidelities(psis, _clone(local_channel, _inputs(alphas)))
        for value, alpha in zip(sim, alphas):
            assert value == pytest.approx(fidelity_local([alpha])[0], abs=1e-12)

    def test_nonlocal_constant(self):
        assert fidelity_nonlocal() == pytest.approx(11.0 / 18.0, abs=1e-15)
        alphas = GRID[::4].tolist()
        psis = input_states(alphas)
        sim = fidelities(psis, _clone(nonlocal_channel, _inputs(alphas)))
        assert np.max(np.abs(sim - 11.0 / 18.0)) <= 1e-12

    def test_nonlocal_always_wins(self, grid):
        f_local, f_nonlocal = grid[3]
        assert np.all(f_nonlocal > f_local)


class TestEvaluate:
    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one alpha"):
            evaluate([])

    def test_rejects_non_finite_alpha(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be finite"):
                evaluate([0.1, bad])

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 201])
    def test_one_measure_stack_equals_one_per_state_stack(self, n):
        # Row counts on both sides of 128, a common BLAS block edge.
        alphas = np.linspace(0.0, math.pi / 2, n)
        states, e3s, e2s, _ = evaluate(alphas)
        assert np.array_equal(states[0], _inputs(alphas.tolist()))
        for rhos, e3, e2 in zip(states, e3s, e2s):
            ref_e3, ref_e2, *_ = measure_stack(np.array(rhos))
            assert (e3 == ref_e3).all()
            assert (e2 == ref_e2).all()

    @pytest.mark.parametrize("n", [1, 2, 128, 129, 201])
    @pytest.mark.parametrize(
        "names",
        [("nonlocal",), ("local", "nonlocal"), ("nonlocal", "local", "nonlocal")],
        ids="-".join,
    )
    def test_channel_slabs_equal_one_call_per_channel(self, n, names):
        by_name = {"local": local_channel(), "nonlocal": nonlocal_channel()}
        channels = tuple(by_name[name] for name in names)
        psis = input_states(np.linspace(0.0, math.pi / 2, n))
        states, e3, e2, f = evaluate_states(psis, channels)
        assert states.shape == (1 + len(names), n, 8, 8)
        assert f.shape == (len(names), n)
        for i, channel in enumerate(channels):
            one = evaluate_states(psis, (channel,))
            # The input slab does not depend on the channels.
            assert np.array_equal(states[0], one[0][0])
            assert np.array_equal(e3[0], one[1][0])
            assert np.array_equal(e2[0], one[2][0])
            assert np.array_equal(states[1 + i], one[0][1])
            assert np.array_equal(e3[1 + i], one[1][1])
            assert np.array_equal(e2[1 + i], one[2][1])
            assert np.array_equal(f[i], one[3][0])

    @pytest.mark.parametrize("n", [1, 2, 128, 129, 201])
    def test_evaluate_is_evaluate_states_of_both_schemes(self, n):
        alphas = np.linspace(0.0, math.pi / 2, n)
        both = (local_channel(), nonlocal_channel())
        expected = evaluate_states(input_states(alphas), both)
        for got, want in zip(evaluate(alphas), expected, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(8,), (3, 4), (2, 2, 8)], ids=str)
    def test_evaluate_states_rejects_amplitude_shapes(self, shape):
        psis = np.zeros(shape, dtype=complex)
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            evaluate_states(psis, (nonlocal_channel(),))

    def test_evaluate_states_rejects_no_channels(self):
        with pytest.raises(ValueError, match="at least one channel"):
            evaluate_states(input_states([0.3]), ())

    @pytest.mark.parametrize(
        "psi, message",
        [
            ([math.nan] + [0.0] * 7, "finite"),
            ([1.0, 1.0] + [0.0] * 6, "trace"),
        ],
        ids=["nan", "unnormalized"],
    )
    def test_evaluate_states_rejects_invalid_amplitudes(self, psi, message):
        psis = np.array([[1.0] + [0.0] * 7, psi], dtype=complex)
        with pytest.raises(ValueError, match=message):
            evaluate_states(psis, (local_channel(), nonlocal_channel()))


class TestHaarInputs:
    """Both schemes on seeded Haar-random pure states, off the two-corner family."""

    @pytest.fixture(scope="class")
    def haar(self):
        g = np.random.default_rng(7).standard_normal((200, 2, 8))
        psis = g[:, 0] + 1j * g[:, 1]
        psis /= np.linalg.norm(psis, axis=1)[:, None]
        channels = (local_channel(), nonlocal_channel())
        return psis, channels, evaluate_states(psis, channels)

    def test_each_member_equals_its_call_alone(self, haar):
        psis, channels, batch = haar
        for i in range(len(psis)):
            one = evaluate_states(psis[i : i + 1], channels)
            for got, alone in zip(batch, one, strict=True):
                assert np.array_equal(got[:, i : i + 1], alone)

    def test_nonlocal_fidelity_is_universal(self, haar):
        _, _, (_, _, _, f) = haar
        assert np.max(np.abs(f[1] - 11.0 / 18.0)) <= 1e-12

    def test_nonlocal_fidelity_beats_local(self, haar):
        _, _, (_, _, _, f) = haar
        assert np.all(f[0] < f[1])


class TestE2Crossings:
    def test_roots_match_analytic_values(self):
        lo, hi = find_e2_crossings()
        assert lo < hi
        assert lo == pytest.approx(CROSSING_LO, abs=2e-6)
        assert hi == pytest.approx(CROSSING_HI, abs=2e-6)

    def test_roots_are_complementary(self):
        lo, hi = find_e2_crossings()
        # Both curves depend only on cos(2*alpha)^2, so the two crossings
        # must satisfy lo^2 + hi^2 = 1.
        assert lo * lo + hi * hi == pytest.approx(1.0, abs=5e-6)

    def test_brackets_are_bisected_together(self, monkeypatch):
        # Reference: each bracket bisected on its own, one point per call.
        def gap(x):
            _, _, e2, _ = evaluate([math.acos(x)])
            return e2[2, 0, 0] - e2[0, 0, 0]

        expected = []
        visited = []
        halvings = []
        for lo, hi in ((0.0, math.sqrt(0.5)), (math.sqrt(0.5), 1.0)):
            positive_at_lo = gap(lo) > 0.0
            while hi - lo > CROSSING_BRACKET:
                mid = 0.5 * (lo + hi)
                visited.append(mid)
                if (gap(mid) > 0.0) == positive_at_lo:
                    lo = mid
                else:
                    hi = mid
            expected.append(0.5 * (lo + hi))
            halvings.append(len(visited) - sum(halvings))

        sizes = []
        passed = []
        evaluated = []

        def counted(psis, channels):
            sizes.append(len(psis))
            passed.append(channels)
            return evaluate_states(psis, channels)

        def recorded(xs):
            evaluated.extend(xs)
            return e2_gaps(xs)

        monkeypatch.setattr(cloners, "evaluate_states", counted)
        monkeypatch.setattr(cloners, "e2_gaps", recorded)
        assert find_e2_crossings() == tuple(expected)
        # The wider bracket takes 20 halvings, the narrower 19.
        assert halvings == [20, 19]
        # The three bracket ends, then per call every midpoint the next
        # ``_BISECTION_LEVELS`` halvings of each unfinished bracket can visit.
        levels = cloners._BISECTION_LEVELS
        calls = [math.ceil(h / levels) for h in halvings]
        tree = 2**levels - 1
        assert sizes == [3] + [
            tree * sum(c > i for c in calls) for i in range(max(calls))
        ]
        assert set(visited) <= set(evaluated)
        # Only the non-local slab is read, so only the non-local channel runs.
        assert all(
            type(c) is tuple and len(c) == 1 and c[0] is nonlocal_channel()
            for c in passed
        )

    @pytest.mark.parametrize(
        "call, point",
        [(0, 0), (0, 1), (0, 2), (1, 0), (1, 15), (5, 15)],
        ids=["end-0", "end-half", "end-1", "first-mid", "second-tree", "last-call"],
    )
    def test_non_finite_gap_fails_the_search(self, monkeypatch, call, point):
        # Unchecked, a NaN passes the bracket test at an end and picks a side
        # at a midpoint; the search raises at the call that returned it.
        calls = []

        def poisoned(xs):
            gaps = e2_gaps(xs)
            if len(calls) == call:
                gaps[point] = np.nan
            calls.append(xs)
            return gaps

        monkeypatch.setattr(cloners, "e2_gaps", poisoned)
        with pytest.raises(RuntimeError) as failure:
            find_e2_crossings()
        assert len(calls) == call + 1
        assert str(failure.value) == (
            f"E2 gap nan at cos(alpha)={calls[call][point]} is not finite"
        )

    @pytest.mark.parametrize(
        "roots, exact",
        [
            # The gap vanishes at the bracket end 0.0: the first root is exact.
            ((0.0, 0.8), 0),
            # It vanishes at the shared end sqrt(1/2): the second root is exact.
            ((0.3, math.sqrt(0.5)), 1),
        ],
    )
    def test_root_at_a_bracket_end_is_returned_exactly(self, monkeypatch, roots, exact):
        a, b = roots
        monkeypatch.setattr(
            cloners, "e2_gaps", lambda xs: np.array([(x - a) * (x - b) for x in xs])
        )
        found = find_e2_crossings()
        assert found[exact] == roots[exact]
        assert found == pytest.approx(roots, abs=CROSSING_BRACKET)

    def test_gaps_of_a_stack_equal_one_point_calls(self):
        # Corners, the bisection's interior bracket end and the window probes.
        xs = [0.0, 0.2, 0.6, math.sqrt(0.5), 0.98, 1.0]
        gaps = e2_gaps(xs)
        assert gaps.shape == (len(xs),)
        assert np.array_equal(gaps, np.concatenate([e2_gaps([x]) for x in xs]))

    def test_sign_pattern_around_window(self):
        def gap(x):
            alpha = math.acos(x)
            e3n, e2n = closed_form_nonlocal_measures([alpha])[0]
            s2 = math.sin(2 * alpha) ** 2
            return e2n - s2 * s2 / 3.0

        assert gap(0.20) > 0.0
        assert gap(0.60) < 0.0
        assert gap(0.98) > 0.0
