import math

import numpy as np
import pytest

from triclone import cloners, iteration
from triclone.cli import main
from triclone.cloners import MAP_BLOCK, CompiledChannel, nonlocal_channel
from triclone.entanglement import input_states, measure_stack
from triclone.iteration import ROUTE_AGREEMENT_ATOL, iterate, spectral_trajectory
from triclone.linalg import eig_hermitian, max_abs
from triclone.reference import closed_form_input_measures
from triclone.verification import random_density_matrices

GEOMETRIC_RATIO = 25.0 / 81.0

TABLE_E3 = (1.0000, 0.3086, 0.0953, 0.0294, 0.0091, 0.0028)
TABLE_E2 = (0.3333, 0.1029, 0.0318, 0.0098, 0.0030, 0.0009)


def _inputs(alphas):
    """Projectors (n, 8, 8) of the two-corner inputs at ``alphas``."""
    psis = input_states(alphas)
    return psis[:, :, None] * psis[:, None, :].conj()


def _clone_mixed(rhos):
    """Spectral-route clones of a stack (n, 8, 8), once the route validates them."""
    spectral_trajectory(rhos, 1)
    return iteration._spectral_mix(rhos)


class TestCloneMixed:
    def test_equals_direct_channel_on_random_states(self, rng):
        rhos = random_density_matrices(rng, 5)
        direct = nonlocal_channel().map(rhos)
        for k in range(len(rhos)):
            mixed_route = _clone_mixed(rhos[k : k + 1])[0]
            assert np.max(np.abs(mixed_route - direct[k])) <= 1e-12

    def test_first_step_spectral_structure(self):
        rho1 = _clone_mixed(_inputs([math.pi / 4]))[0]
        values, vectors = eig_hermitian(rho1)
        expected = np.array([11.0 / 18.0] + [1.0 / 18.0] * 7)
        assert np.max(np.abs(values - expected)) <= 1e-12
        ghz = input_states([math.pi / 4])[0]
        overlap = abs(np.vdot(ghz, vectors[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_second_step_entries(self):
        rho2 = _clone_mixed(_clone_mixed(_inputs([math.pi / 4])))[0]
        assert rho2[0, 0].real == pytest.approx(13.0 / 54.0, abs=1e-12)
        assert rho2[7, 7].real == pytest.approx(13.0 / 54.0, abs=1e-12)
        assert rho2[0, 7].real == pytest.approx(25.0 / 162.0, abs=1e-12)
        for k in range(1, 7):
            assert rho2[k, k].real == pytest.approx(7.0 / 81.0, abs=1e-12)


def _per_state_route(rho):
    """The spectral route one state at a time, as a reference for the kernel."""
    values, vectors = np.linalg.eigh(rho)
    weights, columns = values[::-1], vectors[:, ::-1].T
    outputs = nonlocal_channel().map(columns[:, :, None] * columns[:, None, :].conj())
    mixed = np.zeros_like(rho)
    for weight, output in zip(weights, outputs):
        mixed = mixed + weight * output
    return mixed


def _mixed_rank_stack(rng):
    """16 states of rank 8, 1 and 2, so rows differ in how many weights are zero."""
    full = random_density_matrices(rng, 6)
    pure = list(_inputs([0.0, 0.3, 0.7, 1.2]))
    rank_two = []
    for _ in range(4):
        a = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        a /= np.linalg.norm(a, axis=1)[:, None]
        p = rng.uniform(0.2, 0.8)
        rank_two.append(
            p * np.outer(a[0], a[0].conj()) + (1 - p) * np.outer(a[1], a[1].conj())
        )
    ghz_out = nonlocal_channel().map(_inputs([math.pi / 4]))[0]
    return np.stack([*full[:3], *pure, *rank_two, ghz_out, *full[3:], pure[2]])


class TestCloneMixedStack:
    def test_equals_per_state_route_bit_for_bit(self, rng):
        stack = _mixed_rank_stack(rng)
        rank = np.sum(np.linalg.eigvalsh(stack) > 1e-12, axis=-1)
        assert set(rank.tolist()) == {1, 2, 8}
        mixed = _clone_mixed(stack)
        for k, rho in enumerate(stack):
            assert np.array_equal(mixed[k], _per_state_route(rho))
            assert np.array_equal(mixed[k], _clone_mixed(stack[k : k + 1])[0])

    def test_pure_stack_weights_all_eight_eigenvectors(self):
        stack = _inputs([0.1, 0.5, 0.9])
        mixed = _clone_mixed(stack)
        for k, rho in enumerate(stack):
            assert np.array_equal(mixed[k], _per_state_route(rho))

    def test_random_full_rank_stack(self, rng):
        stack = random_density_matrices(rng, 16)
        mixed = _clone_mixed(stack)
        for k, rho in enumerate(stack):
            assert np.array_equal(mixed[k], _per_state_route(rho))

    def test_empty_stack(self):
        empty = np.empty((0, 8, 8), dtype=complex)
        trajectory, agreement = spectral_trajectory(empty, 2)
        assert trajectory.shape == (3, 0, 8, 8) and agreement == 0.0
        assert _clone_mixed(empty).shape == (0, 8, 8)


@pytest.fixture
def mixtures(monkeypatch):
    """The mixtures of every ``_spectral_mix`` call, in call order."""
    mixed = []
    real = iteration._spectral_mix

    def recording(rhos):
        mixed.append(real(rhos))
        return mixed[-1]

    monkeypatch.setattr(iteration, "_spectral_mix", recording)
    return mixed


def test_route_splits_any_stack_into_map_blocks(rng, mixtures):
    # 40 states over 3 steps are 120 route states: MAP_BLOCK // 8 per
    # ``_spectral_mix`` call, so that one ``evaluate_states`` call clones at
    # most MAP_BLOCK eigenvectors.
    stack = random_density_matrices(rng, 40)
    trajectory, agreement = spectral_trajectory(stack, 3)
    route = np.concatenate(mixtures).reshape(3, 40, 8, 8)
    block = MAP_BLOCK // 8
    full, rest = divmod(120, block)
    assert [len(m) for m in mixtures] == [block] * full + [rest] * (rest > 0)
    for k in range(len(stack)):
        mixtures.clear()
        alone_trajectory, alone_agreement = spectral_trajectory(stack[k : k + 1], 3)
        assert np.array_equal(trajectory[:, k], alone_trajectory[:, 0])
        assert np.array_equal(route[:, k], np.concatenate(mixtures))
        assert alone_agreement <= agreement


def test_agreement_is_the_largest_block_residual(rng):
    # The route's blocks, taken in its order: MAP_BLOCK // 8 of the 120 states
    # of steps 0..2 each, every one against the step that follows it.
    stack = random_density_matrices(rng, 40)
    trajectory, agreement = spectral_trajectory(stack, 3)
    chain, later = (a.reshape(-1, 8, 8) for a in (trajectory[:-1], trajectory[1:]))
    block = MAP_BLOCK // 8
    residuals = [
        max_abs(iteration._spectral_mix(chain[s : s + block]) - later[s : s + block])
        for s in range(0, len(chain), block)
    ]
    assert type(agreement) is float
    assert np.float64(agreement).tobytes() == np.float64(max(residuals)).tobytes()
    assert 0.0 < agreement <= ROUTE_AGREEMENT_ATOL


def test_stacked_trajectory_equals_single_angle_iterations(mixtures):
    alphas = [0.3, 0.7, math.pi / 4]
    trajectory, agreement = spectral_trajectory(_inputs(alphas), 12)
    assert trajectory.shape == (13, 3, 8, 8)
    route = np.concatenate(mixtures).reshape(12, 3, 8, 8)
    for k, alpha in enumerate(alphas):
        assert np.array_equal(trajectory[:, k], iterate(alpha, 12)[2])
    assert np.array_equal(trajectory[1:], nonlocal_channel().map(trajectory[:-1]))
    # The batched route gives each step's bits of a call per step.
    for k in range(12):
        assert np.array_equal(route[k], iteration._spectral_mix(trajectory[k]))
    assert max_abs(route - trajectory[1:]) == agreement <= ROUTE_AGREEMENT_ATOL


class TestIterate:
    def test_reproduces_decay_table(self):
        e3, e2, _ = iterate(math.pi / 4, 6)
        for k in range(6):
            assert e3[k] == pytest.approx(TABLE_E3[k], abs=5e-5)
            assert e2[k, 0] == pytest.approx(TABLE_E2[k], abs=5e-5)

    def test_second_step_closed_form(self):
        e3, e2, _ = iterate(math.pi / 4, 2)
        assert e3[2] == pytest.approx(GEOMETRIC_RATIO**2, abs=1e-12)
        assert e2[2, 0] == pytest.approx(
            GEOMETRIC_RATIO**2 / 3.0, abs=1e-12
        )

    def test_decay_is_exactly_geometric_for_balanced_input(self):
        e3s, e2s, _ = iterate(math.pi / 4, 6)
        for step, (e3, e2) in enumerate(zip(e3s, e2s[:, 0])):
            assert e3 == pytest.approx(GEOMETRIC_RATIO**step, abs=1e-12)
            assert e2 == pytest.approx(GEOMETRIC_RATIO**step / 3.0, abs=1e-12)

    def test_strictly_monotone_decay(self):
        e3, e2, _ = iterate(math.pi / 4, 6)
        e3 = e3.tolist()
        e2 = e2[:, 0].tolist()
        assert all(a > b for a, b in zip(e3, e3[1:]))
        assert all(a > b for a, b in zip(e2, e2[1:]))

    def test_support_pattern_is_preserved(self):
        # Every iterate keeps the two corner coherences plus a diagonal;
        # nothing else appears.
        _, _, states = iterate(math.pi / 4, 4)
        corner_pairs = {(0, 7), (7, 0)}
        for m in states:
            for i in range(8):
                for j in range(8):
                    if i != j and (i, j) not in corner_pairs:
                        assert abs(m[i, j]) <= 1e-12

    def test_states_stay_valid(self):
        _, _, states = iterate(math.pi / 4, 6)
        for m in states:
            assert abs(np.trace(m).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(m)[0] >= -1e-10

    def test_step_zero_matches_input_closed_form(self):
        alpha = 0.6
        e3s, e2s, _ = iterate(alpha, 1)
        e3, e2 = closed_form_input_measures([alpha])[0]
        assert e3s[0] == pytest.approx(e3, abs=1e-12)
        assert e2s[0, 0] == pytest.approx(e2, abs=1e-12)

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            iterate(math.pi / 4, 0)
        with pytest.raises(ValueError):
            iterate(math.pi / 4, 13)

    @pytest.mark.parametrize("n_steps", [2.7, 3.0, "3", True])
    def test_rejects_non_integral_step_counts(self, n_steps):
        with pytest.raises(ValueError, match=f"must be an integer, got {n_steps!r}"):
            iterate(0.3, n_steps)

    def test_accepts_numpy_integers(self):
        _, _, states = iterate(0.3, np.int64(3))
        assert np.array_equal(states, iterate(0.3, 3)[2])

    def test_states_are_the_read_only_chain_of_single_clones(self):
        _, _, states = iterate(0.7, 12)
        assert states.shape == (13, 8, 8)
        assert not states.flags.writeable
        with pytest.raises(ValueError):
            states[1, 0, 0] = 0.0
        rho = _inputs([0.7])
        assert np.array_equal(states[0], rho[0])
        for k in range(1, 13):
            rho = nonlocal_channel().map(rho)
            assert np.array_equal(states[k], rho[0])

    def test_measures_come_from_the_states(self):
        e3s, e2s, states = iterate(0.7, 12)
        assert e3s.shape == (13,) and e2s.shape == (13, 3)
        e3, e2, _, _ = measure_stack(states)
        assert np.array_equal(e3s, e3)
        assert np.array_equal(e2s, e2)
        for measure in (e3s, e2s):
            assert not measure.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                measure[0] = 0.0


class TestTrajectoryCertificate:
    """``iterate`` validates step 0, then the route certifies what it creates."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Copies of the stacks ``iteration`` and ``evaluate_states`` validate."""
        seen = []
        check = iteration.check_density_matrices

        def recording(matrices):
            seen.append(np.array(matrices))
            check(matrices)

        for module in (iteration, cloners):
            monkeypatch.setattr(module, "check_density_matrices", recording)
        return seen

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The states of every ``evaluate_states`` call ``iteration`` makes."""
        evaluated = []
        real = cloners.evaluate_states

        def recording(psis, channels):
            evaluated.append(real(psis, channels))
            return evaluated[-1]

        monkeypatch.setattr(iteration, "evaluate_states", recording)
        return evaluated

    def test_checks_run_per_trace_not_per_step(self, seen):
        for n in range(1, 13):
            seen.clear()
            _, _, trajectory = iterate(0.7, n)
            assert len(seen) == 4
        # In the last run (12 steps) the first check is the step-0 projector,
        # then the route's projectors and clones; the last is the later steps
        # followed by the route outputs, one stack.
        step0, later = seen[0], seen[-1]
        assert np.array_equal(step0, trajectory[:1])
        assert later.shape == (24, 8, 8)
        assert np.array_equal(later[:12], trajectory[1:])
        route = iteration._spectral_mix(trajectory[:-1])
        assert np.array_equal(later[12:], route)

    @pytest.mark.parametrize("n_steps", [1, 3, 12])
    def test_one_route_call_certifies_every_step(self, monkeypatch, n_steps):
        # The chain takes one map per step; the route one map and one
        # ``_spectral_mix`` over all steps, not one per step.
        mixed, maps = [], []
        real_mix, real_map = iteration._spectral_mix, CompiledChannel.map

        def counting_mix(rhos):
            mixed.append(rhos.shape)
            return real_mix(rhos)

        def counting_map(channel, rhos):
            maps.append(rhos.shape)
            return real_map(channel, rhos)

        monkeypatch.setattr(iteration, "_spectral_mix", counting_mix)
        monkeypatch.setattr(CompiledChannel, "map", counting_map)
        iterate(0.7, n_steps)
        assert mixed == [(n_steps, 8, 8)]
        assert len(maps) == n_steps + 1

    def test_certificate_covers_every_eigenprojector(self, seen, evaluated):
        # Step 0 is pure, so a certificate of the kept projectors alone would
        # hold 1 + 11 * 8 = 89 of them.
        iterate(0.7, 12)
        step0, (projectors, clones) = evaluated
        assert step0.shape == (1, 1, 8, 8)
        assert np.array_equal(seen[0], step0[0])
        assert len(projectors) == len(clones) == 96
        # ``evaluate_states`` validated each, projectors then clones.
        assert np.array_equal(seen[1], projectors)
        assert np.array_equal(seen[2], clones)
        # The eight projectors of each step resolve the identity.
        completeness = projectors.reshape(12, 8, 8, 8).sum(axis=1) - np.eye(8)
        assert np.max(np.abs(completeness)) <= 1e-12
        assert np.array_equal(clones, nonlocal_channel().map(projectors))

    def test_dropped_eigenvectors_fail_the_route_check(self, monkeypatch, capsys):
        # Step 1 clones a pure state; step 2 would give the 1/18 eigenvectors
        # of its output weight zero, so its mixture misses 7/18 of the trace.
        real = iteration.eig_hermitian

        def dropping(rhos):
            weights, vectors = real(rhos)
            return np.where(weights < 0.5, 0.0, weights), vectors

        monkeypatch.setattr(iteration, "eig_hermitian", dropping)
        with pytest.raises(RuntimeError, match="spectral-mixture route"):
            iterate(math.pi / 4, 2)
        with pytest.raises(RuntimeError, match="spectral-mixture route"):
            iterate(math.pi / 4, 6)
        assert main(["iterate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal check failed:")
        assert "spectral-mixture route" in err

    @pytest.fixture
    def nan_route(self, monkeypatch):
        # A route whose mixtures are NaN while its projectors and clones are
        # valid: only the agreement check can catch it.
        real = iteration._spectral_mix

        def nan_mix(rhos):
            return np.full_like(real(rhos), np.nan)

        monkeypatch.setattr(iteration, "_spectral_mix", nan_mix)

    def test_nan_route_fails_the_route_check(self, nan_route):
        with pytest.raises(RuntimeError, match="deviates .* by nan"):
            iterate(0.7, 1)

    def test_nan_route_is_a_failed_internal_check(self, nan_route, capsys):
        assert main(["iterate", "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal check failed:")
        assert "by nan" in err

    @pytest.fixture(params=["nan", "skew"])
    def faulty_route(self, request, monkeypatch):
        # Mixtures the next step cannot decompose: NaN, or 1e-6 off Hermitian.
        real = iteration._spectral_mix

        def faulty_mix(rhos):
            mixed = real(rhos)
            if request.param == "nan":
                mixed = np.full_like(mixed, np.nan)
            else:
                mixed[..., 0, 1] += 1e-6
            return mixed

        monkeypatch.setattr(iteration, "_spectral_mix", faulty_mix)

    def test_faulty_route_fails_at_a_later_step(self, faulty_route):
        # No step decomposes a mixture of the route, so the agreement check
        # meets the faulty mixtures of both steps.
        with pytest.raises(RuntimeError, match="spectral-mixture route"):
            iterate(0.7, 2)

    @pytest.mark.parametrize("steps", ["1", "2", "12"])
    def test_faulty_route_is_a_failed_internal_check(self, faulty_route, capsys, steps):
        assert main(["iterate", "--steps", steps]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal check failed: spectral-mixture route")

    @pytest.fixture(params=["nan-eigenvector", "nan-clone"])
    def faulty_certificate(self, request, monkeypatch):
        # A NaN in one eigenvector, so in its projector, or in one clone: the
        # checks on what the route made refuse it before the agreement check.
        if request.param == "nan-eigenvector":
            real_eig = iteration.eig_hermitian

            def faulty_eig(rhos):
                weights, vectors = real_eig(rhos)
                vectors = vectors.copy()
                vectors[-1, 0, -1] = np.nan
                return weights, vectors

            monkeypatch.setattr(iteration, "eig_hermitian", faulty_eig)
        else:
            real_map = CompiledChannel.map

            def faulty_map(channel, rhos):
                outputs = real_map(channel, rhos)
                # The route clones eight projectors per state; the chain of
                # one-state steps is left intact.
                if len(rhos) > 1:
                    outputs[-1, 0, 0] = np.nan
                return outputs

            monkeypatch.setattr(CompiledChannel, "map", faulty_map)

    @pytest.mark.parametrize("steps", ["1", "3", "12"])
    def test_faulty_certificate_is_a_failed_internal_check(
        self, faulty_certificate, capsys, steps
    ):
        with pytest.raises(RuntimeError, match="^spectral-mixture route: matrix"):
            iterate(0.7, int(steps))
        assert main(["iterate", "--steps", steps]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal check failed: spectral-mixture route")
