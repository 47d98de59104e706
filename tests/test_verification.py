"""The stacked inputs of ``verification`` equal their one-by-one derivations.

The ``verify`` report rounds its residuals, so it cannot show a changed
draw; these tests pin every random stack bit for bit against a loop of
single draws, and check that both leave the generator at the same point.
The balanced state the oracle checks read off the grid is pinned the same
way against a call on that angle alone.  The determinism check compares
its two sweeps in memory, so it needs no temporary directory.  The
channel check validates each state it handles once, and ``iterate`` its
step-0 projector.  The grid is freed once the checks that read it are done.
"""

import math
import tempfile
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from triclone import cloners, iteration, linalg, verification
from triclone.cli import main
from triclone.cloners import evaluate, nonlocal_channel
from triclone.iteration import iterate
from triclone.linalg import kron_all
from triclone.verification import (
    BALANCED,
    GRID_ALPHAS,
    check_sweep_determinism,
    random_density_matrices,
    random_product_states,
    random_unitaries,
)

SIZES = [1, 7, 200]


def _state_matrix(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return 0.5 * (m + m.conj().T)


def _unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def _generators():
    return np.random.default_rng(2024), np.random.default_rng(2024)


def _assert_same_next_draw(rng, reference):
    assert rng.standard_normal() == reference.standard_normal()


@pytest.mark.parametrize("n", SIZES)
def test_density_matrices_equal_per_draw_states(n):
    rng, reference = _generators()
    stack = random_density_matrices(rng, n)
    assert np.array_equal(stack, [_state_matrix(reference, 8) for _ in range(n)])
    _assert_same_next_draw(rng, reference)


@pytest.mark.parametrize("n", SIZES)
def test_product_states_equal_per_draw_products(n):
    rng, reference = _generators()
    stack = random_product_states(rng, n)
    expected = [
        kron_all([_state_matrix(reference, 2) for _ in range(3)]) for _ in range(n)
    ]
    assert np.array_equal(stack, expected)
    _assert_same_next_draw(rng, reference)


@pytest.mark.parametrize("n", SIZES)
def test_unitaries_equal_per_draw_unitaries(n):
    rng, reference = _generators()
    stack = random_unitaries(rng, n)
    assert np.array_equal(stack, [_unitary(reference) for _ in range(n)])
    _assert_same_next_draw(rng, reference)


@pytest.mark.parametrize("n", SIZES)
def test_batched_kronecker_products_equal_kron_all(n):
    rng, reference = _generators()
    factors = random_unitaries(rng, 3 * n).reshape(n, 3, 2, 2)
    expected = [kron_all([_unitary(reference) for _ in range(3)]) for _ in range(n)]
    assert np.array_equal(kron_all(factors.swapaxes(0, 1)), expected)
    _assert_same_next_draw(rng, reference)


def test_batched_rotations_equal_per_member_products():
    rng = np.random.default_rng(2024)
    u = kron_all(random_unitaries(rng, 60).reshape(20, 3, 2, 2).swapaxes(0, 1))
    rhos = random_density_matrices(rng, 20)
    rotated = u @ rhos @ u.conj().swapaxes(1, 2)
    expected = [a @ rho @ a.conj().T for a, rho in zip(u, rhos)]
    assert np.array_equal(rotated, expected)


def test_balanced_grid_column_is_the_balanced_state(grid):
    assert GRID_ALPHAS[BALANCED] == math.pi / 4
    others = np.arange(len(GRID_ALPHAS)) != BALANCED
    linspace = np.linspace(0.0, math.pi / 2.0, 201)
    assert np.array_equal(GRID_ALPHAS[others], linspace[others])
    assert not GRID_ALPHAS.flags.writeable
    for column, alone in zip(grid, evaluate([math.pi / 4]), strict=True):
        assert np.array_equal(column[:, BALANCED : BALANCED + 1], alone)


@pytest.fixture
def missing_tempdir(tmp_path, monkeypatch):
    """A temporary-file directory that does not exist."""
    missing = tmp_path / "missing"
    monkeypatch.setattr(tempfile, "tempdir", str(missing))
    return missing


def test_determinism_check_needs_no_temp_directory(missing_tempdir, capsysbinary):
    assert main(["sweep"]) == 0
    stdout = capsysbinary.readouterr().out
    result = check_sweep_determinism()
    assert result.passed
    assert result.detail == f"two runs, {len(stdout)} bytes each, identical"
    assert not missing_tempdir.exists()


def test_verify_needs_no_temp_directory(missing_tempdir, capsys):
    assert main(["verify"]) == 1
    assert not missing_tempdir.exists()
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert out.endswith("9/10 checks passed\n")
    fails = [line for line in out.splitlines() if "FAIL" in line]
    assert len(fails) == 1 and "e2-amplification-window" in fails[0]


def test_within_passes_at_the_tolerance_and_fails_above_it():
    assert verification._within(1e-12, ("a", 1e-12))[0]
    assert not verification._within(1e-12, ("a", np.nextafter(1e-12, 1.0)))[0]


@pytest.mark.parametrize("position", range(3))
def test_within_fails_on_a_nan_in_any_position(position):
    values = [0.0, 0.0, 0.0]
    values[position] = math.nan
    passed, _ = verification._within(1.0, *zip("abc", values))
    assert not passed


@pytest.mark.parametrize("arrays", [([0.0], [math.nan]), ([math.nan], [0.0, 1.0])])
def test_residual_norm_keeps_a_nan_from_any_array(arrays):
    assert math.isnan(linalg.max_abs(*arrays))


def test_spectral_route_runs_in_map_blocks(monkeypatch):
    # Check 08 hands the route all 100 states at once; the route splits them
    # into blocks of MAP_BLOCK // 8, whose eigenprojectors are one MAP_BLOCK
    # per map.
    calls, sizes = [], []
    trajectory, mix = iteration.spectral_trajectory, iteration._spectral_mix

    def recording_trajectory(rhos, n_steps):
        calls.append((len(rhos), n_steps))
        return trajectory(rhos, n_steps)

    def recording_mix(rhos):
        sizes.append(len(rhos))
        return mix(rhos)

    monkeypatch.setattr(verification, "spectral_trajectory", recording_trajectory)
    monkeypatch.setattr(iteration, "_spectral_mix", recording_mix)
    assert verification.check_channel_properties(12345).passed
    assert calls == [(100, 1)]
    block = cloners.MAP_BLOCK // 8
    full, rest = divmod(100, block)
    assert sizes == [block] * full + [rest] * (rest > 0)


def test_residual_norm_equals_the_list_form_on_verify_residuals(grid, monkeypatch):
    # ``max_abs`` folds per-array maxima with np.maximum; on every residual
    # the checks compute it gives the bits of the list form np.max([...]).
    seen = []

    def recording(*arrays):
        seen.append(arrays)
        return linalg.max_abs(*arrays)

    monkeypatch.setattr(verification, "max_abs", recording)
    for check in (
        verification.check_input_closed_forms,
        verification.check_local_oracle,
        verification.check_nonlocal_oracle,
        verification.check_measure_curves,
        verification.check_fidelities,
    ):
        check(grid)
    verification.check_iteration_decay()
    verification.check_channel_properties(12345)
    verification.check_measure_properties(12345)
    assert len(seen) == 20
    for arrays in seen:
        listed = float(np.max([np.max(np.abs(a)) for a in arrays]))
        assert np.float64(linalg.max_abs(*arrays)).tobytes() == (
            np.float64(listed).tobytes()
        )


def test_within_text_lists_residuals_then_the_tolerance():
    passed, text = verification._within(1e-12, ("a", 1e-13), ("b", 2e-14))
    assert passed
    assert text == "a=1.00e-13, b=2.00e-14 (tol 1e-12)"


def test_check_verdict_applies_the_printed_tolerance(grid, monkeypatch):
    # A residual one ulp above the tolerance fails the check, and the detail
    # still prints that tolerance.
    monkeypatch.setattr(
        verification, "max_abs", lambda *arrays: np.nextafter(1e-12, 1.0)
    )
    result = verification.check_input_closed_forms(grid)
    assert not result.passed
    assert result.detail.endswith("(tol 1e-12)")


def test_nan_product_state_measure_fails_its_check(monkeypatch):
    # The product-state residual is a norm over both measures, so a NaN in
    # either reaches the verdict and fails the check.
    real = verification.measure_stack
    calls = []

    def nan_on_products(stack):
        e3, e2, *rest = real(stack)
        calls.append(len(stack))
        if len(calls) == 2:  # the 25 random product states
            e2 = e2.copy()
            e2.flat[4] = np.nan
        return (e3, e2, *rest)

    monkeypatch.setattr(verification, "measure_stack", nan_on_products)
    result = verification.check_measure_properties(12345)
    assert calls[1] == 25
    assert not result.passed
    assert "product-state max=nan (tol 1e-12)" in result.detail


@pytest.fixture
def validated(monkeypatch):
    """Bytes of every 8x8 member the package validates, in call order."""
    members = []
    check = verification.check_density_matrices

    def recording(matrices):
        members.extend(m.tobytes() for m in matrices.reshape(-1, 8, 8))
        check(matrices)

    for module in (cloners, iteration, verification):
        monkeypatch.setattr(module, "check_density_matrices", recording)
    return members


def test_channel_check_validates_each_state_once(validated, monkeypatch):
    rng = np.random.default_rng(12345)
    stack = random_density_matrices(rng, 100)
    p = rng.uniform(0.1, 0.9, 50)[:, None, None]
    mixes = p * stack[0::2] + (1 - p) * stack[1::2]
    outputs = nonlocal_channel().map(stack)
    validated.clear()
    # The check maps only the mixtures through the non-local channel itself;
    # it reads the outputs of the states off the spectral route.
    mapped = []

    def recording_map(rhos):
        mapped.append(rhos)
        return nonlocal_channel().map(rhos)

    channel = SimpleNamespace(map=recording_map)
    monkeypatch.setattr(verification, "nonlocal_channel", lambda: channel)
    assert verification.check_channel_properties(12345).passed
    assert len(mapped) == 1 and np.array_equal(mapped[0], mixes)
    assert len(set(validated)) == len(validated)
    assert {m.tobytes() for m in (*stack, *outputs)} <= set(validated)


def test_iterate_validates_its_step_zero_projector_once(validated):
    _, _, states = iterate(0.7, 12)
    assert validated.count(states[0].tobytes()) == 1


def test_grid_is_freed_before_the_grid_free_checks(monkeypatch):
    # Only checks 01-05 read the grid; its states are dead when check 06 starts.
    grid_states = []
    alive_at_check_06 = []
    compute_grid = verification.compute_grid
    check_06 = verification.check_amplification_window

    def recording_grid():
        grid = compute_grid()
        grid_states.append(weakref.ref(grid[0]))
        return grid

    def recording_check_06():
        alive_at_check_06.append(grid_states[0]() is not None)
        return check_06()

    monkeypatch.setattr(verification, "compute_grid", recording_grid)
    monkeypatch.setattr(verification, "check_amplification_window", recording_check_06)
    assert len(verification.run_all(12345)) == 10
    assert alive_at_check_06 == [False]


def _count_calls(monkeypatch, name):
    """Count calls of ``cloners.<name>`` through every module that binds it."""
    original = getattr(cloners, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (cloners, iteration, verification):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_window_check_makes_seven_gap_calls(monkeypatch):
    # Six from the crossing search, the bracket ends and then five of four
    # halvings per bracket, and one for the sign probes.
    gaps = _count_calls(monkeypatch, "e2_gaps")
    verification.check_amplification_window()
    assert len(gaps) == 7


def test_verify_evaluates_ten_stacks(monkeypatch):
    # The grid, the seven gap calls of check 06 and the two determinism sweeps.
    stacks = _count_calls(monkeypatch, "evaluate_states")
    assert len(verification.run_all(12345)) == 10
    assert len(stacks) == 10
