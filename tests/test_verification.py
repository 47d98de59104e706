"""The stacked random draws of ``verification`` equal draw-by-draw loops.

The ``verify`` report rounds its residuals, so it cannot show a changed
draw; these tests pin every random stack bit for bit against a loop of
single draws, and check that both leave the generator at the same point.
"""

import math

import numpy as np
import pytest

from triclone.linalg import kron_all
from triclone.verification import (
    _kron_qubits,
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
    assert np.array_equal(_kron_qubits(factors), expected)
    _assert_same_next_draw(rng, reference)


def test_batched_rotations_equal_per_member_products():
    rng = np.random.default_rng(2024)
    u = _kron_qubits(random_unitaries(rng, 60).reshape(20, 3, 2, 2))
    rhos = random_density_matrices(rng, 20)
    rotated = u @ rhos @ u.conj().swapaxes(1, 2)
    expected = [a @ rho @ a.conj().T for a, rho in zip(u, rhos)]
    assert np.array_equal(rotated, expected)
