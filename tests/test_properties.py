"""Property tests of the channels and the measures.

The states are pure, rank-deficient or within 1e-3 of I/8, the cases at
the edge of the positivity check that the full-rank random states of
``verify`` do not reach.  Examples are derandomized, so every run draws
the same ones.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from triclone.cloners import local_channel, nonlocal_channel  # noqa: E402
from triclone.entanglement import measure_stack  # noqa: E402
from triclone.linalg import check_density_matrices, kron_all  # noqa: E402

reproducible = settings(derandomize=True, deadline=None, database=None)
CHANNELS = (local_channel, nonlocal_channel)


@st.composite
def states(draw):
    """A three-qubit density matrix (8, 8) of one of the three kinds."""
    kind = draw(st.sampled_from(["pure", "rank-deficient", "near-maximally-mixed"]))
    rank = {"pure": 1, "rank-deficient": draw(st.integers(2, 7))}.get(kind, 8)
    parts = draw(arrays(np.float64, (2, 8, rank), elements=st.floats(-1.0, 1.0)))
    g = parts[0] + 1j * parts[1]
    m = g @ g.conj().T
    trace = np.trace(m).real
    assume(trace > 1e-6)
    m = m / trace
    if kind == "near-maximally-mixed":
        weight = draw(st.floats(0.0, 1e-3))
        m = (1.0 - weight) * np.eye(8) / 8.0 + weight * m
    return 0.5 * (m + m.conj().T)


def _qubit_unitary(a, b, c):
    """Rz(a) Ry(b) Rz(c); every single-qubit unitary up to a phase."""

    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    ry = np.array(
        [[math.cos(b / 2), -math.sin(b / 2)], [math.sin(b / 2), math.cos(b / 2)]]
    )
    return rz(a) @ ry @ rz(c)


@reproducible
@given(states())
def test_channel_outputs_are_density_matrices(rho):
    check_density_matrices(np.stack([channel().map(rho) for channel in CHANNELS]))


@reproducible
@given(states(), states(), st.floats(0.0, 1.0))
def test_channels_are_linear_on_mixtures(a, b, p):
    for channel in CHANNELS:
        direct = channel().map(p * a + (1.0 - p) * b)
        combined = p * channel().map(a) + (1.0 - p) * channel().map(b)
        assert np.max(np.abs(direct - combined)) <= 1e-12


@reproducible
@given(states(), arrays(np.float64, (3, 3), elements=st.floats(0.0, 2.0 * math.pi)))
def test_measures_are_invariant_under_local_unitaries(rho, angles):
    u = kron_all(_qubit_unitary(*row) for row in angles)
    pair = np.stack([rho, u @ rho @ u.conj().T])
    check_density_matrices(pair)
    e3, e2, _, _ = measure_stack(pair)
    assert abs(e3[0] - e3[1]) <= 1e-10
    assert np.max(np.abs(e2[0] - e2[1])) <= 1e-10
