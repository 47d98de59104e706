"""Repeated non-local cloning via spectral decomposition of the previous output.

A mixed output cannot be fed to the cloner directly; it is diagonalized
and each eigenvector is cloned separately, then the results are remixed
with the eigenvalue weights.  Channel linearity makes this identical to
applying the channel to the mixed state, which is enforced as a hard
cross-check on every call (it also proves the result does not depend on
the basis chosen inside degenerate eigenspaces).

``clone_mixed_stack`` is the one kernel: for a stack (n, 8, 8) of states
it makes one ``eig_hermitian`` call, validates the kept projectors, clones
them in one channel ``map``, validates the outputs, remixes each state
sequentially in descending-weight order and cross-checks the whole stack
against the direct channel outputs.  ``clone_mixed_nonlocal`` and
``iterate`` call it with a stack of one, and the verification suite with
blocks of states; each state comes out bit for bit as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloners import nonlocal_channel
from .entanglement import _require_three_qubits, input_state, measures
from .linalg import DensityMatrix, check_density_matrices, eig_hermitian

EIGENVALUE_CUTOFF = 1e-12
ROUTE_AGREEMENT_ATOL = 1e-12
MAX_STEPS = 12


@dataclass
class IterationStep:
    step: int
    e3: float
    e2: float
    rho: DensityMatrix


@dataclass
class IterationTrace:
    """Measures and states along a sequence of cloning steps.

    ``e2`` stores the (1, 2) pairwise value; all three pairs coincide for
    the exchange-symmetric states this module produces.
    """

    alpha: float
    steps: list[IterationStep]


def clone_mixed_stack(rhos: np.ndarray) -> np.ndarray:
    """Spectral-route non-local clones of a stack of states (n, 8, 8).

    Eigenvectors with weight not above ``EIGENVALUE_CUTOFF`` are skipped;
    the cutoff is immaterial because each result is checked against the
    direct channel application to 1e-12.  The projectors and their clones
    are validated; the returned mixtures are not, so callers validate them.
    """
    channel = nonlocal_channel()
    weights, vectors = eig_hermitian(rhos)
    # Weights descend, so the kept eigenvectors are a prefix of each row.
    kept = weights > EIGENVALUE_CUTOFF
    width = int(kept.sum(axis=-1).max())
    kept = kept[:, :width]
    columns = vectors[:, :, :width].swapaxes(1, 2)
    projectors = columns[..., :, None] * columns[..., None, :].conj()
    check_density_matrices(projectors[kept])
    outputs = channel.map(projectors)
    check_density_matrices(outputs[kept])
    # Skipped terms carry weight 0 and add +-0.0, which leaves ``mixed`` as
    # it is: it starts at +0.0 and a sum of non-zero terms never rounds to
    # -0.0.
    w = np.where(kept, weights[:, :width], 0.0)
    mixed = np.zeros_like(rhos)
    # Sequential remix: a tensordot over the weights sums in another order.
    for k in range(width):
        mixed = mixed + w[:, k, None, None] * outputs[:, k]
    direct = channel.map(rhos)
    check_density_matrices(direct)
    residual = float(np.max(np.abs(mixed - direct)))
    if residual > ROUTE_AGREEMENT_ATOL:
        raise RuntimeError(
            f"spectral-mixture route deviates from direct channel "
            f"application by {residual:.3e}"
        )
    return mixed


def clone_mixed_nonlocal(rho: DensityMatrix) -> DensityMatrix:
    """Non-local cloning of a mixed state through its eigenvectors."""
    _require_three_qubits(rho)
    return DensityMatrix(rho.dims, clone_mixed_stack(rho.matrix[None])[0])


def iterate(alpha: float, n_steps: int) -> IterationTrace:
    """Trace of measures over ``n_steps`` repeated non-local cloning steps.

    Step 0 is the pure two-corner input at ``alpha``; each later step
    clones the previous output through the spectral route.  ``n_steps``
    runs from 1 to ``MAX_STEPS``.
    """
    n_steps = int(n_steps)
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"n_steps must be between 1 and {MAX_STEPS}, got {n_steps}")
    alpha = float(alpha)
    rho = input_state(alpha).density_matrix()
    steps = [_record(0, rho)]
    for k in range(1, n_steps + 1):
        rho = clone_mixed_nonlocal(rho)
        steps.append(_record(k, rho))
    return IterationTrace(alpha=alpha, steps=steps)


def _record(step: int, rho: DensityMatrix) -> IterationStep:
    report = measures(rho)
    return IterationStep(step=step, e3=report.e3, e2=report.e2[(1, 2)], rho=rho)
