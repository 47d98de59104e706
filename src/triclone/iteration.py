"""Repeated non-local cloning via spectral decomposition of the previous output.

A mixed output cannot be fed to the cloner directly; it is diagonalized
and each eigenvector is cloned separately (all of them in one batched
channel call), then the results are remixed with the eigenvalue weights.
Channel linearity makes this identical to applying the channel to the
mixed state, which is enforced as a hard cross-check on every call (it
also proves the result does not depend on the basis chosen inside
degenerate eigenspaces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloners import nonlocal_channel
from .entanglement import input_state, measures
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


def clone_mixed_nonlocal(rho: DensityMatrix) -> DensityMatrix:
    """Non-local cloning of a mixed state through its eigenvectors.

    Eigenvectors with weight below 1e-12 are skipped; the cutoff is
    immaterial because the result is checked against the direct channel
    application to 1e-12.
    """
    channel = nonlocal_channel()
    weights, vectors = eig_hermitian(rho.matrix)
    kept = weights > EIGENVALUE_CUTOFF
    columns = vectors[:, kept].T
    projectors = columns[:, :, None] * columns[:, None, :].conj()
    check_density_matrices(projectors)
    outputs = channel.map(projectors)
    check_density_matrices(outputs)
    mixed = np.zeros_like(rho.matrix)
    # Sequential remix: a tensordot over the weights sums in another order.
    for weight, output in zip(weights[kept], outputs):
        mixed = mixed + weight * output
    direct = channel.apply(rho).matrix
    residual = float(np.max(np.abs(mixed - direct)))
    if residual > ROUTE_AGREEMENT_ATOL:
        raise RuntimeError(
            f"spectral-mixture route deviates from direct channel "
            f"application by {residual:.3e}"
        )
    return DensityMatrix(rho.dims, mixed)


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
