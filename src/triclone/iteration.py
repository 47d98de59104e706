"""Repeated non-local cloning via spectral decomposition of the previous output.

A mixed output cannot be fed to the cloner directly; it is diagonalized
and each eigenvector is cloned separately, then the results are remixed
with the eigenvalue weights.  Channel linearity makes this identical to
applying the channel to the mixed state, which is enforced as a hard
cross-check (it also proves the result does not depend on the basis chosen
inside degenerate eigenspaces).

The route has two halves.  ``_spectral_mix`` is unvalidated: for a stack
(n, 8, 8) of states it makes one ``eig_hermitian`` call, clones all 8n
eigenprojectors in one channel ``map`` and remixes them in one reduction,
weights descending and zero where negligible.  ``_certify`` validates the
projectors and their clones, maps the inputs directly, checks the residual
between the two routes and validates the direct outputs.
``clone_mixed_stack`` runs one half after the other; the verification
suite calls it with blocks of states.  ``iterate`` runs one
``_spectral_mix`` per step, since each step clones the previous spectral
output, then one ``_certify``, one validation and one ``measure_stack``
over the whole trajectory.  Each state comes out bit for bit as it would
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloners import nonlocal_channel
from .entanglement import input_states, measure_stack
from .linalg import as_index, check_density_matrices, eig_hermitian

EIGENVALUE_CUTOFF = 1e-12
ROUTE_AGREEMENT_ATOL = 1e-12
MAX_STEPS = 12


@dataclass
class IterationTrace:
    """Measures and states along a sequence of cloning steps, step 0 first.

    ``e3`` (n+1,) and ``e2`` (n+1, 3) are the read-only ``measure_stack``
    outputs of ``states``, the validated, read-only (n+1, 8, 8) trajectory
    of n steps; E2 columns follow ``PAIRS``, and all three coincide for the
    exchange-symmetric states this module produces.
    """

    e3: np.ndarray
    e2: np.ndarray
    states: np.ndarray


def clone_mixed_stack(rhos: np.ndarray) -> np.ndarray:
    """Spectral-route non-local clones of a stack of states (n, 8, 8).

    Eigenvectors with weight not above ``EIGENVALUE_CUTOFF`` get weight
    zero, not skipped; the cutoff is immaterial because each result is
    checked against the direct channel application to 1e-12.  All 8n
    projectors and their clones are validated; the returned mixtures are
    not, so callers validate them.
    """
    mixed, projectors, clones = _spectral_mix(rhos)
    _certify(rhos, mixed, projectors, clones)
    return mixed


def _spectral_mix(rhos: np.ndarray):
    """Unvalidated spectral route of a stack (n, 8, 8).

    Returns the mixtures (n, 8, 8) and all eigenprojectors and their clones,
    each (n, 8, 8, 8), weights descending along axis 1.
    """
    weights, vectors = eig_hermitian(rhos)
    columns = vectors.swapaxes(-1, -2)
    projectors = columns[..., :, None] * columns[..., None, :].conj()
    outputs = nonlocal_channel().map(projectors)
    # Weights not above the cutoff become 0; their terms add +-0.0 to a sum
    # that starts at +0.0, which a sum of non-zero terms never rounds to -0.0.
    w = np.where(weights > EIGENVALUE_CUTOFF, weights, 0.0)
    # Reducing a non-inner axis adds the terms one by one, in descending-weight
    # order; a tensordot over the weights sums in another order.
    mixed = np.add.reduce(w[..., None, None] * outputs, axis=1, initial=0.0)
    return mixed, projectors, outputs


def _certify(
    rhos: np.ndarray, mixed: np.ndarray, projectors: np.ndarray, clones: np.ndarray
) -> None:
    """Hard checks of the spectral route of ``rhos`` against the direct one.

    Validates the projectors and their clones, then raises RuntimeError if
    any mixture deviates from the direct channel output by more than
    ``ROUTE_AGREEMENT_ATOL``, then validates the direct outputs.  The
    residual comes before the direct outputs so that a faulty route is
    reported as such even when it has already fed an invalid state to a
    later step of a trajectory.
    """
    check_density_matrices(projectors)
    check_density_matrices(clones)
    direct = nonlocal_channel().map(rhos)
    residual = float(np.max(np.abs(mixed - direct), initial=0.0))
    if residual > ROUTE_AGREEMENT_ATOL:
        raise RuntimeError(
            f"spectral-mixture route deviates from direct channel "
            f"application by {residual:.3e}"
        )
    check_density_matrices(direct)


def iterate(alpha: float, n_steps: int) -> IterationTrace:
    """Trace of measures over ``n_steps`` repeated non-local cloning steps.

    Step 0 is the pure two-corner input at ``alpha``; each later step
    clones the previous output through the spectral route.  ``n_steps``
    is an integer from 1 to ``MAX_STEPS``.  The whole trajectory is certified and
    measured once, after the last step.
    """
    n_steps = as_index(n_steps, "n_steps")
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"n_steps must be between 1 and {MAX_STEPS}, got {n_steps}")
    states = np.empty((n_steps + 1, 8, 8), dtype=complex)
    psi = input_states([float(alpha)])
    np.multiply(psi[:, :, None], psi[:, None, :].conj(), out=states[:1])
    projectors = np.empty((n_steps, 8, 8, 8), dtype=complex)
    clones = np.empty_like(projectors)
    for k in range(n_steps):
        states[k + 1], projectors[k], clones[k] = _spectral_mix(states[k : k + 1])
    _certify(states[:-1], states[1:], projectors, clones)
    check_density_matrices(states)
    e3, e2, _, _ = measure_stack(states)
    for array in (e3, e2, states):
        array.flags.writeable = False
    return IterationTrace(e3=e3, e2=e2, states=states)
