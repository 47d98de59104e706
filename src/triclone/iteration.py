"""Repeated non-local cloning via spectral decomposition of the previous output.

A mixed output cannot be fed to the cloner directly; it is diagonalized
and each eigenvector is cloned separately, then the results are remixed
with the eigenvalue weights.  Channel linearity makes this identical to
applying the channel to the mixed state, which is enforced as a hard
cross-check (it also proves the result does not depend on the basis chosen
inside degenerate eigenspaces).

``spectral_trajectory`` is the one path through the route, for any
validated stack (m, 8, 8) of states and any number of steps.  Each step is
one ``_spectral_mix`` over the whole stack, which is unvalidated: one
``eig_hermitian`` call, one channel ``map`` over all 8m eigenprojectors
and one reduction that remixes them, weights descending and zero where
negligible.  After the last step the route validates what it created,
each state once: every projector, then every clone, then, once the
spectral route has been checked against the direct channel outputs, the
later steps and those outputs as one stack.  ``iterate`` runs it on the
two-corner input at one angle, and the verification suite on blocks of
random states.  Each state comes out bit for bit as it would alone.
"""

from __future__ import annotations

import numpy as np

from .cloners import nonlocal_channel
from .entanglement import input_states, measure_stack
from .linalg import as_index, check_density_matrices, eig_hermitian, max_abs

EIGENVALUE_CUTOFF = 1e-12
ROUTE_AGREEMENT_ATOL = 1e-12
MAX_STEPS = 12


def spectral_trajectory(rhos: np.ndarray, n_steps: int):
    """Spectral-route trajectory of a validated stack of states (m, 8, 8).

    Step 0 is ``rhos``, which the caller validates, as callers of
    ``CompiledChannel.map`` do; each of the ``n_steps`` later steps clones
    the previous one.  Eigenvectors with weight not above
    ``EIGENVALUE_CUTOFF`` get weight zero, not skipped; the cutoff is
    immaterial because every step is checked against the direct channel
    output of the step before it.  Validates every projector and its clone,
    raises RuntimeError if any step deviates from its direct output by more
    than ``ROUTE_AGREEMENT_ATOL``, then validates steps 1..n and the direct
    outputs as one stack.  A faulty route raises RuntimeError at any step:
    the agreement check precedes that validation, and a ValueError from
    decomposing a state the route made (step 0 is the caller's) becomes one.
    Returns the trajectory (n_steps + 1, m, 8, 8) and the direct outputs
    (n_steps, m, 8, 8) of its steps 0..n-1.
    """
    states = np.empty((2 * n_steps + 1,) + rhos.shape, dtype=complex)
    trajectory, direct = states[: n_steps + 1], states[n_steps + 1 :]
    trajectory[0] = rhos
    projectors = np.empty((n_steps,) + rhos.shape + (8,), dtype=complex)
    clones = np.empty_like(projectors)
    for k in range(n_steps):
        try:
            trajectory[k + 1], projectors[k], clones[k] = _spectral_mix(trajectory[k])
        except ValueError as exc:
            raise RuntimeError(f"spectral-mixture route, step {k}: {exc}") from exc
    check_density_matrices(projectors)
    check_density_matrices(clones)
    direct[:] = nonlocal_channel().map(trajectory[:-1])
    residual = max_abs(trajectory[1:] - direct)
    if not residual <= ROUTE_AGREEMENT_ATOL:
        raise RuntimeError(
            f"spectral-mixture route deviates from direct channel "
            f"application by {residual:.3e}"
        )
    check_density_matrices(states[1:])
    return trajectory, direct


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


def iterate(alpha: float, n_steps: int):
    """Measures and states over ``n_steps`` repeated non-local cloning steps.

    Step 0 is the pure two-corner input at ``alpha``; each later step
    clones the previous output through the spectral route.  ``n_steps``
    is an integer from 1 to ``MAX_STEPS``.  Step 0 is validated here, the
    later steps by the route, and the trajectory measured once.  Returns the
    read-only ``(e3, e2, states)``: ``measure_stack``'s E3 (n+1,) and E2
    (n+1, 3) of the validated trajectory ``states`` (n+1, 8, 8), n =
    ``n_steps``, step 0 first; the three E2 columns coincide for the
    exchange-symmetric states this module produces.
    """
    n_steps = as_index(n_steps, "n_steps")
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"n_steps must be between 1 and {MAX_STEPS}, got {n_steps}")
    psi = input_states([alpha])
    rho = psi[:, :, None] * psi[:, None, :].conj()
    check_density_matrices(rho)
    states = spectral_trajectory(rho, n_steps)[0][:, 0]
    e3, e2, _, _ = measure_stack(states)
    for array in (e3, e2, states):
        array.flags.writeable = False
    return e3, e2, states
