"""Repeated non-local cloning, certified by spectral decomposition.

Each step is the non-local channel's output of the previous one.  The
spectral route certifies every step: it diagonalizes the state, clones each
eigenvector separately and remixes the results with the eigenvalue weights.
Channel linearity makes this identical to the channel applied to the mixed
state, which is enforced as a hard cross-check (it also proves the result
does not depend on the basis chosen inside degenerate eigenspaces).

``spectral_trajectory`` is the one path through the route, for any
validated stack (m, 8, 8) of states and any number of steps.  It chains
channel ``map`` calls over the stack, then runs the states of steps 0..n-1
through ``_spectral_mix`` in blocks of ``MAP_BLOCK // 8`` states, so that
one ``evaluate_states`` call clones at most ``MAP_BLOCK`` eigenvectors.  Per
block, ``_spectral_mix`` makes one ``eig_hermitian`` call, hands the
eigenvectors to ``evaluate_states``, which validates every projector and
every clone, and remixes the clones in one reduction, weights descending.
Once the mixtures have passed the agreement check against the trajectory,
the route validates that slice of the later steps and the mixtures as one
stack, and drops the mixtures.  It returns ``(trajectory, agreement)``, the
largest residual of that check.  ``iterate`` runs it at one angle, and the
verification suite on 100 random states.  Each state comes out bit for bit
as it would alone.
"""

from __future__ import annotations

import numpy as np

from .cloners import MAP_BLOCK, evaluate_states, nonlocal_channel
from .entanglement import input_states, measure_stack
from .linalg import as_index, check_density_matrices, eig_hermitian, max_abs, require

ROUTE_AGREEMENT_ATOL = 1e-12
MAX_STEPS = 12


def spectral_trajectory(rhos: np.ndarray, n_steps: int):
    """Channel trajectory of a validated stack of states (m, 8, 8), certified.

    Step 0 is ``rhos``, which the caller validates, as callers of
    ``CompiledChannel.map`` do; each of the ``n_steps`` later steps is the
    channel output of the one before.  The spectral route then clones the
    states of steps 0..n-1, ``MAP_BLOCK // 8`` per ``_spectral_mix`` call,
    whose ``evaluate_states`` call validates every projector and its clone.
    For each block it raises RuntimeError if a route output deviates from
    its step by more than ``ROUTE_AGREEMENT_ATOL``, then validates the
    block's later steps and route outputs as one stack.  A fault anywhere
    raises RuntimeError, a ValueError from any of these checks included.
    Returns the trajectory (n_steps + 1, m, 8, 8) and the agreement: the
    largest block residual, 0.0 if there is no block.
    """
    trajectory = np.empty((n_steps + 1,) + rhos.shape, dtype=complex)
    trajectory[0] = rhos
    for k in range(n_steps):
        trajectory[k + 1] = nonlocal_channel().map(trajectory[k])
    chain, later = (a.reshape(-1, 8, 8) for a in (trajectory[:-1], trajectory[1:]))
    block = MAP_BLOCK // 8  # each state has 8 eigenprojectors
    agreement = 0.0
    message = "spectral-mixture route deviates from direct channel "
    message += "application by {:.3e}"
    try:
        for s in range(0, len(chain), block):
            part = slice(s, s + block)
            mixed = _spectral_mix(chain[part])
            residual = max_abs(mixed - later[part])
            require(residual, ROUTE_AGREEMENT_ATOL, RuntimeError, message)
            check_density_matrices(np.concatenate([later[part], mixed]))
            agreement = max(agreement, residual)
    except ValueError as exc:
        raise RuntimeError(f"spectral-mixture route: {exc}") from exc
    return trajectory, agreement


def _spectral_mix(rhos: np.ndarray) -> np.ndarray:
    """Unvalidated mixtures (n, 8, 8) of the validated clones of each eigenvector."""
    weights, vectors = eig_hermitian(rhos)
    columns = vectors.swapaxes(-1, -2).reshape(-1, 8)
    clones = evaluate_states(columns, (nonlocal_channel(),))[1].reshape(-1, 8, 8, 8)
    # Reducing a non-inner axis adds the terms one by one, in descending-weight
    # order; a tensordot over the weights sums in another order.
    return np.add.reduce(weights[..., None, None] * clones, axis=1, initial=0.0)


def iterate(alpha: float, n_steps: int):
    """Measures and states over ``n_steps`` repeated non-local cloning steps.

    Step 0 is the pure two-corner input at ``alpha``; each later step is
    the channel output of the one before, certified by the spectral route.
    ``n_steps`` is an integer from 1 to ``MAX_STEPS``.  Step 0 is validated
    here, the later steps by the route, and the trajectory measured once.
    Returns the read-only ``(e3, e2, states)``: ``measure_stack``'s E3
    (n+1,) and E2 (n+1, 3) of the validated trajectory ``states``
    (n+1, 8, 8), n = ``n_steps``, step 0 first; the three E2 columns
    coincide for the exchange-symmetric states this module produces.
    """
    n_steps = as_index(n_steps, "n_steps")
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"n_steps must be between 1 and {MAX_STEPS}, got {n_steps}")
    rho = evaluate_states(input_states([alpha]), ())[0]
    states = spectral_trajectory(rho, n_steps)[0][:, 0]
    e3, e2, _, _ = measure_stack(states)
    for array in (e3, e2, states):
        array.flags.writeable = False
    return e3, e2, states
