"""References the simulation is checked against.

Closed-form oracles for the two-corner family cos(alpha)|000> +
sin(alpha)|111>.  Each maps a sequence of alphas to one row per alpha,
the row a call on that alpha alone gives: (E3, E2) curves (n, 2), the
local fidelity (n,) and validated output stacks (n, 8, 8).  Only the
verification suite and the tests use them; no module that ``sweep`` or
``iterate`` loads imports this one, so the implementation never consults
them.  The joint-state partial trace with which the tests reduce
V rho V+ to check the compiled channels lives with the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import check_density_matrices


def _cos_sin(angles) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin (n,) of each angle by ``math``; numpy's may differ in a last bit."""
    cos = np.array([math.cos(a) for a in angles], dtype=float)
    sin = np.array([math.sin(a) for a in angles], dtype=float)
    return cos, sin


def closed_form_input_measures(alphas) -> np.ndarray:
    """Analytic (E3, E2) of the two-corner input states (n, 2).

    Must agree with ``measure_stack`` of the projectors of
    ``input_states(alphas)`` to 1e-12; the trace pipeline stays the source
    of truth.
    """
    c, s = _cos_sin([2.0 * a for a in alphas])
    s2, c2 = s * s, c * c
    return np.stack([s2 * (1.0 + s2 * c2), s2 * s2 / 3.0], axis=1)


def closed_form_local_outputs(alphas) -> np.ndarray:
    """Analytic local-cloning outputs at each alpha as one validated stack (n, 8, 8).

    The diagonal coefficients sum to 216/216 for every alpha.
    """
    ca, sa = _cos_sin(alphas)
    rho = np.zeros((len(ca), 8, 8), dtype=complex)
    rho[:, 0b000, 0b000] = (1.0 + 124.0 * ca * ca) / 216.0
    rho[:, 0b111, 0b111] = (1.0 + 124.0 * sa * sa) / 216.0
    rho[:, 0b000, 0b111] = rho[:, 0b111, 0b000] = 8.0 * sa * ca / 27.0
    for k, x in (((0b110, 0b011, 0b101), sa), ((0b100, 0b010, 0b001), ca)):
        rho[:, k, k] = ((5.0 + 20.0 * x * x) / 216.0)[:, None]
    check_density_matrices(rho)
    return rho


def closed_form_nonlocal_outputs(alphas) -> np.ndarray:
    """Analytic non-local-cloning outputs at each alpha as one validated stack."""
    ca, sa = _cos_sin(alphas)
    rho = np.zeros((len(ca), 8, 8), dtype=complex)
    rho[:, 0b000, 0b000] = (1.0 + 10.0 * ca * ca) / 18.0
    rho[:, 0b111, 0b111] = (1.0 + 10.0 * sa * sa) / 18.0
    rho[:, 0b000, 0b111] = rho[:, 0b111, 0b000] = 5.0 * sa * ca / 9.0
    rho[:, 1:7, 1:7] = np.eye(6) / 18.0  # the six single/double excitations
    check_density_matrices(rho)
    return rho


def closed_form_local_measures(alphas) -> np.ndarray:
    """Analytic (E3, E2) of the local-cloning outputs (n, 2)."""
    c, s = _cos_sin([2.0 * a for a in alphas])
    s2, c2 = s * s, c * c
    e3 = (64.0 / 729.0) * s2 * (1.0 + s2 * c2)
    return np.stack([e3, (16.0 / 243.0) * s2 * s2], axis=1)


def closed_form_nonlocal_measures(alphas) -> np.ndarray:
    """Analytic (E3, E2) of the non-local-cloning outputs (n, 2)."""
    c, s = _cos_sin([2.0 * a for a in alphas])
    s2, c2 = s * s, c * c
    t3, t2 = 1.0 - (25.0 / 27.0) * c2, 1.0 - (5.0 / 9.0) * c2
    e3 = (25.0 / 81.0) * s2 + (25.0 / 729.0) * (t3 * t3) * c2
    return np.stack([e3, (25.0 / 243.0) * (t2 * t2)], axis=1)


def fidelity_local(alphas) -> np.ndarray:
    """Analytic overlaps of the local-cloning outputs with their inputs (n,)."""
    c, s = _cos_sin(alphas)
    sc = s * c
    return 125.0 / 216.0 - (15.0 / 27.0) * sc * sc


def fidelity_nonlocal() -> float:
    """Overlap of the non-local output with its input; input-independent."""
    return 11.0 / 18.0
