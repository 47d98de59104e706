"""References the simulation is checked against.

The closed-form oracles for the two-corner family cos(alpha)|000> +
sin(alpha)|111>, whose output states come as stacks over many alphas
(``closed_form_local_outputs``, ``closed_form_nonlocal_outputs``).  Only
the verification suite and the tests use them; no module that ``sweep``
or ``iterate`` loads imports this one, so the implementation never
consults them.  The joint-state partial trace with which the tests reduce
V rho V+ to check the compiled channels lives with the tests.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .linalg import check_density_matrices


def closed_form_input_measures(alpha: float) -> tuple[float, float]:
    """Analytic (E3, E2) of the two-corner input state.

    Must agree with ``measure_stack`` of the projector of
    ``input_states([alpha])`` to 1e-12; the trace pipeline stays the source
    of truth.
    """
    s2 = math.sin(2.0 * alpha) ** 2
    c2 = math.cos(2.0 * alpha) ** 2
    e3 = s2 * (1.0 + s2 * c2)
    e2 = s2 * s2 / 3.0
    return e3, e2


def _local_output_matrix(alpha: float) -> np.ndarray:
    ca, sa = math.cos(alpha), math.sin(alpha)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0b000, 0b000] = (1.0 + 124.0 * ca * ca) / 216.0
    rho[0b111, 0b111] = (1.0 + 124.0 * sa * sa) / 216.0
    rho[0b000, 0b111] = rho[0b111, 0b000] = 8.0 * sa * ca / 27.0
    for k in (0b110, 0b011, 0b101):
        rho[k, k] = (5.0 + 20.0 * sa * sa) / 216.0
    for k in (0b100, 0b010, 0b001):
        rho[k, k] = (5.0 + 20.0 * ca * ca) / 216.0
    return rho


def _nonlocal_output_matrix(alpha: float) -> np.ndarray:
    ca, sa = math.cos(alpha), math.sin(alpha)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0b000, 0b000] = (1.0 + 10.0 * ca * ca) / 18.0
    rho[0b111, 0b111] = (1.0 + 10.0 * sa * sa) / 18.0
    rho[0b000, 0b111] = rho[0b111, 0b000] = 5.0 * sa * ca / 9.0
    for k in (0b110, 0b011, 0b101, 0b100, 0b010, 0b001):
        rho[k, k] = 1.0 / 18.0
    return rho


def _validated_stack(matrices: Iterable[np.ndarray]) -> np.ndarray:
    stack = np.array(list(matrices))
    check_density_matrices(stack)
    return stack


def closed_form_local_outputs(alphas: Iterable[float]) -> np.ndarray:
    """Analytic local-cloning outputs at each alpha as one stack (n, 8, 8).

    Diagonal coefficients sum to 216/216 for every alpha; the stack is
    validated once.
    """
    return _validated_stack(_local_output_matrix(a) for a in alphas)


def closed_form_nonlocal_outputs(alphas: Iterable[float]) -> np.ndarray:
    """Analytic non-local-cloning outputs at each alpha as one stack (n, 8, 8)."""
    return _validated_stack(_nonlocal_output_matrix(a) for a in alphas)


def closed_form_local_measures(alpha: float) -> tuple[float, float]:
    """Analytic (E3, E2) of the local-cloning output."""
    s2 = math.sin(2.0 * alpha) ** 2
    c2 = math.cos(2.0 * alpha) ** 2
    e3 = (64.0 / 729.0) * s2 * (1.0 + s2 * c2)
    e2 = (16.0 / 243.0) * s2 * s2
    return e3, e2


def closed_form_nonlocal_measures(alpha: float) -> tuple[float, float]:
    """Analytic (E3, E2) of the non-local-cloning output."""
    s2 = math.sin(2.0 * alpha) ** 2
    c2 = math.cos(2.0 * alpha) ** 2
    e3 = (25.0 / 81.0) * s2 + (25.0 / 729.0) * (1.0 - (25.0 / 27.0) * c2) ** 2 * c2
    e2 = (25.0 / 243.0) * (1.0 - (5.0 / 9.0) * c2) ** 2
    return e3, e2


def fidelity_local(alpha: float) -> float:
    """Analytic overlap of the local-cloning output with its input state."""
    sc = math.sin(alpha) * math.cos(alpha)
    return 125.0 / 216.0 - (15.0 / 27.0) * sc * sc


def fidelity_nonlocal() -> float:
    """Overlap of the non-local output with its input; input-independent."""
    return 11.0 / 18.0

