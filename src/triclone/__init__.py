"""Three-qubit entanglement under local and non-local universal cloning.

The package simulates, from the defining isometries, how the two-corner
family cos(alpha)|000> + sin(alpha)|111> loses its inter-three-qubit (E3)
and inter-two-qubit (E2) entanglement when cloned qubit-by-qubit or as a
whole register, including repeated cloning of the mixed outputs.
"""

from .cloners import (
    evaluate,
    find_e2_crossings,
    local_channel,
    nonlocal_channel,
    nonlocal_isometry,
)
from .entanglement import correlations, input_states, measure_stack
from .iteration import iterate
from .linalg import check_density_matrices, fidelities

__version__ = "0.1.0"

__all__ = [
    "check_density_matrices",
    "correlations",
    "evaluate",
    "fidelities",
    "find_e2_crossings",
    "input_states",
    "iterate",
    "local_channel",
    "measure_stack",
    "nonlocal_channel",
    "nonlocal_isometry",
]
