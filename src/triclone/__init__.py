"""Three-qubit entanglement under local and non-local universal cloning.

The package simulates, from the defining isometries, how the two-corner
family cos(alpha)|000> + sin(alpha)|111> loses its inter-three-qubit (E3)
and inter-two-qubit (E2) entanglement when cloned qubit-by-qubit or as a
whole register, including repeated cloning of the mixed outputs.
"""

from .cloners import (
    CloningIsometry,
    apply_local_cloning,
    apply_nonlocal_cloning,
    find_e2_crossings,
    local_isometry,
    nonlocal_isometry,
)
from .entanglement import EntanglementReport, correlations, input_state, measures
from .iteration import (
    IterationStep,
    IterationTrace,
    clone_mixed_nonlocal,
    iterate,
)
from .linalg import DensityMatrix, PureState, eig_hermitian, fidelity_pure

__version__ = "0.1.0"

__all__ = [
    "CloningIsometry",
    "DensityMatrix",
    "EntanglementReport",
    "IterationStep",
    "IterationTrace",
    "PureState",
    "apply_local_cloning",
    "apply_nonlocal_cloning",
    "clone_mixed_nonlocal",
    "correlations",
    "eig_hermitian",
    "fidelity_pure",
    "find_e2_crossings",
    "input_state",
    "iterate",
    "local_isometry",
    "measures",
    "nonlocal_isometry",
]
