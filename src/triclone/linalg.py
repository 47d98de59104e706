"""Dense complex linear algebra over small tensor-product spaces.

States and operators are plain numpy arrays tagged with a tuple of
subsystem dimensions.  Subsystem 0 is the most significant factor of the
flattened index (big-endian), so for three qubits the ket |011> sits at
index 3.  Nothing in this module knows anything about physics beyond the
density-matrix axioms it validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Tolerance ladder used throughout the package: 1e-14 for algebraic
# identities on tiny matrices, 1e-12 for state/channel identities, 1e-10
# for eigendecomposition residuals.
HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
NORM_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# Distance kept between the Cholesky shift and the eigenvalue floor; it must
# exceed the factorization's backward error (about 1e-14 here) so that a
# certified matrix also passes the eigenvalue test.
PSD_CERTIFICATE_MARGIN = 1e-13


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Left-to-right Kronecker product, the first factor most significant."""
    factors = list(factors)
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def check_pure_states(amplitudes: np.ndarray) -> None:
    """Validate a stack of amplitude vectors (..., d) as normalized states.

    Each member must be finite and have unit norm within ``NORM_ATOL``;
    otherwise ValueError names the norm furthest from 1.  An empty stack
    has no invalid member and passes.
    """
    if math.prod(amplitudes.shape[:-1]) == 0:
        return
    if not np.isfinite(amplitudes).all():
        raise ValueError("amplitudes must be finite")
    norms = np.linalg.norm(amplitudes, axis=-1).ravel()
    off = np.abs(norms - 1.0)
    if off.max() > NORM_ATOL:
        raise ValueError(
            f"state norm {norms[off.argmax()]} is not 1 within {NORM_ATOL}"
        )


@dataclass
class PureState:
    """Normalized complex amplitude vector over a tensor-product space."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if any(d < 1 for d in self.dims):
            raise ValueError("subsystem dimensions must be positive")
        if self.amplitudes.size != int(np.prod(self.dims)):
            raise ValueError(
                f"amplitude vector of length {self.amplitudes.size} does not "
                f"match dims {self.dims}"
            )
        check_pure_states(self.amplitudes[None])

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density_matrix(self) -> "DensityMatrix":
        """Rank-one projector |psi><psi| as a validated density matrix."""
        return DensityMatrix(
            self.dims, np.outer(self.amplitudes, self.amplitudes.conj())
        )


def check_density_matrices(matrices: np.ndarray) -> None:
    """Validate a stack of square matrices (..., d, d) as density matrices.

    Each member must be finite, Hermitian within ``HERMITIAN_ATOL``, of unit
    trace within ``TRACE_ATOL`` and have no eigenvalue below
    ``EIGENVALUE_FLOOR``; otherwise ValueError names the worst residual.  An
    empty stack has no invalid member and passes.

    Positivity is first certified by one batched Cholesky factorization of
    the stack shifted by ``-EIGENVALUE_FLOOR - PSD_CERTIFICATE_MARGIN``.
    Success proves every eigenvalue exceeds ``EIGENVALUE_FLOOR + 9e-14``,
    because the backward error of the factorization of a unit-trace matrix
    with d <= 8 is at most about 1e-14, so the eigenvalue test would pass
    too.  If any member fails to factor, the eigenvalue test runs as the
    only judge, and its verdict and message are final.
    """
    if math.prod(matrices.shape[:-2]) == 0:
        return
    if not np.isfinite(matrices).all():
        raise ValueError("matrix entries must be finite")
    herm = np.abs(matrices - matrices.conj().swapaxes(-1, -2)).max()
    if herm > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
    tr = np.trace(matrices, axis1=-2, axis2=-1).ravel()
    off = np.abs(tr - 1.0)
    if off.max() > TRACE_ATOL:
        raise ValueError(f"trace {tr[off.argmax()]} is not 1 within {TRACE_ATOL}")
    shift = (-EIGENVALUE_FLOOR - PSD_CERTIFICATE_MARGIN) * np.eye(matrices.shape[-1])
    try:
        np.linalg.cholesky(matrices + shift)
    except np.linalg.LinAlgError:
        smallest = np.linalg.eigvalsh(matrices)[..., 0].min()
        if smallest < EIGENVALUE_FLOOR:
            raise ValueError(
                f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})"
            ) from None


@dataclass
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = int(np.prod(self.dims))
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match dims {self.dims}"
            )
        check_density_matrices(self.matrix[None])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or a stack (..., d, d) of them.

    Returns eigenvalues in descending order along the last axis and the
    matching orthonormal eigenvectors as columns.  A stack decomposes each
    member exactly as a call on that member alone would; an empty stack
    gives empty results.  Rejects input with any non-Hermitian member.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    residual = float(np.max(np.abs(h - h.conj().swapaxes(-1, -2)), initial=0.0))
    if residual > HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e})")
    values, vectors = np.linalg.eigh(h)
    return values[..., ::-1], vectors[..., ::-1]


def fidelity_pure(psi: PureState, rho: DensityMatrix) -> float:
    """Overlap <psi|rho|psi> of a density matrix with a pure reference state.

    The result is clamped onto [0, 1] only when it lies within 1e-12 of a
    boundary; anything further out signals invalid input and is returned
    as computed.
    """
    if psi.dim != rho.dim:
        raise ValueError(
            f"dimension mismatch: state dim {psi.dim}, matrix dim {rho.dim}"
        )
    return float(fidelities(psi.amplitudes[None], rho.matrix[None])[0])


def fidelities(psis: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """``fidelity_pure`` over stacks of amplitudes (n, d) and matrices (n, d, d)."""
    # Two einsums, not one: the three-operand form sums in another order.
    values = np.einsum("ni,ni->n", psis.conj(), np.einsum("nij,nj->ni", rhos, psis))
    bad = np.abs(values.imag) > 1e-12
    if np.any(bad):
        raise ValueError(f"overlap has non-real value {complex(values[bad][0])}")
    out = values.real
    out[(-1e-12 <= out) & (out < 0.0)] = 0.0
    out[(1.0 < out) & (out <= 1.0 + 1e-12)] = 1.0
    return out
