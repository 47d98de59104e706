"""Dense complex linear algebra over small tensor-product spaces.

States are plain numpy arrays, stacked along leading axes: amplitudes
(..., d) and density matrices (..., d, d).  Subsystem 0 is the most
significant factor of the flattened index (big-endian), so for three
qubits the ket |011> sits at index 3.  Nothing in this module knows
anything about physics beyond the density-matrix axioms it validates.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
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


def as_index(value, name: str) -> int:
    """``value`` as an int if ``operator.index`` accepts it and it is no bool.

    Anything else, such as a bool, a float or a string, raises ValueError
    naming ``name`` and the value rather than being truncated or parsed.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def max_abs(*arrays) -> float:
    """Residual norm: largest |entry| over ``arrays``, 0.0 if empty, NaN if any is."""
    return float(reduce(np.maximum, (np.abs(a).max(initial=0.0) for a in arrays)))


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of stacks (..., r, c), the first factor most significant.

    One broadcast product per factor, left to right: stacks of factors give
    the stack of their members' products, and each entry is the product of
    factor entries that ``np.kron`` forms, bit for bit.  Raises ValueError
    if there is no factor.
    """
    factors = iter(factors)
    try:
        out = np.asarray(next(factors), dtype=complex)
    except StopIteration:
        raise ValueError("kron_all needs at least one factor") from None
    for f in factors:
        f = np.asarray(f, dtype=complex)
        prod = out[..., :, None, :, None] * f[..., None, :, None, :]
        *stack, r1, r2, c1, c2 = prod.shape
        out = prod.reshape(*stack, r1 * r2, c1 * c2)
    return out


def check_pure_states(amplitudes: np.ndarray) -> None:
    """Validate a stack of amplitude vectors (..., d) as normalized states.

    Each member must be finite and have unit norm within ``NORM_ATOL``;
    otherwise ValueError names the norm furthest from 1.  An empty stack
    passes; input with no amplitude axis raises ValueError, even a scalar.
    """
    if np.ndim(amplitudes) < 1:
        shape = np.shape(amplitudes)
        raise ValueError(f"expected amplitudes (..., d), got shape {shape}")
    if math.prod(amplitudes.shape[:-1]) == 0:
        return
    if not np.isfinite(amplitudes).all():
        raise ValueError("amplitudes must be finite")
    norms = np.linalg.norm(amplitudes, axis=-1).ravel()
    off = np.abs(norms - 1.0)
    if not off.max() <= NORM_ATOL:
        raise ValueError(
            f"state norm {norms[off.argmax()]} is not 1 within {NORM_ATOL}"
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
    only judge, and its verdict and message are final.  Raises ValueError
    if the last two axes are not a square matrix, whatever the stack size.
    """
    if matrices.ndim < 2 or matrices.shape[-1] != matrices.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {matrices.shape}")
    if math.prod(matrices.shape[:-2]) == 0:
        return
    if not np.isfinite(matrices).all():
        raise ValueError("matrix entries must be finite")
    # One work buffer holds the Hermitian residual, then the shifted matrices.
    work = np.empty(matrices.shape, np.result_type(matrices, np.float64))
    np.conjugate(matrices.swapaxes(-1, -2), out=work)
    np.subtract(matrices, work, out=work)
    herm = max_abs(work)
    if not herm <= HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
    tr = np.trace(matrices, axis1=-2, axis2=-1).ravel()
    off = np.abs(tr - 1.0)
    if not off.max() <= TRACE_ATOL:
        raise ValueError(f"trace {tr[off.argmax()]} is not 1 within {TRACE_ATOL}")
    d = matrices.shape[-1]
    np.copyto(work, matrices)
    diagonal = work.reshape(-1, d * d)[:, :: d + 1]
    diagonal += -EIGENVALUE_FLOOR - PSD_CERTIFICATE_MARGIN
    try:
        np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        smallest = np.linalg.eigvalsh(matrices)[..., 0].min()
        if not smallest >= EIGENVALUE_FLOOR:
            raise ValueError(
                f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})"
            ) from None


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
    residual = max_abs(h - h.conj().swapaxes(-1, -2))
    if not residual <= HERMITIAN_ATOL:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e})")
    values, vectors = np.linalg.eigh(h)
    return values[..., ::-1], vectors[..., ::-1]


def fidelities(psis: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Overlaps <psi|rho|psi> of amplitudes (n, d) with matrices (n, d, d), pairwise.

    Raises ValueError if the amplitudes are not (n, d), if the shapes do not
    pair up or if an overlap has an imaginary part above 1e-12.  A value is
    clamped onto [0, 1] only when it lies within 1e-12 of a boundary;
    anything further out signals invalid input and is returned as computed.
    """
    if psis.ndim != 2:
        raise ValueError(f"expected amplitudes (n, d), got shape {psis.shape}")
    if rhos.shape != psis.shape + psis.shape[-1:]:
        raise ValueError(
            f"dimension mismatch: amplitudes {psis.shape}, matrices {rhos.shape}"
        )
    # Two einsums, not one: the three-operand form sums in another order.
    values = np.einsum("ni,ni->n", psis.conj(), np.einsum("nij,nj->ni", rhos, psis))
    bad = ~(np.abs(values.imag) <= 1e-12)
    if np.any(bad):
        raise ValueError(f"overlap has non-real value {complex(values[bad][0])}")
    out = values.real
    out[(-1e-12 <= out) & (out < 0.0)] = 0.0
    out[(1.0 < out) & (out <= 1.0 + 1e-12)] = 1.0
    return out
