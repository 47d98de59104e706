"""Coherence vectors, correlation tensors, and the E3/E2 measures.

All quantities are computed numerically from the density matrix via trace
expectations of one stack of 63 three-qubit operators: 9 single-qubit, 27
pair and 27 triple products, taken together as one matrix product of the
flattened density matrices with the flattened operator stack.  The closed
forms they are checked against live in ``triclone.reference``.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import check_pure_states, kron_all, max_abs

QUBITS = (1, 2, 3)
PAIRS = ((1, 2), (2, 3), (1, 3))

MEASURE_CEILING = 1.0 + 1e-10
COMPONENT_CEILING = 1.0 + 1e-12

_SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
# The third operator carries diag(-1, +1): the sign is pinned so the
# two-corner family gets lambda_3 = -cos(2*alpha), and the whole triple is
# then locked in by the correlation-component tests.
_SIGMA_3 = np.array([[-1, 0], [0, 1]], dtype=complex)
_SIGMAS = (_SIGMA_1, _SIGMA_2, _SIGMA_3)
_I2 = np.eye(2, dtype=complex)


def _embed(ops: dict[int, np.ndarray]) -> np.ndarray:
    """Three-qubit operator with ``ops[q]`` on 0-based qubit q, identity elsewhere."""
    return kron_all(ops.get(q, _I2) for q in range(3))


# All 63 operators in one stack: 9 single (by qubit), 27 pair (in PAIRS
# order), 27 triple.
_ALL_OPS = np.stack(
    [_embed({m - 1: a}) for m in QUBITS for a in _SIGMAS]
    + [
        _embed({m - 1: a, n - 1: b})
        for m, n in PAIRS
        for a in _SIGMAS
        for b in _SIGMAS
    ]
    + [_embed({0: a, 1: b, 2: c}) for a in _SIGMAS for b in _SIGMAS for c in _SIGMAS]
)
# Tr(rho O_k) = sum_pq rho[p, q] O_k[q, p], so the expectations are
# rho.reshape(64) @ _EXPECTATION_MATRIX.  Each operator has exactly 8
# non-zero entries, all +-1 or +-i: every product is exact, the other 56
# terms add exact zeros, and the sum has the bits of the reference einsum
# "...pq,kqp->...k" (a test compares them with ==).
_EXPECTATION_MATRIX = _ALL_OPS.transpose(2, 1, 0).reshape(64, 63)
_EXPECTATION_MATRIX.setflags(write=False)


def _check_stack_shape(rhos: np.ndarray) -> None:
    if rhos.shape[-2:] != (8, 8):
        raise ValueError(f"expected three-qubit matrices (..., 8, 8), got {rhos.shape}")


def _correlation_stack(rhos: np.ndarray):
    """Coherence vectors (..., 3, 3) and pair and triple tensors (..., 3, 3, 3).

    One matrix product gives Tr(rho O) of matrices (..., 8, 8) for every
    operator O in ``_ALL_OPS``; the only place that knows its 9/27/27 layout.
    """
    _check_stack_shape(rhos)
    # A contiguous copy of the real part, so the complex product, twice its
    # size, is freed here rather than held by views through the caller.
    values = np.ascontiguousarray(
        (rhos.reshape(rhos.shape[:-2] + (64,)) @ _EXPECTATION_MATRIX).real
    )
    shape = values.shape[:-1]
    lam = values[..., :9].reshape(shape + (3, 3))
    k2 = values[..., 9:36].reshape(shape + (3, 3, 3))
    k3 = values[..., 36:].reshape(shape + (3, 3, 3))
    return lam, k2, k3


def _check_norms(lams: np.ndarray) -> None:
    """Norm check of coherence vectors (..., 3)."""
    norm = float(np.sqrt((lams * lams).sum(axis=-1)).max(initial=0.0))
    if not norm <= COMPONENT_CEILING:
        raise ValueError(f"coherence vector norm {norm} exceeds 1")


def _check_measures(e3: np.ndarray, e2: np.ndarray) -> None:
    """Range check of E3 (...,) and of E2 (..., 3), columns in ``PAIRS`` order."""
    values = np.concatenate([e3[None], e2.transpose(-1, *range(e3.ndim))])
    ok = (0.0 <= values) & (values <= MEASURE_CEILING)
    if not ok.all():
        first = tuple(np.argwhere(~ok)[0])
        name = ("E3", *(f"E2{p}" for p in PAIRS))[first[0]]
        raise ValueError(f"{name} value {values[first]} outside [0, 1]")


def correlations(rhos: np.ndarray):
    """Coherence vectors and correlation tensors of three-qubit states (..., 8, 8).

    Returns ``lam`` (..., 3, 3) with rows in ``QUBITS`` order, the pair
    tensors K_ij(m, n) as ``k2`` (..., 3, 3, 3) with slabs in ``PAIRS``
    order, and the triple tensor K_ijk as ``k3`` (..., 3, 3, 3).  Raises
    ValueError if a coherence vector is longer than 1 or a correlation
    entry exceeds 1.
    """
    lam, k2, k3 = _correlation_stack(rhos)
    _check_norms(lam)
    top = max_abs(k2, k3)
    if not top <= COMPONENT_CEILING:
        raise ValueError(f"correlation entry {top} exceeds 1")
    return lam, k2, k3


def measure_stack(rhos: np.ndarray):
    """E3 (...,) and E2 (..., 3) of a stack of three-qubit matrices (..., 8, 8).

    Also returns the tensors they are built from: M2 (..., 3, 3, 3), the
    slabs K_ij(m,n) - lambda_i(m) lambda_j(n), and M3, which removes the
    three coherence-weighted M2 terms and the rank-one coherence product
    from K_ijk.  The M2 slabs and the E2 columns follow ``PAIRS``, like
    the K2 slabs of ``correlations``.  Checks every coherence vector norm
    and every E3 and E2 range.
    """
    lam, k2, k3 = _correlation_stack(rhos)
    _check_norms(lam)
    # Stack-last copies, so that each product below runs one inner loop over
    # the whole stack per tensor entry rather than one per member over three
    # entries; every entry is the same product or difference either way.
    n = lam.ndim - 2  # stack axes; transpose skips np.moveaxis's Python overhead
    lam_t = lam.transpose(n, n + 1, *range(n)).copy()
    m2, m3 = (k.transpose(n, n + 1, n + 2, *range(n)).copy() for k in (k2, k3))
    del lam, k2, k3  # the expectations, freed before the products allocate
    m2 -= lam_t[[0, 1, 0], :, None] * lam_t[[1, 2, 2], None, :]
    # M3 = K3 - l1 M2_23 - l2 M2_13 - l3 M2_12 - (l1 l2) l3, subtracted in
    # this order, each term a broadcast product into one buffer.
    l1, l2, l3 = lam_t
    term = np.empty_like(m3)
    np.multiply(l1[:, None, None], m2[1][None], out=term)
    m3 -= term
    np.multiply(l2[None, :, None], m2[2][:, None, :], out=term)
    m3 -= term
    np.multiply(l3[None, None, :], m2[0][:, :, None], out=term)
    m3 -= term
    np.multiply(l1[:, None, None], l2[None, :, None], out=term)
    term *= l3[None, None, :]
    m3 -= term
    # Member-first again, so that the sums below reduce each member's
    # contiguous entries in the order they always have.
    m2, m3 = (m.transpose(*range(3, 3 + n), 0, 1, 2).copy() for m in (m2, m3))
    e3 = 0.25 * (m3 * m3).sum(axis=(-3, -2, -1))
    e2 = (m2 * m2).sum(axis=(-2, -1)) / 3.0
    _check_measures(e3, e2)
    return e3, e2, m2, m3


def input_states(alphas) -> np.ndarray:
    """Two-corner states cos(alpha)|000> + sin(alpha)|111> as amplitudes (n, 8).

    One row per alpha, validated by ``check_pure_states``, from ``math.cos``
    and ``math.sin`` (numpy's may differ in the last bit).  Raises TypeError
    if an alpha is a bool or no real number, ValueError if it is not finite.
    """
    for a in alphas:
        if isinstance(a, (bool, np.bool_)):
            raise TypeError(f"alpha must be a real number, got {a!r}")
        if not math.isfinite(a):
            raise ValueError("alpha must be finite")
    amplitudes = np.zeros((len(alphas), 8), dtype=complex)
    amplitudes[:, 0] = [math.cos(a) for a in alphas]
    amplitudes[:, 7] = [math.sin(a) for a in alphas]
    check_pure_states(amplitudes)
    return amplitudes
