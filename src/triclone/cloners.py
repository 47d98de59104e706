"""Symmetric universal cloning machines as isometries and channels.

Two cloning schemes act on a three-qubit register.  The local scheme runs
one qubit cloner on each qubit independently; the non-local scheme treats
the register as a single eight-dimensional system and clones it whole.
Both are represented as isometries from the input space into
original x copy x machine, which is exactly the sector the defining
transformations specify; no unitary completion is invented.

Each channel is compiled once, at first use, from its isometry into a
64 x 64 Liouville superoperator acting on row-major vec(rho); a channel
call is then one matrix-vector product and never forms the 512 x 512
joint state.  Compilation checks that the originals-side and copies-side
maps coincide, that the map preserves trace and that its Choi matrix is
positive, and keeps the residuals.  Because the two sides are proven
equal there, ``CompiledChannel.map`` gives one state per input: the
reduced state of the copies, which is also that of the originals.

``evaluate_states`` runs any channels, the measures and the fidelities over
a stack of pure inputs at once; ``evaluate`` runs both schemes on two-corner
inputs, and ``find_e2_crossings`` bisects the non-local E2 gap ``e2_gaps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entanglement import _check_stack_shape, input_states, measure_stack
from .linalg import (
    EIGENVALUE_FLOOR,
    HERMITIAN_ATOL,
    TRACE_ATOL,
    as_index,
    check_density_matrices,
    fidelities,
    kron_all,
    max_abs,
)

ISOMETRY_ATOL = 1e-12
OUTPUT_SYMMETRY_ATOL = 1e-12
CROSSING_BRACKET = 1e-6
_BISECTION_LEVELS = 4  # halvings of each crossing bracket per ``e2_gaps`` call
# Largest cloner dimension n: the (n, n, n, n) build takes 1 MiB at 16 and
# grows as n**4, so a large n is refused before anything is allocated.
MAX_CLONER_DIMENSION = 16
# Matrices per ``CompiledChannel.map`` call where callers split a stack.  A
# 256-point sweep block's largest temporary, its 768 KiB states, stays under
# the 1 MiB mmap threshold ``cli.main`` sets, and its traced heap peak (about
# 1.9 MiB) under half the 4 MiB trim threshold; 512 passes the mmap threshold.
MAP_BLOCK = 256


@dataclass(frozen=True)
class CompiledChannel:
    """A cloning channel as a 64 x 64 superoperator, with build-time residuals.

    ``superoperator[c * 8 + d, i * 8 + j]`` is the (c, d) entry of the
    output for the input matrix unit |i><j|, so the output is
    ``(superoperator @ rho.reshape(64)).reshape(8, 8)``.
    """

    superoperator: np.ndarray
    symmetry_gap: float
    trace_residual: float
    choi_hermitian_residual: float
    choi_min_eigenvalue: float

    def map(self, rhos: np.ndarray) -> np.ndarray:
        """Unvalidated outputs for a stack of input matrices (..., 8, 8).

        Only the shape is checked; callers validate the states.
        """
        _check_stack_shape(rhos)
        # matmul against (..., 64, 1) columns rounds each member the same way
        # whatever the stack size, so a stack of one equals a stack of many bit
        # for bit; vecs @ S.T does not.
        vecs = rhos.reshape(rhos.shape[:-2] + (64, 1))
        return np.matmul(self.superoperator, vecs).reshape(rhos.shape)


def compile_channel(tensor: np.ndarray) -> CompiledChannel:
    """Superoperator of an isometry tensor indexed [orig, copy, machine, in].

    The copies-side map traces out the originals and the machine, the
    originals-side map the copies and the machine.  Raises RuntimeError if
    the two maps differ, if the map does not preserve trace, or if its Choi
    matrix is not Hermitian positive semidefinite.
    """
    v = np.asarray(tensor, dtype=complex)
    _, n_copy, _, n_in = v.shape
    copies = np.einsum("ocmi,odmj->cdij", v, v.conj())
    originals = np.einsum("acmi,bcmj->abij", v, v.conj())
    gap = max_abs(originals - copies)
    if not gap <= OUTPUT_SYMMETRY_ATOL:
        raise RuntimeError(
            f"original and copy maps differ by {gap:.3e}; "
            "the cloner output should be symmetric"
        )
    trace_map = np.einsum("ccij->ij", copies)
    trace_residual = max_abs(trace_map - np.eye(n_in))
    if not trace_residual <= TRACE_ATOL:
        raise RuntimeError(
            f"map does not preserve trace (residual {trace_residual:.3e})"
        )
    choi = copies.transpose(0, 2, 1, 3).reshape(n_copy * n_in, n_copy * n_in)
    herm = max_abs(choi - choi.conj().T)
    if not herm <= HERMITIAN_ATOL:
        raise RuntimeError(f"Choi matrix is not Hermitian (residual {herm:.3e})")
    smallest = float(np.linalg.eigvalsh(choi)[0])
    if not smallest >= EIGENVALUE_FLOOR:
        raise RuntimeError(
            f"Choi matrix is not positive semidefinite (min eigenvalue {smallest:.3e})"
        )
    superoperator = np.ascontiguousarray(copies.reshape(n_copy * n_copy, n_in * n_in))
    superoperator.setflags(write=False)
    return CompiledChannel(
        superoperator=superoperator,
        symmetry_gap=gap,
        trace_residual=trace_residual,
        choi_hermitian_residual=herm,
        choi_min_eigenvalue=smallest,
    )


def nonlocal_isometry(n: int) -> np.ndarray:
    """Universal symmetric cloner of one n-dimensional system, read-only (n^3, n).

    Column i sends basis state i to
    c |i,i,i> + d * sum_{j != i} (|i,j> + |j,i>) |j>
    over original x copy x machine, with c^2 = 2/(n+1) and
    d^2 = 1/(2(n+1)); the machine basis is the computational one.  Raises
    ValueError if n is not an integer from 2 to ``MAX_CLONER_DIMENSION`` or
    if V+V deviates from the identity by more than ``ISOMETRY_ATOL``.
    """
    n = as_index(n, "cloner dimension")
    if not 2 <= n <= MAX_CLONER_DIMENSION:
        raise ValueError(
            f"cloner dimension must be between 2 and {MAX_CLONER_DIMENSION}, got {n}"
        )
    return _isometry(n)


@lru_cache(maxsize=None)
def _isometry(n: int) -> np.ndarray:
    c = math.sqrt(2.0 / (n + 1))
    d = math.sqrt(1.0 / (2.0 * (n + 1)))
    k = np.arange(n)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    v = np.zeros((n, n, n, n), dtype=complex)
    v[k, k, k, k] = c
    v[i, j, j, i] = v[j, i, j, i] = d
    v = v.reshape(n**3, n)
    residual = max_abs(v.conj().T @ v - np.eye(n))
    if not residual <= ISOMETRY_ATOL:
        raise ValueError(f"map is not an isometry (V+V residual {residual:.3e})")
    # Isometries are shared through the cache; freeze them.
    v.setflags(write=False)
    return v


# Keyed on the int ``as_index`` returns, so an np.int64 n hits the entry of n.
nonlocal_isometry.cache_info = _isometry.cache_info


@lru_cache(maxsize=1)
def local_channel() -> CompiledChannel:
    """The local scheme compiled from the 8 -> 512 register isometry.

    The register isometry applies the qubit cloner ``nonlocal_isometry(2)``,
    the n = 2 member of the family the non-local scheme uses at n = 8, to
    each qubit.  Its nine output qubits are permuted from (orig1, copy1,
    mach1, ..., mach3) into (orig1, orig2, orig3, copy1, ..., mach3) so
    that the tensor reads [orig, copy, machine, in] with eight-dimensional
    sides.
    """
    v = nonlocal_isometry(2)
    register = kron_all([v, v, v]).reshape((2,) * 9 + (8,))
    tensor = register.transpose(0, 3, 6, 1, 4, 7, 2, 5, 8, 9).reshape(8, 8, 8, 8)
    return compile_channel(tensor)


@lru_cache(maxsize=1)
def nonlocal_channel() -> CompiledChannel:
    """The non-local scheme compiled from the eight-dimensional cloner."""
    return compile_channel(nonlocal_isometry(8).reshape(8, 8, 8, 8))


def evaluate_states(psis, channels):
    """Measures and fidelities of pure inputs ``psis`` (n, 8) under ``channels``.

    Returns ``(states, e3, e2, f)``: ``states`` (1 + k, n, 8, 8) holds the
    input projectors, then one output slab per channel; ``e3`` (1 + k, n) and
    ``e2`` (1 + k, n, 3) are their measures, ``f`` (k, n) the fidelities.
    Each slab is validated; each point and slab equals its call alone bit for
    bit.  Raises ValueError if ``psis`` is not (n, 8) or ``channels`` is empty.
    """
    psis = np.asarray(psis, dtype=complex)
    if psis.ndim != 2 or psis.shape[1] != 8:
        raise ValueError(f"expected amplitudes of shape (n, 8), got {psis.shape}")
    if len(channels) == 0:
        raise ValueError("evaluate_states needs at least one channel")
    # Validated per slab: over the whole buffer the cost per member grows.
    states = np.empty((1 + len(channels), len(psis), 8, 8), dtype=complex)
    rho_in, *outputs = states
    np.multiply(psis[:, :, None], psis[:, None, :].conj(), out=rho_in)
    check_density_matrices(rho_in)
    for channel, out in zip(channels, outputs):
        out[...] = channel.map(rho_in)
        check_density_matrices(out)
    e3, e2, *_ = measure_stack(states)
    f = np.stack([fidelities(psis, out) for out in outputs])
    return states, e3, e2, f


def evaluate(alphas):
    """``evaluate_states`` at two-corner ``alphas``, local then non-local channel.

    Shapes (3, n, 8, 8), (3, n), (3, n, 3) and (2, n); ValueError if no alpha.
    """
    psis = input_states(alphas)
    if len(psis) == 0:
        raise ValueError("evaluate needs at least one alpha")
    return evaluate_states(psis, (local_channel(), nonlocal_channel()))


def e2_gaps(cos_alphas):
    """E2_nonlocal - E2_input at each cos(alpha), one non-local call, shape (n,)."""
    psis = input_states([math.acos(x) for x in cos_alphas])
    _, _, e2, _ = evaluate_states(psis, (nonlocal_channel(),))
    return e2[1, :, 0] - e2[0, :, 0]


def _finite_gaps(gaps, xs):
    """``gaps``, the E2 gaps at ``xs``; RuntimeError if one is not finite."""
    if not np.isfinite(gaps).all():
        k = int(np.argmin(np.isfinite(gaps)))
        raise RuntimeError(f"E2 gap {gaps[k]} at cos(alpha)={xs[k]} is not finite")
    return gaps


def find_e2_crossings() -> tuple[float, float]:
    """Roots of E2_nonlocal(alpha) = E2_input(alpha) in cos(alpha) on (0, 1).

    Bisection on the simulated curves, each root bracketed to 1e-6, returned
    ascending; RuntimeError on a gap that is not finite.  One ``e2_gaps`` call
    takes both brackets' next ``_BISECTION_LEVELS`` halvings, each stopping once
    no wider than ``CROSSING_BRACKET``.  The non-local channel amplifies
    pairwise entanglement outside the returned window and degrades it inside.
    """
    ends = [0.0, math.sqrt(0.5), 1.0]
    f_ends = _finite_gaps(e2_gaps(ends), ends)
    brackets = []  # [lo, hi, whether the gap is positive at lo]
    for lo, hi, f_lo, f_hi in zip(ends, ends[1:], f_ends, f_ends[1:]):
        if f_lo == 0.0:
            hi = lo
        elif f_lo * f_hi > 0.0:
            raise RuntimeError(
                f"E2 crossing not bracketed on ({lo}, {hi}): "
                f"gap endpoints {f_lo:.3e}, {f_hi:.3e}"
            )
        brackets.append([lo, hi, f_lo > 0.0])
    nodes = 2**_BISECTION_LEVELS - 1
    while active := [b for b in brackets if b[1] - b[0] > CROSSING_BRACKET]:
        # Per bracket, a heap of the spans its next halvings can reach, each
        # halved as one halving per call would: span k into 2k + 1 and 2k + 2.
        heaps = [[(lo, hi)] for lo, hi, _ in active]
        for heap in heaps:
            for lo, hi in (heap[k] for k in range(nodes)):
                heap += [(lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)]
        xs = [0.5 * (lo + hi) for heap in heaps for lo, hi in heap[:nodes]]
        f_xs = _finite_gaps(e2_gaps(xs), xs).reshape(len(heaps), nodes)
        for bracket, heap, f_mids in zip(active, heaps, f_xs):
            k = 0
            while k < nodes and bracket[1] - bracket[0] > CROSSING_BRACKET:
                k = 2 * k + (2 if (f_mids[k] > 0.0) == bracket[2] else 1)
                bracket[:2] = heap[k]
    (lo1, hi1, _), (lo2, hi2, _) = brackets
    return 0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)
