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
positive, and keeps the residuals.

Wiring order for the local scheme: the nine output subsystems are kept in
the order (orig1, copy1, mach1, orig2, copy2, mach2, orig3, copy3, mach3)
and the reductions keep subsystem index sets {0,3,6} (originals) and
{1,4,7} (copies).  Any consistent order works; this one is fixed for
reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entanglement import input_state, measure_stack
from .linalg import (
    EIGENVALUE_FLOOR,
    HERMITIAN_ATOL,
    TRACE_ATOL,
    DensityMatrix,
    check_density_matrices,
    fidelities,
    kron_all,
)

ISOMETRY_ATOL = 1e-12
OUTPUT_SYMMETRY_ATOL = 1e-12
CROSSING_BRACKET = 1e-6


@dataclass
class CloningIsometry:
    """Inner-product-preserving map into original x copy x machine."""

    in_dim: int
    out_dims: tuple[int, int, int]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.in_dim = int(self.in_dim)
        self.out_dims = tuple(int(d) for d in self.out_dims)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        expected = (int(np.prod(self.out_dims)), self.in_dim)
        if self.matrix.shape != expected:
            raise ValueError(
                f"isometry shape {self.matrix.shape} does not match {expected}"
            )
        gram = self.matrix.conj().T @ self.matrix
        residual = float(np.max(np.abs(gram - np.eye(self.in_dim))))
        if residual > ISOMETRY_ATOL:
            raise ValueError(f"map is not an isometry (V+V residual {residual:.3e})")
        # Isometries are shared through a cache; freeze them.
        self.matrix.setflags(write=False)


@dataclass
class CloneOutput:
    """Reduced states of the originals and the copies after cloning.

    Symmetric cloners produce identical output sides: the two maps are
    checked equal when the channel is compiled, so both fields hold the
    same validated state.  ``joint_dim`` is the dimension of original x
    copy x machine that the isometry maps into.
    """

    originals: DensityMatrix
    copies: DensityMatrix
    joint_dim: int


@dataclass(frozen=True)
class CompiledChannel:
    """A cloning channel as a 64 x 64 superoperator, with build-time residuals.

    ``superoperator[c * 8 + d, i * 8 + j]`` is the (c, d) entry of the
    output for the input matrix unit |i><j|, so the output is
    ``(superoperator @ rho.reshape(64)).reshape(8, 8)``.
    """

    superoperator: np.ndarray
    joint_dim: int
    symmetry_gap: float
    trace_residual: float
    choi_hermitian_residual: float
    choi_min_eigenvalue: float

    def map(self, rhos: np.ndarray) -> np.ndarray:
        """Unvalidated outputs for a stack of input matrices (..., 8, 8)."""
        # matmul against (..., 64, 1) columns rounds each member the same way
        # whatever the stack size, so a stack of one equals a stack of many bit
        # for bit; vecs @ S.T does not.
        vecs = rhos.reshape(rhos.shape[:-2] + (64, 1))
        return np.matmul(self.superoperator, vecs).reshape(rhos.shape)

    def apply(self, rho_in: DensityMatrix) -> CloneOutput:
        """The validated output of one three-qubit state."""
        if rho_in.dims != (2, 2, 2):
            raise ValueError(
                f"expected a three-qubit density matrix, got dims {rho_in.dims}"
            )
        out = DensityMatrix((2, 2, 2), self.map(rho_in.matrix[None])[0])
        return CloneOutput(originals=out, copies=out, joint_dim=self.joint_dim)


def compile_channel(tensor: np.ndarray) -> CompiledChannel:
    """Superoperator of an isometry tensor indexed [orig, copy, machine, in].

    The copies-side map traces out the originals and the machine, the
    originals-side map the copies and the machine.  Raises RuntimeError if
    the two maps differ, if the map does not preserve trace, or if its Choi
    matrix is not Hermitian positive semidefinite.
    """
    v = np.asarray(tensor, dtype=complex)
    n_orig, n_copy, n_mach, n_in = v.shape
    copies = np.einsum("ocmi,odmj->cdij", v, v.conj())
    originals = np.einsum("acmi,bcmj->abij", v, v.conj())
    gap = float(np.max(np.abs(originals - copies)))
    if gap > OUTPUT_SYMMETRY_ATOL:
        raise RuntimeError(
            f"original and copy maps differ by {gap:.3e}; "
            "the cloner output should be symmetric"
        )
    trace_map = np.einsum("ccij->ij", copies)
    trace_residual = float(np.max(np.abs(trace_map - np.eye(n_in))))
    if trace_residual > TRACE_ATOL:
        raise RuntimeError(
            f"map does not preserve trace (residual {trace_residual:.3e})"
        )
    choi = copies.transpose(0, 2, 1, 3).reshape(n_copy * n_in, n_copy * n_in)
    herm = float(np.max(np.abs(choi - choi.conj().T)))
    if herm > HERMITIAN_ATOL:
        raise RuntimeError(f"Choi matrix is not Hermitian (residual {herm:.3e})")
    smallest = float(np.linalg.eigvalsh(choi)[0])
    if smallest < EIGENVALUE_FLOOR:
        raise RuntimeError(
            f"Choi matrix is not positive semidefinite (min eigenvalue {smallest:.3e})"
        )
    superoperator = np.ascontiguousarray(copies.reshape(n_copy * n_copy, n_in * n_in))
    superoperator.setflags(write=False)
    return CompiledChannel(
        superoperator=superoperator,
        joint_dim=n_orig * n_copy * n_mach,
        symmetry_gap=gap,
        trace_residual=trace_residual,
        choi_hermitian_residual=herm,
        choi_min_eigenvalue=smallest,
    )


@lru_cache(maxsize=None)
def nonlocal_isometry(n: int) -> CloningIsometry:
    """Universal symmetric cloner of one n-dimensional system.

    Column i sends basis state i to
    c |i,i,i> + d * sum_{j != i} (|i,j> + |j,i>) |j>
    over original x copy x machine, with c^2 = 2/(n+1) and
    d^2 = 1/(2(n+1)); the machine basis is the computational one.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"cloner dimension must be at least 2, got {n}")
    c = math.sqrt(2.0 / (n + 1))
    d = math.sqrt(1.0 / (2.0 * (n + 1)))
    v = np.zeros((n**3, n), dtype=complex)
    for i in range(n):
        column = np.zeros((n, n, n), dtype=complex)
        column[i, i, i] = c
        for j in range(n):
            if j != i:
                column[i, j, j] += d
                column[j, i, j] += d
        v[:, i] = column.reshape(-1)
    return CloningIsometry(in_dim=n, out_dims=(n, n, n), matrix=v)


@lru_cache(maxsize=1)
def local_isometry() -> CloningIsometry:
    """Single-qubit symmetric cloner, 2 -> (2, 2, 2).

    |0> maps to sqrt(2/3)|00,up> + sqrt(1/6)(|10> + |01>)|down>, and |1>
    to sqrt(2/3)|11,down> + sqrt(1/6)(|10> + |01>)|up>, with the machine
    kets up/down stored as indices 0/1.
    """
    s23 = math.sqrt(2.0 / 3.0)
    s16 = math.sqrt(1.0 / 6.0)
    v = np.zeros((8, 2), dtype=complex)
    # (orig, copy, machine) multi-indices, big-endian.
    v[0b000, 0] = s23
    v[0b101, 0] = s16
    v[0b011, 0] = s16
    v[0b111, 1] = s23
    v[0b100, 1] = s16
    v[0b010, 1] = s16
    return CloningIsometry(in_dim=2, out_dims=(2, 2, 2), matrix=v)


@lru_cache(maxsize=1)
def local_channel() -> CompiledChannel:
    """The local scheme compiled from the 8 -> 512 register isometry.

    The register isometry applies the qubit cloner to each qubit.  Its
    nine output qubits are permuted from (orig1, copy1, mach1, ..., mach3)
    into (orig1, orig2, orig3, copy1, ..., mach3) so that the tensor reads
    [orig, copy, machine, in] with eight-dimensional sides.
    """
    v = local_isometry().matrix
    register = kron_all([v, v, v]).reshape((2,) * 9 + (8,))
    tensor = register.transpose(0, 3, 6, 1, 4, 7, 2, 5, 8, 9).reshape(8, 8, 8, 8)
    return compile_channel(tensor)


@lru_cache(maxsize=1)
def nonlocal_channel() -> CompiledChannel:
    """The non-local scheme compiled from the eight-dimensional cloner."""
    return compile_channel(nonlocal_isometry(8).matrix.reshape(8, 8, 8, 8))


def apply_local_cloning(rho_in: DensityMatrix) -> CloneOutput:
    """Clone each qubit of the register with its own distant cloner.

    The joint output lives on nine qubits (three original/copy/machine
    triples); the compiled map traces out the three machine qubits and
    the complementary output side.
    """
    return local_channel().apply(rho_in)


def apply_nonlocal_cloning(rho_in: DensityMatrix) -> CloneOutput:
    """Clone the register as a single eight-dimensional system."""
    return nonlocal_channel().apply(rho_in)


def closed_form_local_output(alpha: float) -> DensityMatrix:
    """Analytic local-cloning output for the two-corner input family.

    Oracle only: the channel itself never consults this.  Diagonal
    coefficients sum to 216/216 for every alpha.
    """
    ca, sa = math.cos(alpha), math.sin(alpha)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0b000, 0b000] = (1.0 + 124.0 * ca * ca) / 216.0
    rho[0b111, 0b111] = (1.0 + 124.0 * sa * sa) / 216.0
    rho[0b000, 0b111] = rho[0b111, 0b000] = 8.0 * sa * ca / 27.0
    for k in (0b110, 0b011, 0b101):
        rho[k, k] = (5.0 + 20.0 * sa * sa) / 216.0
    for k in (0b100, 0b010, 0b001):
        rho[k, k] = (5.0 + 20.0 * ca * ca) / 216.0
    return DensityMatrix((2, 2, 2), rho)


def closed_form_nonlocal_output(alpha: float) -> DensityMatrix:
    """Analytic non-local-cloning output for the two-corner input family."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0b000, 0b000] = (1.0 + 10.0 * ca * ca) / 18.0
    rho[0b111, 0b111] = (1.0 + 10.0 * sa * sa) / 18.0
    rho[0b000, 0b111] = rho[0b111, 0b000] = 5.0 * sa * ca / 9.0
    for k in (0b110, 0b011, 0b101, 0b100, 0b010, 0b001):
        rho[k, k] = 1.0 / 18.0
    return DensityMatrix((2, 2, 2), rho)


def closed_form_local_measures(alpha: float) -> tuple[float, float]:
    """Analytic (E3, E2) of the local-cloning output, oracle only."""
    s2 = math.sin(2.0 * alpha) ** 2
    c2 = math.cos(2.0 * alpha) ** 2
    e3 = (64.0 / 729.0) * s2 * (1.0 + s2 * c2)
    e2 = (16.0 / 243.0) * s2 * s2
    return e3, e2


def closed_form_nonlocal_measures(alpha: float) -> tuple[float, float]:
    """Analytic (E3, E2) of the non-local-cloning output, oracle only."""
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


@dataclass
class GridData:
    """Channel outputs, measures and fidelities over a grid of alphas.

    E2 arrays are (n, 3) with pairs in the order (1,2), (2,3), (1,3); the
    outputs are the copies-side states, (n, 8, 8).
    """

    alphas: np.ndarray
    local_out: np.ndarray
    nonlocal_out: np.ndarray
    e3_in: np.ndarray
    e2_in: np.ndarray
    e3_local: np.ndarray
    e2_local: np.ndarray
    e3_nonlocal: np.ndarray
    e2_nonlocal: np.ndarray
    f_local: np.ndarray
    f_nonlocal: np.ndarray


def evaluate(alphas) -> GridData:
    """Both channels, the measures and the fidelities at each input angle.

    One batched pass over the two-corner inputs at ``alphas``; every input,
    output and measure is validated as in the single-state API and equals
    it bit for bit.
    """
    alphas = np.array(alphas, dtype=float).reshape(-1)
    psis = np.array([input_state(a).amplitudes for a in alphas]).reshape(-1, 8)
    rho_in = psis[:, :, None] * psis[:, None, :].conj()
    check_density_matrices(rho_in)
    local_out = local_channel().map(rho_in)
    check_density_matrices(local_out)
    nonlocal_out = nonlocal_channel().map(rho_in)
    check_density_matrices(nonlocal_out)
    e3_in, e2_in, *_ = measure_stack(rho_in)
    e3_local, e2_local, *_ = measure_stack(local_out)
    e3_nonlocal, e2_nonlocal, *_ = measure_stack(nonlocal_out)
    return GridData(
        alphas=alphas,
        local_out=local_out,
        nonlocal_out=nonlocal_out,
        e3_in=e3_in,
        e2_in=e2_in,
        e3_local=e3_local,
        e2_local=e2_local,
        e3_nonlocal=e3_nonlocal,
        e2_nonlocal=e2_nonlocal,
        f_local=fidelities(psis, local_out),
        f_nonlocal=fidelities(psis, nonlocal_out),
    )


def find_e2_crossings() -> tuple[float, float]:
    """Roots of E2_nonlocal(alpha) = E2_input(alpha) in cos(alpha) on (0, 1).

    Bisection on the simulated curves, each root bracketed to 1e-6,
    returned ascending.  The non-local channel amplifies pairwise
    entanglement outside the returned window and degrades it inside.
    """

    def gaps(*cos_alphas):
        grid = evaluate([math.acos(x) for x in cos_alphas])
        return grid.e2_nonlocal[:, 0] - grid.e2_in[:, 0]

    half = math.sqrt(0.5)
    roots = []
    for lo, hi in ((0.0, half), (half, 1.0)):
        f_lo, f_hi = gaps(lo, hi)
        if f_lo == 0.0:
            roots.append(lo)
            continue
        if f_lo * f_hi > 0.0:
            raise RuntimeError(
                f"E2 crossing not bracketed on ({lo}, {hi}): "
                f"gap endpoints {f_lo:.3e}, {f_hi:.3e}"
            )
        while hi - lo > CROSSING_BRACKET:
            mid = 0.5 * (lo + hi)
            if (gaps(mid)[0] > 0.0) == (f_lo > 0.0):
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots[0], roots[1]
