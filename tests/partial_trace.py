"""Joint-state partial trace: the tests' 512-dimensional reference path.

The package compiles each channel into a 64 x 64 superoperator and never
forms V rho V+; the tests do, and reduce it with this function to check
the compiled maps.
"""

from typing import Iterable, Sequence

import numpy as np


def partial_trace_matrix(
    matrix: np.ndarray, dims: Sequence[int], keep: Iterable[int]
) -> np.ndarray:
    """Partial trace of a raw square matrix over the subsystems not in ``keep``.

    Parameters
    ----------
    matrix : square array over the full tensor-product space
    dims : dimension of each subsystem, most significant first
    keep : 0-based indices of the subsystems to retain; the result keeps
        them in their original relative order

    Returns
    -------
    The reduced matrix on the kept subsystems.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep_sorted = sorted({int(k) for k in keep})
    if not keep_sorted:
        raise ValueError("keep must name at least one subsystem")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"keep indices {keep_sorted} out of range for {n} subsystems")
    traced = [i for i in range(n) if i not in keep_sorted]
    work = np.asarray(matrix, dtype=complex).reshape(dims + dims)
    remaining = list(dims)
    # Trace highest axes first so lower axis indices stay valid.
    for i in reversed(traced):
        work = np.trace(work, axis1=i, axis2=i + len(remaining))
        del remaining[i]
    d = int(np.prod(remaining))
    return work.reshape(d, d)
