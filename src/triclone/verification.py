"""Executable verification suite behind ``triclone verify``.

Each check pins one acceptance criterion with its tolerance and reports
the measured residual; the balanced state is grid point ``BALANCED``, and
the window probes share ``e2_gaps`` with the crossing search.  The same checks
back tests/test_acceptance.py, so the CLI and the test suite cannot drift.

Each random stack is one generator call laid out (n, 2, d, d), real then
imaginary part per member, so it reads the stream in the order of a
draw-by-draw loop and gives the same members bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloners import e2_gaps, evaluate, evaluate_states, find_e2_crossings
from .cloners import MAP_BLOCK, local_channel, nonlocal_channel
from .entanglement import correlations, input_states, measure_stack
from .iteration import iterate, spectral_trajectory
from .linalg import check_density_matrices, eig_hermitian, kron_all, max_abs
from .reference import (
    closed_form_input_measures,
    closed_form_local_measures,
    closed_form_local_outputs,
    closed_form_nonlocal_measures,
    closed_form_nonlocal_outputs,
    fidelity_local,
    fidelity_nonlocal,
)

GRID_ALPHAS = np.linspace(0.0, math.pi / 2.0, 201)
BALANCED = 100
# linspace lands one ulp above pi/4; the balanced checks need the exact angle.
GRID_ALPHAS[BALANCED] = math.pi / 4.0
GRID_ALPHAS.setflags(write=False)

# Reference decay table for the balanced (GHZ) input, four printed decimals.
TABLE_E3 = (1.0000, 0.3086, 0.0953, 0.0294, 0.0091, 0.0028)
TABLE_E2 = (0.3333, 0.1029, 0.0318, 0.0098, 0.0030, 0.0009)
TABLE_ATOL = 5e-5
STEP6_CEILING = 1e-3

# Reference window for E2 amplification under non-local cloning.
WINDOW_LO = 0.33065
WINDOW_HI = 0.95287
WINDOW_ATOL = 1e-4

GHZ_EIGENVALUES = tuple([1.0 / 18.0] * 7 + [11.0 / 18.0])


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def compute_grid():
    """``evaluate`` over ``GRID_ALPHAS``: (states, e3, e2, f)."""
    return evaluate(GRID_ALPHAS)


def _measure_error(e3s: np.ndarray, e2s: np.ndarray, e3: float, e2: float) -> float:
    """Largest deviation of the balanced point's E3 and every E2 in a grid slab."""
    return max_abs(e3s[BALANCED] - e3, e2s[BALANCED] - e2)


def _within(tol: float, *residuals: tuple[str, float]) -> tuple[bool, str]:
    """Pass iff every ``(label, value)`` residual is <= ``tol``, so NaN fails.

    The text lists the residuals and ends with the tolerance applied.
    """
    passed = all(value <= tol for _, value in residuals)
    text = ", ".join(f"{label}={value:.2e}" for label, value in residuals)
    return passed, f"{text} (tol {tol})"


def check_input_closed_forms(grid) -> CheckResult:
    """Trace-based input measures match the analytic curves to 1e-12."""
    _, e3, e2, _ = grid
    cf = closed_form_input_measures(GRID_ALPHAS)
    err3 = max_abs(e3[0] - cf[:, 0])
    err2 = max_abs(e2[0] - cf[:, 1:2])
    ghz_err = _measure_error(e3[0], e2[0], 1.0, 1.0 / 3.0)
    passed, detail = _within(
        1e-12,
        ("max|E3 err|", err3),
        ("max|E2 err|", err2),
        ("balanced-state err", ghz_err),
    )
    return CheckResult("input-state-closed-forms", passed, detail)


def check_local_oracle(grid) -> CheckResult:
    """Simulated local channel equals its analytic output entrywise."""
    states, e3, e2, _ = grid
    refs = closed_form_local_outputs(GRID_ALPHAS)
    err = max_abs(states[1] - refs)
    m_err = _measure_error(e3[1], e2[1], 64.0 / 729.0, 16.0 / 243.0)
    passed, detail = _within(
        1e-12, ("max entrywise err", err), ("balanced-state measure err", m_err)
    )
    return CheckResult("local-cloning-oracle", passed, detail)


def check_nonlocal_oracle(grid) -> CheckResult:
    """Simulated non-local channel equals its analytic output; spectrum pinned."""
    states, e3, e2, _ = grid
    refs = closed_form_nonlocal_outputs(GRID_ALPHAS)
    err = max_abs(states[2] - refs)
    m_err = _measure_error(e3[2], e2[2], 25.0 / 81.0, 25.0 / 243.0)
    values, _ = eig_hermitian(states[2, BALANCED])
    eig_err = max_abs(np.sort(values) - np.array(GHZ_EIGENVALUES))
    passed, detail = _within(
        1e-12,
        ("max entrywise err", err),
        ("measure err", m_err),
        ("spectrum err", eig_err),
    )
    return CheckResult("nonlocal-cloning-oracle", passed, detail)


def check_measure_curves(grid) -> CheckResult:
    """Simulated output measures match the analytic curves for both cloners."""
    _, e3, e2, _ = grid
    cf_l = closed_form_local_measures(GRID_ALPHAS)
    cf_n = closed_form_nonlocal_measures(GRID_ALPHAS)
    err_l = max_abs(e3[1] - cf_l[:, 0], e2[1] - cf_l[:, 1:2])
    err_n = max_abs(e3[2] - cf_n[:, 0], e2[2] - cf_n[:, 1:2])
    passed, detail = _within(1e-12, ("local err", err_l), ("non-local err", err_n))
    return CheckResult("closed-form-measure-curves", passed, detail)


def check_fidelities(grid) -> CheckResult:
    """Simulated fidelities match the analytic values; non-local wins everywhere."""
    f_local, f_nonlocal = grid[3]
    f1 = fidelity_local(GRID_ALPHAS)
    err1 = max_abs(f_local - f1)
    err2 = max_abs(f_nonlocal - fidelity_nonlocal())
    min_gap = float(np.min(f_nonlocal - f_local))
    passed, detail = _within(1e-12, ("local err", err1), ("non-local err", err2))
    return CheckResult(
        "fidelities",
        passed and min_gap > 0.0,
        f"{detail}, min F2-F1 gap={min_gap:.4f}",
    )


def check_amplification_window() -> CheckResult:
    """E2 crossing points sit at the pinned reference values within 1e-4."""
    lo, hi = find_e2_crossings()
    err_lo = abs(lo - WINDOW_LO)
    err_hi = abs(hi - WINDOW_HI)
    # Sign pattern around the measured roots: amplified outside, degraded
    # inside the window.
    probes = (max(lo - 0.02, 1e-3), 0.5 * (lo + hi), min(hi + 0.02, 1.0 - 1e-3))
    gap = e2_gaps(probes)
    signs_ok = bool(gap[0] > 0.0 and gap[1] < 0.0 and gap[2] > 0.0)
    passed = err_lo <= WINDOW_ATOL and err_hi <= WINDOW_ATOL and signs_ok
    return CheckResult(
        "e2-amplification-window",
        passed,
        f"measured roots cos(alpha)=({lo:.6f}, {hi:.6f}), reference "
        f"({WINDOW_LO}, {WINDOW_HI}) tol {WINDOW_ATOL}; sign pattern "
        f"{'ok' if signs_ok else 'WRONG'}; note: any window of these curves "
        f"must satisfy lo^2+hi^2=1 (measured sum {lo * lo + hi * hi:.6f}, "
        f"reference sum {WINDOW_LO**2 + WINDOW_HI**2:.6f})",
    )


def check_iteration_decay() -> CheckResult:
    """Repeated non-local cloning of the balanced state matches the decay table."""
    e3, e2, _ = iterate(math.pi / 4.0, 6)
    e3, e2 = e3.tolist(), e2[:, 0].tolist()
    err = max_abs(np.subtract(e3[:6] + e2[:6], TABLE_E3 + TABLE_E2))
    passed, detail = _within(TABLE_ATOL, ("steps 0-5 max err", err))
    return CheckResult(
        "iterated-cloning-decay",
        passed and e3[6] < STEP6_CEILING and e2[6] < STEP6_CEILING,
        f"{detail}; step 6 computes to E3={e3[6]:.6f}, E2={e2[6]:.6f} (reference "
        f"table prints 0.0000; the substituted property is decay below "
        f"{STEP6_CEILING})",
    )


def _gaussian_states(g: np.ndarray) -> np.ndarray:
    """Unit-trace states (n, d, d) from Gaussians laid out (n, 2, d, d)."""
    z = g[:, 0] + 1j * g[:, 1]
    m = z @ z.conj().swapaxes(1, 2)
    m = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return 0.5 * (m + m.conj().swapaxes(1, 2))


def random_density_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` full-rank random three-qubit states as one stack (n, 8, 8)."""
    stack = _gaussian_states(rng.standard_normal((n, 2, 8, 8)))
    check_density_matrices(stack)
    return stack


def random_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Haar-distributed single-qubit unitaries (n, 2, 2), QR with phase fixing."""
    g = rng.standard_normal((n, 2, 2, 2))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / math.sqrt(2.0))
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    return q * (diagonal / np.abs(diagonal))[:, None, :]


def random_product_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` random products of three independent qubits as one stack (n, 8, 8)."""
    qubits = _gaussian_states(rng.standard_normal((3 * n, 2, 2, 2)))
    stack = kron_all(qubits.reshape(n, 3, 2, 2).swapaxes(0, 1))
    check_density_matrices(stack)
    return stack


def check_channel_properties(seed: int) -> CheckResult:
    """Both channels are trace-preserving, Hermitian, PSD and linear."""
    rng = np.random.default_rng(seed)
    stack = random_density_matrices(rng, 100)
    p = rng.uniform(0.1, 0.9, 50)[:, None, None]
    mixes = p * stack[0::2] + (1 - p) * stack[1::2]
    check_density_matrices(mixes)
    block = MAP_BLOCK // stack.shape[-1]  # each state has 8 eigenprojectors
    blocks = (stack[s : s + block] for s in range(0, len(stack), block))
    routes = [spectral_trajectory(b, 1) for b in blocks]  # validates its outputs
    out = [local_channel().map(stack), np.concatenate([t[1] for t, _ in routes])]
    direct = [channel.map(mixes) for channel in (local_channel(), nonlocal_channel())]
    for slab in (out[0], *direct):
        check_density_matrices(slab)
    trace_err = max_abs(*(np.trace(o, axis1=1, axis2=2).real - 1.0 for o in out))
    herm_err = max_abs(*(o - o.conj().swapaxes(1, 2) for o in out))
    eig_floor = min(0.0, *(float(np.linalg.eigvalsh(o)[:, 0].min()) for o in out))
    combined = [p * o[0::2] + (1 - p) * o[1::2] for o in out]
    lin_err = max_abs(*(d - c for d, c in zip(direct, combined)))
    route_err = max_abs(*(r - t[1:] for t, r in routes))
    return CheckResult(
        "channel-properties",
        max_abs(trace_err, herm_err, lin_err, route_err) <= 1e-12
        and eig_floor >= -1e-10,
        f"100 random states: trace err={trace_err:.2e}, herm err={herm_err:.2e}, "
        f"min eig={eig_floor:.2e}, linearity err={lin_err:.2e}, "
        f"spectral-route err={route_err:.2e}",
    )


def check_measure_properties(seed: int) -> CheckResult:
    """Measures are locally invariant, zero on products, and bounded."""
    rng = np.random.default_rng(seed)
    psis = input_states([math.pi / 4, math.pi / 8])
    base = psis[:, :, None] * psis[:, None, :].conj()
    check_density_matrices(base)
    rhos = np.concatenate([base, random_density_matrices(rng, 1)])[np.arange(50) % 3]
    u = kron_all(random_unitaries(rng, 150).reshape(50, 3, 2, 2).swapaxes(0, 1))
    rotated = np.stack([rhos, u @ rhos @ u.conj().swapaxes(1, 2)], axis=1)
    check_density_matrices(rotated[:, 1])
    e3, e2, *_ = measure_stack(rotated)
    invariance_err = max_abs(e3[:, 0] - e3[:, 1], e2[:, 0] - e2[:, 1])
    e3, e2, *_ = measure_stack(random_product_states(rng, 25))
    product_err = max_abs(e3, e2)
    e3, e2, *_ = measure_stack(random_density_matrices(rng, 200))
    top = float(max(0.0, np.max(e3), np.max(e2)))
    bottom = float(min(0.0, np.min(e3), np.min(e2)))
    shift_ok, shift = _within(1e-10, ("local-unitary shift", invariance_err))
    product_ok, product = _within(1e-12, ("product-state max", product_err))
    return CheckResult(
        "measure-properties",
        shift_ok and product_ok and bottom >= 0.0 and top <= 1.0 + 1e-10,
        f"{shift}, {product}, range=[{bottom:.2e}, {top:.4f}]",
    )


def check_sweep_determinism() -> CheckResult:
    """Two sweep runs with identical flags emit byte-identical CSV."""
    from .cli import DEFAULT_POINTS, run_sweep

    # The bytes ``sweep`` writes, to stdout or to a file.
    payloads = [run_sweep(DEFAULT_POINTS, None)[1].encode("utf-8") for _ in (1, 2)]
    identical = payloads[0] == payloads[1]
    return CheckResult(
        "sweep-determinism",
        identical,
        f"two runs, {len(payloads[0])} bytes each, "
        f"{'identical' if identical else 'DIFFERENT'}",
    )


def informational_notes() -> list[str]:
    """Measured values for the two known reference-table discrepancies."""
    alpha = 0.3
    states, *_ = evaluate_states(input_states([alpha]), (local_channel(),))
    k333 = correlations(states[1])[2][0, 2, 2, 2]
    expected = -(8.0 / 27.0) * math.cos(2.0 * alpha)
    note1 = (
        f"info: triple correlation K333 of the local-clone output at "
        f"alpha={alpha} computes to {k333:.9f} = -(8/27)cos(2*alpha) "
        f"({expected:.9f}); the negative sign is forced by consistency with "
        f"the coherence vector and the M333 tensor component"
    )
    _, _, states = iterate(math.pi / 4.0, 2)
    corner = states[2, 0, 0].real
    note2 = (
        f"info: after two non-local cloning steps of the balanced state, the "
        f"corner diagonal entry computes to {corner:.9f} = 13/54, the value "
        f"forced by unit trace alongside six single-excitation entries of 7/81"
    )
    return [note1, note2]


def run_all(seed: int) -> list[CheckResult]:
    """Run every verification check once, sharing one grid computation.

    Only checks 01-05 read the grid, so it is freed before check 06 runs.
    """
    grid = compute_grid()
    results = [
        check_input_closed_forms(grid),
        check_local_oracle(grid),
        check_nonlocal_oracle(grid),
        check_measure_curves(grid),
        check_fidelities(grid),
    ]
    del grid
    return results + [
        check_amplification_window(),
        check_iteration_decay(),
        check_channel_properties(seed),
        check_measure_properties(seed),
        check_sweep_determinism(),
    ]
