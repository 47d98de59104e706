"""Closed-form oracles that the benchmark checks every output against.

They are written from the structure of the two channels alone, so no
checked value goes through the code being timed:

* the local cloner acts on each qubit as a depolarizing map that shrinks
  the Bloch vector by t = 2/3 (Buzek-Hillery, PRA 54, 1844, 1996);
* the non-local cloner acts on the register as the global depolarizing
  map rho -> eta*rho + (1 - eta)*I/8 with eta = 5/9 (Werner, PRA 58,
  1827, 1998), so k repeated steps leave eta = (5/9)**k.

Both factors are (d + 2) / (2 (d + 1)), for d = 2 and d = 8.  The input
is the two-corner state cos(a)|000> + sin(a)|111>; E3 is a quarter of the
squared norm of the subtracted triple tensor and E2 a third of the
squared norm of the subtracted pair tensor.
"""

from __future__ import annotations

import math

TOL = 1e-12


def shrink_factor(d: int) -> float:
    """Bloch-vector shrinking factor of the optimal symmetric 1 -> 2 cloner in dimension d."""
    return (d + 2) / (2 * (d + 1))


LOCAL_SHRINK = shrink_factor(2)
NONLOCAL_SHRINK = shrink_factor(8)


def depolarized_measures(alpha: float, eta: float) -> tuple[float, float]:
    """(E3, E2) of eta*|psi><psi| + (1 - eta)*I/8 for the two-corner state.

    With c = cos(2a) and s = sin(2a), the coherence vectors are -eta*c
    along the third axis, the pair tensors have the single entry
    eta - eta^2 c^2, and the triple tensor has four entries of size
    eta*s plus M333 = -eta*c*(1 - 3 eta + 2 eta^2 c^2).
    """
    c = math.cos(2.0 * alpha)
    s = math.sin(2.0 * alpha)
    m333 = eta * c * (1.0 - 3.0 * eta + 2.0 * eta * eta * c * c)
    e3 = eta * eta * s * s + 0.25 * m333 * m333
    e2 = (eta - eta * eta * c * c) ** 2 / 3.0
    return e3, e2


def shrunk_measures(alpha: float, t: float) -> tuple[float, float]:
    """(E3, E2) after shrinking each qubit's Bloch vector by t.

    Every subtracted tensor of order n scales by t^n, so E3 scales by
    t^6 and E2 by t^4.
    """
    e3, e2 = depolarized_measures(alpha, 1.0)
    return t**6 * e3, t**4 * e2


def depolarized_fidelity(eta: float) -> float:
    """<psi| eta*|psi><psi| + (1 - eta)*I/8 |psi>, the same for every input."""
    return eta + (1.0 - eta) / 8.0


def shrunk_fidelity(alpha: float, t: float) -> float:
    """Overlap of the two-corner state with its per-qubit shrunk image.

    Expanding the product of three maps t*rho + (1 - t)*I/2 by the set of
    qubits that keep their state: all three give 1, any two or any one
    give q/2 or q/4 with q = cos^4 a + sin^4 a, none gives 1/8.
    """
    q = math.cos(alpha) ** 4 + math.sin(alpha) ** 4
    u = 1.0 - t
    return t**3 + 1.5 * t * t * u * q + 0.75 * t * u * u * q + u**3 / 8.0


def sweep_row(x: float) -> tuple[float, ...]:
    """Expected CSV row of ``triclone sweep`` at grid point cos(alpha) = x."""
    alpha = math.acos(x)
    e3_in, e2_in = depolarized_measures(alpha, 1.0)
    e3_l, e2_l = shrunk_measures(alpha, LOCAL_SHRINK)
    e3_n, e2_n = depolarized_measures(alpha, NONLOCAL_SHRINK)
    return (
        x,
        e3_in,
        e3_l,
        e3_n,
        e2_in,
        e2_l,
        e2_n,
        shrunk_fidelity(alpha, LOCAL_SHRINK),
        depolarized_fidelity(NONLOCAL_SHRINK),
    )


def iterate_row(alpha: float, step: int) -> tuple[float, float]:
    """Expected (E3, E2) after ``step`` repeated non-local cloning steps."""
    return depolarized_measures(alpha, NONLOCAL_SHRINK**step)


def close(values, expected) -> bool:
    return len(values) == len(expected) and all(
        abs(v - e) <= TOL for v, e in zip(values, expected)
    )
