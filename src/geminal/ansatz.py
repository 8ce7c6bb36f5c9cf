"""Paired two-electron ansatz circuits.

Orbital p maps to the interleaved spin-orbital qubits (2p) for alpha and
(2p+1) for beta, so the doubly occupied pair state |pair p> sets qubits
2p and 2p+1.  The ansatz is a chain of pair-rotation entanglers: block k
acts on the four-qubit window (2k .. 2k+3) and rotates

    |pair k>   ->  cos(t) |pair k>  +  sin(t) |pair k+1>
    |pair k+1> -> -sin(t) |pair k>  +  cos(t) |pair k+1>

while leaving every other paired configuration fixed.  On the paired
subspace this equals the exponential of the full double-excitation
generator; the circuit realisation needs only the two four-qubit Pauli
terms YXYY and XXXY on the window because their other six Jordan-Wigner
companion terms cancel pairwise there.  That derivation, with the
Jordan-Wigner Hamiltonian and the 12-CNOT form compiled from the two
terms, is the test-side oracle ``tests/pauli_reference.py``.

Angle convention throughout: t is the pair-amplitude rotation angle
above, so one pair rotation is exp(-i t (YXYY + XXXY)/2) on its window,
and gate angles follow qsim's rz(theta) = exp(-i theta Z/2).
"""

from __future__ import annotations

import math

import numpy as np

from geminal import qsim
from geminal.qsim import Circuit, NoiseModel


def hf_circuit(r: int) -> Circuit:
    """Prepare |pair 0> from |0...0>."""
    if r < 1:
        raise ValueError("need at least one orbital")
    return Circuit(2 * r).x(0).x(1)


# ---------------------------------------------------------------------------
# pair-rotation entangler
# ---------------------------------------------------------------------------

def optimized_pair_gate(k: int, t: float, r: int) -> Circuit:
    """Pair rotation compressed to 8 CNOTs, nearest-neighbour only.

    A three-CNOT Clifford maps the two window generators onto
    (X1 X2 + Y1 Y2)/2 of the middle qubit pair, whose exponential takes
    two CNOTs; undoing the Clifford costs three more.
    """
    if not 0 <= k < r - 1:
        raise ValueError("pair index must satisfy 0 <= k < r-1")
    q0, q1, q2, q3 = (2 * k + j for j in range(4))
    circ = Circuit(2 * r)
    circ.sdg(q3).cx(q2, q3).cx(q1, q0).cx(q0, q1)
    circ.rx(q1, math.pi / 2).rx(q2, math.pi / 2)
    circ.cx(q2, q1).rz(q1, t).rx(q2, t).cx(q2, q1)
    circ.rx(q1, -math.pi / 2).rx(q2, -math.pi / 2)
    circ.cx(q0, q1).cx(q1, q0).cx(q2, q3).s(q3)
    return circ


def _pair_chain(r: int, angles) -> Circuit:
    circ = hf_circuit(r)
    for k in range(r - 1):
        circ.extend(optimized_pair_gate(k, angles[k], r))
    return circ


def build_ansatz_circuit(r: int, t: np.ndarray) -> Circuit:
    """Reference preparation plus the chain of 8-CNOT pair rotations.

    ``t`` has r-1 entries; entry k drives the window-k rotation.  This
    gate-by-gate circuit is the reference the compiled ansatz is checked
    against.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (r - 1,):
        raise ValueError(f"need {r - 1} angles for r = {r}")
    return _pair_chain(r, [float(v) for v in t])


def ansatz_template(r: int) -> Circuit:
    """The ansatz circuit with the window-k angle left open as ``qsim.Angle(k)``."""
    return _pair_chain(r, [qsim.Angle(k) for k in range(r - 1)])


def compiled_ansatz(r: int, noise: NoiseModel | None = None) -> qsim.Program:
    """The ansatz compiled once per (r, noise model); ``run(t)`` is its outcome distribution at t."""
    return qsim.compiled(ansatz_template, r, noise=noise)


def givens_chain_amplitudes(t: np.ndarray, r: int | None = None) -> np.ndarray:
    """Pair amplitudes produced by the rotation chain on |pair 0>.

    amp[p] = cos(t_p) prod_{j<p} sin(t_j), with the last entry carrying
    the full sine product.  Squares are the ideal pair occupations and
    sign products give the ideal phases.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if r is None:
        r = t.size + 1
    elif t.shape != (r - 1,):
        raise ValueError(f"need {r - 1} angles for r = {r}")
    return np.array(chain_amplitudes(t.tolist()))


def chain_amplitudes(t: list[float]) -> list[float]:
    """``givens_chain_amplitudes`` on Python floats: one amplitude per pair, len(t) + 1."""
    amps, running = [], 1.0
    for angle in t:
        amps.append(math.cos(angle) * running)
        running *= math.sin(angle)
    amps.append(running)
    return amps
