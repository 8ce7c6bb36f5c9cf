"""Paired two-electron ansatz circuits and the qubit Hamiltonian.

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
companion terms cancel pairwise there.

Angle convention throughout: compile_pauli_exponential(P, theta) builds
exp(-i theta/2 P), matching rz.
"""

from __future__ import annotations

import math

import numpy as np

from geminal import qsim
from geminal.qsim import Circuit, NoiseModel, PauliString, PauliSum

# window-local Pauli letters of the two surviving generator terms; letter
# i acts on window qubit i
PAIR_TERM_A = "YXYY"
PAIR_TERM_B = "XXXY"


def pair_basis_index(p: int) -> int:
    """Basis index of |pair p>: alpha and beta qubits of orbital p set."""
    return 0b11 << (2 * p)


def paired_subspace_indices(r: int) -> list[int]:
    return [pair_basis_index(p) for p in range(r)]


def hf_circuit(r: int) -> Circuit:
    """Prepare |pair 0> from |0...0>."""
    if r < 1:
        raise ValueError("need at least one orbital")
    return Circuit(2 * r).x(0).x(1)


# ---------------------------------------------------------------------------
# Jordan-Wigner operators
# ---------------------------------------------------------------------------

def jw_annihilation(mode: int, n_modes: int) -> PauliSum:
    """a_mode = Z_0 .. Z_(mode-1) (X + iY)_mode / 2."""
    ztail = (1 << mode) - 1
    xbit = 1 << mode
    return PauliSum(
        [
            PauliString(n_modes, xbit, ztail, 0.5),
            PauliString(n_modes, xbit, ztail | xbit, 0.5j),
        ]
    )


def jw_creation(mode: int, n_modes: int) -> PauliSum:
    ztail = (1 << mode) - 1
    xbit = 1 << mode
    return PauliSum(
        [
            PauliString(n_modes, xbit, ztail, 0.5),
            PauliString(n_modes, xbit, ztail | xbit, -0.5j),
        ]
    )


def jw_product(ops, n_modes: int) -> PauliSum:
    """Expand a product of (mode, dagger) fermion operators into Paulis."""
    acc = PauliSum([PauliString(n_modes, 0, 0, 1.0)])
    for mode, dagger in ops:
        factor = jw_creation(mode, n_modes) if dagger else jw_annihilation(mode, n_modes)
        acc = PauliSum([a * b for a in acc for b in factor]).simplify()
    return acc


def jordan_wigner_hamiltonian(
    h_mo: np.ndarray, eri_mo: np.ndarray, enuc: float
) -> PauliSum:
    """Qubit Hamiltonian for the two-spin-orbital-per-orbital layout.

    Input integrals are spatial (chemists' ERI convention); spin is
    expanded over the interleaved layout here.  The nuclear repulsion
    enters as an identity term, so expectation values are total
    energies.
    """
    r = h_mo.shape[0]
    n = 2 * r
    terms = [PauliString(n, 0, 0, complex(enuc))]
    for p in range(r):
        for q in range(r):
            if abs(h_mo[p, q]) < 1e-14:
                continue
            for s in (0, 1):
                prod = jw_product([(2 * p + s, True), (2 * q + s, False)], n)
                terms.extend(prod.scaled(h_mo[p, q]))
    for p in range(r):
        for q in range(r):
            for u in range(r):
                for v in range(r):
                    coeff = 0.5 * eri_mo[p, q, u, v]
                    if abs(coeff) < 1e-14:
                        continue
                    for s1 in (0, 1):
                        for s2 in (0, 1):
                            ops = [
                                (2 * p + s1, True),
                                (2 * u + s2, True),
                                (2 * v + s2, False),
                                (2 * q + s1, False),
                            ]
                            prod = jw_product(ops, n)
                            terms.extend(prod.scaled(coeff))
    out = PauliSum(terms).simplify()
    # Hermitian operator: coefficients must come out real
    bad = max((abs(t.coeff.imag) for t in out), default=0.0)
    if bad > 1e-10:
        raise AssertionError(f"non-real Hamiltonian coefficient ({bad:.2e})")
    return PauliSum(
        [PauliString(n, t.xmask, t.zmask, t.coeff.real) for t in out]
    )


# ---------------------------------------------------------------------------
# pair-rotation entangler
# ---------------------------------------------------------------------------

def _window_string(local_label: str, k: int, r: int, coeff: complex) -> PauliString:
    label = "I" * (2 * k) + local_label + "I" * (2 * r - 2 * k - 4)
    return PauliString.from_label(label, coeff)


def pair_excitation_pauli_terms(k: int, r: int) -> PauliSum:
    """The two surviving generator terms for the window-k pair rotation.

    Returns (P_a + P_b)/2 embedded on qubits 2k..2k+3;
    exp(-i t (P_a + P_b)/2) is the pair rotation by angle t.  The terms
    commute, so the exponential factors into the two compiled pieces.
    """
    if not 0 <= k < r - 1:
        raise ValueError("pair index must satisfy 0 <= k < r-1")
    return PauliSum(
        [
            _window_string(PAIR_TERM_A, k, r, 0.5),
            _window_string(PAIR_TERM_B, k, r, 0.5),
        ]
    )


def pair_excitation_generator_full(k: int, r: int) -> PauliSum:
    """Anti-Hermitian D - D^dag with D the full pair double excitation.

    D = a^dag_(k+1,a) a^dag_(k+1,b) a_(k,b) a_(k,a); this is the dense
    reference the reduced two-term form is checked against on the paired
    subspace.
    """
    n = 2 * r
    d = jw_product(
        [
            (2 * (k + 1), True),
            (2 * (k + 1) + 1, True),
            (2 * k + 1, False),
            (2 * k, False),
        ],
        n,
    )
    ddag = jw_product(
        [
            (2 * k, True),
            (2 * k + 1, True),
            (2 * (k + 1) + 1, False),
            (2 * (k + 1), False),
        ],
        n,
    )
    return (d + ddag.scaled(-1.0)).simplify()


def compile_pauli_exponential(pauli: PauliString, theta: float) -> Circuit:
    """Circuit for exp(-i theta/2 P) via the standard CNOT parity ladder.

    Basis layer maps X to Z with h and Y to Z with sdg,h; the ladder
    chains the support onto its last qubit, which takes rz(theta).
    Consecutive support qubits keep the ladder nearest-neighbour.  CNOT
    cost is 2(w - 1) for weight w.
    """
    support = pauli.support
    if not support:
        raise ValueError("cannot exponentiate the identity string")
    circ = Circuit(pauli.n_qubits)
    ys = pauli.xmask & pauli.zmask
    xs = pauli.xmask & ~pauli.zmask
    for q in support:
        if (ys >> q) & 1:
            circ.sdg(q).h(q)
        elif (xs >> q) & 1:
            circ.h(q)
    for a, b in zip(support, support[1:]):
        circ.cx(a, b)
    circ.rz(support[-1], theta)
    for a, b in reversed(list(zip(support, support[1:]))):
        circ.cx(a, b)
    for q in support:
        if (ys >> q) & 1:
            circ.h(q).s(q)
        elif (xs >> q) & 1:
            circ.h(q)
    return circ


def generic_pair_gate(k: int, t: float, r: int) -> Circuit:
    """Pair rotation as two compiled 4-qubit exponentials (12 CNOTs)."""
    terms = pair_excitation_pauli_terms(k, r)
    circ = Circuit(2 * r)
    for term in terms:
        # coeff 1/2 and the exp(-i theta/2) convention make theta = t
        circ.extend(compile_pauli_exponential(term.scaled(1.0 / term.coeff), t))
    return circ


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
