"""The paper's derivation of the pair rotation, kept as a test-side oracle.

Pauli algebra on symplectic masks, Jordan-Wigner fermion operators and
Hamiltonian, and the generic 12-CNOT pair gate.  No production path
runs any of it; tests check the package's 8-CNOT pair gate and its
2-RDM energy assembly against it, and its window parities against
``parity_signs``, a popcount the package does not share.

Pauli labels read left to right as qubit 0, 1, 2, ...: ``"XY"`` means X
on qubit 0 and Y on qubit 1, on the little-endian layout of
``geminal.qsim`` (qubit q is bit q of the basis index).

Orbital p maps to spin-orbital qubits 2p (alpha) and 2p+1 (beta).  The
full double-excitation generator of window k (qubits 2k .. 2k+3) has
eight Jordan-Wigner terms; on the paired subspace only YXYY and XXXY
survive, the other six cancel pairwise.  Compiling each survivor with a
CNOT parity ladder gives the 12-CNOT ``generic_pair_gate``.

Angle convention: compile_pauli_exponential(P, theta) builds
exp(-i theta/2 P), matching rz.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from geminal import qsim
from geminal.qsim import Circuit

# ---------------------------------------------------------------------------
# Pauli algebra (symplectic masks)
# ---------------------------------------------------------------------------

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}


@dataclass(frozen=True)
class PauliString:
    """coeff * P where P = i**ny * X^xmask Z^zmask and ny = |Y positions|.

    With this normalisation the mask pair (x, z) per qubit encodes
    I/X/Y/Z as (0,0)/(1,0)/(1,1)/(0,1) and P is Hermitian, so a real
    coeff means a Hermitian term.
    """

    n_qubits: int
    xmask: int
    zmask: int
    coeff: complex = 1.0 + 0.0j

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliString":
        x = z = 0
        for q, ch in enumerate(label.upper()):
            try:
                xb, zb = _LETTER_TO_BITS[ch]
            except KeyError:
                raise ValueError(f"bad Pauli letter {ch!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(label), x, z, complex(coeff))

    @property
    def label(self) -> str:
        return "".join(
            _BITS_TO_LETTER[((self.xmask >> q) & 1, (self.zmask >> q) & 1)]
            for q in range(self.n_qubits)
        )

    @property
    def weight(self) -> int:
        return (self.xmask | self.zmask).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        m = self.xmask | self.zmask
        return tuple(q for q in range(self.n_qubits) if (m >> q) & 1)

    @property
    def n_y(self) -> int:
        return (self.xmask & self.zmask).bit_count()

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit counts differ")
        x = self.xmask ^ other.xmask
        z = self.zmask ^ other.zmask
        # i^(ny1+ny2-ny12) from re-canonicalising, (-1)^|z1&x2| from
        # commuting Z^z1 past X^x2
        k = (self.n_y + other.n_y - (x & z).bit_count()) % 4
        phase = (1j) ** k * (-1.0) ** (self.zmask & other.xmask).bit_count()
        return PauliString(self.n_qubits, x, z, self.coeff * other.coeff * phase)

    def scaled(self, factor: complex) -> "PauliString":
        return PauliString(self.n_qubits, self.xmask, self.zmask, self.coeff * factor)

    def dense(self) -> np.ndarray:
        dim = 1 << self.n_qubits
        k = np.arange(dim)
        signs = np.array([1 - 2 * ((j & self.zmask).bit_count() & 1) for j in range(dim)])
        mat = np.zeros((dim, dim), dtype=complex)
        mat[k ^ self.xmask, k] = self.coeff * (1j**self.n_y) * signs
        return mat


class PauliSum:
    """A real-or-complex linear combination of PauliStrings."""

    def __init__(self, terms=()):
        self.terms: list[PauliString] = list(terms)
        if self.terms:
            n = self.terms[0].n_qubits
            if any(t.n_qubits != n for t in self.terms):
                raise ValueError("mixed qubit counts in PauliSum")

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(self.terms + list(other))

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum([t.scaled(factor) for t in self.terms])

    def simplify(self, tol: float = 1e-12) -> "PauliSum":
        acc: dict[tuple[int, int], complex] = {}
        n = self.terms[0].n_qubits if self.terms else 0
        for t in self.terms:
            key = (t.xmask, t.zmask)
            acc[key] = acc.get(key, 0.0) + t.coeff
        out = [
            PauliString(n, x, z, c)
            for (x, z), c in acc.items()
            if abs(c) > tol
        ]
        return PauliSum(out)

    def dense(self) -> np.ndarray:
        if not self.terms:
            raise ValueError("empty PauliSum")
        return sum(t.dense() for t in self.terms)


def expectation(amps: np.ndarray, op) -> np.ndarray:
    """<op> in each statevector: ``amps`` is one amplitude vector or a batch of rows."""
    return np.sum(amps.conj() * (amps @ op.dense().T), axis=-1)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """The circuit's unitary: column k runs it on basis state k, prepared by X gates."""
    n = circuit.n_qubits
    preps = [Circuit(n, [qsim.Gate("x", (q,)) for q in range(n) if k >> q & 1]) for k in range(1 << n)]
    return np.array([qsim.run_circuit(prep.extend(circuit)).amps for prep in preps]).T


def parity_signs(dim: int, mask: int) -> np.ndarray:
    """(-1)**popcount(k & mask) for k in range(dim): the eigenvalues of Z on the ``mask`` qubits."""
    return np.array([-1.0 if (k & mask).bit_count() % 2 else 1.0 for k in range(dim)])


# ---------------------------------------------------------------------------
# paired subspace
# ---------------------------------------------------------------------------

# window-local Pauli letters of the two surviving generator terms; letter
# i acts on window qubit i
PAIR_TERM_A = "YXYY"
PAIR_TERM_B = "XXXY"


def pair_basis_index(p: int) -> int:
    """Basis index of |pair p>: alpha and beta qubits of orbital p set."""
    return 0b11 << (2 * p)


def paired_subspace_indices(r: int) -> list[int]:
    return [pair_basis_index(p) for p in range(r)]


# ---------------------------------------------------------------------------
# Jordan-Wigner operators
# ---------------------------------------------------------------------------

def jw_operator(mode: int, dagger: bool, n_modes: int) -> PauliSum:
    """a_mode = Z_0 .. Z_(mode-1) (X + iY)_mode / 2, or with ``dagger`` its adjoint (X - iY)."""
    ztail = (1 << mode) - 1
    xbit = 1 << mode
    return PauliSum(
        [
            PauliString(n_modes, xbit, ztail, 0.5),
            PauliString(n_modes, xbit, ztail | xbit, -0.5j if dagger else 0.5j),
        ]
    )


def jw_product(ops, n_modes: int) -> PauliSum:
    """Expand a product of (mode, dagger) fermion operators into Paulis."""
    acc = PauliSum([PauliString(n_modes, 0, 0, 1.0)])
    for mode, dagger in ops:
        factor = jw_operator(mode, dagger, n_modes)
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
    for p, q in itertools.product(range(r), repeat=2):
        if abs(h_mo[p, q]) < 1e-14:
            continue
        for s in (0, 1):
            terms.extend(jw_product([(2 * p + s, True), (2 * q + s, False)], n).scaled(h_mo[p, q]))
    for p, q, u, v in itertools.product(range(r), repeat=4):
        coeff = 0.5 * eri_mo[p, q, u, v]
        if abs(coeff) < 1e-14:
            continue
        for s1, s2 in itertools.product((0, 1), repeat=2):
            ops = [(2 * p + s1, True), (2 * u + s2, True), (2 * v + s2, False), (2 * q + s1, False)]
            terms.extend(jw_product(ops, n).scaled(coeff))
    out = PauliSum(terms).simplify()
    # Hermitian operator: coefficients must come out real
    bad = max((abs(t.coeff.imag) for t in out), default=0.0)
    if bad > 1e-10:
        raise AssertionError(f"non-real Hamiltonian coefficient ({bad:.2e})")
    return PauliSum(
        [PauliString(n, t.xmask, t.zmask, t.coeff.real) for t in out]
    )


# ---------------------------------------------------------------------------
# generic pair-rotation entangler
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
