"""Ansatz circuit checks against dense exponentials and the chem layer.

The heavy oracles here are scipy.linalg.expm of dense Jordan-Wigner
generators from ``pauli_reference`` and explicit unitary reconstruction
of circuits column by column; neither shares code with the compiled
circuit path.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import pauli_reference as pr
from geminal import ansatz, chem
from geminal.qsim import Circuit, run_circuit


def generic_chain(r: int, t: np.ndarray) -> Circuit:
    """The ansatz chain built from the compiled 12-CNOT pair gates."""
    circ = ansatz.hf_circuit(r)
    for k in range(r - 1):
        circ.extend(pr.generic_pair_gate(k, float(t[k]), r))
    return circ


@pytest.fixture(scope="module")
def h2_system():
    ints, rhf, fci = chem.scf_reference(chem.h2_molecule(1.4))
    h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
    return ints, rhf, fci, h, eri


# ---------------------------------------------------------------------------
# Jordan-Wigner operator algebra
# ---------------------------------------------------------------------------

def test_jw_number_operator():
    n = 3
    for j in range(n):
        num = pr.jw_product([(j, True), (j, False)], n).dense()
        want = np.diag([(k >> j) & 1 for k in range(1 << n)]).astype(complex)
        assert np.allclose(num, want, atol=1e-14)


def test_jw_anticommutation():
    n = 3
    for i in range(n):
        for j in range(n):
            ai = pr.jw_operator(i, False, n).dense()
            ajd = pr.jw_operator(j, True, n).dense()
            anti = ai @ ajd + ajd @ ai
            want = np.eye(1 << n) * (1.0 if i == j else 0.0)
            assert np.allclose(anti, want, atol=1e-13), (i, j)
            aj = pr.jw_operator(j, False, n).dense()
            assert np.allclose(ai @ aj + aj @ ai, 0.0, atol=1e-13)


def test_hf_state_is_pair_zero():
    st = run_circuit(ansatz.hf_circuit(3))
    want = np.zeros(64)
    want[0b000011] = 1.0
    assert np.allclose(st.amps, want)
    assert pr.pair_basis_index(2) == 0b110000


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def test_jw_hamiltonian_reproduces_rhf_energy(h2_system):
    ints, rhf, fci, h, eri = h2_system
    H = pr.jordan_wigner_hamiltonian(h, eri, ints.enuc)
    got = pr.expectation(run_circuit(ansatz.hf_circuit(2)).amps, H).real
    assert got == pytest.approx(rhf.energy, abs=1e-12)


def test_jw_hamiltonian_reaches_fci_at_optimal_angle(h2_system):
    ints, rhf, fci, h, eri = h2_system
    H = pr.jordan_wigner_hamiltonian(h, eri, ints.enuc)
    g, _ = chem.pair_spectrum(fci.coeff)  # MO basis is natural here
    t = math.atan2(g[1], g[0])
    state = run_circuit(ansatz.build_ansatz_circuit(2, [t]))
    got = pr.expectation(state.amps, H).real
    assert got == pytest.approx(fci.energy, abs=1e-12)


def test_jw_hamiltonian_two_electron_block_matches_fci_spectrum(h2_system):
    # restrict the dense qubit Hamiltonian to the Sz = 0 two-electron
    # sector and compare its ground state with the determinant-basis FCI
    ints, rhf, fci, h, eri = h2_system
    H = pr.jordan_wigner_hamiltonian(h, eri, ints.enuc).dense()
    sector = [
        k
        for k in range(16)
        if bin(k & 0b0101).count("1") == 1 and bin(k & 0b1010).count("1") == 1
    ]
    block = H[np.ix_(sector, sector)]
    assert np.linalg.eigvalsh(block)[0] == pytest.approx(fci.energy, abs=1e-12)


def test_jw_hamiltonian_h3plus_hf_energy():
    ints, rhf, fci = chem.scf_reference(chem.h3plus_molecule(1.65))
    h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
    H = pr.jordan_wigner_hamiltonian(h, eri, ints.enuc)
    got = pr.expectation(run_circuit(ansatz.hf_circuit(3)).amps, H).real
    assert got == pytest.approx(rhf.energy, abs=1e-12)


# ---------------------------------------------------------------------------
# pair-rotation entangler
# ---------------------------------------------------------------------------

def test_pair_terms_are_the_expected_window_strings():
    terms = pr.pair_excitation_pauli_terms(0, 2)
    labels = sorted(t.label for t in terms)
    assert labels == ["XXXY", "YXYY"]
    assert all(t.coeff == pytest.approx(0.5) for t in terms)
    terms1 = pr.pair_excitation_pauli_terms(1, 3)
    labels1 = sorted(t.label for t in terms1)
    assert labels1 == ["IIXXXY", "IIYXYY"]
    a, b = (t.dense() for t in terms)
    assert np.allclose(a @ b, b @ a)
    with pytest.raises(ValueError):
        pr.pair_excitation_pauli_terms(1, 2)


def test_compile_pauli_exponential_matches_expm():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        if set(label) == {"I"}:
            continue
        theta = float(rng.uniform(-math.pi, math.pi))
        ps = pr.PauliString.from_label(label)
        got = pr.circuit_unitary(pr.compile_pauli_exponential(ps, theta))
        want = scipy.linalg.expm(-0.5j * theta * ps.dense())
        assert np.abs(got - want).max() < 1e-12, (label, theta)


def test_compile_rejects_identity():
    with pytest.raises(ValueError):
        pr.compile_pauli_exponential(pr.PauliString.from_label("II"), 0.3)


def test_cnot_counts():
    assert ansatz.optimized_pair_gate(0, 0.3, 2).cx_count == 8
    assert pr.generic_pair_gate(0, 0.3, 2).cx_count == 12
    assert ansatz.optimized_pair_gate(1, 0.3, 3).cx_count == 8


def test_entangler_uses_only_nearest_neighbour_couplings():
    for circ in (ansatz.optimized_pair_gate(0, 0.7, 3), pr.generic_pair_gate(0, 0.7, 3)):
        for g in circ:
            if g.name == "cx":
                assert abs(g.qubits[0] - g.qubits[1]) == 1


def test_optimized_equals_generic_up_to_global_phase():
    for t in np.linspace(-math.pi, math.pi, 16):
        u8 = pr.circuit_unitary(ansatz.optimized_pair_gate(0, float(t), 2))
        u12 = pr.circuit_unitary(pr.generic_pair_gate(0, float(t), 2))
        tr = np.trace(u8.conj().T @ u12)
        assert abs(tr) > 1e-9
        assert np.abs(u12 - (tr / abs(tr)) * u8).max() < 1e-10


def test_entangler_matches_full_generator_on_paired_subspace():
    t = 0.8317
    for r in (2, 3):
        for k in range(r - 1):
            full = scipy.linalg.expm(
                t * pr.pair_excitation_generator_full(k, r).dense()
            )
            for style_gate in (pr.generic_pair_gate, ansatz.optimized_pair_gate):
                u = pr.circuit_unitary(style_gate(k, t, r))
                for idx in pr.paired_subspace_indices(r):
                    err = np.abs(u[:, idx] - full[:, idx]).max()
                    assert err < 1e-10, (r, k, style_gate.__name__, idx)


def test_rotation_convention_cos_sin():
    t = 0.4321
    st = run_circuit(ansatz.build_ansatz_circuit(2, [t]))
    amps = st.amps[pr.paired_subspace_indices(2)]
    amps = amps * (abs(amps[0]) / amps[0])  # the global phase is unobservable
    assert amps[0] == pytest.approx(math.cos(t), abs=1e-12)
    assert amps[1] == pytest.approx(math.sin(t), abs=1e-12)
    # full transfer at t = pi/2
    st2 = run_circuit(ansatz.build_ansatz_circuit(2, [math.pi / 2]))
    probs = st2.probabilities()
    assert probs[0b1100] == pytest.approx(1.0, abs=1e-12)


def test_chain_amplitudes_match_statevector():
    rng = np.random.default_rng(17)
    for r in (2, 3, 4):
        for build in (ansatz.build_ansatz_circuit, generic_chain):
            t = rng.uniform(-math.pi, math.pi, size=r - 1)
            state = run_circuit(build(r, t))
            got = state.amps[pr.paired_subspace_indices(r)]
            want = ansatz.givens_chain_amplitudes(t)
            # the global phase is unobservable; align on the largest entry
            j = int(np.argmax(np.abs(want)))
            got = got * (np.sign(want[j]) * abs(got[j]) / got[j])
            assert np.allclose(got, want, atol=1e-10), (r, build.__name__)
            # no leakage out of the paired subspace
            inside = np.sum(np.abs(state.amps[pr.paired_subspace_indices(r)]) ** 2)
            assert inside == pytest.approx(1.0, abs=1e-12)


def test_chain_amplitudes_formula():
    t = np.array([0.3, -1.1, 2.0])
    amps = ansatz.givens_chain_amplitudes(t)
    assert amps[0] == pytest.approx(math.cos(0.3))
    assert amps[1] == pytest.approx(math.sin(0.3) * math.cos(-1.1))
    assert amps[2] == pytest.approx(math.sin(0.3) * math.sin(-1.1) * math.cos(2.0))
    assert amps[3] == pytest.approx(math.sin(0.3) * math.sin(-1.1) * math.sin(2.0))
    assert np.sum(amps**2) == pytest.approx(1.0, rel=1e-12)


def test_ansatz_validation():
    with pytest.raises(ValueError):
        ansatz.build_ansatz_circuit(3, [0.1])  # wrong angle count
    with pytest.raises(ValueError):
        ansatz.hf_circuit(0)


def test_pairing_is_preserved_for_random_angles():
    rng = np.random.default_rng(19)
    r = 3
    for _ in range(5):
        t = rng.uniform(-math.pi, math.pi, size=r - 1)
        state = run_circuit(ansatz.build_ansatz_circuit(r, t))
        for k in np.nonzero(np.abs(state.amps) > 1e-12)[0]:
            k = int(k)
            # every populated configuration is a single doubly occupied pair
            assert bin(k).count("1") == 2
            assert any(k == 0b11 << (2 * p) for p in range(r))
