"""Simulator checks against dense-matrix oracles built independently here.

The oracle embeds local unitaries by explicit Kronecker products over the
little-endian layout and uses scipy's expm for rotation gates, so none of
the simulator's own kernels appear on the oracle side; gates are checked
on the unitary whose columns run each circuit from an X-prepared basis
state (``circuit_unitary``).  The Pauli algebra
of the test-side ``pauli_reference`` is checked against the same
Kronecker products, and its ``expectation`` reads Pauli means off states.

The trajectory engine, one statevector per shot, is checked against
closed-form decay laws.  The density-matrix engine, which runs every
noisy preparation, is checked against ``density_matrix_outcomes`` (an
explicit Kraus-sum oracle) to 1e-12; trajectory histograms pass a
chi-square test against both, so the two engines check each other.
"""

import gc
import math
import re
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from geminal import ansatz, chem, cli, hybrid, qsim, tomography
from geminal.qsim import (
    CalibrationError,
    Circuit,
    Gate,
    NoiseModel,
    ShotHistogram,
    Statevector,
)
from pauli_reference import PauliString, PauliSum, circuit_unitary, expectation, parity_signs

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def embed(u: np.ndarray, q: int, n: int) -> np.ndarray:
    """Local 2x2 unitary on qubit q in the little-endian dense layout."""
    return np.kron(np.eye(1 << (n - 1 - q)), np.kron(u, np.eye(1 << q)))


def dense_cnot(control: int, target: int, n: int) -> np.ndarray:
    p0 = embed(np.diag([1.0, 0.0]).astype(complex), control, n)
    p1 = embed(np.diag([0.0, 1.0]).astype(complex), control, n)
    return p0 + p1 @ embed(X, target, n)


def dense_pauli(label: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in reversed(label):  # leftmost letter is qubit 0
        out = np.kron(out, PAULI[ch])
    return out


def random_state(n: int, rng) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Pauli algebra (pauli_reference)
# ---------------------------------------------------------------------------

def test_pauli_label_roundtrip():
    for label in ["X", "IZ", "XYZI", "YYXZ"]:
        ps = PauliString.from_label(label)
        assert ps.label == label
        assert ps.weight == sum(c != "I" for c in label)


def test_pauli_dense_matches_kron_oracle():
    rng = np.random.default_rng(11)
    letters = "IXYZ"
    for _ in range(30):
        n = int(rng.integers(1, 5))
        label = "".join(rng.choice(list(letters)) for _ in range(n))
        ps = PauliString.from_label(label, coeff=1.0)
        assert np.allclose(ps.dense(), dense_pauli(label), atol=1e-14), label


def test_pauli_products():
    x = PauliString.from_label("X")
    y = PauliString.from_label("Y")
    z = PauliString.from_label("Z")
    assert (x * y).label == "Z" and (x * y).coeff == pytest.approx(1j)
    assert (y * x).coeff == pytest.approx(-1j)
    assert (z * x).coeff == pytest.approx(1j) and (z * x).label == "Y"
    assert (x * x).label == "I" and (x * x).coeff == pytest.approx(1.0)


def test_pauli_product_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        a = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        b = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        pa, pb = PauliString.from_label(a), PauliString.from_label(b)
        assert np.allclose((pa * pb).dense(), pa.dense() @ pb.dense(), atol=1e-14)


def test_pauli_commutes():
    xx, yy = PauliString.from_label("XX").dense(), PauliString.from_label("YY").dense()
    xi, zi = PauliString.from_label("XI").dense(), PauliString.from_label("ZI").dense()
    assert np.allclose(xx @ yy, yy @ xx)
    assert not np.allclose(xi @ zi, zi @ xi)


def test_pauli_sum_simplify():
    a = PauliString.from_label("XZ", 0.5)
    b = PauliString.from_label("XZ", 0.5)
    c = PauliString.from_label("YY", -0.25)
    d = PauliString.from_label("YY", 0.25)
    s = PauliSum([a, b, c, d]).simplify()
    assert len(s) == 1
    assert s.terms[0].label == "XZ"
    assert s.terms[0].coeff == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# gates, circuits, statevectors
# ---------------------------------------------------------------------------

def test_rotation_gates_match_expm():
    theta = 0.7342
    for name, gen in [("rx", X), ("ry", Y), ("rz", Z)]:
        got = Gate(name, (0,), theta).matrix()
        want = scipy.linalg.expm(-0.5j * theta * gen)
        assert np.allclose(got, want, atol=1e-14), name


def test_apply_gate_matches_dense_oracle():
    rng = np.random.default_rng(23)
    n = 4
    for name in ["x", "y", "z", "h", "s", "sdg"]:
        for q in range(n):
            psi = random_state(n, rng)
            got = circuit_unitary(Circuit(n).add(name, q)) @ psi
            want = embed(PAULI.get(name.upper(), Gate(name, (0,)).matrix()), q, n) @ psi
            assert np.allclose(got, want, atol=1e-13), (name, q)
    for name in ["rx", "ry", "rz"]:
        for q in range(n):
            theta = rng.uniform(-3, 3)
            psi = random_state(n, rng)
            got = circuit_unitary(Circuit(n).add(name, q, param=theta)) @ psi
            want = embed(Gate(name, (0,), theta).matrix(), q, n) @ psi
            assert np.allclose(got, want, atol=1e-13), (name, q)


def test_cnot_matches_dense_oracle():
    rng = np.random.default_rng(29)
    n = 4
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            psi = random_state(n, rng)
            got = circuit_unitary(Circuit(n).cx(c, t)) @ psi
            assert np.allclose(got, dense_cnot(c, t, n) @ psi, atol=1e-13), (c, t)


def test_run_circuit_composition():
    rng = np.random.default_rng(31)
    n = 3
    circ = Circuit(n)
    circ.h(0).cx(0, 1).rx(2, 0.3).cx(2, 0).sdg(1).rz(0, -1.1).cx(1, 2)
    mat = np.eye(1 << n, dtype=complex)
    for g in circ.gates:
        if g.name == "cx":
            mat = dense_cnot(*g.qubits, n) @ mat
        else:
            mat = embed(g.matrix(), g.qubits[0], n) @ mat
    psi = random_state(n, rng)
    got = circuit_unitary(circ) @ psi
    assert np.allclose(got, mat @ psi, atol=1e-12)


def test_bell_state_and_expectations():
    circ = Circuit(2).h(0).cx(0, 1)
    state = qsim.run_circuit(circ)
    assert np.allclose(state.probabilities(), [0.5, 0, 0, 0.5], atol=1e-14)
    assert expectation(state.amps, PauliString.from_label("XX")).real == pytest.approx(1.0)
    assert expectation(state.amps, PauliString.from_label("ZZ")).real == pytest.approx(1.0)
    assert expectation(state.amps, PauliString.from_label("YY")).real == pytest.approx(-1.0)
    assert expectation(state.amps, PauliString.from_label("ZI")).real == pytest.approx(0.0)


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(37)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        psi = random_state(n, rng)
        got = expectation(psi, PauliString.from_label(label)).real
        want = (psi.conj() @ dense_pauli(label) @ psi).real
        assert got == pytest.approx(want, abs=1e-12), label


def test_statevector_and_gate_validation():
    with pytest.raises(ValueError):
        Statevector(np.ones(3, dtype=complex))
    circ = Circuit(2)
    with pytest.raises(ValueError):
        circ.add("bogus", 0)
    with pytest.raises(ValueError):
        circ.add("cx", 0, 0)
    with pytest.raises(ValueError):
        circ.add("rx", 0)  # missing parameter
    with pytest.raises(ValueError):
        circ.add("h", 0, param=1.0)
    with pytest.raises(ValueError):
        circ.add("x", 2)


# ---------------------------------------------------------------------------
# histograms and sampling
# ---------------------------------------------------------------------------

def histogram(n_qubits, shots, counts: dict) -> ShotHistogram:
    dense = np.zeros(1 << n_qubits, dtype=np.int64)
    for k, c in counts.items():
        dense[k] = c
    return ShotHistogram(n_qubits, shots, dense)


def reference_occupation(counts: dict, shots: int, qubit: int) -> float:
    """Dict-loop mean of bit `qubit`, the sparse form the dense record replaced."""
    return sum(c for k, c in counts.items() if (k >> qubit) & 1) / shots


def reference_parity(counts: dict, shots: int, mask: int) -> float:
    acc = sum(c * (1.0 - 2.0 * (bin(k & mask).count("1") & 1)) for k, c in counts.items())
    return acc / shots


def test_histogram_statistics():
    hist = histogram(4, 1024, {0b0101: 700, 0b0100: 200, 0b0110: 124})
    assert hist.occupations()[[0, 2]] == pytest.approx([700 / 1024, 1.0])
    parity = hist.parities(parity_signs(16, 0b0101))
    assert parity == pytest.approx((700 - 200 + 124 * -1) / 1024)


def test_dense_statistics_equal_dict_reference():
    rng = np.random.default_rng(17)
    for n in (2, 4, 6):
        for _ in range(20):
            keys = rng.integers(0, 1 << n, size=rng.integers(1, 12))
            counts = {int(k): int(rng.integers(1, 5000)) for k in keys}
            shots = sum(counts.values())
            hist = histogram(n, shots, counts)
            want = [reference_occupation(counts, shots, q) for q in range(n)]
            assert hist.occupations().tolist() == want
            signs = np.array([parity_signs(1 << n, mask) for mask in range(1 << n)])
            want = [reference_parity(counts, shots, mask) for mask in range(1 << n)]
            assert hist.parities(signs).tolist() == want


def test_sampling_is_deterministic_and_unbiased():
    probs = qsim.run_circuit(Circuit(2).h(0).cx(0, 1)).probabilities()
    h1 = qsim.sample(probs, 4096, qsim.make_rng(9, qsim.SHOT_KEY, 0))
    h2 = qsim.sample(probs, 4096, qsim.make_rng(9, qsim.SHOT_KEY, 0))
    assert np.array_equal(h1.counts, h2.counts)
    h3 = qsim.sample(probs, 4096, qsim.make_rng(9, qsim.SHOT_KEY, 1))
    assert not np.array_equal(h3.counts, h1.counts)
    assert set(np.flatnonzero(h1.counts)) <= {0b00, 0b11}
    # 5 sigma band around p = 0.5
    p = h1.counts[0b00] / 4096
    assert abs(p - 0.5) < 5 * math.sqrt(0.25 / 4096)


def test_sampling_readout_flips():
    readout_only = NoiseModel({}, {}, {0: 0.25, 1: 0.0, 2: 0.5})
    rng = qsim.make_rng(3, qsim.SHOT_KEY, 0)
    hist = qsim.sample(qsim.run_density(Circuit(3), readout_only).probabilities(), 20000, rng)
    occupations = hist.occupations()
    assert occupations[0] == pytest.approx(0.25, abs=0.02)
    assert occupations[1] == 0.0
    assert occupations[2] == pytest.approx(0.5, abs=0.02)


def test_make_rng_rejects_negative():
    with pytest.raises(ValueError):
        qsim.make_rng(1, -2)


# ---------------------------------------------------------------------------
# calibration and noise model
# ---------------------------------------------------------------------------

def test_builtin_calibrations_pins():
    cal5 = qsim.load_calibration("ibm-5")
    assert cal5.name == "ibm-5"
    assert cal5.qubit(0).u2_error == pytest.approx(2.7e-3)
    assert cal5.qubit(4).readout_error == pytest.approx(0.36)
    assert cal5.qubit(3).t2_us == pytest.approx(28.0)
    assert cal5.cx_error(0, 1) == pytest.approx(5.1e-2)
    assert cal5.cx_error(1, 0) == pytest.approx(5.1e-2)  # direction-agnostic
    with pytest.raises(CalibrationError):
        cal5.cx_error(0, 4)
    with pytest.raises(CalibrationError):
        cal5.qubit(7)

    cal14 = qsim.load_calibration("ibm-14")
    assert len(cal14.qubits) == 14
    assert cal14.qubit(11).u2_error == pytest.approx(0.181)
    assert cal14.qubit(8).t1_us == pytest.approx(125.0)
    assert cal14.cx_error(4, 10) == pytest.approx(5.4e-2)


def test_parse_calibration_errors():
    with pytest.raises(CalibrationError):
        qsim.parse_calibration("qubit 0 1 2 3\n")  # wrong field count
    with pytest.raises(CalibrationError):
        qsim.parse_calibration("widget 1 2\n")
    with pytest.raises(CalibrationError):
        qsim.parse_calibration("device empty\n")
    with pytest.raises(CalibrationError):
        qsim.load_calibration("no-such-device")


@pytest.mark.parametrize(
    "line, message",
    [
        ("qubit 1 nan 1e-3 0.1 50 60", "an error rate outside [0, 1]"),
        ("qubit 1 1.7 1e-3 0.1 50 60", "an error rate outside [0, 1]"),
        ("qubit 1 1e-3 1e-3 -0.1 50 60", "an error rate outside [0, 1]"),
        ("cx 0 1 inf", "an error rate outside [0, 1]"),
        ("cx 0 1 -0.02", "an error rate outside [0, 1]"),
        ("qubit 1 1e-3 1e-3 0.1 0 60", "a T1/T2 that is not positive and finite"),
        ("qubit 1 1e-3 1e-3 0.1 -50 60", "a T1/T2 that is not positive and finite"),
        ("qubit 1 1e-3 1e-3 0.1 50 inf", "a T1/T2 that is not positive and finite"),
        ("qubit 1 1e-3 1e-3 0.1 50 nan", "a T1/T2 that is not positive and finite"),
    ],
)
def test_parse_calibration_rejects_unphysical_values(line, message):
    text = f"device d\nqubit 0 0 1 0.5 50 60\n{line}\n"  # rates at 0 and 1 are fine
    with pytest.raises(CalibrationError, match=re.escape(f"calibration line 3 has {message}: {line!r}")):
        qsim.parse_calibration(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("cx 0 1 0.02 0.5 junk", "is malformed"),
        ("cx 0 1", "is malformed"),
        ("qubit 1 1e-3 1e-3 0.1 50 60 70", "is malformed"),
        ("device d2 extra", "is malformed"),
        ("device", "is malformed"),
        ("qubit 0 1e-3 1e-3 0.1 50 60", "defines qubit 0 a second time"),
        ("cx 0 2 0.03", "defines coupling (0, 2) a second time"),
        ("cx 2 0 0.03", "defines coupling (2, 0) a second time"),
    ],
)
def test_parse_calibration_rejects_extra_fields_and_repeats(line, message):
    text = f"device d\nqubit 0 0 1 0.5 50 60\ncx 0 2 0.02\n{line}\n"
    want = f"calibration line 4 {message}: {line!r}"
    with pytest.raises(CalibrationError, match=re.escape(want)):
        qsim.parse_calibration(text)


def test_load_calibration_from_path(tmp_path):
    p = tmp_path / "cal.txt"
    p.write_text("device toy\nqubit 0 1e-3 2e-3 0.1 50 60\nqubit 1 1e-3 2e-3 0.1 50 60\ncx 0 1 0.02\n")
    cal = qsim.load_calibration(str(p))
    assert cal.name == "toy"
    assert cal.cx_error(1, 0) == pytest.approx(0.02)
    binary = tmp_path / "cal.bin"
    binary.write_bytes(b"\xff\xfe\x00qubit")
    for unreadable in (tmp_path, binary):  # a directory, and bytes that are not text
        with pytest.raises(CalibrationError, match="cannot read calibration file"):
            qsim.load_calibration(str(unreadable))


def test_noise_model_from_calibration():
    cal = qsim.load_calibration("ibm-5")
    nm = NoiseModel.from_calibration(cal, n_qubits=4)
    assert nm.p_gate(Gate("h", (2,))) == pytest.approx(6.4e-3)
    assert nm.p_gate(Gate("cx", (1, 2))) == pytest.approx(6.8e-2)
    assert nm.p_gate(Gate("cx", (2, 1))) == pytest.approx(6.8e-2)
    assert nm.readout_vector(4)[1] == pytest.approx(0.25)
    with pytest.raises(CalibrationError):
        NoiseModel.from_calibration(cal, n_qubits=6)  # no qubit 5 on this device
    nm14 = NoiseModel.from_calibration(qsim.load_calibration("ibm-14"), n_qubits=6)
    assert nm14.p_gate(Gate("cx", (3, 4))) == pytest.approx(5.6e-2)


# ---------------------------------------------------------------------------
# trajectory noise
# ---------------------------------------------------------------------------

def test_trajectories_zero_noise_equal_ideal():
    circ = Circuit(3).h(0).cx(0, 1).rx(2, 0.4).cx(1, 2)
    ideal = qsim.run_circuit(circ).amps
    ens = qsim.run_trajectories(circ, NoiseModel.uniform(3), n_traj=7, seed=1)
    assert np.allclose(ens.amps2, ideal[None, :], atol=1e-12)


def test_one_qubit_depolarising_decay_law():
    # N noisy identity rotations: <Z> = (1 - 4p/3)^N
    p, n_gates, nt = 0.01, 100, 20000
    circ = Circuit(1)
    for _ in range(n_gates):
        circ.rz(0, 0.0)
    ens = qsim.run_trajectories(circ, NoiseModel.uniform(1, p1=p), nt, seed=12)
    want = (1.0 - 4.0 * p / 3.0) ** n_gates
    got = expectation(ens.amps2, PauliString.from_label("Z")).real.mean()
    sem = math.sqrt((1.0 - want**2) / nt)
    assert abs(got - want) < 5 * sem


def test_cnot_error_one_fully_depolarises():
    # with error probability 1 each CNOT scrambles to <Z> = -1/15; a few
    # in sequence drive both qubits' <Z> to zero
    nt = 30000
    circ = Circuit(2).cx(0, 1).cx(0, 1).cx(0, 1)
    ens = qsim.run_trajectories(circ, chain_noise(2, 0.0, 0.0, 1.0), nt, seed=4)
    assert abs(expectation(ens.amps2, PauliString.from_label("ZI")).real.mean()) < 0.03
    assert abs(expectation(ens.amps2, PauliString.from_label("IZ")).real.mean()) < 0.03


def test_single_cnot_error_one_mean():
    nt = 60000
    circ = Circuit(2).cx(0, 1)
    ens = qsim.run_trajectories(circ, chain_noise(2, 0.0, 0.0, 1.0), nt, seed=8)
    got = expectation(ens.amps2, PauliString.from_label("IZ")).real.mean()
    assert got == pytest.approx(-1.0 / 15.0, abs=0.02)


def test_noisy_sampling_reproducible():
    circ = Circuit(2).h(0).cx(0, 1)
    nm = chain_noise(2, 0.01, 0.03, 0.05)
    probs = qsim.run_density(circ, nm).probabilities()
    h1 = qsim.sample(probs, 512, qsim.make_rng(21, qsim.SHOT_KEY, 3))
    h2 = qsim.sample(probs, 512, qsim.make_rng(21, qsim.SHOT_KEY, 3))
    assert np.array_equal(h1.counts, h2.counts)
    assert h1.counts.sum() == 512
    h3 = qsim.sample(probs, 512, qsim.make_rng(22, qsim.SHOT_KEY, 3))
    assert not np.array_equal(h3.counts, h1.counts)
    h4 = qsim.sample(probs, 512, qsim.make_rng(21, qsim.SHOT_KEY, 4))
    assert not np.array_equal(h4.counts, h1.counts)


def test_readout_noise_on_prepared_state():
    circ = Circuit(2).x(0)
    nm = chain_noise(2, 0.0, 0.2, 0.0)
    probs = qsim.run_density(circ, nm).probabilities()
    hist = qsim.sample(probs, 20000, qsim.make_rng(5, qsim.SHOT_KEY, 0))
    assert hist.occupations() == pytest.approx([0.8, 0.2], abs=0.02)


def test_amplitude_damping_relaxes_excited_state():
    cal_text = "device d\nqubit 0 0 0 0 0.0001 0.0002\n"
    cal = qsim.parse_calibration(cal_text)
    # t1 = 0.1 ns << 100 ns gate time: |1> relaxes essentially instantly
    nm = NoiseModel.from_calibration(cal, 1, damping=True)
    circ = Circuit(1).x(0)
    ens = qsim.run_trajectories(circ, nm, 2000, seed=2)
    assert expectation(ens.amps2, PauliString.from_label("Z")).real.mean() > 0.99
    norms = np.linalg.norm(ens.amps2, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_damping_decay_fraction_matches_t1():
    cal_text = "device d\nqubit 0 0 0 0 0.1 0.2\n"  # t1 = 100 ns = one gate
    cal = qsim.parse_calibration(cal_text)
    nm = NoiseModel.from_calibration(cal, 1, damping=True)
    circ = Circuit(1).x(0)
    nt = 40000
    ens = qsim.run_trajectories(circ, nm, nt, seed=6)
    p1 = 0.5 * (1.0 - expectation(ens.amps2, PauliString.from_label("Z")).real.mean())
    want = math.exp(-1.0)
    assert p1 == pytest.approx(want, abs=5 * math.sqrt(want * (1 - want) / nt))


def test_dephasing_shrinks_coherence():
    cal_text = "device d\nqubit 0 0 0 0 1e6 0.05\n"  # pure dephasing only
    cal = qsim.parse_calibration(cal_text)
    nm = NoiseModel.from_calibration(cal, 1, damping=True)
    circ = Circuit(1).h(0)
    ens = qsim.run_trajectories(circ, nm, 20000, seed=7)
    x = expectation(ens.amps2, PauliString.from_label("X")).real.mean()
    # p_z = (1 - exp(-100/Tphi))/2 with 1/Tphi ~ 1/t2: coherence = 1 - 2 p_z
    want = math.exp(-100.0 / 50.0 + 100.0 * 0.5 / 1e9)
    assert x == pytest.approx(want, abs=0.05)


def test_production_noisy_paths_never_run_trajectories(monkeypatch):
    # trajectories are the reference only: the hybrid loop and the CLI
    # tables prepare every noisy state on the density-matrix engine, and
    # no production engine applies a gate with the reference's kernels
    def reference_only(*_args, **_kwargs):
        raise AssertionError("a production path ran the trajectory reference")

    monkeypatch.setattr(qsim, "run_trajectories", reference_only)
    monkeypatch.setattr(qsim.TrajectoryEnsemble, "sample", reference_only)
    monkeypatch.setattr(qsim._kernels, "apply_1q_batch", reference_only)
    monkeypatch.setattr(qsim._kernels, "apply_cnot_batch", reference_only)
    ibm5 = NoiseModel.from_calibration(qsim.load_calibration("ibm-5"), 4)
    for noise in (None, ibm5):
        config = hybrid.HybridConfig(
            noise=noise, seed=1, restarts=1, nm_max_iter=60, outer_max_iter=2
        )
        assert hybrid.run_hybrid(chem.h2_molecule(1.4), config).n_evals > 0
    for noise in (None, cli.load_noise("ibm-14", 4, damping=True)):
        rows = cli.vtable_rows(2, 2048, 1, noise)
        assert [row["setting"] for row in rows] == ["none", "N", "Sz", "N+Sz"]


# ---------------------------------------------------------------------------
# noisy cases shared by the engine checks
# ---------------------------------------------------------------------------

def cnot_ladder(n_qubits: int, n_cnots: int) -> Circuit:
    circ = Circuit(n_qubits)
    for i in range(n_qubits):
        circ.ry(i, 0.3 + 0.2 * i)
    for i in range(n_cnots):
        a = i % (n_qubits - 1)
        pair = (a, a + 1) if i % 2 == 0 else (a + 1, a)
        circ.cx(*pair)
    return circ


# ibm-14 qubit 2 has T2 > 2 T1 (168 vs 75 us), where pure dephasing is clamped at 0
ENGINE_CASES = {
    "r2-ibm-5": (lambda: ansatz.build_ansatz_circuit(2, np.array([-0.8])), "ibm-5", False),
    "r3-ibm-14": (lambda: ansatz.build_ansatz_circuit(3, np.array([0.45, -1.1])), "ibm-14", False),
    "r2-ibm-14-damping": (lambda: ansatz.build_ansatz_circuit(2, np.array([0.9])), "ibm-14", True),
    "r3-ibm-14-damping": (
        lambda: ansatz.build_ansatz_circuit(3, np.array([-0.6, 1.3])), "ibm-14", True
    ),
    "uniform-p2-1": (lambda: cnot_ladder(3, 12), None, False),
}


def engine_case(case: str):
    """(circuit, calibration, noise model) of one ENGINE_CASES entry."""
    build, device, damping = ENGINE_CASES[case]
    circ = build()
    if device is None:  # every CNOT fails
        cal = chain_calibration(circ.n_qubits, 0.02, 0.05, 1.0)
    else:
        cal = qsim.load_calibration(device)
    return circ, cal, NoiseModel.from_calibration(cal, circ.n_qubits, damping=damping)


def test_noise_model_missing_coupling_raises():
    nm = NoiseModel({0: 0.0, 1: 0.0}, {(0, 1): 0.1}, {0: 0.0, 1: 0.0})
    with pytest.raises(CalibrationError):
        nm.p_gate(Gate("cx", (1, 2)))


# ---------------------------------------------------------------------------
# density-matrix oracle for the trajectory noise model
# ---------------------------------------------------------------------------

def density_matrix_outcomes(
    circ: Circuit, cal: qsim.DeviceCalibration, damping: bool = False
) -> np.ndarray:
    """Outcome distribution of the calibrated Pauli + readout noise model.

    Evolves rho through each gate followed by its depolarising channel,
    (1 - p) rho + p/3 sum_P P rho P over X, Y, Z after a one-qubit gate
    and p/15 over the 15 non-identity two-qubit Paulis after a CNOT, then
    flips each measured bit of diag(rho) with its readout error.  Rates
    come straight from the calibration, on the identity qubit layout.

    With ``damping``, each gate qubit then relaxes for the gate duration:
    the amplitude-damping Kraus pair K0 = diag(1, sqrt(1 - gamma)),
    K1 = sqrt(gamma) |0><1| with gamma = 1 - exp(-t/T1), followed by a
    phase flip with probability pz = (1 - exp(-t (1/T2 - 1/(2 T1)))) / 2,
    or none where T2 > 2 T1 makes that negative.
    """
    n = circ.n_qubits
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circ.gates:
        if gate.name == "cx":
            c, t = gate.qubits
            u = dense_cnot(c, t, n)
            p = cal.cx_error(c, t)
            paulis = [
                embed(PAULI[a], c, n) @ embed(PAULI[b], t, n)
                for a in "IXYZ" for b in "IXYZ" if a + b != "II"
            ]
        else:
            (q,) = gate.qubits
            u = embed(gate.matrix(), q, n)
            p = cal.qubit(q).u2_error
            paulis = [embed(PAULI[a], q, n) for a in "XYZ"]
        rho = u @ rho @ u.conj().T
        rho = (1.0 - p) * rho + p / len(paulis) * sum(P @ rho @ P.conj().T for P in paulis)
        if not damping:
            continue
        duration = qsim.CNOT_GATE_NS if gate.name == "cx" else qsim.ONE_QUBIT_GATE_NS
        for q in gate.qubits:
            t1, t2 = cal.qubit(q).t1_us * 1000.0, cal.qubit(q).t2_us * 1000.0
            gamma = 1.0 - math.exp(-duration / t1)
            k0 = embed(np.diag([1.0, math.sqrt(1.0 - gamma)]).astype(complex), q, n)
            k1 = embed(np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex), q, n)
            rho = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
            # T2 > 2 T1 leaves no pure dephasing: the flip probability is clamped at 0
            pz = max(0.0, 0.5 * (1.0 - math.exp(-duration * (1.0 / t2 - 0.5 / t1))))
            zq = embed(Z, q, n)
            rho = (1.0 - pz) * rho + pz * zq @ rho @ zq
    probs = np.real(np.diag(rho)).copy()
    k = np.arange(dim)
    for q in range(n):
        ro = cal.qubit(q).readout_error
        probs = (1.0 - ro) * probs + ro * probs[k ^ (1 << q)]
    return probs


def chi_square_statistic(counts: np.ndarray, probs: np.ndarray) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom; bins expecting < 5 are pooled."""
    expected = probs * counts.sum()
    big = expected >= 5.0
    obs = np.append(counts[big], counts[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    if exp[-1] == 0.0:
        obs, exp = obs[:-1], exp[:-1]
    return float(np.sum((obs - exp) ** 2 / exp)), obs.size - 1


def chain_calibration(
    n: int, u2: float, readout: float, cx: float, t1_us: float = 50.0, t2_us: float = 50.0
) -> qsim.DeviceCalibration:
    """Uniform rates on an n-qubit linear chain."""
    return qsim.parse_calibration(
        "device chain\n"
        + "".join(f"qubit {q} {u2} {u2} {readout} {t1_us} {t2_us}\n" for q in range(n))
        + "".join(f"cx {q} {q + 1} {cx}\n" for q in range(n - 1))
    )


def chain_noise(n: int, u2: float, readout: float, cx: float) -> NoiseModel:
    """Noise model of chain_calibration's rates, without damping."""
    return NoiseModel.from_calibration(chain_calibration(n, u2, readout, cx), n)


def test_density_matrix_oracle_without_noise_is_the_statevector():
    cal = chain_calibration(4, 0.0, 0.0, 0.0)
    circ = ansatz.build_ansatz_circuit(2, np.array([0.37]))
    ideal = qsim.run_circuit(circ).probabilities()
    assert np.allclose(density_matrix_outcomes(circ, cal), ideal, atol=1e-13)


@pytest.mark.parametrize(
    "device, angles, seed",
    [("ibm-5", [-0.8], 31), ("ibm-14", [0.45, -1.1], 37), ("stressed", [0.9], 41)],
)
def test_trajectory_histogram_matches_density_matrix(device, angles, seed):
    # the device one-qubit rates (~1e-3) are too small for 20000 shots to
    # resolve; the stressed chain makes the one-qubit channel visible too
    shots = 20000
    circ = ansatz.build_ansatz_circuit(len(angles) + 1, np.array(angles))
    if device == "stressed":
        cal = chain_calibration(circ.n_qubits, 0.04, 0.03, 0.06)
    else:
        cal = qsim.load_calibration(device)
    noise = NoiseModel.from_calibration(cal, circ.n_qubits)
    probs = density_matrix_outcomes(circ, cal)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    hist = qsim.run_trajectories(circ, noise, shots, seed=seed).sample()
    stat, dof = chi_square_statistic(hist.counts, probs)
    assert stat < scipy.stats.chi2.ppf(0.999, dof), (stat, dof)


@pytest.mark.parametrize("angles, seed", [([0.9], 43), ([0.45, -1.1], 47)])
def test_damped_trajectory_histogram_matches_density_matrix(angles, seed):
    # T1 = 5.5 us gives gamma = 0.018 per one-qubit gate and 0.053 per
    # CNOT; T2 = 4 us adds pz = 0.008 and 0.023 of pure dephasing
    shots = 20000
    circ = ansatz.build_ansatz_circuit(len(angles) + 1, np.array(angles))
    cal = chain_calibration(circ.n_qubits, 0.01, 0.02, 0.03, t1_us=5.5, t2_us=4.0)
    noise = NoiseModel.from_calibration(cal, circ.n_qubits, damping=True)
    probs = density_matrix_outcomes(circ, cal, damping=True)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    hist = qsim.run_trajectories(circ, noise, shots, seed=seed).sample()
    stat, dof = chi_square_statistic(hist.counts, probs)
    assert stat < scipy.stats.chi2.ppf(0.999, dof), (stat, dof)


# ---------------------------------------------------------------------------
# density-matrix engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_density_engine_matches_kraus_oracle(case):
    circ, cal, noise = engine_case(case)
    got = qsim.run_density(circ, noise).probabilities()
    want = density_matrix_outcomes(circ, cal, damping=noise.t1_ns is not None)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_trajectory_histogram_matches_density_engine(case):
    circ, _, noise = engine_case(case)
    probs = qsim.run_density(circ, noise).probabilities()
    hist = qsim.run_trajectories(circ, noise, 20000, seed=59, stream=2).sample()
    stat, dof = chi_square_statistic(hist.counts, probs)
    assert stat < scipy.stats.chi2.ppf(0.999, dof), (stat, dof)


def test_sample_is_one_multinomial_draw_on_its_stream():
    # the one measurement rule of both engines, on a shot generator from make_rng
    circ, _, noise = engine_case("r2-ibm-5")
    for state in (qsim.run_circuit(circ), qsim.run_density(circ, noise)):
        hist = qsim.sample(state.probabilities(), 2048, qsim.make_rng(7, qsim.SHOT_KEY))
        want = np.random.default_rng([7, 202]).multinomial(2048, state.probabilities())
        np.testing.assert_array_equal(hist.counts, want)
        assert (hist.n_qubits, hist.shots) == (circ.n_qubits, 2048)


def test_density_engine_rejects_more_than_ten_qubits():
    with pytest.raises(ValueError, match="1 to 10 qubits"):
        qsim.run_density(Circuit(11).x(0), NoiseModel.uniform(11))


def test_gate_order_cache_holds_every_evaluation_key():
    # one objective evaluation per mode: the Z-basis and both
    # rotated-basis measurement programs; the first round also compiles
    # every program
    ibm14 = qsim.load_calibration("ibm-14")
    modes = [
        (r, noise)
        for r in (2, 3)
        for noise in (None, NoiseModel.from_calibration(ibm14, 2 * r, damping=True))
    ]

    def evaluate_each_mode():
        for r, noise in modes:
            program = ansatz.compiled_ansatz(r, noise)
            sampler = tomography.ShotSampler(program, 64, seed=1)
            sampler.angles = np.full(r - 1, 0.4)
            tomography.measure_occupations(sampler, r)
            tomography.estimate_phases(sampler, tomography.phase_measurement_programs(r, noise))

    evaluate_each_mode()
    misses = qsim._local_order.cache_info().misses
    evaluate_each_mode()
    assert qsim._local_order.cache_info().misses == misses


# ---------------------------------------------------------------------------
# compiled programs
# ---------------------------------------------------------------------------

COMPILED_NOISE_CASES = [(2, "ibm-5", False), (2, "ibm-14", True), (3, "ibm-14", False)]


def reference_distribution(circuit: Circuit, noise) -> np.ndarray:
    """The outcome distribution of the gate-by-gate engine ``noise`` selects."""
    state = qsim.run_circuit(circuit) if noise is None else qsim.run_density(circuit, noise)
    return state.probabilities()


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_compiled_ansatz_matches_run_circuit(r):
    # 5**(r-1) rows, one per node of a 4**r-amplitude run: r <= 5 fit TABLE_MAX_ENTRIES
    program = ansatz.compiled_ansatz(r)
    assert program.tabulated
    rng = np.random.default_rng(40 + r)
    for _ in range(5):
        t = rng.uniform(-np.pi, np.pi, size=r - 1)
        want = reference_distribution(ansatz.build_ansatz_circuit(r, t), None)
        np.testing.assert_allclose(program.run(t), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("r, device, damping", COMPILED_NOISE_CASES)
def test_compiled_ansatz_matches_run_density(r, device, damping):
    # 5**(r-1) rows, one per node of a 16**r-entry rho run: r <= 3 fit TABLE_MAX_ENTRIES
    noise = NoiseModel.from_calibration(qsim.load_calibration(device), 2 * r, damping=damping)
    program = ansatz.compiled_ansatz(r, noise)
    assert program.tabulated
    rng = np.random.default_rng(50 + r)
    for _ in range(3):
        t = rng.uniform(-np.pi, np.pi, size=r - 1)
        want = reference_distribution(ansatz.build_ansatz_circuit(r, t), noise)
        np.testing.assert_allclose(program.run(t), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("noisy", [False, True])
def test_table_takes_any_number_of_gates_per_angle(noisy):
    # angle 0 drives one rotation and angle 1 three, on both engines
    a0, a1 = qsim.Angle(0), qsim.Angle(1)
    template = (
        Circuit(3).h(0).ry(0, a0).cx(0, 1).rz(1, a1).rx(2, a1).cx(1, 2).s(2).ry(1, a1).h(2)
    )
    noise = NoiseModel.uniform(3, p1=0.04) if noisy else None
    program = qsim.Program(template, noise)
    assert program.tabulated
    rng = np.random.default_rng(7)
    for _ in range(4):
        t = rng.uniform(-np.pi, np.pi, size=2)
        want = reference_distribution(qsim.bind(template, t), noise)
        np.testing.assert_allclose(program.run(t), want, rtol=0, atol=1e-12)
    for wrong in ([0.1], [0.1, 0.2, 0.3]):
        with pytest.raises(ValueError, match=f"binds 2 angles, got {len(wrong)}"):
            program.run(wrong)


def measurement_noise(noisy, n_qubits: int) -> NoiseModel | None:
    """None for False, ibm-14 with damping for True, else "uniform" or a device name [+ "-damping"]."""
    if noisy is False:
        return None
    if noisy == "uniform":
        return NoiseModel.uniform(n_qubits, 1e-3)
    if noisy is True:
        return NoiseModel.from_calibration(qsim.load_calibration("ibm-14"), n_qubits, damping=True)
    device, damping = noisy.removesuffix("-damping"), noisy.endswith("-damping")
    return NoiseModel.from_calibration(qsim.load_calibration(device), n_qubits, damping=damping)


@pytest.mark.parametrize("noisy, r", [
    (False, 2), (False, 3), (False, 4), (False, 5), (False, 6),
    (True, 2), (True, 3), ("ibm-14", 2), ("ibm-14", 3), ("ibm-5", 2), ("ibm-5-damping", 2),
    ("uniform", 4),
])
def test_measurement_programs_match_the_whole_circuits(noisy, r):
    # the Z, A and B programs: the ansatz alone or followed by rotation A or
    # B, each against the whole circuit's outcome distribution gate by gate.
    # Noiseless r = 6 and the uniform model at r = 4 (ibm-14 has no chain of
    # 8 qubits) lie over the size rule and run the reference engine; every
    # other case reads its table
    noise = measurement_noise(noisy, 2 * r)
    programs = (ansatz.compiled_ansatz(r, noise), *tomography.phase_measurement_programs(r, noise))
    rotations = (Circuit(2 * r), *tomography.phase_measurement_circuits(r))
    rng = np.random.default_rng(60 + r)
    for program, rotation in zip(programs, rotations):
        assert program.tabulated == (r <= (5 if noise is None else 3))
        t = rng.uniform(-np.pi, np.pi, size=r - 1)
        want = reference_distribution(ansatz.build_ansatz_circuit(r, t).extend(rotation), noise)
        np.testing.assert_allclose(program.run(t), want, rtol=0, atol=1e-12)


def test_compiled_runs_build_no_operator(monkeypatch):
    # every angle binds through the outcome table, so once compiled a
    # run builds no gate matrix and no channel
    ibm14 = qsim.load_calibration("ibm-14")
    rng = np.random.default_rng(70)
    cases = []  # (program, angles, the gate-by-gate distribution)
    for r in (2, 3):
        for noise in (None, NoiseModel.from_calibration(ibm14, 2 * r, damping=True)):
            programs = (
                ansatz.compiled_ansatz(r, noise), *tomography.phase_measurement_programs(r, noise)
            )
            rotations = (Circuit(2 * r), *tomography.phase_measurement_circuits(r))
            for program, rotation in zip(programs, rotations):
                t = rng.uniform(-np.pi, np.pi, size=r - 1)
                whole = ansatz.build_ansatz_circuit(r, t).extend(rotation)
                cases.append((program, t, reference_distribution(whole, noise)))

    def builds_an_operator(*_args, **_kwargs):
        raise AssertionError("a compiled run built an operator")

    monkeypatch.setattr(qsim, "_gate_channel", builds_an_operator)
    monkeypatch.setattr(qsim, "_superoperator", builds_an_operator)
    monkeypatch.setattr(qsim.Gate, "matrix", builds_an_operator)
    for program, t, want in cases:
        np.testing.assert_allclose(program.run(t), want, rtol=0, atol=1e-12)


def test_template_leaves_exactly_the_pair_angles_open():
    template = ansatz.ansatz_template(3)
    bound = [(g.name, g.qubits, g.param) for g in template if isinstance(g.param, qsim.Angle)]
    assert bound == [
        ("rz", (1,), qsim.Angle(0)),
        ("rx", (2,), qsim.Angle(0)),
        ("rz", (3,), qsim.Angle(1)),
        ("rx", (4,), qsim.Angle(1)),
    ]
    with pytest.raises(ValueError, match="binds 2 angles, got 1"):
        ansatz.compiled_ansatz(3).run(np.array([0.1]))


def test_programs_compile_once_per_size_and_noise_model():
    ibm14 = qsim.load_calibration("ibm-14")
    first = NoiseModel.from_calibration(ibm14, 4)
    second = NoiseModel.from_calibration(ibm14, 4)
    assert ansatz.compiled_ansatz(2) is ansatz.compiled_ansatz(2)
    assert ansatz.compiled_ansatz(2) is not ansatz.compiled_ansatz(3)
    assert ansatz.compiled_ansatz(2, first) is ansatz.compiled_ansatz(2, first)
    assert ansatz.compiled_ansatz(2, first) is not ansatz.compiled_ansatz(2, second)


def test_noisy_programs_are_freed_without_a_collection(tmp_path, monkeypatch):
    # a noise model caches its programs and they refer to it weakly, so no
    # reference cycle keeps them: with the collector off, the programs a
    # noisy scan command and a dropped objective compiled are gone once
    # their caller returns
    compiled, seen = qsim.compiled, []

    def recorded(*args, **kwargs):
        program = compiled(*args, **kwargs)
        if not any(ref() is program for ref in seen):
            seen.append(weakref.ref(program))
        return program

    def evaluate_and_drop_an_objective():
        ints, rhf, _ = chem.scf_reference(chem.h2_molecule(1.4))
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        noise = NoiseModel.from_calibration(qsim.load_calibration("ibm-5"), 4)
        objective = hybrid.QuantumObjective(h, eri, ints.enuc, hybrid.HybridConfig(noise=noise))
        objective(np.array([0.3]))  # r = 2 measures its phases: Z, A and B
        assert all(ref() is not None for ref in seen[-3:])

    monkeypatch.setattr(qsim, "compiled", recorded)
    argv = ["scan", "--system", "h3plus", "--at", "1.65", "--noise", "ibm-14", "--out", str(tmp_path)]
    gc.disable()
    try:
        assert cli.main(argv) == 0
        evaluate_and_drop_an_objective()
        assert len(seen) == 4  # the scan's Z program; the objective's Z, A and B
        assert [ref() for ref in seen] == [None] * 4
    finally:
        gc.enable()


def test_production_paths_prepare_through_compiled_programs(monkeypatch):
    # the gate-by-gate builders and engines are references only: compiling
    # evaluates them at the table's nodes, and no preparation after that
    # reaches them, so every program is compiled before they are patched
    ibm5 = NoiseModel.from_calibration(qsim.load_calibration("ibm-5"), 4)
    ibm14_damping = cli.load_noise("ibm-14", 4, damping=True)
    ibm14 = NoiseModel.from_calibration(qsim.load_calibration("ibm-14"), 6)
    for r, noise in ((2, None), (2, ibm5), (2, ibm14_damping), (3, ibm14)):
        programs = (
            ansatz.compiled_ansatz(r, noise), *tomography.phase_measurement_programs(r, noise)
        )
        assert all(program.tabulated for program in programs)

    def reference_only(*_args, **_kwargs):
        raise AssertionError("a production path ran a gate-by-gate reference")

    for name in ("run_circuit", "run_density"):
        monkeypatch.setattr(qsim, name, reference_only)
    monkeypatch.setattr(ansatz, "build_ansatz_circuit", reference_only)
    monkeypatch.setattr(tomography, "phase_measurement_circuits", reference_only)
    for noise in (None, ibm5):
        config = hybrid.HybridConfig(
            noise=noise, seed=1, restarts=1, nm_max_iter=10, outer_max_iter=1
        )
        assert hybrid.run_hybrid(chem.h2_molecule(1.4), config).n_evals > 0
    for noise in (None, ibm14_damping):
        assert len(cli.vtable_rows(2, 2048, 1, noise)) == 4
    # measured phases under noise at r = 3
    config = hybrid.HybridConfig(
        noise=ibm14, phase_mode="measured", seed=1, restarts=1, nm_max_iter=3, outer_max_iter=1
    )
    assert hybrid.run_hybrid(chem.h3plus_molecule(1.8), config).n_evals > 0
