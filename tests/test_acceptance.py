"""End-to-end acceptance gate.

One test per shipping criterion.  Every test computes its quantities
through the public interfaces, then records a single PASS/FAIL line
(replayed in the terminal summary by conftest).  The tolerances here
are the contract; nothing in this file may loosen them to match the
implementation.
"""

import time

import numpy as np
import scipy.linalg
import pytest

import pauli_reference as pr
from geminal import ansatz, chem, cli, hybrid, mitigation, qsim


def h4_chain_dication():
    coords = 1.6 * np.arange(4.0)[:, None] * np.array([0.0, 0.0, 1.0])
    return chem.Molecule(("H", "H", "H", "H"), coords, charge=2, label="h4-2plus")


def mo_problem(molecule):
    ints, rhf, _ = chem.scf_reference(molecule)
    h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
    return h, eri, ints.enuc


def test_criterion_1_curve_accuracy(acceptance):
    start = time.perf_counter()
    config = hybrid.HybridConfig(shots=2048, seed=1)
    h2 = hybrid.dissociation_curve(
        chem.h2_molecule, np.linspace(0.5, 5.0, 12), config
    )
    h3 = hybrid.dissociation_curve(
        chem.h3plus_molecule, np.linspace(1.0, 3.0, 8), config
    )
    elapsed = time.perf_counter() - start
    worst = max(abs(p.energy - p.energy_fci) for p in h2 + h3) * 1e3
    ok = worst < 1.0 and elapsed < 300.0
    acceptance(
        "criterion-1 dissociation-curve accuracy",
        ok,
        f"max |E - E_FCI| = {worst:.3f} mHa over 20 points at 2048 shots, "
        f"{elapsed:.1f} s (< 300 s)",
    )


def test_criterion_2_v_metric_calibration(acceptance):
    grid = mitigation.scan_angles()
    exact1, exact2, samp1, samp2 = [], [], [], []
    for i, t in enumerate(grid):
        circuit = ansatz.build_ansatz_circuit(2, np.array([t]))
        state = qsim.run_circuit(circuit)
        hist = qsim.sample(state.probabilities(), 2048, qsim.make_rng(11, qsim.SHOT_KEY, i))
        probs = state.probabilities()
        k = np.arange(probs.size)
        exact1.append(np.sum(probs[(k >> 0) & 1 == 1]))
        exact2.append(np.sum(probs[(k >> 2) & 1 == 1]))
        samp1.append(hist.occupations()[0])
        samp2.append(hist.occupations()[2])
    v_exact = mitigation.v_metric(grid, np.array(exact1), np.array(exact2))
    v_samp = mitigation.v_metric(grid, np.array(samp1), np.array(samp2))

    rng = qsim.make_rng(42, 9)
    d1 = rng.binomial(2048, 0.5, grid.size) / 2048
    d2 = rng.binomial(2048, 0.5, grid.size) / 2048
    v_depol = mitigation.v_metric(grid, d1, d2)

    ok = abs(v_exact - 2.0) <= 0.05 and abs(v_samp - 2.0) <= 0.05 and v_depol < 0.05
    acceptance(
        "criterion-2 V-metric calibration",
        ok,
        f"V = {v_exact:.4f} exact / {v_samp:.4f} sampled (target 2.00 +/- 0.05); "
        f"depolarized V = {v_depol:.4f} (< 0.05)",
    )


def test_criterion_3_mitigation_ordering(acceptance):
    cal = qsim.load_calibration("ibm-14")
    noise = qsim.NoiseModel.from_calibration(cal, 4)
    settings = ["none", "N", "Sz", "N+Sz"]
    values = {s: [] for s in settings}
    for seed in range(20):
        for row in cli.vtable_rows(2, 2048, seed, noise):
            values[row["setting"]].append(0.5 * (row["v1"][0] + row["v2"][0]))
    v = {s: np.array(vals) for s, vals in values.items()}

    rng = qsim.make_rng(777, 303)
    idx = rng.integers(0, 20, size=(1000, 20))

    def lower_bound(diff):
        # one-sided 95% bootstrap lower confidence bound on the mean
        return float(np.percentile(diff[idx].mean(axis=1), 2.5))

    bounds = {
        "V(N)>V(none)": lower_bound(v["N"] - v["none"]),
        "V(Sz)>V(none)": lower_bound(v["Sz"] - v["none"]),
        "V(N+Sz)>V(N)": lower_bound(v["N+Sz"] - v["N"]),
        "V(N+Sz)>V(Sz)": lower_bound(v["N+Sz"] - v["Sz"]),
    }
    ok = all(b > 0 for b in bounds.values())
    detail = ", ".join(f"{name} by >= {b:.3f}" for name, b in bounds.items())
    acceptance("criterion-3 mitigation ordering", ok, detail + " over 20 seeds")


def test_criterion_4_circuit_equivalence(acceptance):
    worst = 0.0
    counts_ok = True
    phase_ok = True  # the overlap trace fixes the global phase only when it is not ~0
    for theta in np.linspace(-np.pi, np.pi, 16):
        generic = pr.generic_pair_gate(0, float(theta), 2)
        optimized = ansatz.optimized_pair_gate(0, float(theta), 2)
        counts_ok &= generic.cx_count == 12 and optimized.cx_count == 8
        ug = pr.circuit_unitary(generic)
        uo = pr.circuit_unitary(optimized)
        tr = np.trace(ug.conj().T @ uo)
        phase_ok &= abs(tr) > 1e-9
        worst = max(worst, np.abs(uo - (tr / abs(tr)) * ug).max())
    ok = counts_ok and phase_ok and worst < 1e-10
    acceptance(
        "criterion-4 circuit equivalence",
        ok,
        f"12 vs 8 CNOT entanglers, max phase-free distance {worst:.2e} "
        f"over 16 angles (< 1e-10), counts "
        + ("exact" if counts_ok else "WRONG"),
    )


def test_criterion_5_pauli_reduction(acceptance):
    worst = 0.0
    # the 8-CNOT gate at three angles, and the 12-CNOT gate it reduces at one
    gates = [(ansatz.optimized_pair_gate, theta) for theta in (-1.1, 0.8317, 2.4)]
    gates.append((pr.generic_pair_gate, 0.8317))
    for r in (2, 3):
        for k in range(r - 1):
            dense = pr.pair_excitation_generator_full(k, r).dense()
            for gate, theta in gates:
                full = scipy.linalg.expm(theta * dense)
                u = pr.circuit_unitary(gate(k, theta, r))
                for idx in pr.paired_subspace_indices(r):
                    worst = max(worst, np.abs(u[:, idx] - full[:, idx]).max())
    ok = worst < 1e-10
    acceptance(
        "criterion-5 two-term generator reduction",
        ok,
        f"max paired-subspace deviation {worst:.2e} (< 1e-10) for r in {{2,3}}, "
        "8 CNOTs at 3 angles and 12 at one",
    )


def test_criterion_6_tomography_cost(acceptance):
    systems = (
        (2, chem.h2_molecule(1.4)),
        (3, chem.h3plus_molecule(1.65)),
        (4, h4_chain_dication()),
    )
    default_worst = 0
    all_worst = 0
    rng = qsim.make_rng(31)
    for r, molecule in systems:
        h, eri, enuc = mo_problem(molecule)
        t = rng.uniform(-np.pi, np.pi, size=r - 1)
        for mode in ("auto", "measured", "classical"):
            config = hybrid.HybridConfig(shots=512, phase_mode=mode, seed=0)
            objective = hybrid.QuantumObjective(h, eri, enuc, config)
            objective(t)
            preps = objective.last_eval_preparations
            all_worst = max(all_worst, preps)
            if mode == "auto":
                default_worst = max(default_worst, preps)
    ok = default_worst <= 3 and all_worst <= 9
    acceptance(
        "criterion-6 constant tomography cost",
        ok,
        f"preparations per evaluation: {default_worst} default (<= 3), "
        f"{all_worst} across phase modes (<= 9), r in {{2,3,4}}",
    )


def test_criterion_7_polytope_correctness(acceptance):
    v2 = mitigation.polytope_vertices(2)
    v3 = mitigation.polytope_vertices(3)
    vertices_ok = np.array_equal(
        v2, np.array([[1.0, 0.0], [0.5, 0.5]])
    ) and np.array_equal(
        v3, np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    )

    rng = qsim.make_rng(7, 1)
    worst_idem = 0.0
    feasible = True
    for i in range(1000):
        r = 2 + i % 3
        point = rng.normal(0.3, 0.7, size=r)
        first = mitigation.project_polytope(point)
        second = mitigation.project_polytope(first.occupations)
        worst_idem = max(
            worst_idem, np.abs(second.occupations - first.occupations).max()
        )
        n = first.occupations
        feasible &= bool(n.min() >= -1e-12 and abs(n.sum() - 1.0) < 1e-10)
    ok = vertices_ok and worst_idem < 1e-12 and feasible
    acceptance(
        "criterion-7 polytope correctness",
        ok,
        f"vertices exact for r=2,3; idempotence residual {worst_idem:.1e} "
        f"over 1000 points (< 1e-12); outputs feasible: {feasible}",
    )


def test_criterion_8_energy_assembly(acceptance):
    worst = 0.0
    for r, molecule in ((2, chem.h2_molecule(1.4)), (3, chem.h3plus_molecule(1.65))):
        h, eri, enuc = mo_problem(molecule)
        ham = pr.jordan_wigner_hamiltonian(h, eri, enuc)
        pair = hybrid.pair_integrals(h, eri, enuc)
        rng = qsim.make_rng(15, r)
        draws = [rng.uniform(-np.pi, np.pi, size=r - 1) for _ in range(1000)]
        states = [qsim.run_circuit(ansatz.build_ansatz_circuit(r, t)).amps for t in draws]
        references = pr.expectation(np.array(states), ham).real
        for t, reference in zip(draws, references):
            amps = ansatz.givens_chain_amplitudes(t)
            prods = amps[:-1] * amps[1:]
            state = hybrid.GeminalState(amps**2, np.where(prods >= 0, 1, -1))
            energy = hybrid.assemble_2dm_energy(state, pair)
            worst = max(worst, abs(energy - reference))
    ok = worst < 1e-10
    acceptance(
        "criterion-8 energy-assembly equivalence",
        ok,
        f"max |assembled - statevector| = {worst:.2e} over 1000 draws "
        f"per r in {{2,3}} (< 1e-10)",
    )


def test_criterion_9_hull_ratio_reporting(acceptance, tmp_path):
    code = cli.main(
        ["scan", "--system", "h3plus", "--at", "1.65", "--seed", "3",
         "--contract", "0.7", "--out", str(tmp_path)]
    )
    summary = (tmp_path / "scan_summary.txt").read_text()
    ratios = [
        float(line.rsplit("=", 1)[1])
        for line in summary.splitlines()
        if "hull_area_ratio" in line
    ]
    ok = code == 0 and len(ratios) == 2 and all(0.3 < x < 0.7 for x in ratios)
    acceptance(
        "criterion-9 hull-ratio reporting",
        ok,
        f"scan command under 30% contraction reports ratios "
        + ", ".join(f"{x:.4f}" for x in ratios)
        + " (each in (0.3, 0.7))",
    )
