"""Energy assembly, optimizers, and the alternating hybrid loop."""

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pauli_reference as pr
from geminal import ansatz, chem, cli, hybrid, mitigation, qsim, tomography
from geminal.hybrid import (
    GeminalState,
    HybridConfig,
    QuantumObjective,
    assemble_2dm_energy,
    dissociation_curve,
    nelder_mead,
    orbital_step,
    pair_integrals,
    quantum_step,
    run_hybrid,
)


@pytest.fixture(scope="module")
def h2_reference():
    return chem.scf_reference(chem.h2_molecule(1.4))


@pytest.fixture(scope="module")
def h3_reference():
    return chem.scf_reference(chem.h3plus_molecule(1.65))


class TestGeminalState:
    def test_coefficients_use_cumulative_signs(self):
        state = GeminalState(np.array([0.5, 0.3, 0.2]), np.array([-1, 1]))
        # s = (1, -1, -1), g_p = s_p sqrt(n_p)
        np.testing.assert_allclose(
            state.g, [np.sqrt(0.5), -np.sqrt(0.3), -np.sqrt(0.2)]
        )
        np.testing.assert_allclose(state.g**2, state.n, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="sign"):
            GeminalState(np.array([1.0, 0.0]), np.array([1, 1]))
        with pytest.raises(ValueError, match="\\+-1"):
            GeminalState(np.array([1.0, 0.0]), np.array([0]))


class TestAssembleEnergy:
    def test_single_pair_is_rhf_energy(self, h2_reference):
        ints, rhf, _ = h2_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        state = GeminalState(np.array([1.0, 0.0]), np.array([1]))
        energy = assemble_2dm_energy(state, pair_integrals(h, eri, ints.enuc))
        assert energy == pytest.approx(rhf.energy, abs=1e-12)

    def test_matches_statevector_expectation(self, h2_reference, h3_reference):
        rng = np.random.default_rng(5)
        for ref, r in ((h2_reference, 2), (h3_reference, 3)):
            ints, rhf, _ = ref
            h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
            ham = pr.jordan_wigner_hamiltonian(h, eri, ints.enuc)
            pair = pair_integrals(h, eri, ints.enuc)
            for _ in range(100):
                t = rng.uniform(-np.pi, np.pi, size=r - 1)
                state_vec = qsim.run_circuit(ansatz.build_ansatz_circuit(r, t))
                amps = ansatz.givens_chain_amplitudes(t)
                prods = amps[:-1] * amps[1:]
                state = GeminalState(
                    amps**2, np.where(prods >= 0, 1, -1).astype(int)
                )
                e = assemble_2dm_energy(state, pair)
                assert e == pytest.approx(pr.expectation(state_vec.amps, ham), abs=1e-10)

    def test_fci_natural_orbitals_reach_fci(self, h2_reference):
        ints, rhf, fci = h2_reference
        g, basis = chem.pair_spectrum(fci.coeff)
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff @ basis)
        state = GeminalState(g**2, np.sign(g[:-1] * g[1:]).astype(int))
        energy = assemble_2dm_energy(state, pair_integrals(h, eri, ints.enuc))
        assert energy == pytest.approx(fci.energy, abs=1e-10)

    def test_rank_mismatch_rejected(self, h2_reference):
        ints, rhf, _ = h2_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        state = GeminalState(np.array([0.9, 0.05, 0.05]), np.array([-1, -1]))
        with pytest.raises(ValueError, match="rank"):
            assemble_2dm_energy(state, pair_integrals(h, eri, ints.enuc))


class TestConfig:
    def test_defaults(self):
        config = HybridConfig()
        assert config.shots == 2048
        assert config.effective_nm_ftol == 1e-4
        assert HybridConfig(shots=None).effective_nm_ftol == 1e-8

    def test_phase_mode_resolution(self):
        auto = HybridConfig()
        assert auto.resolve_phase_mode(2) == "measured"
        assert auto.resolve_phase_mode(3) == "classical"
        forced = HybridConfig(phase_mode="measured")
        assert forced.resolve_phase_mode(3) == "measured"

    def test_validation(self):
        with pytest.raises(ValueError, match="phase mode"):
            HybridConfig(phase_mode="psychic")
        with pytest.raises(ValueError, match="one optimization run"):
            HybridConfig(restarts=0)
        with pytest.raises(ValueError, match="shots"):
            HybridConfig(shots=0)
        for cap in ("nm_max_iter", "outer_max_iter"):
            with pytest.raises(ValueError, match="iteration caps"):
                HybridConfig(**{cap: -1})
            assert getattr(HybridConfig(**{cap: 0}), cap) == 0

    def test_exact_mode_takes_noise(self, h2_reference):
        noise = qsim.NoiseModel.from_calibration(qsim.load_calibration("ibm-5"), 4)
        config = HybridConfig(shots=None, noise=noise)
        assert config.noise is noise
        ints, rhf, _ = h2_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        t = np.array([-0.5])
        noisy = [
            QuantumObjective(h, eri, ints.enuc, replace(config, seed=seed))(t)
            for seed in (0, 1)
        ]
        assert noisy[0] == noisy[1]  # the exact noisy distribution has no shot noise
        noiseless = QuantumObjective(h, eri, ints.enuc, HybridConfig(shots=None))(t)
        assert noisy[0] > noiseless


class TestQuantumObjective:
    def test_constant_preparation_cost(self, h2_reference):
        ints, rhf, _ = h2_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        # measured phases: 1 occupation + 2 phase preparations
        obj = QuantumObjective(h, eri, ints.enuc, HybridConfig(shots=None))
        obj(np.array([-0.5]))
        assert obj.last_eval_preparations == 3
        # classical phases: the single occupation preparation
        obj = QuantumObjective(
            h, eri, ints.enuc, HybridConfig(shots=None, phase_mode="classical")
        )
        obj(np.array([-0.5]))
        assert obj.last_eval_preparations == 1

    def test_repeated_evaluations_build_no_table(self, h2_reference, h3_reference):
        # the tables an evaluation reads are built on first use, then only read
        tables = (
            mitigation._allowed_outcomes,
            qsim.outcome_bits,
            tomography._window_signs,
            qsim._local_order,
        )
        objectives = []
        for ints, rhf, _ in (h2_reference, h3_reference):
            h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
            objective = QuantumObjective(h, eri, ints.enuc, HybridConfig(seed=1))
            objective(np.full(ints.n_basis - 1, -0.3))
            objectives.append(objective)
        misses = [table.cache_info().misses for table in tables]
        rng = np.random.default_rng(5)
        for objective in objectives:
            for t in rng.uniform(-np.pi, np.pi, size=(100, objective.r - 1)):
                objective(t)
        assert [table.cache_info().misses for table in tables] == misses

    def test_t_zero_is_rhf_energy(self, h2_reference):
        ints, rhf, _ = h2_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        obj = QuantumObjective(h, eri, ints.enuc, HybridConfig(shots=None))
        assert obj(np.zeros(1)) == pytest.approx(rhf.energy, abs=1e-12)

    def test_variational_floor(self, h3_reference):
        ints, rhf, fci = h3_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        rng = np.random.default_rng(2)
        exact = QuantumObjective(h, eri, ints.enuc, HybridConfig(shots=None))
        sampled = QuantumObjective(h, eri, ints.enuc, HybridConfig(shots=512, seed=8))
        for _ in range(25):
            t = rng.uniform(-np.pi, np.pi, size=2)
            assert exact(t) >= fci.energy - 1e-9
            # with polytope projection even shot-noisy estimates stay
            # energies of physical states, hence variational
            assert sampled(t) >= fci.energy - 1e-9

    def test_averaged_measurement_reduces_scatter(self, h2_reference):
        ints, rhf, _ = h2_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        t = np.array([-0.7])
        ideal = ansatz.givens_chain_amplitudes(t) ** 2

        def scatter(repeats):
            obj = QuantumObjective(h, eri, ints.enuc, HybridConfig(shots=256, seed=3))
            devs = []
            for _ in range(30):
                state, _ = obj.measure_state(t, repeats=repeats)
                devs.append(np.abs(state.n - ideal).max())
            return np.mean(devs)

        assert scatter(4) < scatter(1)

    @pytest.mark.parametrize("shots", [2048, None])
    @pytest.mark.parametrize("repeats", [0, -1])
    def test_fewer_than_one_batch_is_refused_before_any_preparation(self, h2_reference, repeats, shots):
        ints, rhf, _ = h2_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        obj = QuantumObjective(h, eri, ints.enuc, HybridConfig(shots=shots, seed=1))
        with pytest.raises(ValueError, match="repeats"):
            obj.measure_state(np.array([-0.3]), repeats=repeats)
        assert obj.sampler.counter.count == 0


class TestNelderMead:
    def test_minimizes_quadratic(self):
        target = np.array([0.3, -1.2])
        out = nelder_mead(lambda x: np.sum((x - target) ** 2), np.zeros(2))
        np.testing.assert_allclose(out.x, target, atol=1e-3)
        assert out.converged
        assert out.fun < 1e-6

    def test_iteration_cap_flagged(self):
        out = nelder_mead(
            lambda x: np.sum(x**2), np.ones(3), max_iter=2, ftol=1e-12
        )
        assert not out.converged
        assert out.nit == 2

    def test_noisy_convergence_requires_confirmation(self):
        # spread can dip under ftol by chance; the confirming re-measure
        # keeps the search going instead of stopping at a noise artifact
        rng = np.random.default_rng(0)

        def noisy(x):
            return float(np.sum(x**2) + 0.05 * rng.normal())

        out = nelder_mead(
            noisy, np.array([2.0]), ftol=1e-4, max_iter=60, reevaluate_best=True
        )
        assert abs(out.x[0]) < 1.0  # made real progress before any stop

    def test_noisy_simplex_stops_once_collapsed(self, monkeypatch):
        # noise keeps the spread in f above ftol, so only the collapse in x ends the run
        target = np.array([0.4, -0.7])

        def search():
            rng = np.random.default_rng(3)

            def noisy(x):
                return float(np.sum((x - target) ** 2) + 1e-3 * rng.normal())

            return nelder_mead(noisy, np.zeros(2), ftol=1e-4, max_iter=200, reevaluate_best=True)

        out = search()
        assert out.converged and out.nit < 200
        np.testing.assert_allclose(out.x, target, atol=0.1)
        monkeypatch.setattr(hybrid, "NM_XTOL", 0.0)
        capped = search()
        assert not capped.converged and capped.nit == 200

    def test_rejects_empty_parameter_vector(self):
        with pytest.raises(ValueError):
            nelder_mead(lambda x: 0.0, np.zeros(0))


class TestQuantumStep:
    def test_reaches_fci_in_fixed_basis(self, h2_reference):
        # H2 minimal basis: symmetry makes the RHF orbitals natural, so
        # the angle search alone already reaches FCI
        ints, rhf, fci = h2_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        config = HybridConfig(shots=None)
        res = quantum_step(QuantumObjective(h, eri, ints.enuc, config))
        assert res.energy == pytest.approx(fci.energy, abs=1e-7)

        # brute-force scan of the same objective as an independent oracle
        obj = QuantumObjective(h, eri, ints.enuc, config)
        brute = min(obj(np.array([t])) for t in np.linspace(-np.pi, 0, 2001))
        assert res.energy <= brute + 1e-7

    def test_restarts_never_hurt(self, h2_reference):
        ints, rhf, _ = h2_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        base = HybridConfig(shots=None, nm_max_iter=4, restarts=1)
        more = HybridConfig(shots=None, nm_max_iter=4, restarts=6)
        t0 = np.array([2.5])  # deliberately poor start
        e1 = quantum_step(QuantumObjective(h, eri, ints.enuc, base), t0=t0).energy
        e6 = quantum_step(QuantumObjective(h, eri, ints.enuc, more), t0=t0).energy
        assert e6 <= e1 + 1e-12

    def test_returned_state_matches_angles(self, h3_reference):
        ints, rhf, _ = h3_reference
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        res = quantum_step(QuantumObjective(h, eri, ints.enuc, HybridConfig(shots=None)))
        amps = ansatz.givens_chain_amplitudes(res.t)
        np.testing.assert_allclose(res.state.n, amps**2, atol=1e-10)


def pair_bound(pair) -> float:
    """E_pair = lambda_min(diag(diag) + exch - exch_diag) + E_nuc: the lowest energy of any unit g.

    The paired energy is g^T M g + E_nuc with n = g**2, so no state of
    these integrals lies lower, and the optimum angles reach it.
    """
    return float(np.linalg.eigvalsh(np.diag(pair.diag) + pair.exch - pair.exch_diag)[0] + pair.enuc)


class TestPairBound:
    """Oracles independent of the evaluation path: the paired energy's exact minimum in fixed orbitals."""

    @pytest.mark.parametrize("phase_mode", ["measured", "classical"])
    @pytest.mark.parametrize("shots", [2048, None])
    def test_every_projected_state_lies_above_the_pair_bound(self, h2_reference, h3_reference, shots, phase_mode):
        # projection gives unit g, so every evaluated energy is a Rayleigh quotient of M
        rng = np.random.default_rng(17)
        for ints, rhf, _ in (h2_reference, h3_reference):
            h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
            config = HybridConfig(shots=shots, seed=2, phase_mode=phase_mode)
            obj = QuantumObjective(h, eri, ints.enuc, config)
            bound = pair_bound(obj.pair)
            for t in rng.uniform(-np.pi, np.pi, size=(40, ints.n_basis - 1)):
                assert obj(t) >= bound - 1e-12
            state, _ = obj.measure_state(t, repeats=4)
            assert assemble_2dm_energy(state, obj.pair) >= bound - 1e-12

    @pytest.mark.parametrize("system, bond", [("h2", 0.9), ("h2", 2.6), ("h3plus", 1.2), ("h3plus", 2.4)])
    def test_pair_bound_lies_above_fci_in_any_orbitals(self, system, bond):
        ints, rhf, fci = chem.scf_reference(cli.SYSTEM_BUILDERS[system](bond))
        rng = np.random.default_rng(18)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(ints.n_basis, ints.n_basis)))
            h, eri = chem.transform_integrals(ints, rhf.mo_coeff @ q)
            assert pair_bound(pair_integrals(h, eri, ints.enuc)) >= fci.energy - 1e-12

    def test_exact_quantum_step_reaches_the_pair_bound_at_criterion_1_geometries(self):
        # an optimizer that stops short at fixed orbitals shows here, free of shot noise
        curves = [("h2", np.linspace(0.5, 5.0, 12)), ("h3plus", np.linspace(1.0, 3.0, 8))]
        for system, bonds in curves:
            for bond in bonds:
                ints, rhf, _ = chem.scf_reference(cli.SYSTEM_BUILDERS[system](bond))
                h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
                obj = QuantumObjective(h, eri, ints.enuc, HybridConfig(shots=None))
                gap = quantum_step(obj).energy - pair_bound(obj.pair)
                assert -1e-12 <= gap < 1e-8, (system, bond, gap)


class TestOrbitalStep:
    @pytest.mark.parametrize(
        "system, bond, n, xi, twist",
        [
            ("h2", 0.9, [0.97, 0.03], [-1], 0.2),
            ("h2", 2.5, [0.7, 0.3], [-1], -0.3),
            ("h3plus", 1.65, [0.9, 0.06, 0.04], [-1, 1], 0.0),
            ("h3plus", 2.5, [0.7, 0.2, 0.1], [-1, -1], 0.1),
            ("h3plus", 1.2, [0.95, 0.03, 0.02], [1, 1], 0.0),
        ],
    )
    def test_bfgs_reaches_the_scipy_minimum(self, system, bond, n, xi, twist):
        from scipy import optimize

        ints, rhf, _ = chem.scf_reference(cli.SYSTEM_BUILDERS[system](bond))
        C = chem.apply_givens_rotations(rhf.mo_coeff, [(0, 1, twist)])
        state = GeminalState(np.array(n), np.array(xi))
        pairs = list(itertools.combinations(range(ints.n_basis), 2))

        def energy_at(angles):
            rots = [(p, q, a) for (p, q), a in zip(pairs, angles)]
            h, eri = chem.transform_integrals(ints, chem.apply_givens_rotations(C, rots))
            return assemble_2dm_energy(state, pair_integrals(h, eri, ints.enuc))

        def gradient(angles):
            step = hybrid.BFGS_STEP
            return np.array([
                (energy_at(angles + step * e) - energy_at(angles - step * e)) / (2 * step)
                for e in np.eye(angles.size)
            ])

        x0 = np.zeros(len(pairs))
        want = optimize.minimize(
            energy_at, x0, jac=gradient, method="BFGS",
            options={"gtol": hybrid.BFGS_GTOL, "maxiter": hybrid.BFGS_MAX_ITER},
        )
        got = hybrid.bfgs(energy_at, gradient, x0)
        assert got.converged and want.success
        assert abs(got.fun - want.fun) < 1e-10
        assert got.fun <= energy_at(x0)
        assert abs(orbital_step(ints, C, state).energy - want.fun) < 1e-10

    def test_stationary_at_natural_orbitals(self, h2_reference):
        ints, rhf, fci = h2_reference
        g, basis = chem.pair_spectrum(fci.coeff)
        C_natural = rhf.mo_coeff @ basis
        state = GeminalState(g**2, np.sign(g[:-1] * g[1:]).astype(int))
        res = orbital_step(ints, C_natural, state)
        assert res.energy == pytest.approx(fci.energy, abs=1e-8)
        assert res.converged

    def test_recovers_from_small_rotation(self, h2_reference):
        ints, rhf, fci = h2_reference
        g, basis = chem.pair_spectrum(fci.coeff)
        C_twisted = chem.apply_givens_rotations(
            rhf.mo_coeff @ basis, [(0, 1, 0.07)]
        )
        state = GeminalState(g**2, np.sign(g[:-1] * g[1:]).astype(int))
        res = orbital_step(ints, C_twisted, state)
        assert res.energy == pytest.approx(fci.energy, abs=1e-6)

    def test_h3plus_rhf_orbitals_relax_to_fci(self, h3_reference):
        ints, rhf, fci = h3_reference
        g, _ = chem.pair_spectrum(fci.coeff)
        state = GeminalState(g**2, np.sign(g[:-1] * g[1:]).astype(int))
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        start = assemble_2dm_energy(state, pair_integrals(h, eri, ints.enuc))
        res = orbital_step(ints, rhf.mo_coeff, state)
        assert res.energy <= start
        assert res.energy == pytest.approx(fci.energy, abs=1e-6)

    def test_never_increases_energy(self, h3_reference):
        ints, rhf, _ = h3_reference
        state = GeminalState(np.array([0.9, 0.06, 0.04]), np.array([-1, 1]))
        h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
        start = assemble_2dm_energy(state, pair_integrals(h, eri, ints.enuc))
        res = orbital_step(ints, rhf.mo_coeff, state)
        assert res.energy <= start + 1e-12


class TestRunHybrid:
    def test_h2_exact_reaches_fci(self):
        point = run_hybrid(chem.h2_molecule(1.4), HybridConfig(shots=None))
        assert point.energy == pytest.approx(point.energy_fci, abs=1e-7)
        assert point.converged
        # noiseless outer-loop energies never increase
        trace = np.array(point.energy_trace)
        assert np.all(np.diff(trace) <= 1e-10)
        assert trace[0] == pytest.approx(point.energy_rhf, abs=1e-10)

    def test_h3plus_exact_reaches_fci(self):
        point = run_hybrid(chem.h3plus_molecule(1.65), HybridConfig(shots=None))
        assert point.energy == pytest.approx(point.energy_fci, abs=1e-6)
        assert point.converged

    def test_h2_sampled_within_millihartree(self):
        point = run_hybrid(chem.h2_molecule(1.4), HybridConfig(shots=2048, seed=7))
        assert abs(point.energy - point.energy_fci) < 1e-3
        assert point.energy >= point.energy_fci - 1e-9
        assert point.converged

    def test_sampled_h3plus_steps_end_before_the_iteration_cap(self):
        point = run_hybrid(chem.h3plus_molecule(1.0), HybridConfig(shots=2048, seed=1))
        assert not [f for f in point.flags if f.startswith("nm-iteration-cap")]
        assert abs(point.energy - point.energy_fci) < 1e-3

    def test_zero_outer_cap_returns_rhf_point(self):
        point = run_hybrid(
            chem.h2_molecule(1.4), HybridConfig(shots=None, outer_max_iter=0)
        )
        assert point.energy == pytest.approx(point.energy_rhf, abs=1e-12)
        assert point.outer_iterations == 0
        assert point.converged
        assert point.flags == [] and point.retained_fraction is None

    def test_one_orbital_system_is_refused_before_compiling(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(ansatz, "compiled_ansatz", lambda *args: compiled.append(args))
        with pytest.raises(ValueError, match="at least 2 orbitals, got 1"):
            run_hybrid(chem.Molecule(("HE",), np.zeros((1, 3))), HybridConfig(shots=None))
        assert compiled == []

    @pytest.mark.parametrize(
        "reject_at, flags",
        [
            (None, ["outer-iteration-cap"]),
            (1, ["all-shots-rejected-outer-1", "no-gain-over-rhf"]),
            (2, ["all-shots-rejected-outer-2"]),
        ],
    )
    def test_a_point_that_did_not_converge_carries_a_flag(self, monkeypatch, reject_at, flags):
        # `curve` exits 1 iff a point carries a flag, which covers every unconverged point
        e_rhf = chem.scf_reference(chem.h2_molecule(1.4))[1].energy
        state = GeminalState(np.array([0.9, 0.1]), np.array([-1]))
        steps = []

        def fake_quantum_step(objective, t0):
            steps.append(len(steps) + 1)
            if steps[-1] == reject_at:
                raise mitigation.AllShotsRejectedError("symmetry filters rejected every shot")
            # each step 10 mHa below the last, so no two outer energies agree
            return hybrid.QuantumStepResult(t0, state, e_rhf - 0.01 * steps[-1], True, 0.5)

        def fake_orbital_step(ints, C, state):
            return hybrid.OrbitalStepResult(C, 0.0, True)

        monkeypatch.setattr(hybrid, "quantum_step", fake_quantum_step)
        monkeypatch.setattr(hybrid, "orbital_step", fake_orbital_step)
        point = run_hybrid(chem.h2_molecule(1.4), HybridConfig(shots=None, outer_max_iter=3))
        assert not point.converged
        assert point.flags == flags

    @pytest.mark.parametrize("offset, flagged", [(1e-2, True), (0.0, True), (-1e-2, False)])
    def test_rhf_start_winning_is_flagged(self, monkeypatch, offset, flagged):
        # every outer step lands `offset` above the RHF energy; a tie is no gain, and
        # a point that reports its RHF start reports no measured retained fraction
        e_rhf = chem.scf_reference(chem.h2_molecule(1.4))[1].energy
        state = GeminalState(np.array([0.9, 0.1]), np.array([-1]))

        def fake_quantum_step(objective, t0):
            return hybrid.QuantumStepResult(t0, state, e_rhf + offset, True, 0.5)

        def fake_orbital_step(ints, C, state):
            return hybrid.OrbitalStepResult(C, e_rhf + offset, True)

        monkeypatch.setattr(hybrid, "quantum_step", fake_quantum_step)
        monkeypatch.setattr(hybrid, "orbital_step", fake_orbital_step)
        point = run_hybrid(chem.h2_molecule(1.4), HybridConfig(shots=None))
        assert ("no-gain-over-rhf" in point.flags) == flagged
        assert point.energy == min(e_rhf, e_rhf + offset)
        assert point.retained_fraction == (None if flagged else 0.5)

    def test_all_shots_rejected_stops_with_best_energy_so_far(self, monkeypatch):
        e_rhf = chem.scf_reference(chem.h2_molecule(1.4))[1].energy
        state = GeminalState(np.array([0.9, 0.1]), np.array([-1]))
        steps = []

        def fake_quantum_step(objective, t0):
            steps.append(len(steps) + 1)
            if len(steps) == 2:
                for angle in (0.1, 0.2, 0.3):  # three real evaluations before the rejection
                    objective(np.array([angle]))
                raise mitigation.AllShotsRejectedError("symmetry filters rejected every shot")
            for angle in (0.1, 0.2, 0.3, 0.4, 0.5):  # five evaluations in the completed step
                objective(np.array([angle]))
            return hybrid.QuantumStepResult(t0, state, e_rhf - 0.01, True, 0.5)

        monkeypatch.setattr(hybrid, "quantum_step", fake_quantum_step)
        point = run_hybrid(chem.h2_molecule(1.4), HybridConfig(shots=64))
        assert steps == [1, 2]
        assert point.flags == ["all-shots-rejected-outer-2"]
        assert point.energy <= e_rhf - 0.01
        assert point.outer_iterations == 1
        assert point.n_evals == 5 + 3
        assert not point.converged


class TestDissociationCurve:
    def test_single_point_matches_run_hybrid(self):
        config = HybridConfig(shots=2048, seed=3)
        curve = dissociation_curve(chem.h2_molecule, [1.4], config)
        direct = run_hybrid(chem.h2_molecule(1.4), config, parameter=1.4)
        assert len(curve) == 1
        assert curve[0].energy == direct.energy
        assert curve[0].parameter == 1.4

    def test_points_use_decorrelated_seeds(self):
        config = HybridConfig(shots=512, seed=3)
        twice = dissociation_curve(chem.h2_molecule, [1.4, 1.4], config)
        assert twice[0].energy != twice[1].energy
        again = dissociation_curve(chem.h2_molecule, [1.4, 1.4], config)
        assert [p.energy for p in twice] == [p.energy for p in again]

    def test_injected_mapper_runs_every_point_with_its_seed(self):
        seen = []

        def recording_map(fn, molecules, configs, values):
            seen.extend((config.seed, value) for config, value in zip(configs, values))
            return map(fn, molecules, configs, values)

        config = HybridConfig(shots=None, seed=3, outer_max_iter=0)
        curve = dissociation_curve(chem.h2_molecule, [1.0, 1.4], config, mapper=recording_map)
        assert seen == [(3, 1.0), (3 + 104729, 1.4)]
        assert [p.parameter for p in curve] == [1.0, 1.4]

    def test_benchmark_reproduces_the_point_seeds(self, monkeypatch):
        # perfbench runs each curve point alone with the seed the whole curve gives it
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        assert workloads.POINT_SEED_STRIDE == qsim.POINT_SEED_STRIDE
        assert qsim.point_seed(3, 1) == 3 + workloads.POINT_SEED_STRIDE

    def test_empty_scan_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            dissociation_curve(chem.h2_molecule, [], HybridConfig())


class TestShotStreamConstruction:
    """Production sampling draws in order from one shot generator per point or command."""

    NOISY_POINT = dict(shots=2048, seed=1, restarts=1, nm_max_iter=60, outer_max_iter=2)

    @pytest.fixture
    def constructions(self, monkeypatch):
        """Calls of default_rng (which every make_rng makes), of PCG64 and of qsim.sample."""
        counts = dict.fromkeys(("default_rng", "PCG64", "sample"), 0)
        for owner, name in ((np.random, "default_rng"), (np.random, "PCG64"), (qsim, "sample")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return counts

    @pytest.fixture
    def steps(self, monkeypatch):
        """The objective handed to each quantum step, in order."""
        seen = []
        step = hybrid.quantum_step

        def counted_step(objective, t0):
            seen.append(objective)
            return step(objective, t0)

        monkeypatch.setattr(hybrid, "quantum_step", counted_step)
        return seen

    def run_noisy_point(self):
        noise = qsim.NoiseModel.from_calibration(qsim.load_calibration("ibm-5"), 4)
        return run_hybrid(chem.h2_molecule(1.4), HybridConfig(noise=noise, **self.NOISY_POINT))

    def test_noisy_point_builds_only_its_jitter_keys(self, constructions, steps):
        self.run_noisy_point()
        assert constructions["sample"] >= 100
        # one shot generator and one jitter generator for the point, whatever its steps
        assert len(steps) == 2
        assert constructions["default_rng"] == 2
        assert constructions["PCG64"] == 0

    def test_patched_make_rng_sees_one_jitter_key_per_point(self, monkeypatch, steps):
        keys = []
        make_rng = qsim.make_rng

        def recorded(*args):
            keys.append(args)
            return make_rng(*args)

        monkeypatch.setattr(qsim, "make_rng", recorded)
        self.run_noisy_point()
        assert len(steps) == 2 and keys == [(1, 202), (1, 404)]

    def test_noisy_point_draws_from_no_state_twice(self, monkeypatch, steps):
        # every outer step shares the point's shot generator, so no draw replays another
        starts = []
        draw = qsim.sample

        def recorded(state, shots, rng):
            bits = rng.bit_generator.state
            starts.append((bits["state"]["state"], bits["state"]["inc"], bits["has_uint32"]))
            return draw(state, shots, rng)

        monkeypatch.setattr(qsim, "sample", recorded)
        point = self.run_noisy_point()
        assert len(steps) == 2 and len(set(steps)) == 1
        assert len(starts) >= 3 * point.n_evals
        assert len(set(starts)) == len(starts)

    def test_restart_jitter_draws_on_across_quantum_steps(self, monkeypatch, steps):
        # each step's second run starts from its t0 plus the next draws of
        # the point's one jitter generator, so no step repeats an offset
        starts = []
        search = hybrid.nelder_mead

        def recorded(f, x0, **kwargs):
            starts.append(np.array(x0, dtype=float))
            return search(f, x0, **kwargs)

        monkeypatch.setattr(hybrid, "nelder_mead", recorded)
        noise = qsim.NoiseModel.from_calibration(qsim.load_calibration("ibm-5"), 4)
        config = HybridConfig(noise=noise, **dict(self.NOISY_POINT, restarts=2))
        run_hybrid(chem.h2_molecule(1.4), config)
        assert len(steps) == 2 and len(starts) == 4
        offsets = [starts[1] - starts[0], starts[3] - starts[2]]
        want = qsim.make_rng(1, qsim.JITTER_KEY).uniform(-0.5, 0.5, size=(2, 1))
        np.testing.assert_allclose(offsets, want, rtol=0, atol=1e-12)

    def test_noisy_vtable_builds_only_its_bootstrap_keys(self, constructions, monkeypatch):
        bootstraps = []
        bootstrap = mitigation.bootstrap_v_interval

        def counted_bootstrap(*args, **kwargs):
            bootstraps.append(args)
            return bootstrap(*args, **kwargs)

        monkeypatch.setattr(mitigation, "bootstrap_v_interval", counted_bootstrap)
        noise = qsim.NoiseModel.from_calibration(qsim.load_calibration("ibm-14"), 4, damping=True)
        cli.vtable_rows(2, 2048, 3, noise)
        assert constructions["sample"] == len(mitigation.scan_angles())
        # one shot generator for the command, and one per bootstrap interval
        assert len(bootstraps) == 8
        assert constructions["default_rng"] == 1 + len(bootstraps)
        assert constructions["PCG64"] == 0
