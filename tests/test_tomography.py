"""Samplers, occupation estimates, and pair-phase measurement."""

import numpy as np
import pytest
import scipy.stats

from geminal import ansatz, qsim, tomography
from geminal.qsim import Circuit, NoiseModel
from geminal.tomography import (
    ShotSampler,
    classical_phase_assignment,
    estimate_phases,
    measure_occupations,
    phase_measurement_circuits,
    phase_measurement_programs,
    phase_signs,
)
from pauli_reference import parity_signs
from test_qsim import chain_noise, chi_square_statistic


def bell_circuit() -> Circuit:
    return Circuit(2).h(0).cx(0, 1)


def sampler_for(circuit, shots, seed=0, noise=None) -> ShotSampler:
    """A sampler of ``circuit`` compiled for the engine ``noise`` selects."""
    return ShotSampler(qsim.Program(circuit, noise), shots, seed)


def ansatz_sampler(r, t, shots, seed=0, noise=None) -> ShotSampler:
    """A sampler of the production preparation: the compiled ansatz at angles t."""
    sampler = ShotSampler(ansatz.compiled_ansatz(r, noise), shots, seed)
    sampler.angles = np.asarray(t)
    return sampler


def gate_by_gate(circuit, noise=None):
    """The reference engines: run_circuit, or run_density under a noise model."""
    return qsim.run_circuit(circuit) if noise is None else qsim.run_density(circuit, noise)


def exact_sampler(circuit) -> ShotSampler:
    return sampler_for(circuit, None)


class TestExactDistribution:
    def test_occupation_and_parity_match_probabilities(self):
        state = qsim.run_circuit(bell_circuit())
        dist = exact_sampler(bell_circuit()).run()
        assert dist.shots is None
        np.testing.assert_array_equal(dist.counts, state.probabilities())
        assert dist.occupations() == pytest.approx([0.5, 0.5])
        both, first = parity_signs(4, 0b11), parity_signs(4, 0b01)
        assert dist.parities(both) == pytest.approx(1.0)  # correlated bits
        assert dist.parities(first) == pytest.approx(0.0)
        assert dist.parities(np.array([[1.0, -1.0, -1.0, 1.0]])).tolist() == [dist.parities(both)]

    def test_exact_record_ignores_seed_and_stream(self):
        state = qsim.run_circuit(bell_circuit())
        first = tomography.measure(state.probabilities(), None, qsim.make_rng(1, qsim.SHOT_KEY, 0))
        second = tomography.measure(state.probabilities(), None, qsim.make_rng(2, qsim.SHOT_KEY, 5))
        assert first == second

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_exact_records_carry_no_negative_weight(self, r):
        # a table reads rounding-level negatives where the reference engine gives 0
        programs = (ansatz.compiled_ansatz(r), *phase_measurement_programs(r))
        angles = np.random.default_rng(r).uniform(-np.pi, np.pi, size=(200, r - 1))
        lowest = min(
            tomography.measure(program.run(t), None).counts.min()
            for t in angles
            for program in programs
        )
        assert lowest >= 0.0

    def test_exact_record_under_noise_is_the_density_distribution(self):
        t = np.array([-0.8])
        circuit = ansatz.build_ansatz_circuit(2, t)
        noise = NoiseModel.from_calibration(qsim.load_calibration("ibm-5"), 4)
        rho = qsim.run_density(circuit, noise)
        exact = tomography.measure(rho.probabilities(), None)
        assert exact.shots is None
        np.testing.assert_array_equal(exact.counts, rho.probabilities())
        probs = rho.probabilities()
        assert tomography.measure(probs, None, qsim.make_rng(5, qsim.SHOT_KEY, 2)) == exact
        compiled = ansatz_sampler(2, t, None, seed=5, noise=noise).run()
        assert compiled.shots is None
        np.testing.assert_allclose(compiled.counts, exact.counts, rtol=0, atol=1e-12)
        sampled = tomography.measure(rho.probabilities(), 20000, qsim.make_rng(3, qsim.SHOT_KEY, 0))
        stat, dof = chi_square_statistic(sampled.counts, exact.counts)
        assert stat < scipy.stats.chi2.ppf(0.999, dof), (stat, dof)


class TestSamplers:
    def test_shot_sampler_counts_preparations(self):
        sampler = sampler_for(bell_circuit(), shots=128, seed=4)
        sampler.run()
        sampler.run(qsim.Program(bell_circuit().h(0).h(1)))
        assert sampler.counter.count == 2

    def test_shot_sampler_streams_advance(self):
        sampler = sampler_for(bell_circuit(), shots=256, seed=4)
        first = sampler.run()
        second = sampler.run()
        assert not np.array_equal(first.counts, second.counts)

    def test_shot_sampler_deterministic(self):
        runs = []
        for _ in range(2):
            sampler = sampler_for(bell_circuit(), shots=256, seed=4)
            runs.append(sampler.run())
        assert runs[0] == runs[1]

    def test_noisy_run_is_one_sample_call(self, monkeypatch):
        calls = []
        draw = qsim.sample

        def counted(probs, *args):
            calls.append(probs)
            return draw(probs, *args)

        monkeypatch.setattr(qsim, "sample", counted)
        noise = chain_noise(2, 0.01, 0.02, 0.03)
        sampler = sampler_for(bell_circuit(), shots=256, seed=4, noise=noise)
        # run k is the k-th in-order draw of the sampler's one shot generator
        rng = qsim.make_rng(4, qsim.SHOT_KEY)
        reference = qsim.run_density(bell_circuit(), noise).probabilities()
        for k in range(3):
            hist = sampler.run()
            assert len(calls) == k + 1
            np.testing.assert_array_equal(calls[k], reference)  # a one-row table is the value
            assert hist == draw(reference, 256, rng), k

    def test_shot_sampler_noise_path(self):
        noise = chain_noise(2, 0.0, 0.25, 0.0)
        sampler = sampler_for(Circuit(2), shots=4000, seed=9, noise=noise)
        hist = sampler.run()
        # |00> through 25% readout flips: each bit reads 1 a quarter of the time
        assert hist.occupations() == pytest.approx([0.25, 0.25], abs=0.04)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_shared_preparation_gives_the_whole_circuit_counts(self, noisy):
        # the three compiled measurement programs against the whole circuits
        # gate by gate: each run draws from its program's outcome table,
        # which holds the whole circuit's distribution to rounding.  Noiseless
        # outcomes the reference gives as 0 or 1e-33 may read the other way
        # in a table, and a multinomial draws nothing for an exact 0, so only
        # the noisy counts, which have no such outcome, equal the reference's
        t = np.array([-0.8])
        noise = NoiseModel.from_calibration(qsim.load_calibration("ibm-5"), 4) if noisy else None
        sampler = ansatz_sampler(2, t, shots=512, seed=6, noise=noise)
        programs = (sampler.program, *tomography.phase_measurement_programs(2, noise))
        rotations = (Circuit(4), *phase_measurement_circuits(2))
        rng = qsim.make_rng(6, qsim.SHOT_KEY)  # the runs draw from it in order
        for program, rotation in zip(programs, rotations):
            whole = ansatz.build_ansatz_circuit(2, t).extend(rotation)
            reference = gate_by_gate(whole, noise).probabilities()
            probs = program.run(t)
            np.testing.assert_allclose(probs, reference, rtol=0, atol=1e-12)
            want = tomography.measure(reference if noisy else probs, 512, rng)
            assert sampler.run(program) == want
        assert sampler.counter.count == 3

    def test_exact_sampler_basis_rotation(self):
        sampler = exact_sampler(bell_circuit())
        dist = sampler.run(qsim.Program(bell_circuit().h(0).h(1)))
        # Bell state in the X basis keeps even parity: one whole circuit, Bell then h h
        assert dist.parities(parity_signs(4, 0b11)) == pytest.approx(1.0)
        assert sampler.counter.count == 1


class TestOccupations:
    def test_exact_occupations_match_amplitudes(self):
        t = np.array([-2.0, 0.7])
        amps = ansatz.givens_chain_amplitudes(t)
        sampler = ansatz_sampler(3, t, None)
        est = measure_occupations(sampler, 3)
        np.testing.assert_allclose(est.n_alpha, amps**2, atol=1e-12)
        np.testing.assert_allclose(est.n_beta, amps**2, atol=1e-12)
        assert est.retained_fraction == 1.0

    def test_sampled_occupations_unbiased(self):
        t = np.array([-0.9])
        amps = ansatz.givens_chain_amplitudes(t)
        sampler = ansatz_sampler(2, t, shots=20000, seed=2)
        est = measure_occupations(sampler, 2)
        sigma = np.sqrt(amps**2 * (1 - amps**2) / 20000)
        assert np.all(np.abs(est.n_alpha - amps**2) < 5 * sigma)
        assert np.all(np.abs(est.n_beta - amps**2) < 5 * sigma)

    def test_symmetry_filter_improves_noisy_estimate(self):
        # occupations far from 1/2, where symmetric readout bias is largest
        t = np.array([-0.3])
        ideal = ansatz.givens_chain_amplitudes(t) ** 2
        noise = chain_noise(4, 0.0, 0.08, 0.0)

        raw = measure_occupations(ansatz_sampler(2, t, shots=8192, seed=5, noise=noise), 2)
        filt = measure_occupations(
            ansatz_sampler(2, t, shots=8192, seed=5, noise=noise), 2, ("N", "Sz")
        )
        assert filt.retained_fraction < 1.0
        err_raw = np.max(np.abs(0.5 * (raw.n_alpha + raw.n_beta) - ideal))
        err_filt = np.max(np.abs(0.5 * (filt.n_alpha + filt.n_beta) - ideal))
        assert err_filt < err_raw

    def test_exact_mode_skips_filtering(self):
        sampler = ansatz_sampler(2, [-0.8], None)
        est = measure_occupations(sampler, 2, ("N", "Sz"))
        assert est.retained_fraction == 1.0


class TestPhaseCircuits:
    def test_circuit_a_all_hadamard(self):
        circ_a, _ = phase_measurement_circuits(3)
        assert [g.name for g in circ_a.gates] == ["h"] * 6

    def test_circuit_b_patterns(self):
        _, b2 = phase_measurement_circuits(2)
        # X basis (h) on alpha/even qubits, Y basis (sdg, h) on beta/odd
        assert [(g.name, g.qubits[0]) for g in b2.gates] == [
            ("h", 0),
            ("sdg", 1),
            ("h", 1),
            ("h", 2),
            ("sdg", 3),
            ("h", 3),
        ]


class TestPhaseEstimation:
    def test_exact_estimator_equals_amplitude_products(self):
        rng = np.random.default_rng(7)
        for r in (2, 3, 4):
            for _ in range(4):
                t = rng.uniform(-np.pi, np.pi, size=r - 1)
                amps = ansatz.givens_chain_amplitudes(t)
                expected = amps[:-1] * amps[1:]
                sampler = ansatz_sampler(r, t, None)
                est = estimate_phases(sampler, phase_measurement_programs(r))
                np.testing.assert_allclose(est.values, expected, atol=1e-12)
                assert sampler.counter.count == 2

    def test_window_estimates_average_the_mask_parities(self):
        # window k averages both records' parities at its mask; an exact record
        # has no shot noise, a sampled one sqrt((1 - p**2) / shots) per record
        t = np.array([-0.8, 0.5])
        programs = phase_measurement_programs(3)
        for shots in (None, 1024):
            est = estimate_phases(ansatz_sampler(3, t, shots, seed=4), programs)
            replay = ansatz_sampler(3, t, shots, seed=4)
            rec_a, rec_b = replay.run(programs[0]), replay.run(programs[1])
            for k in range(2):
                signs = parity_signs(rec_a.counts.size, 0b1111 << (2 * k))  # one row alone
                par_a, par_b = rec_a.parities(signs), rec_b.parities(signs)
                assert est.values[k] == 0.25 * (par_a + par_b)
                if shots is None:
                    assert est.stderr[k] == 0.0
                else:
                    err_a, err_b = (np.sqrt((1.0 - p * p) / shots) for p in (par_a, par_b))
                    assert est.stderr[k] == 0.25 * np.hypot(err_a, err_b)

    def test_exact_signs_and_no_ambiguity(self):
        t = np.array([-0.8])  # amplitudes (cos, sin) have opposite signs
        sampler = ansatz_sampler(2, t, None)
        est = estimate_phases(sampler, phase_measurement_programs(2))
        xi, ambiguous = phase_signs(est.values, est.stderr)
        assert xi.tolist() == [-1]
        assert not ambiguous.any()

    def test_sampled_sign_recovery(self):
        t = np.array([-0.8])
        sampler = ansatz_sampler(2, t, shots=4096, seed=11)
        est = estimate_phases(sampler, phase_measurement_programs(2))
        xi, ambiguous = phase_signs(est.values, est.stderr)
        assert xi.tolist() == [-1]
        assert not ambiguous.any()
        assert est.stderr[0] > 0

    def test_phase_signs_rule(self):
        # zero is +1; ambiguity is strict: |value| < 2 stderr
        values = np.array([0.3, -0.3, 0.0, -0.05, 0.05])
        stderr = np.array([0.1, 0.1, 0.0, 0.025, 0.03])
        xi, ambiguous = phase_signs(values, stderr)
        assert xi.tolist() == [1, -1, 1, -1, 1]
        assert ambiguous.tolist() == [False, False, False, False, True]

    def test_vanishing_coherence_flagged_ambiguous(self):
        t = np.array([-np.pi / 2])  # first amplitude crosses zero
        sampler = ansatz_sampler(2, t, shots=2048, seed=3)
        est = estimate_phases(sampler, phase_measurement_programs(2))
        assert phase_signs(est.values, est.stderr)[1][0]


class TestClassicalPhases:
    def test_matches_amplitude_products(self):
        t = np.array([-2.0, 0.7])
        amps = ansatz.givens_chain_amplitudes(t)
        xi = classical_phase_assignment(t)
        assert xi.tolist() == list(np.sign(amps[:-1] * amps[1:]).astype(int))
