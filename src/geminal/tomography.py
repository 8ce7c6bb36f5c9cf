"""Reduced tomography for paired states.

Everything the hybrid loop needs from the device is a Z-basis histogram
(occupations) plus two rotated-basis histograms (pair-coherence signs),
so one objective evaluation costs three circuit preparations regardless
of r.  Samplers count their preparations so that budget is testable.
Each of the three is its own whole circuit, as on a device: the ansatz
for the Z basis, and the ansatz followed by basis rotation A or B for
the phases, each compiled once per (r, noise model) with the pair
angles left open, into one table of its Z-basis outcome distribution.
Occupations and window parities read one outcome-bit table,
``qsim.outcome_bits``.

Phase estimator for window k (qubits 2k..2k+3): with circuit A rotating
every qubit to the X basis and circuit B rotating alpha qubits to X and
beta qubits to Y,

    est_k = (parity_A(window) + parity_B(window)) / 4

equals g_k g_{k+1} exactly on ideal paired states, where g_p are the
signed pair amplitudes.  Only the sign enters the energy;
``phase_signs`` flags an estimate within two standard errors of zero so
callers can fall back to the classically propagated sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from geminal import ansatz, mitigation, qsim
from geminal.qsim import Circuit, NoiseModel, Program, ShotHistogram


@dataclass
class PreparationCounter:
    count: int = 0

    def bump(self) -> None:
        self.count += 1


def measure(
    probs: np.ndarray, shots: int | None, rng: np.random.Generator | None = None
) -> ShotHistogram:
    """Z-basis record of a prepared outcome distribution ``probs``.

    ``shots=None`` returns the exact outcome probabilities, noiseless or
    noisy, clipped at 0 (a table reads rounding-level negatives where
    the reference engine gives 0), and ignores ``rng``; otherwise
    ``shots`` outcomes are drawn from ``rng``, which clips likewise.
    """
    if shots is None:
        return ShotHistogram(probs.size.bit_length() - 1, None, np.maximum(probs, 0.0))
    return qsim.sample(probs, shots, rng)


class ShotSampler:
    """Samples compiled preparations at the pair angles ``angles``.

    ``angles`` starts empty, which suits a program that binds no angle;
    a caller sets it before running the ansatz and may change it between
    runs.  Each ``run`` is one circuit preparation: a compiled program,
    by default ``program``, reads its outcome table at ``angles``
    (noiseless, or under the noise model it was compiled for) and is
    measured for ``shots`` shots, or exactly when ``shots`` is None.
    The sampler's ``counter`` counts its runs.  Runs draw in order from
    one shot generator, ``make_rng(seed, SHOT_KEY)``, so the whole
    sequence is deterministic in the seed and no run replays another's
    draw.
    """

    def __init__(self, program: Program, shots: int | None, seed: int = 0):
        self.program = program
        self.angles = ()
        self.shots = None if shots is None else int(shots)
        self.counter = PreparationCounter()
        self.rng = None if self.shots is None else qsim.make_rng(seed, qsim.SHOT_KEY)

    def run(self, program: Program | None = None) -> ShotHistogram:
        probs = (self.program if program is None else program).run(self.angles)
        self.counter.bump()
        return measure(probs, self.shots, self.rng)


# ---------------------------------------------------------------------------
# occupations
# ---------------------------------------------------------------------------

@dataclass
class OccupationEstimate:
    n_alpha: np.ndarray
    n_beta: np.ndarray
    retained_fraction: float = 1.0


def occupations_from_counts(
    record: ShotHistogram, r: int, retained_fraction: float = 1.0
) -> OccupationEstimate:
    """Per-orbital alpha/beta occupations from a Z-basis record."""
    occ = record.occupations()
    return OccupationEstimate(occ[0 : 2 * r : 2], occ[1 : 2 * r : 2], retained_fraction)


def measure_occupations(
    sampler, r: int, symmetries: tuple[str, ...] = ()
) -> OccupationEstimate:
    """One Z-basis preparation, symmetry-filtered before any occupation is formed."""
    record, retained = mitigation.symmetry_verify(sampler.run(None), symmetries)
    return occupations_from_counts(record, r, retained)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def _phase_rotation(r: int, beta_in_y: bool) -> Circuit:
    circ = Circuit(2 * r)
    for q in range(2 * r):
        if beta_in_y and q % 2 == 1:
            circ.sdg(q)
        circ.h(q)
    return circ


def phase_measurement_circuits(r: int) -> tuple[Circuit, Circuit]:
    """Basis rotations for the two coherence circuits on all 2r qubits.

    Circuit A rotates every qubit to the X basis.  Circuit B puts alpha
    (even) qubits in X and beta (odd) qubits in Y.  One (A, B) pair
    serves every window simultaneously.
    """
    return _phase_rotation(r, False), _phase_rotation(r, True)


def _phase_circuit(r: int, beta_in_y: bool) -> Circuit:
    return ansatz.ansatz_template(r).extend(_phase_rotation(r, beta_in_y))


def phase_measurement_programs(r: int, noise: NoiseModel | None = None) -> tuple[Program, Program]:
    """The ansatz followed by rotation A or B, compiled once per (r, noise model).

    Both leave the pair angles open, like ``ansatz.compiled_ansatz``.
    """
    return (
        qsim.compiled(_phase_circuit, r, False, noise=noise),
        qsim.compiled(_phase_circuit, r, True, noise=noise),
    )


@dataclass
class PhaseEstimate:
    values: np.ndarray  # raw estimates of g_k g_{k+1}; phase_signs turns them into signs
    stderr: np.ndarray


@functools.lru_cache(maxsize=16)
def _window_signs(n_qubits: int) -> np.ndarray:
    """Read-only (n_qubits // 2 - 1, 2**n_qubits) table: row k holds the parity signs of window k.

    Row k is 1 - 2 * (bits 2k..2k+3 of the outcome, summed) % 2, read
    from ``qsim.outcome_bits``, the table occupations read.
    """
    bits = qsim.outcome_bits(n_qubits)
    table = np.empty((n_qubits // 2 - 1, bits.shape[0]))
    for k in range(table.shape[0]):
        table[k] = 1.0 - 2.0 * (bits[:, 2 * k : 2 * k + 4].sum(axis=1) % 2.0)
    table.flags.writeable = False  # shared by every cached call
    return table


def estimate_phases(sampler, programs: tuple[Program, Program]) -> PhaseEstimate:
    """Two rotated-basis preparations giving all r-1 window signs.

    ``programs`` are the pair ``phase_measurement_programs`` compiles for
    the sampler's r and noise model.  Each record gives every window's
    parity from one product with the cached window-sign table
    (``ShotHistogram.parities``), each window with the bits of its own
    sign row taken alone, and a sampled one its standard error
    sqrt((1 - p**2) / shots).  The table's rows are parities of the
    outcome bits that occupations read (``_window_signs``).
    """
    program_a, program_b = programs
    rec_a = sampler.run(program_a)
    rec_b = sampler.run(program_b)
    signs = _window_signs(program_a.n_qubits)
    par_a, par_b = rec_a.parities(signs).tolist(), rec_b.parities(signs).tolist()
    values = np.array([0.25 * (a + b) for a, b in zip(par_a, par_b)])
    if rec_a.shots is None:
        return PhaseEstimate(values, np.zeros(values.size))
    err_a = [math.sqrt(max(0.0, 1.0 - p * p) / rec_a.shots) for p in par_a]
    err_b = [math.sqrt(max(0.0, 1.0 - p * p) / rec_b.shots) for p in par_b]
    return PhaseEstimate(values, 0.25 * np.hypot(err_a, err_b))


def phase_signs(values: np.ndarray, stderr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs +-1 of coherence estimates (zero is +1), and the ambiguous ones."""
    values, stderr = np.asarray(values, dtype=float).tolist(), np.asarray(stderr, dtype=float).tolist()
    xi = [1 if v >= 0 else -1 for v in values]
    ambiguous = [abs(v) < 2.0 * e for v, e in zip(values, stderr)]
    return np.array(xi, dtype=int), np.array(ambiguous, dtype=bool)


def classical_phase_assignment(t: np.ndarray) -> np.ndarray:
    """Signs +-1 propagated from the known rotation angles (no circuits).

    xi_k = sign(amp_k amp_{k+1}) for the ideal chain amplitudes; an
    exactly vanishing product keeps sign +1.
    """
    amps = ansatz.chain_amplitudes(np.asarray(t, dtype=float).ravel().tolist())
    return np.array([1 if a * b >= 0 else -1 for a, b in zip(amps, amps[1:])], dtype=int)
