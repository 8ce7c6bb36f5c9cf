"""The lean paths give the same bits as the former per-call numpy ones.

``hybrid.assemble_2dm_energy`` reads integrals gathered once per
objective; ``mitigation.project_polytope``, ``hybrid.GeminalState.g`` and
``tomography.classical_phase_assignment`` run on Python floats;
``tomography.estimate_phases`` takes every window's parity from one
product with a cached sign table; and ``qsim.Program``'s block path runs
a compiled fixed prefix, binds fixed blocks once and moves the state
between blocks by one gather.  Each keeps every float operation and its
order, so the copies below of the former numpy versions must agree with
them under ``==`` (compared as bytes, so a -0.0 for a 0.0 fails too), and
the energies and shot-generator states of objectives at seed 1 must equal
those pinned from the former path.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from geminal import _kernels, ansatz, chem, hybrid, mitigation, qsim, tomography
from geminal.qsim import Circuit, NoiseModel


def numpy_assemble_2dm_energy(n, xi, h, eri, enuc):
    """The former energy: integrals gathered by comprehensions on every call."""
    r = n.size
    signs = np.concatenate([[1], np.cumprod(xi)])
    g = signs * np.sqrt(np.clip(n, 0.0, None))
    diag = np.array([2 * h[p, p] + eri[p, p, p, p] for p in range(r)])
    exch = np.array([[eri[p, q, p, q] for q in range(r)] for p in range(r)])
    cross = g @ exch @ g - g @ np.diag(np.diag(exch)) @ g
    return float(n @ diag + cross + enuc)


def numpy_project_onto_hull(point):
    """The former projection onto the ordered simplex, in numpy."""
    sums, counts = [], []
    for value in point.tolist():
        total, count = value, 1
        while sums and sums[-1] * count < total * counts[-1]:
            total += sums.pop()
            count += counts.pop()
        sums.append(total)
        counts.append(count)
    y = np.repeat(np.array(sums) / counts, counts)
    tau = (np.cumsum(y) - 1.0) / np.arange(1, y.size + 1)
    rho = np.flatnonzero(y > tau)[-1]
    return np.maximum(y - tau[rho], 0.0)


def numpy_project_polytope(n_raw, affine=None):
    """The former projection: argsort, hull, scatter back, and the distance."""
    order = np.argsort(-n_raw, kind="stable")
    sorted_n = n_raw[order]
    if affine is not None:
        sorted_n = affine(sorted_n)
    out = np.empty(n_raw.size)
    out[order] = numpy_project_onto_hull(sorted_n)
    return out, float(np.linalg.norm(out - n_raw))


def random_points(rng, r):
    """Unsorted, negative, tied and rounded occupation vectors of length r."""
    yield rng.normal(0.3, 0.8, size=r)
    yield rng.dirichlet(np.ones(r))
    yield np.round(rng.normal(0.2, 0.5, size=r), 1)
    yield np.round(rng.dirichlet(np.ones(r)) * 8) / 8
    yield rng.choice([0.0, -0.0, 0.25, 0.5, 1.0, -0.25], size=r)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def numpy_g(n, xi):
    """The former pair amplitudes: cumulative signs times the clipped square roots, in numpy."""
    signs = np.concatenate([[1], np.cumprod(xi)])
    return signs * np.sqrt(np.clip(n, 0.0, None))


def numpy_classical_phase_assignment(t):
    """The former classical signs: numpy products of the chain amplitudes."""
    amps = ansatz.givens_chain_amplitudes(np.asarray(t, dtype=float))
    prods = amps[:-1] * amps[1:]
    return np.where(prods >= 0, 1, -1).astype(int)


def former_parity_estimate(record, mask):
    """The former ``ShotHistogram.parity_estimate``: one mask's parity and its standard error."""
    norm = 1.0 if record.shots is None else record.shots
    p = float(np.sum(record.counts * _kernels.parity_signs(record.counts.size, mask))) / norm
    if record.shots is None:
        return p, 0.0
    return p, math.sqrt(max(0.0, 1.0 - p * p) / record.shots)


def former_estimate_phases(rec_a, rec_b, r):
    """The former window loop of ``estimate_phases``: two parity estimates per window."""
    vals = np.empty(r - 1)
    errs = np.empty(r - 1)
    for k in range(r - 1):
        mask = tomography.window_mask(k)
        par_a, err_a = former_parity_estimate(rec_a, mask)
        par_b, err_b = former_parity_estimate(rec_b, mask)
        vals[k] = 0.25 * (par_a + par_b)
        errs[k] = 0.25 * np.hypot(err_a, err_b)
    return vals, errs


class Replay:
    """A sampler that hands out given records in turn, for ``estimate_phases``."""

    def __init__(self, *records):
        self._records = iter(records)

    def run(self, program=None):
        return next(self._records)


def signed_zero_points(r):
    """Occupations with +-0.0 and negative entries, length r."""
    yield np.array([-0.0] + [1.0] * (r - 1))
    yield np.array([0.0] * r)
    yield np.array([-0.0] * r)
    yield np.array([(-0.5) ** k for k in range(r)])


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_pair_amplitudes_match_numpy(r):
    rng = np.random.default_rng(30 + r)
    points = [*signed_zero_points(r)] + [p for _ in range(100) for p in random_points(rng, r)]
    for n in points:
        for xi in (np.ones(r - 1, int), -np.ones(r - 1, int), rng.choice([-1, 1], size=r - 1)):
            assert hybrid.GeminalState(n, xi).g.tobytes() == numpy_g(n, xi).tobytes()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_classical_signs_match_numpy(r):
    rng = np.random.default_rng(40 + r)
    special = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi]
    angles = [rng.choice(special, size=r - 1) for _ in range(50)]
    angles += [rng.uniform(-np.pi, np.pi, size=r - 1) for _ in range(200)]
    for t in angles:
        got = tomography.classical_phase_assignment(t)
        want = numpy_classical_phase_assignment(t)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_window_parities_match_the_per_window_loop(r):
    # sampled records hold integer counts, exact ones probabilities with zeros in them
    n = 2 * r
    rng = np.random.default_rng(50 + r)
    programs = (SimpleNamespace(n_qubits=n), SimpleNamespace(n_qubits=n))

    def record(shots):
        probs = rng.dirichlet(np.full(1 << n, rng.uniform(0.05, 2.0)))
        zero = rng.random(probs.size) < 0.3
        zero[rng.integers(probs.size)] = False
        probs[zero] = 0.0
        probs /= probs.sum()
        counts = probs if shots is None else rng.multinomial(shots, probs)
        return qsim.ShotHistogram(n, shots, counts)

    for _ in range(100):
        for shots in (2048, 1, None):
            rec_a, rec_b = record(shots), record(shots)
            est = tomography.estimate_phases(Replay(rec_a, rec_b), programs)
            vals, errs = former_estimate_phases(rec_a, rec_b, r)
            assert est.values.tobytes() == vals.tobytes()
            assert est.stderr.tobytes() == errs.tobytes()


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_energy_matches_the_per_call_comprehensions(r):
    rng = np.random.default_rng(r)
    for _ in range(200):
        h = rng.normal(size=(r, r))
        eri = rng.normal(size=(r, r, r, r))
        enuc = float(rng.uniform(0.0, 2.0))
        pair = hybrid.pair_integrals(h, eri, enuc)
        for n in random_points(rng, r):
            xi = rng.choice([-1, 1], size=r - 1)
            want = numpy_assemble_2dm_energy(n, xi, h, eri, enuc)
            assert hybrid.assemble_2dm_energy(hybrid.GeminalState(n, xi), pair) == want


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_projection_matches_numpy(r):
    rng = np.random.default_rng(10 + r)
    for _ in range(400):
        matrix = np.eye(r) + rng.normal(0.0, 0.3, size=(r, r))
        affine = mitigation.AffineMap(matrix, rng.normal(0.0, 0.1, size=r))
        for point in random_points(rng, r):
            # unsorted input exercises the pooling that an affine map triggers
            assert same_bits(mitigation._project_onto_hull(point.tolist()),
                             numpy_project_onto_hull(point))
            for amap in (None, affine):
                got = mitigation.project_polytope(point, affine=amap)
                want, distance = numpy_project_polytope(point, amap)
                assert same_bits(got.occupations, want)
                assert got.distance == distance
                assert got.changed == (distance > 1e-12)


# energies of the first 50 evaluations at angles drawn from default_rng(14),
# HybridConfig(shots=2048, seed=1), RHF orbitals; pinned from the path whose
# preparations draw in order from one make_rng(seed, SHOT_KEY) generator
PINNED = {
    ("h2", 1.4): [
        -0.0898477021902796, -0.3646669266233723, 0.42356165117368594,
        -0.35904501270816047, -0.007313759856203972, -0.8899300259049944,
        0.4276052036781489, 0.4659431154307037, -1.1197937313519977,
        -0.6721943630136181, 0.46781488855546055, -0.7423905702893127,
        0.034433633400781205, 0.4805497323954243, -0.7180642905904927,
        -1.0976282446471868, 0.4792513963454506, 0.0727021218331858,
        -1.128983228001125, 0.19994207949517817, -1.1137244416005219,
        -0.6956566393182878, -0.843006467666307, -0.8840347912527778,
        0.21988458364522168, -0.993281279599172, 0.13779837043038368,
        -0.48924421032401744, 0.1322081809740704, -0.9993926062424064,
        -0.9434546656396045, 0.460576462217275, -1.1365024244112738,
        0.4318022264507936, -0.9182930320847055, -0.2221708433142875,
        0.4444014746543964, 0.20509731151186017, -0.006560443942121519,
        0.48110899555766706, 0.381023402503059, 0.3299365665774261,
        0.24578114189467737, 0.03156182124565565, 0.1888261777380802,
        0.33111697148337216, 0.12168948880970898, 0.33483347317487455,
        0.36126066314680655, -1.123952751400755,
    ],
    ("h3plus", 1.65): [
        -0.0830799114815568, 0.17421669403494078, -0.07883890505778468,
        0.3420229328429272, -1.249127455757512, 0.38878619586232976,
        -0.07172684375113225, -0.8425612187274669, 0.44441120245555243,
        -1.149574162977175, -1.137693003126685, -1.0388975084445173,
        -0.16046271206025842, -0.22929039779059823, -0.27442704471864654,
        -1.025844039898314, -1.2453552048932808, -0.8806363089867102,
        0.4282446707924741, -0.07406703091657785, 0.05241910701193442,
        -0.014554056087073608, -0.18823983811753586, 0.03731192480533996,
        0.03608315933981898, -0.24162017754198328, -1.1935828866576916,
        -0.8267333038104707, 0.35393413738932433, -1.0048519421789786,
        -1.242810151034776, -1.237547699944473, -0.30579374652137736,
        0.22433217683840767, -0.12356642936329298, -1.1307100439437272,
        -1.2431236967979504, -1.2537736464413667, -0.9140839973527084,
        -0.8578342650144017, -1.097454676333194, 0.017665436733345308,
        -0.7798766642681219, 0.07935211241770568, -1.1623542218947234,
        -1.223153160982218, 0.2156650063123522, 0.42625141223283847,
        -0.223036750646864, -1.1920233804945342,
    ],
}


# the PCG64 state of each objective's shot generator after those 50
# evaluations: a draw added or dropped anywhere moves it
PINNED_SHOT_STATE = {
    ("h2", 1.4): 110788104526361994140319967028590353216,
    ("h3plus", 1.65): 33074276014931186632147854195944660971,
}


def pinned_objective(system, bond, **settings):
    builder = {"h2": chem.h2_molecule, "h3plus": chem.h3plus_molecule}[system]
    ints, rhf, _ = chem.scf_reference(builder(bond))
    h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
    config = hybrid.HybridConfig(seed=1, **settings)
    return hybrid.QuantumObjective(h, eri, ints.enuc, config), ints.n_basis


@pytest.mark.parametrize("system, bond", sorted(PINNED))
def test_objective_energies_are_pinned(system, bond):
    objective, n_basis = pinned_objective(system, bond)
    angles = np.random.default_rng(14).uniform(-np.pi, np.pi, size=(50, n_basis - 1))
    assert [objective(t) for t in angles] == PINNED[system, bond]
    assert objective.sampler.rng.bit_generator.state["state"]["state"] == PINNED_SHOT_STATE[system, bond]


def ibm5_noise():
    return NoiseModel.from_calibration(qsim.load_calibration("ibm-5"), 4)


# energies of 20 evaluations at angles drawn from default_rng(15), the first
# three of them zero (the second with -0.0 first), seed 1, RHF orbitals, one
# case per path: H3+ with measured phases (two windows), exact H2 (measured
# phases on probabilities) and ibm-5 noisy H2; pinned from the per-window
# parity loop and the numpy signs and amplitudes
PINNED_PATHS = {
    "h3plus-measured": ("h3plus", 1.65, dict(phase_mode="measured"), [
        -1.237547699944473, -1.237547699944473, -1.237547699944473, 0.21550963516482358,
        -1.0539292954324975, 0.2035108858336916, -1.1155573148097992, -1.2122189955588818,
        -0.41358978364646437, -1.2076898052440088, -0.030193656925967316,
        -1.124815299268265, 0.29115579762648625, -0.4500873240351828, 0.31165748587436815,
        0.3883949649684062, -1.0047898226168306, -0.013045947075812192, 0.4132314071591596,
        -1.1672268970788886,
    ]),
    "h2-exact": ("h2", 1.4, dict(shots=None), [
        -1.1167143250625697, -1.1167143250625697, -1.1167143250625697, -0.8979907818492813,
        -0.676520780523202, 0.05482603170656264, 0.4699448663556236, -0.2098636784255411,
        -1.097630040731587, -1.134911592353094, 0.3299036790435802, -0.19412946109459261,
        -0.8192686717452943, -1.0352080373101655, -1.0545207099457454, -0.6462804264573748,
        -0.6516441319205136, 0.48113298426344353, -0.9682669048116838, -1.0498503425108248,
    ]),
    "h2-ibm-5": ("h2", 1.4, dict(noise=ibm5_noise), [
        -0.839430433589048, -0.8694044082391604, -0.8637956418628804, -0.7370110957417336,
        -0.5868114506693577, 0.026282849335785063, 0.3710263458043072,
        -0.25164150525085893, -1.0170675289588194, -1.0394438180787677, 0.1357922331282052,
        -0.2651745782391658, -0.6652637861852894, -0.9638647773041514, -0.8227201633240832,
        -0.6439577726698534, -0.6019814355487597, 0.4005733401012255, -0.8055023826394657,
        -0.9814528938087604,
    ]),
}


@pytest.mark.parametrize("label", sorted(PINNED_PATHS))
def test_objective_paths_are_pinned(label):
    system, bond, settings, energies = PINNED_PATHS[label]
    settings = {key: value() if callable(value) else value for key, value in settings.items()}
    objective, n_basis = pinned_objective(system, bond, **settings)
    angles = np.random.default_rng(15).uniform(-np.pi, np.pi, size=(20, n_basis - 1))
    angles[:3] = 0.0
    angles[1, :1] = -0.0
    assert [objective(t) for t in angles] == energies


def former_blocks(program, circuit, noise):
    """The former compile: per fused block its order in the state, its dimension and its table."""
    n, per_gate = program.n_qubits, 1 if noise is None else 2
    blocks = []
    for qubits, gates in qsim._fusion_blocks(circuit.gates):
        order = qsim._local_order(program._bit_count(n), program._bits(qubits, n))
        bound = sorted(set(qsim._angle_indices(gates)))
        degrees = [per_gate * qsim._angle_indices(gates).count(k) for k in bound]
        operator = functools.partial(program._block_operator, noise, qubits, gates, bound)
        dim = 1 << program._bit_count(len(qubits))
        blocks.append((order, dim, bound, degrees, qsim._tabulate(degrees, operator)))
    return blocks


def former_run_blocks(program, blocks, t):
    """The former block path: every block bound per run, gathered, multiplied and scattered back."""
    flat = np.zeros(1 << program._bit_count(program.n_qubits), dtype=complex)
    flat[0] = 1.0  # |0...0>, or |0...0><0...0| on the density-matrix engine
    for order, dim, bound, degrees, table in blocks:
        op = np.dot(qsim._weights(degrees, [t[k] for k in bound]), table).reshape(dim, dim)
        flat[order] = (op @ flat[order].reshape(dim, -1)).reshape(-1)
    return flat


def measurement_cases():
    """(r, noise label): noiseless at r = 2, 3, 4, ibm-14 with damping at r <= 3, uniform at r = 4."""
    for r in (2, 3, 4):
        yield r, None
        yield r, "ibm-14-damping" if r <= 3 else "uniform-1e-3"


def noise_model(label, n_qubits):
    if label is None:
        return None
    if label == "uniform-1e-3":
        return NoiseModel.uniform(n_qubits, 1e-3)
    return NoiseModel.from_calibration(qsim.load_calibration("ibm-14"), n_qubits, damping=True)


def flat_state(state) -> np.ndarray:
    return state.amps if isinstance(state, qsim.Statevector) else state.flat


@pytest.mark.parametrize("r, label", list(measurement_cases()))
def test_block_path_matches_the_former_gather_scatter(r, label):
    # the Z, A and B programs: the ansatz alone or followed by rotation A or B
    noise = noise_model(label, 2 * r)
    circuits = (ansatz.ansatz_template(r), *(tomography._phase_circuit(r, y) for y in (False, True)))
    programs = (ansatz.compiled_ansatz(r, noise), *tomography.phase_measurement_programs(r, noise))
    rng = np.random.default_rng(80 + r)
    for program, circuit in zip(programs, circuits):
        blocks = former_blocks(program, circuit, noise)
        for _ in range(3):
            t = rng.uniform(-np.pi, np.pi, size=r - 1)
            want = former_run_blocks(program, blocks, t).tobytes()
            assert program._run_blocks(t).tobytes() == want
            if not program.tabulated:
                assert flat_state(program.run(t)).tobytes() == want


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("circuit", [Circuit(3), Circuit(3).h(0).cx(0, 1).s(1).cx(1, 2).h(2).x(0)])
def test_fixed_program_runs_give_fresh_states(circuit, noisy):
    # every block is fixed, so the whole state is the compiled prefix (the
    # empty circuit has no block at all); a run must still hand out its own array
    noise = NoiseModel.uniform(3, 0.02) if noisy else None
    program = qsim.Program(circuit, noise)
    former = former_run_blocks(program, former_blocks(program, circuit, noise), []).tobytes()
    for run in (program._run_blocks, lambda t: flat_state(program.run(t))):
        first = run([])
        want = first.tobytes()
        first[:] = 7.0
        assert run([]).tobytes() == want
    assert program._run_blocks([]).tobytes() == former
