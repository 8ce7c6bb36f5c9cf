"""The lean paths give the same bits as the former per-call numpy ones.

``hybrid.assemble_2dm_energy`` reads integrals gathered once per
objective, ``mitigation.project_polytope`` runs on Python floats, and
``qsim.Program``'s block path runs a compiled fixed prefix, binds fixed
blocks once and moves the state between blocks by one gather.  Each keeps
every float operation and its order, so the copies below of the former
numpy versions must agree with them under ``==`` (compared as bytes, so a
-0.0 for a 0.0 fails too), and the energies one objective returns at
seed 1 must equal those pinned from the former path.
"""

import functools

import numpy as np
import pytest

from geminal import ansatz, chem, hybrid, mitigation, qsim, tomography
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
# HybridConfig(shots=2048, seed=1), RHF orbitals; pinned from the former path
PINNED = {
    ("h2", 1.4): [
        -0.0898477021902796, -0.3790824989048952, 0.4281524881394848,
        -0.39184738662005814, -0.023585795245677055, -0.8713403849094526,
        0.41633711293695236, 0.46404309465983556, -1.123917201109458,
        -0.6749229944177874, 0.46781488855546055, -0.7302143732812173,
        0.03297903746966091, 0.4805497323954243, -0.7594825885575541,
        -1.1167143250625697, 0.4800873833536617, 0.09198632202203594,
        -1.1327054540768269, 0.21622703607447008, -1.1157991339070468,
        -0.6554555573851021, -0.8400082549050648, -0.9163379087308118,
        0.215193130630571, -0.9813055199898094, 0.1287072962318877,
        -0.4643664924146115, 0.14128516866679042, -0.993281279599172,
        -0.93640699033406, 0.4517977128446365, -1.1372677930741935,
        0.4181131614099226, -0.9312567175223833, -0.20708469670105167,
        0.460576462217275, 0.2003663501309798, -0.003857614623290484,
        0.48037466852553634, 0.36947361971055953, 0.35055749879968146,
        0.22122263417056964, 0.043491394773433, 0.19901239096897871,
        0.35577067595497025, 0.11958000702520122, 0.3541425332004176,
        0.3642054529372261, -1.123952751400755,
    ],
    ("h3plus", 1.65): [
        -0.0830799114815568, 0.16149322817150424, -0.06751667995489385,
        0.35194496412618315, -1.2466514810663052, 0.3975634225189826,
        -0.06311719388241865, -0.807264453816521, 0.44496770468354896,
        -1.1613486317967092, -1.1514931320462563, -1.051786845998316,
        -0.18881794104189642, -0.2177231042376111, -0.28159099058242654,
        -1.036614520435619, -1.2440780676099317, -0.8598156265251433,
        0.430047145354862, -0.09139359110950296, 0.05072615642124423,
        -0.013185859377092157, -0.20141456399662316, 0.03388107450769007,
        0.03331016771894224, -0.23470644381604866, -1.1930129877652462,
        -0.8345711862480127, 0.3556766226352399, -1.0421820902281669,
        -1.2464796111120033, -1.237547699944473, -0.3061961234269577,
        0.2168869070342334, -0.1309029505297048, -1.1182556930701841,
        -1.2516615732300538, -1.2586357860988733, -0.9478102527178318,
        -0.8293611656646351, -1.1016252844501684, -0.003679515343012696,
        -0.8071418698546713, 0.09169126062394484, -1.1420796288830501,
        -1.2227497076776552, 0.21643424158751645, 0.4199636930532662,
        -0.25524470251906695, -1.1953299063460612,
    ],
}


@pytest.mark.parametrize("system, bond", sorted(PINNED))
def test_objective_energies_are_pinned(system, bond):
    builder = {"h2": chem.h2_molecule, "h3plus": chem.h3plus_molecule}[system]
    ints, rhf, _ = chem.scf_reference(builder(bond))
    h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
    objective = hybrid.QuantumObjective(h, eri, ints.enuc, hybrid.HybridConfig(seed=1))
    angles = np.random.default_rng(14).uniform(-np.pi, np.pi, size=(50, ints.n_basis - 1))
    assert [objective(t) for t in angles] == PINNED[system, bond]


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
