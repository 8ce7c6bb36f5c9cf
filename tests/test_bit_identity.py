"""The lean paths give the same bits as the former per-call numpy ones.

``hybrid.assemble_2dm_energy`` reads integrals gathered once per
objective; ``mitigation.project_polytope``, ``hybrid.GeminalState.g`` and
``tomography.classical_phase_assignment`` run on Python floats;
``tomography.estimate_phases`` takes every window's parity from one
product with a cached sign table; and the energy, the occupations and a
sampled record's parities are ``ndarray.dot`` products where the former
code used ``@`` or a multiply and a sum.  Each keeps every float
operation and its order, or sums integers, which every order gives
exactly, so the copies below of the former numpy versions must agree
with them under ``==`` (compared as bytes, so a -0.0 for a 0.0 fails
too), and the energies and shot-generator states of objectives at seed 1
must equal those pinned from the programs' outcome tables.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import pauli_reference as pr
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
    p = float(np.sum(record.counts * pr.parity_signs(record.counts.size, mask))) / norm
    if record.shots is None:
        return p, 0.0
    return p, math.sqrt(max(0.0, 1.0 - p * p) / record.shots)


def former_estimate_phases(rec_a, rec_b, r):
    """The former window loop of ``estimate_phases``: two parity estimates per window."""
    vals = np.empty(r - 1)
    errs = np.empty(r - 1)
    for k in range(r - 1):
        mask = 0b1111 << (2 * k)  # qubits 2k..2k+3
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
        got = tomography.classical_phase_assignment(t.tolist())
        want = numpy_classical_phase_assignment(t)
        assert got == want.tolist() and {type(v) for v in got} <= {int}


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
            for rec in (rec_a, rec_b):  # the same records check the occupations' dot
                want = rec.counts @ qsim.outcome_bits(n) / (1.0 if shots is None else shots)
                assert rec.occupations().tobytes() == want.tobytes()
                pairs, _ = tomography.measure_occupations(Replay(rec), r)  # the pair average on floats
                assert np.array(pairs).tobytes() == (0.5 * (want[0::2] + want[1::2])).tobytes()
            values, stderr = tomography.estimate_phases(Replay(rec_a, rec_b), programs)
            vals, errs = former_estimate_phases(rec_a, rec_b, r)
            assert np.array(values).tobytes() == vals.tobytes()
            assert np.array(stderr).tobytes() == errs.tobytes()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_energy_matches_the_per_call_comprehensions(r):
    # at r = 1 a zero amplitude's products take another sign under dot than under @,
    # and the cross term's difference must still give the energy the same bits
    rng = np.random.default_rng(r)
    for _ in range(200):
        h = rng.normal(size=(r, r))
        eri = rng.normal(size=(r, r, r, r))
        enuc = float(rng.uniform(0.0, 2.0))
        pair = hybrid.pair_integrals(h, eri, enuc)
        for n in [*random_points(rng, r), *signed_zero_points(r)]:
            xi = rng.choice([-1, 1], size=r - 1)
            want = numpy_assemble_2dm_energy(n, xi, h, eri, enuc)
            assert same_bits(hybrid.assemble_2dm_energy(hybrid.GeminalState(n, xi), pair), want)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_projection_matches_numpy(r):
    rng = np.random.default_rng(10 + r)
    for _ in range(400):
        matrix = np.eye(r) + rng.normal(0.0, 0.3, size=(r, r))
        affine = mitigation.AffineMap(matrix, rng.normal(0.0, 0.1, size=r))
        for point in random_points(rng, r):
            # unsorted input exercises the pooling that an affine map triggers
            pooled = mitigation._pool_adjacent_violators(point.tolist())
            assert same_bits(mitigation._project_onto_hull(pooled),
                             numpy_project_onto_hull(point))
            for amap in (None, affine):
                got = mitigation.project_polytope(point, affine=amap)
                want, distance = numpy_project_polytope(point, amap)
                assert same_bits(got.occupations, want)
                assert got.distance == distance
                assert got.changed == (distance > 1e-12)


# energies of the first 50 evaluations at angles drawn from default_rng(14),
# HybridConfig(shots=2048, seed=1), RHF orbitals; pinned from the path whose
# preparations read compiled outcome tables and draw in order from one
# make_rng(seed, SHOT_KEY) generator
PINNED = {
    ("h2", 1.4): [
        -0.0898477021902796, -0.39264367076226725, 0.4214965805168186, -0.3726828056223509,
        0.021315266416845002, -0.867251502571878, 0.4181131614099226, 0.46813845543043864,
        -1.1194041826098933, -0.6996292576187281, 0.4703592259536796, -0.7508654070473132,
        0.06408508126102808, 0.479002445378126, -0.7381431119030256, -1.0925003749762912,
        0.4797763254700607, 0.07986134760095864, -1.1277037890109005, 0.23587806228472363,
        -1.1162081353623567, -0.6701390512198967, -0.8611449846439735, -0.9058654254342094,
        0.23653308384661798, -1.0018629063531121, 0.1287072962318877, -0.4557737377172163,
        0.1600182220173859, -1.0018629063531121, -0.9724744832232292, 0.460576462217275,
        -1.1366274692985892, 0.4181131614099226, -0.9182930320847055, -0.20876434419177048,
        0.4444014746543964, 0.19968949529270452, -0.004758890126386417, 0.4808059541753026,
        0.38273620565328537, 0.32501337054250246, 0.2477556454840839, 0.0647605930513504,
        0.1888261777380802, 0.33111697148337216, 0.12168948880970898, 0.33483347317487455,
        0.36126066314680655, -1.123952751400755,
    ],
    ("h3plus", 1.65): [
        -0.0830799114815568, 0.17421669403494078, -0.07883890505778468, 0.3420229328429272,
        -1.2456206417942706, 0.39684781436030003, -0.059997601011350765,
        -0.8139103463684279, 0.4471979264304635, -1.153307454611929, -1.135705283920317,
        -1.0371918651260825, -0.1508227425750095, -0.21221677857396126,
        -0.28161929012631126, -1.0211109306425008, -1.2485646595590916, -0.8720322252259434,
        0.430920882295309, -0.10739896306285956, 0.06830396556896612, 0.004062994595709357,
        -0.19471012671272514, 0.07441625933662732, 0.007602122480734108,
        -0.22085388895001556, -1.20226685049874, -0.8029248377634468, 0.35903484465285507,
        -1.0333735093185774, -1.241855135376649, -1.237547699944473, -0.33003905635471154,
        0.22952189465191597, -0.10560247341570217, -1.1025254838972607, -1.248626313895245,
        -1.255034205463027, -0.9348422604199234, -0.8837901918642206, -1.1142471421208733,
        0.01217071857880958, -0.8028599919847486, 0.11296666419898993, -1.1591970886136098,
        -1.212280992217065, 0.2129726359517552, 0.42008054292116515, -0.2513976449526847,
        -1.1874060538766746,
    ],
}


# the PCG64 state of each objective's shot generator after those 50
# evaluations: a draw added or dropped anywhere moves it
PINNED_SHOT_STATE = {
    ("h2", 1.4): 110788104526361994140319967028590353216,
    ("h3plus", 1.65): 329315449305032596147631736768674191742,
}


def h4_chain_dication(spacing):
    """The linear H4 2+ chain of the acceptance tests: four pair orbitals, classical phases."""
    coords = spacing * np.arange(4.0)[:, None] * np.array([0.0, 0.0, 1.0])
    return chem.Molecule(("H", "H", "H", "H"), coords, charge=2, label="h4-2plus")


def pinned_objective(system, bond, **settings):
    builder = {
        "h2": chem.h2_molecule, "h3plus": chem.h3plus_molecule, "h4-2plus": h4_chain_dication,
    }[system]
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


def ibm14_noise():
    return NoiseModel.from_calibration(qsim.load_calibration("ibm-14"), 6)


# energies of 20 evaluations at angles drawn from default_rng(15), the first
# three of them zero (the second with -0.0 first), seed 1, RHF orbitals, one
# case per path: H3+ with measured phases (two windows), exact H2 (measured
# phases on probabilities) and ibm-5 noisy H2; pinned from the per-window
# parity loop and the numpy signs and amplitudes, and the noiseless cases
# again from the programs' outcome tables
PINNED_PATHS = {
    "h3plus-measured": ("h3plus", 1.65, dict(phase_mode="measured"), [
        -1.237547699944473, -1.237547699944473, -1.237547699944473, 0.22731691251129305,
        -1.056386983100633, 0.2084872480504414, -1.1226204211261541, -1.2248994598566656,
        -0.3985891526506282, -1.209015626152487, -0.043159491342095846, -1.1190203685581024,
        0.2913236748107182, -0.4687868786447502, 0.31109180987267626, 0.392045594542896,
        -1.0278686429227466, -0.068448418446857, 0.40971956035899093, -1.1566184686824406,
    ]),
    "h2-exact": ("h2", 1.4, dict(shots=None), [
        -1.1167143250625697, -1.1167143250625697, -1.1167143250625697, -0.8979907818492815,
        -0.676520780523202, 0.05482603170656264, 0.4699448663556236, -0.20986367842554088,
        -1.097630040731587, -1.134911592353094, 0.32990367904358064, -0.19412946109459261,
        -0.8192686717452943, -1.035208037310166, -1.0545207099457459, -0.6462804264573748,
        -0.6516441319205134, 0.4811329842634435, -0.9682669048116838, -1.0498503425108248,
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


# energies at the PINNED_PATHS angles along the paths the mitigation
# settings choose: under noise, the filters one at a time and none at all
# (with the projection too, as ``--mitigate none``), and the four pair
# orbitals of the acceptance tests' H4 2+ chain; pinned from the evaluation
# whose occupations, phases and signs passed between layers as arrays
PINNED_MITIGATION_PATHS = {
    "h2-ibm-5-unprojected": ("h2", 1.4, dict(noise=ibm5_noise, symmetries=(), project=False), [
        -0.5375202044440203, -0.54969324497488, -0.5541880292784956, -0.4816153632519461,
        -0.38245215119311793, -0.05268197115869677, 0.16062133151842994,
        -0.36620182247280264, -0.7946246632572004, -0.8087413586174154,
        -0.18260662363318803, -0.39319440971836317, -0.4474925407082956,
        -0.7456066787985808, -0.5232903799241831, -0.5834399502035418, -0.5593779576136376,
        0.18512338304952602, -0.5091862224202722, -0.7538116626421997,
    ]),
    "h2-ibm-5-unfiltered": ("h2", 1.4, dict(noise=ibm5_noise, symmetries=()), [
        -0.5721864778713251, -0.5868716333445699, -0.5875309930930542, -0.5058323876233578,
        -0.42040612290614565, -0.048904223192460905, 0.18831542157214343,
        -0.35421912125933075, -0.8515913801005569, -0.870156132303321, -0.12238800534860694,
        -0.3602504593044308, -0.4722364008168328, -0.8092369265489961, -0.561276961525817,
        -0.5959985061691103, -0.5749203654598652, 0.20678394376873355, -0.5517107068669694,
        -0.819951943426588,
    ]),
    "h2-ibm-5-sz": ("h2", 1.4, dict(noise=ibm5_noise, symmetries=("Sz",)), [
        -0.7039275738808827, -0.7184632005422732, -0.7165444516398535, -0.6069596484476872,
        -0.5011292908394055, -0.004841943345255673, 0.2891842851522832,
        -0.29743955505225783, -0.9377931414407216, -0.9622555667656675,
        0.008165370911626613, -0.3113623318600368, -0.5654176693947776, -0.8890908924415132,
        -0.6721073483048082, -0.6210598422270418, -0.5856939158907665, 0.3114218995441661,
        -0.6730758019910389, -0.9020068151421131,
    ]),
    "h3plus-ibm-14-unprojected": ("h3plus", 1.65, dict(noise=ibm14_noise, symmetries=(), project=False), [
        -1.1026924822560848, -1.1128874825279198, -1.1120884779151041, -0.2538500470010441,
        -1.3027259769988355, -0.34373040372393393, -1.3159425793454658, -1.4592453278147197,
        -0.6359112205100634, -1.43833257924155, -0.3656380401421051, -1.3441957087123864,
        -0.31913116832078203, -0.7615546767924382, -0.26188605442900337,
        -0.3149349101760601, -1.377548196279098, -0.3536407386530118, -0.01742483321102739,
        -1.4195428987109835,
    ]),
    "h3plus-ibm-14-unfiltered": ("h3plus", 1.65, dict(noise=ibm14_noise, symmetries=()), [
        -0.5990795235170732, -0.581412933063614, -0.5971713412093187, 0.02792608908137173,
        -0.6839202714451156, -0.006109518235320577, -0.7427217367899519,
        -0.7974353907290952, -0.12480670794087256, -0.8140782824569961, -0.1367799147109141,
        -0.6824308569597111, 0.049675685599214425, -0.40580435630160205,
        0.11467442314265885, 0.03396243127724485, -0.699927201841078, 0.04363134502260668,
        0.32994176779711704, -0.7094200379403903,
    ]),
    "h3plus-ibm-14-sz": ("h3plus", 1.65, dict(noise=ibm14_noise, symmetries=("Sz",)), [
        -0.7251164054955639, -0.7000747992777951, -0.7084387175415212, 0.07159085829812128,
        -0.7620805489833808, 0.020219764403054175, -0.816048707393074, -0.8725808248050593,
        -0.21163255543448112, -0.8890099924012864, -0.1198733433247614, -0.7651142605002634,
        0.05971291671060386, -0.41133846017016906, 0.14469766431534237, 0.07065754208650454,
        -0.7737236549976159, 0.011060094477558957, 0.3454056807072896, -0.8135451393303612,
    ]),
    "h4-2plus": ("h4-2plus", 1.6, {}, [
        -0.8389324890746579, -0.8389324890746579, -0.8389324890746579, -0.7963686457399484,
        -0.8402190404371841, -0.33773631352617395, -0.8547498238590925, -0.7576291473950296,
        1.1394450612360356, -0.23519586101360845, 0.618054636122678, 1.1256433211748966,
        0.636621121247356, -0.4670886283604605, -0.21032254947059492, -0.20525604742892867,
        -0.5684201800753756, -0.43561167678518187, -0.25544948374941967,
        -0.3325121005740921,
    ]),
}


def pinned_path(label):
    """A fresh objective on the pinned path ``label``, its 20 angles and its pinned energies."""
    system, bond, settings, energies = {**PINNED_PATHS, **PINNED_MITIGATION_PATHS}[label]
    settings = {key: value() if callable(value) else value for key, value in settings.items()}
    objective, n_basis = pinned_objective(system, bond, **settings)
    angles = np.random.default_rng(15).uniform(-np.pi, np.pi, size=(20, n_basis - 1))
    angles[:3] = 0.0
    angles[1, :1] = -0.0
    return objective, angles, energies


@pytest.mark.parametrize("label", sorted(PINNED_PATHS) + sorted(PINNED_MITIGATION_PATHS))
def test_objective_paths_are_pinned(label):
    objective, angles, energies = pinned_path(label)
    assert [objective(t) for t in angles] == energies


@pytest.mark.parametrize("label", sorted(PINNED_PATHS) + sorted(PINNED_MITIGATION_PATHS))
def test_call_is_one_measured_batch(label):
    # an evaluation takes its one batch without measure_state's averaging,
    # which over one batch changes no bit: same energies, same preparations
    called, angles, _ = pinned_path(label)
    measured, _, _ = pinned_path(label)
    for t in angles:
        energy = called(t)
        state, _ = measured.measure_state(t)
        assert energy.hex() == hybrid.assemble_2dm_energy(state, measured.pair).hex()
        assert called.last_eval_preparations == measured.last_eval_preparations


# (occupations, signs, retained fraction) of four repeats=4 state estimates
# in a row, the reported state of each quantum step, at angles drawn from
# default_rng(16), seed 1, RHF orbitals: sampled H2 (measured phases),
# sampled H3+ (classical phases), ibm-5 noisy H2 and exact H2; pinned from
# the per-batch accumulation in arrays
PINNED_STATES = {
    "h2": ("h2", 1.4, {}, [
        ([0.8316650390625, 0.1683349609375], [1], 1.0),
        ([0.8206787109375, 0.1793212890625], [-1], 1.0),
        ([0.6859130859375, 0.3140869140625], [1], 1.0),
        ([0.3336181640625, 0.6663818359375], [-1], 1.0),
    ]),
    "h3plus": ("h3plus", 1.65, {}, [
        ([0.830322265625, 0.1412353515625, 0.0284423828125], [1, -1], 1.0),
        ([0.69482421875, 0.1029052734375, 0.2022705078125], [1, -1], 1.0),
        ([0.52490234375, 0.466796875, 0.00830078125], [-1, 1], 1.0),
        ([0.497802734375, 0.189697265625, 0.3125], [1, -1], 1.0),
    ]),
    "h2-ibm-5": ("h2", 1.4, dict(noise=ibm5_noise), [
        ([0.7708817061032932, 0.22911829389670685], [1], 0.46435546875),
        ([0.7674514324138973, 0.23254856758610262], [-1], 0.4560546875),
        ([0.6415599739150173, 0.3584400260849827], [1], 0.461669921875),
        ([0.3643987495137862, 0.6356012504862139], [-1], 0.4588623046875),
    ]),
    "h2-exact": ("h2", 1.4, dict(shots=None), [
        ([0.833395518538202, 0.16660448146179793], [1], 1.0),
        ([0.8223006223791279, 0.1776993776208721], [-1], 1.0),
        ([0.6894603606681049, 0.31053963933189505], [1], 1.0),
        ([0.33406164589109194, 0.6659383541089081], [-1], 1.0),
    ]),
}


@pytest.mark.parametrize("label", sorted(PINNED_STATES))
def test_averaged_states_are_pinned(label):
    system, bond, settings, states = PINNED_STATES[label]
    settings = {key: value() if callable(value) else value for key, value in settings.items()}
    objective, n_basis = pinned_objective(system, bond, **settings)
    angles = np.random.default_rng(16).uniform(-np.pi, np.pi, size=(len(states), n_basis - 1))
    for t, (n, xi, retained) in zip(angles, states):
        state, got = objective.measure_state(t, repeats=4)
        assert state.n.tobytes() == np.array(n).tobytes()
        assert (state.xi.tolist(), got) == (xi, retained)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("circuit", [Circuit(3), Circuit(3).h(0).cx(0, 1).s(1).cx(1, 2).h(2).x(0)])
def test_fixed_program_runs_give_fresh_states(circuit, noisy):
    # a program that binds no angle has a one-row table, which is the
    # reference distribution itself; a run must still hand out its own array
    noise = NoiseModel.uniform(3, 0.02) if noisy else None
    program = qsim.Program(circuit, noise)
    state = qsim.run_circuit(circuit) if noise is None else qsim.run_density(circuit, noise)
    want = state.probabilities().tobytes()
    first = program.run([])
    assert first.tobytes() == want
    first[:] = 7.0
    assert program.run([]).tobytes() == want
