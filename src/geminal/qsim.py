"""Statevector and density-matrix simulation with device-noise emulation.

Conventions, used consistently by every consumer:

* Little-endian basis indexing: qubit q is bit q of the basis index, so
  bitstrings print with qubit 0 rightmost.
* ``rz(t) = exp(-i t Z / 2)`` and likewise for rx/ry.

Both engines apply a gate by one rule (``_apply_local``): gather the
flat state by a cached index order that brings the gate's bits first
(``_local_order``), multiply by the gate's local matrix, and scatter
back.  The statevector engine (``run_circuit``) multiplies by
``Gate.matrix()``, the only definition of each gate, and the
density-matrix engine (``run_density``) by a superoperator built from
it.

Production preparations run as compiled programs (``Program``, cached
by ``compiled``), whose rotation angles are left open as ``Angle`` and
bound per run.  A program holds what is measured, the Z-basis outcome
distribution, as one coefficient table: the distribution is a
trigonometric polynomial in the angles, so compiling evaluates it with
the gate-by-gate engines at a few nodes and solves for the table, and a
run reads it as one weighted sum of the table's rows.  A program too
large to tabulate runs the gate-by-gate engine on every run instead.
Every run starts from |0...0>, so each measured circuit, such as the
ansatz followed by a basis rotation, is a program of its own.

The noise model: gate errors are depolarising (a uniformly random
non-identity Pauli on the gate's qubits, 3 choices after a one-qubit
gate, 15 after a CNOT), readout flips each measured bit independently,
and optional T1/T2 damping applies amplitude/phase relaxation for fixed
gate durations.

Noisy preparations run on the density-matrix engine (``run_density``,
up to MAX_DENSITY_QUBITS qubits).  Each gate is one local superoperator
that combines the unitary, the depolarising twirl and the damping.
Both engines are measured by one rule (``sample``): one multinomial
draw over the outcome distribution, ``state.probabilities()`` or a
program's run, for rho its readout-confused diagonal, which is exactly
the distribution of one shot per trajectory, from a generator the
caller hands in.  Production draws come in order from one shot
generator ``make_rng(seed, SHOT_KEY)`` per curve point or per
``scan``/``vtable`` command, so a histogram is reproducible
bit-for-bit for a given seed and its place in that order, and no two
preparations of a point start from the same generator state.  Every
estimate read from a record reads the outcome bits from one cached
table, ``outcome_bits``: the occupations here, the N and Sz masks of the
symmetry filter, and the window parity signs of the phase estimator.

The trajectory engine (``run_trajectories``) is the independent
reference that tests check the density-matrix engine against; no
production path runs it, and it applies gates with its own batch
kernels from ``_kernels``, not with the production rule.  Each shot is
its own statevector in the quantum-jump picture, with all randomness
drawn from one numpy Generator in a fixed order.  Both engines take
their damping rates from ``_relaxation``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from geminal import _kernels

ONE_QUBIT_GATE_NS = 100.0
CNOT_GATE_NS = 300.0
MAX_DENSITY_QUBITS = 10  # rho then holds 2**20 complex entries (16 MiB)
TABLE_MAX_ENTRIES = 1 << 20  # rows x state entries a Program tabulates: noiseless r <= 5, noisy r <= 3


class CalibrationError(ValueError):
    """Raised when a calibration file is malformed or lacks needed entries."""


# ---------------------------------------------------------------------------
# gates and circuits
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)


def _constant(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.flags.writeable = False  # Gate.matrix() hands this one array to every caller
    return m


_FIXED = {
    "x": _constant([[0, 1], [1, 0]]),
    "y": _constant([[0, -1j], [1j, 0]]),
    "z": _constant([[1, 0], [0, -1]]),
    "h": _constant([[_SQ2, _SQ2], [_SQ2, -_SQ2]]),
    "s": _constant([[1, 0], [0, 1j]]),
    "sdg": _constant([[1, 0], [0, -1j]]),
    # local index bit(control) + 2 bit(target): |c=1,t=0> <-> |c=1,t=1>
    "cx": _constant([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]),
}
_PARAMETRIC_1Q = {"rx", "ry", "rz"}
GATE_NAMES = set(_FIXED) | _PARAMETRIC_1Q


@dataclass(frozen=True)
class Angle:
    """A rotation parameter left open: entry ``index`` of the angles a Program binds per run."""

    index: int


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    param: float | Angle | None = None

    def matrix(self) -> np.ndarray:
        """Local unitary; for cx the local index is bit(control) + 2 bit(target).

        A parameter-free gate returns its shared read-only constant.
        """
        if self.name in _FIXED:
            return _FIXED[self.name]
        t = self.param
        half = 0.5 * t
        c, s = math.cos(half), math.sin(half)
        if self.name == "rx":
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        if self.name == "ry":
            return np.array([[c, -s], [s, c]], dtype=complex)
        if self.name == "rz":
            return np.array([[c - 1j * s, 0], [0, c + 1j * s]], dtype=complex)
        raise ValueError(f"unknown gate {self.name!r}")


class Circuit:
    """Ordered gate list over a fixed qubit register."""

    def __init__(self, n_qubits: int, gates=()):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        self.gates: list[Gate] = list(gates)

    def add(self, name: str, *qubits: int, param: float | None = None) -> "Circuit":
        name = name.lower()
        if name not in GATE_NAMES:
            raise ValueError(f"unknown gate {name!r}")
        want = 2 if name == "cx" else 1
        if len(qubits) != want:
            raise ValueError(f"{name} takes {want} qubit(s)")
        if any(q < 0 or q >= self.n_qubits for q in qubits):
            raise ValueError(f"qubit index out of range for {name} {qubits}")
        if name == "cx" and qubits[0] == qubits[1]:
            raise ValueError("cx control and target must differ")
        if name in _PARAMETRIC_1Q:
            if param is None:
                raise ValueError(f"{name} requires a parameter")
            if not isinstance(param, Angle):
                param = float(param)
        elif param is not None:
            raise ValueError(f"{name} takes no parameter")
        self.gates.append(Gate(name, tuple(int(q) for q in qubits), param))
        return self

    # terse builders; each returns self for chaining
    def x(self, q):
        return self.add("x", q)

    def h(self, q):
        return self.add("h", q)

    def s(self, q):
        return self.add("s", q)

    def sdg(self, q):
        return self.add("sdg", q)

    def rx(self, q, theta):
        return self.add("rx", q, param=theta)

    def ry(self, q, theta):
        return self.add("ry", q, param=theta)

    def rz(self, q, theta):
        return self.add("rz", q, param=theta)

    def cx(self, control, target):
        return self.add("cx", control, target)

    def extend(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit counts differ")
        self.gates.extend(other.gates)
        return self

    @property
    def cx_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "cx")

    def __len__(self):
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


# ---------------------------------------------------------------------------
# statevector
# ---------------------------------------------------------------------------

class Statevector:
    def __init__(self, amps: np.ndarray):
        amps = np.asarray(amps, dtype=complex)
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError("amplitude array length must be a power of two >= 2")
        self.amps = amps

    @classmethod
    def zero(cls, n_qubits: int) -> "Statevector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps)

    @property
    def n_qubits(self) -> int:
        return self.amps.size.bit_length() - 1

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@functools.lru_cache(maxsize=64)
def _local_order(n_bits: int, bits: tuple[int, ...]) -> np.ndarray:
    """Flat indices of a 2**n_bits array that bring ``bits`` first.

    Gathering with them gives a (2**k, rest) array whose row index holds
    bit ``bits[j]`` as its bit j, so ``bits[-1]`` is the local high bit;
    the same indices scatter the result back (``_apply_local``).  The
    gate-by-gate engines look up one key per gate; a tabulated Program
    looks keys up only while compiling, so its runs add none.  An entry
    holds 2**n_bits indices, 32 KiB for rho at 6 qubits and 8 MiB at 10.
    """
    axes = [n_bits - 1 - b for b in reversed(bits)]
    rest = [a for a in range(n_bits) if a not in axes]
    order = np.arange(1 << n_bits, dtype=np.intp).reshape((2,) * n_bits)
    order = order.transpose(axes + rest).reshape(-1)
    order.flags.writeable = False  # shared by every cached call
    return order


def _apply_local(flat: np.ndarray, op: np.ndarray, order: np.ndarray) -> None:
    """The one gate rule of both engines: gather by ``order``, multiply by ``op``, scatter."""
    flat[order] = (op @ flat[order].reshape(op.shape[0], -1)).reshape(-1)


def run_circuit(circuit: Circuit) -> Statevector:
    """Run the circuit from |0...0> without noise."""
    n = circuit.n_qubits
    state = Statevector.zero(n)
    for gate in circuit.gates:
        _apply_local(state.amps, gate.matrix(), _local_order(n, gate.qubits))
    return state


# ---------------------------------------------------------------------------
# histograms and sampling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def outcome_bits(n_qubits: int) -> np.ndarray:
    """Read-only (2**n_qubits, n_qubits) float64 table: entry [k, q] is bit q of outcome k."""
    table = ((np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits)) & 1).astype(np.float64)
    table.flags.writeable = False  # shared by every cached call
    return table


@dataclass(eq=False)
class ShotHistogram:
    """Z-basis measurement record: one weight per outcome, dense over 2**n_qubits.

    Sampled and noisy runs hold integer counts summing to ``shots``.  An
    exact run holds the outcome probabilities with ``shots=None``; its
    estimates carry no shot noise.
    """

    n_qubits: int
    shots: int | None
    counts: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and (self.n_qubits, self.shots) == (other.n_qubits, other.shots)
            and np.array_equal(self.counts, other.counts)
        )

    def occupations(self) -> np.ndarray:
        """Mean of every bit over shots, qubit q at entry q: one ``dot`` with the cached bit table.

        An exact record's weights are probabilities, so its product is the
        mean as it stands (dividing by 1.0 would change no bit).
        """
        weighted = self.counts.dot(outcome_bits(self.n_qubits))
        return weighted if self.shots is None else weighted / self.shots

    def parities(self, signs: np.ndarray) -> np.ndarray:
        """Mean over shots of each row of ``signs``, one +-1 per outcome.

        The phase estimator passes its window-sign table, whose rows are
        parities of ``outcome_bits`` columns.

        A sampled record takes every row in one product,
        ``signs.dot(counts)``: each partial sum is an integer below 2**53,
        which every summation order gives exactly.  An exact record's sums
        are of floats, so their order sets the bits: one product weighs
        every row, and each row is then summed along itself in the order
        ``np.sum`` sums one vector, so a row of a stacked ``signs`` gives
        the bits that row gives when passed alone as a 1-D ``signs``.
        """
        if self.shots is None:
            return np.add.reduce(self.counts * signs, axis=-1)
        return signs.dot(self.counts) / self.shots


def make_rng(*keys: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of nonnegative integers."""
    if any(int(k) < 0 for k in keys):
        raise ValueError("rng keys must be nonnegative")
    return np.random.default_rng([int(k) for k in keys])


# every generator key of the package, in one place
SHOT_KEY = 202  # the shot generator make_rng(seed, SHOT_KEY) of a point or a command
BOOTSTRAP_KEY = 303  # the V-interval resampling: make_rng(seed, BOOTSTRAP_KEY)
JITTER_KEY = 404  # restart jitter: make_rng(seed, JITTER_KEY) sampled, make_rng(JITTER_KEY) exact
POINT_SEED_STRIDE = 104729  # the prime between the seeds of neighbouring curve points


def point_seed(seed: int, index: int) -> int:
    """The seed of point ``index`` of a curve whose base seed is ``seed``."""
    return seed + POINT_SEED_STRIDE * index


def _apply_readout_flips(
    outcomes: np.ndarray, ro: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    n_qubits = ro.size
    flips = rng.random((outcomes.size, n_qubits)) < ro[None, :]
    mask = (flips.astype(np.int64) << np.arange(n_qubits, dtype=np.int64)[None, :]).sum(
        axis=1
    )
    return outcomes ^ mask


def sample(probs: np.ndarray, shots: int, rng: np.random.Generator) -> ShotHistogram:
    """One multinomial draw of ``shots`` outcomes from the outcome distribution ``probs``.

    The draw comes from ``rng``; production callers pass the shot
    generator ``make_rng(seed, SHOT_KEY)`` of their point or command.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = np.maximum(probs, 0.0)
    counts = rng.multinomial(shots, probs / probs.sum())
    return ShotHistogram(probs.size.bit_length() - 1, shots, counts)


# ---------------------------------------------------------------------------
# device calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitCalibration:
    u2_error: float
    u3_error: float
    readout_error: float
    t1_us: float
    t2_us: float


@dataclass(frozen=True)
class DeviceCalibration:
    name: str
    qubits: dict[int, QubitCalibration]
    cx_errors: dict[tuple[int, int], float]

    def qubit(self, q: int) -> QubitCalibration:
        try:
            return self.qubits[q]
        except KeyError:
            raise CalibrationError(f"device {self.name!r} has no qubit {q}") from None

    def cx_error(self, a: int, b: int) -> float:
        """Direction-agnostic CNOT error for the coupling {a, b}."""
        for key in ((a, b), (b, a)):
            if key in self.cx_errors:
                return self.cx_errors[key]
        raise CalibrationError(f"device {self.name!r} has no coupling ({a}, {b})")


def parse_calibration(text: str) -> DeviceCalibration:
    """Parse calibration text.

    Lines: ``device <name>``, ``qubit <i> <u2> <u3> <ro> <t1_us> <t2_us>``,
    ``cx <control> <target> <error>``; ``#`` comments allowed.  A line
    with more or fewer fields is malformed, and a qubit or a coupling
    (in either direction) may be defined once.  Every error rate must
    lie in [0, 1] and every T1/T2 be positive and finite.
    """
    fields = {"device": 2, "qubit": 7, "cx": 4}
    name = "unnamed"
    qubits: dict[int, QubitCalibration] = {}
    cx: dict[tuple[int, int], float] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        rates, times, again = [], [], None
        try:
            if len(parts) != fields.get(kind):
                raise ValueError
            if kind == "device":
                name = parts[1]
            elif kind == "qubit":
                q = int(parts[1])
                vals = [float(v) for v in parts[2:]]
                if q in qubits:
                    again = f"qubit {q}"
                qubits[q] = QubitCalibration(*vals)
                rates, times = vals[:3], vals[3:]
            else:
                a, b = int(parts[1]), int(parts[2])
                if (a, b) in cx or (b, a) in cx:
                    again = f"coupling ({a}, {b})"
                cx[(a, b)] = float(parts[3])
                rates = [cx[(a, b)]]
        except ValueError:
            raise CalibrationError(f"calibration line {ln} is malformed: {raw!r}") from None
        if again:
            raise CalibrationError(f"calibration line {ln} defines {again} a second time: {raw!r}")
        # comparisons with nan are false, so nan fails both checks
        if not all(0.0 <= p <= 1.0 for p in rates):
            raise CalibrationError(f"calibration line {ln} has an error rate outside [0, 1]: {raw!r}")
        if not all(0.0 < t < math.inf for t in times):
            raise CalibrationError(
                f"calibration line {ln} has a T1/T2 that is not positive and finite: {raw!r}"
            )
    if not qubits:
        raise CalibrationError("calibration defines no qubits")
    return DeviceCalibration(name, qubits, cx)


def load_calibration(source: str) -> DeviceCalibration:
    """Load calibration by built-in name ('ibm-5', 'ibm-14') or file path."""
    builtin = {"ibm-5": "ibm5.txt", "ibm-14": "ibm14.txt"}
    if source in builtin:
        text = (resources.files("geminal") / "data" / builtin[source]).read_text()
    else:
        path = Path(source)
        if not path.exists():
            raise CalibrationError(f"no built-in or file calibration {source!r}")
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise CalibrationError(f"cannot read calibration file {source!r}: {exc}") from None
    return parse_calibration(text)


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------

@dataclass
class NoiseModel:
    """Per-qubit error rates feeding the density-matrix engine and the trajectories.

    ``one_qubit``/``readout`` map qubit index to probability;
    ``two_qubit`` maps ordered coupling pairs (looked up direction-
    agnostically).  ``t1_ns``/``t2_ns`` enable relaxation when set;
    ``from_calibration`` sets them only with ``damping``, so by default
    a model emulates gate errors and readout only, which is the regime
    the error-rate tables describe.

    The density-matrix engine keeps what it builds from these rates in
    ``_channels``: one superoperator per parameter-free gate, one noise
    channel per qubit set of a rotation, and the programs ``compiled``
    for this model, so the cache is bounded by the qubit count and the
    circuits compiled, and never holds an angle.  A tabulated program
    keeps only its outcome table, not the model, so the model and its
    cache are freed with the last reference to the model, with no cycle
    to collect; a program too large to tabulate keeps the model and
    waits for the collector.  The rates are read when a channel or a
    table is built; change them on a new model.
    A pickled or copied model carries the rates without the cache.
    """

    one_qubit: dict[int, float]
    two_qubit: dict[tuple[int, int], float]
    readout: dict[int, float]
    t1_ns: dict[int, float] | None = None
    t2_ns: dict[int, float] | None = None
    _channels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_calibration(cls, cal: DeviceCalibration, n_qubits: int, damping: bool = False):
        """Restrict a device table to qubits 0..n_qubits-1 (identity layout).

        The linear chain (0,1), (1,2), ... must exist on the device; a
        missing qubit or coupling raises CalibrationError.  ``damping``
        keeps the qubits' T1/T2 times, which switches relaxation on.
        """
        one = {q: cal.qubit(q).u2_error for q in range(n_qubits)}
        ro = {q: cal.qubit(q).readout_error for q in range(n_qubits)}
        two = {}
        for q in range(n_qubits - 1):
            two[(q, q + 1)] = cal.cx_error(q, q + 1)
        if not damping:
            return cls(one, two, ro)
        t1 = {q: cal.qubit(q).t1_us * 1000.0 for q in range(n_qubits)}
        t2 = {q: cal.qubit(q).t2_us * 1000.0 for q in range(n_qubits)}
        return cls(one, two, ro, t1, t2)

    @classmethod
    def uniform(cls, n_qubits: int, p1: float = 0.0):
        """One-qubit error rate p1 on every qubit; every coupling exists, error-free."""
        one = {q: p1 for q in range(n_qubits)}
        ro = {q: 0.0 for q in range(n_qubits)}
        two = {(a, b): 0.0 for a in range(n_qubits) for b in range(n_qubits) if a != b}
        return cls(one, two, ro)

    def __getstate__(self):
        return {**vars(self), "_channels": {}}

    def p_gate(self, gate: Gate) -> float:
        if gate.name == "cx":
            a, b = gate.qubits
            for key in ((a, b), (b, a)):
                if key in self.two_qubit:
                    return self.two_qubit[key]
            raise CalibrationError(f"noise model has no coupling {gate.qubits}")
        return self.one_qubit.get(gate.qubits[0], 0.0)

    def readout_vector(self, n_qubits: int) -> np.ndarray:
        return np.array([self.readout.get(q, 0.0) for q in range(n_qubits)])


def _relaxation(duration_ns: float, t1_ns: float, t2_ns: float) -> tuple[float, float]:
    """Amplitude-damping probability and pure-dephasing flip probability of one gate.

    Pure dephasing is what T2 leaves beyond the T1 contribution,
    1/T2 = 1/(2 T1) + 1/Tphi; a T2 above 2 T1 leaves none, so the flip
    probability is clamped at 0.
    """
    gamma = 1.0 - math.exp(-duration_ns / t1_ns)
    inv_tphi = 1.0 / t2_ns - 0.5 / t1_ns
    pz = 0.5 * (1.0 - math.exp(-duration_ns * inv_tphi)) if inv_tphi > 0 else 0.0
    return gamma, pz


# ---------------------------------------------------------------------------
# density-matrix engine
# ---------------------------------------------------------------------------

def _superoperator(*kraus: np.ndarray) -> np.ndarray:
    """sum_K K (x) conj(K): the channel rho -> sum_K K rho K^dagger on row-major vec(rho)."""
    d = kraus[0].shape[0]
    # K (x) conj(K) by broadcasting: np.kron costs ten times more on a 2x2
    return sum(k[:, None, :, None] * k.conj()[None, :, None, :] for k in kraus).reshape(d * d, -1)


def _embed_local(op: np.ndarray, position: int, k: int) -> np.ndarray:
    """One-qubit op on bit ``position`` of a k-qubit little-endian local index."""
    return np.kron(np.eye(1 << (k - 1 - position)), np.kron(op, np.eye(1 << position)))


def _noise_channel(noise: NoiseModel, gate: Gate) -> np.ndarray:
    """Depolarising twirl, then damping per gate qubit, on the gate's local space.

    The Pauli channel (1 - p) rho + p/(4^k - 1) sum_{P != I} P rho P
    equals (1 - lam) rho + lam Tr_Q(rho) (x) I/2^k with
    lam = p 4^k/(4^k - 1) (Nielsen & Chuang, section 8.3).
    """
    k = len(gate.qubits)
    d = 1 << k
    lam = noise.p_gate(gate) * d * d / (d * d - 1)
    ident = np.eye(d).reshape(-1)
    chan = (1.0 - lam) * np.eye(d * d) + (lam / d) * np.outer(ident, ident)
    if noise.t1_ns is not None:
        duration = CNOT_GATE_NS if gate.name == "cx" else ONE_QUBIT_GATE_NS
        for m, q in enumerate(gate.qubits):
            gamma, pz = _relaxation(duration, noise.t1_ns[q], noise.t2_ns[q])
            k0 = np.diag([1.0, math.sqrt(1.0 - gamma)])
            k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])
            damp = _superoperator(_embed_local(k0, m, k), _embed_local(k1, m, k))
            z = _embed_local(_FIXED["z"].real, m, k)
            dephase = (1.0 - pz) * np.eye(d * d) + pz * _superoperator(z)
            chan = dephase @ damp @ chan
    return chan


def _gate_channel(noise: NoiseModel, gate: Gate) -> np.ndarray:
    """The gate's unitary, depolarising twirl and damping as one local superoperator."""
    cache = noise._channels
    if gate.param is None:
        key = (gate.name, gate.qubits)
        if key not in cache:
            cache[key] = _noise_channel(noise, gate) @ _superoperator(gate.matrix())
        return cache[key]
    key = (None, gate.qubits)
    if key not in cache:
        cache[key] = _noise_channel(noise, gate)
    return cache[key] @ _superoperator(gate.matrix())


class DensityMatrix:
    """Noisy n-qubit state rho, with the readout error rates of its measurement.

    ``flat`` holds rho row-major, so ``flat.reshape(2**n, 2**n)`` is rho
    in the little-endian basis; ``readout`` is the noise model's
    ``readout_vector``.
    """

    def __init__(self, flat: np.ndarray, readout: np.ndarray):
        self.flat = flat
        self.readout = readout

    @classmethod
    def zero(cls, n_qubits: int, readout: np.ndarray) -> "DensityMatrix":
        if not 1 <= n_qubits <= MAX_DENSITY_QUBITS:
            raise ValueError(
                f"the density-matrix engine covers 1 to {MAX_DENSITY_QUBITS} qubits, "
                f"not {n_qubits}"
            )
        flat = np.zeros(1 << (2 * n_qubits), dtype=complex)
        flat[0] = 1.0
        return cls(flat, readout)

    @property
    def n_qubits(self) -> int:
        return (self.flat.size.bit_length() - 1) // 2

    def probabilities(self) -> np.ndarray:
        """Z-basis outcome distribution: diag(rho) through each qubit's readout flips."""
        probs = self.flat[:: (1 << self.n_qubits) + 1].real.copy()  # diag(rho)
        for q, ro in enumerate(self.readout):
            if ro > 0.0:
                view = probs.reshape(-1, 2, 1 << q)
                probs = ((1.0 - ro) * view + ro * view[:, ::-1, :]).reshape(-1)
        return probs


def run_density(circuit: Circuit, noise: NoiseModel) -> DensityMatrix:
    """Evolve rho through the noisy circuit from |0...0><0...0|.

    Each gate applies as one superoperator on its qubits' row and
    column bits.
    """
    n = circuit.n_qubits
    state = DensityMatrix.zero(n, noise.readout_vector(n))
    for gate in circuit.gates:
        bits = _rho_bits(gate.qubits, n)
        _apply_local(state.flat, _gate_channel(noise, gate), _local_order(2 * n, bits))
    return state


def _rho_bits(qubits: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Flat bits of ``qubits`` in row-major vec(rho): the column bits q, then the row bits n + q."""
    return qubits + tuple([n + q for q in qubits])


# ---------------------------------------------------------------------------
# compiled programs
# ---------------------------------------------------------------------------

def bind(circuit: Circuit, t) -> Circuit:
    """``circuit`` with every ``Angle(k)`` replaced by t[k]."""
    return Circuit(circuit.n_qubits, [
        Gate(g.name, g.qubits, float(t[g.param.index])) if isinstance(g.param, Angle) else g
        for g in circuit
    ])


def _angle_indices(gates) -> list[int]:
    """The index of each ``Angle`` the gates leave open, one entry per gate, in order."""
    return [g.param.index for g in gates if isinstance(g.param, Angle)]


def _harmonics(order: int, angle: float) -> list[float]:
    """1, then cos(m t) and sin(m t) for m = 1..order at t = ``angle``: 2 order + 1 functions."""
    out = [1.0]
    for m in range(1, order + 1):
        out += [math.cos(m * angle), math.sin(m * angle)]
    return out


def _weights(orders, t) -> list[float]:
    """Every product of one harmonic per angle at ``t``: the row weights of a coefficient table."""
    weights = [1.0]
    for order, angle in zip(orders, t):
        harmonics = _harmonics(order, angle)
        weights = [w * h for w in weights for h in harmonics]
    return weights


def _tabulate(orders, evaluate) -> np.ndarray:
    """The coefficient table of ``evaluate``, of the given trigonometric order along each angle.

    ``evaluate`` runs at 2 order + 1 equispaced nodes per angle, and the
    table, one returned vector per row, is solved for.  No angles give a
    one-row table: the vector itself.
    """
    grids = [2.0 * (np.pi * np.arange(2 * o + 1) / (2 * o + 1)) for o in orders]
    nodes = list(itertools.product(*grids))
    values = np.array([evaluate(t) for t in nodes])
    table = np.linalg.solve(np.array([_weights(orders, t) for t in nodes]), values)
    table.flags.writeable = False
    return table


class Program:
    """A circuit's Z-basis outcome distribution on one engine, its ``Angle`` values bound per run.

    Each rotation on angle t is cos(t/2) A + sin(t/2) B, and an outcome
    probability is quadratic in the amplitudes on the statevector engine
    and linear in the channels on the density-matrix engine (``noise``
    set), which are quadratic in the unitaries.  Either way each rotation
    contributes cos(t/2)**2, sin(t/2)**2 or their product, so the
    distribution after R rotations on angle k is a trigonometric
    polynomial of order R in t_k: a sum of the ``_harmonics`` 1,
    cos(m t_k) and sin(m t_k), m <= R, along each angle.  Compiling
    evaluates it with the gate-by-gate reference engine on the bound
    circuit (``bind``), ``run_circuit`` or ``run_density``, whose
    ``probabilities`` fold in the readout flips, at 2R + 1 equispaced
    nodes per angle, and solves for its coefficient table
    (``_tabulate``).  ``run(t)`` is one product of the
    ``_weights`` at t with the table, a new array every run.  The table
    keeps the reference's values to rounding, not bit for bit: an
    outcome the reference gives 1e-33 may read exactly 0, or the reverse.

    Tabulating costs one reference run per table row, so a program
    tabulates when its rows times the flat-state entries of its engine,
    2**n amplitudes or 4**n entries of rho, are at most
    TABLE_MAX_ENTRIES.  A larger program runs the reference engine on
    every run, so it keeps its circuit and its noise model, and the model
    caches the program (``compiled``): that cycle waits for the
    collector.  A tabulated program keeps neither, only its table.
    """

    def __init__(self, circuit: Circuit, noise: NoiseModel | None = None):
        n = self.n_qubits = circuit.n_qubits
        angles = _angle_indices(circuit.gates)
        self.n_angles = max(angles) + 1 if angles else 0
        self._orders = [angles.count(k) for k in range(self.n_angles)]
        self._circuit, self._noise = Circuit(n, circuit.gates), noise
        rows = math.prod(2 * o + 1 for o in self._orders)
        entries = 1 << (n if noise is None else 2 * n)
        self._table = None
        if rows * entries <= TABLE_MAX_ENTRIES:
            self._table = _tabulate(self._orders, self._reference)
            self._circuit = self._noise = None

    def _reference(self, t) -> np.ndarray:
        """The outcome distribution of the bound circuit from the gate-by-gate engine."""
        circuit = bind(self._circuit, t)
        if self._noise is None:
            return run_circuit(circuit).probabilities()
        return run_density(circuit, self._noise).probabilities()

    @property
    def tabulated(self) -> bool:
        """Whether runs read the coefficient table instead of the reference engine."""
        return self._table is not None

    def run(self, t=()) -> np.ndarray:
        """The outcome distribution after the program at angles ``t``, from |0...0>.

        The angles bind as Python floats, the type ``_weights`` is fastest on.
        """
        t = np.asarray(t, dtype=float).tolist()
        if len(t) != self.n_angles:
            raise ValueError(f"the program binds {self.n_angles} angles, got {len(t)}")
        if self._table is None:
            return self._reference(t)
        return np.dot(_weights(self._orders, t), self._table)


_NOISELESS_PROGRAMS: dict = {}


def compiled(build, *args, noise: NoiseModel | None = None) -> Program:
    """``Program(build(*args), noise)``, compiled on first use and then reused.

    ``build`` is a module-level circuit builder and ``args`` its hashable
    arguments.  Compiling tabulates the circuit's outcome distribution
    under the size rule of ``Program``.  A noisy program is kept in its
    noise model's cache with the model's channels, so it lives as long as
    the model does; a noiseless one in a module table.
    """
    cache = _NOISELESS_PROGRAMS if noise is None else noise._channels
    key = (build, *args)
    program = cache.get(key)
    if program is None:
        program = cache[key] = Program(build(*args), noise)
    return program


# ---------------------------------------------------------------------------
# trajectory engine (reference)
# ---------------------------------------------------------------------------

class TrajectoryEnsemble:
    """Batch of per-shot statevectors after a noisy circuit run."""

    def __init__(self, amps2: np.ndarray, n_qubits: int, rng, noise: NoiseModel):
        self.amps2 = amps2
        self.n_qubits = n_qubits
        self._rng = rng
        self.noise = noise

    @property
    def n_trajectories(self) -> int:
        return self.amps2.shape[0]

    def sample(self) -> ShotHistogram:
        """One measurement per trajectory, consuming the ensemble's stream."""
        probs = np.abs(self.amps2) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        u = self._rng.random(self.n_trajectories)
        outcomes = _kernels.sample_rows(probs, u)
        ro = self.noise.readout_vector(self.n_qubits)
        if np.any(ro > 0):
            outcomes = _apply_readout_flips(outcomes, ro, self._rng)
        counts = np.bincount(outcomes, minlength=1 << self.n_qubits)
        return ShotHistogram(self.n_qubits, self.n_trajectories, counts)


def _apply_pauli_errors(amps2, hit, codes, qubits) -> None:
    """Apply Pauli error ``codes[i]`` to row ``hit[i]``, one code at a time.

    A code holds one letter 0..3 (I, X, Y, Z) per gate qubit in base 4,
    the first qubit in the most significant digit, so CNOT error e is
    e // 4 on the control and e % 4 on the target.
    """
    for code in range(1, 4 ** len(qubits)):
        rows = hit[codes == code]
        if rows.size == 0:
            continue
        sub = amps2[rows]
        for digit, q in enumerate(reversed(qubits)):
            letter = (code >> (2 * digit)) & 3
            if letter:
                _kernels.apply_1q_batch(sub, _FIXED["xyz"[letter - 1]], q)
        amps2[rows] = sub


def _relax_rows(amps2, qubit, gamma, pz, rng) -> None:
    """Amplitude damping then pure dephasing of one qubit, row by row.

    A row jumps to its qubit-decayed state with probability gamma times
    its excited population, otherwise its excited amplitudes shrink by
    sqrt(1 - gamma); then each row takes a Z flip with probability pz.
    """
    nt, dim = amps2.shape
    k = np.arange(dim)
    hi = k[(k >> qubit) & 1 == 1]
    lo = hi ^ (1 << qubit)
    p1 = np.sum(np.abs(amps2[:, hi]) ** 2, axis=1)
    jump = rng.random(nt) < gamma * p1
    rows = np.nonzero(jump)[0]
    sub = np.zeros_like(amps2[rows])
    sub[:, lo] = amps2[rows][:, hi]
    amps2[rows] = sub / np.linalg.norm(sub, axis=1, keepdims=True)
    stay = np.nonzero(~jump)[0]
    amps2[np.ix_(stay, hi)] *= math.sqrt(1.0 - gamma)
    amps2[stay] /= np.linalg.norm(amps2[stay], axis=1, keepdims=True)
    flips = np.nonzero(rng.random(nt) < pz)[0]
    _apply_pauli_errors(amps2, flips, np.full(flips.size, 3), (qubit,))


def run_trajectories(
    circuit: Circuit,
    noise: NoiseModel,
    n_traj: int,
    seed: int = 0,
    stream: int = 0,
) -> TrajectoryEnsemble:
    """Simulate n_traj noisy shots of the circuit as individual trajectories.

    Gate errors insert a uniformly random non-identity Pauli on the
    gate's qubits with the modelled probability; optional damping then
    acts for the gate duration.  The random stream advances in a fixed
    order regardless of which errors fire, so a given (seed, stream)
    reproduces exactly.

    Each trajectory is its own statevector, a row of ``amps2``.
    """
    nt = int(n_traj)
    if nt < 1:
        raise ValueError("need at least one trajectory")
    rng = make_rng(seed, SHOT_KEY, stream)
    amps2 = np.zeros((nt, 1 << circuit.n_qubits), dtype=complex)
    amps2[:, 0] = 1.0
    for gate in circuit.gates:
        if gate.name == "cx":
            _kernels.apply_cnot_batch(amps2, *gate.qubits)
        else:
            _kernels.apply_1q_batch(amps2, gate.matrix(), gate.qubits[0])
        p = noise.p_gate(gate)
        if p > 0.0:
            hit = np.nonzero(rng.random(nt) < p)[0]
            if gate.name == "cx":
                codes = rng.integers(1, 16, size=hit.size)
            else:
                codes = rng.integers(0, 3, size=hit.size) + 1  # X, Y, Z
            _apply_pauli_errors(amps2, hit, codes, gate.qubits)
        if noise.t1_ns is not None:
            dur = CNOT_GATE_NS if gate.name == "cx" else ONE_QUBIT_GATE_NS
            for q in gate.qubits:
                gamma, pz = _relaxation(dur, noise.t1_ns[q], noise.t2_ns[q])
                _relax_rows(amps2, q, gamma, pz, rng)
    return TrajectoryEnsemble(amps2, circuit.n_qubits, rng, noise)
