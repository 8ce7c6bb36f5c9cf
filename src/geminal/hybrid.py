"""Hybrid optimization loop: quantum pair occupations, classical orbitals.

The two-electron energy in an orthonormal orbital basis, under the
paired (seniority-zero) structure of the wavefunction, reduces to

    E = sum_p n_p (2 h_pp + (pp|pp)) + sum_{p != q} g_p g_q (pq|pq) + E_nuc

with g_p = s_p sqrt(n_p) and cumulative signs s_0 = 1, s_{p+1} = s_p xi_p.
Occupations n and relative phases xi come from tomography of the paired
ansatz; orbital rotations stay classical.  The outer loop alternates a
gradient-free Nelder-Mead search over rotation angles t with a BFGS
orbital relaxation at fixed (n, xi) until successive outer energies
agree within a threshold.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from geminal import ansatz, chem, mitigation, qsim, tomography
from geminal.chem import IntegralSet, Molecule
from geminal.qsim import NoiseModel


@dataclass
class GeminalState:
    """Measured pair occupations and relative signs of one half-set."""

    n: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        self.n = np.asarray(self.n, dtype=float)
        self.xi = np.asarray(self.xi, dtype=int)
        if self.xi.shape != (self.n.size - 1,):
            raise ValueError("need one sign per adjacent orbital pair")
        if not {*self.xi.tolist()} <= {1, -1}:
            raise ValueError("phases must be +-1")

    @classmethod
    def _measured(cls, n, xi: list[int]) -> GeminalState:
        """An objective's own estimate, r occupations and r - 1 signs +-1, taken unchecked."""
        state = cls.__new__(cls)
        state.n, state.xi = np.asarray(n), np.array(xi)
        return state

    @property
    def g(self) -> np.ndarray:
        """s_p sqrt(max(n_p, 0)), on Python floats: sqrt rounds correctly either way.

        The clip sends -0.0 to 0.0 and keeps a NaN, as ``np.clip`` does.
        """
        signs = itertools.accumulate(self.xi.tolist(), operator.mul, initial=1)
        return np.array([s * math.sqrt(0.0 if v <= 0.0 else v) for s, v in zip(signs, self.n.tolist())])


@dataclass(frozen=True)
class PairIntegrals:
    """The integrals the paired 2-DM energy reads, in one orbital basis.

    ``diag[p]`` is 2 h_pp + (pp|pp), ``exch[p, q]`` is (pq|pq), and
    ``exch_diag`` is ``np.diag(np.diag(exch))``, the diagonal part that
    the cross term removes.
    """

    diag: np.ndarray
    exch: np.ndarray
    exch_diag: np.ndarray
    enuc: float


def pair_integrals(h: np.ndarray, eri: np.ndarray, enuc: float) -> PairIntegrals:
    """Gather the paired-energy integrals of ``h`` and ``eri`` once, for many energies."""
    r = h.shape[0]
    if h.shape != (r, r) or eri.shape != (r, r, r, r):
        raise ValueError("integrals must be (r, r) and (r, r, r, r)")
    p, q = np.arange(r), np.arange(r)[:, None]
    exch = eri[q, p, q, p]  # exch[q, p] = (qp|qp)
    return PairIntegrals(2 * h[p, p] + eri[p, p, p, p], exch, np.diag(np.diag(exch)), enuc)


def assemble_2dm_energy(state: GeminalState, pair: PairIntegrals) -> float:
    """Energy of the paired 2-DM against integrals in the same basis.

    ``pair`` comes from ``pair_integrals`` and is built once per set of
    integrals, so each call does only the per-state work: the
    amplitudes ``g`` and ``n . diag + (g . exch . g - g . exch_diag . g)
    + enuc``, each product one ``ndarray.dot``: it reaches the BLAS call
    that ``@`` reaches on these contiguous float64 vectors and matrices
    at half the dispatch cost, and the energy keeps its bits (at r = 1 a
    zero product may take the other sign of zero, which the cross
    term's difference cancels).
    """
    if state.n.size != pair.diag.size:
        raise ValueError("integral rank does not match the state")
    g = state.g
    cross = g.dot(pair.exch).dot(g) - g.dot(pair.exch_diag).dot(g)
    return float(state.n.dot(pair.diag) + cross + pair.enuc)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

NM_SCALE = 0.35  # initial simplex displacement per angle
NM_XTOL = 3e-3  # radians; a noisy simplex whose vertices all lie this close to its best one has collapsed
BFGS_STEP = 1e-5  # central-difference step of the orbital gradient
BFGS_GTOL = 1e-7
BFGS_MAX_ITER = 100
OUTER_THRESHOLD = 1e-3  # hartree; two successive outer energies this close end the loop
RHF_GAIN_MIN = 1e-12  # hartree; a point that ends no further below its RHF start gained nothing


@dataclass(frozen=True)
class HybridConfig:
    """Settings for one hybrid optimization.

    shots=None runs exact (infinite-shot) tomography, with or without
    a noise model.  phase_mode 'auto' measures the signs for r=2
    and propagates them classically for larger r; 'measured' and
    'classical' force either route.  The Nelder-Mead budget
    (``nm_max_iter``, ``restarts``) and the outer-loop cap
    (``outer_max_iter``) are settable; the simplex scale, the BFGS
    settings and the outer convergence threshold are the module
    constants NM_SCALE, BFGS_STEP, BFGS_GTOL, BFGS_MAX_ITER and
    OUTER_THRESHOLD, and the Nelder-Mead tolerance follows the shots
    (``effective_nm_ftol``).
    """

    shots: int | None = 2048
    noise: NoiseModel | None = None
    seed: int = 0
    symmetries: tuple[str, ...] = ("N", "Sz")
    project: bool = True
    phase_mode: str = "auto"
    nm_max_iter: int = 200
    outer_max_iter: int = 10
    restarts: int = 2

    def __post_init__(self):
        if self.phase_mode not in ("auto", "measured", "classical"):
            raise ValueError(f"unknown phase mode {self.phase_mode!r}")
        if self.restarts < 1:
            raise ValueError("need at least one optimization run")
        if self.nm_max_iter < 0 or self.outer_max_iter < 0:
            raise ValueError("iteration caps must be nonnegative")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be positive or None for exact mode")

    @property
    def effective_nm_ftol(self) -> float:
        """Simplex spread that ends Nelder-Mead: 1e-8 exact, 1e-4 sampled."""
        return 1e-8 if self.shots is None else 1e-4

    def resolve_phase_mode(self, r: int) -> str:
        if self.phase_mode == "auto":
            return "measured" if r == 2 else "classical"
        return self.phase_mode


# ---------------------------------------------------------------------------
# tomographic objective
# ---------------------------------------------------------------------------

class QuantumObjective:
    """Energy estimate of the ansatz at angles t, measured not computed.

    Each call prepares the compiled ansatz at t, estimates occupations (one
    Z-basis preparation) and, in measured phase mode, window signs (two
    rotated-basis preparations), mitigates, and assembles the energy
    against ``pair``, which a caller may replace between outer steps.
    ``phase_programs`` holds the two rotated-basis programs in measured
    phase mode and is None in classical mode.  Every preparation draws
    from the one shot generator of its sampler, so the steps of a point
    that share an objective never replay a draw; likewise ``jitter``, the
    restart jitter of ``quantum_step``, is one generator per objective,
    ``make_rng(seed, JITTER_KEY)`` on sampled runs and
    ``make_rng(JITTER_KEY)`` on exact ones.  Preparation counts are
    tracked per call so the constant-cost tomography contract stays
    testable.  The ansatz needs at least one angle, so r >= 2 orbitals.
    """

    def __init__(self, h: np.ndarray, eri: np.ndarray, enuc: float, config: HybridConfig):
        self.r = h.shape[0]
        if self.r < 2:
            raise ValueError(f"the paired ansatz needs at least 2 orbitals, got {self.r}")
        self.pair = pair_integrals(h, eri, enuc)
        self.config = config
        program = ansatz.compiled_ansatz(self.r, config.noise)
        measured = config.resolve_phase_mode(self.r) == "measured"
        self.phase_programs = (
            tomography.phase_measurement_programs(self.r, config.noise) if measured else None
        )
        self.sampler = tomography.ShotSampler(program, config.shots, config.seed)
        keys = (qsim.JITTER_KEY,) if config.shots is None else (config.seed, qsim.JITTER_KEY)
        self.jitter = qsim.make_rng(*keys)
        self.n_evals = 0
        self.last_eval_preparations = 0

    def _batches(self, t, repeats: int):
        """The angle list of ``t`` and ``repeats`` tomography batches at it, each the raw pair occupations,
        raw phase estimates and their standard errors (lists, or None in classical phase mode) and the
        retained fraction.  Records the preparations per batch."""
        before = self.sampler.counter.count
        self.sampler.angles = t
        batches = []
        for _ in range(repeats):
            n, retained = tomography.measure_occupations(self.sampler, self.r, self.config.symmetries)
            phases = (None, None)
            if self.phase_programs is not None:
                phases = tomography.estimate_phases(self.sampler, self.phase_programs)
            batches.append((n, *phases, retained))
        self.last_eval_preparations = (self.sampler.counter.count - before) // repeats
        return self.sampler.angles, batches

    def _state(self, t: list[float], n: list[float], phases, phase_err) -> GeminalState:
        """The state at angles ``t`` from raw estimates: measured signs within two standard errors
        of zero, and every sign in classical phase mode, are the classical ones; occupations projected."""
        if phases is None:
            xi = tomography.classical_phase_assignment(t)
        else:
            xi, ambiguous = tomography.phase_signs(phases, phase_err)
            if any(ambiguous):
                xi = [c if a else s for s, a, c in zip(xi, ambiguous, tomography.classical_phase_assignment(t))]
        if self.config.project:
            n = mitigation.project_polytope(n).occupations
        return GeminalState._measured(n, xi)

    def measure_state(self, t: np.ndarray, repeats: int = 1) -> tuple[GeminalState, float]:
        """Tomographic state estimate and its retained shot fraction.

        Raw occupations, phase estimates and retained fractions from ``repeats``
        independent batches are averaged before mitigation, shrinking shot noise
        without changing the per-batch preparation count; the phase errors combine
        as sqrt(sum of squares) / repeats, every sum from 0.0 in batch order.
        Exact mode ignores ``repeats``; fewer than one batch raises ValueError before any preparation.
        """
        if repeats < 1:
            raise ValueError(f"repeats must be at least 1, got {repeats}")
        repeats = 1 if self.config.shots is None else repeats
        t, batches = self._batches(t, repeats)
        n, retained = [0.0] * self.r, 0.0
        phases = var = None if self.phase_programs is None else [0.0] * (self.r - 1)  # rebound, never mutated
        for n_k, phases_k, err_k, fraction in batches:
            n, retained = [a + v for a, v in zip(n, n_k)], retained + fraction
            if phases is not None:
                phases = [a + v for a, v in zip(phases, phases_k)]
                var = [a + e * e for a, e in zip(var, err_k)]
        if phases is not None:
            phases, var = [a / repeats for a in phases], [math.sqrt(v) / repeats for v in var]
        return self._state(t, [a / repeats for a in n], phases, var), retained / repeats

    def __call__(self, t: np.ndarray) -> float:
        """The energy of one batch at angles ``t``, on Python floats from readout to energy: what
        ``measure_state(t)`` gives, to the bit, without its averaging, which timed 8% slower."""
        self.n_evals += 1  # counted on entry, so an evaluation a rejection aborts counts too
        t, [(n, phases, phase_err, _)] = self._batches(t, 1)
        return assemble_2dm_energy(self._state(t, n, phases, phase_err), self.pair)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizeOutcome:
    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    converged: bool


def nelder_mead(
    f,
    x0: np.ndarray,
    max_iter: int = 200,
    ftol: float = 1e-8,
    reevaluate_best: bool = True,
) -> OptimizeOutcome:
    """Simplex search tuned for noisy objectives.

    Initial simplex: x0 plus one vertex per coordinate displaced by
    NM_SCALE.  Standard reflection/expansion/contraction/shrink
    coefficients (1, 2, 0.5, 0.5).  With ``reevaluate_best`` the
    current best vertex is re-measured every iteration so a lucky
    downward noise fluctuation cannot pin the simplex to a false
    minimum.  Stops when the simplex function spread drops below
    ``ftol`` or after ``max_iter`` iterations.  With
    ``reevaluate_best`` it also stops, converged, once every vertex lies
    within NM_XTOL of the best in each coordinate (Lagarias et al., SIAM
    J. Optim. 9, 112 (1998)): under shot noise the spread in f rarely
    drops below ``ftol``, while a collapsed simplex has nowhere left to go.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if dim == 0:
        raise ValueError("objective needs at least one parameter")
    verts = np.vstack([x0] + [x0 + NM_SCALE * np.eye(dim)[i] for i in range(dim)])
    fvals = np.array([f(v) for v in verts])
    nfev = dim + 1
    nit = 0
    converged = False
    while nit < max_iter:
        order = np.argsort(fvals)
        verts, fvals = verts[order], fvals[order]
        if reevaluate_best:
            fvals[0] = f(verts[0])
            nfev += 1
            order = np.argsort(fvals)
            verts, fvals = verts[order], fvals[order]
            if np.max(np.abs(verts[1:] - verts[0])) < NM_XTOL:
                converged = True
                break
        if fvals[-1] - fvals[0] < ftol:
            if reevaluate_best:
                # a noisy spread can dip under ftol by luck; only stop if
                # the collapse survives re-measuring the whole simplex
                fvals = np.array([f(v) for v in verts])
                nfev += dim + 1
                order = np.argsort(fvals)
                verts, fvals = verts[order], fvals[order]
                if fvals[-1] - fvals[0] >= ftol:
                    nit += 1
                    continue
            converged = True
            break
        nit += 1
        centroid = verts[:-1].mean(axis=0)
        xr = centroid + (centroid - verts[-1])
        fr = f(xr)
        nfev += 1
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - verts[-1])
            fe = f(xe)
            nfev += 1
            verts[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            inside = fr >= fvals[-1]
            xc = centroid + 0.5 * ((verts[-1] if inside else xr) - centroid)
            fc = f(xc)
            nfev += 1
            if fc < min(fr, fvals[-1]):
                verts[-1], fvals[-1] = xc, fc
            else:
                verts[1:] = verts[0] + 0.5 * (verts[1:] - verts[0])
                fvals[1:] = [f(v) for v in verts[1:]]
                nfev += dim
    order = np.argsort(fvals)
    return OptimizeOutcome(verts[order][0], float(fvals[order][0]), nfev, nit, converged)


# ---------------------------------------------------------------------------
# hybrid steps
# ---------------------------------------------------------------------------

@dataclass
class QuantumStepResult:
    t: np.ndarray
    state: GeminalState
    energy: float
    converged: bool
    retained_fraction: float = 1.0


def quantum_step(objective: QuantumObjective, t0: np.ndarray | None = None) -> QuantumStepResult:
    """Minimize the measured energy over rotation angles at fixed orbitals.

    Runs ``config.restarts`` independent Nelder-Mead searches (the first
    from t0, later ones from jittered copies) and keeps the best.  The
    jitter draws from the objective's ``jitter`` generator.  The caller
    owns ``objective``, so its shot and jitter generators carry on into
    the next step, and its evaluation count survives a step that a
    symmetry-filter rejection aborts.
    """
    config, r = objective.config, objective.r
    if t0 is None:
        t0 = np.zeros(r - 1)
    best = None
    converged = False
    for run in range(config.restarts):
        start = t0 if run == 0 else t0 + objective.jitter.uniform(-0.5, 0.5, size=r - 1)
        out = nelder_mead(
            objective,
            start,
            max_iter=config.nm_max_iter,
            ftol=config.effective_nm_ftol,
            reevaluate_best=config.shots is not None,
        )
        if best is None or out.fun < best.fun:
            best = out
            converged = out.converged
    # refresh the state at the winning angles with extra averaging so the
    # returned (n, xi) is less noisy than a single optimizer evaluation
    state, retained = objective.measure_state(best.x, repeats=4)
    energy = assemble_2dm_energy(state, objective.pair)
    return QuantumStepResult(best.x, state, float(energy), converged, retained)


@dataclass
class OrbitalStepResult:
    mo_coeff: np.ndarray
    energy: float
    converged: bool


def bfgs(f, grad, x0: np.ndarray) -> OptimizeOutcome:
    """Quasi-Newton minimisation of ``f`` from ``x0`` with gradient ``grad``.

    The inverse-Hessian estimate starts at the identity and takes the
    standard BFGS update after each step (Nocedal & Wright, eq. 6.17),
    skipped when a step shows no positive curvature.  Each step
    backtracks from the full quasi-Newton step until the Armijo
    condition holds.  Converged when the inf-norm of the gradient is at
    most BFGS_GTOL; it stops unconverged after BFGS_MAX_ITER steps, or
    when no step length down to 2**-40 lowers ``f``, which is where
    rounding hides the descent.  ``f`` never ends above its value at
    ``x0``.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx, g = f(x), grad(x)
    nfev, ident = 1, np.eye(x.size)
    hess_inv = ident
    nit = 0
    while np.max(np.abs(g), initial=0.0) > BFGS_GTOL and nit < BFGS_MAX_ITER:
        nit += 1
        p = -hess_inv @ g
        slope = g @ p
        if slope >= 0.0:  # rounding spoilt the estimate: restart from steepest descent
            hess_inv, p, slope = ident, -g, -(g @ g)
        for halvings in range(41):
            step = 0.5**halvings
            f_new = f(x + step * p)
            nfev += 1
            if f_new <= fx + 1e-4 * step * slope:
                break
        else:
            break
        s = step * p
        g_new = grad(x + s)
        y = g_new - g
        sy = s @ y
        if sy > 0.0:
            rho = 1.0 / sy
            left = ident - rho * np.outer(s, y)
            hess_inv = left @ hess_inv @ left.T + rho * np.outer(s, s)
        x, fx, g = x + s, f_new, g_new
    converged = bool(np.max(np.abs(g), initial=0.0) <= BFGS_GTOL)
    return OptimizeOutcome(x, float(fx), nfev, nit, converged)


def orbital_step(
    integrals: IntegralSet,
    C: np.ndarray,
    state: GeminalState,
) -> OrbitalStepResult:
    """Relax orbitals under the fixed measured 2-DM.

    ``bfgs`` over the r(r-1)/2 Givens angles with central finite-difference
    gradients.  It takes only steps that lower the energy, so the
    returned energy never exceeds the starting energy.
    """
    r = state.n.size
    pairs = list(itertools.combinations(range(r), 2))

    def rotated(angles: np.ndarray) -> np.ndarray:
        rots = [(p, q, a) for (p, q), a in zip(pairs, angles)]
        return chem.apply_givens_rotations(C, rots)

    def energy_at(angles: np.ndarray) -> float:
        h, eri = chem.transform_integrals(integrals, rotated(angles))
        return assemble_2dm_energy(state, pair_integrals(h, eri, integrals.enuc))

    def gradient(angles: np.ndarray) -> np.ndarray:
        grad = np.empty(angles.size)
        for i in range(angles.size):
            up, down = angles.copy(), angles.copy()
            up[i] += BFGS_STEP
            down[i] -= BFGS_STEP
            grad[i] = (energy_at(up) - energy_at(down)) / (2 * BFGS_STEP)
        return grad

    res = bfgs(energy_at, gradient, np.zeros(len(pairs)))
    return OrbitalStepResult(rotated(res.x), res.fun, res.converged)


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

@dataclass
class CurvePoint:
    parameter: float
    energy: float
    energy_fci: float
    energy_rhf: float
    outer_iterations: int
    n_evals: int
    converged: bool
    state: GeminalState = field(repr=False)
    retained_fraction: float | None = None  # None when the reported state is the RHF start
    energy_trace: list[float] = field(default_factory=list, repr=False)
    flags: list[str] = field(default_factory=list)


def run_hybrid(
    molecule: Molecule, config: HybridConfig, parameter: float = 0.0
) -> CurvePoint:
    """Optimize one geometry, alternating quantum and orbital steps.

    Starts from the RHF orbitals.  One ``QuantumObjective`` serves every
    outer step, each step handing it the pair integrals of its orbitals,
    so the steps draw in turn from the point's one shot generator and
    ``n_evals`` counts them all.  Converged when two successive outer
    energies agree within OUTER_THRESHOLD.  A zero outer-iteration cap
    short-circuits to the single-pair energy in the RHF basis (the RHF
    determinant itself).  When the symmetry filters reject every shot of
    a preparation in outer step k, the loop stops there, the point keeps
    the best energy of the completed steps and carries the flag
    ``all-shots-rejected-outer-<k>``; the evaluations of the aborted
    step count too.  When outer steps ran and none ended more than
    RHF_GAIN_MIN below the RHF start, a tie included, the point reports
    the RHF start, which was never measured, so its
    ``retained_fraction`` is None, and carries the flag
    ``no-gain-over-rhf``.  A point that is not ``converged`` always
    carries a flag.
    """
    ints, rhf, fci = chem.scf_reference(molecule)
    r = ints.n_basis
    flags: list[str] = []
    if not rhf.converged:
        flags.append("scf-not-converged")

    C = rhf.mo_coeff.copy()
    n0 = np.zeros(r)
    n0[0] = 1.0
    start = GeminalState(n0, np.ones(r - 1, dtype=int))
    h, eri = chem.transform_integrals(ints, C)
    objective = QuantumObjective(h, eri, ints.enuc, config)
    energy = assemble_2dm_energy(start, objective.pair)
    trace = [energy]
    t = np.zeros(r - 1)
    converged = rejected = False
    best_energy, best_state, best_retained = energy, start, None

    for outer in range(1, config.outer_max_iter + 1):
        if outer > 1:  # the orbital step moved C
            objective.pair = pair_integrals(*chem.transform_integrals(ints, C), ints.enuc)
        try:
            qres = quantum_step(objective, t0=t)
        except mitigation.AllShotsRejectedError:
            flags.append(f"all-shots-rejected-outer-{outer}")
            rejected = True
            break
        t, state = qres.t, qres.state
        if not qres.converged:
            flags.append(f"nm-iteration-cap-outer-{outer}")
        ores = orbital_step(ints, C, state)
        C = ores.mo_coeff
        energy = min(qres.energy, ores.energy)
        trace.append(energy)
        if energy <= best_energy:
            best_energy, best_state, best_retained = energy, state, qres.retained_fraction
        if abs(trace[-1] - trace[-2]) < OUTER_THRESHOLD:
            converged = True
            break
    if not (converged or rejected) and config.outer_max_iter > 0:
        flags.append("outer-iteration-cap")
    if config.outer_max_iter > 0 and not best_energy < trace[0] - RHF_GAIN_MIN:
        flags.append("no-gain-over-rhf")
        best_energy, best_state, best_retained = trace[0], start, None

    return CurvePoint(
        parameter=parameter,
        energy=float(best_energy),
        energy_fci=float(fci.energy),
        energy_rhf=float(rhf.energy),
        outer_iterations=len(trace) - 1,
        n_evals=objective.n_evals,
        converged=converged or config.outer_max_iter == 0,
        state=best_state,
        retained_fraction=best_retained,
        energy_trace=trace,
        flags=flags,
    )


def dissociation_curve(builder, values, config: HybridConfig, mapper=map) -> list[CurvePoint]:
    """Independent hybrid runs over a geometry scan.

    ``builder`` maps a scan value to a Molecule; molecules are built in
    the calling process.  Each point gets a decorrelated child seed
    derived from the configured base seed, so the whole curve is
    reproducible yet points stay independent.  ``mapper`` runs the
    points: the builtin ``map`` runs them in order here, and a process
    pool's ``map`` runs them in parallel with the same results.
    """
    values = list(values)
    if not values:
        raise ValueError("scan needs at least one value")
    molecules = [builder(value) for value in values]
    configs = [replace(config, seed=qsim.point_seed(config.seed, i)) for i in range(len(values))]
    return list(mapper(run_hybrid, molecules, configs, [float(v) for v in values]))
