"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions and methods of the geminal modules by
replacing module or class attributes, so the program under test is not
edited.  Every wrapped call records a span (name, start, end, parent,
pass id) in memory; ``restore`` puts the original attributes back.
Timed passes carry none of these wrappers, only an ``ItemClock``.

Self time of a span is its duration minus the durations of its direct
child spans.  Calls run on one thread, so spans nest strictly and the
children of a span never overlap.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter

from geminal import ansatz, chem, cli, hybrid, mitigation, qsim, tomography

_STATE_BYTES = 16  # complex128 amplitude


class Tracer:
    """Span recorder plus the work counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, pass_id)
        self.pass_id = ""
        self.counts: Counter = Counter()
        self._stack: list[tuple] = []  # (span id, name, start)
        self._next_id = 0
        self._preps_at_eval: list[int] = []
        self._saved: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((span_id, name, start, end, parent, self.pass_id))

    def _wrap(self, owner, attr: str, name: str, after=None, before=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count(self, owner, attr: str, hook) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            hook(args, kwargs)
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- counters ---------------------------------------------------------

    def _statevector_work(self, circuit, n_traj: int) -> None:
        gates = len(circuit.gates)
        self.counts["gate_applications"] += gates * n_traj
        self.counts["bytes_moved_computed"] += (
            gates * n_traj * (1 << circuit.n_qubits) * _STATE_BYTES * 2
        )

    @staticmethod
    def _arg(args, kwargs, index: int, name: str):
        return args[index] if len(args) > index else kwargs[name]

    def install(self) -> None:
        """Patch every layer boundary the benchmark reports on."""
        c = self.counts

        def on_run_circuit(result, args, kwargs):
            self._statevector_work(self._arg(args, kwargs, 0, "circuit"), 1)

        def on_sample(result, args, kwargs):
            c["shots"] += int(self._arg(args, kwargs, 1, "shots"))

        def on_run_trajectories(result, args, kwargs):
            n_traj = int(self._arg(args, kwargs, 2, "n_traj"))
            c["trajectories"] += n_traj
            self._statevector_work(self._arg(args, kwargs, 0, "circuit"), n_traj)

        def on_ensemble_sample(result, args, kwargs):
            c["shots"] += result.shots

        def on_symmetry_verify(result, args, kwargs):
            offered = self._arg(args, kwargs, 0, "hist")
            c["shots_offered"] += offered.shots
            c["shots_kept"] += result[0].shots

        def on_project(result, args, kwargs):
            c["projections_changed"] += int(result.changed)

        def on_nelder_mead(result, args, kwargs):
            c["nm_nfev"] += result.nfev
            c["nm_nit"] += result.nit
            c["nm_converged"] += int(result.converged)

        def on_run_hybrid(result, args, kwargs):
            c["outer_iterations"] += result.outer_iterations
            quantum = result.energy_trace[1:]
            if not quantum or min(quantum) > result.energy_trace[0]:
                c["rhf_wins"] += 1

        def before_objective(args, kwargs):
            self._preps_at_eval.append(c["preparations"])

        def after_objective(result, args, kwargs):
            used = c["preparations"] - self._preps_at_eval.pop()
            c["max_preps_per_eval"] = max(c["max_preps_per_eval"], used)

        def on_bump(args, kwargs):
            c["preparations"] += 1

        def on_write(args, kwargs):
            lines = self._arg(args, kwargs, 1, "lines")
            c["out_bytes"] += len(("\n".join(lines) + "\n").encode())

        wrap = self._wrap
        wrap(chem, "scf_reference", "chem.scf_reference")
        wrap(chem, "transform_integrals", "chem.transform_integrals")
        wrap(ansatz, "build_ansatz_circuit", "ansatz.build_ansatz_circuit")
        wrap(qsim, "run_circuit", "qsim.run_circuit", after=on_run_circuit)
        wrap(qsim, "sample", "qsim.sample", after=on_sample)
        wrap(qsim, "run_trajectories", "qsim.run_trajectories", after=on_run_trajectories)
        wrap(qsim.TrajectoryEnsemble, "sample", "qsim.TrajectoryEnsemble.sample",
             after=on_ensemble_sample)
        wrap(tomography, "measure_occupations", "tomography.measure_occupations")
        wrap(tomography, "estimate_phases", "tomography.estimate_phases")
        wrap(mitigation, "symmetry_verify", "mitigation.symmetry_verify",
             after=on_symmetry_verify)
        wrap(mitigation, "project_polytope", "mitigation.project_polytope", after=on_project)
        wrap(mitigation, "bootstrap_v_interval", "mitigation.bootstrap_v_interval")
        wrap(mitigation, "hull_area_ratio", "mitigation.hull_area_ratio")
        wrap(hybrid.QuantumObjective, "__call__", "hybrid.objective",
             before=before_objective, after=after_objective)
        wrap(hybrid, "nelder_mead", "hybrid.nelder_mead", after=on_nelder_mead)
        wrap(hybrid, "assemble_2dm_energy", "hybrid.assemble_2dm_energy")
        wrap(hybrid, "quantum_step", "hybrid.quantum_step")
        wrap(hybrid, "orbital_step", "hybrid.orbital_step")
        wrap(hybrid, "run_hybrid", "hybrid.run_hybrid", after=on_run_hybrid)
        wrap(cli, "cmd_scan", "cli.cmd_scan")
        wrap(cli, "cmd_vtable", "cli.cmd_vtable")
        # counting only: a span here would move time out of the parent layer
        self._count(tomography.PreparationCounter, "bump", on_bump)
        self._count(cli, "measure_scan_point", on_bump)
        self._count(cli, "write_lines", on_write)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        index = {span[0]: i for i, span in enumerate(self.spans)}
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[index[parent]] += end - start
        out: dict[str, list] = {}
        for i, (_, name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child[i]
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def write(self, path) -> None:
        """Spans as gzip JSON lines: id, name, start, end, parent, pass."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class ItemClock:
    """Wall and CPU durations of the calls at one item boundary, nothing else.

    It is the only hook a timed pass carries: four clock reads per call,
    no span, no counter.  CPU time is the whole process's; on a Linux
    guest with paravirtual steal accounting it excludes time the
    hypervisor stole from the virtual machine.
    """

    def __init__(self, owner, attr: str):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._owner, self._attr = owner, attr
        self._original = getattr(owner, attr)

    def __enter__(self):
        original, wall, cpu = self._original, self.wall, self.cpu
        wall_clock, cpu_clock = time.perf_counter, time.process_time

        def timed(*args, **kwargs):
            w0, c0 = wall_clock(), cpu_clock()
            try:
                return original(*args, **kwargs)
            finally:
                cpu.append(cpu_clock() - c0)
                wall.append(wall_clock() - w0)

        setattr(self._owner, self._attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self._owner, self._attr, self._original)
        return False


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


# spans reported per layer as <name>.calls and <name>.s
TIMED_LAYERS = [
    "qsim.run_circuit",
    "ansatz.build_ansatz_circuit",
    "qsim.sample",
    "mitigation.project_polytope",
    "qsim.run_trajectories",
    "qsim.TrajectoryEnsemble.sample",
    "tomography.measure_occupations",
    "tomography.estimate_phases",
    "mitigation.symmetry_verify",
    "mitigation.bootstrap_v_interval",
    "mitigation.hull_area_ratio",
    "hybrid.objective",
    "hybrid.nelder_mead",
    "hybrid.assemble_2dm_energy",
    "hybrid.orbital_step",
    "chem.transform_integrals",
    "chem.scf_reference",
]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    selfs = tracer.self_times()
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for span in TIMED_LAYERS:
        calls, secs = selfs.get(span, (0, 0.0))
        out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.s"] = (secs, "s")
    nm_calls = selfs.get("hybrid.nelder_mead", (0, 0.0))[0]
    proj_calls = selfs.get("mitigation.project_polytope", (0, 0.0))[0]
    cli_calls = sum(selfs.get(s, (0, 0.0))[0] for s in ("cli.cmd_scan", "cli.cmd_vtable"))
    out.update({
        "mitigation.projection_changed_frac": (_frac(c["projections_changed"], proj_calls), "frac"),
        "mitigation.retained_frac": (_frac(c["shots_kept"], c["shots_offered"]), "frac"),
        "qsim.trajectories": (c["trajectories"], "count"),
        "qsim.shots": (c["shots"], "count"),
        "qsim.gate_applications": (c["gate_applications"], "count"),
        "qsim.bytes_moved_computed": (c["bytes_moved_computed"], "B"),
        "tomography.preparations": (c["preparations"], "count"),
        "tomography.preps_per_eval": (c["max_preps_per_eval"], "count"),
        "hybrid.nelder_mead.nfev": (c["nm_nfev"], "count"),
        "hybrid.nelder_mead.nit": (c["nm_nit"], "count"),
        "hybrid.nelder_mead.converged_frac": (_frac(c["nm_converged"], nm_calls), "frac"),
        "hybrid.outer_iterations": (c["outer_iterations"], "count"),
        "hybrid.rhf_wins": (c["rhf_wins"], "count"),
        "cli.calls": (cli_calls, "count"),
        "cli.self_s": (sum(selfs.get(s, (0, 0.0))[1] for s in ("cli.cmd_scan", "cli.cmd_vtable")), "s"),
        "cli.out_bytes": (c["out_bytes"], "B"),
        "trace.self_total_s": (sum(secs for _, secs in selfs.values()), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return out
