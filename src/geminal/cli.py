"""Command-line drivers for curves, occupation scans, and self-checks.

Every command writes plain delimited tables (gnuplot-friendly) plus, for
curves, a JSON sidecar with the full per-point record.  Output is fully
determined by (command line, seed): headers echo both, and floats are
printed with fixed formats so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

import geminal
from geminal import ansatz, chem, hybrid, mitigation, qsim, tomography

SYSTEM_BUILDERS = {
    "h2": chem.h2_molecule,
    "h3plus": chem.h3plus_molecule,
}
DEFAULT_SCANS = {"h2": "0.5:5.0:12", "h3plus": "1.0:3.0:8"}


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def parse_scan_range(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        start, stop = float(start), float(stop)
        if math.isinf(start) or math.isinf(stop):  # linspace would warn and make NaN points
            raise ValueError("infinite start or stop")
        values = np.linspace(start, stop, int(count))
    except ValueError as exc:
        raise SystemExit(f"bad scan range {text!r}; expected start:stop:npoints") from exc
    if values.size < 1:
        raise SystemExit("scan range needs at least one point")
    return values


def parse_mitigate(text: str) -> tuple[tuple[str, ...], bool]:
    tokens = [tok.strip().lower() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise SystemExit(f"empty mitigation list {text!r}; use none for no mitigation")
    if tokens == ["none"]:
        return (), False
    symmetries = []
    project = False
    for tok in tokens:
        if tok == "n":
            symmetries.append("N")
        elif tok == "sz":
            symmetries.append("Sz")
        elif tok == "polytope":
            project = True
        else:
            raise SystemExit(f"unknown mitigation flag {tok!r}")
    return tuple(symmetries), project


def load_noise(name: str, n_qubits: int, damping: bool) -> qsim.NoiseModel | None:
    if name == "off":
        return None
    try:
        calibration = qsim.load_calibration(name)
        return qsim.NoiseModel.from_calibration(calibration, n_qubits, damping=damping)
    except qsim.CalibrationError as exc:
        raise SystemExit(f"cannot use calibration {name!r}: {exc}") from exc


def resolve_molecule_builder(args):
    """Returns (builder(value) -> Molecule, system label)."""
    if args.geometry is not None:
        path = Path(args.geometry)
        if not path.exists():
            raise SystemExit(f"geometry file not found: {path}")
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise chem.GeometryError(f"not a readable text file ({exc})") from None
        molecule = chem.parse_geometry(text)
        if molecule.n_electrons != 2:
            raise chem.GeometryError(
                f"{molecule.n_electrons} electrons; geminal treats two-electron systems"
            )
        return (lambda _=0.0: molecule), molecule.label or path.stem
    return SYSTEM_BUILDERS[args.system], args.system


def build_molecule(builder, value) -> chem.Molecule:
    """``builder(value)``, refused by ``chem.overlap_eigh`` as ``chem.run_rhf`` would refuse it.

    Commands build their molecules here, before ``output_dir``, so a
    nearly coincident geometry makes no file and no directory.
    """
    molecule = builder(value)
    chem.overlap_eigh(chem.overlap_matrix(molecule))
    return molecule


def output_dir(args) -> Path:
    """The output directory, made if missing; exits naming it if it cannot be one.

    Every command calls this after checking its arguments and before its
    work, so an unusable ``--out`` costs no work and writes nothing.
    """
    out = Path(args.out or os.environ.get("GEMINAL_OUT", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"cannot use output directory {out}: {exc.strerror or exc}") from exc
    return out


def header_lines(args, extra: dict | None = None) -> list[str]:
    """The version line and a config line echoing every argument.

    An exact run draws nothing, so its config line leaves out ``shots``
    and ``seed``.
    """
    unused = ("shots", "seed") if vars(args).get("exact") else ()
    settings = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", *unused) and value is not None
    }
    if extra:
        settings.update(extra)
    echo = " ".join(f"{key}={value}" for key, value in settings.items())
    return [f"# geminal {geminal.__version__}", f"# config: {echo}"]


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type for seeds, which key the generators and must not be negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def finite_float(text: str) -> float:
    """argparse type for factors that must be finite numbers."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def requested_shots(args) -> int | None:
    """Shots per preparation, or None for --exact (the exact outcome distribution)."""
    return None if args.exact else args.shots


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def cmd_curve(args) -> int:
    symmetries, project = parse_mitigate(args.mitigate)
    builder, label = SYSTEM_BUILDERS[args.system], args.system
    values = parse_scan_range(args.scan or DEFAULT_SCANS[args.system])
    molecules = [build_molecule(builder, value) for value in values]  # a bad geometry exits here

    r = len(chem.build_basis(molecules[0]))
    config = hybrid.HybridConfig(
        shots=requested_shots(args),
        noise=load_noise(args.noise, 2 * r, args.damping),
        seed=args.seed,
        symmetries=symmetries,
        project=project,
        phase_mode=args.phase,
    )
    out = output_dir(args)

    if args.jobs > 1:
        # imported here, so that commands without a pool skip loading multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                points = hybrid.dissociation_curve(builder, values, config, mapper=pool.map)
        except BrokenProcessPool as exc:
            raise SystemExit(
                f"curve --jobs {args.jobs}: a worker process died ({exc}); no table written"
            ) from exc
    else:
        points = hybrid.dissociation_curve(builder, values, config)

    lines = header_lines(args, {"system": label})
    lines.append("# R_bohr  E_hybrid  E_FCI  E_RHF  abs_error_mhartree  iterations  flags")
    for p in points:
        err_mha = abs(p.energy - p.energy_fci) * 1e3
        flags = ",".join(p.flags) if p.flags else "-"
        lines.append(
            f"{p.parameter:10.5f}  {p.energy:16.10f}  {p.energy_fci:16.10f}  "
            f"{p.energy_rhf:16.10f}  {err_mha:12.6f}  {p.outer_iterations:4d}  {flags}"
        )
    write_lines(out / "curve.txt", lines)
    print("\n".join(lines))

    sidecar = [
        {
            "parameter": p.parameter,
            "energy": p.energy,
            "energy_fci": p.energy_fci,
            "energy_rhf": p.energy_rhf,
            "error_mhartree": abs(p.energy - p.energy_fci) * 1e3,
            "outer_iterations": p.outer_iterations,
            "objective_evaluations": p.n_evals,
            "converged": p.converged,
            "occupations": p.state.n.tolist(),
            "phases": p.state.xi.tolist(),
            "retained_fraction": p.retained_fraction,
            "energy_trace": p.energy_trace,
            "flags": p.flags,
        }
        for p in points
    ]
    (out / "curve_points.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")

    # the one exit rule: a point that is not converged carries a flag too
    flagged = [f"{p.parameter:.5f}: {','.join(p.flags)}" for p in points if p.flags]
    if flagged:
        print("flagged points: " + "; ".join(flagged), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# scan (the grid helpers serve vtable too)
# ---------------------------------------------------------------------------

def scan_system(args, orbital_counts: tuple[int, ...], message: str):
    """(system label, orbital count r, noise model); exits with ``message`` for another r."""
    builder, label = resolve_molecule_builder(args)
    r = chem.compute_integrals(build_molecule(builder, args.at)).n_basis
    if r not in orbital_counts:
        raise SystemExit(message)
    return label, r, load_noise(args.noise, 2 * r, args.damping)


def measure_scan_point(program, t, shots, rng):
    """One preparation of the compiled ansatz at angles t, measured in the Z basis."""
    return tomography.measure(program.run(t), shots, rng)


def measure_scan_grid(r, shots, seed, noise):
    """Standard grid points and one ``measure_scan_point`` record each, drawn in grid order."""
    points = [np.array(t) for t in itertools.product(mitigation.scan_angles(), repeat=r - 1)]
    program = ansatz.compiled_ansatz(r, noise)
    rng = None if shots is None else qsim.make_rng(seed, qsim.SHOT_KEY)
    records = [measure_scan_point(program, t, shots, rng) for t in points]
    return points, records


def filter_scan(points, records, symmetries):
    """Symmetry-filtered records and retained fractions; exits at a point that keeps no shot."""
    filtered, retained = [], []
    for i, (t, record) in enumerate(zip(points, records)):
        try:
            kept, fraction = mitigation.symmetry_verify(record, symmetries)
        except mitigation.AllShotsRejectedError as exc:
            angles = ", ".join(f"{v:.4f}" for v in t)
            raise SystemExit(
                f"scan point {i} (t = {angles}), filter {'+'.join(symmetries)}: {exc}"
            ) from exc
        filtered.append(kept)
        retained.append(fraction)
    return filtered, retained


def half_sets(records, r):
    """The (alpha, beta) occupations of each record: its even and its odd qubits'."""
    return [(occ[0 : 2 * r : 2], occ[1 : 2 * r : 2]) for occ in (rec.occupations() for rec in records)]


def effective_shots(shots: int | None, retained_fraction: float) -> int | None:
    """Shots behind a filtered estimate, for the bootstrap; None for an exact run."""
    return None if shots is None else max(int(shots * retained_fraction), 1)


def v_intervals(rows, shots, seed):
    """(V, ci95 low, ci95 high) of each half set, from (alpha, beta) rows on the r = 2 grid."""
    grid, intervals = mitigation.scan_angles(), []
    for half in (0, 1):
        n1, n2 = (np.array([row[half][p] for row in rows]) for p in (0, 1))
        intervals.append(mitigation.bootstrap_v_interval(grid, n1, n2, shots, seed=seed))
    return intervals


def cmd_scan(args) -> int:
    shots = requested_shots(args)
    # parsed before the integral probe, so a bad flag costs no work
    symmetries, project = parse_mitigate(args.mitigate)
    message = "occupation scans support systems with 2 or 3 orbitals"
    label, r, noise = scan_system(args, (2, 3), message)
    out = output_dir(args)
    points, records = measure_scan_grid(r, shots, args.seed, noise)
    filtered, retained = filter_scan(points, records, symmetries)

    raw, verified = half_sets(records, r), half_sets(filtered, r)
    if args.contract is not None:
        raw, verified = (
            [tuple(0.5 + args.contract * (h - 0.5) for h in row) for row in rows]
            for rows in (raw, verified)
        )
    projected = [
        tuple(mitigation.project_polytope(h).occupations if project else h for h in row)
        for row in verified
    ]
    stages = {"raw": raw, "verified": verified, "projected": projected}

    angle_names = "  ".join(f"t{k:<10}" for k in range(r - 1))
    occ_names = "  ".join(
        f"{half}_n{p}" for half in ("alpha", "beta") for p in range(r)
    )
    for stage, rows in stages.items():
        lines = header_lines(args, {"system": label, "stage": stage})
        lines.append(f"# {angle_names}  {occ_names}")
        for t, (alpha, beta) in zip(points, rows):
            tcols = "  ".join(f"{v:11.8f}" for v in t)
            ocols = "  ".join(f"{v:10.6f}" for v in np.concatenate([alpha, beta]))
            lines.append(f"{tcols}  {ocols}")
        write_lines(out / f"scan_{stage}.txt", lines)

    summary = header_lines(args, {"system": label})
    summary.append(f"# mean retained fraction: {np.mean(retained):.6f}")

    final_stage = "projected" if project else "verified"
    if r == 2:
        # raw occupations come from every shot, filtered ones from the shots kept
        raw_v = v_intervals(raw, shots, args.seed)
        kept = effective_shots(shots, np.mean(retained))
        final_v = v_intervals(stages[final_stage], kept, args.seed)
        for idx, half in enumerate(("half_set_1", "half_set_2")):
            for stage, (v, lo, hi) in (("raw", raw_v[idx]), (final_stage, final_v[idx])):
                summary.append(f"{half} {stage}: V = {v:.4f}  ci95 = [{lo:.4f}, {hi:.4f}]")
    else:
        ideal_pts = np.array(
            [np.sort(ansatz.givens_chain_amplitudes(t, r) ** 2)[::-1][:2] for t in points]
        )
        for half, idx in (("half_set_1", 0), ("half_set_2", 1)):
            measured = np.array(
                [np.sort(rows[idx])[::-1][:2] for rows in stages[final_stage]]
            )
            ratio = mitigation.hull_area_ratio(measured, ideal_pts)
            summary.append(f"{half} hull_area_ratio = {ratio:.4f}")
    write_lines(out / "scan_summary.txt", summary)
    print("\n".join(summary))
    return 0


# ---------------------------------------------------------------------------
# vtable
# ---------------------------------------------------------------------------

VTABLE_SETTINGS = [
    ("none", ()),
    ("N", ("N",)),
    ("Sz", ("Sz",)),
    ("N+Sz", ("N", "Sz")),
]


def vtable_rows(r, shots, seed, noise):
    """V per symmetry setting and half-set on the standard r=2 scan."""
    points, records = measure_scan_grid(r, shots, seed, noise)
    rows = []
    for name, symmetries in VTABLE_SETTINGS:
        filtered, retained = filter_scan(points, records, symmetries)
        mean_frac = float(np.mean(retained))
        v1, v2 = v_intervals(half_sets(filtered, r), effective_shots(shots, mean_frac), seed)
        rows.append({"setting": name, "retained": mean_frac, "v1": v1, "v2": v2})
    return rows


def cmd_vtable(args) -> int:
    shots = requested_shots(args)
    label, r, noise = scan_system(args, (2,), "the V table is defined for two-orbital systems")
    out = output_dir(args)
    rows = vtable_rows(r, shots, args.seed, noise)
    lines = header_lines(args, {"system": label})
    lines.append("# symmetries  V_half1  ci95_lo  ci95_hi  V_half2  ci95_lo  ci95_hi  retained")
    for row in rows:
        v1, v2 = row["v1"], row["v2"]
        lines.append(
            f"{row['setting']:<10}  {v1[0]:8.4f}  {v1[1]:8.4f}  {v1[2]:8.4f}  "
            f"{v2[0]:8.4f}  {v2[1]:8.4f}  {v2[2]:8.4f}  {row['retained']:8.4f}"
        )
    write_lines(out / "vtable.txt", lines)
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _check_calibrations(noise_arg):
    for name in ("ibm-5", "ibm-14"):
        qsim.load_calibration(name)
    if noise_arg not in (None, "off", "ibm-5", "ibm-14"):
        qsim.load_calibration(noise_arg)


def _check_polytope(quick):
    rng = np.random.default_rng(0)
    for _ in range(200 if quick else 1000):
        p = rng.normal(0.3, 0.6, size=3)
        first = mitigation.project_polytope(p)
        second = mitigation.project_polytope(first.occupations)
        assert np.max(np.abs(second.occupations - first.occupations)) < 1e-12
        s = np.sort(first.occupations)[::-1]
        assert s[-1] >= -1e-10 and abs(s.sum() - 1) < 1e-10


def _check_fci_consistency(quick):
    ints, rhf, fci = chem.scf_reference(chem.h2_molecule(1.4))
    g, basis = chem.pair_spectrum(fci.coeff)
    h, eri = chem.transform_integrals(ints, rhf.mo_coeff @ basis)
    state = hybrid.GeminalState(g**2, np.sign(g[:-1] * g[1:]).astype(int))
    pair = hybrid.pair_integrals(h, eri, ints.enuc)
    assert abs(hybrid.assemble_2dm_energy(state, pair) - fci.energy) < 1e-10
    if not quick:
        point = hybrid.run_hybrid(chem.h2_molecule(1.4), hybrid.HybridConfig(shots=None))
        assert abs(point.energy - point.energy_fci) < 1e-6


def _check_density_noise(quick):
    # X then a depolarising error with p: P(1) = 1 - 2p/3, exactly
    p = 0.3
    circuit = qsim.Circuit(1).x(0)
    state = qsim.run_density(circuit, qsim.NoiseModel.uniform(1, p1=p))
    got = state.probabilities()[1]
    want = 1.0 - 2.0 * p / 3.0
    assert abs(got - want) < 1e-12, f"P(1) = {got!r}, want {want!r}"


def _check_compiled_preparation(quick):
    # the outcome tables of the compiled Z, A and B programs (the ansatz
    # alone or followed by a basis rotation) against the gate-by-gate
    # engines' distributions at random angles
    rng = np.random.default_rng(2)
    calibration = qsim.load_calibration("ibm-14")
    cases = [(2, False), (3, True)]  # (r, noisy)
    if not quick:
        cases += [(3, False), (2, True)]
    for r, noisy in cases:
        noise = qsim.NoiseModel.from_calibration(calibration, 2 * r, damping=True) if noisy else None
        t = rng.uniform(-np.pi, np.pi, size=r - 1)
        programs = (
            ansatz.compiled_ansatz(r, noise), *tomography.phase_measurement_programs(r, noise)
        )
        rotations = (qsim.Circuit(2 * r), *tomography.phase_measurement_circuits(r))
        for basis, program, rotation in zip("ZAB", programs, rotations):
            case = f"r={r} noisy={noisy} basis {basis}"
            circuit = ansatz.build_ansatz_circuit(r, t).extend(rotation)
            state = qsim.run_circuit(circuit) if noise is None else qsim.run_density(circuit, noise)
            distance = np.max(np.abs(program.run(t) - state.probabilities()))
            assert distance < 1e-12, f"{case}: distance {distance}"


def cmd_selftest(args) -> int:
    checks = [
        ("calibration-files", lambda: _check_calibrations(args.noise)),
        ("compiled-preparation", lambda: _check_compiled_preparation(args.quick)),
        ("polytope-projection", lambda: _check_polytope(args.quick)),
        ("fci-consistency", lambda: _check_fci_consistency(args.quick)),
        ("density-noise", lambda: _check_density_noise(args.quick)),
    ]
    failures = 0
    for name, check in checks:
        try:
            check()
        except Exception as exc:  # report every failing check, keep going
            failures += 1
            print(f"FAIL  {name}: {exc}", file=sys.stderr)
        else:
            print(f"ok    {name}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

def cmd_integrals(args) -> int:
    builder, label = resolve_molecule_builder(args)
    molecule = build_molecule(builder, args.at)
    out = output_dir(args)
    ints, rhf, fci = chem.scf_reference(molecule)
    n = ints.n_basis

    lines = header_lines(args, {"system": label})
    lines.append(f"# n_basis={n} n_electrons={ints.n_electrons}")
    lines.append(f"enuc = {ints.enuc:.12f}")
    for name, matrix in (("overlap", ints.overlap), ("hcore", ints.hcore)):
        lines.append(f"# {name}")
        for row in matrix:
            lines.append("  ".join(f"{v:16.12f}" for v in row))
    lines.append("# eri (pq|rs), unique elements with |value| > 1e-12")
    # lexicographic order meets each 8-fold symmetry class (pq|uv) = (qp|uv) =
    # (uv|pq) = ... first at its least index: p <= q, u <= v and (p, q) <= (u, v)
    for p, q, u, v in itertools.product(range(n), repeat=4):
        if p <= q and u <= v and (p, q) <= (u, v) and abs(ints.eri[p, q, u, v]) > 1e-12:
            lines.append(f"{p} {q} {u} {v}  {ints.eri[p, q, u, v]:16.12f}")
    lines.append(f"E_RHF = {rhf.energy:.12f}")
    lines.append(f"E_FCI = {fci.energy:.12f}")
    if not rhf.converged:  # curve's exit rule: write the table, flag it, exit 1
        lines.append("# flags: scf-not-converged")
    write_lines(out / "integrals.txt", lines)
    print("\n".join(lines))
    if not rhf.converged:
        print(f"flagged: scf-not-converged after {rhf.iterations} SCF iterations", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def add_molecule_arguments(sub, single_geometry=True):
    """--system and --out; a single-geometry command also takes --geometry and --at."""
    sub.add_argument("--system", choices=sorted(SYSTEM_BUILDERS), default="h2")
    if single_geometry:
        sub.add_argument("--geometry", help="geometry file (overrides --system)")
        sub.add_argument("--at", type=float, default=1.4, help="geometry parameter in bohr")
    sub.add_argument("--out", help="output directory (default $GEMINAL_OUT or .)")


def add_sampling_arguments(sub):
    sub.add_argument("--shots", type=positive_int, default=2048)
    sub.add_argument("--exact", action="store_true", help="exact expectations, no sampling")
    sub.add_argument("--seed", type=nonnegative_int, default=0)
    sub.add_argument("--noise", default="off", help="off, ibm-5, ibm-14, or a calibration file")
    sub.add_argument("--damping", action="store_true", help="include T1/T2 damping channels")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geminal",
        description="Paired-ansatz quantum-classical benchmark workbench",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    curve = subs.add_parser("curve", help="dissociation curve against FCI")
    add_molecule_arguments(curve, single_geometry=False)
    add_sampling_arguments(curve)
    curve.add_argument("--phase", choices=["auto", "measured", "classical"], default="auto")
    curve.add_argument("--scan", help="geometry range start:stop:npoints")
    curve.add_argument("--jobs", type=positive_int, default=1)
    curve.set_defaults(func=cmd_curve)

    scan = subs.add_parser("scan", help="occupation scan over entangler angles")
    add_molecule_arguments(scan)
    add_sampling_arguments(scan)
    scan.add_argument(
        "--contract",
        type=finite_float,
        help="synthetic contraction factor applied to measured occupations",
    )
    scan.set_defaults(func=cmd_scan)

    for sub in (curve, scan):
        sub.add_argument(
            "--mitigate", default="n,sz,polytope", help="comma list of n, sz, polytope; or none"
        )

    vtable = subs.add_parser("vtable", help="V metric by symmetry setting")
    add_molecule_arguments(vtable)
    add_sampling_arguments(vtable)
    vtable.set_defaults(func=cmd_vtable)

    selftest = subs.add_parser("selftest", help="oracle and invariant checks")
    selftest.add_argument("--quick", action="store_true")
    selftest.add_argument("--noise", help="also validate this calibration file")
    selftest.set_defaults(func=cmd_selftest)

    integrals = subs.add_parser("integrals", help="dump integral tables")
    add_molecule_arguments(integrals)
    integrals.set_defaults(func=cmd_integrals)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except chem.GeometryError as exc:  # raised where a command builds its molecules
        source = f" file {args.geometry}" if vars(args).get("geometry") else ""
        raise SystemExit(f"bad geometry{source}: {exc}") from exc


if __name__ == "__main__":
    raise SystemExit(main())
