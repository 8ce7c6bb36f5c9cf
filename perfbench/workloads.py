"""The three benchmark workloads: inputs, one pass, output checks.

A pass is one complete user job built from the workload seed.  The
benchmark times each call it makes into the program, checks the call's
outputs, and keeps a canonical record of them for the digest.  An item
clock times every item inside the calls: an objective evaluation
(curve-sampled, point-noisy) or a circuit preparation (scan-noisy).

curve-sampled   criterion-1 curves, noise off: every layer of the
                noiseless objective path, no trajectories.
point-noisy     one H2 point under ibm-5 with a fixed reduced budget:
                dominated by the trajectory engine.
scan-noisy      `geminal scan` and `geminal vtable` under ibm-14: wide
                6-qubit trajectory batches, the damping path, and the
                CLI's table, bootstrap and hull layers; no optimizer.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from geminal import chem, cli, hybrid, mitigation, qsim

from spans import ItemClock

SHOTS = 2048
# dissociation_curve gives point i of a scan the seed `seed + 104729 * i`;
# calling it once per point with that seed reproduces the full-scan call
# while letting the benchmark time every point from outside
POINT_SEED_STRIDE = 104729
CURVES = (("h2", 0.5, 5.0, 12), ("h3plus", 1.0, 3.0, 8))
NOISY_POINT = {"system": "h2", "bond_bohr": 1.4, "noise": "ibm-5"}
# fixed reduced budget: the noisy optimizer hits its iteration cap in
# every outer step, so two outer steps make the work per pass nearly
# independent of the seed (about 200 evaluations per outer step)
NOISY_BUDGET = {"restarts": 1, "nm_max_iter": 60, "outer_max_iter": 2}
SCAN_ARGS = ["scan", "--system", "h3plus", "--at", "1.65", "--noise", "ibm-14"]
VTABLE_ARGS = ["vtable", "--system", "h2", "--noise", "ibm-14", "--damping"]
SCAN_GRID_POINTS = 11  # mitigation.scan_angles() default grid
ENERGY_SLACK = 1e-9
CURVE_TOLERANCE_MHA = 1.0  # criterion-1 tolerance


@dataclass
class Item:
    """One timed call into the program."""

    label: str
    seconds: float
    work: int  # objective evaluations or circuit preparations the call made
    ok: bool
    detail: str = ""
    record: object = None  # canonical outputs, hashed into the digest
    err_mha: float | None = None


@dataclass
class PassResult:
    items: list[Item] = field(default_factory=list)
    seconds: float = 0.0
    item_wall: list[float] = field(default_factory=list)  # from the item clock
    item_cpu: list[float] = field(default_factory=list)
    item_kind: list[str] = field(default_factory=list)  # kind of each clocked item

    @property
    def work(self) -> int:
        return sum(item.work for item in self.items)

    @property
    def digest(self) -> str:
        text = json.dumps([item.record for item in self.items], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def _point_record(point) -> dict:
    return {
        "parameter": repr(point.parameter),
        "energy": repr(point.energy),
        "energy_fci": repr(point.energy_fci),
        "energy_rhf": repr(point.energy_rhf),
        "outer_iterations": point.outer_iterations,
        "n_evals": point.n_evals,
        "converged": point.converged,
        "occupations": [repr(v) for v in point.state.n.tolist()],
        "phases": point.state.xi.tolist(),
        "retained_fraction": repr(point.retained_fraction),
        "energy_trace": [repr(v) for v in point.energy_trace],
        "flags": list(point.flags),
    }


def _point_item(label: str, seconds: float, point) -> Item:
    """A hybrid point passes when FCI bounds it below and the RHF start above."""
    ok = point.energy_fci - ENERGY_SLACK <= point.energy <= point.energy_rhf + ENERGY_SLACK
    detail = "" if ok else (
        f"E={point.energy!r} outside [E_FCI, E_RHF]=[{point.energy_fci!r}, {point.energy_rhf!r}]"
    )
    err = abs(point.energy - point.energy_fci) * 1e3
    return Item(label, seconds, point.n_evals, ok, detail, _point_record(point), err)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class Workload:
    name = ""
    why = ""
    unit = ""  # what one item is
    item_boundary: tuple = ()  # (owner, attribute) every item goes through
    tolerance_mha = None  # accuracy target whose misses are counted, not failed

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def setup(self) -> None:
        """Per-process preparation paid before the first call."""

    def inputs(self) -> dict:
        raise NotImplementedError

    def calls(self):
        """(label, zero-argument callable returning an Item), in pass order.

        A label reads `<kind>@<where>` or `<kind>`; the items clocked inside
        calls of one kind cost about the same when the machine is quiet.
        """
        raise NotImplementedError

    def run_pass(self, item_clock: bool = True) -> PassResult:
        result = PassResult()
        clock = ItemClock(*self.item_boundary) if item_clock else contextlib.nullcontext()
        with clock:
            start = time.perf_counter()
            for label, call in self.calls():
                try:
                    result.items.append(call())
                except Exception as exc:  # a failed call is a failed item
                    result.items.append(
                        Item(label, 0.0, 0, False, f"{type(exc).__name__}: {exc}")
                    )
                if item_clock:
                    kind = label.split("@")[0]
                    result.item_kind += [kind] * (len(clock.wall) - len(result.item_kind))
            result.seconds = time.perf_counter() - start
        if item_clock:
            result.item_wall, result.item_cpu = clock.wall, clock.cpu
        return result


class CurveSampled(Workload):
    name = "curve-sampled"
    why = "criterion-1 curves, noise off: statevector, sampling, projection and circuit build"
    unit = "objective evaluation"
    item_boundary = (hybrid.QuantumObjective, "__call__")
    tolerance_mha = CURVE_TOLERANCE_MHA

    def inputs(self) -> dict:
        return {
            "curves": [{"system": s, "scan_bohr": [a, b, n]} for s, a, b, n in CURVES],
            "shots": SHOTS,
            "noise": "off",
            "mitigation": "default (N, Sz, polytope)",
            "seed": self.seed,
            "point_seed": f"seed + {POINT_SEED_STRIDE} * index within its scan",
        }

    def calls(self):
        builders = {"h2": chem.h2_molecule, "h3plus": chem.h3plus_molecule}
        base = hybrid.HybridConfig(shots=SHOTS, seed=self.seed)
        for system, start, stop, count in CURVES:
            for i, value in enumerate(np.linspace(start, stop, count)):
                config = replace(base, seed=self.seed + POINT_SEED_STRIDE * i)
                label = f"{system}@{value:.4f}"
                yield label, functools.partial(
                    self._point, label, builders[system], float(value), config
                )

    @staticmethod
    def _point(label, builder, value, config) -> Item:
        points, seconds = _timed(lambda: hybrid.dissociation_curve(builder, [value], config))
        return _point_item(label, seconds, points[0])


class PointNoisy(Workload):
    name = "point-noisy"
    why = "one ibm-5 H2 point, fixed budget: the trajectory engine dominates"
    unit = "objective evaluation"
    item_boundary = (hybrid.QuantumObjective, "__call__")

    def setup(self) -> None:
        self.noise = qsim.NoiseModel.from_calibration(
            qsim.load_calibration(NOISY_POINT["noise"]), 4
        )

    def inputs(self) -> dict:
        return {**NOISY_POINT, "shots": SHOTS, "budget": NOISY_BUDGET, "seed": self.seed,
                "mitigation": "default (N, Sz, polytope)"}

    def calls(self):
        yield f"h2@{NOISY_POINT['bond_bohr']}", self._point

    def _point(self) -> Item:
        bond = NOISY_POINT["bond_bohr"]
        config = hybrid.HybridConfig(shots=SHOTS, noise=self.noise, seed=self.seed, **NOISY_BUDGET)
        point, seconds = _timed(
            lambda: hybrid.run_hybrid(chem.h2_molecule(bond), config, parameter=bond)
        )
        return _point_item(f"h2@{bond}", seconds, point)


def _table_rows(path: Path) -> list[list[float]]:
    """Numeric rows of a CLI table; raises if a row is not numeric."""
    return [
        [float(tok) for tok in line.split()]
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


def _canonical_table(path: Path) -> list[str]:
    """Table lines with the run-specific `out=` setting removed from the header."""
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith("# config:"):
            line = " ".join(tok for tok in line.split(" ") if not tok.startswith("out="))
        lines.append(line)
    return lines


class ScanNoisy(Workload):
    name = "scan-noisy"
    why = "geminal scan and vtable under ibm-14: wide 6-qubit trajectory batches, damping, CLI tables"
    unit = "circuit preparation"
    item_boundary = (cli, "measure_scan_point")

    def setup(self) -> None:
        cal = qsim.load_calibration("ibm-14")
        qsim.NoiseModel.from_calibration(cal, 6)
        qsim.NoiseModel.from_calibration(cal, 4, damping=True)
        # hull_area_ratio imports scipy.spatial on its first call
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mitigation.hull_area_ratio(tri, tri)
        self.out = self.root / ".perfbench" / "out" / self.name
        self.out.mkdir(parents=True, exist_ok=True)

    def inputs(self) -> dict:
        return {
            "commands": [
                ["geminal", *SCAN_ARGS, "--seed", str(self.seed)],
                ["geminal", *VTABLE_ARGS, "--seed", str(self.seed)],
            ],
            "shots": SHOTS,
            "seed": self.seed,
        }

    def calls(self):
        yield "scan", self._scan
        yield "vtable", self._vtable

    def _cli(self, args: list[str], outputs: list[str]) -> tuple[list[str], float]:
        """Runs one command after removing its old outputs; returns its problems and time."""
        for name in outputs:
            (self.out / name).unlink(missing_ok=True)
        argv = [*args, "--seed", str(self.seed), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code, seconds = _timed(lambda: cli.main(argv))
        return ([] if code == 0 else [f"exit code {code}"]), seconds

    def _scan(self) -> Item:
        stages = ("scan_raw.txt", "scan_verified.txt", "scan_projected.txt")
        outputs = [*stages, "scan_summary.txt"]
        problems, seconds = self._cli(SCAN_ARGS, outputs)
        n_points = SCAN_GRID_POINTS**2
        for name in stages:
            rows = _table_rows(self.out / name)
            if len(rows) != n_points or any(len(row) != 8 for row in rows):
                problems.append(f"{name}: expected {n_points} rows of 8 columns")
            elif not all(math.isfinite(v) for row in rows for v in row):
                problems.append(f"{name}: non-finite value")
        summary = (self.out / "scan_summary.txt").read_text().splitlines()
        retained = [float(l.rsplit(":", 1)[1]) for l in summary if "retained fraction" in l]
        ratios = [float(l.rsplit("=", 1)[1]) for l in summary if "hull_area_ratio" in l]
        if len(retained) != 1 or not 0.0 < retained[0] <= 1.0:
            problems.append(f"retained fraction {retained} not in (0, 1]")
        if len(ratios) != 2 or not all(math.isfinite(v) and v > 0 for v in ratios):
            problems.append(f"hull area ratios {ratios} not finite and positive")
        record = {name: _canonical_table(self.out / name) for name in outputs}
        return Item("scan", seconds, n_points, not problems, "; ".join(problems), record)

    def _vtable(self) -> Item:
        problems, seconds = self._cli(VTABLE_ARGS, ["vtable.txt"])
        rows = [line.split() for line in (self.out / "vtable.txt").read_text().splitlines()
                if not line.startswith("#")]
        if [row[0] for row in rows] != ["none", "N", "Sz", "N+Sz"]:
            problems.append(f"vtable settings {[row[0] for row in rows]}")
        for setting, *values in rows:
            v1, lo1, hi1, v2, lo2, hi2, kept = (float(tok) for tok in values)
            if not all(math.isfinite(v) for v in (v1, lo1, hi1, v2, lo2, hi2)):
                problems.append(f"{setting}: non-finite V or interval")
            if not (lo1 <= hi1 and lo2 <= hi2):
                problems.append(f"{setting}: interval with lo > hi")
            if not 0.0 < kept <= 1.0:
                problems.append(f"{setting}: retained {kept} not in (0, 1]")
        record = {"vtable.txt": _canonical_table(self.out / "vtable.txt")}
        return Item("vtable", seconds, SCAN_GRID_POINTS, not problems, "; ".join(problems), record)


WORKLOADS = {cls.name: cls for cls in (CurveSampled, PointNoisy, ScanNoisy)}
