"""Command-line driver tests.

Everything runs in-process through cli.main(argv) with --out pointed at
tmp_path, so these stay fast and leave no droppings.  Reproducibility
checks compare whole files byte for byte.
"""

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geminal import chem, cli, hybrid, mitigation, qsim


def run_cli(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def test_parse_scan_range():
    values = cli.parse_scan_range("0.5:5.0:12")
    assert values.size == 12
    assert values[0] == pytest.approx(0.5)
    assert values[-1] == pytest.approx(5.0)


def test_parse_scan_range_rejects_garbage():
    with pytest.raises(SystemExit):
        cli.parse_scan_range("bad")
    with pytest.raises(SystemExit):
        cli.parse_scan_range("1.0:2.0")


@pytest.mark.parametrize("text", ["inf:1:2", "-inf:1:2", "1:inf:2", "1:-inf:2", "-inf:inf:3"])
def test_parse_scan_range_rejects_infinite_ends(text, recwarn):
    # rejected before np.linspace, which would warn and hand back NaN points
    with pytest.raises(SystemExit, match="^bad scan range"):
        cli.parse_scan_range(text)
    assert not recwarn.list


def test_parse_scan_range_leaves_nan_to_the_geometry_check(recwarn):
    # a NaN the user typed reaches the geometry check, which names it
    # (test_unusable_geometry_is_clean_exit_before_work), with no numpy warning
    assert np.isnan(cli.parse_scan_range("nan:1:2")[0])
    assert not recwarn.list


def test_parse_mitigate_full_chain():
    symmetries, project = cli.parse_mitigate("n,sz,polytope")
    assert symmetries == ("N", "Sz")
    assert project


def test_parse_mitigate_none_and_unknown():
    assert cli.parse_mitigate("none") == ((), False)
    assert cli.parse_mitigate("sz") == (("Sz",), False)
    with pytest.raises(SystemExit):
        cli.parse_mitigate("n,bogus")
    for empty in (",", "", " , "):  # an empty list would run with no filter and no projection
        message = f"empty mitigation list {empty!r}; use none"
        with pytest.raises(SystemExit, match=f"^{re.escape(message)}"):
            cli.parse_mitigate(empty)


@pytest.mark.parametrize("flag", [",", "bogus"])
def test_scan_checks_mitigate_before_its_integral_probe(tmp_path, monkeypatch, flag):
    def no_probe(*_args, **_kwargs):
        raise AssertionError("integrals computed before --mitigate was checked")

    monkeypatch.setattr(chem, "compute_integrals", no_probe)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="mitigation"):
        run_cli(["scan", "--mitigate", flag, "--out", str(out)])
    assert not out.exists()


def test_load_noise_off_and_bad_file(tmp_path):
    assert cli.load_noise("off", 4, False) is None
    bad = tmp_path / "cal.txt"
    bad.write_text("qubit zero nonsense\n")
    with pytest.raises(SystemExit, match="malformed"):
        cli.load_noise(str(bad), 4, False)
    binary = tmp_path / "cal.bin"
    binary.write_bytes(b"\xff\xfe\x00qubit")
    for unreadable in (str(tmp_path), str(binary)):
        message = f"cannot use calibration {unreadable!r}: cannot read calibration file"
        with pytest.raises(SystemExit, match=re.escape(message)):
            cli.load_noise(unreadable, 4, False)


def data_rows(out) -> dict[str, list[str]]:
    """Every output file of a run, without its header lines."""
    return {
        path.name: [line for line in path.read_text().splitlines() if not line.startswith("#")]
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize(
    "command, noise, extra",
    [
        ("curve", "ibm-5", ["--scan", "1.4:1.4:1"]),
        ("curve", "off", ["--scan", "1.4:1.4:1"]),
        ("curve", "off", ["--system", "h3plus", "--scan", "1.65:1.65:1"]),
        ("scan", "ibm-14", ["--system", "h3plus", "--at", "1.65"]),
        ("vtable", "ibm-14", ["--damping"]),
    ],
    ids=["curve-ibm-5", "curve-h2", "curve-h3plus", "scan-ibm-14", "vtable-ibm-14"],
)
def test_exact_with_noise_rows_do_not_depend_on_the_seed(tmp_path, command, noise, extra):
    runs = []
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}"
        run_cli([command, "--exact", "--noise", noise, *extra, "--seed", str(seed),
                 "--out", str(out)])
        runs.append(data_rows(out))
    assert runs[0] == runs[1]
    assert runs[0] and all(runs[0].values())


@pytest.mark.parametrize(
    "argv",
    [
        ["vtable", "--exact", "--noise", "ibm-14", "--damping"],
        ["scan", "--exact", "--system", "h3plus", "--at", "1.65"],
    ],
    ids=["vtable", "scan"],
)
def test_exact_tables_are_byte_identical_across_seeds(tmp_path, argv):
    # an exact table draws nothing, so its header echoes neither seed nor shots
    files = []
    for seed in (0, 1):
        run_cli([*argv, "--seed", str(seed), "--out", str(tmp_path)])
        files.append({path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())})
    assert files[0] == files[1]
    for text in files[0].values():
        config = text.decode().splitlines()[1]
        assert config.startswith("# config: ") and "exact=True" in config
        assert "seed=" not in config and "shots=" not in config


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, geminal.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_selftest_passes_without_scipy():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from geminal import cli; raise SystemExit(cli.main(['selftest', '--quick']))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_importing_the_cli_loads_no_process_pool():
    # only `curve --jobs N` uses the pool, and it is imported there
    code = (
        "import sys, geminal.cli; print(sorted(m for m in sys.modules"
        " if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_exact_noisy_h2_point_is_flagged_no_gain_over_rhf(tmp_path):
    # ibm-5 noise holds every quantum energy at 1.4 bohr above RHF
    run_cli(["curve", "--exact", "--noise", "ibm-5", "--scan", "1.4:1.4:1",
             "--out", str(tmp_path)])
    (point,) = json.loads((tmp_path / "curve_points.json").read_text())
    assert point["energy"] == point["energy_rhf"]
    assert "no-gain-over-rhf" in point["flags"]


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--shots", "0"],
        ["vtable", "--shots", "0"],
        ["scan", "--shots", "-5"],
        ["curve", "--jobs", "-3"],
        ["curve", "--jobs", "0"],
        ["curve", "--shots", "many"],
    ],
)
def test_nonpositive_shots_and_jobs_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: geminal")
    assert "must be a positive integer" in err or "invalid positive_int value" in err


@pytest.mark.parametrize("command", ["curve", "scan", "vtable"])
def test_negative_seed_is_usage_error(command, tmp_path, monkeypatch, capsys):
    refuse_work(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        run_cli([command, "--seed", "-1", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: geminal")
    assert "--seed: must be a nonnegative integer, got -1" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["integrals", "--shots", "5"], "--shots 5"),
        (["vtable", "--mitigate", "none"], "--mitigate none"),
        (["scan", "--strict"], "--strict"),
        (["curve", "--geometry", "h2.xyz"], "--geometry h2.xyz"),
        (["curve", "--strict"], "--strict"),  # a flagged point fails every run
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(argv, unread, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: geminal")
    assert f"unrecognized arguments: {unread}" in err


README_GROUPS = {
    "molecule": {"--system", "--geometry", "--out"},
    "sampling": {"--shots", "--exact", "--seed", "--noise", "--damping"},
}


def readme_command_options():
    """{command: option strings} as the README's command table lists them."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| command | options |") + 2  # past the header and its rule
    table = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"), lines[start:]):
        command, options = (cell.strip() for cell in line.strip("|").split(" | "))
        listed = set()
        for entry in options.split(", "):
            listed |= README_GROUPS.get(entry) or {re.match(r"`(--[\w-]+)", entry)[1]}
        table[command.strip("`")] = listed
    return table


def test_readme_command_table_lists_every_option_of_the_parser():
    (subparsers,) = [
        action for action in cli.make_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    parsed = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert readme_command_options() == parsed


def refuse_work(monkeypatch):
    """Make the first step of every command's real work raise."""
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(chem, "scf_reference", no_work)  # integrals, and each curve point
    monkeypatch.setattr(hybrid, "run_hybrid", no_work)  # each curve point
    monkeypatch.setattr(cli, "measure_scan_point", no_work)  # scan, vtable


@pytest.mark.parametrize(
    "argv",
    [["curve", "--exact", "--scan", "1.4:1.4:1"], ["scan", "--exact"], ["vtable", "--exact"],
     ["integrals"]],
)
@pytest.mark.parametrize("under_file", [False, True])
def test_unusable_out_is_clean_exit_before_work(tmp_path, monkeypatch, argv, under_file):
    refuse_work(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    out = taken / "sub" if under_file else taken
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv + ["--out", str(out)])
    message = str(exit_info.value.code)
    assert message.startswith(f"cannot use output directory {out}: ") and "\n" not in message
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "a regular file\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["integrals", "--at", "0"], "atoms 0 and 1 coincide in H2 R=0"),
        (["integrals", "--at", "nan"], "non-finite nuclear coordinates in H2 R=nan"),
        (["scan", "--at", "0"], "atoms 0 and 1 coincide"),
        (["vtable", "--at", "nan"], "non-finite nuclear coordinates"),
        (["curve", "--scan", "0:1:2"], "atoms 0 and 1 coincide in H2 R=0"),
        (["curve", "--scan", "nan:1:2"], "non-finite nuclear coordinates"),
        (["curve", "--scan", "1.4:0:2"], "atoms 0 and 1 coincide in H2 R=0"),
        (
            ["curve", "--system", "h3plus", "--scan", "1:0:3", "--jobs", "2"],
            "atoms 0 and 1 coincide in H3+ a=0",
        ),
        # far apart: silently wrong integrals from ~1e12 bohr, a NaN kinetic term past ~1e154
        (["integrals", "--at", "1e15"], "nuclear coordinates beyond 1e+06 bohr in H2 R=1e+15"),
        (["integrals", "--at", "1e155"], "nuclear coordinates beyond 1e+06 bohr in H2 R=1e+155"),
        (["vtable", "--at", "1e15"], "nuclear coordinates beyond 1e+06 bohr"),
        (["curve", "--exact", "--scan", "1e300:1e300:1"], "nuclear coordinates beyond 1e+06 bohr"),
        (["curve", "--system", "h3plus", "--scan", "1.4:1e15:2"], "nuclear coordinates beyond"),
    ],
)
def test_unusable_geometry_is_clean_exit_before_work(tmp_path, monkeypatch, argv, message):
    refuse_work(monkeypatch)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^bad geometry: {re.escape(message)}"):
        run_cli(argv + ["--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["integrals", "--at", "1e-8"],
        ["curve", "--exact", "--scan", "1e-8:1e-8:1"],
        ["scan", "--exact", "--at", "1e-8"],
        ["vtable", "--exact", "--at", "1e-8"],
        ["curve", "--exact", "--scan", "1.4:1e-8:2"],  # the bad point is not the probed first one
    ],
)
def test_nearly_coincident_nuclei_are_clean_exit_before_any_file(tmp_path, monkeypatch, argv):
    refuse_work(monkeypatch)
    out = tmp_path / "out"  # not made yet, so a directory made before the check shows
    with pytest.raises(SystemExit, match="^bad geometry: overlap matrix is numerically singular"):
        run_cli(argv + ["--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "atoms, message",
    [
        ("H 0 0 0\nH 0 0 0\n", "atoms 0 and 1 coincide"),
        ("H 0 0 0\nH 0 0 1.4\nH 0 0 1.4\n", "atoms 1 and 2 coincide"),
        ("H 0 0 0\nH 0 nan 1.4\n", "non-finite nuclear coordinates"),
        ("H 0 0 0\nH 0 0 1e155\n", "nuclear coordinates beyond 1e+06 bohr"),
        ("H 0 0 0\nXx 0 0 1.4\n", "line 2: unsupported element 'Xx'"),
        ("H 0 0 0\nH 0 0 1.4x\n", "line 2: coordinates must be numbers"),
        ("charge one\nH 0 0 0\nH 0 0 1.4\n", "line 1: charge takes one integer"),
        ("charge 0 1\nH 0 0 0\nH 0 0 1.4\n", "line 1: charge takes one integer"),
        (b"\xff\xfeH 0 0 0\n", "not a readable text file ("),  # undecodable bytes
        (None, "not a readable text file ("),  # a directory
        ("He 0 0 0\nHe 0 0 5.6\n", "4 electrons; geminal treats two-electron systems"),
        ("charge 1\nH 0 0 0\n", "0 electrons; geminal treats two-electron systems"),
        ("charge -2\nH 0 0 0\nH 0 0 1.4\n", "4 electrons; geminal treats two-electron systems"),
    ],
)
def test_unusable_geometry_file_is_clean_exit_before_work(tmp_path, monkeypatch, atoms, message):
    refuse_work(monkeypatch)
    geom = tmp_path / "mol.txt"
    if atoms is None:
        geom.mkdir()
    elif isinstance(atoms, bytes):
        geom.write_bytes(atoms)
    else:
        geom.write_text(atoms)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=re.escape(f"bad geometry file {geom}: {message}")):
        run_cli(["integrals", "--geometry", str(geom), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "vtable"])
def test_scan_commands_refuse_a_geometry_without_two_electrons(tmp_path, monkeypatch, command):
    refuse_work(monkeypatch)
    geom = tmp_path / "he2.txt"
    geom.write_text("He 0 0 0\nHe 0 0 5.6\n")
    message = f"bad geometry file {geom}: 4 electrons; geminal treats two-electron systems"
    with pytest.raises(SystemExit, match=re.escape(message)):
        run_cli([command, "--geometry", str(geom), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_missing_geometry_file_is_clean_error(tmp_path):
    code = None
    with pytest.raises(SystemExit, match="not found"):
        run_cli(["integrals", "--geometry", str(tmp_path / "nope.txt")])
    assert code is None


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_exact_two_points(tmp_path):
    code = run_cli(
        ["curve", "--system", "h2", "--exact", "--scan", "1.0:1.4:2",
         "--seed", "3", "--out", str(tmp_path)]
    )
    assert code == 0
    table = (tmp_path / "curve.txt").read_text().splitlines()
    assert table[0].startswith("# geminal ")
    # an exact run draws no shot and its restart jitter does not depend on the seed
    assert "seed=" not in table[1] and "shots=" not in table[1]
    data = [line for line in table if not line.startswith("#")]
    assert len(data) == 2
    points = json.loads((tmp_path / "curve_points.json").read_text())
    assert len(points) == 2
    for p in points:
        assert p["error_mhartree"] < 1e-3  # exact mode nails FCI
        assert p["converged"]


@pytest.mark.parametrize("system, atoms", [("h2", 2), ("h3plus", 3)])
def test_serial_curve_computes_one_integral_set_per_point(tmp_path, monkeypatch, system, atoms):
    # the orbital count comes from the basis, with no integral probe before the points
    calls, qubits = [], []
    compute_integrals, load_noise = chem.compute_integrals, cli.load_noise
    monkeypatch.setattr(chem, "compute_integrals", lambda m: calls.append(m) or compute_integrals(m))
    monkeypatch.setattr(cli, "load_noise", lambda n, q, d: qubits.append(q) or load_noise(n, q, d))
    scan = {"h2": "1.0:1.4:2", "h3plus": "1.6:1.7:2"}[system]
    run_cli(["curve", "--system", system, "--exact", "--scan", scan, "--out", str(tmp_path)])
    assert len(calls) == 2 and qubits == [2 * atoms]


def test_curve_byte_identical_reruns(tmp_path):
    argv = ["curve", "--system", "h2", "--scan", "0.8:1.2:2", "--seed", "9",
            "--shots", "512", "--out", str(tmp_path)]
    run_cli(argv)
    first = (tmp_path / "curve.txt").read_bytes()
    first_json = (tmp_path / "curve_points.json").read_bytes()
    run_cli(argv)
    assert (tmp_path / "curve.txt").read_bytes() == first
    assert (tmp_path / "curve_points.json").read_bytes() == first_json


def test_curve_parallel_matches_serial(tmp_path):
    base = ["curve", "--system", "h2", "--exact", "--scan", "0.9:1.3:3",
            "--seed", "4"]
    run_cli(base + ["--out", str(tmp_path / "a")])
    run_cli(base + ["--jobs", "2", "--out", str(tmp_path / "b")])
    rows_a = [line for line in (tmp_path / "a" / "curve.txt").read_text().splitlines()
              if not line.startswith("#")]
    rows_b = [line for line in (tmp_path / "b" / "curve.txt").read_text().splitlines()
              if not line.startswith("#")]
    assert rows_a == rows_b


def test_noisy_curve_parallel_is_byte_identical_to_serial(tmp_path):
    # 8 shots keep it short: each point runs outer step 1, then its filters reject every shot
    base = ["curve", "--system", "h2", "--scan", "1.0:1.4:2", "--noise", "ibm-5",
            "--shots", "8", "--seed", "5"]
    run_cli(base + ["--out", str(tmp_path / "a")])
    run_cli(base + ["--jobs", "2", "--out", str(tmp_path / "b")])
    rows_a = [line for line in (tmp_path / "a" / "curve.txt").read_text().splitlines()
              if not line.startswith("#")]
    rows_b = [line for line in (tmp_path / "b" / "curve.txt").read_text().splitlines()
              if not line.startswith("#")]
    assert len(rows_a) == 2 and rows_a == rows_b
    json_a = (tmp_path / "a" / "curve_points.json").read_bytes()
    assert json_a == (tmp_path / "b" / "curve_points.json").read_bytes()


def test_curve_dead_worker_is_clean_exit_without_table(tmp_path, monkeypatch):
    # a pool whose worker died: its map raises BrokenProcessPool
    from concurrent import futures
    from concurrent.futures.process import BrokenProcessPool

    class DeadPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, *iterables):
            raise BrokenProcessPool("a process in the process pool was terminated abruptly")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", DeadPool)
    argv = ["curve", "--system", "h2", "--exact", "--scan", "0.9:1.3:3", "--jobs", "2",
            "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(argv)
    assert "--jobs 2" in str(exit_info.value.code)
    assert list(tmp_path.iterdir()) == []


def test_curve_exits_1_on_a_flagged_converged_point(tmp_path, monkeypatch, capsys):
    flagged = hybrid.CurvePoint(
        parameter=1.0, energy=-1.0, energy_fci=-1.0, energy_rhf=-0.9,
        outer_iterations=1, n_evals=10, converged=True,
        state=hybrid.GeminalState(np.array([1.0, 0.0]), np.array([1])),
        flags=["nm-iteration-cap-outer-1"],
    )
    monkeypatch.setattr(cli.hybrid, "run_hybrid", lambda *a, **k: flagged)
    argv = ["curve", "--exact", "--scan", "1.0:1.0:1", "--out", str(tmp_path)]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "flagged points: 1.00000: nm-iteration-cap-outer-1\n"
    assert curve_rows(tmp_path)[0][-1] == "nm-iteration-cap-outer-1"


def test_curve_quantum_step_that_ties_rhf_is_flagged(tmp_path, capsys):
    # one shot per preparation lands the quantum step on the RHF vertex, E_RHF bit for bit
    argv = ["curve", "--system", "h2", "--scan", "1.4:1.4:1", "--shots", "1", "--seed", "0",
            "--out", str(tmp_path)]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "flagged points: 1.40000: no-gain-over-rhf\n"
    (row,) = curve_rows(tmp_path)
    assert row[1] == row[3] and row[-1] == "no-gain-over-rhf"
    (point,) = json.loads((tmp_path / "curve_points.json").read_text())
    assert point["energy"] == point["energy_rhf"]
    assert point["converged"] and point["retained_fraction"] is None


def curve_rows(out_dir):
    lines = (out_dir / "curve.txt").read_text().splitlines()
    return [line.split() for line in lines if not line.startswith("#")]


def test_curve_all_shots_rejected_is_flagged_row(tmp_path):
    argv = ["curve", "--system", "h2", "--scan", "1.4:1.4:1", "--noise", "ibm-5",
            "--shots", "2", "--seed", "1", "--out", str(tmp_path)]
    assert run_cli(argv) == 1
    (row,) = curve_rows(tmp_path)
    assert "all-shots-rejected-outer-1" in row[-1].split(",")
    assert "outer-iteration-cap" not in row[-1]


def test_curve_goes_on_past_a_rejected_point(tmp_path, monkeypatch):
    quantum_step = hybrid.quantum_step

    def reject_at_one_bohr(objective, t0=None):
        if objective.pair.enuc == pytest.approx(1.0):  # the R = 1.0 bohr point
            raise cli.mitigation.AllShotsRejectedError("symmetry filters rejected every shot")
        return quantum_step(objective, t0=t0)

    monkeypatch.setattr(hybrid, "quantum_step", reject_at_one_bohr)
    argv = ["curve", "--exact", "--scan", "1.0:2.0:2", "--out", str(tmp_path)]
    assert run_cli(argv) == 1
    rows = curve_rows(tmp_path)
    assert [float(row[0]) for row in rows] == [1.0, 2.0]
    assert "all-shots-rejected-outer-1" in rows[0][-1]
    assert rows[1][-1] == "-"


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_r2_tables_and_v(tmp_path):
    code = run_cli(
        ["scan", "--system", "h2", "--exact", "--seed", "3", "--out", str(tmp_path)]
    )
    assert code == 0
    for stage in ("raw", "verified", "projected"):
        lines = (tmp_path / f"scan_{stage}.txt").read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        assert len(data) == 11  # pi/10 grid
        assert len(data[0].split()) == 1 + 4  # t plus two orbitals per half set
    summary = (tmp_path / "scan_summary.txt").read_text()
    v_values = [float(line.split("=")[1].split()[0])
                for line in summary.splitlines() if " V = " in line]
    assert len(v_values) == 4
    for v in v_values:  # exact curves give the trapezoid value of |cos 2t|
        assert v == pytest.approx(2.0333, abs=2e-3)


def test_scan_r3_hull_ratio_one_when_exact(tmp_path):
    run_cli(
        ["scan", "--system", "h3plus", "--at", "1.65", "--exact",
         "--out", str(tmp_path)]
    )
    summary = (tmp_path / "scan_summary.txt").read_text()
    ratios = [float(line.rsplit("=", 1)[1])
              for line in summary.splitlines() if "hull_area_ratio" in line]
    assert len(ratios) == 2
    for ratio in ratios:
        assert ratio == pytest.approx(1.0, abs=1e-9)
    rows = (tmp_path / "scan_projected.txt").read_text().splitlines()
    assert len([r for r in rows if not r.startswith("#")]) == 121


def test_scan_r3_contraction_shrinks_hull(tmp_path):
    run_cli(
        ["scan", "--system", "h3plus", "--at", "1.65", "--exact",
         "--contract", "0.7", "--out", str(tmp_path)]
    )
    summary = (tmp_path / "scan_summary.txt").read_text()
    ratios = [float(line.rsplit("=", 1)[1])
              for line in summary.splitlines() if "hull_area_ratio" in line]
    for ratio in ratios:  # linear contraction by 0.7 scales area by 0.49
        assert ratio == pytest.approx(0.49, abs=1e-6)


@pytest.mark.parametrize("factor", ["nan", "inf", "-inf"])
def test_scan_non_finite_contraction_is_usage_error(factor, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["scan", f"--contract={factor}"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: geminal")
    assert f"argument --contract: must be a finite number, got {factor}" in err


def test_scan_r3_zero_contraction_reports_zero_hull(tmp_path):
    # every point contracts to the same occupations, whose hull has no area
    code = run_cli(
        ["scan", "--system", "h3plus", "--at", "1.65", "--exact",
         "--contract", "0", "--out", str(tmp_path)]
    )
    assert code == 0
    summary = (tmp_path / "scan_summary.txt").read_text().splitlines()
    assert [line for line in summary if "hull_area_ratio" in line] == [
        "half_set_1 hull_area_ratio = 0.0000",
        "half_set_2 hull_area_ratio = 0.0000",
    ]


def test_scan_intervals_contain_their_v(tmp_path):
    # two equal curves give V = 0, while every resampled V is positive
    code = run_cli(["scan", "--system", "h2", "--contract", "0", "--out", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "scan_summary.txt").read_text()
    intervals = re.findall(r" V = (\S+)  ci95 = \[(\S+), (\S+)\]", summary)
    assert len(intervals) == 4
    for v, lo, hi in intervals:
        assert float(lo) <= float(v) <= float(hi)


def test_scan_raw_intervals_resample_every_shot(tmp_path):
    # the raw occupations come from all 2048 shots of a point and the filtered
    # ones from the shots the filter kept, so each stage's V interval resamples those
    argv = ["scan", "--system", "h2", "--noise", "ibm-5", "--seed", "2", "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    summary = (tmp_path / "scan_summary.txt").read_text()
    retained = float(re.search(r"mean retained fraction: (\S+)", summary).group(1))
    assert retained < 0.5  # the two shot counts differ by more than a factor of two
    printed = {
        (half, stage): (float(lo), float(hi))
        for half, stage, lo, hi in re.findall(
            r"(half_set_\d) (\w+): V = \S+  ci95 = \[(\S+), (\S+)\]", summary
        )
    }
    rows = data_rows(tmp_path)
    for stage, shots in (("raw", 2048), ("projected", int(2048 * retained))):
        table = np.array([row.split() for row in rows[f"scan_{stage}.txt"]], dtype=float)
        for h, half in enumerate(("half_set_1", "half_set_2")):
            n1, n2 = table[:, 1 + 2 * h], table[:, 2 + 2 * h]
            _, lo, hi = mitigation.bootstrap_v_interval(table[:, 0], n1, n2, shots, seed=2)
            # the tables round the occupations to 6 decimals
            assert printed[half, stage] == pytest.approx((lo, hi), abs=1e-3), (half, stage)


@pytest.mark.parametrize(
    "argv, points",
    [
        (["scan", "--system", "h3plus", "--at", "1.65", "--noise", "ibm-14"], 121),
        (["vtable", "--noise", "ibm-14", "--damping"], 11),
    ],
    ids=["scan-h3plus-ibm-14", "vtable-ibm-14-damping"],
)
def test_scan_grid_prepares_each_point_once(tmp_path, monkeypatch, argv, points):
    # perfbench's scan-noisy workload times each preparation at
    # cli.measure_scan_point and counts each call as one preparation
    calls = []
    measure = cli.measure_scan_point

    def counted(*args):
        calls.append(args[1])
        return measure(*args)

    monkeypatch.setattr(cli, "measure_scan_point", counted)
    assert run_cli([*argv, "--out", str(tmp_path)]) == 0
    assert len(calls) == points


def test_scan_rejects_unsupported_size(tmp_path):
    geom = tmp_path / "chain.txt"
    geom.write_text("charge 2\nH 0 0 0\nH 0 0 1.6\nH 0 0 3.2\nH 0 0 4.8\n")
    with pytest.raises(SystemExit, match="2 or 3 orbitals"):
        run_cli(["scan", "--geometry", str(geom), "--out", str(tmp_path)])


def odd_electron_record(program, t, shots, rng):
    """A record whose every shot holds one electron, so the N filter rejects it all."""
    counts = np.zeros(1 << program.n_qubits, dtype=np.int64)
    counts[0b0001] = shots
    return qsim.ShotHistogram(program.n_qubits, shots, counts)


def test_scan_all_shots_rejected_is_clean_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "measure_scan_point", odd_electron_record)
    with pytest.raises(SystemExit, match=r"scan point 0 \(t = -3\.1416\), filter N\+Sz: .*rejected"):
        run_cli(["scan", "--system", "h2", "--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# vtable
# ---------------------------------------------------------------------------

def test_vtable_all_shots_rejected_is_clean_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "measure_scan_point", odd_electron_record)
    with pytest.raises(SystemExit, match=r"scan point 0 \(t = -3\.1416\), filter N: .*rejected"):
        run_cli(["vtable", "--system", "h2", "--out", str(tmp_path)])


def test_vtable_noiseless_rows_near_two(tmp_path):
    code = run_cli(
        ["vtable", "--system", "h2", "--seed", "5", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "vtable.txt").read_text().splitlines()
    data = [line.split() for line in lines if not line.startswith("#")]
    assert [row[0] for row in data] == ["none", "N", "Sz", "N+Sz"]
    for row in data:
        v1, lo1, hi1, v2 = float(row[1]), float(row[2]), float(row[3]), float(row[4])
        assert abs(v1 - 2.0) < 0.05 and abs(v2 - 2.0) < 0.05
        assert lo1 <= v1 <= hi1
        assert float(row[7]) == pytest.approx(1.0)  # nothing filtered


def vtable_by_setting(out) -> dict[str, list[float]]:
    rows = data_rows(out)["vtable.txt"]
    return {row.split()[0]: [float(x) for x in row.split()[1:]] for row in rows}


def assert_criterion_3_order(rows):
    for half in (0, 3):  # V columns for the two half sets
        assert rows["none"][half] < rows["N"][half]
        assert rows["none"][half] < rows["Sz"][half]
        assert rows["N+Sz"][half] > rows["N"][half]
        assert rows["N+Sz"][half] > rows["Sz"][half]
    assert rows["N+Sz"][6] < 1.0  # filtering discards shots


def test_vtable_noise_improves_with_filters(tmp_path):
    run_cli(
        ["vtable", "--system", "h2", "--seed", "5", "--noise", "ibm-14",
         "--out", str(tmp_path)]
    )
    assert_criterion_3_order(vtable_by_setting(tmp_path))


def test_vtable_exact_noise_keeps_the_order_with_no_shot_noise(tmp_path):
    code = run_cli(
        ["vtable", "--exact", "--noise", "ibm-14", "--damping", "--out", str(tmp_path)]
    )
    assert code == 0
    rows = vtable_by_setting(tmp_path)
    assert_criterion_3_order(rows)
    for v1, lo1, hi1, v2, lo2, hi2, _ in rows.values():
        assert lo1 == v1 == hi1 and lo2 == v2 == hi2


def test_vtable_exact_intervals_have_zero_width(tmp_path):
    assert run_cli(["vtable", "--exact", "--out", str(tmp_path)]) == 0
    rows = vtable_by_setting(tmp_path)
    assert list(rows) == ["none", "N", "Sz", "N+Sz"]
    for v1, lo1, hi1, v2, lo2, hi2, _ in rows.values():
        assert lo1 == v1 == hi1 and lo2 == v2 == hi2


def test_vtable_requires_two_orbitals():
    with pytest.raises(SystemExit, match="two-orbital"):
        run_cli(["vtable", "--system", "h3plus"])


# ---------------------------------------------------------------------------
# selftest and integrals
# ---------------------------------------------------------------------------

SELFTEST_CHECKS = [
    "calibration-files",
    "compiled-preparation",
    "polytope-projection",
    "fci-consistency",
    "density-noise",
]


def test_selftest_quick_passes(capsys):
    assert run_cli(["selftest", "--quick"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"ok    {name}" for name in SELFTEST_CHECKS]


def test_selftest_full_passes(capsys):
    # the full checks: run_hybrid exact in fci-consistency, and compiled
    # preparation also at noiseless r = 3 and noisy r = 2
    assert run_cli(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"ok    {name}" for name in SELFTEST_CHECKS]


def test_selftest_flags_corrupt_calibration(tmp_path, capsys):
    bad = tmp_path / "cal.txt"
    bad.write_text("this is not a calibration\n")
    assert run_cli(["selftest", "--quick", "--noise", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and "calibration" in err


def test_integrals_h2_values(tmp_path):
    run_cli(["integrals", "--system", "h2", "--at", "1.4", "--out", str(tmp_path)])
    text = (tmp_path / "integrals.txt").read_text()
    # the header echoes the molecule options only; no sampling settings
    assert text.splitlines()[1] == f"# config: at=1.4 command=integrals out={tmp_path} system=h2"
    assert "enuc = 0.714285714286" in text
    assert "E_RHF = -1.116714325063" in text
    assert "E_FCI = -1.137275943617" in text


def test_integrals_flags_an_unconverged_scf(tmp_path, capsys):
    # at 30 bohr the SCF stops at its iteration cap; E_RHF is then no SCF energy
    assert run_cli(["integrals", "--system", "h2", "--at", "30", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    lines = (tmp_path / "integrals.txt").read_text().splitlines()
    assert lines[-1] == "# flags: scf-not-converged"
    assert captured.out.splitlines() == lines
    assert captured.err == f"flagged: scf-not-converged after {chem.RHF_MAX_ITER} SCF iterations\n"
    assert run_cli(["integrals", "--system", "h2", "--at", "20", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "integrals.txt").read_text().splitlines()[-1] == "E_FCI = -0.933163699115"


def test_integrals_reproducible(tmp_path):
    argv = ["integrals", "--system", "h3plus", "--at", "1.65", "--out", str(tmp_path)]
    run_cli(argv)
    first = (tmp_path / "integrals.txt").read_bytes()
    run_cli(argv)
    assert (tmp_path / "integrals.txt").read_bytes() == first


def test_geometry_file_label_in_header(tmp_path):
    geom = tmp_path / "mol.txt"
    geom.write_text("label stretched-pair\nH 0 0 0\nH 0 0 2.0\n")
    run_cli(["integrals", "--geometry", str(geom), "--out", str(tmp_path)])
    header = (tmp_path / "integrals.txt").read_text().splitlines()[1]
    assert "system=stretched-pair" in header


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GEMINAL_OUT", str(tmp_path / "envout"))
    run_cli(["integrals", "--system", "h2"])
    assert (tmp_path / "envout" / "integrals.txt").exists()
