"""Benchmark of the geminal workbench: three workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curve-sampled --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --trace 1

One client in one process calls the program in a closed loop: each call
waits for the previous one.  With --trace 0 the run repeats the
workload's pass (identical inputs each time) while another pass is
expected to end within half a pass of --seconds, and reports the
end-to-end metrics; the only hook installed is the item clock.  With
--trace 1 it makes one such pass, then one traced pass, and reports the
per-layer metrics; the difference between the two pass times is the
tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A full record (machine facts,
inputs, digests, every metric) goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench" / "results"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900


def _load_program():
    """Import geminal from this checkout's src/, refusing any other copy."""
    if not (SRC / "geminal" / "__init__.py").is_file():
        sys.exit(f"perfbench: no geminal sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import geminal

    if Path(geminal.__file__).resolve().parent != (SRC / "geminal").resolve():
        sys.exit(f"perfbench: imported geminal from {geminal.__file__}, not {SRC}")
    return geminal


def _percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _kind_min(values, kinds) -> float:
    """Fastest item of each kind, averaged with the kinds' item counts as weights.

    The items of one kind cost about the same; their spread is the machine's.
    A shared host runs them in a fast and a slow state, and the share of
    fast items moves from run to run, so every percentile near that share
    jumps between the states.  The fastest item reads the fast state, the
    program's cost when the host leaves it alone; weighting by count keeps
    every kind of item in the figure however cheap it is.  It is taken over
    one pass at a time: over a whole run it would fall as a faster machine
    fits more passes into the run.
    """
    if not values:
        return float("nan")
    fastest, count = {}, {}
    for value, kind in zip(values, kinds):
        fastest[kind] = min(value, fastest.get(kind, value))
        count[kind] = count.get(kind, 0) + 1
    return sum(fastest[k] * count[k] for k in fastest) / len(values)


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_facts(geminal) -> dict:
    import numpy
    import scipy

    from geminal import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "geminal": geminal.__version__,
        "backend": _kernels.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the workload being ready."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe for {workload} failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    geminal = _load_program()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    setup_times = measure_setup(name, seed)
    workload = WORKLOADS[name](seed, ROOT)
    workload.setup()

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        if trace:
            break
        # start another pass unless it would end more than half a pass late
        expected = statistics.median(p.seconds for p in passes)
        if time.perf_counter() - start + expected / 2 > seconds:
            break
    timed = list(passes)

    layers = None
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.pass_id = f"{name}/seed{seed}/traced"
        tracer.install()
        try:
            passes.append(workload.run_pass(item_clock=False))
        finally:
            tracer.restore()
        layers = layer_metrics(tracer)
        overhead = passes[-1].seconds - timed[0].seconds
        layers["trace.overhead_s"] = (overhead, "s")
        layers["trace.overhead_frac"] = (overhead / timed[0].seconds, "frac")

    reference = passes[0].digest
    attempted = failed = 0
    failures = []
    for index, result in enumerate(passes):
        digest_ok = result.digest == reference
        for item in result.items:
            attempted += 1
            if not (item.ok and digest_ok):
                failed += 1
                why = item.detail if not item.ok else "outputs differ from the first pass"
                failures.append(f"pass {index} {item.label}: {why}")

    item_ms = [1e3 * t for p in timed for t in p.item_wall]
    item_kind = [k for p in timed for k in p.item_kind]
    pass_min_ms = [_kind_min([1e3 * t for t in p.item_wall], p.item_kind) for p in timed]
    item_cpu_ms = [1e3 * t for p in timed for t in p.item_cpu]
    errs = [item.err_mha for item in passes[0].items if item.err_mha is not None]
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "item_ms.min": (statistics.median(pass_min_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "item_cpu_ms.p10": (_percentile(item_cpu_ms, 10), "ms"),
        "item_cpu_ms.p50": (_percentile(item_cpu_ms, 50), "ms"),
        "item_ms.p10": (_percentile(item_ms, 10), "ms"),
        "item_ms.p50": (_percentile(item_ms, 50), "ms"),
        "item_ms.p90": (_percentile(item_ms, 90), "ms"),
        "item_samples": (len(item_ms), "count"),
        "wall_s": (statistics.median(p.seconds for p in timed), "s"),
        "work": (passes[0].work, "count"),
        "work_ms": (statistics.median(1e3 * p.seconds / max(p.work, 1) for p in timed), "ms"),
        "passes": (len(timed), "count"),
        "fail_frac": (failed / attempted, "frac"),
    }
    if errs:
        extra["err_mha"] = (max(errs), "mHa")
    if workload.tolerance_mha is not None:
        misses = sum(err >= workload.tolerance_mha for err in errs)
        extra["tolerance_misses"] = (misses, "count")
    if layers is not None:
        extra["preparations"] = (layers["tomography.preparations"][0], "count")
        extra["evaluations"] = (layers["hybrid.objective.calls"][0], "count")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write(RESULTS / f"{name}-seed{seed}.spans.jsonl.gz")
    record = {
        "workload": name,
        "why": workload.why,
        "item": workload.unit,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": "closed, one client, one process",
        "inputs": workload.inputs(),
        "machine": machine_facts(geminal),
        "setup_s_samples": setup_times,
        "item_kinds": {k: item_kind.count(k) for k in sorted(set(item_kind))},
        "pass_seconds": [p.seconds for p in passes],
        "pass_item_ms_min": pass_min_ms,
        "digests": [p.digest for p in passes],
        "items": [
            {"pass": i, "label": it.label, "seconds": it.seconds, "work": it.work,
             "err_mha": it.err_mha, "ok": it.ok, "detail": it.detail}
            for i, p in enumerate(passes) for it in p.items
        ],
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **extra}.items()},
        "per_layer": None if layers is None else {
            k: {"value": v, "unit": u} for k, (v, u) in layers.items()
        },
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    reported = layers if trace else end_to_end
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(f"== {name}: {attempted - failed}/{attempted} calls ok, digest {reference[:16]},"
          f" record {(RESULTS / f'{stem}.json').relative_to(ROOT)}")
    for key, (value, unit) in {**end_to_end, **extra, **(layers or {})}.items():
        print(f"  {key:<44} {value:>16.6g} {unit}")
    for failure in failures:
        print(f"  FAILED {failure}")
    return line


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own memory peak."""
    summary = {}
    for name in ("curve-sampled", "point-noisy", "scan-noisy"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "workloads": summary,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["curve-sampled", "point-noisy", "scan-noisy", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.setup_probe:
        _load_program()
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, ROOT).setup()
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        _load_program()
        return run_all(args)

    line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
