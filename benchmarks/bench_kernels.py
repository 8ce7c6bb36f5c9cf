"""Timing comparison of the numba and numpy kernel backends.

The backend is fixed at import time, so the comparison runs each side in
a child process with GEMINAL_BACKEND set accordingly and merges the
results.  Invoke with no arguments for the two-column table, or the
numpy column alone when numba is not installed; --single times just the
current interpreter's backend (used by the parent).
"""

import argparse
import importlib.util
import os
import subprocess
import sys
import time

import numpy as np


def workloads():
    from geminal import ansatz, qsim

    def ansatz_statevector():
        t = np.array([0.3, -0.7, 0.2])
        circuit = ansatz.build_ansatz_circuit(4, t)
        for _ in range(200):
            qsim.run_circuit(circuit)

    def noisy_trajectories_r2():
        cal = qsim.load_calibration("ibm-5")
        noise = qsim.NoiseModel.from_calibration(cal, 4)
        circuit = ansatz.build_ansatz_circuit(2, np.array([-0.9]))
        qsim.run_noisy(circuit, noise, 8192, seed=0)

    def noisy_trajectories_r3():
        cal = qsim.load_calibration("ibm-14")
        noise = qsim.NoiseModel.from_calibration(cal, 6)
        circuit = ansatz.build_ansatz_circuit(3, np.array([0.4, -0.6]))
        qsim.run_noisy(circuit, noise, 4096, seed=0)

    def readout_sampling():
        state = qsim.Statevector(np.full(1 << 12, 2**-6, dtype=complex))
        readout = np.full(12, 0.03)
        for _ in range(8):
            qsim.sample(state, 1 << 14, seed=1, readout=readout)

    return [
        ("ansatz statevector r=4 x200", ansatz_statevector),
        ("noisy trajectories r=2 8192 shots", noisy_trajectories_r2),
        ("noisy trajectories r=3 4096 shots", noisy_trajectories_r3),
        ("readout sampling 12q x8", readout_sampling),
    ]


def run_single():
    from geminal import _kernels

    results = []
    for name, fn in workloads():
        fn()  # warmup; lets numba JIT outside the timed region
        best = min(timed(fn) for _ in range(3))
        results.append((name, best))
        print(f"{name}\t{best:.4f}", flush=True)
    return _kernels.BACKEND


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_child(backend):
    env = dict(os.environ, GEMINAL_BACKEND=backend)
    env.pop("NUMBA_DISABLE_JIT", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--single"],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    out = {}
    for line in proc.stdout.splitlines():
        name, _, seconds = line.rpartition("\t")
        if name:
            out[name] = float(seconds)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--single", action="store_true")
    args = parser.parse_args()
    if args.single:
        run_single()
        return

    numpy_times = run_child("numpy")
    width = max(len(name) for name in numpy_times)
    if importlib.util.find_spec("numba") is None:
        print("numba is unavailable; timing the numpy backend only")
        print(f"{'workload':<{width}}  {'numpy':>9}")
        for name, np_time in numpy_times.items():
            print(f"{name:<{width}}  {np_time:8.4f}s")
        return

    numba_times = run_child("numba")
    print(f"{'workload':<{width}}  {'numba':>9}  {'numpy':>9}  {'speedup':>8}")
    for name, np_time in numpy_times.items():
        nb_time = numba_times[name]
        print(f"{name:<{width}}  {nb_time:8.4f}s  {np_time:8.4f}s  {np_time / nb_time:7.2f}x")


if __name__ == "__main__":
    main()
