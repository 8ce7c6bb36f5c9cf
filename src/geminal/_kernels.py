"""Vectorised numpy kernels on little-endian layouts (qubit q is bit q).

``parity_signs`` serves histogram parities, and ``outcome_bits``
occupations and symmetry filters; both are read-only tables cached per
size.  The gate kernels and ``sample_rows`` serve only the trajectory
reference, one statevector per row of a 2-D array:
``apply_1q_batch`` reshapes, ``apply_cnot_batch`` swaps index pairs.
Production engines apply gates through ``qsim._apply_local`` instead,
so the reference shares no gate code with what it checks.

``BACKEND`` names the kernel implementation and is recorded with
benchmark results.
"""

from __future__ import annotations

import functools

import numpy as np

BACKEND = "numpy"


@functools.lru_cache(maxsize=128)
def parity_signs(dim: int, mask: int) -> np.ndarray:
    """(-1)**popcount(k & mask) for k in range(dim), as read-only float64."""
    v = np.arange(dim, dtype=np.uint64) & np.uint64(mask)
    v ^= v >> np.uint64(32)
    v ^= v >> np.uint64(16)
    v ^= v >> np.uint64(8)
    v ^= v >> np.uint64(4)
    v ^= v >> np.uint64(2)
    v ^= v >> np.uint64(1)
    signs = 1.0 - 2.0 * (v & np.uint64(1)).astype(np.float64)
    signs.flags.writeable = False  # shared by every cached call
    return signs


@functools.lru_cache(maxsize=16)
def outcome_bits(n_qubits: int) -> np.ndarray:
    """Read-only (2**n_qubits, n_qubits) float64 table: entry [k, q] is bit q of outcome k."""
    table = ((np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits)) & 1).astype(np.float64)
    table.flags.writeable = False  # shared by every cached call
    return table


def apply_1q_batch(amps2: np.ndarray, m: np.ndarray, q: int) -> None:
    view = amps2.reshape(amps2.shape[0], -1, 2, 1 << q)
    a0 = view[:, :, 0, :].copy()
    a1 = view[:, :, 1, :]
    view[:, :, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
    view[:, :, 1, :] = m[1, 0] * a0 + m[1, 1] * a1


def apply_cnot_batch(amps2: np.ndarray, control: int, target: int) -> None:
    dim = amps2.shape[1]
    k = np.arange(dim)
    sel = ((k >> control) & 1 == 1) & ((k >> target) & 1 == 0)
    src = k[sel]
    dst = src | (1 << target)
    tmp = amps2[:, src].copy()
    amps2[:, src] = amps2[:, dst]
    amps2[:, dst] = tmp


def sample_rows(probs2: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first outcome whose cumulative probability exceeds u."""
    cum = np.cumsum(probs2, axis=1)
    # guard against rounding: final column acts as +inf
    cum[:, -1] = np.inf
    return np.argmax(cum > u[:, None], axis=1).astype(np.int64)
