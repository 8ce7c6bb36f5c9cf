"""Batch kernels of the trajectory reference, on little-endian layouts (qubit q is bit q).

One statevector per row of a 2-D array: ``apply_1q_batch`` reshapes,
``apply_cnot_batch`` swaps index pairs, and ``sample_rows`` draws one
outcome per row.  Production engines apply gates through
``qsim._apply_local`` instead, so the reference shares no gate code
with what it checks.  Only ``qsim`` imports this module.

``BACKEND`` names the kernel implementation and is recorded with
benchmark results.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


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
