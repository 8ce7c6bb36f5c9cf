"""Statevector array kernels with a numba fast path and a numpy fallback.

The simulator's inner loops (single-qubit gate application, CNOT, and
per-trajectory measurement sampling) are implemented twice: once as
numba ``@njit`` loops over flat amplitude arrays, and once as vectorised
numpy reshape arithmetic.  Both paths implement identical semantics on
little-endian amplitude layouts (qubit q is bit q of the basis index).

Backend selection, checked once at import:

* ``GEMINAL_BACKEND=numpy`` forces the pure-numpy path.
* ``GEMINAL_BACKEND=numba`` requires numba and raises if it is missing.
* unset: numba when importable, numpy otherwise.  Setting
  ``NUMBA_DISABLE_JIT`` also selects the numpy path.

``BACKEND`` records the active choice; the benchmark script under
``benchmarks/`` times one path against the other.
"""

from __future__ import annotations

import os

import numpy as np

_FORCED = os.environ.get("GEMINAL_BACKEND", "").strip().lower()

try:
    if _FORCED == "numpy" or "NUMBA_DISABLE_JIT" in os.environ:
        raise ImportError
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:
    _HAVE_NUMBA = False
    if _FORCED == "numba":
        raise ImportError("GEMINAL_BACKEND=numba but numba is unavailable")

BACKEND = "numba" if _HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# mask helpers (numpy on both backends; these are not hot)
# ---------------------------------------------------------------------------

def popcount(value: int) -> int:
    """Number of set bits of a nonnegative python int."""
    return bin(value).count("1")


def parity_signs(dim: int, mask: int) -> np.ndarray:
    """(-1)**popcount(k & mask) for k in range(dim), as float64."""
    v = np.arange(dim, dtype=np.uint64) & np.uint64(mask)
    v ^= v >> np.uint64(32)
    v ^= v >> np.uint64(16)
    v ^= v >> np.uint64(8)
    v ^= v >> np.uint64(4)
    v ^= v >> np.uint64(2)
    v ^= v >> np.uint64(1)
    return 1.0 - 2.0 * (v & np.uint64(1)).astype(np.float64)


# ---------------------------------------------------------------------------
# numpy reference implementations
# ---------------------------------------------------------------------------

def _np_apply_1q(amps: np.ndarray, m: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
    view[:, 1, :] = m[1, 0] * a0 + m[1, 1] * a1


def _np_apply_1q_batch(amps2: np.ndarray, m: np.ndarray, q: int) -> None:
    view = amps2.reshape(amps2.shape[0], -1, 2, 1 << q)
    a0 = view[:, :, 0, :].copy()
    a1 = view[:, :, 1, :]
    view[:, :, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
    view[:, :, 1, :] = m[1, 0] * a0 + m[1, 1] * a1


def _np_apply_1q_rows(amps2: np.ndarray, rows: np.ndarray, m: np.ndarray, q: int) -> None:
    sub = amps2[rows]
    _np_apply_1q_batch(sub, m, q)
    amps2[rows] = sub


def _np_apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    dim = amps.shape[0]
    k = np.arange(dim)
    sel = ((k >> control) & 1 == 1) & ((k >> target) & 1 == 0)
    src = k[sel]
    dst = src | (1 << target)
    amps[src], amps[dst] = amps[dst].copy(), amps[src].copy()


def _np_apply_cnot_batch(amps2: np.ndarray, control: int, target: int) -> None:
    dim = amps2.shape[1]
    k = np.arange(dim)
    sel = ((k >> control) & 1 == 1) & ((k >> target) & 1 == 0)
    src = k[sel]
    dst = src | (1 << target)
    tmp = amps2[:, src].copy()
    amps2[:, src] = amps2[:, dst]
    amps2[:, dst] = tmp


def _np_sample_rows(probs2: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs2, axis=1)
    # guard against rounding: final column acts as +inf
    cum[:, -1] = np.inf
    return np.argmax(cum > u[:, None], axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:

    @njit(cache=True)
    def _nb_apply_1q(amps, m00, m01, m10, m11, q):  # pragma: no cover - jit
        half = amps.shape[0] >> 1
        step = 1 << q
        low = step - 1
        for i in range(half):
            k0 = ((i & ~low) << 1) | (i & low)
            k1 = k0 | step
            a0 = amps[k0]
            a1 = amps[k1]
            amps[k0] = m00 * a0 + m01 * a1
            amps[k1] = m10 * a0 + m11 * a1

    @njit(cache=True)
    def _nb_apply_1q_batch(amps2, m00, m01, m10, m11, q):  # pragma: no cover
        half = amps2.shape[1] >> 1
        step = 1 << q
        low = step - 1
        for r in range(amps2.shape[0]):
            for i in range(half):
                k0 = ((i & ~low) << 1) | (i & low)
                k1 = k0 | step
                a0 = amps2[r, k0]
                a1 = amps2[r, k1]
                amps2[r, k0] = m00 * a0 + m01 * a1
                amps2[r, k1] = m10 * a0 + m11 * a1

    @njit(cache=True)
    def _nb_apply_1q_rows(amps2, rows, m00, m01, m10, m11, q):  # pragma: no cover
        half = amps2.shape[1] >> 1
        step = 1 << q
        low = step - 1
        for j in range(rows.shape[0]):
            r = rows[j]
            for i in range(half):
                k0 = ((i & ~low) << 1) | (i & low)
                k1 = k0 | step
                a0 = amps2[r, k0]
                a1 = amps2[r, k1]
                amps2[r, k0] = m00 * a0 + m01 * a1
                amps2[r, k1] = m10 * a0 + m11 * a1

    @njit(cache=True)
    def _nb_apply_cnot(amps, control, target):  # pragma: no cover
        dim = amps.shape[0]
        sc = 1 << control
        st = 1 << target
        for k in range(dim):
            if (k & sc) != 0 and (k & st) == 0:
                k1 = k | st
                tmp = amps[k]
                amps[k] = amps[k1]
                amps[k1] = tmp

    @njit(cache=True)
    def _nb_apply_cnot_batch(amps2, control, target):  # pragma: no cover
        dim = amps2.shape[1]
        sc = 1 << control
        st = 1 << target
        for r in range(amps2.shape[0]):
            for k in range(dim):
                if (k & sc) != 0 and (k & st) == 0:
                    k1 = k | st
                    tmp = amps2[r, k]
                    amps2[r, k] = amps2[r, k1]
                    amps2[r, k1] = tmp

    @njit(cache=True)
    def _nb_sample_rows(probs2, u):  # pragma: no cover
        nr, dim = probs2.shape
        out = np.empty(nr, dtype=np.int64)
        for r in range(nr):
            acc = 0.0
            out[r] = dim - 1
            for k in range(dim):
                acc += probs2[r, k]
                if u[r] < acc:
                    out[r] = k
                    break
        return out


# ---------------------------------------------------------------------------
# dispatch layer
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:

    def apply_1q(amps, m, q):
        _nb_apply_1q(amps, m[0, 0], m[0, 1], m[1, 0], m[1, 1], q)

    def apply_1q_batch(amps2, m, q):
        _nb_apply_1q_batch(amps2, m[0, 0], m[0, 1], m[1, 0], m[1, 1], q)

    def apply_1q_rows(amps2, rows, m, q):
        _nb_apply_1q_rows(amps2, rows, m[0, 0], m[0, 1], m[1, 0], m[1, 1], q)

    def apply_cnot(amps, control, target):
        _nb_apply_cnot(amps, control, target)

    def apply_cnot_batch(amps2, control, target):
        _nb_apply_cnot_batch(amps2, control, target)

    def sample_rows(probs2, u):
        return _nb_sample_rows(probs2, u)

else:
    apply_1q = _np_apply_1q
    apply_1q_batch = _np_apply_1q_batch
    apply_1q_rows = _np_apply_1q_rows
    apply_cnot = _np_apply_cnot
    apply_cnot_batch = _np_apply_cnot_batch
    sample_rows = _np_sample_rows
