"""Cross-checks between the two kernel backends.

The dispatch functions (whatever backend is active) are compared against
the pure-numpy reference implementations on random data, so when numba
is active this validates both paths in one process.
"""

import numpy as np
import pytest

from geminal import _kernels as K


def random_batch(rng, nt, n):
    v = rng.normal(size=(nt, 1 << n)) + 1j * rng.normal(size=(nt, 1 << n))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(complex)


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def test_backend_flag_is_exposed():
    assert K.BACKEND in ("numba", "numpy")


def test_parity_signs():
    signs = K.parity_signs(8, 0b101)
    want = [(-1.0) ** bin(k & 0b101).count("1") for k in range(8)]
    assert np.allclose(signs, want)


def test_popcount():
    assert [K.popcount(v) for v in (0, 1, 7, 255, 2**40)] == [0, 1, 3, 8, 1]


def test_apply_1q_backends_agree():
    rng = np.random.default_rng(1)
    for n in (1, 3, 5):
        for q in range(n):
            m = random_unitary(rng, 2)
            a = random_batch(rng, 1, n)[0]
            b = a.copy()
            K.apply_1q(a, m, q)
            K._np_apply_1q(b, m, q)
            assert np.allclose(a, b, atol=1e-13)


def test_apply_1q_batch_and_rows_agree():
    rng = np.random.default_rng(2)
    n, nt = 4, 9
    m = random_unitary(rng, 2)
    a = random_batch(rng, nt, n)
    b = a.copy()
    K.apply_1q_batch(a, m, 2)
    K._np_apply_1q_batch(b, m, 2)
    assert np.allclose(a, b, atol=1e-13)

    rows = np.array([0, 3, 7], dtype=np.int64)
    K.apply_1q_rows(a, rows, m, 1)
    K._np_apply_1q_rows(b, rows, m, 1)
    assert np.allclose(a, b, atol=1e-13)
    # untouched rows stay untouched
    assert np.allclose(a[1], b[1])


def test_apply_cnot_backends_agree():
    rng = np.random.default_rng(3)
    n = 4
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            a = random_batch(rng, 1, n)[0]
            b = a.copy()
            K.apply_cnot(a, c, t)
            K._np_apply_cnot(b, c, t)
            assert np.allclose(a, b, atol=1e-14), (c, t)
    a2 = random_batch(rng, 6, n)
    b2 = a2.copy()
    K.apply_cnot_batch(a2, 3, 0)
    K._np_apply_cnot_batch(b2, 3, 0)
    assert np.allclose(a2, b2, atol=1e-14)


def test_sample_rows_inverse_cdf():
    probs = np.array(
        [
            [0.25, 0.25, 0.25, 0.25],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.1, 0.2, 0.3, 0.4],
        ]
    )
    u = np.array([0.6, 0.999, 0.0, 0.35])
    got = K.sample_rows(probs, u)
    ref = K._np_sample_rows(probs, u)
    assert np.array_equal(got, ref)
    assert got.tolist() == [2, 0, 3, 2]


def test_sample_rows_distribution():
    rng = np.random.default_rng(6)
    probs = np.tile(np.array([[0.5, 0.3, 0.0, 0.2]]), (40000, 1))
    out = K.sample_rows(probs, rng.random(40000))
    freq = np.bincount(out, minlength=4) / 40000
    assert np.allclose(freq, [0.5, 0.3, 0.0, 0.2], atol=0.02)
    assert freq[2] == 0.0
