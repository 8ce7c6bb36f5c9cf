"""Gate rules, outcome tables and the sampler against oracles built independently here.

The production gate rule (``qsim._local_order`` plus ``qsim._apply_local``)
and the trajectory reference's batch kernels are checked row by row
against dense matrices assembled by explicit Kronecker products
(``embed`` and ``dense_cnot`` from the simulator tests), the outcome-bit
and window-sign tables against Python's bit operations, and the sampler
against a per-row ``np.searchsorted`` inverse CDF, so no kernel code
appears on the oracle side.  The import guard keeps the batch kernels
for the trajectory reference alone and the test-side oracles out of the
package.
"""

import ast
from pathlib import Path

import numpy as np

import pauli_reference as pr
from geminal import _kernels as K
from geminal import qsim, tomography
from test_qsim import dense_cnot, embed

PACKAGE = Path(qsim.__file__).parent


def random_batch(rng, nt, n):
    v = rng.normal(size=(nt, 1 << n)) + 1j * rng.normal(size=(nt, 1 << n))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(complex)


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def searchsorted_sample(probs2, u):
    """First outcome whose cumulative probability exceeds u, row by row."""
    out = np.empty(len(u), dtype=np.int64)
    for r, (p, x) in enumerate(zip(probs2, u)):
        cdf = np.cumsum(p)
        out[r] = min(np.searchsorted(cdf, x, side="right"), p.size - 1)
    return out


def test_backend_flag_is_exposed():
    assert K.BACKEND == "numpy"


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import statement names, and each ``from geminal import x`` as geminal.x."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # a relative import inside the package
                base = f"geminal.{base}".rstrip(".")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_import_boundaries():
    # the package never reaches the test-side oracles, and only qsim's
    # trajectory reference reaches the batch kernels
    for path in sorted(PACKAGE.glob("*.py")):
        modules = _imported_modules(ast.parse(path.read_text()))
        parts = {part for name in modules for part in name.split(".")}
        assert not parts & {"tests", "pauli_reference"}, path.name
        if path.stem not in ("qsim", "_kernels"):
            assert "_kernels" not in parts, path.name


def test_parity_signs():
    # every window-sign row is the popcount parity of its four qubits
    for n in (2, 4, 6, 8, 10):
        table = tomography._window_signs(n)
        assert table.shape == (n // 2 - 1, 1 << n) and not table.flags.writeable
        assert tomography._window_signs(n) is table
        for k, row in enumerate(table):
            assert row.tobytes() == pr.parity_signs(1 << n, 0b1111 << (2 * k)).tobytes(), (n, k)


def test_outcome_bits():
    table = qsim.outcome_bits(5)
    assert table.shape == (32, 5) and not table.flags.writeable
    assert qsim.outcome_bits(5) is table
    for k in range(32):
        assert table[k].tolist() == [float((k >> q) & 1) for q in range(5)]


def test_apply_1q_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for n in (1, 3, 5):
        for q in range(n):
            m = random_unitary(rng, 2)
            a = random_batch(rng, 1, n)[0]
            want = embed(m, q, n) @ a
            qsim._apply_local(a, m, qsim._local_order(n, (q,)))
            assert np.allclose(a, want, atol=1e-13), (n, q)


def test_apply_1q_batch_and_rows_agree():
    rng = np.random.default_rng(2)
    n, nt = 4, 9
    for q in range(n):
        m = random_unitary(rng, 2)
        dense = embed(m, q, n)
        a = random_batch(rng, nt, n)
        want = a @ dense.T  # row r becomes dense @ a[r]
        K.apply_1q_batch(a, m, q)
        assert np.allclose(a, want, atol=1e-13), q


def test_apply_cnot_matches_dense_oracle():
    rng = np.random.default_rng(3)
    n = 4
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            dense = dense_cnot(c, t, n)
            a = random_batch(rng, 1, n)[0]
            want = dense @ a
            cx = qsim.Gate("cx", (c, t)).matrix()
            qsim._apply_local(a, cx, qsim._local_order(n, (c, t)))
            assert np.allclose(a, want, atol=1e-14), (c, t)

            a2 = random_batch(rng, 6, n)
            want2 = a2 @ dense.T
            K.apply_cnot_batch(a2, c, t)
            assert np.allclose(a2, want2, atol=1e-14), (c, t)


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
    assert got.tolist() == [2, 0, 3, 2]
    assert np.array_equal(got, searchsorted_sample(probs, u))

    rng = np.random.default_rng(4)
    probs = rng.random((500, 16)) ** 3
    probs[rng.random(probs.shape) < 0.3] = 0.0
    probs[:, 0] += 1e-3  # no all-zero row
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.random(500)
    u[:5] = np.nextafter(1.0, 0.0)  # cumulative sums may stop short of this
    assert np.array_equal(K.sample_rows(probs, u), searchsorted_sample(probs, u))


def test_sample_rows_distribution():
    rng = np.random.default_rng(6)
    probs = np.tile(np.array([[0.5, 0.3, 0.0, 0.2]]), (40000, 1))
    out = K.sample_rows(probs, rng.random(40000))
    freq = np.bincount(out, minlength=4) / 40000
    assert np.allclose(freq, [0.5, 0.3, 0.0, 0.2], atol=0.02)
    assert freq[2] == 0.0
