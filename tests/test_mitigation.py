"""Symmetry filtering, polytope projection, and scan metrics.

The closed-form Euclidean projector is cross-checked against a
face-enumeration oracle kept here (always run) and an independent convex
solver (cvxpy, skipped when absent), and the affine calibration against
constructed synthetic corruptions with known ground truth.
"""

import itertools

import numpy as np
import pytest

from geminal import ansatz, mitigation, qsim, tomography
from geminal.mitigation import (
    AffineMap,
    bootstrap_v_interval,
    estimate_affine_map,
    hull_area_ratio,
    polytope_vertices,
    project_polytope,
    scan_angles,
    symmetry_verify,
    v_metric,
    vertex_scan_angles,
)
from geminal.qsim import ShotHistogram


def ideal_sorted_occupations(t, r):
    return np.sort(ansatz.givens_chain_amplitudes(np.asarray(t, float), r) ** 2)[::-1]


def histogram(n_qubits, shots, counts: dict) -> ShotHistogram:
    dense = np.zeros(1 << n_qubits, dtype=np.int64)
    for k, c in counts.items():
        dense[k] = c
    return ShotHistogram(n_qubits, shots, dense)


def face_enumeration_projection(point: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Euclidean projection onto conv(vertices) by face enumeration.

    Every active set of the optimum appears among vertex subsets, and r
    stays small here, so checking all 2^r - 1 subsets is exact and
    cheap.  Each subset gives an equality-constrained least-squares
    candidate, kept only if its barycentric weights are nonnegative.
    """
    r = vertices.shape[0]
    best = None
    best_dist = np.inf
    for size in range(1, r + 1):
        for subset in itertools.combinations(range(r), size):
            v = vertices[list(subset)]
            gram = v @ v.T
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = gram
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.append(v @ point, 1.0)
            try:
                lam = np.linalg.solve(kkt, rhs)[:size]
            except np.linalg.LinAlgError:
                continue
            if np.any(lam < -1e-10):
                continue
            cand = lam @ v
            dist = np.linalg.norm(cand - point)
            if dist < best_dist - 1e-15:
                best_dist = dist
                best = cand
    assert best is not None  # singletons always qualify
    return best


def reference_symmetry_verify(counts: dict, shots: int, check_n=True, check_sz=True):
    """Dict-loop filter, the sparse form the dense record replaced."""
    kept = {}
    for key, cnt in counts.items():
        na = bin(key & 0x5555555555555555).count("1")
        nb = bin(key & 0xAAAAAAAAAAAAAAAA).count("1")
        if check_n and na + nb != 2:
            continue
        if check_sz and na != nb:
            continue
        kept[key] = cnt
    retained = sum(kept.values())
    return kept, retained, retained / shots


class TestSymmetryVerify:
    def test_filter_counts(self):
        # 0b0011 keeps both filters, 0b0001 fails N, 0b0101 (two alphas)
        # passes N but fails Sz
        hist = histogram(4, 1024, {0b0011: 700, 0b0001: 200, 0b0101: 124})
        filt_n, frac_n = symmetry_verify(hist, ("N",))
        assert filt_n == histogram(4, 824, {0b0011: 700, 0b0101: 124})
        assert frac_n == pytest.approx(824 / 1024)
        filt_both, frac_both = symmetry_verify(hist, ("N", "Sz"))
        assert filt_both == histogram(4, 700, {0b0011: 700})
        assert frac_both == pytest.approx(700 / 1024)
        assert filt_both.shots == 700

    def test_no_symmetry_keeps_the_record(self):
        hist = histogram(4, 30, {0b0001: 10, 0b0011: 20})
        assert symmetry_verify(hist, ()) == (hist, 1.0)

    def test_unknown_symmetry_raises(self):
        hist = histogram(4, 30, {0b0011: 30})
        with pytest.raises(ValueError, match="unknown symmetries"):
            symmetry_verify(hist, ("N", "n"))

    def test_sz_only_keeps_balanced_outcomes(self):
        hist = histogram(4, 30, {0b0000: 10, 0b1111: 10, 0b0101: 10})
        filt, frac = symmetry_verify(hist, ("Sz",))
        assert set(np.flatnonzero(filt.counts)) == {0b0000, 0b1111}
        assert frac == pytest.approx(2 / 3)

    def test_soundness_random_histogram(self):
        rng = np.random.default_rng(0)
        counts = {int(k): 1 for k in rng.integers(0, 2**6, size=200)}
        hist = histogram(6, len(counts), counts)
        filt, _ = symmetry_verify(hist, ("N", "Sz"))
        for key in np.flatnonzero(filt.counts):
            alpha = bin(key & 0b010101).count("1")
            beta = bin(key & 0b101010).count("1")
            assert alpha + beta == 2
            assert alpha == beta

    def test_dense_filter_equals_dict_reference(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            for _ in range(20):
                keys = rng.integers(0, 1 << n, size=rng.integers(1, 16))
                counts = {int(k): int(rng.integers(1, 5000)) for k in keys}
                shots = sum(counts.values())
                for symmetries in (("N", "Sz"), ("N",), ("Sz",)):
                    kept, retained, frac = reference_symmetry_verify(
                        counts, shots, "N" in symmetries, "Sz" in symmetries
                    )
                    hist = histogram(n, shots, counts)
                    if retained == 0:
                        with pytest.raises(ValueError, match="rejected"):
                            symmetry_verify(hist, symmetries)
                        continue
                    filt, got_frac = symmetry_verify(hist, symmetries)
                    assert filt == histogram(n, retained, kept)
                    assert got_frac == frac

    def test_noiseless_ansatz_retains_everything(self):
        circuit = ansatz.build_ansatz_circuit(3, np.array([-1.0, 0.4]))
        probs = qsim.run_circuit(circuit).probabilities()
        hist = qsim.sample(probs, 2048, qsim.make_rng(1, qsim.SHOT_KEY, 0))
        _, frac = symmetry_verify(hist, ("N", "Sz"))
        assert frac == 1.0

    def test_all_rejected_raises(self):
        hist = histogram(4, 5, {0b0001: 5})
        with pytest.raises(ValueError, match="rejected"):
            symmetry_verify(hist, ("N", "Sz"))

    def test_exact_noisy_record_keeps_and_renormalises_its_allowed_weight(self):
        circuit = ansatz.build_ansatz_circuit(2, np.array([-0.8]))
        noise = qsim.NoiseModel.from_calibration(qsim.load_calibration("ibm-5"), 4)
        record = tomography.measure(qsim.run_density(circuit, noise).probabilities(), None)
        # one alpha (even qubit) and one beta (odd qubit) electron
        allowed = [0b0011, 0b0110, 0b1001, 0b1100]
        kept = record.counts[allowed]
        filt, frac = symmetry_verify(record, ("N", "Sz"))
        assert frac == pytest.approx(kept.sum() / record.counts.sum(), rel=1e-12)
        assert 0.0 < frac < 1.0  # noise leaks weight out of the paired sector
        assert filt.shots is None
        np.testing.assert_allclose(filt.counts[allowed], kept / frac, rtol=1e-12)
        assert not np.delete(filt.counts, allowed).any()
        assert filt.counts.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(mitigation.AllShotsRejectedError):
            symmetry_verify(ShotHistogram(4, None, np.eye(16)[0b0001]), ("N", "Sz"))


class TestPolytopeVertices:
    def test_r2_and_r3_vertices(self):
        np.testing.assert_array_equal(
            polytope_vertices(2), [[1.0, 0.0], [0.5, 0.5]]
        )
        np.testing.assert_allclose(
            polytope_vertices(3),
            [[1, 0, 0], [0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3]],
            atol=1e-15,
        )

    def test_vertices_sum_to_one(self):
        for r in range(1, 7):
            np.testing.assert_allclose(polytope_vertices(r).sum(axis=1), 1.0)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            polytope_vertices(0)


class TestAffineMap:
    def make_scan(self, r, n_extra=9, seed=3):
        rng = np.random.default_rng(seed)
        angles = list(vertex_scan_angles(r))
        angles += [rng.uniform(-np.pi, 0, size=r - 1) for _ in range(n_extra)]
        ideal = np.array([ideal_sorted_occupations(a, r) for a in angles])
        return angles, ideal

    def test_vertex_scan_angles_hit_vertices(self):
        for r in (2, 3, 4):
            verts = polytope_vertices(r)
            for j, t in enumerate(vertex_scan_angles(r)):
                np.testing.assert_allclose(
                    ideal_sorted_occupations(t, r), verts[j], atol=1e-12
                )

    def test_noiseless_scan_gives_identity_action(self):
        for r in (2, 3):
            angles, ideal = self.make_scan(r)
            amap = estimate_affine_map(angles, ideal, r)
            for x in ideal:
                np.testing.assert_allclose(amap(x), x, atol=1e-6)
            assert amap.rms_residual < 1e-6

    def test_synthetic_contraction_recovered(self):
        for r in (2, 3):
            angles, ideal = self.make_scan(r)
            measured = 0.5 + 0.6 * (ideal - 0.5)
            amap = estimate_affine_map(angles, measured, r)
            for m, x in zip(measured, ideal):
                np.testing.assert_allclose(amap(m), x, atol=1e-6)

    def test_degenerate_scan_rejected(self):
        angles = [np.zeros(1)] * 5
        measured = np.tile([0.7, 0.3], (5, 1))
        with pytest.raises(ValueError, match="degenerate"):
            estimate_affine_map(angles, measured, 2)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            estimate_affine_map([np.zeros(1)], np.zeros((1, 3)), 2)
        with pytest.raises(ValueError, match="per scan point"):
            estimate_affine_map([np.zeros(1)], np.zeros((2, 2)), 2)


class TestProjection:
    def test_vertices_unchanged(self):
        for r in range(1, 9):
            for v in polytope_vertices(r):
                res = project_polytope(v)
                np.testing.assert_allclose(res.occupations, v, atol=1e-12)
                assert not res.changed
                assert res.distance < 1e-12

    def test_matches_face_enumeration(self):
        # sorted, tied, and affine-unsorted inputs for r = 1..8
        rng = np.random.default_rng(29)
        worst = 0.0
        unsorted = 0
        for r in range(1, 9):
            verts = polytope_vertices(r)
            for _ in range(40):
                # a shuffled, perturbed identity unsorts the sorted input
                matrix = rng.permutation(np.eye(r)) + rng.normal(0.0, 0.2, size=(r, r))
                cases = [
                    (rng.normal(0.3, 0.6, size=r), None),
                    (rng.choice([0.6, 0.25, 0.0, -0.1], size=r), None),
                    (rng.normal(0.3, 0.6, size=r), AffineMap(matrix, rng.normal(0.0, 0.1, size=r))),
                ]
                for point, amap in cases:
                    order = np.argsort(-point, kind="stable")
                    target = point[order] if amap is None else amap(point[order])
                    unsorted += bool(np.any(np.diff(target) > 0))
                    expected = np.empty(r)
                    expected[order] = face_enumeration_projection(target, verts)
                    ours = project_polytope(point, affine=amap).occupations
                    worst = max(worst, np.abs(ours - expected).max())
        assert unsorted > 200  # of 320 mapped inputs, so pooling is exercised
        assert worst <= 1e-12

    def test_clamp_to_nearest_vertex(self):
        res = project_polytope(np.array([1.05, -0.05]))
        np.testing.assert_allclose(res.occupations, [1.0, 0.0], atol=1e-12)
        assert res.changed

    def test_idempotent_on_random_points(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            p = rng.normal(0.3, 0.6, size=3)
            first = project_polytope(p)
            second = project_polytope(first.occupations)
            np.testing.assert_allclose(
                second.occupations, first.occupations, atol=1e-12
            )
            assert not second.changed

    def test_output_feasible(self):
        rng = np.random.default_rng(23)
        for r in (2, 3, 4):
            for _ in range(100):
                out = project_polytope(rng.normal(0.3, 0.8, size=r)).occupations
                s = np.sort(out)[::-1]
                assert s[-1] >= -1e-10
                assert abs(s.sum() - 1.0) < 1e-10
                assert np.all(np.diff(s) <= 1e-12)

    def test_matches_convex_solver(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(11)
        for r in (3, 4):
            verts = polytope_vertices(r)
            for _ in range(15):
                p = rng.normal(0.3, 0.6, size=r)
                lam = cp.Variable(r, nonneg=True)
                x = verts.T @ lam
                target = np.sort(p)[::-1]
                problem = cp.Problem(
                    cp.Minimize(cp.sum_squares(x - target)), [cp.sum(lam) == 1]
                )
                problem.solve(solver=cp.CLARABEL)
                ours = np.sort(project_polytope(p).occupations)[::-1]
                np.testing.assert_allclose(ours, x.value, atol=5e-6)

    def test_orbital_order_restored(self):
        p = np.array([0.1, 0.85, 0.15])
        res = project_polytope(p)
        # second orbital got the largest raw occupation, so it must keep
        # the largest projected occupation
        assert np.argmax(res.occupations) == 1
        np.testing.assert_allclose(
            np.sort(res.occupations),
            np.sort(project_polytope(np.sort(p)).occupations),
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "raw", [[np.nan], [np.nan, 0.5], [0.7, np.inf, 0.1], [0.5, np.nan], [0.2, 0.3, np.nan]]
    )
    def test_non_finite_occupations_raise(self, raw):
        # a NaN or an infinity first after the sort, or further along
        with pytest.raises(ValueError, match="non-finite occupations"):
            project_polytope(np.array(raw))

    def test_affine_applied_before_projection(self):
        ident = AffineMap(np.eye(2) / 0.6, np.full(2, 0.5 - 0.5 / 0.6))
        vertex = np.array([1.0, 0.0])
        contracted = 0.5 + 0.6 * (vertex - 0.5)
        res = project_polytope(contracted, affine=ident)
        np.testing.assert_allclose(res.occupations, vertex, atol=1e-10)


class TestScanMetrics:
    def test_default_grid(self):
        grid = scan_angles()
        assert grid.size == 11
        assert grid[0] == pytest.approx(-np.pi)
        assert grid[-1] == 0.0
        np.testing.assert_allclose(np.diff(grid), np.pi / 10, atol=1e-12)

    def test_ideal_v_is_two(self):
        # analytic: integral of |cos 2t| over [-pi, 0] equals 2 exactly
        fine = np.linspace(-np.pi, 0, 20001)
        v = v_metric(fine, np.cos(fine) ** 2, np.sin(fine) ** 2)
        assert v == pytest.approx(2.0, abs=1e-6)
        # the default 11-point grid overestimates slightly at the kinks
        # but stays within the 0.05 calibration band
        grid = scan_angles()
        v_grid = v_metric(grid, np.cos(grid) ** 2, np.sin(grid) ** 2)
        assert v_grid == pytest.approx(2.0, abs=0.05)

    def test_decohered_v_is_zero(self):
        grid = scan_angles()
        assert v_metric(grid, np.full(11, 0.5), np.full(11, 0.5)) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="length"):
            v_metric(scan_angles(), np.zeros(11), np.zeros(10))
        with pytest.raises(ValueError, match="3 points"):
            v_metric(np.array([0.0, 1.0]), np.zeros(2), np.ones(2))

    def test_bootstrap_interval(self):
        grid = scan_angles()
        n1, n2 = np.cos(grid) ** 2, np.sin(grid) ** 2
        v, lo, hi = bootstrap_v_interval(grid, n1, n2, shots=2048, seed=4)
        assert lo <= v <= hi
        # noiseless CI half-width stays small at 2^11 shots
        assert (hi - lo) / 2 <= 0.05
        again = bootstrap_v_interval(grid, n1, n2, shots=2048, seed=4)
        assert (v, lo, hi) == again
        assert bootstrap_v_interval(grid, n1, n2, shots=None) == (v, v, v)

    def test_bootstrap_interval_of_equal_curves_contains_zero(self):
        # every resample of two equal curves has V > 0; the bias shift undoes that
        grid = scan_angles()
        half = np.full(grid.size, 0.5)
        v, lo, hi = bootstrap_v_interval(grid, half, half, shots=2048, seed=4)
        assert v == lo == 0.0 < hi

    def test_hull_area_ratio_contraction(self):
        grid = scan_angles()
        pts = []
        for t0 in grid:
            for t1 in grid:
                pts.append(ideal_sorted_occupations([t0, t1], 3)[:2])
        pts = np.array(pts)
        centroid = pts.mean(axis=0)
        shrunk = centroid + 0.7 * (pts - centroid)
        assert hull_area_ratio(shrunk, pts) == pytest.approx(0.49, abs=1e-9)
        assert hull_area_ratio(pts, pts) == pytest.approx(1.0, abs=1e-12)

    def test_hull_area_ratio_matches_scipy_convex_hull(self):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(12)
        for size in (3, 4, 7, 30, 121):
            for _ in range(20):
                measured = rng.normal(0.5, 0.2, size=(size, 2))
                ideal = rng.uniform(0.0, 1.0, size=(size + 2, 2))
                # scipy's 2D convention: .volume is the area
                want = ConvexHull(measured).volume / ConvexHull(ideal).volume
                assert hull_area_ratio(measured, ideal) == pytest.approx(want, rel=1e-12)

    def test_hull_area_ratio_needs_an_ideal_area(self):
        with pytest.raises(ValueError, match="span no area"):
            hull_area_ratio(np.eye(2), np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]))

    @pytest.mark.parametrize(
        "measured",
        [[[0.5, 0.5]] * 4, [[0.2, 0.1], [0.4, 0.2], [0.6, 0.3]]],
        ids=["one-point", "collinear"],
    )
    def test_hull_area_ratio_is_zero_for_arealess_points(self, measured):
        ideal = np.array([[1.0, 0.0], [0.5, 0.5], [0.4, 0.3]])
        assert hull_area_ratio(np.array(measured), ideal) == 0.0
