"""Error mitigation: symmetry filtering and occupation-polytope projection.

Mitigation works on measurement records only, never on amplitudes.
Symmetry verification discards Z-basis shots that violate conserved
quantities (electron count, spin projection).  Polytope projection maps
measured pair occupations to the nearest point of the convex hull of
the ideal occupation vertices

    v_j = (1/j, ..., 1/j, 0, ..., 0),   j = 1..r,

which is exactly the set of occupation vectors reachable by the paired
ansatz after sorting in descending order: the ordered simplex
{n_1 >= ... >= n_r >= 0, sum n = 1}, onto which the projection is closed
form.  An optional affine map, fitted against ideal scan curves, absorbs
systematic shot-independent distortion before projecting.

The dissociation-style figure of merit for mitigation quality is the
integrated occupation splitting V = trapezoid of |n_2 - n_1| over a
rotation-angle grid; its ideal value on the standard grid is 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from geminal import qsim
from geminal.qsim import ShotHistogram


class AllShotsRejectedError(ValueError):
    """Raised when the symmetry filters leave no shot of a record."""


def symmetry_verify(
    hist: ShotHistogram, symmetries: tuple[str, ...]
) -> tuple[ShotHistogram, float]:
    """Drop shots violating the listed symmetries, 'N' and 'Sz'.

    N keeps outcomes with exactly two set bits (the electron pair); Sz
    keeps outcomes with equal alpha (even qubit) and beta (odd qubit)
    counts.  Returns the filtered record and the retained fraction of
    its weight, ``(hist, 1.0)`` for no symmetry; raises
    AllShotsRejectedError when none is kept.  Sampled and exact records
    are filtered alike; an exact record (``shots=None``) is renormalised
    to total weight 1.
    """
    if not symmetries:
        return hist, 1.0
    kept = np.where(_allowed_outcomes(hist.n_qubits, tuple(symmetries)), hist.counts, 0)
    weight = np.add.reduce(kept)  # what kept.sum() computes, without its Python wrapper
    if weight <= 0:
        raise AllShotsRejectedError("symmetry filters rejected every shot")
    if hist.shots is None:
        fraction = float(weight / np.add.reduce(hist.counts))
        return ShotHistogram(hist.n_qubits, None, kept / fraction), fraction
    weight = int(weight)
    return ShotHistogram(hist.n_qubits, weight, kept), weight / hist.shots


@functools.lru_cache(maxsize=16)
def _allowed_outcomes(n_qubits: int, symmetries: tuple[str, ...]) -> np.ndarray:
    """Read-only mask of the outcomes the N and Sz filters in ``symmetries`` keep."""
    unknown = set(symmetries) - {"N", "Sz"}
    if unknown:
        raise ValueError(f"unknown symmetries {sorted(unknown)}; expected 'N' or 'Sz'")
    bits = qsim.outcome_bits(n_qubits)
    n_alpha, n_beta = bits[:, 0::2].sum(axis=1), bits[:, 1::2].sum(axis=1)
    keep = np.ones(bits.shape[0], dtype=bool)
    if "N" in symmetries:
        keep &= n_alpha + n_beta == 2
    if "Sz" in symmetries:
        keep &= n_alpha == n_beta
    keep.flags.writeable = False  # shared by every cached call
    return keep


# ---------------------------------------------------------------------------
# occupation polytope
# ---------------------------------------------------------------------------

def polytope_vertices(r: int) -> np.ndarray:
    """Vertices of the sorted-occupation polytope, one per row."""
    if r < 1:
        raise ValueError("need at least one orbital")
    v = np.zeros((r, r))
    for j in range(1, r + 1):
        v[j - 1, :j] = 1.0 / j
    return v


@dataclass(frozen=True)
class AffineMap:
    matrix: np.ndarray
    offset: np.ndarray
    rms_residual: float = 0.0
    max_residual: float = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x + self.offset


def vertex_scan_angles(r: int) -> np.ndarray:
    """Rotation-angle vectors whose ideal occupations hit each vertex.

    Row j-1 targets v_j: the first j occupations equal 1/j, which the
    amplitude chain reaches with cos^2 t_i = 1/(j-i) for i < j-1 and
    zero afterwards.  Angles are placed in [-pi/2, 0] so a calibration
    scan can splice them into the standard grid.
    """
    if r == 1:
        return np.zeros((1, 0))
    angles = np.zeros((r, r - 1))
    for j in range(1, r + 1):
        for i in range(j - 1):
            angles[j - 1, i] = -np.arccos(1.0 / np.sqrt(j - i))
    return angles


def estimate_affine_map(scan_angles, measured: np.ndarray, r: int) -> AffineMap:
    """Least-squares affine correction fitted against ideal scan curves.

    ``scan_angles`` holds one rotation-angle vector per scan point and
    ``measured`` the matching sorted occupation half-sets, shape (m, r).
    The scan should include the vertex-hitting angle vectors from
    ``vertex_scan_angles`` so every polytope vertex anchors the fit.
    Noiseless scans are rank deficient by one (occupations sum to 1),
    so the minimum-norm solution is taken; a scan whose points are
    affinely dependent does not determine the map at all and raises.
    """
    from geminal.ansatz import givens_chain_amplitudes

    measured = np.asarray(measured, dtype=float)
    if measured.ndim != 2 or measured.shape[1] != r:
        raise ValueError("measured scan must have shape (m, r)")
    m = measured.shape[0]
    if len(scan_angles) != m:
        raise ValueError("one angle vector is needed per scan point")
    ideal = np.empty((m, r))
    for i, t in enumerate(scan_angles):
        amps = givens_chain_amplitudes(np.asarray(t, dtype=float), r)
        ideal[i] = np.sort(amps**2)[::-1]
    design = np.hstack([measured, np.ones((m, 1))])
    sol, _, rank, _ = np.linalg.lstsq(design, ideal, rcond=None)
    if rank < r:
        raise ValueError("scan is degenerate; affine map is not identifiable")
    resid = design @ sol - ideal
    rms = float(np.sqrt(np.mean(resid**2)))
    return AffineMap(
        sol[:r].T.copy(), sol[r].copy(), rms, float(np.max(np.abs(resid)))
    )


@dataclass
class ProjectionResult:
    """Projected occupations, and how far projection moved them from ``raw``.

    ``raw`` holds the input occupations as Python floats.  ``distance``
    and ``changed`` are worked out when read, so a caller that reads only
    the occupations, as an objective evaluation does, forms no difference.
    """

    occupations: np.ndarray
    raw: tuple[float, ...] = field(repr=False)

    @property
    def distance(self) -> float:
        diff = self.occupations - np.array(self.raw)
        return math.sqrt(diff.dot(diff))  # np.linalg.norm's formula

    @property
    def changed(self) -> bool:
        return self.distance > 1e-12


def _pool_adjacent_violators(point: list[float]) -> list[float]:
    """The nearest non-increasing vector to ``point`` (Best & Chakravarti 1990), on Python floats."""
    sums, counts = [], []
    for value in point:
        total, count = value, 1
        while sums and sums[-1] * count < total * counts[-1]:
            total += sums.pop()
            count += counts.pop()
        sums.append(total)
        counts.append(count)
    if len(sums) < len(point):
        point = [total / count for total, count in zip(sums, counts) for _ in range(count)]
    return point


def _project_onto_hull(point: list[float]) -> list[float]:
    """Euclidean projection of a non-increasing ``point`` onto conv{v_j}, the ordered simplex.

    A common shift and clipping at zero keep the order, so the sorted probability-simplex
    threshold is the projection (Condat 2016): tau_k = (y_1 + ... + y_k - 1) / k, rho is the
    last k with y_k > tau_k, and the result is max(y - tau_rho, 0).  It runs on Python floats,
    which beat numpy at r <= 5, in one pass over y with the operations of the vector formulas
    in their order: the partial sums run left to right like ``np.cumsum`` (from 0.0, which
    changes at most the sign of a zero sum and so no tau), and the clip maps -0.0 to 0.0 like
    ``np.maximum(d, 0.0)``, so every bit equals the numpy result.
    """
    total = 0.0
    for k, value in enumerate(point, 1):
        total += value
        tau = (total - 1.0) / k
        if value > tau:
            tau_rho = tau
    return [d if (d := value - tau_rho) > 0.0 else 0.0 for value in point]


def project_polytope(
    n_raw: np.ndarray, affine: AffineMap | None = None
) -> ProjectionResult:
    """Map raw pair occupations to the nearest physical occupation vector.

    The input is sorted descending (stably), optionally affine-corrected,
    then projected onto the sorted-occupation hull; the result is returned
    in the original orbital order.  Feasible inputs pass through
    unchanged, so the map is idempotent.  Sorting and the projection run
    on Python floats, with the operations and order of numpy's
    ``argsort(-n, kind="stable")`` and of the vector formulas, so the
    result is bit for bit the numpy one (a list is read as it stands).  A
    NaN or infinite occupation has no nearest physical vector and raises ValueError.
    """
    values = n_raw if type(n_raw) is list else np.asarray(n_raw, dtype=float).tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"cannot project non-finite occupations {values}")
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    sorted_n = [values[i] for i in order]
    if affine is not None:  # the one step that can unsort the sorted input
        sorted_n = _pool_adjacent_violators(affine(np.array(sorted_n)).tolist())
    out = [0.0] * len(values)
    for i, value in zip(order, _project_onto_hull(sorted_n)):
        out[i] = value
    return ProjectionResult(np.array(out), tuple(values))


# ---------------------------------------------------------------------------
# scan metrics
# ---------------------------------------------------------------------------

SCAN_POINTS = 11  # angles per axis of the standard scan grid
BOOTSTRAP_RESAMPLES = 1000  # resampled curves behind each V interval


def scan_angles() -> np.ndarray:
    """Standard rotation-angle grid from -pi to 0, SCAN_POINTS angles."""
    return np.linspace(-np.pi, 0.0, SCAN_POINTS)


def v_metric(angles: np.ndarray, n1: np.ndarray, n2: np.ndarray) -> float:
    """Integrated occupation splitting over a scan; 2.0 when ideal."""
    angles = np.asarray(angles, dtype=float)
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    if not (angles.shape == n1.shape == n2.shape):
        raise ValueError("angle grid and occupation curves disagree in length")
    if angles.size < 3:
        raise ValueError("scan needs at least 3 points")
    return float(np.trapezoid(np.abs(n2 - n1), angles))


def bootstrap_v_interval(
    angles: np.ndarray,
    n1: np.ndarray,
    n2: np.ndarray,
    shots: int | None,
    seed: int = 0,
) -> tuple[float, float, float]:
    """V with a binomial-resampling 95 percent confidence interval.

    Each occupation estimate is treated as a proportion over ``shots``
    effective shots; BOOTSTRAP_RESAMPLES resampled curves feed the same
    V integral.  The resampled values are shifted by their bias,
    mean - V, which |n2 - n1| >= 0 makes positive, and the interval is
    clipped at 0.  Exact estimates (``shots=None``) give the interval
    (V, V).
    """
    n1 = np.clip(np.asarray(n1, dtype=float), 0.0, 1.0)
    n2 = np.clip(np.asarray(n2, dtype=float), 0.0, 1.0)
    v = v_metric(angles, n1, n2)
    if shots is None:
        return v, v, v
    rng = qsim.make_rng(seed, qsim.BOOTSTRAP_KEY)
    draws1 = rng.binomial(shots, n1, size=(BOOTSTRAP_RESAMPLES, n1.size)) / shots
    draws2 = rng.binomial(shots, n2, size=(BOOTSTRAP_RESAMPLES, n2.size)) / shots
    vals = np.trapezoid(np.abs(draws2 - draws1), np.asarray(angles), axis=1)
    lo, hi = np.maximum(np.percentile(vals - (vals.mean() - v), [2.5, 97.5]), 0.0)
    return v, float(lo), float(hi)


def _hull_area(points: np.ndarray) -> float:
    """Area of the convex hull of 2-D points; 0.0 when they span no area.

    Monotone chain (Andrew 1979) gives the hull in counter-clockwise
    order and the shoelace formula its area.  An area within rounding of
    zero, relative to the squared extent of the points, counts as none.
    """
    pts = sorted(set(map(tuple, np.asarray(points, dtype=float).tolist())))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(reversed(pts))
    if len(hull) < 3:
        return 0.0
    x, y = np.array(hull).T
    area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    extent = max(np.ptp(x), np.ptp(y))
    return float(area) if area > 1e-12 * extent * extent else 0.0


def hull_area_ratio(points: np.ndarray, ideal_points: np.ndarray) -> float:
    """Area of the measured 2D scan hull relative to the ideal hull.

    Measured points that span no area (all on one line or one point)
    give 0.0; ideal points that span none raise ValueError.
    """
    ideal = _hull_area(ideal_points)
    if ideal == 0.0:
        raise ValueError("the ideal scan points span no area")
    return _hull_area(points) / ideal
