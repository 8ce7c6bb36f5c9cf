"""Minimal ab initio layer for two-electron systems in an s-type basis.

Everything downstream (ansatz, tomography, hybrid loop) consumes the
objects built here: molecular geometries, STO-3G integrals over contracted
s Gaussians, a restricted Hartree-Fock solver, and a dense full-CI solver
specialised to exactly two electrons.  All quantities are in Hartree
atomic units; distances are bohr.

Two-electron repulsion integrals follow the chemists' convention
``eri[p, q, r, s] = (pq|rs)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ELEMENT_CHARGES = {"H": 1, "HE": 2}

# STO-3G s-shell exponents and shared contraction coefficients
STO3G_EXPONENTS = {
    "H": (3.42525091, 0.62391373, 0.16885540),
    "HE": (6.36242139, 1.15892300, 0.31364979),
}
STO3G_COEFFS = (0.15432897, 0.53532814, 0.44463454)


class GeometryError(ValueError):
    """Raised for malformed geometry text, unsupported elements, or unusable nuclei."""


# Primitive-pair centres lose absolute precision with the coordinates: H2's
# |h_BB - h_AA| is 0 at 1e6 bohr, 2.5e-9 Ha at 1e12, 0.49 Ha at 1e18.
MAX_COORDINATE_BOHR = 1e6


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Molecule:
    """A set of point nuclei with a total charge.

    ``coords`` is an (n_atoms, 3) array in bohr.  ``label`` is free-form
    text carried through to output headers.  Non-finite coordinates,
    coordinates beyond ``MAX_COORDINATE_BOHR`` and coincident nuclei
    raise GeometryError.
    """

    symbols: tuple[str, ...]
    coords: np.ndarray
    charge: int = 0
    label: str = ""

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        name = self.label or "molecule"
        if not np.all(np.isfinite(coords)):
            raise GeometryError(f"non-finite nuclear coordinates in {name}")
        if np.any(np.abs(coords) > MAX_COORDINATE_BOHR):
            raise GeometryError(f"nuclear coordinates beyond {MAX_COORDINATE_BOHR:g} bohr in {name}")
        for a in range(self.n_atoms):
            for b in range(a + 1, self.n_atoms):
                if np.array_equal(coords[a], coords[b]):
                    raise GeometryError(f"atoms {a} and {b} coincide in {name}")

    @property
    def n_atoms(self) -> int:
        return len(self.symbols)

    @property
    def n_electrons(self) -> int:
        return sum(ELEMENT_CHARGES[s] for s in self.symbols) - self.charge

    def nuclear_repulsion(self) -> float:
        e = 0.0
        for a in range(self.n_atoms):
            za = ELEMENT_CHARGES[self.symbols[a]]
            for b in range(a + 1, self.n_atoms):
                zb = ELEMENT_CHARGES[self.symbols[b]]
                e += za * zb / float(np.linalg.norm(self.coords[a] - self.coords[b]))
        return e


def parse_geometry(text: str) -> Molecule:
    """Parse geometry text into a :class:`Molecule`.

    Format: one atom per line as ``element x y z`` (coordinates in bohr),
    with optional ``charge <int>`` and ``label <text>`` header lines.
    Blank lines and ``#`` comments are ignored.
    """
    symbols: list[str] = []
    rows: list[list[float]] = []
    charge = 0
    label = ""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].upper()
        if key == "CHARGE":
            try:
                (charge,) = [int(v) for v in parts[1:]]
            except ValueError:
                raise GeometryError(f"line {ln}: charge takes one integer") from None
        elif key == "LABEL":
            label = line.split(None, 1)[1] if len(parts) > 1 else ""
        else:
            if key not in ELEMENT_CHARGES:
                raise GeometryError(f"line {ln}: unsupported element {parts[0]!r}")
            if len(parts) != 4:
                raise GeometryError(f"line {ln}: expected 'element x y z'")
            try:
                rows.append([float(v) for v in parts[1:4]])
            except ValueError:
                raise GeometryError(f"line {ln}: coordinates must be numbers") from None
            symbols.append(key)
    if not symbols:
        raise GeometryError("geometry contains no atoms")
    return Molecule(tuple(symbols), np.array(rows, dtype=float), charge, label)


def h2_molecule(bond_length: float) -> Molecule:
    """H2 along the z axis at the given separation in bohr."""
    coords = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, bond_length]])
    return Molecule(("H", "H"), coords, 0, f"H2 R={bond_length:g}")


def h3plus_molecule(side: float) -> Molecule:
    """Equilateral H3+ with the given side length in bohr."""
    h = side * math.sqrt(3.0) / 2.0
    coords = np.array(
        [[0.0, 0.0, 0.0], [side, 0.0, 0.0], [side / 2.0, h, 0.0]]
    )
    return Molecule(("H", "H", "H"), coords, 1, f"H3+ a={side:g}")


# ---------------------------------------------------------------------------
# Boys function
# ---------------------------------------------------------------------------

def boys_function(x: float) -> float:
    """Zeroth-order Boys function F_0(x) = int_0^1 exp(-x t^2) dt.

    F_0 is the only order an integral over s Gaussians needs.  Series
    evaluation below the crossover keeps every term positive, so there
    is no cancellation; above it F_0 = (1/2) sqrt(pi/x) erf(sqrt(x)).
    """
    if x < 0.0:
        raise ValueError("boys_function requires x >= 0")
    if x < 40.0:
        # F_0(x) = e^-x * sum_k (2x)^k / (1 * 3 * 5 * ... * (2k+1))
        term = 1.0
        acc = term
        k = 0
        while term > 1e-17 * acc:
            term *= 2.0 * x / (2 * k + 3)
            acc += term
            k += 1
        return math.exp(-x) * acc
    return 0.5 * math.sqrt(math.pi / x) * math.erf(math.sqrt(x))


# ---------------------------------------------------------------------------
# integrals over contracted s Gaussians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisFunction:
    """Contracted s-type Gaussian: sum_i c_i (2a_i/pi)^(3/4) exp(-a_i r^2)."""

    center: np.ndarray
    exponents: np.ndarray
    coeffs: np.ndarray  # includes primitive norms and contraction rescaling


def build_basis(molecule: Molecule) -> list[BasisFunction]:
    """One contracted s function per atom, renormalised to unit self-overlap."""
    funcs = []
    for sym, center in zip(molecule.symbols, molecule.coords):
        alpha = np.array(STO3G_EXPONENTS[sym])
        c = np.array(STO3G_COEFFS) * (2.0 * alpha / math.pi) ** 0.75
        p = alpha[:, None] + alpha[None, :]
        self_ovl = float(np.sum(c[:, None] * c[None, :] * (math.pi / p) ** 1.5))
        c = c / math.sqrt(self_ovl)
        funcs.append(BasisFunction(center.copy(), alpha, c))
    return funcs


@dataclass(frozen=True)
class IntegralSet:
    """AO integrals plus the molecular constants consumers need."""

    overlap: np.ndarray
    hcore: np.ndarray
    eri: np.ndarray  # chemists' convention (pq|rs)
    enuc: float
    n_electrons: int

    @property
    def n_basis(self) -> int:
        return self.overlap.shape[0]


def _pair_tables(funcs: list[BasisFunction]):
    """Flatten primitive pair data for each (bra, ket) basis pair."""
    n = len(funcs)
    table = {}
    for a in range(n):
        fa = funcs[a]
        for b in range(a, n):
            fb = funcs[b]
            p = fa.exponents[:, None] + fb.exponents[None, :]
            mu = fa.exponents[:, None] * fb.exponents[None, :] / p
            rab2 = float(np.sum((fa.center - fb.center) ** 2))
            pref = fa.coeffs[:, None] * fb.coeffs[None, :] * np.exp(-mu * rab2)
            centers = (
                fa.exponents[:, None, None] * fa.center[None, None, :]
                + fb.exponents[None, :, None] * fb.center[None, None, :]
            ) / p[:, :, None]
            table[(a, b)] = (p, mu, rab2, pref, centers)
    return table


def _primitive_overlaps(p: np.ndarray, pref: np.ndarray) -> np.ndarray:
    """Overlaps of the primitive pairs of one basis pair, from its ``_pair_tables`` entry."""
    return pref * (math.pi / p) ** 1.5


def overlap_matrix(molecule: Molecule) -> np.ndarray:
    """The basis overlap of ``compute_integrals``, alone: cheap enough to check a geometry with."""
    funcs = build_basis(molecule)
    S = np.zeros((len(funcs), len(funcs)))
    for (a, b), (p, _, _, pref, _) in _pair_tables(funcs).items():
        S[a, b] = S[b, a] = float(np.sum(_primitive_overlaps(p, pref)))
    return S


def overlap_eigh(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the overlap ``S``.

    Raises GeometryError when ``S`` is numerically singular, as nearly
    coincident nuclei make it: no orthonormal orbitals can be formed.
    """
    w, U = np.linalg.eigh(S)
    if w.min() < 1e-10:
        raise GeometryError("overlap matrix is numerically singular")
    return w, U


def compute_integrals(molecule: Molecule) -> IntegralSet:
    """Overlap, core Hamiltonian, and ERIs for the molecule's STO-3G basis.

    All matrices come out exactly symmetric (the upper triangle is
    computed once and mirrored); the ERI tensor has full 8-fold symmetry.
    """
    funcs = build_basis(molecule)
    n = len(funcs)
    pairs = _pair_tables(funcs)
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    charges = [ELEMENT_CHARGES[s] for s in molecule.symbols]
    for (a, b), (p, mu, rab2, pref, centers) in pairs.items():
        s_prim = _primitive_overlaps(p, pref)
        S[a, b] = S[b, a] = float(np.sum(s_prim))
        T[a, b] = T[b, a] = float(np.sum(mu * (3.0 - 2.0 * mu * rab2) * s_prim))
        v = 0.0
        for z, nuc in zip(charges, molecule.coords):
            d2 = np.sum((centers - nuc[None, None, :]) ** 2, axis=2)
            f0 = np.vectorize(boys_function)(p * d2)
            v -= z * float(np.sum(pref * (2.0 * math.pi / p) * f0))
        V[a, b] = V[b, a] = v

    eri = np.zeros((n, n, n, n))
    # unique chemists' quadruples under 8-fold symmetry
    for a in range(n):
        for b in range(a + 1):
            for c in range(a + 1):
                dmax = b if a == c else c
                for d in range(dmax + 1):
                    val = _eri_contracted(pairs, a, b, c, d)
                    for i, j, k, l in {
                        (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                        (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
                    }:
                        eri[i, j, k, l] = val
    return IntegralSet(
        overlap=S,
        hcore=T + V,
        eri=eri,
        enuc=molecule.nuclear_repulsion(),
        n_electrons=molecule.n_electrons,
    )


def _eri_contracted(pairs, a, b, c, d) -> float:
    p, _, _, pref_ab, ctr_ab = pairs[(min(a, b), max(a, b))]
    q, _, _, pref_cd, ctr_cd = pairs[(min(c, d), max(c, d))]
    total = 0.0
    for p_i, wa, ca in zip(p.ravel(), pref_ab.ravel(), ctr_ab.reshape(p.size, 3)):
        for q_j, wc, cc in zip(q.ravel(), pref_cd.ravel(), ctr_cd.reshape(q.size, 3)):
            rho = p_i * q_j / (p_i + q_j)
            d2 = float(np.sum((ca - cc) ** 2))
            total += (
                wa * wc * 2.0 * math.pi ** 2.5 / (p_i * q_j * math.sqrt(p_i + q_j))
                * boys_function(rho * d2)
            )
    return total


# ---------------------------------------------------------------------------
# restricted Hartree-Fock
# ---------------------------------------------------------------------------

@dataclass
class RHFResult:
    energy: float
    mo_coeff: np.ndarray
    density: np.ndarray
    converged: bool
    iterations: int


RHF_TOL = 1e-8  # converged once the density moves less than this in one iteration
RHF_MAX_ITER = 200


def run_rhf(integrals: IntegralSet) -> RHFResult:
    """Closed-shell SCF for two electrons (one doubly occupied orbital).

    Fixed-point iteration from the core-Hamiltonian guess in the
    symmetrically orthogonalised basis, stopped by ``RHF_TOL`` and
    ``RHF_MAX_ITER``.  When the density residual grows between
    iterations, the density update is damped by 0.5 until the residual
    shrinks again.  Non-convergence is flagged, not raised; a
    numerically singular overlap (nearly coincident nuclei) raises
    GeometryError from ``overlap_eigh``.
    """
    if integrals.n_electrons != 2:
        raise ValueError("run_rhf supports exactly two electrons")
    S, h, eri = integrals.overlap, integrals.hcore, integrals.eri
    w, U = overlap_eigh(S)
    X = U @ np.diag(w ** -0.5) @ U.T

    def solve(F):
        return X @ np.linalg.eigh(X.T @ F @ X)[1]

    C = solve(h)
    D = np.outer(C[:, 0], C[:, 0])
    energy = 0.0
    prev_res = math.inf
    converged = False
    it = 0
    for it in range(1, RHF_MAX_ITER + 1):
        J = np.einsum("pqrs,rs->pq", eri, D)
        K = np.einsum("prqs,rs->pq", eri, D)
        F = h + 2.0 * J - K
        energy = float(np.sum(D * (h + F))) + integrals.enuc
        C = solve(F)
        D_new = np.outer(C[:, 0], C[:, 0])
        res = float(np.linalg.norm(D_new - D))
        if res < RHF_TOL:
            D = D_new
            converged = True
            break
        if res > prev_res:
            D_new = 0.5 * (D_new + D)  # damp oscillating fixed point
        D = D_new
        prev_res = res
    return RHFResult(energy, C, D, converged, it)


# ---------------------------------------------------------------------------
# full CI for two electrons
# ---------------------------------------------------------------------------

@dataclass
class FCIResult:
    energy: float
    coeff: np.ndarray  # c[i, j]: amplitude of |i_alpha j_beta>


def fci_two_electron(h: np.ndarray, eri: np.ndarray, enuc: float) -> FCIResult:
    """Exact ground state of two electrons in the given orbital space.

    Works in the full S_z = 0 determinant basis |i_alpha j_beta> (the
    two-electron ground state is a singlet, so this basis contains it).
    The coefficient matrix is gauge-fixed so its largest entry is
    positive.
    """
    r = h.shape[0]
    eye = np.eye(r)
    ham = np.kron(h, eye) + np.kron(eye, h)
    # <i_a j_b| V |k_a l_b> = (ik|jl) in chemists' notation
    ham += eri.transpose(0, 2, 1, 3).reshape(r * r, r * r)
    w, v = np.linalg.eigh(ham)
    c = v[:, 0].reshape(r, r)
    flat = np.argmax(np.abs(c))
    if c.ravel()[flat] < 0:
        c = -c
    return FCIResult(float(w[0]) + enuc, c)


def pair_spectrum(coeff: np.ndarray):
    """Eigen-decompose a (symmetric) two-electron coefficient matrix.

    Returns signed geminal amplitudes g sorted by decreasing |g| and the
    orthogonal matrix whose columns are the corresponding natural
    orbitals (in the basis the coefficients were expressed in).  The
    global gauge is fixed so g[0] > 0.  A matrix further than 1e-8 from
    symmetric raises ValueError.
    """
    asym = float(np.linalg.norm(coeff - coeff.T))
    if asym > 1e-8:
        raise ValueError(f"coefficient matrix is not symmetric (|c - c^T| = {asym:.2e})")
    g, U = np.linalg.eigh(0.5 * (coeff + coeff.T))
    order = np.argsort(-np.abs(g))
    g, U = g[order], U[:, order]
    if g[0] < 0:
        g = -g
    return g, U


# ---------------------------------------------------------------------------
# orbital transformations
# ---------------------------------------------------------------------------

def transform_integrals(integrals: IntegralSet, C: np.ndarray):
    """AO -> MO transform of hcore and ERIs for orthonormal orbitals C.

    Pre: C^T S C = identity within 1e-8 (raises ValueError otherwise).
    Returns (h_mo, eri_mo) with eri_mo in chemists' convention.
    """
    ortho = C.T @ integrals.overlap @ C
    dev = float(np.max(np.abs(ortho - np.eye(C.shape[1]))))
    if dev > 1e-8:
        raise ValueError(f"orbitals are not S-orthonormal (max deviation {dev:.2e})")
    h_mo = C.T @ integrals.hcore @ C
    eri_mo = np.einsum("pqrs,pi,qj,rk,sl->ijkl", integrals.eri, C, C, C, C, optimize=True)
    return h_mo, eri_mo


def apply_givens_rotations(C: np.ndarray, rotations) -> np.ndarray:
    """Apply plane rotations to the columns of C, left to right.

    Each rotation is a (p, q, theta) triple mixing columns p and q:

        c_p <- cos(theta) c_p + sin(theta) c_q
        c_q <- -sin(theta) c_p + cos(theta) c_q

    so (0, 1, pi/2) maps columns (c0, c1) to (c1, -c0).  Orthonormality
    against any metric is preserved exactly.
    """
    out = np.array(C, dtype=float, copy=True)
    for p, q, theta in rotations:
        if p == q:
            raise ValueError("rotation indices must differ")
        cp = out[:, p].copy()
        cq = out[:, q].copy()
        c, s = math.cos(theta), math.sin(theta)
        out[:, p] = c * cp + s * cq
        out[:, q] = -s * cp + c * cq
    return out


def scf_reference(molecule: Molecule):
    """Convenience bundle: integrals, RHF result, and FCI in the RHF basis."""
    ints = compute_integrals(molecule)
    rhf = run_rhf(ints)
    h_mo, eri_mo = transform_integrals(ints, rhf.mo_coeff)
    fci = fci_two_electron(h_mo, eri_mo, ints.enuc)
    return ints, rhf, fci
