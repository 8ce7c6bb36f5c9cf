"""Integral, SCF, and full-CI checks against independent oracles.

Frozen reference values come from three sources, recomputed offline:

* Boys function: 25-digit mpmath quadrature of the defining integral.
* H2 overlap/hcore entries: 2D cylindrical mpmath quadrature of the
  contracted STO-3G functions (no Gaussian product theorem involved).
* ERI pins: standard published STO-3G values for H2 at R = 1.4 bohr.

RHF and FCI energies are additionally cross-checked in-test against
closed-form symmetric-orbital expressions that bypass both the SCF loop
and the dense eigensolver.
"""

import math

import numpy as np
import pytest

from geminal import chem

# mpmath quadrature of int_0^1 t^(2m) exp(-x t^2) dt, 25 digits
BOYS_ORACLE = [
    (0, 0.0, 1.0),
    (0, 1e-08, 0.99999999666666668),
    (0, 0.1, 0.96764331263559183),
    (0, 1.0, 0.74682413281242703),
    (1, 1.0, 0.18947234582049235),
    (2, 1.0, 0.10026879814501737),
    (3, 1.0, 0.066732274776822257),
    (4, 1.0, 0.049623241133156738),
    (0, 10.0, 0.28024739050664274),
    (2, 10.0, 0.0020992449328384777),
    (4, 10.0, 0.00018061943636439907),
    (0, 39.9, 0.14030026548861784),
    (0, 40.1, 0.13994995216918017),
    (3, 39.9, 4.1413418186762265e-6),
    (3, 40.1, 4.0694986484077662e-6),
    (0, 100.0, 0.088622692545275801),
    (4, 100.0, 5.8158641982837245e-9),
    (0, 500.0, 0.03963327297606011),
    (4, 500.0, 4.1614936624863116e-12),
]

# cylindrical mpmath quadrature, H2 at R = 1.4
CYL_S12 = 0.659318206134864
CYL_H11 = -1.12040900890684
CYL_H12 = -0.958379964389615

# published STO-3G H2 values at R = 1.4 (4 decimals)
ERI_PINS = {
    (0, 0, 0, 0): 0.7746,
    (0, 0, 1, 1): 0.5697,
    (0, 1, 0, 1): 0.2970,
    (0, 0, 0, 1): 0.4441,
}

E_RHF_H2 = -1.116714325063
E_FCI_H2 = -1.137275943617
H_ATOM_HCORE = -0.466581849557


@pytest.fixture(scope="module")
def h2_ints():
    return chem.compute_integrals(chem.h2_molecule(1.4))


def test_boys_against_quadrature():
    for m, x, ref in BOYS_ORACLE:
        val = chem.boys_function(m, x)
        assert val == pytest.approx(ref, rel=1e-13, abs=1e-16), (m, x)


def test_boys_at_zero_is_closed_form():
    for m in range(7):
        assert chem.boys_function(m, 0.0) == pytest.approx(1.0 / (2 * m + 1), rel=1e-15)


def test_boys_crossover_is_smooth():
    # same order evaluated under both branches must agree through the seam
    lo = chem.boys_function(2, 39.999999)
    hi = chem.boys_function(2, 40.000001)
    assert abs(lo - hi) < 1e-9


def test_boys_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chem.boys_function(-1, 1.0)
    with pytest.raises(ValueError):
        chem.boys_function(0, -0.5)


def test_geometry_parser_roundtrip():
    text = """
    # comment line
    label test case
    charge 1
    H 0.0 0.0 0.0
    H 1.0 0.0 0.0   # trailing comment
    H 0.5 0.8 0.0
    """
    mol = chem.parse_geometry(text)
    assert mol.symbols == ("H", "H", "H")
    assert mol.charge == 1
    assert mol.label == "test case"
    assert mol.n_electrons == 2
    assert mol.coords.shape == (3, 3)


def test_geometry_parser_errors():
    with pytest.raises(chem.GeometryError):
        chem.parse_geometry("Xx 0 0 0")
    with pytest.raises(chem.GeometryError):
        chem.parse_geometry("H 0 0")
    with pytest.raises(chem.GeometryError):
        chem.parse_geometry("# nothing here")


def test_overlap_check_is_the_one_run_rhf_makes():
    # the CLI checks a geometry from the overlap alone, before any integral is computed
    for molecule in (chem.h2_molecule(1.4), chem.h3plus_molecule(1.65), chem.h2_molecule(1e-3)):
        ints = chem.compute_integrals(molecule)
        assert chem.overlap_matrix(molecule).tobytes() == ints.overlap.tobytes()
        chem.overlap_eigh(ints.overlap)
        chem.run_rhf(ints)
    for molecule in (chem.h2_molecule(1e-8), chem.h3plus_molecule(1e-8)):
        with pytest.raises(chem.GeometryError, match="overlap matrix is numerically singular"):
            chem.overlap_eigh(chem.overlap_matrix(molecule))
        with pytest.raises(chem.GeometryError, match="overlap matrix is numerically singular"):
            chem.run_rhf(chem.compute_integrals(molecule))


def test_builtin_molecules():
    h2 = chem.h2_molecule(1.4)
    assert h2.nuclear_repulsion() == pytest.approx(1.0 / 1.4, rel=1e-14)
    assert h2.n_electrons == 2

    side = 1.65
    h3 = chem.h3plus_molecule(side)
    assert h3.charge == 1
    assert h3.n_electrons == 2
    d = [np.linalg.norm(h3.coords[a] - h3.coords[b]) for a, b in [(0, 1), (0, 2), (1, 2)]]
    assert np.allclose(d, side, atol=1e-12)


def test_h2_integrals_match_cylindrical_quadrature(h2_ints):
    assert h2_ints.overlap[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert h2_ints.overlap[0, 1] == pytest.approx(CYL_S12, abs=1e-11)
    assert h2_ints.hcore[0, 0] == pytest.approx(CYL_H11, abs=1e-10)
    assert h2_ints.hcore[0, 1] == pytest.approx(CYL_H12, abs=1e-10)
    assert np.allclose(h2_ints.overlap, h2_ints.overlap.T)
    assert np.allclose(h2_ints.hcore, h2_ints.hcore.T)


def test_h2_eri_pins_and_symmetries(h2_ints):
    eri = h2_ints.eri
    for idx, ref in ERI_PINS.items():
        assert eri[idx] == pytest.approx(ref, abs=5e-5), idx
    # 8-fold symmetry on random index tuples
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q, r, s = rng.integers(0, 2, size=4)
        v = eri[p, q, r, s]
        assert v == eri[q, p, r, s] == eri[p, q, s, r] == eri[r, s, p, q]
    # Cauchy-Schwarz on the pair metric
    for p in range(2):
        for q in range(2):
            assert eri[p, q, p, q] <= math.sqrt(eri[p, p, p, p] * eri[q, q, q, q]) + 1e-12


def test_h_atom_hcore_pin():
    mol = chem.Molecule(("H",), np.zeros((1, 3)), 0, "H")
    ints = chem.compute_integrals(mol)
    assert ints.enuc == 0.0
    assert ints.hcore[0, 0] == pytest.approx(H_ATOM_HCORE, abs=1e-9)


def test_rhf_matches_closed_form_symmetric_orbital(h2_ints):
    # by symmetry the occupied MO is (phi1 + phi2)/sqrt(2(1+S12)); the
    # energy expression below never runs an SCF cycle
    S, h, eri = h2_ints.overlap, h2_ints.hcore, h2_ints.eri
    cg = np.full(2, 1.0 / math.sqrt(2.0 * (1.0 + S[0, 1])))
    hgg = cg @ h @ cg
    jgg = np.einsum("pqrs,p,q,r,s->", eri, cg, cg, cg, cg)
    closed = 2.0 * hgg + jgg + h2_ints.enuc

    res = chem.run_rhf(h2_ints)
    assert res.converged
    assert res.energy == pytest.approx(closed, abs=1e-10)
    assert res.energy == pytest.approx(E_RHF_H2, abs=1e-9)
    # density idempotency in the S metric: D S D = D for one pair
    D = res.density
    assert np.allclose(D @ S @ D, D, atol=1e-8)


def test_rhf_nonconvergence_is_flagged():
    # asymmetric system, so the core guess is not already stationary
    mol = chem.Molecule(("HE", "H"), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4632]]), 1)
    ints = chem.compute_integrals(mol)
    res = chem.run_rhf(ints, tol=1e-14, max_iter=1)
    assert not res.converged
    assert res.iterations == 1


def test_rhf_heh_cation_pin():
    # published STO-3G value near equilibrium
    mol = chem.Molecule(("HE", "H"), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4632]]), 1)
    ints = chem.compute_integrals(mol)
    res = chem.run_rhf(ints)
    assert res.converged
    assert res.energy == pytest.approx(-2.8418, abs=2e-4)


def test_rhf_h3plus_converges():
    ints = chem.compute_integrals(chem.h3plus_molecule(1.65))
    res = chem.run_rhf(ints)
    assert res.converged
    assert res.energy == pytest.approx(-1.23754770, abs=1e-7)


def test_fci_h2_matches_closed_form_and_pin(h2_ints):
    rhf = chem.run_rhf(h2_ints)
    h_mo, eri_mo = chem.transform_integrals(h2_ints, rhf.mo_coeff)
    fci = chem.fci_two_electron(h_mo, eri_mo, h2_ints.enuc)

    # independent 2x2 pairing CI in the g/u symmetry orbitals
    S, h, eri = h2_ints.overlap, h2_ints.hcore, h2_ints.eri
    cg = np.full(2, 1.0 / math.sqrt(2.0 * (1.0 + S[0, 1])))
    cu = np.array([1.0, -1.0]) / math.sqrt(2.0 * (1.0 - S[0, 1]))
    def e1(c):
        return c @ h @ c
    def coul(c1, c2, c3, c4):
        return np.einsum("pqrs,p,q,r,s->", eri, c1, c2, c3, c4)
    hmat = np.array(
        [
            [2 * e1(cg) + coul(cg, cg, cg, cg), coul(cg, cu, cg, cu)],
            [coul(cg, cu, cg, cu), 2 * e1(cu) + coul(cu, cu, cu, cu)],
        ]
    )
    closed = np.linalg.eigvalsh(hmat)[0] + h2_ints.enuc

    assert fci.energy == pytest.approx(closed, abs=1e-10)
    assert fci.energy == pytest.approx(E_FCI_H2, abs=1e-9)
    assert fci.energy < rhf.energy - 1e-3

    # ground state of H2 is a singlet: coefficient matrix symmetric
    assert np.allclose(fci.coeff, fci.coeff.T, atol=1e-10)
    assert np.sum(fci.coeff**2) == pytest.approx(1.0, abs=1e-12)
    assert fci.coeff.ravel()[np.argmax(np.abs(fci.coeff))] > 0


def test_fci_eigenpair_residual(h2_ints):
    rhf = chem.run_rhf(h2_ints)
    h_mo, eri_mo = chem.transform_integrals(h2_ints, rhf.mo_coeff)
    fci = chem.fci_two_electron(h_mo, eri_mo, h2_ints.enuc)
    r = h_mo.shape[0]
    eye = np.eye(r)
    ham = np.kron(h_mo, eye) + np.kron(eye, h_mo)
    ham += eri_mo.transpose(0, 2, 1, 3).reshape(r * r, r * r)
    v = fci.coeff.reshape(-1)
    resid = ham @ v - (fci.energy - h2_ints.enuc) * v
    assert np.linalg.norm(resid) < 1e-10


def test_pair_spectrum_properties(h2_ints):
    rhf = chem.run_rhf(h2_ints)
    h_mo, eri_mo = chem.transform_integrals(h2_ints, rhf.mo_coeff)
    fci = chem.fci_two_electron(h_mo, eri_mo, h2_ints.enuc)
    g, U = chem.pair_spectrum(fci.coeff)
    assert g[0] > 0
    assert np.sum(g**2) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(g[:-1]) >= np.abs(g[1:]) - 1e-15)
    # U diagonalizes the coefficient matrix
    assert np.allclose(U.T @ fci.coeff @ U, np.diag(g), atol=1e-10)
    with pytest.raises(ValueError):
        chem.pair_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_transform_integrals_precondition(h2_ints):
    with pytest.raises(ValueError):
        chem.transform_integrals(h2_ints, np.eye(2))  # AO basis is not orthonormal


def test_transform_integrals_mo_identities(h2_ints):
    rhf = chem.run_rhf(h2_ints)
    h_mo, eri_mo = chem.transform_integrals(h2_ints, rhf.mo_coeff)
    # closed-shell energy identity in the MO basis
    e = 2.0 * h_mo[0, 0] + eri_mo[0, 0, 0, 0] + h2_ints.enuc
    assert e == pytest.approx(rhf.energy, abs=1e-10)
    # spot-check one transformed element against a direct contraction
    C = rhf.mo_coeff
    direct = np.einsum(
        "pqrs,p,q,r,s->", h2_ints.eri, C[:, 0], C[:, 1], C[:, 1], C[:, 0]
    )
    assert eri_mo[0, 1, 1, 0] == pytest.approx(direct, abs=1e-12)


def test_givens_rotation_example():
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = chem.apply_givens_rotations(C, [(0, 1, math.pi / 2)])
    assert np.allclose(out[:, 0], [0.0, 1.0], atol=1e-15)
    assert np.allclose(out[:, 1], [-1.0, 0.0], atol=1e-15)


def test_givens_preserves_orthonormality(h2_ints):
    rhf = chem.run_rhf(h2_ints)
    rng = np.random.default_rng(3)
    C = rhf.mo_coeff
    for _ in range(20):
        rots = [(0, 1, rng.uniform(-math.pi, math.pi)) for _ in range(3)]
        C2 = chem.apply_givens_rotations(C, rots)
        assert np.allclose(C2.T @ h2_ints.overlap @ C2, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        chem.apply_givens_rotations(C, [(1, 1, 0.3)])


def test_givens_rotation_invariance_of_fci(h2_ints):
    # FCI energy must be invariant under any orbital rotation
    rhf = chem.run_rhf(h2_ints)
    C2 = chem.apply_givens_rotations(rhf.mo_coeff, [(0, 1, 0.37)])
    h_mo, eri_mo = chem.transform_integrals(h2_ints, C2)
    fci = chem.fci_two_electron(h_mo, eri_mo, h2_ints.enuc)
    assert fci.energy == pytest.approx(E_FCI_H2, abs=1e-9)


def test_scf_reference_bundle():
    ints, rhf, fci = chem.scf_reference(chem.h2_molecule(1.4))
    assert rhf.converged
    assert fci.energy < rhf.energy
    assert ints.n_basis == 2
