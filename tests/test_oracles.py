"""Sanity checks on the reference implementations themselves, so that a
package/oracle disagreement elsewhere cannot be blamed on a broken oracle."""

import numpy as np
import pytest

import oracles
from oracles import (
    OracleError,
    QuadratureGrid,
    dense_propagate,
    quad_element,
    restrict,
    single_rotor_matrix,
    two_rotor_dipole,
    two_rotor_free_diagonal,
)
from rotorpair.angular import TwoRotorBasis


def test_stored_harmonics_are_orthonormal():
    grid = QuadratureGrid(8)
    gram = grid.gram_matrix()
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def test_quadrature_reproduces_reference_elements():
    assert quad_element("cos", 0, 0, 1, 0) == pytest.approx(0.5773502691896257, abs=1e-10)
    # parity forbids a delta-l of two
    assert quad_element("cos", 0, 0, 2, 0) == pytest.approx(0.0, abs=1e-12)
    assert quad_element("s+", 0, 0, 1, 1) == pytest.approx(-0.8164965809277261, abs=1e-10)
    # raising one way equals lowering back the other way
    fwd = quad_element("s+", 1, 0, 2, 1)
    back = quad_element("s-", 2, 1, 1, 0)
    assert fwd == pytest.approx(np.conj(back), abs=1e-12)


def test_out_of_range_requests_raise():
    with pytest.raises(OracleError, match="l_max=13"):
        QuadratureGrid(13)
    with pytest.raises(OracleError, match="l_max=13"):
        quad_element("cos", 13, 0, 12, 0)
    with pytest.raises(OracleError, match="unknown operator"):
        quad_element("momentum", 0, 0, 1, 0)
    small = QuadratureGrid(1)
    with pytest.raises(OracleError, match="grid built for"):
        quad_element("cos", 2, 0, 1, 0, grid=small)


def test_dense_propagation_guards():
    with pytest.raises(OracleError, match="dimension 1000"):
        dense_propagate(np.zeros(1001, dtype=np.complex128), lambda t: np.eye(1001), 0.0, 1.0, 10)
    with pytest.raises(OracleError, match="n_steps"):
        dense_propagate(np.ones(2, dtype=np.complex128), lambda t: np.eye(2), 0.0, 1.0, 0)


def _block_hamiltonians():
    """(H0, V) on the 6-state l_max = 1, M = 0 block, as plain real arrays."""
    basis = TwoRotorBasis(1)
    h0_full = np.diag(two_rotor_free_diagonal(1)) + two_rotor_dipole(0.4, 1)
    v_full = two_rotor_dipole(1.0, 1)  # any hermitian perturbation will do
    h0 = 0.5 * (restrict(h0_full, basis) + restrict(h0_full, basis).conj().T).real
    v = 0.5 * (restrict(v_full, basis) + restrict(v_full, basis).conj().T).real
    return basis, h0, v


def _mixed_state(basis):
    rng = np.random.default_rng(7)
    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return c / np.linalg.norm(c)


def test_dense_propagation_is_exact_for_constant_h():
    basis, h0, _ = _block_hamiltonians()
    psi = _mixed_state(basis)
    t_final = 0.7
    out = dense_propagate(psi, lambda t: h0, 0.0, t_final, 13)

    energies, vectors = np.linalg.eigh(h0)
    exact = vectors @ (np.exp(-1j * energies * t_final) * (vectors.T @ psi))
    assert np.max(np.abs(out - exact)) < 1e-12


def test_dense_propagation_is_unitary_step_by_step():
    basis, h0, v = _block_hamiltonians()
    psi = _mixed_state(basis)
    out = dense_propagate(psi, lambda t: h0 + np.sin(3.0 * t) * v, 0.0, 2.0, 7)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_dense_propagation_converges_at_second_order():
    basis, h0, v = _block_hamiltonians()
    psi = _mixed_state(basis)
    sampler = lambda t: h0 + np.sin(3.0 * t) * v

    ref = dense_propagate(psi, sampler, 0.0, 2.0, 6400)
    err = {n: np.linalg.norm(dense_propagate(psi, sampler, 0.0, 2.0, n) - ref)
           for n in (200, 400)}
    assert 3.0 < err[200] / err[400] < 5.0


def test_single_rotor_matrix_matches_closed_forms():
    l_max = 3
    mat = single_rotor_matrix("cos", l_max)
    closed = oracles.one_rotor_dense(l_max)["cos"]
    assert np.abs(mat.imag).max() < 1e-13
    assert np.abs(mat.real - closed).max() < 1e-10


def test_restrict_selects_the_right_block():
    basis = TwoRotorBasis(2)
    full = np.diag(two_rotor_free_diagonal(2))
    block = restrict(full, basis)
    assert block.shape == (19, 19)
    assert np.allclose(np.diag(block), basis.rotor_diagonal)
    assert np.count_nonzero(block - np.diag(np.diag(block))) == 0
