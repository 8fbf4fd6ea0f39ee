import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import coefficient_matrix, reduced_density_mol1
from rotorpair.angular import TwoRotorBasis
from rotorpair.entanglement import schmidt_spectrum, von_neumann_entropy
from rotorpair.exceptions import InvalidConfigError


def _product_state(basis, u, v):
    """coeffs of |u> x |v> given one-rotor amplitude vectors."""
    coeffs = np.zeros(basis.size, dtype=complex)
    for k in range(basis.size):
        coeffs[k] = u[basis.mol1_single[k]] * v[basis.mol2_single[k]]
    return coeffs


def _bell_state(basis):
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[basis.index_of(0, 0, 1, 0)] = 1.0 / math.sqrt(2.0)
    coeffs[basis.index_of(1, 0, 0, 0)] = 1.0 / math.sqrt(2.0)
    return coeffs


def test_coefficient_matrix_scatters_by_single_rotor_indices():
    basis = TwoRotorBasis(1, None)
    coeffs = np.arange(1.0, basis.size + 1.0, dtype=complex)
    c = coefficient_matrix(basis, coeffs)
    assert c.shape == (4, 4)
    for k, (l1, m1, l2, m2) in enumerate(zip(basis.l1, basis.m1, basis.l2, basis.m2)):
        i = l1 * l1 + l1 + m1
        j = l2 * l2 + l2 + m2
        assert c[i, j] == coeffs[k]


def test_product_state_has_zero_entropy():
    basis = TwoRotorBasis(2, None)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(basis.d_single) + 1j * rng.standard_normal(basis.d_single)
    v = rng.standard_normal(basis.d_single) + 1j * rng.standard_normal(basis.d_single)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    weights = schmidt_spectrum(basis, _product_state(basis, u, v))[0]
    assert von_neumann_entropy(weights, basis.d_single, "e") < 1e-10
    assert np.count_nonzero(weights > 1e-12) == 1


def test_bell_state_entropy_in_every_log_base():
    basis = TwoRotorBasis(1, None)
    weights = schmidt_spectrum(basis, _bell_state(basis))[0]
    lam = np.sort(weights)[::-1][:2]
    assert np.allclose(lam, [0.5, 0.5], atol=1e-12)
    d = basis.d_single
    assert von_neumann_entropy(weights, d, "e") == pytest.approx(math.log(2.0), abs=1e-12)
    assert von_neumann_entropy(weights, d, "2") == pytest.approx(1.0, abs=1e-12)
    # d_single = 4, so log_4(2) = 1/2
    assert von_neumann_entropy(weights, d, "d_single") == pytest.approx(0.5, abs=1e-12)
    assert np.count_nonzero(weights > 1e-12) == 2


def test_entropy_rejects_unknown_log_base():
    with pytest.raises(InvalidConfigError):
        von_neumann_entropy(np.array([1.0]), 4, "10")


def test_entropy_of_a_single_level_subsystem_is_zero():
    # d_single = 1 would divide by log(1); the basis-size log base must guard it
    assert von_neumann_entropy(np.array([1.0]), 1, "d_single") == 0.0


def test_a_weight_rounded_above_one_gives_zero_entropy():
    # -lam log lam is -2.2e-16 here; -0.0 and NaN are kept as they are
    entropy = von_neumann_entropy(np.array([[1.0 + 2.0**-52], [1.0], [np.nan]]), 4, "e")
    assert entropy[0] == 0.0 and not np.signbit(entropy[0])
    assert entropy[1] == 0.0 and np.signbit(entropy[1])
    assert np.isnan(entropy[2])


def test_d_single_log_base_ignores_how_many_weights_the_blocks_return():
    basis = TwoRotorBasis(2, 0)
    weights = schmidt_spectrum(basis, _bell_state(basis))[0]
    assert weights.size == 5 * 3  # five m-blocks of side l_max + 1, not d_single = 9
    entropy = von_neumann_entropy(weights, basis.d_single, "d_single")
    assert entropy == pytest.approx(math.log(2.0) / math.log(9.0), abs=1e-12)


def test_schmidt_spectrum_matches_the_density_matrix_eigenvalues():
    basis = TwoRotorBasis(2, 0)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    coeffs /= np.linalg.norm(coeffs)

    weights = schmidt_spectrum(basis, coeffs)[0]
    rho = reduced_density_mol1(basis, coeffs)
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
    got = np.sort(weights)[::-1]
    assert np.allclose(got[: eigs.size], eigs, atol=1e-12)
    assert np.all(np.abs(got[eigs.size:]) < 1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_trace_equals_squared_norm():
    basis = TwoRotorBasis(1, 0)
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[0] = 0.6
    coeffs[1] = 0.3j
    assert np.trace(reduced_density_mol1(basis, coeffs)).real == pytest.approx(0.45, abs=1e-14)


def test_a_block_is_analyzed_row_by_row():
    basis = TwoRotorBasis(1, None)
    product = np.zeros(basis.size, dtype=complex)
    product[basis.index_of(0, 0, 0, 0)] = 1.0
    block = np.stack([_bell_state(basis), product, np.full(basis.size, np.nan)])
    weights = schmidt_spectrum(basis, block)
    assert weights.shape == (3, basis.d_single)
    entropy = von_neumann_entropy(weights, basis.d_single, "2")
    assert entropy[:2] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert np.isnan(entropy[2])  # a non-finite state must not read as unentangled
    assert np.count_nonzero(weights > 1e-12, axis=1).tolist() == [2, 1, 0]


@settings(max_examples=60, deadline=None)
@given(l_max=st.integers(2, 4), total_m=st.sampled_from([0, 1, -2, None]), data=st.data())
def test_m_block_weights_equal_the_full_matrix_svd(l_max, total_m, data):
    basis = TwoRotorBasis(l_max, total_m)
    if total_m is None:
        assert basis.schmidt_shape == (1, basis.d_single, basis.d_single)
    parts = data.draw(hnp.arrays(np.float64, (2, 2, basis.size),
                                 elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    coeffs = parts[:, 0] + 1j * parts[:, 1]
    norms = np.linalg.norm(coeffs, axis=1)
    coeffs = coeffs[norms > 1e-3] / norms[norms > 1e-3, None]
    got = np.sort(schmidt_spectrum(basis, coeffs), axis=1)[:, ::-1]
    for row, weights in zip(coeffs, got):
        full = np.linalg.svd(coefficient_matrix(basis, row), compute_uv=False) ** 2
        n = min(full.size, weights.size)
        assert np.abs(weights[:n] - full[:n]).max() <= 1e-14
        assert np.all(weights[n:] <= 1e-14) and np.all(full[n:] <= 1e-14)
