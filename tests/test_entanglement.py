import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import coefficient_matrix, one_rotor_indices, reduced_density_mol1, sector_isometry
from rotorpair import entanglement
from rotorpair.angular import TwoRotorBasis
from rotorpair.config import preset
from rotorpair.entanglement import schmidt_spectrum, von_neumann_entropy
from rotorpair.observables import TimeSeriesRecorder
from rotorpair.operators import build_pieces
from rotorpair.propagation import run_schedule
from rotorpair.units import to_reduced


def _fold(basis, coeffs):
    """The sector row S^T c of a basis state c that lies in the sector."""
    s = sector_isometry(basis)
    folded = s.T @ coeffs
    assert np.abs(s @ folded - coeffs).max() <= 1e-15
    return folded


def _product_state(basis, u):
    """The sector row of |u> x |u>, given a one-rotor amplitude vector with m = 0 parts only."""
    single1, single2 = one_rotor_indices(basis)
    return _fold(basis, u[single1] * u[single2])


def _sector_states(basis, parts):
    """Unit sector rows x = parts[:, 0] + i parts[:, 1] (S is an isometry, so S x is a unit state too)."""
    rows = parts[:, 0] + 1j * parts[:, 1]
    norms = np.linalg.norm(rows, axis=1)
    return rows[norms > 1e-3] / norms[norms > 1e-3, None]


def _unfold(basis, rows):
    """Basis states S f of sector rows f, read through the gather map."""
    column, weight = basis.sector_gather
    return weight * np.atleast_2d(rows)[:, column]


def _bell_state(basis):
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[basis.index_of(0, 0, 1, 0)] = 1.0 / math.sqrt(2.0)
    coeffs[basis.index_of(1, 0, 0, 0)] = 1.0 / math.sqrt(2.0)
    return _fold(basis, coeffs)


def _m_zero_product(basis, rng):
    """A random unit one-rotor vector with m = 0 amplitudes only, so u x u lies in the sector."""
    u = np.zeros(basis.d_single, dtype=complex)
    l = np.arange(basis.l_max + 1)
    u[l * l + l] = rng.standard_normal(l.size) + 1j * rng.standard_normal(l.size)
    return u / np.linalg.norm(u)


def test_coefficient_matrix_scatters_by_single_rotor_indices():
    basis = TwoRotorBasis(1)
    coeffs = np.arange(1.0, basis.size + 1.0, dtype=complex)
    c = coefficient_matrix(basis, coeffs)
    assert c.shape == (4, 4)
    for k, (l1, m1, l2, m2) in enumerate(zip(basis.l1, basis.m1, basis.l2, basis.m2)):
        i = l1 * l1 + l1 + m1
        j = l2 * l2 + l2 + m2
        assert c[i, j] == coeffs[k]


@pytest.mark.parametrize("l_max", [1, 2, 4])
def test_product_state_has_zero_entropy(l_max):
    basis = TwoRotorBasis(l_max)
    weights = schmidt_spectrum(basis, _product_state(basis, _m_zero_product(basis, np.random.default_rng(7))))[0]
    assert von_neumann_entropy(weights, basis.d_single, "e") < 1e-10
    assert np.count_nonzero(weights > 1e-12) == 1


def test_bell_state_entropy_in_every_log_base():
    basis = TwoRotorBasis(1)
    weights = schmidt_spectrum(basis, _bell_state(basis))[0]
    lam = np.sort(weights)[::-1][:2]
    assert np.allclose(lam, [0.5, 0.5], atol=1e-12)
    d = basis.d_single
    assert von_neumann_entropy(weights, d, "e") == pytest.approx(math.log(2.0), abs=1e-12)
    assert von_neumann_entropy(weights, d, "2") == pytest.approx(1.0, abs=1e-12)
    # d_single = 4, so log_4(2) = 1/2
    assert von_neumann_entropy(weights, d, "d_single") == pytest.approx(0.5, abs=1e-12)
    assert np.count_nonzero(weights > 1e-12) == 2


def test_entropy_of_a_single_level_subsystem_is_zero():
    # d_single = 1 would divide by log(1); the basis-size log base must guard it
    assert von_neumann_entropy(np.array([1.0]), 1, "d_single") == 0.0


def test_a_weight_rounded_above_one_gives_zero_entropy():
    # -lam log lam is -2.2e-16 here; -0.0 and NaN are kept as they are
    entropy = von_neumann_entropy(np.array([[1.0 + 2.0**-52], [1.0], [np.nan]]), 4, "e")
    assert entropy[0] == 0.0 and not np.signbit(entropy[0])
    assert entropy[1] == 0.0 and np.signbit(entropy[1])
    assert np.isnan(entropy[2])


def test_d_single_log_base_divides_by_the_one_rotor_dimension():
    basis = TwoRotorBasis(2)
    weights = schmidt_spectrum(basis, _bell_state(basis))[0]
    assert weights.size == 3 + 2 * (2 + 1) == basis.d_single  # block 0 once, blocks 1 and 2 twice
    entropy = von_neumann_entropy(weights, basis.d_single, "d_single")
    assert entropy == pytest.approx(math.log(2.0) / math.log(9.0), abs=1e-12)


@pytest.mark.parametrize("l_max", [1, 2, 4])
def test_schmidt_spectrum_matches_the_density_matrix_eigenvalues(l_max):
    basis = TwoRotorBasis(l_max)
    rng = np.random.default_rng(11)
    coeffs = _sector_states(basis, rng.standard_normal((1, 2, sector_isometry(basis).shape[1])))[0]

    weights = schmidt_spectrum(basis, coeffs)[0]
    rho = reduced_density_mol1(basis, sector_isometry(basis) @ coeffs)
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
    assert np.allclose(np.sort(weights)[::-1], eigs, atol=1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_blocks_below_half_the_clip_skip_their_eigenvalues_and_keep_the_entropy_bit_for_bit(monkeypatch):
    # blocks 2 and 3 of l_max 3 scaled to squared Frobenius norms just above and below half of _CLIP
    basis = TwoRotorBasis(3)
    column, weight = basis.sector_gather
    blocks = basis.schmidt_blocks
    rng = np.random.default_rng(7)
    rows = _sector_states(basis, rng.standard_normal((3, 2, sector_isometry(basis).shape[1])))
    for m, share in ((2, 0.55), (3, 0.45)):
        frobenius = (np.abs(weight[blocks[m]] * rows[:, column[blocks[m]]]) ** 2).sum(axis=(1, 2))
        rows[:, np.unique(column[blocks[m]])] *= np.sqrt(share * entanglement._CLIP / frobenius)[:, None]
    skipped = schmidt_spectrum(basis, rows)
    with monkeypatch.context() as patch:
        patch.setattr(entanglement, "_CLIP", 0.0)  # no block is skipped
        decomposed = schmidt_spectrum(basis, rows)
    # the spectrum lists blocks 1, 2, 3, then 0, 1, 2, 3, of sizes 4 - m
    block_2, block_3 = [3, 4, 13, 14], [5, 15]
    assert np.all(skipped[:, block_2] > 0.0) and np.array_equal(skipped[:, block_2], decomposed[:, block_2])
    assert np.all(skipped[:, block_3] == 0.0) and np.all(decomposed[:, block_3] > 0.0)
    for log_base in ("e", "2", "d_single"):
        assert np.array_equal(von_neumann_entropy(skipped, basis.d_single, log_base),
                              von_neumann_entropy(decomposed, basis.d_single, log_base))


def test_density_matrix_trace_equals_squared_norm():
    basis = TwoRotorBasis(1)
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[0] = 0.6
    coeffs[1] = 0.3j
    assert np.trace(reduced_density_mol1(basis, coeffs)).real == pytest.approx(0.45, abs=1e-14)


def test_a_block_is_analyzed_row_by_row():
    basis = TwoRotorBasis(1)
    product = np.zeros(basis.size, dtype=complex)
    product[basis.index_of(0, 0, 0, 0)] = 1.0
    n_s = sector_isometry(basis).shape[1]
    # a diverged state: finite, but its Gram matrices would overflow
    block = np.stack([_bell_state(basis), _fold(basis, product), np.full(n_s, np.nan), np.full(n_s, 1e160)])
    weights = schmidt_spectrum(basis, block)
    assert weights.shape == (4, basis.d_single)
    entropy = von_neumann_entropy(weights, basis.d_single, "2")
    assert entropy[:2] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert np.isnan(entropy[2:]).all()  # a non-finite state must not read as unentangled
    assert np.count_nonzero(weights > 1e-12, axis=1).tolist() == [2, 1, 0, 0]
    assert np.isnan(schmidt_spectrum(basis, block[2:])).all()
    assert schmidt_spectrum(basis, block[:0]).shape == (0, basis.d_single)


@settings(max_examples=60, deadline=None)
@given(l_max=st.integers(2, 4), data=st.data())
def test_m_block_weights_equal_the_full_matrix_svd(l_max, data):
    # gathered sector rows, a product state (its m > 0 blocks are empty) and a NaN row
    basis = TwoRotorBasis(l_max)
    parts = data.draw(hnp.arrays(np.float64, (2, 2, sector_isometry(basis).shape[1]),
                                 elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    product = _product_state(basis, _m_zero_product(basis, np.random.default_rng(seed)))
    coeffs = np.vstack([_sector_states(basis, parts), product])
    weights = schmidt_spectrum(basis, np.vstack([coeffs, np.full(coeffs.shape[1], np.nan)]))
    assert np.isnan(weights[-1]).all() and np.all(weights[:-1] >= 0.0)
    # the layout: blocks m = 1..l_max, then m = 0..l_max, each of size l_max + 1 - m and descending
    sizes = list(range(l_max, 0, -1)) + list(range(l_max + 1, 0, -1))
    for block in np.split(weights[:-1], np.cumsum(sizes)[:-1], axis=1):
        assert np.all(np.diff(block, axis=1) <= 0.0)
    got = np.sort(weights[:-1], axis=1)[:, ::-1]
    for row, lam in zip(_unfold(basis, coeffs), got):
        full = np.linalg.svd(coefficient_matrix(basis, row), compute_uv=False) ** 2
        assert lam.size == full.size and np.abs(lam - full).max() <= 1e-14
    assert schmidt_spectrum(basis, coeffs[:0]).shape == (0, basis.d_single)


def _fig1b_samples():
    """A 20 ps fig1b run: its basis, the sector rows its observers
    receive, and its entropy column."""
    (_, cfg), = preset("fig1b")
    cfg = dataclasses.replace(cfg, output=dataclasses.replace(cfg.output, total_time_ps=20.0, sample_interval_ps=0.25))
    schedule, dipole_strength, dt, sample_times = to_reduced(cfg)
    basis = TwoRotorBasis(cfg.basis.l_max)
    pieces = build_pieces(basis, dipole_strength)
    recorder, rows = TimeSeriesRecorder(pieces, cfg.output), []
    run_schedule(pieces, schedule, dt, cfg.integrator.norm_tolerance, sample_times,
                 observers=(recorder, lambda t, k, c: rows.append(c.copy())))
    return basis, np.concatenate(rows), recorder.column("entropy")


def test_every_sampled_state_has_mirrored_symmetric_m_blocks():
    # schmidt_spectrum reads only the m >= 0 blocks and counts m > 0 twice:
    # exact only if C is zero off M = 0, C_{-m} == C_m (sigma_v) and
    # C_m == C_m.T (P12) in the matrix that the gather map makes of every
    # sector row a run hands its observers
    basis, rows, entropy = _fig1b_samples()
    assert rows.shape[0] == entropy.size == 81 and entropy.max() > 1e-3  # the run entangles
    l_max = basis.l_max
    m_single = np.concatenate([np.arange(-l, l + 1) for l in range(l_max + 1)])
    off_sector = np.add.outer(m_single, m_single) != 0
    for coeffs in _unfold(basis, rows):
        c = coefficient_matrix(basis, coeffs)
        assert not c[off_sector].any()
        for m in range(l_max + 1):
            at_m0 = np.arange(m, l_max + 1) * np.arange(m + 1, l_max + 2)  # one-rotor index of (l, 0)
            plus, minus = c[np.ix_(at_m0 + m, at_m0 - m)], c[np.ix_(at_m0 - m, at_m0 + m)]
            assert np.array_equal(minus, plus) and np.array_equal(plus, plus.T)

