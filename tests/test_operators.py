import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

import oracles
from rotorpair import operators
from rotorpair.angular import TwoRotorBasis
from rotorpair.exceptions import ConsistencyError
from rotorpair.operators import (
    HamiltonianPieces,
    PulseSchedule,
    basis_operators,
    build_pieces,
    expectation,
)


def _schedule(**kw):
    base = dict(kick_strength=10.0, sigma_red=0.01, t0_red=0.05, carrier_omega=250.0)
    base.update(kw)
    return PulseSchedule(**base)


# --- pulse schedule ----------------------------------------------------------

def test_centers_are_equally_spaced():
    s = _schedule(period_red=2.5, count=3)
    assert np.allclose(s.centers(), [0.05, 2.55, 5.05])


def test_envelope_peaks_at_each_center():
    s = _schedule(period_red=1.0, count=2)
    assert s.envelope(0.05) == pytest.approx(1.0, abs=1e-12)
    assert s.envelope(1.05) == pytest.approx(1.0, abs=1e-12)
    # symmetric around a center
    assert s.envelope(0.05 + 0.003) == pytest.approx(s.envelope(0.05 - 0.003), rel=1e-12)
    assert s.envelope(np.array([0.05]))[0] == s.envelope(0.05)


def test_envelope_accepts_arrays():
    s = _schedule()
    t = np.array([0.0, 0.05, 0.1])
    env = s.envelope(t)
    assert env.shape == (3,)
    assert env[1] == pytest.approx(1.0)
    assert isinstance(s.envelope(0.05), float)


def test_field_scalar_formula():
    s = _schedule()
    for t in (0.0, 0.047, 0.05, 0.061):
        expected = -10.0 * math.exp(-((t - 0.05) / 0.01) ** 2) * math.cos(250.0 * t)
        assert s.field_scalar(t) == pytest.approx(expected, rel=1e-14)
    arr = s.field_scalar(np.array([0.0, 0.05]))
    assert arr.shape == (2,)
    # the RK4 stage times (t_k, t_k + h/2, t_k + h) of a 20-pulse train as one
    # (3, N) array give exactly the N scalar values each
    train = _schedule(period_red=0.03, count=20)
    starts = np.arange(1500) * 4e-4
    stages = np.stack([starts, starts + 2e-4, starts + 4e-4])
    scalar = np.array([[train.field_scalar(t) for t in row] for row in stages.tolist()])
    assert np.array_equal(train.field_scalar(stages), scalar)
    assert np.count_nonzero(scalar) == scalar.size


def _all_pulse_field(s, t):
    """field_scalar with every pulse of the train summed, none skipped."""
    d = (t[..., None] - s.centers()) / s.sigma_red
    return -s.kick_strength * np.exp(-d * d).sum(axis=-1) * np.cos(s.carrier_omega * t)


def _stages(start, step, n):
    starts = start + np.arange(n) * step
    return np.stack([starts, starts + 0.5 * step, starts + step])


def test_a_long_train_adds_only_the_pulses_near_the_times():
    train = _schedule(period_red=1.0, count=2000)  # pulses 100 sigma apart
    stages = _stages(1000.0, 5e-4, 200)  # across pulse 1000, centered at 1000.05
    field = train.field_scalar(stages)
    assert np.array_equal(field, _all_pulse_field(train, stages))
    assert np.count_nonzero(field) == field.size
    assert train.field_scalar(np.empty((3, 0))).shape == (3, 0)


def test_an_overlapping_train_matches_the_all_pulse_sum():
    train = _schedule(period_red=0.06, count=300)  # pulses 6 sigma apart
    stages = _stages(4.0, 1e-3, 2000)  # pulses far before and after are skipped
    field, ref = train.field_scalar(stages), _all_pulse_field(train, stages)
    assert np.abs(field - ref).max() <= 1e-15 * np.abs(ref).max()


def test_the_field_of_a_long_train_allocates_little():
    train = _schedule(period_red=1.0, count=10_000)
    stages = _stages(5000.0, 1e-4, 1000)
    tracemalloc.start()
    try:
        train.field_scalar(stages)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6  # every pulse at every time would be a 240 MB temporary


# --- operator construction ---------------------------------------------------

def _dipole(basis, d):
    """The dipole term over the basis: H0 less its rotor diagonal."""
    return basis_operators(basis, d)[0] - sparse.diags(basis.rotor_diagonal)


def test_rotor_term_is_the_l_squared_diagonal():
    basis = TwoRotorBasis(2)
    rotor = basis_operators(basis, 0.0)[0]
    dense = rotor.toarray()
    assert np.allclose(np.diag(dense), basis.rotor_diagonal)
    assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
    assert rotor.format == "csr" and rotor.shape == (basis.size, basis.size)


def test_dipole_term_frozen_elements():
    basis = TwoRotorBasis(2)
    d = 0.7
    u = _dipole(basis, d).toarray()
    g = basis.index_of(0, 0, 0, 0)
    # head-to-tail alignment channel
    assert u[g, basis.index_of(1, 0, 1, 0)] == pytest.approx(-2.0 * d / 3.0, rel=1e-13)
    # exchange channel: both partners flip m by one unit in opposite senses
    assert u[g, basis.index_of(1, 1, 1, -1)] == pytest.approx(-d / 3.0, rel=1e-13)
    assert u[g, basis.index_of(1, -1, 1, 1)] == pytest.approx(-d / 3.0, rel=1e-13)


def test_dipole_term_is_hermitian_and_scales_linearly():
    basis = TwoRotorBasis(3)
    u1 = _dipole(basis, 1.0).toarray()
    u2 = _dipole(basis, 2.0).toarray()
    assert np.abs(u1 - u1.conj().T).max() == 0.0
    assert np.allclose(u2, 2.0 * u1)


@pytest.mark.parametrize("l_max", [1, 2, 3, 4, 5])
def test_the_operators_conserve_total_m(monkeypatch, l_max):
    # above its rounding, every entry of the quadrature operators over the whole product space joins equal M
    total_m = oracles.product_total_m(l_max)
    quadrature = [oracles.two_rotor_coupling(l_max)] + [oracles.two_rotor_dipole(d, l_max) for d in (0.1315, 0.7)]
    for ref in quadrature:
        assert ref.shape == (total_m.size, total_m.size)
        rows, cols = np.nonzero(np.abs(ref) > 1e-12 * np.abs(ref).max())
        assert rows.size and np.array_equal(total_m[rows], total_m[cols])
    # the package builds on the M = 0 basis alone, so a term that moves M is refused, not dropped
    basis = TwoRotorBasis(l_max)
    basis_operators(basis, 0.7)
    monkeypatch.setattr(operators, "DIPOLE_TERMS", operators.DIPOLE_TERMS + ((0.5, "s+", "s+"),))
    with pytest.raises(ConsistencyError, match=r"s\+ x s\+ moves m1 \+ m2 by 2"):
        basis_operators(basis, 0.7)
    with pytest.raises(ConsistencyError, match="moves m1"):
        build_pieces(basis, 0.0)


def test_dipole_term_edge_cases():
    basis = TwoRotorBasis(2)
    assert _dipole(basis, 0.0).nnz == 0
    assert basis_operators(basis, 0.0)[0].nnz == basis.size - 1  # the rotor energies but that of |00;00>


def test_orientation_coupling_is_the_sum_of_both_molecules():
    basis = TwoRotorBasis(2)
    c1, c2 = oracles.orientation_pair(basis)
    g, one, two = basis.index_of(0, 0, 0, 0), basis.index_of(1, 0, 0, 0), basis.index_of(0, 0, 1, 0)
    # each half acts on one molecule
    assert c1[one, g] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14) and abs(c1[two, g]) < 1e-15
    assert c2[two, g] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14) and abs(c2[one, g]) < 1e-15
    both = basis_operators(basis, 0.0)[1].toarray()
    assert np.abs(both - (c1 + c2)).max() <= 1e-14


@pytest.mark.parametrize("l_max", [1, 2, 3, 4, 5])
def test_operators_match_the_quadrature_kronecker_oracle(l_max):
    basis = TwoRotorBasis(l_max)
    built = [(basis_operators(basis, 0.0)[1], oracles.two_rotor_coupling(l_max))]
    built += [(_dipole(basis, d).tocsr(), oracles.two_rotor_dipole(d, l_max)) for d in (0.0, 0.1315, 0.7)]
    built += [(basis_operators(basis, 0.1315)[0],
               np.diag(oracles.two_rotor_free_diagonal(l_max)) + oracles.two_rotor_dipole(0.1315, l_max))]
    for op, full in built:
        ref = oracles.restrict(full, basis)
        assert op.format == "csr" and op.dtype == np.float64
        assert np.abs(op.toarray() - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    assert all(np.all(op.data != 0) for op in basis_operators(basis, 0.1315))
    # the pieces are the same operators folded onto the sector: S^T (rotor + dipole) S and S^T V S
    s, pieces = oracles.sector_isometry(basis), build_pieces(basis, 0.1315)
    h0 = np.diag(oracles.two_rotor_free_diagonal(l_max)) + oracles.two_rotor_dipole(0.1315, l_max)
    for op_s, full in ((pieces.h0, h0), (pieces.coupling, oracles.two_rotor_coupling(l_max))):
        ref = s.T.toarray() @ oracles.restrict(full, basis) @ s.toarray()
        assert op_s.format == "csr" and np.abs(op_s.toarray() - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("l_max", range(13))
def test_build_pieces_warns_of_nothing(l_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_pieces(TwoRotorBasis(l_max), 0.444)


def test_build_pieces_allocates_little():
    tracemalloc.start()
    try:
        build_pieces(TwoRotorBasis(24), 0.1315)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # the Kronecker products of the one-rotor matrices took 131 MiB


def test_operator_matrix_expectation():
    basis = TwoRotorBasis(1)
    rotor = basis_operators(basis, 0.0)[0]
    c = np.zeros(basis.size, dtype=complex)
    c[basis.index_of(1, 0, 1, 0)] = 1.0
    assert expectation(rotor, c) == pytest.approx(4.0)
    # a block of states gives one value per row
    assert np.allclose(expectation(rotor, np.array([c, 2.0 * c])), [4.0, 16.0])


# --- assembled Hamiltonian ---------------------------------------------------

def test_pieces_are_the_sector_folds_of_rotor_plus_dipole_and_the_coupling():
    basis = TwoRotorBasis(2)
    pieces = build_pieces(basis, 0.3)
    s = oracles.sector_isometry(basis)
    h0, coupling = basis_operators(basis, 0.3)
    assert np.allclose(pieces.h0.toarray(), (s.T @ h0 @ s).toarray(), atol=0.0)
    assert np.allclose(pieces.coupling.toarray(), (s.T @ coupling @ s).toarray(), atol=0.0)
    assert pieces.h0.format == "csr" and pieces.coupling.format == "csr"
    # a sector state mixes basis states of one rotor energy
    column, _ = basis.sector_gather
    assert np.abs(pieces.energies[column] - basis.rotor_diagonal).max() <= 1e-14


@pytest.mark.parametrize("l_max, dipole", [(0, 0.0), (2, 0.7), (3, 50.0)])
def test_build_pieces_folds_each_operator_once_at_a_tolerance_relative_to_h0(monkeypatch, l_max, dipole):
    calls, fold = [], operators.fold_to_sector
    monkeypatch.setattr(operators, "fold_to_sector",
                        lambda basis, name, op, tol: calls.append((name, tol)) or fold(basis, name, op, tol))
    basis = TwoRotorBasis(l_max)
    build_pieces(basis, dipole)
    scale = abs(oracles.basis_operators(basis, dipole).h0).max()
    assert (scale > 1.0) == (l_max > 0)  # |00;00> alone has H0 = 0, so the floor of 1 applies
    tol = 1e-12 * max(1.0, scale)
    assert calls == [("H0", tol), ("V", tol)]


def test_pieces_reject_mismatched_dimensions():
    big, small = build_pieces(TwoRotorBasis(2), 0.3), build_pieces(TwoRotorBasis(1), 0.3)
    parts = ("basis", "h0", "coupling", "energies")
    for k in range(len(parts)):  # one part from the smaller basis at a time
        with pytest.raises(ConsistencyError, match="mismatched dimensions"):
            HamiltonianPieces(*(getattr(small if j == k else big, name) for j, name in enumerate(parts)))


def test_hamiltonian_at_combines_the_pieces():
    basis = TwoRotorBasis(2)
    ops = oracles.basis_operators(basis, 0.3)
    s = _schedule()
    t = 0.052
    h = oracles.hamiltonian_at(t, ops, s).toarray()
    h0, coupling = basis_operators(basis, 0.3)
    expected = (h0 + s.field_scalar(t) * coupling).toarray()
    assert np.allclose(h, expected, atol=1e-15)
    assert np.abs(h - h.conj().T).max() < 1e-14
