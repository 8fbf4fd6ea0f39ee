import math
import tracemalloc

import numpy as np
import pytest

import oracles
from rotorpair.angular import TwoRotorBasis
from rotorpair.exceptions import ConsistencyError, InvalidConfigError
from rotorpair.operators import (
    HamiltonianPieces,
    PulseSchedule,
    build_costheta_single,
    build_dipole_term,
    build_orientation_coupling,
    build_pieces,
    build_rotor_term,
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

def test_rotor_term_is_the_l_squared_diagonal():
    basis = TwoRotorBasis(2, 0)
    rotor = build_rotor_term(basis)
    dense = rotor.toarray()
    assert np.allclose(np.diag(dense), basis.rotor_diagonal)
    assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
    assert rotor.format == "csr" and rotor.shape == (basis.size, basis.size)


def test_dipole_term_frozen_elements():
    basis = TwoRotorBasis(2, 0)
    d = 0.7
    u = build_dipole_term(basis, d).toarray()
    g = basis.index_of(0, 0, 0, 0)
    # head-to-tail alignment channel
    assert u[g, basis.index_of(1, 0, 1, 0)] == pytest.approx(-2.0 * d / 3.0, rel=1e-13)
    # exchange channel: both partners flip m by one unit in opposite senses
    assert u[g, basis.index_of(1, 1, 1, -1)] == pytest.approx(-d / 3.0, rel=1e-13)
    assert u[g, basis.index_of(1, -1, 1, 1)] == pytest.approx(-d / 3.0, rel=1e-13)


def test_dipole_term_is_hermitian_and_scales_linearly():
    basis = TwoRotorBasis(3, 0)
    u1 = build_dipole_term(basis, 1.0).toarray()
    u2 = build_dipole_term(basis, 2.0).toarray()
    assert np.abs(u1 - u1.conj().T).max() == 0.0
    assert np.allclose(u2, 2.0 * u1)


def test_dipole_term_conserves_total_m():
    basis = TwoRotorBasis(2, None)
    op = build_dipole_term(basis, 1.0).tocoo()
    for row, col, val in zip(op.row, op.col, op.data):
        if val != 0.0:
            total_in = basis.m1[col] + basis.m2[col]
            total_out = basis.m1[row] + basis.m2[row]
            assert total_in == total_out


def test_dipole_term_edge_cases():
    basis = TwoRotorBasis(2, 0)
    assert build_dipole_term(basis, 0.0).nnz == 0
    with pytest.raises(InvalidConfigError):
        build_dipole_term(basis, -0.5)


def test_costheta_single_acts_on_one_molecule():
    basis = TwoRotorBasis(1, None)
    c1 = build_costheta_single(basis, "mol1").toarray()
    c2 = build_costheta_single(basis, "mol2").toarray()
    g = basis.index_of(0, 0, 0, 0)
    inv_sqrt3 = 1.0 / math.sqrt(3.0)
    assert c1[basis.index_of(1, 0, 0, 0), g] == pytest.approx(inv_sqrt3, abs=1e-15)
    assert c1[basis.index_of(0, 0, 1, 0), g] == 0.0
    assert c2[basis.index_of(0, 0, 1, 0), g] == pytest.approx(inv_sqrt3, abs=1e-15)
    assert c2[basis.index_of(1, 0, 0, 0), g] == 0.0
    with pytest.raises(InvalidConfigError):
        build_costheta_single(basis, "mol3")


def test_orientation_coupling_is_the_sum_of_both_molecules():
    basis = TwoRotorBasis(2, 0)
    c1 = build_costheta_single(basis, "mol1").toarray()
    c2 = build_costheta_single(basis, "mol2").toarray()
    both = build_orientation_coupling(basis).toarray()
    assert np.array_equal(both, c1 + c2)


@pytest.mark.parametrize("restrict_total_m", [0, None])
@pytest.mark.parametrize("l_max", [1, 2, 3, 4, 5])
def test_operators_match_the_quadrature_kronecker_oracle(l_max, restrict_total_m):
    basis = TwoRotorBasis(l_max, restrict_total_m)
    c = oracles.single_rotor_matrix("cos", l_max)
    eye = np.eye(basis.d_single)
    built = [(build_orientation_coupling(basis), oracles.two_rotor_coupling(l_max)),
             (build_costheta_single(basis, "mol1"), np.kron(c, eye)),
             (build_costheta_single(basis, "mol2"), np.kron(eye, c))]
    built += [(build_dipole_term(basis, d), oracles.two_rotor_dipole(d, l_max))
              for d in (0.0, 0.1315, 0.7)]
    total_m = basis.m1 + basis.m2
    for op, full in built:
        ref = oracles.restrict(full, basis)
        assert op.format == "csr" and op.dtype == np.complex128
        assert np.abs(op.toarray() - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        assert np.all(op.data != 0)
        rows, cols = op.nonzero()
        assert np.array_equal(total_m[rows], total_m[cols])


def test_operator_matrix_expectation():
    basis = TwoRotorBasis(1, 0)
    rotor = build_rotor_term(basis)
    c = np.zeros(basis.size, dtype=complex)
    c[basis.index_of(1, 0, 1, 0)] = 1.0
    assert expectation(rotor, c) == pytest.approx(4.0)
    # a block of states gives one value per row
    assert np.allclose(expectation(rotor, np.array([c, 2.0 * c])), [4.0, 16.0])


# --- assembled Hamiltonian ---------------------------------------------------

def test_pieces_h0_is_rotor_plus_dipole():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.3)
    expected = build_rotor_term(basis).toarray() + build_dipole_term(basis, 0.3).toarray()
    assert np.allclose(pieces.h0.toarray(), expected, atol=0.0)
    assert pieces.h0.format == "csr" and pieces.coupling.format == "csr"


def test_pieces_reject_mismatched_dimensions():
    big = TwoRotorBasis(2, 0)
    small = TwoRotorBasis(1, 0)
    h0 = build_pieces(big, 0.3).h0
    with pytest.raises(ConsistencyError):
        HamiltonianPieces(basis=big, h0=build_pieces(small, 0.3).h0, coupling=build_orientation_coupling(big))
    with pytest.raises(ConsistencyError):
        HamiltonianPieces(basis=big, h0=h0, coupling=build_orientation_coupling(small))
    with pytest.raises(ConsistencyError):
        HamiltonianPieces(basis=small, h0=h0, coupling=build_orientation_coupling(big))


def test_hamiltonian_at_combines_the_pieces():
    basis = TwoRotorBasis(2, 0)
    pieces = build_pieces(basis, 0.3)
    s = _schedule()
    t = 0.052
    h = oracles.hamiltonian_at(t, pieces, s).toarray()
    expected = (build_rotor_term(basis) + build_dipole_term(basis, 0.3)
                + s.field_scalar(t) * build_orientation_coupling(basis)).toarray()
    assert np.allclose(h, expected, atol=1e-15)
    assert np.abs(h - h.conj().T).max() < 1e-14
