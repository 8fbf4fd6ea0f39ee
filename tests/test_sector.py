"""The symmetric sector that run_schedule propagates in.

The sector is spanned by the M = 0 states even under the swap P12 of
the molecules and the reflection sigma_v (m -> -m on both rotors). These
tests check the isometry onto it, that H0 and V leave it invariant, that
a symmetry-breaking operator is refused, and that the sector run
reproduces the full-basis run loop kept in tests/oracles.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import norm as sparse_norm

import oracles
from rotorpair import propagation
from rotorpair.angular import TwoRotorBasis
from rotorpair.config import IntegratorSettings, OutputConfig
from rotorpair.exceptions import ConsistencyError
from rotorpair.observables import COLUMNS, TimeSeriesRecorder
from rotorpair.operators import HamiltonianPieces, PulseSchedule, build_costheta_single, build_pieces
from rotorpair.propagation import SAMPLE_BLOCK, initial_state, run_schedule, step_plan

# reduced parameters of the default molecule pair (see test_propagation.py)
KICK = 386.21612373411443
SIGMA = 0.006306465451214133
T0 = 0.027124582585867238
OMEGA = 249.9999998468202
DIPOLE = 0.13150852670024232
DT = SIGMA / 10.0  # the default pulse-core step
TOL = IntegratorSettings().norm_tolerance


def _symmetry_images(basis):
    """Positions of P12 and sigma_v images of every M = 0 state, by lookup."""
    rows = np.flatnonzero(basis.m1 + basis.m2 == 0)
    states = list(zip(basis.l1[rows], basis.m1[rows], basis.l2[rows], basis.m2[rows]))
    swap = [basis.index_of(l2, m2, l1, m1) for l1, m1, l2, m2 in states]
    flip = [basis.index_of(l1, -m1, l2, -m2) for l1, m1, l2, m2 in states]
    return rows, np.array(swap), np.array(flip)


@settings(max_examples=25, deadline=None)
@given(l_max=st.integers(1, 5), total_m=st.sampled_from([0, None]),
       dipole=st.floats(0.0, 2.0, allow_nan=False))
def test_the_sector_isometry_spans_an_invariant_subspace(l_max, total_m, dipole):
    basis = TwoRotorBasis(l_max, total_m)
    pieces = build_pieces(basis, dipole)
    s = basis.sector_isometry
    n_s = s.shape[1]
    assert s.shape[0] == basis.size and np.isrealobj(s.data)
    assert np.abs((s.T @ s).toarray() - np.eye(n_s)).max() <= 1e-15
    # the gather map is S row by row: one weight per row, in one column
    column, weight = basis.sector_gather
    assert np.array_equal(s.toarray()[np.arange(basis.size), column], weight)
    assert np.array_equal(np.diff(s.indptr), (weight != 0).astype(int))
    # every column is even under P12 and sigma_v and lives on M = 0
    rows, swap, flip = _symmetry_images(basis)
    dense = s.toarray()
    assert np.array_equal(dense[swap], dense[rows]) and np.array_equal(dense[flip], dense[rows])
    assert not dense[np.setdiff1d(np.arange(basis.size), rows)].any()
    # (I - S S^T) A S = A S - S (S^T A S) is what leaks out of range(S)
    for op in (pieces.h0, pieces.coupling):
        leak = op @ s - s @ (s.T @ op @ s)
        assert sparse_norm(leak) <= 1e-13
    psi = initial_state(basis)
    assert np.abs(s @ (s.T @ psi) - psi).max() == 0.0


@pytest.mark.parametrize("total_m", [0, None])
@pytest.mark.parametrize("l_max, n_s", [(8, 165), (10, 286)])
def test_sector_sizes(l_max, n_s, total_m):
    # the full basis folds onto the same sector as the M = 0 block
    basis = TwoRotorBasis(l_max, total_m)
    assert basis.sector_isometry.shape == (basis.size, n_s)


def _pulse(count=1, period=0.0):
    return PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=T0, carrier_omega=OMEGA,
                         period_red=period, count=count)


@pytest.mark.parametrize("total_m", [0, None])
def test_a_symmetry_breaking_operator_is_refused(total_m):
    basis = TwoRotorBasis(2, total_m)
    pieces = build_pieces(basis, DIPOLE)
    samples = np.array([0.0, 0.1])
    # cos(theta_1) alone is not even under the swap of the molecules
    with pytest.raises(ConsistencyError, match="V leaks out of the symmetric sector"):
        run_schedule(HamiltonianPieces(basis, pieces.h0, build_costheta_single(basis, "mol1")),
                     _pulse(), DT, TOL, samples)
    with pytest.raises(ConsistencyError, match="H0 leaks out of the symmetric sector"):
        h0 = (pieces.h0 + build_costheta_single(basis, "mol2")).tocsr()
        run_schedule(HamiltonianPieces(basis, h0, pieces.coupling), _pulse(), DT, TOL, samples)


def test_an_initial_state_outside_the_sector_is_refused(monkeypatch):
    basis = TwoRotorBasis(2, 0)
    psi = np.zeros(basis.size, dtype=complex)
    psi[basis.index_of(1, 0, 0, 0)] = 1.0  # its swap partner |00;10> is empty
    monkeypatch.setattr(propagation, "initial_state", lambda basis: psi)
    with pytest.raises(ConsistencyError, match="initial state"):
        run_schedule(build_pieces(basis, DIPOLE), _pulse(), DT, TOL, np.array([0.0, 0.1]))


WATCH = ((0, 0, 0, 0), (1, 0, 1, 0), (2, 0, 1, 0), (1, -1, 1, 1))


@pytest.mark.parametrize("case", ["single_pulse", "two_pulse_train", "full_basis"])
def test_the_sector_run_matches_the_full_space_loop(case):
    basis = TwoRotorBasis(2 if case == "full_basis" else 4, None if case == "full_basis" else 0)
    pieces = build_pieces(basis, DIPOLE)
    pulse = _pulse()
    samples = np.arange(200) * 0.0113  # 0.5 ps steps, several free blocks
    if case == "two_pulse_train":
        pulse = _pulse(count=2, period=0.3)
        samples = np.arange(1400) * 0.0005
        windows = oracles.rk4_windows(step_plan(pulse, samples[-1], DT))
        assert len(windows) == 2
        for a, b in windows:
            assert np.count_nonzero((samples > a) & (samples <= b)) > SAMPLE_BLOCK
    got, states = TimeSeriesRecorder(pieces, OutputConfig(watch_populations=WATCH)), []
    traj = run_schedule(pieces, pulse, DT, TOL, samples, observers=(got,))
    full = oracles.full_space_schedule(pieces, pulse, DT, TOL, samples,
                                       observers=(lambda t, k, c: states.append(c),))
    # the recorder reads sector rows, so the full-basis rows go through the per-sample oracle columns
    ref = oracles.per_sample_columns(basis, np.concatenate(states), WATCH)

    def assert_close(a, b, what):
        err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
        assert a.shape == b.shape and err.max() <= 1e-12, (what, err.max())

    assert np.array_equal(got.column("t_red"), samples)
    for name in COLUMNS:
        assert_close(got.column(name), ref[name], name)
    for entry in WATCH:
        assert_close(got.population_column(entry), ref[entry], entry)
    assert_close(traj.h0_expect, full.h0_expect, "h0_expect")
    assert_close(traj.norms, full.norms, "norms")
    assert_close(traj.psi_final, full.psi_final, "psi_final")
    assert traj.psi_final.shape == (basis.size,)
