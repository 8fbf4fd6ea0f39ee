"""The symmetric sector that run_schedule propagates in.

The sector is spanned by the M = 0 states even under the swap P12 of
the molecules and the reflection sigma_v (m -> -m on both rotors). These
tests check the isometry onto it, that H0 and V leave it invariant, that
a symmetry-breaking operator is refused, and that the sector run
reproduces the run loop over every basis state kept in tests/oracles.py,
on the M = 0 basis and on the whole product space.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import norm as sparse_norm

import oracles
from rotorpair.angular import TwoRotorBasis
from rotorpair.config import IntegratorSettings, OutputConfig
from rotorpair.exceptions import ConsistencyError
from rotorpair.observables import COLUMNS, TimeSeriesRecorder
from rotorpair.operators import HamiltonianPieces, PulseSchedule, build_pieces, fold_to_sector
from rotorpair.propagation import SAMPLE_BLOCK, initial_state, run_schedule, step_plan

# reduced parameters of the default molecule pair (see test_propagation.py)
KICK = 386.21612373411443
SIGMA = 0.006306465451214133
T0 = 0.027124582585867238
OMEGA = 249.9999998468202
DIPOLE = 0.13150852670024232
DT = SIGMA / 2.0  # the default pulse-core step
TOL = IntegratorSettings().norm_tolerance


def _symmetry_images(basis):
    """Positions of the P12 and sigma_v images of every basis state, by lookup."""
    states = list(zip(basis.l1, basis.m1, basis.l2, basis.m2))
    swap = [basis.index_of(l2, m2, l1, m1) for l1, m1, l2, m2 in states]
    flip = [basis.index_of(l1, -m1, l2, -m2) for l1, m1, l2, m2 in states]
    return np.array(swap), np.array(flip)


@settings(max_examples=25, deadline=None)
@given(l_max=st.integers(1, 5), dipole=st.floats(0.0, 2.0, allow_nan=False))
def test_the_sector_isometry_spans_an_invariant_subspace(l_max, dipole):
    basis = TwoRotorBasis(l_max)
    ops = oracles.basis_operators(basis, dipole)
    pieces = build_pieces(basis, dipole)
    s = oracles.sector_isometry(basis)
    n_s = s.shape[1]
    assert s.shape[0] == basis.size and np.isrealobj(s.data)
    assert np.abs((s.T @ s).toarray() - np.eye(n_s)).max() <= 1e-15
    # the gather map is S row by row: one positive weight per row, in one column
    column, weight = basis.sector_gather
    assert np.array_equal(s.toarray()[np.arange(basis.size), column], weight)
    assert np.all(np.diff(s.indptr) == 1) and np.all(weight > 0.0)
    # every column is even under P12 and sigma_v
    swap, flip = _symmetry_images(basis)
    dense = s.toarray()
    assert np.array_equal(dense[swap], dense) and np.array_equal(dense[flip], dense)
    # (I - S S^T) A S = A S - S (S^T A S) is what leaks out of range(S); the pieces are the folds
    for op, op_s in ((ops.h0, pieces.h0), (ops.coupling, pieces.coupling)):
        assert sparse_norm(op @ s - s @ (s.T @ op @ s)) <= 1e-13
        assert (op_s != s.T @ op @ s).nnz == 0
    assert np.array_equal(pieces.energies, s.multiply(s).T @ basis.rotor_diagonal)
    # |00;00> is its own orbit, so the sector row e_0 is the basis state e_0
    assert column[0] == 0 and weight[0] == 1.0
    assert np.array_equal(s @ initial_state(n_s), oracles.ground_state(ops))


@pytest.mark.parametrize("l_max, n, n_s", [(8, 489, 165), (10, 891, 286)])
def test_sector_sizes(l_max, n, n_s):
    basis = TwoRotorBasis(l_max)
    assert oracles.sector_isometry(basis).shape == (n, n_s)


@pytest.mark.parametrize("l_max", range(11))
def test_the_sector_has_one_column_per_symmetry_orbit(l_max):
    # the orbits under {1, P12, sigma_v, P12 sigma_v} spelled out state by state, without the index lookups
    basis = TwoRotorBasis(l_max)
    states = list(zip(basis.l1.tolist(), basis.m1.tolist(), basis.l2.tolist(), basis.m2.tolist()))
    orbit = {(l1, m1, l2, m2): frozenset({(l1, m1, l2, m2), (l2, m2, l1, m1), (l1, -m1, l2, -m2), (l2, -m2, l1, -m1)})
             for l1, m1, l2, m2 in states}
    column, weight = basis.sector_gather
    groups = {}
    for state, col in zip(states, column.tolist()):
        groups.setdefault(col, set()).add(state)
    assert sorted(groups) == list(range(len(groups)))
    assert {frozenset(g) for g in groups.values()} == set(orbit.values())
    assert oracles.sector_isometry(basis).shape == (len(states), len(set(orbit.values())))
    assert np.array_equal(weight, 1.0 / np.sqrt([len(orbit[state]) for state in states]))


@pytest.mark.parametrize("l_max", range(11))
def test_the_even_orbits_come_first(l_max):
    basis = TwoRotorBasis(l_max)
    column, _ = basis.sector_gather
    even, split = (basis.l1 + basis.l2) % 2 == 0, basis.sector_split
    assert basis.index_of(0, 0, 0, 0) == 0 and column[0] == 0
    assert np.all(column[even] < split) and np.all(column[~even] >= split)
    assert split == np.unique(column[even]).size
    # within each parity, the columns follow the first basis position of their orbits
    first = np.full(column.max() + 1, basis.size)
    np.minimum.at(first, column, np.arange(basis.size))
    assert np.all(np.diff(first[:split]) > 0) and np.all(np.diff(first[split:]) > 0)


@pytest.mark.parametrize("dipole", [0.0, 0.444])
@pytest.mark.parametrize("l_max", range(1, 11))
def test_h0_keeps_the_parity_and_v_flips_it(l_max, dipole):
    pieces = build_pieces(TwoRotorBasis(l_max), dipole)
    split = pieces.basis.sector_split
    h0, v = pieces.h0.toarray(), pieces.coupling.toarray()
    assert not h0[:split, split:].any() and not h0[split:, :split].any()
    assert not v[:split, :split].any() and not v[split:, split:].any()
    assert v[:split, split:].any()


def test_pieces_whose_h0_or_v_breaks_the_parity_are_refused():
    pieces = build_pieces(TwoRotorBasis(3), DIPOLE)
    split = pieces.basis.sector_split
    for name, entry in (("H0", (0, split)), ("V", (1, 0))):
        bent = (pieces.h0 if name == "H0" else pieces.coupling).tolil()
        bent[entry] = bent[entry[::-1]] = 1e-3
        parts = (bent.tocsr(), pieces.coupling) if name == "H0" else (pieces.h0, bent.tocsr())
        with pytest.raises(ConsistencyError, match=rf"^{name} must (keep|flip) the parity .* 1\.000e-03 "):
            HamiltonianPieces(pieces.basis, *parts, pieces.energies)


def _pulse(count=1, period=0.0):
    return PulseSchedule(kick_strength=KICK, sigma_red=SIGMA, t0_red=T0, carrier_omega=OMEGA,
                         period_red=period, count=count)


def test_a_symmetry_breaking_operator_is_refused():
    basis = TwoRotorBasis(2)
    ops = oracles.basis_operators(basis, DIPOLE)
    cos1, cos2 = (sparse.csr_matrix(op) for op in oracles.orientation_pair(basis))
    # cos(theta_1) alone is not even under the swap of the molecules
    with pytest.raises(ConsistencyError, match=r"^V leaks out of the symmetric sector by \S+ \(tolerance 1\.0e-12\)$"):
        fold_to_sector(basis, "V", cos1, 1e-12)
    with pytest.raises(ConsistencyError, match="H0 leaks out of the symmetric sector"):
        fold_to_sector(basis, "H0", (ops.h0 + cos2).tocsr(), 1e-12)
    # their sum is even, and folds onto the package's V_s up to quadrature rounding
    v_s = fold_to_sector(basis, "V", (cos1 + cos2).tocsr(), 1e-12)
    assert abs(v_s - build_pieces(basis, DIPOLE).coupling).max() <= 1e-13


WATCH = ((0, 0, 0, 0), (1, 0, 1, 0), (2, 0, 1, 0), (1, -1, 1, 1))


@pytest.mark.parametrize("case", ["single_pulse", "two_pulse_train", "product_space"])
def test_the_sector_run_matches_the_full_space_loop(case):
    basis = TwoRotorBasis(2 if case == "product_space" else 4)
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
    if case == "product_space":
        # the quadrature operators over all 81 product states, every M; the run never leaves M = 0
        ops = oracles.product_operators(basis.l_max, DIPOLE)
    else:
        ops = oracles.basis_operators(basis, DIPOLE)
    full = oracles.full_space_schedule(ops, pulse, DT, TOL, samples,
                                       observers=(lambda t, k, c: states.append(c),))
    states, psi_final = np.concatenate(states), full.psi_final
    if case == "product_space":
        assert np.abs(states[:, oracles.product_total_m(basis.l_max) != 0]).max() <= 1e-14
        index = oracles.product_index(basis)
        states, psi_final = states[:, index], psi_final[index]
    # the recorder reads sector rows, so the basis rows go through the per-sample oracle columns
    ref = oracles.per_sample_columns(basis, states, WATCH)

    def assert_close(a, b, what):
        err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
        assert a.shape == b.shape and err.max() <= 1e-12, (what, err.max())

    assert np.array_equal(got.column("t_red"), samples)
    for name in COLUMNS:
        assert_close(got.column(name), ref[name], name)
    for entry in WATCH:
        assert_close(got.population_column(entry), ref[entry], entry)
    assert_close(got.column("h0_expect"), full.h0_expect, "h0_expect")
    assert_close(traj.norms, full.norms, "norms")
    assert_close(traj.psi_final, psi_final, "psi_final")
    assert traj.psi_final.shape == (basis.size,)
