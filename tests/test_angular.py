import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
import rotorpair
from rotorpair.angular import TwoRotorBasis, one_rotor_steps
from rotorpair.exceptions import QueryError

COS, S_PLUS, S_MINUS = (oracles.one_rotor_dense(5)[symbol] for symbol in ("cos", "s+", "s-"))


def _element(matrix, l_to, m_to, l_from, m_from):
    """<l_to m_to| A |l_from m_from> read from a one-rotor matrix."""
    return matrix[l_to * l_to + l_to + m_to, l_from * l_from + l_from + m_from]


def test_l_squared_eigenvalue():
    basis = TwoRotorBasis(3)
    assert basis.rotor_diagonal[basis.index_of(0, 0, 0, 0)] == 0.0
    assert basis.rotor_diagonal[basis.index_of(3, 0, 0, 0)] == 12.0
    assert basis.rotor_diagonal[basis.index_of(0, 0, 3, 0)] == 12.0
    assert basis.rotor_diagonal[basis.index_of(2, 2, 3, -2)] == 18.0


# --- cos(theta) ------------------------------------------------------------

def test_costheta_ground_to_first_excited():
    # 1/sqrt(3); the quadrature cross-check lives in the acceptance suite
    v = _element(COS, 1, 0, 0, 0)
    assert v == pytest.approx(0.5773502691896257, abs=1e-15)


def test_costheta_at_higher_l():
    v = _element(COS, 2, 1, 1, 1)
    assert v == pytest.approx(math.sqrt(3.0 / 15.0), abs=1e-15)
    v = _element(COS, 1, 0, 2, 0)
    assert v == pytest.approx(math.sqrt(4.0 / 15.0), abs=1e-15)


def test_costheta_selection_rules():
    assert _element(COS, 1, 0, 1, 0) == 0.0
    assert _element(COS, 2, 0, 0, 0) == 0.0
    assert _element(COS, 2, 0, 1, 1) == 0.0
    # only dl = +-1 at equal m is stored
    rows, cols = COS.nonzero()
    l_row, l_col = np.floor(np.sqrt(rows)), np.floor(np.sqrt(cols))
    assert np.all(np.abs(l_row - l_col) == 1)
    assert np.array_equal(rows - l_row * (l_row + 1), cols - l_col * (l_col + 1))


def test_costheta_is_symmetric():
    assert COS.shape == (36, 36) and COS.dtype == np.float64
    assert np.array_equal(COS, COS.T)


# --- sin(theta) e^{+-i phi} -------------------------------------------------

def test_sintheta_raising_from_the_ground_state():
    v = _element(S_PLUS, 1, 1, 0, 0)
    assert v == pytest.approx(-math.sqrt(2.0 / 3.0), abs=1e-15)


def test_sintheta_lowering_from_the_ground_state():
    v = _element(S_MINUS, 1, -1, 0, 0)
    assert v == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)


def test_sintheta_within_l_one():
    # the four elements the dipole exchange term uses at low l
    assert _element(S_MINUS, 2, -2, 1, -1) == pytest.approx(math.sqrt(12.0 / 15.0), abs=1e-15)
    assert _element(S_PLUS, 0, 0, 1, -1) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    assert _element(S_MINUS, 0, 0, 1, 1) == pytest.approx(-math.sqrt(2.0 / 3.0), abs=1e-15)
    assert _element(S_PLUS, 2, 2, 1, 1) == pytest.approx(-math.sqrt(12.0 / 15.0), abs=1e-15)


def test_sintheta_selection_rules_and_sign_argument():
    assert _element(S_PLUS, 2, 0, 1, 0) == 0.0
    assert _element(S_PLUS, 1, 1, 1, 0) == 0.0
    # s+ raises m by one unit and changes l by one
    rows, cols = S_PLUS.nonzero()
    l_row, l_col = np.floor(np.sqrt(rows)), np.floor(np.sqrt(cols))
    assert np.all(np.abs(l_row - l_col) == 1)
    assert np.array_equal(rows - l_row * (l_row + 1), cols - l_col * (l_col + 1) + 1)


def test_sintheta_adjointness():
    # <a| s+ |b> = conj(<b| s- |a>); everything is real in this convention,
    # so the package's s- = s+.T must be the quadrature s-
    assert S_PLUS.dtype == np.float64 and np.array_equal(S_MINUS, S_PLUS.T)
    quad = oracles.single_rotor_matrix("s-", 3)
    assert np.abs(oracles.one_rotor_dense(3)["s-"] - quad).max() < 1e-10


@pytest.mark.parametrize("l_max", [0, 1, 5, 12])
def test_every_step_value_is_evaluated_inside_its_domain(l_max):
    l = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    m = np.arange(l.size) - l * l - l
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        steps = one_rotor_steps(l, m)
    assert sorted(steps) == ["cos", "s+", "s-"]
    for symbol, dm in (("cos", 0), ("s+", 1), ("s-", -1)):
        assert [(dl, step_dm) for dl, step_dm, _ in steps[symbol]] == [(1, dm), (-1, dm)]
        for dl, _, value in steps[symbol]:
            assert value.shape == l.shape and np.all(np.isfinite(value))
            # a step onto no state is +0.0: at l = 0 the closed form of a down step would read sqrt(0/-1) = -0.0
            off = np.abs(m + dm) > l + dl
            assert np.all(value[off] == 0.0) and not np.any(np.signbit(value[off]))
            assert np.all(value[~off] != 0.0)


# --- two-rotor basis --------------------------------------------------------

def test_basis_sizes_m_zero_block():
    assert TwoRotorBasis(2).size == 19
    assert TwoRotorBasis(8).size == 489
    assert TwoRotorBasis(10).size == 891


def _states(basis):
    """(l1, m1, l2, m2) of every basis state, read from its arrays."""
    return list(zip(basis.l1.tolist(), basis.m1.tolist(), basis.l2.tolist(), basis.m2.tolist()))


def test_basis_is_lexicographic():
    basis = TwoRotorBasis(1)
    assert _states(basis) == [
        (0, 0, 0, 0),
        (0, 0, 1, 0),
        (1, -1, 1, 1),
        (1, 0, 0, 0),
        (1, 0, 1, 0),
        (1, 1, 1, -1),
    ]
    assert oracles.product_index(basis).tolist() == [0, 2, 7, 8, 10, 13]
    for k, state in enumerate(_states(basis)):
        assert basis.index_of(*state) == k


def test_basis_holds_only_the_m_zero_states():
    basis = TwoRotorBasis(2)
    assert np.all(basis.m1 + basis.m2 == 0)


def test_basis_membership_queries():
    basis = TwoRotorBasis(2)
    assert _states(basis)[basis.index_of(1, 1, 1, -1)] == (1, 1, 1, -1)
    with pytest.raises(QueryError):
        basis.index_of(1, 1, 0, 0)
    with pytest.raises(QueryError):
        basis.index_of(9, 0, 9, 0)


def test_basis_arrays_match_the_state_list():
    basis = TwoRotorBasis(3)
    single1, single2 = oracles.one_rotor_indices(basis)
    index = oracles.product_index(basis)
    for k, (l1, m1, l2, m2) in enumerate(_states(basis)):
        assert single1[k] == l1 * l1 + l1 + m1
        assert single2[k] == l2 * l2 + l2 + m2
        assert index[k] == single1[k] * 16 + single2[k]
        assert basis.rotor_diagonal[k] == l1 * (l1 + 1) + l2 * (l2 + 1)
    assert basis.d_single == 16


def _enumerated(l_max, total_m=0):
    """Product states spelled out one by one: lexicographic (l1, m1, l2, m2), m from -l to l,
    those with m1 + m2 == total_m, or every one if total_m is None."""
    return [(l1, m1, l2, m2)
            for l1 in range(l_max + 1) for m1 in range(-l1, l1 + 1)
            for l2 in range(l_max + 1) for m2 in range(-l2, l2 + 1)
            if total_m is None or m1 + m2 == total_m]


def _assert_only_m_zero_is_kept(basis, total_m):
    """The basis is the M = 0 part of the product space, in product order; the
    states of total M (every M if None) off M = 0 are refused by index_of."""
    product = _enumerated(basis.l_max, None)
    kept = {state: k for k, state in enumerate(s for s in product if s[1] + s[3] == 0)}
    assert _states(basis) == list(kept)
    states = _enumerated(basis.l_max, total_m)
    assert bool(states) == (total_m is None or abs(total_m) <= 2 * basis.l_max)
    for state in states:
        if state in kept:
            assert basis.index_of(*state) == kept[state]
        else:
            with pytest.raises(QueryError, match=rf"is not in the basis \(l_max={basis.l_max}, M = 0\)"):
                basis.index_of(*state)


@pytest.mark.parametrize("total_m", [None, 0, 1, -2, 3])
@pytest.mark.parametrize("l_max", range(13))
def test_basis_matches_an_explicit_enumeration(l_max, total_m):
    basis = TwoRotorBasis(l_max)
    if total_m != 0:  # the M != 0 blocks and the whole product space: only M = 0 is a basis
        _assert_only_m_zero_is_kept(basis, total_m)
        return
    states = _enumerated(l_max)
    d = (l_max + 1) ** 2
    l1, m1, l2, m2 = np.array(states, dtype=np.int64).T
    expected = {
        "l1": l1, "m1": m1, "l2": l2, "m2": m2,
        "rotor_diagonal": (l1 * (l1 + 1) + l2 * (l2 + 1)).astype(np.float64),
    }
    for name, want in expected.items():
        got = getattr(basis, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert basis.size == len(states)
    for k, state in enumerate(states):
        assert basis.index_of(*state) == k
    # the product-space mask: state k of the basis is the k-th product state with m1 + m2 == 0,
    # and positions numbers those in order and gives -1 for every other product state
    kept = np.flatnonzero(oracles.product_total_m(l_max) == 0)
    assert np.array_equal(oracles.product_index(basis), kept)
    assert np.array_equal(oracles.product_index(basis), (l1 * l1 + l1 + m1) * d + l2 * l2 + l2 + m2)
    product = np.array(_enumerated(l_max, None)).T
    expected_positions = np.full(d * d, -1)
    expected_positions[kept] = np.arange(kept.size)
    assert np.array_equal(basis.positions(*product), expected_positions)
    blocks = [[[states.index((m + i, m, m + j, -m)) for j in range(l_max + 1 - m)]
               for i in range(l_max + 1 - m)] for m in range(l_max + 1)]
    assert [b.tolist() for b in basis.schmidt_blocks] == blocks
    # negative l, l past l_max, |m| > l, which l*l + l + m would alias onto another state (also
    # with m1 + m2 == 0), and M != 0
    queries = ((-1, 0, 0, 0), (0, 0, -1, 1), (l_max + 1, 0, 0, 0), (0, 0, l_max + 1, -l_max - 1),
               (1, 2, 0, 0), (1, 2, 1, -2), (l_max, l_max + 1, l_max, -l_max - 1), (l_max, 1, l_max, 0))
    assert basis.positions(*np.array(queries).T).tolist() == [-1] * len(queries)
    for query in queries:
        assert basis.positions(*query) == -1
        with pytest.raises(QueryError, match="is not in the basis"):
            basis.index_of(*query)


@pytest.mark.parametrize("l_max", range(7))
def test_positions_match_an_explicit_enumeration(l_max):
    # every (l1, m1; l2, m2) with l from -2 to l_max + 1 and |m| <= |l| + 1: l < 0, l > l_max, |m| > l and M != 0
    # are all in it, and each of those is off the basis
    states = _enumerated(l_max)
    span = [(l, m) for l in range(-2, l_max + 2) for m in range(-abs(l) - 1, abs(l) + 2)]
    queries = [(l1, m1, l2, m2) for l1, m1 in span for l2, m2 in span]
    position = {state: k for k, state in enumerate(states)}
    expected = [position.get(q, -1) for q in queries]
    assert expected.count(-1) == len(queries) - len(states)
    basis = TwoRotorBasis(l_max)
    got = basis.positions(*np.array(queries).T)
    assert got.shape == (len(queries),) and got.tolist() == expected
    # broadcast: a column of rotor-1 states against a row of rotor-2 states
    l, m = np.array(span).T
    grid = basis.positions(l[:, None], m[:, None], l, -m)
    assert grid.tolist() == [[position.get((a, b, c, -d), -1) for c, d in span] for a, b in span]


def test_a_large_basis_and_its_index_maps_allocate_little():
    tracemalloc.start()
    try:
        basis = TwoRotorBasis(56)
        basis.sector_gather, basis.schmidt_blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20  # masking the d_single^2 product space for its M = 0 states took 90.7 MiB


def test_the_basis_layer_imports_no_scipy():
    # the basis is index arithmetic on numpy arrays; sparse matrices start in operators
    env = dict(os.environ, PYTHONPATH=str(Path(rotorpair.__file__).resolve().parents[1]))
    code = "import sys, rotorpair.angular; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_basis_takes_numpy_integers():
    assert TwoRotorBasis(np.int64(2)).size == TwoRotorBasis(2).size
