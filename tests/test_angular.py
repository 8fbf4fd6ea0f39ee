import math

import pytest

from rotorpair.angular import (
    RotorState,
    TwoRotorBasis,
    costheta_element,
    single_index,
    sintheta_exp_element,
)
from rotorpair.exceptions import InvalidConfigError, QueryError


def test_rotor_state_bounds():
    RotorState(0, 0)
    RotorState(3, -3)
    with pytest.raises(ValueError):
        RotorState(-1, 0)
    with pytest.raises(ValueError):
        RotorState(1, 2)
    with pytest.raises(ValueError):
        RotorState(2, -3)


def test_single_index_enumerates_states_in_l_then_m_order():
    assert single_index(0, 0) == 0
    assert single_index(1, -1) == 1
    assert single_index(1, 0) == 2
    assert single_index(1, 1) == 3
    assert single_index(2, -2) == 4
    assert single_index(3, 3) == 15


def test_l_squared_eigenvalue():
    basis = TwoRotorBasis(3, None)
    assert basis.rotor_diagonal[basis.index_of(0, 0, 0, 0)] == 0.0
    assert basis.rotor_diagonal[basis.index_of(3, -2, 0, 0)] == 12.0
    assert basis.rotor_diagonal[basis.index_of(0, 0, 3, -2)] == 12.0
    assert basis.rotor_diagonal[basis.index_of(2, 1, 3, -2)] == 18.0


# --- cos(theta) ------------------------------------------------------------

def test_costheta_ground_to_first_excited():
    # 1/sqrt(3); the quadrature cross-check lives in the acceptance suite
    v = costheta_element(RotorState(0, 0), RotorState(1, 0))
    assert v == pytest.approx(0.5773502691896257, abs=1e-15)


def test_costheta_at_higher_l():
    v = costheta_element(RotorState(1, 1), RotorState(2, 1))
    assert v == pytest.approx(math.sqrt(3.0 / 15.0), abs=1e-15)
    v = costheta_element(RotorState(2, 0), RotorState(1, 0))
    assert v == pytest.approx(math.sqrt(4.0 / 15.0), abs=1e-15)


def test_costheta_selection_rules():
    assert costheta_element(RotorState(1, 0), RotorState(1, 0)) == 0.0
    assert costheta_element(RotorState(0, 0), RotorState(2, 0)) == 0.0
    assert costheta_element(RotorState(1, 1), RotorState(2, 0)) == 0.0


def test_costheta_is_symmetric():
    for l in range(5):
        for m in range(-l, l + 1):
            up = costheta_element(RotorState(l, m), RotorState(l + 1, m))
            down = costheta_element(RotorState(l + 1, m), RotorState(l, m))
            assert up == pytest.approx(down, abs=1e-15)


# --- sin(theta) e^{+-i phi} -------------------------------------------------

def test_sintheta_raising_from_the_ground_state():
    v = sintheta_exp_element(RotorState(0, 0), 1, RotorState(1, 1))
    assert v == pytest.approx(-math.sqrt(2.0 / 3.0), abs=1e-15)


def test_sintheta_lowering_from_the_ground_state():
    v = sintheta_exp_element(RotorState(0, 0), -1, RotorState(1, -1))
    assert v == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)


def test_sintheta_within_l_one():
    # the four elements the dipole exchange term uses at low l
    assert sintheta_exp_element(RotorState(1, -1), -1, RotorState(2, -2)) == \
        pytest.approx(math.sqrt(12.0 / 15.0), abs=1e-15)
    assert sintheta_exp_element(RotorState(1, -1), 1, RotorState(0, 0)) == \
        pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
    assert sintheta_exp_element(RotorState(1, 1), -1, RotorState(0, 0)) == \
        pytest.approx(-math.sqrt(2.0 / 3.0), abs=1e-15)
    assert sintheta_exp_element(RotorState(1, 1), 1, RotorState(2, 2)) == \
        pytest.approx(-math.sqrt(12.0 / 15.0), abs=1e-15)


def test_sintheta_selection_rules_and_sign_argument():
    assert sintheta_exp_element(RotorState(1, 0), 1, RotorState(2, 0)) == 0.0
    assert sintheta_exp_element(RotorState(1, 0), 1, RotorState(1, 1)) == 0.0
    with pytest.raises(ValueError):
        sintheta_exp_element(RotorState(1, 0), 2, RotorState(2, 1))


def test_sintheta_adjointness():
    # <a| s+ |b> = conj(<b| s- |a>); everything is real in this convention
    for l in range(4):
        for m in range(-l, l + 1):
            for l_to, m_to in ((l + 1, m + 1), (l - 1, m + 1)):
                if l_to < abs(m_to) or l_to < 0:
                    continue
                fwd = sintheta_exp_element(RotorState(l, m), 1, RotorState(l_to, m_to))
                bwd = sintheta_exp_element(RotorState(l_to, m_to), -1, RotorState(l, m))
                assert fwd == pytest.approx(bwd, abs=1e-15)


# --- two-rotor basis --------------------------------------------------------

def test_basis_sizes_m_zero_block():
    assert TwoRotorBasis(2, 0).size == 19
    assert TwoRotorBasis(8, 0).size == 489
    assert TwoRotorBasis(10, 0).size == 891


def test_basis_sizes_full():
    assert TwoRotorBasis(2, None).size == 81
    assert TwoRotorBasis(3, None).size == 256


def test_basis_is_lexicographic():
    basis = TwoRotorBasis(1, None)
    assert basis.states[:5] == (
        (0, 0, 0, 0),
        (0, 0, 1, -1),
        (0, 0, 1, 0),
        (0, 0, 1, 1),
        (1, -1, 0, 0),
    )
    for k, state in enumerate(basis.states):
        assert basis.index_of(*state) == k


def test_basis_restriction_keeps_only_the_requested_total_m():
    basis = TwoRotorBasis(2, 1)
    assert all(m1 + m2 == 1 for (_, m1, _, m2) in basis.states)
    assert basis.restrict_total_m == 1


def test_basis_membership_queries():
    basis = TwoRotorBasis(2, 0)
    assert basis.contains(1, 1, 1, -1)
    assert not basis.contains(1, 1, 0, 0)
    with pytest.raises(QueryError):
        basis.index_of(1, 1, 0, 0)
    with pytest.raises(QueryError):
        basis.index_of(9, 0, 9, 0)


def test_basis_arrays_match_the_state_list():
    basis = TwoRotorBasis(3, 0)
    for k, (l1, m1, l2, m2) in enumerate(basis.states):
        assert basis.l1[k] == l1 and basis.m1[k] == m1
        assert basis.l2[k] == l2 and basis.m2[k] == m2
        assert basis.mol1_single[k] == single_index(l1, m1)
        assert basis.mol2_single[k] == single_index(l2, m2)
        assert basis.rotor_diagonal[k] == l1 * (l1 + 1) + l2 * (l2 + 1)
    assert basis.d_single == 16


def test_basis_rejects_bad_parameters():
    with pytest.raises(InvalidConfigError):
        TwoRotorBasis(-1, 0)
    with pytest.raises(InvalidConfigError):
        TwoRotorBasis(1, 5)  # no states can reach total M = 5
