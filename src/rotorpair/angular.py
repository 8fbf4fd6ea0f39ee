"""Two-rotor product basis and exact one-body angular matrix elements.

Matrix elements follow the Condon-Shortley phase convention; the test
suite validates every closed form against numerical quadrature before
it is trusted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .exceptions import InvalidConfigError, QueryError


@dataclass(frozen=True, order=True)
class RotorState:
    l: int
    m: int

    def __post_init__(self) -> None:
        if self.l < 0:
            raise ValueError(f"l must be non-negative, got {self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"|m| must not exceed l, got (l={self.l}, m={self.m})")


def single_index(l: int, m: int) -> int:
    """Position of (l, m) in the flat one-rotor ordering (0,0), (1,-1), (1,0), ..."""
    return l * l + l + m


def costheta_element(frm: RotorState, to: RotorState) -> float:
    """<Y_to | cos(theta) | Y_frm>; zero unless m_to = m_frm and l_to = l_frm +- 1."""
    if to.m != frm.m:
        return 0.0
    return _costheta(frm.l, frm.m, to.l)


def sintheta_exp_element(frm: RotorState, sign: int, to: RotorState) -> float:
    """<Y_to | sin(theta) e^{i sign phi} | Y_frm> with sign = +1 or -1."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if to.m != frm.m + sign:
        return 0.0
    return _sintheta_exp(frm.l, frm.m, sign, to.l)


def _costheta(l: int, m: int, l_to: int) -> float:
    if l_to == l + 1:
        return math.sqrt(((l + 1) ** 2 - m * m) / ((2 * l + 1) * (2 * l + 3)))
    if l_to == l - 1:
        return math.sqrt((l * l - m * m) / ((2 * l - 1) * (2 * l + 1)))
    return 0.0


def _sintheta_exp(l: int, m: int, sign: int, l_to: int) -> float:
    # Raising/lowering pieces of the unit position vector; each branch is
    # fixed by the quadrature oracle, not re-derived at use sites.
    if sign == 1:
        if l_to == l + 1:
            return -math.sqrt((l + m + 1) * (l + m + 2) / ((2 * l + 1) * (2 * l + 3)))
        if l_to == l - 1:
            return math.sqrt((l - m) * (l - m - 1) / ((2 * l - 1) * (2 * l + 1)))
    else:
        if l_to == l + 1:
            return math.sqrt((l - m + 1) * (l - m + 2) / ((2 * l + 1) * (2 * l + 3)))
        if l_to == l - 1:
            return -math.sqrt((l + m) * (l + m - 1) / ((2 * l - 1) * (2 * l + 1)))
    return 0.0


class TwoRotorBasis:
    """Ordered product basis |Y_l1m1>|Y_l2m2> truncated at a shared l_max.

    States are ordered lexicographically in (l1, m1, l2, m2) with m
    running from -l to l. That ordering makes the unrestricted basis
    reshape row-major into the (l_max+1)^2 x (l_max+1)^2 coefficient
    matrix used by the Schmidt analysis. restrict_total_m keeps only
    states with m1 + m2 equal to the given M; None keeps everything.
    """

    def __init__(self, l_max: int, restrict_total_m: int | None = None):
        if l_max < 0:
            raise InvalidConfigError(f"l_max must be non-negative, got {l_max}")
        self.l_max = int(l_max)
        self.restrict_total_m = None if restrict_total_m is None else int(restrict_total_m)

        states: list[tuple[int, int, int, int]] = []
        for l1 in range(self.l_max + 1):
            for m1 in range(-l1, l1 + 1):
                for l2 in range(self.l_max + 1):
                    for m2 in range(-l2, l2 + 1):
                        if self.restrict_total_m is not None and m1 + m2 != self.restrict_total_m:
                            continue
                        states.append((l1, m1, l2, m2))
        if not states:
            raise InvalidConfigError(
                f"basis is empty: no states with m1 + m2 = {self.restrict_total_m} at l_max = {self.l_max}"
            )

        self.states: tuple[tuple[int, int, int, int], ...] = tuple(states)
        self._index: dict[tuple[int, int, int, int], int] = {s: k for k, s in enumerate(states)}

        arr = np.asarray(states, dtype=np.int64)
        self.l1 = arr[:, 0]
        self.m1 = arr[:, 1]
        self.l2 = arr[:, 2]
        self.m2 = arr[:, 3]
        # Flat one-rotor index of each factor, used to scatter the
        # coefficient vector into the Schmidt matrix.
        self.mol1_single = self.l1 * self.l1 + self.l1 + self.m1
        self.mol2_single = self.l2 * self.l2 + self.l2 + self.m2
        # With m1 + m2 fixed the Schmidt matrix is block diagonal: one block
        # per m1, rows l1 - |m1| and columns l2 - |m2|, each zero-padded to
        # (l_max+1) x (l_max+1). The full basis is one d_single x d_single
        # block. schmidt_flat is each state's position in the stacked blocks.
        if self.restrict_total_m is None:
            block, row, col, side = np.zeros_like(self.l1), self.mol1_single, self.mol2_single, self.d_single
        else:
            block = self.m1 - self.m1.min()
            row, col, side = self.l1 - np.abs(self.m1), self.l2 - np.abs(self.m2), self.l_max + 1
        self.schmidt_shape = (int(block.max()) + 1, side, side)
        self.schmidt_flat = (block * side + row) * side + col
        self.rotor_diagonal = (self.l1 * (self.l1 + 1) + self.l2 * (self.l2 + 1)).astype(float)

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def d_single(self) -> int:
        return (self.l_max + 1) ** 2

    @cached_property
    def sector_isometry(self) -> sparse.csr_matrix:
        """Real isometry S (size x n_s) onto the M = 0 states even under the
        swap P12 and the reflection sigma_v (m -> -m on both rotors, phase
        (-1)^(m1+m2) = +1): column j is the normalized sum of one orbit of
        {1, P12, sigma_v, P12 sigma_v}. In the full basis the rows off M = 0 are empty.
        """
        d = self.d_single
        lookup = np.full(d * d, -1)
        lookup[self.mol1_single * d + self.mol2_single] = np.arange(self.size)
        rows = np.flatnonzero(self.m1 + self.m2 == 0)
        a, b = self.mol1_single[rows], self.mol2_single[rows]
        # (l, -m) sits at l*l + l - m in the one-rotor ordering
        ra, rb = a - 2 * self.m1[rows], b - 2 * self.m2[rows]
        images = lookup[np.stack([a * d + b, b * d + a, ra * d + rb, rb * d + ra])]
        orbits, column = np.unique(images.min(axis=0), return_inverse=True)
        weight = 1.0 / np.sqrt(np.bincount(column)[column])
        return sparse.csr_matrix((weight, (rows, column)), shape=(self.size, orbits.size))

    def index_of(self, l1: int, m1: int, l2: int, m2: int) -> int:
        try:
            return self._index[(l1, m1, l2, m2)]
        except KeyError:
            raise QueryError(
                f"state ({l1},{m1};{l2},{m2}) is not in the basis"
                f" (l_max={self.l_max}, restrict_total_m={self.restrict_total_m})"
            ) from None

    def contains(self, l1: int, m1: int, l2: int, m2: int) -> bool:
        return (l1, m1, l2, m2) in self._index
