"""Two-rotor product basis and exact one-body angular matrix elements.

Matrix elements follow the Condon-Shortley phase convention; the test
suite validates every closed form against numerical quadrature before
it is trusted here.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .exceptions import QueryError


def _rise(l, m, dm: int):
    """<l+1, m+dm|A|l, m> for |m| <= l, of the A in (cos, s+, s-) that moves m by dm = 0, 1, -1."""
    den = (2 * l + 1) * (2 * l + 3)
    if dm == 0:
        return np.sqrt(((l + 1) ** 2 - m * m) / den)
    return -dm * np.sqrt((l + dm * m + 1) * (l + dm * m + 2) / den)


def one_rotor_steps(l, m) -> dict:
    """The steps of the real one-rotor cos(theta) and s+- = sin(theta) e^{+-i phi} from the states
    |l, m> (integer arrays, |m| <= l), as {A: ((dl, dm, <l+dl, m+dm|A|l, m>), ...)}; every step moves
    l by one. A down step is the up step of the adjoint (s+ <-> s-) that it reverses, taken from its
    target, so s- = s+^T; where the target is no state (|m + dm| > l - 1) it is 0, not evaluated."""
    steps = {}
    for name, dm in (("cos", 0), ("s+", 1), ("s-", -1)):
        down, lands = np.zeros(l.shape), np.abs(m + dm) < l
        down[lands] = _rise(l[lands] - 1, m[lands] + dm, -dm)
        steps[name] = ((1, dm, _rise(l, m, dm)), (-1, dm, down))
    return steps


class TwoRotorBasis:
    """The M = 0 product states |Y_l1m1>|Y_l2m2>, m1 + m2 = 0, truncated at a shared l_max.

    The states are listed in lexicographic (l1, m1, l2, m2) order, m from -l
    to l: each one-rotor state (l1, m1), in its index order l*l + l + m, is
    followed by its partners l2 = |m1|..l_max, m2 = -m1, which start at
    position offset[l1*l1 + l1 + m1].
    """

    def __init__(self, l_max: int):
        self.l_max = int(l_max)
        l = np.repeat(np.arange(self.l_max + 1), 2 * np.arange(self.l_max + 1) + 1)
        m = np.arange(l.size) - l * l - l  # one-rotor index l*l + l + m, m from -l to l
        partners = self.l_max + 1 - np.abs(m)
        self.offset = np.cumsum(partners) - partners
        single = np.repeat(np.arange(l.size), partners)
        self.l1, self.m1 = l[single], m[single]
        self.l2, self.m2 = np.arange(single.size) - self.offset[single] + np.abs(self.m1), -self.m1
        self.rotor_diagonal = (self.l1 * (self.l1 + 1) + self.l2 * (self.l2 + 1)).astype(float)

    @property
    def size(self) -> int:
        return self.l1.size

    @property
    def d_single(self) -> int:
        return (self.l_max + 1) ** 2

    @cached_property
    def sector_gather(self) -> tuple[np.ndarray, np.ndarray]:
        """(column, weight) per basis state: amplitude r of the sector state f is
        weight[r] * f[column[r]], row r of the real sector isometry S onto the
        states even under the swap P12 and the reflection sigma_v (m -> -m on both
        rotors, phase (-1)^(m1+m2) = +1). Column j of S is the normalized sum of one
        orbit of {1, P12, sigma_v, P12 sigma_v}; |00;00> is its own orbit, column 0.
        The orbits even in l1 + l2 come first (columns below sector_split), each
        parity in basis order: H0 keeps the parity (-1)^(l1+l2) and V flips it.
        """
        l1, m1, l2, m2 = self.l1, self.m1, self.l2, self.m2
        images = np.stack([self.positions(*image) for image in
                           ((l1, m1, l2, m2), (l2, m2, l1, m1), (l1, -m1, l2, -m2), (l2, -m2, l1, -m1))])
        odd = (l1 + l2) % 2  # shared by the states of an orbit
        column = np.unique(images.min(axis=0) + odd * self.size, return_inverse=True)[1]
        return column, 1.0 / np.sqrt(np.bincount(column)[column])

    @cached_property
    def sector_split(self) -> int:
        """The number of sector columns even in l1 + l2: they come first in sector_gather."""
        return int(self.sector_gather[0][(self.l1 + self.l2) % 2 == 0].max()) + 1

    def unfold(self, rows: np.ndarray, positions=slice(None)) -> np.ndarray:
        """The amplitudes at basis positions of the states S f, for the sector rows f on the last axis of rows."""
        column, weight = self.sector_gather
        return weight[positions] * rows[..., column[positions]]

    @cached_property
    def schmidt_blocks(self) -> tuple[np.ndarray, ...]:
        """Basis positions of the M = 0 Schmidt matrix's blocks, m = 0..l_max:
        entry [i, j] of block m is the state (m + i, m; m + j, -m), so the
        block is (l_max + 1 - m) square. The m < 0 blocks are not listed.
        """
        l = np.arange(self.l_max + 1)
        return tuple(self.positions(l[m:, None], m, l[m:], -m) for m in range(self.l_max + 1))

    def positions(self, l1, m1, l2, m2) -> np.ndarray:
        """Basis position of each state (l1, m1; l2, m2), the integer arrays broadcast together;
        -1 where the state is off the basis: l < 0 or l > l_max, |m| > l, or m1 + m2 != 0."""
        on = (np.abs(m1) <= l1) & (l1 <= self.l_max) & (np.abs(m2) <= l2) & (l2 <= self.l_max) & (m1 + m2 == 0)
        start = self.offset[np.where(on, l1 * l1 + l1 + m1, 0)]
        return np.where(on, start + l2 - np.abs(m1), -1)

    def index_of(self, l1: int, m1: int, l2: int, m2: int) -> int:
        pos = int(self.positions(l1, m1, l2, m2))
        if pos >= 0:
            return pos
        raise QueryError(f"state ({l1},{m1};{l2},{m2}) is not in the basis (l_max={self.l_max}, M = 0)")
