"""Two-rotor product basis and exact one-body angular matrix elements.

Matrix elements follow the Condon-Shortley phase convention; the test
suite validates every closed form against numerical quadrature before
it is trusted here.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse

from .exceptions import InvalidConfigError, QueryError


def one_rotor_matrices(l_max: int) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Real CSR cos(theta) and s+ = sin(theta) e^{i phi} over the one-rotor
    ordering l*l + l + m; s- = s+.T. Every nonzero couples l to l +- 1.
    """
    src = np.arange(l_max * l_max)  # every (l, m) with l < l_max
    l = np.repeat(np.arange(l_max), 2 * np.arange(l_max) + 1)
    m = src - l * l - l
    up = src + 2 * l + 2  # (l + 1, m)
    den = (2 * l + 1) * (2 * l + 3)
    d = (l_max + 1) ** 2

    def csr(vals, rows, cols):
        return sparse.csr_matrix((vals, (rows, cols)), shape=(d, d))

    # <l+1, m| cos |l, m>; cos is symmetric
    cos = csr(np.sqrt(((l + 1) ** 2 - m * m) / den), up, src)
    # <l+1, m+1| s+ |l, m>, and <l+1, m-1| s- |l, m> = <l, m| s+ |l+1, m-1>
    plus_up = csr(-np.sqrt((l + m + 1) * (l + m + 2) / den), up + 1, src)
    minus_up = csr(np.sqrt((l - m + 1) * (l - m + 2) / den), up - 1, src)
    return (cos + cos.T).tocsr(), (plus_up + minus_up.T).tocsr()


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
        # each state's row in the d_single^2 Kronecker product space
        self.product_index = self.mol1_single * self.d_single + self.mol2_single
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
        lookup[self.product_index] = np.arange(self.size)
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
