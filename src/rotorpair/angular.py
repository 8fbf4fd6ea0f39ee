"""Two-rotor product basis and exact one-body angular matrix elements.

Matrix elements follow the Condon-Shortley phase convention; the test
suite validates every closed form against numerical quadrature before
it is trusted here.
"""

from __future__ import annotations

from functools import cached_property
from numbers import Integral

import numpy as np
from scipy import sparse

from .exceptions import InvalidConfigError, QueryError


def _one_rotor_lm(l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """l and m of every one-rotor index l*l + l + m up to l_max, m from -l to l."""
    l = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    return l, np.arange(l.size) - l * l - l


def one_rotor_matrices(l_max: int) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Real CSR cos(theta) and s+ = sin(theta) e^{i phi} over the one-rotor
    ordering l*l + l + m; s- = s+.T. Every nonzero couples l to l +- 1.
    """
    l, m = _one_rotor_lm(l_max - 1)  # every (l, m) with l < l_max
    src = np.arange(l.size)
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
    """The M = 0 product states |Y_l1m1>|Y_l2m2>, m1 + m2 = 0, truncated at a shared l_max.

    A basis is its ascending product_index array: state k is the product
    index mol1_single * d_single + mol2_single of the two one-rotor indices
    l*l + l + m. That is lexicographic (l1, m1, l2, m2) order with m running
    from -l to l.
    """

    def __init__(self, l_max: int):
        if isinstance(l_max, bool) or not isinstance(l_max, Integral):
            raise InvalidConfigError(f"l_max must be an integer, got {l_max!r}")
        if l_max < 0:
            raise InvalidConfigError(f"l_max must be non-negative, got {l_max}")
        self.l_max = int(l_max)
        d = self.d_single
        l, m = _one_rotor_lm(self.l_max)
        self.product_index = np.flatnonzero(np.add.outer(m, m) == 0)
        # product index -> position in the basis, -1 off it
        self._lookup = np.full(d * d, -1)
        self._lookup[self.product_index] = np.arange(self.size)
        self.mol1_single, self.mol2_single = np.divmod(self.product_index, d)
        self.l1, self.m1 = l[self.mol1_single], m[self.mol1_single]
        self.l2, self.m2 = l[self.mol2_single], m[self.mol2_single]
        self.rotor_diagonal = (self.l1 * (self.l1 + 1) + self.l2 * (self.l2 + 1)).astype(float)

    @property
    def size(self) -> int:
        return self.product_index.size

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
        """
        d, a, b = self.d_single, self.mol1_single, self.mol2_single
        # (l, -m) sits at l*l + l - m in the one-rotor ordering
        ra, rb = a - 2 * self.m1, b - 2 * self.m2
        images = self._lookup[np.stack([a * d + b, b * d + a, ra * d + rb, rb * d + ra])]
        column = np.unique(images.min(axis=0), return_inverse=True)[1]
        return column, 1.0 / np.sqrt(np.bincount(column)[column])

    @cached_property
    def sector_isometry(self) -> sparse.csr_matrix:
        """The sector isometry S (size x n_s) of sector_gather, as CSR."""
        column, weight = self.sector_gather
        return sparse.csr_matrix((weight, (np.arange(self.size), column)), shape=(self.size, column.max() + 1))

    @cached_property
    def schmidt_blocks(self) -> tuple[np.ndarray, ...]:
        """Basis positions of the M = 0 Schmidt matrix's blocks, m = 0..l_max:
        entry [i, j] of block m is the state (m + i, m; m + j, -m), so the
        block is (l_max + 1 - m) square. The m < 0 blocks are not listed.
        """
        d, l = self.d_single, np.arange(self.l_max + 1)
        return tuple(self._lookup[np.add.outer((l[m:] ** 2 + l[m:] + m) * d, l[m:] ** 2 + l[m:] - m)]
                     for m in range(self.l_max + 1))

    def index_of(self, l1: int, m1: int, l2: int, m2: int) -> int:
        if all(0 <= l <= self.l_max and abs(m) <= l for l, m in ((l1, m1), (l2, m2))):
            pos = int(self._lookup[(l1 * l1 + l1 + m1) * self.d_single + l2 * l2 + l2 + m2])
            if pos >= 0:
                return pos
        raise QueryError(f"state ({l1},{m1};{l2},{m2}) is not in the basis (l_max={self.l_max}, M = 0)")
