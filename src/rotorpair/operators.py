"""Sparse Hamiltonian pieces over a TwoRotorBasis.

In reduced units the full Hamiltonian is

    H(t) = L1^2 + L2^2 + U_dip
           - kick_strength * envelope(t) * cos(Omega t) * (cos th1 + cos th2)

with the intermolecular axis and the laser polarization both along z.
With that geometry every term conserves the total magnetic quantum
number m1 + m2, which is what makes the M = 0 block closed.

The dipole-dipole coupling for a z-aligned intermolecular axis is

    U_dip = dipole_strength * [ (s+ x s- + s- x s+) / 2 - 2 cos x cos ]

where s+- = sin(theta) e^{+-i phi} acts on one molecule and x is the
tensor product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .angular import TwoRotorBasis, _costheta, _sintheta_exp
from .exceptions import ConsistencyError, InvalidConfigError


@dataclass(frozen=True)
class PulseSchedule:
    """A train of identical Gaussian pulses sharing one carrier phase.

    The reduced-unit field factor multiplying (cos th1 + cos th2) is
    field_scalar(t) = -kick_strength * envelope(t) * cos(carrier_omega * t)
    with envelope(t) = sum_k exp(-(t - t0_red - k*period_red)^2 / sigma_red^2).
    """

    kick_strength: float
    sigma_red: float
    t0_red: float
    carrier_omega: float
    period_red: float = 0.0
    count: int = 1

    def centers(self) -> np.ndarray:
        return self.t0_red + self.period_red * np.arange(self.count, dtype=float)

    def envelope(self, t):
        """Sum of the Gaussian envelopes at time(s) t."""
        t = np.asarray(t, dtype=float)
        d = (t[..., None] - self.centers()) / self.sigma_red
        out = np.exp(-d * d).sum(axis=-1)
        return float(out) if out.ndim == 0 else out

    def field_scalar(self, t):
        """The scalar multiplying (cos th1 + cos th2) in H(t)."""
        t_arr = np.asarray(t, dtype=float)
        out = -self.kick_strength * self.envelope(t_arr) * np.cos(self.carrier_omega * t_arr)
        return float(out) if np.ndim(out) == 0 else out


def expectation(matrix: sparse.csr_matrix, coeffs: np.ndarray):
    """<c|A|c> of one state (n,), or of every row of a block (K, n)."""
    return (coeffs.conj() * (matrix @ coeffs.T).T).sum(axis=-1)


def _assemble(basis: TwoRotorBasis, rows, cols, vals) -> sparse.csr_matrix:
    n = basis.size
    return sparse.coo_matrix(
        (np.asarray(vals, dtype=np.complex128), (rows, cols)), shape=(n, n)
    ).tocsr()


def build_rotor_term(basis: TwoRotorBasis) -> sparse.csr_matrix:
    """Diagonal l1(l1+1) + l2(l2+1) in units of B."""
    return sparse.diags(basis.rotor_diagonal.astype(np.complex128), 0, format="csr")


def build_dipole_term(basis: TwoRotorBasis, dipole_strength: float) -> sparse.csr_matrix:
    """The z-axis dipole-dipole coupling; couples dl = +-1 on both rotors."""
    if dipole_strength < 0:
        raise InvalidConfigError(f"dipole_strength must be non-negative, got {dipole_strength}")
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    if dipole_strength > 0:
        for i, (l1, m1, l2, m2) in enumerate(basis.states):
            for dl1 in (1, -1):
                for dl2 in (1, -1):
                    a1, a2 = l1 + dl1, l2 + dl2
                    # -2 cos x cos piece
                    v = _costheta(l1, m1, a1) * _costheta(l2, m2, a2)
                    if v != 0.0 and basis.contains(a1, m1, a2, m2):
                        rows.append(basis.index_of(a1, m1, a2, m2))
                        cols.append(i)
                        vals.append(-2.0 * dipole_strength * v)
                    # (s+ x s-)/2 piece
                    v = _sintheta_exp(l1, m1, 1, a1) * _sintheta_exp(l2, m2, -1, a2)
                    if v != 0.0 and basis.contains(a1, m1 + 1, a2, m2 - 1):
                        rows.append(basis.index_of(a1, m1 + 1, a2, m2 - 1))
                        cols.append(i)
                        vals.append(0.5 * dipole_strength * v)
                    # (s- x s+)/2 piece
                    v = _sintheta_exp(l1, m1, -1, a1) * _sintheta_exp(l2, m2, 1, a2)
                    if v != 0.0 and basis.contains(a1, m1 - 1, a2, m2 + 1):
                        rows.append(basis.index_of(a1, m1 - 1, a2, m2 + 1))
                        cols.append(i)
                        vals.append(0.5 * dipole_strength * v)
    return _assemble(basis, rows, cols, vals)


def _one_body_costheta(basis: TwoRotorBasis, which: str):
    if which not in ("mol1", "mol2"):
        raise InvalidConfigError(f"which must be 'mol1' or 'mol2', got {which!r}")
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i, (l1, m1, l2, m2) in enumerate(basis.states):
        for dl in (1, -1):
            if which == "mol1":
                v = _costheta(l1, m1, l1 + dl)
                target = (l1 + dl, m1, l2, m2)
            else:
                v = _costheta(l2, m2, l2 + dl)
                target = (l1, m1, l2 + dl, m2)
            if v != 0.0 and basis.contains(*target):
                rows.append(basis.index_of(*target))
                cols.append(i)
                vals.append(v)
    return rows, cols, vals


def build_costheta_single(basis: TwoRotorBasis, which: str) -> sparse.csr_matrix:
    """cos(theta) acting on one molecule only (for orientation observables)."""
    rows, cols, vals = _one_body_costheta(basis, which)
    return _assemble(basis, rows, cols, vals)


def build_orientation_coupling(basis: TwoRotorBasis) -> sparse.csr_matrix:
    """cos(theta1) + cos(theta2); the laser couples to this operator."""
    r1, c1, v1 = _one_body_costheta(basis, "mol1")
    r2, c2, v2 = _one_body_costheta(basis, "mol2")
    return _assemble(basis, r1 + r2, c1 + c2, v1 + v2)


@dataclass(eq=False)
class HamiltonianPieces:
    """The three built pieces (CSR) plus the basis they share."""

    basis: TwoRotorBasis
    rotor: sparse.csr_matrix
    dipole: sparse.csr_matrix
    coupling: sparse.csr_matrix

    def __post_init__(self) -> None:
        dims = {self.rotor.shape[0], self.dipole.shape[0], self.coupling.shape[0], self.basis.size}
        if len(dims) != 1:
            raise ConsistencyError(f"Hamiltonian pieces have mismatched dimensions: {sorted(dims)}")

    @cached_property
    def h0(self) -> sparse.csr_matrix:
        """rotor + dipole, the field-free Hamiltonian."""
        return (self.rotor + self.dipole).tocsr()


def build_pieces(basis: TwoRotorBasis, dipole_strength: float) -> HamiltonianPieces:
    """Build all time-independent operators for one run."""
    return HamiltonianPieces(
        basis=basis,
        rotor=build_rotor_term(basis),
        dipole=build_dipole_term(basis, dipole_strength),
        coupling=build_orientation_coupling(basis),
    )
