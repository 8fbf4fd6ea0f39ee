"""Sparse Hamiltonian pieces over a TwoRotorBasis, folded onto its symmetric sector.

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

import numpy as np
from scipy import sparse

from .angular import TwoRotorBasis, one_rotor_matrices
from .exceptions import ConsistencyError, InvalidConfigError

# exp(-x^2) is exactly 0.0 in binary64 once x passes about 27.3, so pulses
# farther than this many sigma from every requested time contribute nothing.
ENVELOPE_REACH = 40.0


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
        """Sum of the Gaussian envelopes at time(s) t, pulse by pulse in center order."""
        t = np.asarray(t, dtype=float)
        out, centers, reach = np.zeros(t.shape), self.centers(), ENVELOPE_REACH * self.sigma_red
        # left-to-right addition, so skipping the exact zeros of far pulses changes no bit
        lo, hi = np.searchsorted(centers, [t.min() - reach, t.max() + reach]) if t.size else (0, 0)
        for c in centers[lo:hi]:
            d = (t - c) / self.sigma_red
            out += np.exp(-d * d)
        return float(out) if out.ndim == 0 else out

    def field_scalar(self, t):
        """The scalar multiplying (cos th1 + cos th2) in H(t)."""
        t_arr = np.asarray(t, dtype=float)
        out = -self.kick_strength * self.envelope(t_arr) * np.cos(self.carrier_omega * t_arr)
        return float(out) if np.ndim(out) == 0 else out


def expectation(matrix: sparse.csr_matrix, coeffs: np.ndarray):
    """<c|A|c> of one state (n,), or of every row of a block (K, n)."""
    return (coeffs.conj() * (matrix @ coeffs.T).T).sum(axis=-1)


def _lift(basis: TwoRotorBasis, product_op: sparse.csr_matrix) -> sparse.csr_matrix:
    """Restrict a CSR operator on the d_single^2 product space to the basis states."""
    idx = basis.product_index
    op = product_op[idx][:, idx].astype(np.complex128)
    op.eliminate_zeros()
    return op


def build_rotor_term(basis: TwoRotorBasis) -> sparse.csr_matrix:
    """Diagonal l1(l1+1) + l2(l2+1) in units of B."""
    return sparse.diags(basis.rotor_diagonal.astype(np.complex128), 0, format="csr")


def build_dipole_term(basis: TwoRotorBasis, dipole_strength: float, one_rotor=None) -> sparse.csr_matrix:
    """The z-axis dipole-dipole coupling; couples dl = +-1 on both rotors (one_rotor_matrices if not given)."""
    if dipole_strength < 0:
        raise InvalidConfigError(f"dipole_strength must be non-negative, got {dipole_strength}")
    cos, s_plus = one_rotor or one_rotor_matrices(basis.l_max)
    s_minus = s_plus.T
    exchange = sparse.kron(s_plus, s_minus, format="csr") + sparse.kron(s_minus, s_plus, format="csr")
    return _lift(basis, (0.5 * dipole_strength) * exchange
                 + (-2.0 * dipole_strength) * sparse.kron(cos, cos, format="csr"))


def build_orientation_coupling(basis: TwoRotorBasis, one_rotor=None) -> sparse.csr_matrix:
    """cos(theta1) + cos(theta2), the Kronecker sum of the one-rotor cos with itself: the laser couples to it."""
    cos, _ = one_rotor or one_rotor_matrices(basis.l_max)
    return _lift(basis, sparse.kronsum(cos, cos, format="csr"))


def fold_to_sector(basis: TwoRotorBasis, name: str, op: sparse.csr_matrix, tol: float) -> sparse.csr_matrix:
    """S^T A S of a basis operator A for the basis's sector isometry S, after
    checking that A maps range(S) into itself: max|A S - S (S^T A S)| <= tol."""
    s = basis.sector_isometry
    op_s = (s.T @ op @ s).tocsr()
    leak = abs(op @ s - s @ op_s).max()
    if not leak <= tol:
        raise ConsistencyError(f"{name} leaks out of the symmetric sector by {leak:.3e} (tolerance {tol:.1e})")
    return op_s


@dataclass(frozen=True, eq=False)
class HamiltonianPieces:
    """The field-free H0_s = S^T (rotor + dipole) S, the laser coupling V_s = S^T V S
    (CSR) and the rotor energies of the sector states, over one basis's sector S."""

    basis: TwoRotorBasis
    h0: sparse.csr_matrix
    coupling: sparse.csr_matrix
    energies: np.ndarray

    def __post_init__(self) -> None:
        dims = {self.h0.shape[0], self.coupling.shape[0], self.energies.size, self.basis.sector_isometry.shape[1]}
        if len(dims) != 1:
            raise ConsistencyError(f"Hamiltonian pieces have mismatched dimensions: {sorted(dims)}")


def build_pieces(basis: TwoRotorBasis, dipole_strength: float) -> HamiltonianPieces:
    """Build H0 and V over the basis from one set of one-rotor matrices, and fold each onto the sector."""
    one_rotor = one_rotor_matrices(basis.l_max)
    h0 = (build_rotor_term(basis) + build_dipole_term(basis, dipole_strength, one_rotor)).tocsr()
    tol = 1e-12 * max(1.0, abs(h0).max())
    s = basis.sector_isometry
    # each column of S mixes states of one rotor energy; H0_s's diagonal also has a dipole part
    return HamiltonianPieces(basis, fold_to_sector(basis, "H0", h0, tol),
                             fold_to_sector(basis, "V", build_orientation_coupling(basis, one_rotor), tol),
                             s.multiply(s).T @ basis.rotor_diagonal)
