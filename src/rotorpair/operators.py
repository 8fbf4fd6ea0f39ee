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

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .angular import TwoRotorBasis, one_rotor_steps
from .exceptions import ConsistencyError, InvalidConfigError

# exp(-x^2) is exactly 0.0 in binary64 once x passes about 27.3, so pulses
# farther than this many sigma from every requested time contribute nothing.
ENVELOPE_REACH = 40.0


# U_dip / dipole_strength and cos th1 + cos th2 as terms (c, A, B), each c * A x B with A on
# rotor 1 and B on rotor 2 (one_rotor_steps symbols; None is the identity)
DIPOLE_TERMS = ((-2.0, "cos", "cos"), (0.5, "s+", "s-"), (0.5, "s-", "s+"))
COUPLING_TERMS = ((1.0, "cos", None), (1.0, None, "cos"))


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


def basis_operators(basis: TwoRotorBasis, dipole_strength: float) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """H0 = rotor + dipole_strength * DIPOLE_TERMS and V = COUPLING_TERMS over the basis, as real CSR: a term
    c * A x B adds c * a * b for each step pair of one_rotor_steps (a of A on rotor 1, b of B on rotor 2) from
    each basis state onto each basis state it reaches. A step pair that moves m1 + m2 raises ConsistencyError."""
    if dipole_strength < 0:
        raise InvalidConfigError(f"dipole_strength must be non-negative, got {dipole_strength}")
    l1, m1, l2, m2 = basis.l1, basis.m1, basis.l2, basis.m2
    steps1, steps2 = ({**one_rotor_steps(l, m), None: ((0, 0, 1.0),)} for l, m in ((l1, m1), (l2, m2)))

    def assemble(terms, strength: float) -> sparse.csr_matrix:
        rows, vals = [], []
        for c, a, b in terms:
            for (dl1, dm1, v1), (dl2, dm2, v2) in itertools.product(steps1[a], steps2[b]):
                if dm1 + dm2:
                    raise ConsistencyError(f"{a} x {b} moves m1 + m2 by {dm1 + dm2}; the M = 0 basis cannot hold it")
                rows.append(basis.positions(l1 + dl1, m1 + dm1, l2 + dl2, m2 + dm2))
                vals.append(c * strength * (v1 * v2))
        rows, vals = np.concatenate(rows), np.concatenate(vals)
        cols, lands = np.resize(np.arange(basis.size), rows.size), rows >= 0
        return sparse.csr_matrix((vals[lands], (rows[lands], cols[lands])), shape=(basis.size, basis.size))

    h0 = sparse.diags(basis.rotor_diagonal, format="csr") + assemble(DIPOLE_TERMS, dipole_strength)
    return h0, assemble(COUPLING_TERMS, 1.0)


def fold_to_sector(basis: TwoRotorBasis, name: str, op: sparse.csr_matrix, tol: float) -> sparse.csr_matrix:
    """S^T A S of a basis operator A for the sector isometry S of basis.sector_gather, after
    checking that A maps range(S) into itself: max|A S - S (S^T A S)| <= tol."""
    column, weight = basis.sector_gather
    s = sparse.csr_matrix((weight, (np.arange(basis.size), column)), shape=(basis.size, column.max() + 1))
    op_s = (s.T @ op @ s).tocsr()
    leak = abs(op @ s - s @ op_s).max()
    if not leak <= tol:
        raise ConsistencyError(f"{name} leaks out of the symmetric sector by {leak:.3e} (tolerance {tol:.1e})")
    return op_s


@dataclass(frozen=True, eq=False)
class HamiltonianPieces:
    """The field-free H0_s = S^T (rotor + dipole) S, the laser coupling V_s = S^T V S
    (CSR) and the rotor energies of the sector states, over one basis's sector S.
    H0_s keeps the parity (-1)^(l1+l2) and V_s flips it: with the even columns
    first (TwoRotorBasis.sector_split), H0_s is block-diagonal and V_s off-diagonal."""

    basis: TwoRotorBasis
    h0: sparse.csr_matrix
    coupling: sparse.csr_matrix
    energies: np.ndarray

    def __post_init__(self) -> None:
        dims = {self.h0.shape[0], self.coupling.shape[0], self.energies.size, self.basis.sector_gather[0].max() + 1}
        if len(dims) != 1:
            raise ConsistencyError(f"Hamiltonian pieces have mismatched dimensions: {sorted(dims)}")
        split = self.basis.sector_split
        for name, op, flips in (("H0", self.h0, False), ("V", self.coupling, True)):
            op = op.tocoo()
            stray = abs(op.data[((op.row < split) != (op.col < split)) != flips]).max(initial=0.0)
            if stray:
                raise ConsistencyError(f"{name} must {'flip' if flips else 'keep'} the parity (-1)^(l1+l2); "
                                       f"it has an entry of {stray:.3e} that does not")


def build_pieces(basis: TwoRotorBasis, dipole_strength: float) -> HamiltonianPieces:
    """Build H0 and V over the basis (basis_operators), and fold each onto the sector."""
    h0, coupling = basis_operators(basis, dipole_strength)
    tol = 1e-12 * max(1.0, abs(h0).max())
    column, weight = basis.sector_gather
    # each column of S mixes states of one rotor energy; H0_s's diagonal also has a dipole part
    return HamiltonianPieces(basis, fold_to_sector(basis, "H0", h0, tol),
                             fold_to_sector(basis, "V", coupling, tol),
                             np.bincount(column, weight * weight * basis.rotor_diagonal))
