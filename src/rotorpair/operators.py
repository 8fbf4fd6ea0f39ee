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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .angular import TwoRotorBasis, _costheta, _sintheta_exp
from .exceptions import ConsistencyError, InvalidConfigError

_Z = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Geometry:
    """Orientation of the intermolecular axis and the laser polarization.

    Only the z-aligned arrangement is implemented; the type exists so
    the choice is explicit and a future generalization has a seam.
    """

    e_R_axis: tuple[float, float, float] = _Z
    polarization_axis: tuple[float, float, float] = _Z

    def __post_init__(self) -> None:
        for name in ("e_R_axis", "polarization_axis"):
            axis = getattr(self, name)
            norm = math.sqrt(sum(c * c for c in axis))
            if abs(norm - 1.0) > 1e-12:
                raise InvalidConfigError(f"{name} must be a unit vector, |axis| = {norm}")
            if any(abs(a - b) > 1e-12 for a, b in zip(axis, _Z)):
                raise InvalidConfigError(f"only the z-aligned {name} is supported, got {axis}")


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

    def __post_init__(self) -> None:
        if not self.sigma_red > 0:
            raise InvalidConfigError(f"sigma_red must be positive, got {self.sigma_red}")
        if self.count < 1:
            raise InvalidConfigError(f"count must be at least 1, got {self.count}")
        if self.count > 1 and not self.period_red > 0:
            raise InvalidConfigError("period_red must be positive for a pulse train")
        if self.kick_strength < 0:
            raise InvalidConfigError(f"kick_strength must be non-negative, got {self.kick_strength}")

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


@dataclass(eq=False)
class OperatorMatrix:
    """A sparse operator over one basis, with a Hermiticity tag."""

    matrix: sparse.csr_matrix
    hermitian: bool = True

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def entries(self):
        """Iterate (row, col, value) over stored nonzeros."""
        coo = self.matrix.tocoo()
        yield from zip(coo.row, coo.col, coo.data)

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def expectation(self, coeffs: np.ndarray):
        """<c|A|c> of one state (n,), or of every row of a block (K, n)."""
        return (coeffs.conj() * (self.matrix @ coeffs.T).T).sum(axis=-1)


def _assemble(basis: TwoRotorBasis, rows, cols, vals) -> sparse.csr_matrix:
    n = basis.size
    return sparse.coo_matrix(
        (np.asarray(vals, dtype=np.complex128), (rows, cols)), shape=(n, n)
    ).tocsr()


def build_rotor_term(basis: TwoRotorBasis) -> OperatorMatrix:
    """Diagonal l1(l1+1) + l2(l2+1) in units of B."""
    mat = sparse.diags(basis.rotor_diagonal.astype(np.complex128), 0, format="csr")
    return OperatorMatrix(mat, hermitian=True)


def build_dipole_term(basis: TwoRotorBasis, dipole_strength: float) -> OperatorMatrix:
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
    return OperatorMatrix(_assemble(basis, rows, cols, vals), hermitian=True)


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


def build_costheta_single(basis: TwoRotorBasis, which: str) -> OperatorMatrix:
    """cos(theta) acting on one molecule only (for orientation observables)."""
    rows, cols, vals = _one_body_costheta(basis, which)
    return OperatorMatrix(_assemble(basis, rows, cols, vals), hermitian=True)


def build_orientation_coupling(basis: TwoRotorBasis) -> OperatorMatrix:
    """cos(theta1) + cos(theta2); the laser couples to this operator."""
    r1, c1, v1 = _one_body_costheta(basis, "mol1")
    r2, c2, v2 = _one_body_costheta(basis, "mol2")
    return OperatorMatrix(_assemble(basis, r1 + r2, c1 + c2, v1 + v2), hermitian=True)


@dataclass(eq=False)
class HamiltonianPieces:
    """The three built pieces plus the basis they share."""

    basis: TwoRotorBasis
    rotor: OperatorMatrix
    dipole: OperatorMatrix
    coupling: OperatorMatrix
    _h0: sparse.csr_matrix | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        dims = {self.rotor.dim, self.dipole.dim, self.coupling.dim, self.basis.size}
        if len(dims) != 1:
            raise ConsistencyError(f"Hamiltonian pieces have mismatched dimensions: {sorted(dims)}")

    @property
    def h0(self) -> sparse.csr_matrix:
        """rotor + dipole, the field-free Hamiltonian."""
        if self._h0 is None:
            self._h0 = (self.rotor.matrix + self.dipole.matrix).tocsr()
        return self._h0

    @property
    def h0_operator(self) -> OperatorMatrix:
        return OperatorMatrix(self.h0, hermitian=True)


def build_pieces(basis: TwoRotorBasis, dipole_strength: float, geometry: Geometry = Geometry()) -> HamiltonianPieces:
    """Build all time-independent operators for one run."""
    # geometry is validated by construction; only z-aligned axes exist here
    return HamiltonianPieces(
        basis=basis,
        rotor=build_rotor_term(basis),
        dipole=build_dipole_term(basis, dipole_strength),
        coupling=build_orientation_coupling(basis),
    )

