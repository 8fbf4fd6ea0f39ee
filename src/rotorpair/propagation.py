"""Time propagation of i dc/dt = H(t) c.

The state is propagated in the symmetric sector of
TwoRotorBasis.sector_isometry, which H(t) leaves invariant (checked, not
assumed); the observers see full-basis coefficients.

Between pulses the state advances by the exact exponential of the
field-free Hamiltonian (one eigendecomposition per run). Inside a
window of +-WINDOW_HALFWIDTH sigma around each pulse center the state
is stepped with classical fixed-step RK4. The norm is monitored and a
violation raises; nothing is ever silently renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse

from .angular import TwoRotorBasis
from .exceptions import ConsistencyError, InvalidConfigError, NumericalError, StepSizeError
from .operators import HamiltonianPieces, PulseSchedule, expectation

# Half-width of each RK4 window in units of sigma; the Gaussian envelope
# is below exp(-25) ~ 1e-11 outside it.
WINDOW_HALFWIDTH = 5.0

# Most samples handed to the observers at once: keeps each K x n complex
# block under 1 MB at n = 891 (l_max = 10).
SAMPLE_BLOCK = 64


@dataclass
class Trajectory:
    """What propagation computed: per-sample norm and <H0>, the final state, the RK4 windows."""

    norms: np.ndarray
    h0_expect: np.ndarray
    psi_final: np.ndarray
    windows: list[tuple[float, float]]

    @property
    def max_norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))


def initial_state(basis: TwoRotorBasis) -> np.ndarray:
    """Both molecules in the rotational ground state, c_0000 = 1."""
    if basis.product_index[0] != 0:  # |00;00> has product index 0
        raise InvalidConfigError("basis does not contain the (0,0;0,0) ground state")
    coeffs = np.zeros(basis.size, dtype=np.complex128)
    coeffs[0] = 1.0
    return coeffs


class FreeEvolution:
    """exp(-i H0 tau) through one real eigendecomposition of H0.

    A free segment projects its start state once, a = V^T c, and every
    sample in it is a row of (exp(-i E tau_k) * a) @ V^T, done as two real
    matrix products.
    """

    def __init__(self, h0: sparse.csr_matrix):
        if np.any(h0.data.imag):
            raise ConsistencyError("H0 must be real; its largest imaginary part is "
                                   f"{np.abs(h0.data.imag).max():.3e}")
        try:
            self.energies, self.vectors = np.linalg.eigh(h0.real.toarray())
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition of H0 (dim {h0.shape[0]}) failed: {exc}") from exc

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        """Eigenbasis amplitudes V^T c of one state."""
        pairs = np.ascontiguousarray(coeffs, dtype=np.complex128).view(np.float64).reshape(-1, 2)
        parts = self.vectors.T @ pairs
        return parts[:, 0] + 1j * parts[:, 1]

    def advance(self, amplitudes: np.ndarray, durations: np.ndarray) -> np.ndarray:
        """States exp(-i H0 tau_k) c as rows, from the amplitudes of c."""
        phased = np.exp(-1j * np.multiply.outer(durations, self.energies)) * amplitudes
        out = np.empty_like(phased)
        out.real = np.ascontiguousarray(phased.real) @ self.vectors.T
        out.imag = np.ascontiguousarray(phased.imag) @ self.vectors.T
        return out


class RightHandSide(NamedTuple):
    """dy/dt = deriv(field(t), y), with field vectorized over an array of times."""

    field: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[float, np.ndarray], np.ndarray]


def schrodinger_rhs(h0: sparse.csr_matrix, coupling: sparse.csr_matrix,
                    pulse: PulseSchedule) -> RightHandSide:
    """dc/dt = -i (H0 + f(t) V) c, with -i [H0; V] stacked so that each
    derivative is one sparse product and one axpy."""
    n = h0.shape[0]
    stacked = -1j * sparse.vstack([h0, coupling], format="csr")

    def deriv(f, c):
        w = stacked @ c
        return w[:n] + f * w[n:]

    return RightHandSide(pulse.field_scalar, deriv)


def sector_operators(pieces: HamiltonianPieces):
    """S^T H0 S and S^T V S over the basis's sector isometry S, after
    checking that H0 and V map range(S) into itself."""
    s = pieces.basis.sector_isometry
    tol = 1e-12 * max(1.0, abs(pieces.h0).max())
    folded = []
    for name, op in (("H0", pieces.h0), ("V", pieces.coupling)):
        op_s = (s.T @ op @ s).tocsr()
        leak = abs(op @ s - s @ op_s).max()
        if not leak <= tol:
            raise ConsistencyError(f"{name} leaks out of the symmetric sector by {leak:.3e}"
                                   f" (tolerance {tol:.1e})")
        folded.append(op_s)
    return folded


def rk4_integrate(rhs: RightHandSide, y: np.ndarray, t0: float, t1: float, dt: float) -> np.ndarray:
    """Classical RK4 with fixed step dt and one partial final step; the
    field at every stage time comes from one vectorized call. A diverging
    state overflows to inf and NaN quietly: the caller's norm check reports it."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    span = t1 - t0
    if span < 0:
        raise ValueError(f"t1 must not precede t0, got span {span}")
    n_full = int(np.floor(span / dt + 1e-12))
    steps = [dt] * n_full
    remainder = t1 - (t0 + n_full * dt)
    if remainder > 1e-12 * max(abs(t1), 1.0):
        steps.append(remainder)
    starts, widths = t0 + np.arange(len(steps)) * dt, np.array(steps)
    fields = rhs.field(np.stack([starts, starts + 0.5 * widths, starts + widths]))
    with np.errstate(over="ignore", invalid="ignore"):
        for h, (f0, f_mid, f1) in zip(steps, fields.T.tolist()):
            k1 = rhs.deriv(f0, y)
            k2 = rhs.deriv(f_mid, y + (0.5 * h) * k1)
            k3 = rhs.deriv(f_mid, y + (0.5 * h) * k2)
            k4 = rhs.deriv(f1, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def pulse_windows(pulse: PulseSchedule, halfwidth: float, t_end: float) -> list[tuple[float, float]]:
    """Merged stepping windows [center - w*sigma, center + w*sigma], clipped to [0, t_end].

    A schedule with kick_strength = 0 contributes no windows at all, so the
    whole run is exact free evolution.
    """
    if pulse.kick_strength == 0.0:
        return []
    w = halfwidth * pulse.sigma_red
    merged: list[list[float]] = []
    for c in pulse.centers():
        a, b = c - w, c + w
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    clipped = []
    for a, b in merged:
        a, b = max(a, 0.0), min(b, t_end)
        if b > a:
            clipped.append((a, b))
    return clipped


def run_schedule(pieces: HamiltonianPieces, pulse: PulseSchedule, dt: float,
                 norm_tolerance: float, sample_times: np.ndarray,
                 observers=()) -> Trajectory:
    """Alternate exact free evolution and windowed RK4 of step dt from the
    initial state, sampling on the way; each sample block is unfolded from
    the sector to the full basis before it is checked and observed.

    sample_times must be ascending and start at 0. Samples reach the
    observers in blocks of at most SAMPLE_BLOCK consecutive samples from
    one free segment or one window, as observer(t_red[K], indices[K],
    coeffs[K, basis.size]). A sample whose norm drifts beyond tolerance (or is NaN)
    ends its block: the observers see it, then StepSizeError is raised.
    """
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise InvalidConfigError("sample_times must be a non-empty 1-d array")
    if samples[0] != 0.0 or np.any(np.diff(samples) <= 0):
        raise InvalidConfigError("sample_times must start at 0 and increase strictly")

    t_end = float(samples[-1])
    windows = pulse_windows(pulse, WINDOW_HALFWIDTH, t_end)
    psi = initial_state(pieces.basis)
    s = pieces.basis.sector_isometry
    h0_s, coupling_s = sector_operators(pieces)
    coeffs = s.T @ psi
    leak = np.abs(s @ coeffs - psi).max()
    if leak > 1e-12:  # a NaN state is left to the norm check at sample 0
        raise ConsistencyError(f"the initial state leaks out of the symmetric sector by {leak:.3e}")
    free = FreeEvolution(h0_s)
    rhs = schrodinger_rhs(h0_s, coupling_s, pulse)
    norms = np.empty(samples.size)
    h0_expect = np.empty(samples.size)

    def emit(lo: int, folded: np.ndarray) -> None:
        block = (s @ folded.T).T
        block_norms = np.linalg.norm(block, axis=1)
        bad = np.flatnonzero(~(np.abs(block_norms - 1.0) <= norm_tolerance))
        if bad.size:
            block, folded = block[: bad[0] + 1], folded[: bad[0] + 1]
        hi = lo + block.shape[0]
        norms[lo:hi] = block_norms[: hi - lo]
        h0_expect[lo:hi] = expectation(h0_s, folded).real
        for observer in observers:
            observer(samples[lo:hi], np.arange(lo, hi), block)
        if bad.size:
            raise StepSizeError(
                f"norm drifted by {abs(norms[hi - 1] - 1.0):.3e} at t = {samples[hi - 1]:.6g}"
                f" (tolerance {norm_tolerance:.1e}); reduce dt_pulse"
            )
        psi[:] = block[-1]  # the full-basis state at the latest sample

    # each window is preceded by a free segment; the sentinel (no window) closes the run
    emit(0, coeffs[None, :])
    k, cursor = 1, 0.0
    for a, b in windows + [(t_end, t_end)]:
        stop = int(np.searchsorted(samples, a, side="right"))  # samples k..stop-1 lie in (cursor, a]
        if a > cursor:
            amplitudes = free.project(coeffs)
            for lo in range(k, stop, SAMPLE_BLOCK):
                emit(lo, free.advance(amplitudes, samples[lo:min(lo + SAMPLE_BLOCK, stop)] - cursor))
            if b > a:
                coeffs = free.advance(amplitudes, np.array([a - cursor]))[0]
        k, t_from = stop, a
        stop = int(np.searchsorted(samples, b, side="right"))
        rows = []
        for j in range(k, stop):
            coeffs = rk4_integrate(rhs, coeffs, t_from, float(samples[j]), dt)
            t_from = float(samples[j])
            rows.append(coeffs)
            if (len(rows) == SAMPLE_BLOCK or j == stop - 1
                    or not abs(np.linalg.norm(coeffs) - 1.0) <= norm_tolerance):
                emit(j + 1 - len(rows), np.array(rows))
                rows = []
        if b > t_from:
            coeffs = rk4_integrate(rhs, coeffs, t_from, b, dt)
        k, cursor = stop, b

    return Trajectory(norms=norms, h0_expect=h0_expect, psi_final=psi, windows=windows)
