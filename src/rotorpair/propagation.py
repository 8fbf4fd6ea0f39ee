"""Time propagation of i dc/dt = H(t) c.

The state is propagated in the symmetric sector of
TwoRotorBasis.sector_isometry, which H(t) leaves invariant (checked, not
assumed); the observers see full-basis coefficients.

step_plan cuts [0, t_end] once per run into segments, wherever the
distance to the nearest pulse center crosses a STEP_BAND_EDGES edge.
More than 5 sigma from every center a segment is free: the state advances
by the exact exponential of the field-free Hamiltonian (one
eigendecomposition per run). Every other segment is stepped with RK4 in
the rotor frame (Lawson RK4, exact in the rotor energies): at the
pulse-core step dt (integrator.dt_pulse_fs) near the centers, doubled past
each edge. The norm is monitored and a violation raises; nothing is ever
silently renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse

from .angular import TwoRotorBasis
from .exceptions import ConsistencyError, InvalidConfigError, NumericalError, StepSizeError
from .operators import HamiltonianPieces, PulseSchedule, expectation

# Distances from the nearest pulse center, in sigma, past which the RK4 step
# doubles: dt, 2 dt, 4 dt, then 8 dt where the envelope is below 5e-6 of its
# peak. Past the last edge the envelope is below exp(-25) ~ 1e-11 and the
# evolution is free.
STEP_BAND_EDGES = (1.5, 2.5, 3.5, 5.0)

# Most samples handed to the observers at once: keeps each K x n complex
# block under 1 MB at n = 891 (l_max = 10).
SAMPLE_BLOCK = 64


@dataclass
class Trajectory:
    """What propagation computed: per-sample norm and <H0> and the final state."""

    norms: np.ndarray
    h0_expect: np.ndarray
    psi_final: np.ndarray

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
    """dy/dt = -i rates y + deriv(field(t), y), with field vectorized over an
    array of times; rk4_integrate takes the diagonal -i rates y exactly."""

    field: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[float, np.ndarray], np.ndarray]
    rates: np.ndarray | float = 0.0


def schrodinger_rhs(h0: sparse.csr_matrix, coupling: sparse.csr_matrix, energies: np.ndarray,
                    pulse: PulseSchedule) -> RightHandSide:
    """dc/dt = -i (D + W + f(t) V) c: the rotor energies D are the rates,
    and -i [W; V], with W = H0 - D, is stacked so that each derivative is
    one sparse product and one axpy."""
    n = h0.shape[0]
    rest = (h0 - sparse.diags(energies)).tocsr()
    rest.eliminate_zeros()
    stacked = -1j * sparse.vstack([rest, coupling], format="csr")

    def deriv(f, c):
        w = stacked @ c
        return w[:n] + f * w[n:]

    return RightHandSide(pulse.field_scalar, deriv, energies)


def sector_operators(pieces: HamiltonianPieces):
    """S^T H0 S, S^T V S (its diagonal has a dipole part) and the rotor
    energies of the sector states, for the basis's sector isometry S, after
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
    # each column of S mixes states of one rotor energy
    return *folded, s.multiply(s).T @ pieces.basis.rotor_diagonal


def rk4_integrate(rhs: RightHandSide, y: np.ndarray, t0: float, t1: float, dt: float) -> np.ndarray:
    """Lawson RK4 (SIAM J. Numer. Anal. 4, 372 (1967)), classical RK4 in
    the frame that rotates with rhs.rates, so the rates are integrated
    exactly; classical RK4 when the rates are 0. Fixed step dt and one
    partial final step; the field at every stage time comes from one
    vectorized call."""
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
    # exp(-i D h/2) and exp(-i D h), the latter not squared: its rounding would add up
    turns = {h: (np.exp((-0.5j * h) * rhs.rates), np.exp((-1j * h) * rhs.rates)) for h in set(steps)}
    for h, (f0, f_mid, f1) in zip(steps, fields.T.tolist()):
        half, full = turns[h]
        k1 = rhs.deriv(f0, y)
        y_half = half * y
        k2 = rhs.deriv(f_mid, half * (y + (0.5 * h) * k1))
        k3 = rhs.deriv(f_mid, y_half + (0.5 * h) * k2)
        k4 = rhs.deriv(f1, half * (y_half + h * k3))
        y = full * (y + (h / 6.0) * k1) + half * ((h / 3.0) * (k2 + k3)) + (h / 6.0) * k4
    return y


def step_plan(pulse: PulseSchedule, t_end: float, dt: float) -> list[tuple[float, float, float]]:
    """[0, t_end] cut into segments (a, b, h) wherever the distance to the
    nearest pulse center crosses a STEP_BAND_EDGES edge: RK4 with step
    h = 2**k dt past k edges, free evolution (h = 0.0) past the last.

    Neighbouring segments differ in h, so free segments are never adjacent.
    A schedule with kick_strength = 0 is one free segment; t_end = 0 gives
    no segment at all.
    """
    edges = pulse.sigma_red * np.array(STEP_BAND_EDGES)
    centers = pulse.centers() if pulse.kick_strength != 0.0 else np.empty(0)
    centers = centers[slice(*np.searchsorted(centers, [-edges[-1], t_end + edges[-1]]))]
    cuts = np.add.outer(centers, np.concatenate([-edges, edges])).ravel()
    bounds = np.unique(np.concatenate([[0.0, t_end], cuts[(cuts > 0.0) & (cuts < t_end)]]))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    fenced = np.concatenate([[-np.inf], centers, [np.inf]])
    after = np.searchsorted(fenced, mids)  # fenced[after - 1] < mid <= fenced[after]
    distance = np.minimum(mids - fenced[after - 1], fenced[after] - mids)
    bands = np.searchsorted(edges, distance)
    steps = np.where(bands < edges.size, dt * 2.0**bands, 0.0)
    starts = np.flatnonzero(np.diff(bands, prepend=-1))  # drop the cuts between equal bands
    ends = np.append(starts[1:], bands.size)
    return list(zip(bounds[starts].tolist(), bounds[ends].tolist(), steps[starts].tolist()))


@np.errstate(over="ignore", invalid="ignore")
def run_schedule(pieces: HamiltonianPieces, pulse: PulseSchedule, dt: float,
                 norm_tolerance: float, sample_times: np.ndarray,
                 observers=()) -> Trajectory:
    """Walk the step_plan of [0, last sample] with core step dt from the
    initial state, sampling on the way; each sample block is unfolded from
    the sector to the full basis before it is checked and observed.

    sample_times must be ascending and start at 0. Samples reach the
    observers in blocks of at most SAMPLE_BLOCK consecutive samples from
    one free segment or one window (a run of RK4 segments), as
    observer(t_red[K], indices[K], coeffs[K, basis.size]). A sample whose
    norm drifts beyond tolerance (or is NaN) ends its block: the observers
    see it, then StepSizeError is raised. A diverging state overflows
    quietly: the norm check reports it.
    """
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise InvalidConfigError("sample_times must be a non-empty 1-d array")
    if samples[0] != 0.0 or np.any(np.diff(samples) <= 0):
        raise InvalidConfigError("sample_times must start at 0 and increase strictly")

    t_end = float(samples[-1])
    psi = initial_state(pieces.basis)
    s = pieces.basis.sector_isometry
    h0_s, coupling_s, energies_s = sector_operators(pieces)
    coeffs = s.T @ psi
    leak = np.abs(s @ coeffs - psi).max()
    if leak > 1e-12:  # a NaN state is left to the norm check at sample 0
        raise ConsistencyError(f"the initial state leaks out of the symmetric sector by {leak:.3e}")
    free = FreeEvolution(h0_s)
    rhs = schrodinger_rhs(h0_s, coupling_s, energies_s, pulse)
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
            drift = abs(norms[hi - 1] - 1.0)
            raise StepSizeError(
                f"norm drifted by {drift:.3e} at t = {samples[hi - 1]:.6g} (tolerance {norm_tolerance:.1e}); "
                + ("reduce integrator.dt_pulse_fs" if np.isfinite(drift) else "the state diverged")
            )
        psi[:] = block[-1]  # the full-basis state at the latest sample

    # each segment owns the samples in (a, b]; RK4 rows are flushed before a free segment
    emit(0, coeffs[None, :])
    k, rows = 1, []
    for a, b, h in step_plan(pulse, t_end, dt):
        stop = int(np.searchsorted(samples, b, side="right"))
        if h == 0.0:
            if rows:
                emit(k - len(rows), np.array(rows))
                rows = []
            amplitudes = free.project(coeffs)
            for lo in range(k, stop, SAMPLE_BLOCK):
                emit(lo, free.advance(amplitudes, samples[lo:min(lo + SAMPLE_BLOCK, stop)] - a))
            if b < t_end:
                coeffs = free.advance(amplitudes, np.array([b - a]))[0]
        else:
            for j in range(k, stop):
                coeffs = rk4_integrate(rhs, coeffs, a, float(samples[j]), h)
                a = float(samples[j])
                rows.append(coeffs)
                if len(rows) == SAMPLE_BLOCK or not abs(np.linalg.norm(coeffs) - 1.0) <= norm_tolerance:
                    emit(j + 1 - len(rows), np.array(rows))
                    rows = []
            if b > a:
                coeffs = rk4_integrate(rhs, coeffs, a, b, h)
        k = stop
    if rows:
        emit(k - len(rows), np.array(rows))
    return Trajectory(norms=norms, h0_expect=h0_expect, psi_final=psi)
