"""Time propagation of i dc/dt = H(t) c.

The state is propagated, and observed, in the symmetric sector S of
TwoRotorBasis.sector_gather, which H(t) leaves invariant (checked, not
assumed, when build_pieces folds H0 and V); only the final state is unfolded.

step_plan cuts [0, t_end] once per run into segments, wherever the
distance to the nearest pulse center crosses a STEP_BAND_EDGES edge.
More than 5 sigma from every center a segment is free: the state advances
by the exact exponential of the field-free Hamiltonian (one
eigendecomposition per parity block and run). Every other segment is
ten-stage Gauss collocation in the rotor frame (exact in the rotor
energies), one rk4_integrate call per piece of at most SAMPLE_BLOCK samples,
at the pulse-core step dt near the centers, doubled past each edge; samples
do not cut its steps. run_schedule checks and shows the rows _walk yields:
a norm violation fails the run, as does a step whose stage sweeps do not
converge; nothing is silently renormalized.
"""

from __future__ import annotations

import bisect
import functools
from typing import Callable

import numpy as np
from numpy.polynomial import legendre
from scipy import sparse

from .exceptions import InvalidConfigError, NumericalError, StepSizeError
from .operators import HamiltonianPieces, PulseSchedule

# Distances from the nearest pulse center, in sigma, past which the
# collocation step doubles: dt, 2 dt, 4 dt, then 8 dt where the envelope is
# below 5e-6 of its peak. Past the last edge the envelope is below
# exp(-25) ~ 1e-11 and the evolution is free.
STEP_BAND_EDGES = (1.5, 2.5, 3.5, 5.0)

# s-stage Gauss collocation on [0, 1]: nodes c, weights b, A[i, j] = integral to c_i of l_j, the Lagrange
# polynomial of node j; column j of _LAGRANGE_INTEGRALS is the Legendre series on [-1, 1] of the integral of l_j from -1
GAUSS_STAGES = 10
_x, _w = legendre.leggauss(GAUSS_STAGES)
GAUSS_NODES, GAUSS_WEIGHTS = 0.5 * (_x + 1.0), 0.5 * _w
_LAGRANGE_INTEGRALS = legendre.legint(
    (np.arange(GAUSS_STAGES) + 0.5)[:, None] * _w * legendre.legvander(_x, GAUSS_STAGES - 1).T, lbnd=-1)


def polynomial_weights(theta: float) -> np.ndarray:
    """W(theta)[j, i] = the integral of l_j from 0 to theta c_i: a step h whose stage derivatives are the
    columns of derivs has the collocation polynomial y + derivs @ (h W(theta)) at theta c (A^T at theta = 1)."""
    return 0.5 * legendre.legval(_x + (theta - 1.0) * (_x + 1.0), _LAGRANGE_INTEGRALS)  # at 2 theta c - 1; _x at 1


GAUSS_MATRIX = polynomial_weights(1.0).T
# A^T on the float64 view of a complex stage block: the real and imaginary column of a stage share its weights
_STAGE_PRODUCT = np.kron(GAUSS_MATRIX.T, np.eye(2))
# a step h's stage sweeps contract by about h * SWEEP_RATE * |H|: the spectral radius of A, about 0.7 / s
SWEEP_RATE = float(np.abs(np.linalg.eigvals(GAUSS_MATRIX)).max())
# converged at a few roundings of a unit state; sweeps contracting by q > 0.3 need more than the cap
SWEEP_TOLERANCE = 1e-15
MAX_SWEEPS = 30

# Samples per observer block, per free-advance chunk and per rk4_integrate call, and steps per field call;
# run_schedule's queue holds up to 2 SAMPLE_BLOCK - 1 sector rows (0.6 MiB at l_max 10).
SAMPLE_BLOCK = 64


def initial_state(n_s: int) -> np.ndarray:
    """Both molecules in the rotational ground state |00;00>, which is its own
    symmetry orbit: the sector row e_0 (TwoRotorBasis.sector_gather)."""
    coeffs = np.zeros(n_s, dtype=np.complex128)
    coeffs[0] = 1.0
    return coeffs


class FreeEvolution:
    """exp(-i H0 tau) through one real eigendecomposition per parity block of H0.

    H0 keeps the parity (-1)^(l1+l2), and the first split sector columns are
    the even ones (TwoRotorBasis.sector_split), so H0 is two blocks on the
    halves [0, split) and [split, n_s); no dense H0 of the whole sector is
    formed. A free segment projects its start state once, a = V^T c, and
    every sample in it is a row of (exp(-i E tau_k) * a) @ V^T, done as one
    real matrix product per half. energies lists the even block's, then the
    odd block's.
    """

    def __init__(self, h0: sparse.csr_matrix, split: int):
        self.halves = (slice(0, split), slice(split, h0.shape[0]))
        self.energies, self.vectors = np.empty(h0.shape[0]), []
        for half in self.halves:
            dense = h0[half, half].real.toarray()
            try:
                self.energies[half], vectors = np.linalg.eigh(dense)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"eigendecomposition of H0 (dim {h0.shape[0]}) failed: {exc}") from exc
            # one Newton-Schulz step, V <- V (3I - V^T V) / 2: V^T V is a GEMM against -V/2 in the spent block
            # (no syrk workspace, no new V), and V is updated in place 64 rows at a time
            polish = vectors.T @ np.multiply(vectors, -0.5, out=dense)
            polish.flat[::len(polish) + 1] += 1.5
            for lo in range(0, len(vectors), 64):
                vectors[lo:lo + 64] = vectors[lo:lo + 64] @ polish
            self.vectors.append(vectors)

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        """Eigenbasis amplitudes V^T c of one state."""
        pairs = np.ascontiguousarray(coeffs, dtype=np.complex128).view(np.float64).reshape(-1, 2)
        parts = np.concatenate([vectors.T @ pairs[half] for vectors, half in zip(self.vectors, self.halves)])
        return parts[:, 0] + 1j * parts[:, 1]

    def advance(self, amplitudes: np.ndarray, durations: np.ndarray) -> np.ndarray:
        """States exp(-i H0 tau_k) c as rows, from the amplitudes of c."""
        angles = np.multiply.outer(-self.energies, durations)
        phased = np.empty(angles.shape, dtype=np.complex128)
        np.cos(angles, out=phased.real)  # exp(i angles), bit for bit, without a complex exp of each
        np.sin(angles, out=phased.imag)
        phased *= amplitudes[:, None]
        out = np.empty_like(phased)
        pairs, out_pairs = phased.view(np.float64), out.view(np.float64)  # a real and an imaginary column per tau
        for vectors, half in zip(self.vectors, self.halves):
            np.matmul(vectors, pairs[half], out=out_pairs[half])
        return np.ascontiguousarray(out.T)


def rotor_frame(rates: np.ndarray | float, h: float) -> tuple:
    """A step h's tables: exp(-i rates c h) at the nodes, its conjugate, exp(-i rates h),
    h A^T on the float64 view of a stage block, and h b."""
    turn = np.exp(np.multiply.outer((-1j * h) * rates, GAUSS_NODES))
    return turn, turn.conj(), np.exp((-1j * h) * rates), h * _STAGE_PRODUCT, h * GAUSS_WEIGHTS


class RightHandSide:
    """dy/dt = -i rates y + deriv(field(t), y), field vectorized over times and deriv
    over a row of fields and a block of states; rk4_integrate takes -i rates y exactly.
    frame(h) is rotor_frame(rates, h), and band(h) the same, cached for a run's band widths;
    neither refers back to the instance, so no cycle keeps a run's operators alive."""

    def __init__(self, field: Callable[[np.ndarray], np.ndarray],
                 deriv: Callable[[np.ndarray, np.ndarray], np.ndarray], rates: np.ndarray | float = 0.0):
        self.field, self.deriv, self.rates = field, deriv, rates
        self.frame = functools.partial(rotor_frame, rates)
        self.band = functools.lru_cache(maxsize=len(STEP_BAND_EDGES))(self.frame)


def schrodinger_rhs(pieces: HamiltonianPieces, pulse: PulseSchedule) -> RightHandSide:
    """dc/dt = -i (D + W + f(t) V) c from the h0, coupling and energies of pieces
    (HamiltonianPieces, or any operators of that shape): the rotor energies D are
    the rates, and the real [W; V], with W = H0 - D, is stacked so that each
    derivative is one real sparse product on the float64 view of c, one axpy and one -i."""
    h0, energies = pieces.h0, pieces.energies
    n = h0.shape[0]
    rest = (h0 - sparse.diags(energies)).tocsr()
    rest.eliminate_zeros()
    stacked = sparse.vstack([rest, pieces.coupling], format="csr").real

    def deriv(f, c):
        pairs = np.ascontiguousarray(c, dtype=np.complex128).view(np.float64).reshape(n, -1)
        w = (stacked @ pairs).view(np.complex128)
        out = w[n:]
        out *= f
        out += w[:n]
        out *= -1j
        return out.reshape(np.shape(c))

    return RightHandSide(pulse.field_scalar, deriv, energies)


def _collocate(rhs: RightHandSide, y: np.ndarray, fields: np.ndarray, frame: tuple,
               stages: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One step from y: fixed-point sweeps of its rotor-frame stage equations, each one rhs.deriv product
    on the n x s stage block, from the first guess stages until no stage entry moves by more than
    SWEEP_TOLERANCE. Returns the end state, the last sweep's stage derivatives (the columns of derivs)
    and, if MAX_SWEEPS sweeps did not converge, the last update (else 0.0)."""
    turn, back, full, h_a, h_b = frame
    for _ in range(MAX_SWEEPS):
        derivs = back * rhs.deriv(fields, turn * stages)
        new = (derivs.view(np.float64) @ h_a).view(np.complex128)
        new += y[:, None]
        update, stages = np.abs(new - stages).max(), new
        if not update > SWEEP_TOLERANCE:  # converged, or not finite
            return full * (y + derivs @ h_b), derivs, 0.0
    return full * (y + derivs @ h_b), derivs, update


def rk4_integrate(rhs: RightHandSide, y: np.ndarray, t0: float, t1: float, dt: float,
                  sample_times: np.ndarray = ()) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """GAUSS_STAGES-stage Gauss-Legendre collocation (order 2s = 20; unitary once the stage equations are solved:
    Hairer, Lubich & Wanner, Geometric Numerical Integration, sec. IV) in the frame that rotates with rhs.rates,
    which are integrated exactly. Fixed step dt and one partial final step; a leftover under 1e-12 max(|t1|, 1), or
    a negative one, goes to the last full step instead, so the steps end on t1. Returns the state at t1, the states
    at sample_times (ascending, within (t0, t1]) as rows, and the stall: None, or (t, last update) of the first step
    at t whose sweeps, main or side, reached MAX_SWEEPS. Its memory grows with its samples, not its steps.

    Samples do not cut the steps. A sample t* before the last step's end, in the step [t, t + h), is a side
    step of width t* - t from the state at t (zero-width, and the state there bit for bit, on a step's start),
    its sweeps started on the step's collocation polynomial y + derivs @ (h W(theta)) at theta c, theta =
    (t* - t) / h, W = polynomial_weights (Hairer, Lubich & Wanner, secs. II.1.2 and VIII.6). A sample at the
    last step's end is the state at t1. A stalled step goes on from its last iterate."""
    if not (dt > 0 and t1 >= t0):
        raise ValueError(f"need dt > 0 and t1 >= t0, got dt = {dt}, span {t1 - t0}")
    n_full = int(np.floor((t1 - t0) / dt + 1e-12))
    remainder = t1 - (t0 + n_full * dt)
    closing = remainder > 1e-12 * max(abs(t1), 1.0)
    n_steps, last = n_full + closing, remainder if closing else dt + remainder
    samples = np.asarray(sample_times, dtype=float).tolist()
    rows = np.empty((len(samples), np.size(y)), dtype=np.complex128)
    j, stall = 0, None
    for lo in range(0, n_steps, SAMPLE_BLOCK):
        block = np.arange(lo, min(lo + SAMPLE_BLOCK, n_steps))
        starts, widths = t0 + block * dt, np.where(block == n_steps - 1, last, dt)
        fields = rhs.field(starts[:, None] + widths[:, None] * GAUSS_NODES)
        for t, h, field_row in zip(starts.tolist(), widths.tolist(), fields):
            end, derivs, update = _collocate(rhs, y, field_row, rhs.band(h) if h == dt else rhs.frame(h), y[:, None])
            first, j = j, bisect.bisect_left(samples, t + h, j)
            sides = [max(s - t, 0.0) for s in samples[first:j]]  # at a step's end: zero, not -1 ulp
            if sides:
                side_fields = rhs.field(t + np.array(sides)[:, None] * GAUSS_NODES)
                for row, side, side_field in zip(rows[first:j], sides, side_fields):
                    row[:], _, side_update = _collocate(rhs, y, side_field, rhs.frame(side),
                                                        y[:, None] + derivs @ (h * polynomial_weights(side / h)))
                    update = update or side_update
            stall = stall or ((t, update) if update else None)
            y = end
    rows[j:] = y
    return y, rows, stall


def step_plan(pulse: PulseSchedule, t_end: float, dt: float) -> list[tuple[float, float, float]]:
    """[0, t_end] cut into segments (a, b, h) wherever the distance to the
    nearest pulse center crosses a STEP_BAND_EDGES edge: collocation with
    step h = 2**k dt past k edges, free evolution (h = 0.0) past the last.

    Neighbouring segments differ in h, so free segments are never adjacent.
    A schedule with kick_strength = 0 is one free segment; t_end = 0 gives
    no segment at all.
    """
    edges = pulse.sigma_red * np.array(STEP_BAND_EDGES)
    centers = pulse.centers() if pulse.kick_strength != 0.0 else np.empty(0)
    centers = centers[slice(*np.searchsorted(centers, [-edges[-1], t_end + edges[-1]]))]
    cuts = (centers[:, None] + np.concatenate([-edges, edges])).ravel()
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


def _walk(pieces: HamiltonianPieces, pulse: PulseSchedule, dt: float, samples: np.ndarray):
    """Yield (rows, stall) in sample order: the initial state's, FreeEvolution.advance chunks of
    at most SAMPLE_BLOCK rows (stall None), and one rk4_integrate call's per piece of a collocation
    segment, cut at every SAMPLE_BLOCK-th sample in it. A segment (a, b] owns the samples in it."""
    coeffs = initial_state(pieces.h0.shape[0])
    free, rhs, k = FreeEvolution(pieces.h0, pieces.basis.sector_split), schrodinger_rhs(pieces, pulse), 1
    yield coeffs[None, :], None
    for a, b, h in step_plan(pulse, samples[-1], dt):
        stop = int(np.searchsorted(samples, b, side="right"))
        if h == 0.0:
            amplitudes, taus = free.project(coeffs), samples[k:stop] - a
            for lo in range(0, taus.size, SAMPLE_BLOCK):
                yield free.advance(amplitudes, taus[lo:lo + SAMPLE_BLOCK]), None
            if stop < samples.size:
                coeffs = free.advance(amplitudes, np.array([b - a]))[0]
        else:  # a cut must leave rk4_integrate a step to b
            cuts = samples[k + SAMPLE_BLOCK - 1:stop:SAMPLE_BLOCK]
            cuts = cuts[b - cuts > 1e-12 * max(b, 1.0)].tolist()
            for t0, t1 in zip([a, *cuts], [*cuts, b]):
                end = int(np.searchsorted(samples, t1, side="right"))
                coeffs, rows, stall = rk4_integrate(rhs, coeffs, t0, t1, h, samples[k:end])
                yield rows, stall
                k = end
        k = stop


@np.errstate(over="ignore", invalid="ignore")
def run_schedule(pieces: HamiltonianPieces, pulse: PulseSchedule, dt: float, norm_tolerance: float,
                 sample_times: np.ndarray, observers=()) -> np.ndarray:
    """Run from the initial state through sample_times (ascending from 0) at core step dt; return the
    basis state S f of the last sample's sector row f.

    Each row _walk yields is norm-checked and queued; the queue hands the observers each full block of
    SAMPLE_BLOCK samples as observer(t_red[K], indices[K], coeffs[K, n_s]), sector rows f
    (TwoRotorBasis.unfold), and the rest at the last sample or at the first row whose norm drifted beyond
    tolerance (or is NaN) or that follows the first stall, then raises StepSizeError. A diverging state
    overflows quietly.
    """
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0 or samples[0] != 0.0 or np.any(np.diff(samples) <= 0):
        raise InvalidConfigError("sample_times must be a 1-d array that starts at 0 and increases strictly")

    stall, lo = None, 0  # (t, update) of the first stalled step: every sample after t fails
    queue = np.empty((0, pieces.h0.shape[0]), dtype=np.complex128)  # checked rows not yet shown
    for rows, stalled in _walk(pieces, pulse, dt, samples):
        stall = stall or stalled
        row_norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(~(np.abs(row_norms - 1.0) <= norm_tolerance)
                             | (samples[lo:lo + len(rows)] > (stall[0] if stall else np.inf)))
        rows = rows[: bad[0] + 1] if bad.size else rows
        lo += len(rows)
        queue = np.concatenate([queue, rows])  # samples lo - len(queue) to lo - 1
        while len(queue) >= SAMPLE_BLOCK or (bad.size or lo == samples.size) and len(queue):
            block, queue = queue[:SAMPLE_BLOCK], queue[SAMPLE_BLOCK:]
            indices = np.arange(lo - len(queue) - len(block), lo - len(queue))
            for observer in observers:
                observer(samples[indices], indices, block)
        if bad.size:
            drift = abs(row_norms[bad[0]] - 1.0)
            if drift <= norm_tolerance:
                raise StepSizeError(f"the collocation sweeps did not converge at t = {stall[0]:.6g} (update "
                                    f"{stall[1]:.1e} after {MAX_SWEEPS} sweeps); reduce integrator.dt_pulse_fs")
            raise StepSizeError(
                f"norm drifted by {drift:.3e} at t = {samples[lo - 1]:.6g} (tolerance {norm_tolerance:.1e}); "
                + ("reduce integrator.dt_pulse_fs" if np.isfinite(drift) else "the state diverged")
            )
    return pieces.basis.unfold(rows[-1])
