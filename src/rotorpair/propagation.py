"""Time propagation of i dc/dt = H(t) c.

The state is propagated, and observed, in the symmetric sector S of
TwoRotorBasis.sector_gather, which H(t) leaves invariant (checked, not
assumed, when build_pieces folds H0 and V); only the final state is unfolded.

step_plan cuts [0, t_end] once per run into segments, wherever the
distance to the nearest pulse center crosses a STEP_BAND_EDGES edge.
More than 5 sigma from every center a segment is free: the state advances
by the exact exponential of the field-free Hamiltonian (one
eigendecomposition per parity block and run). Every other segment is one
rk4_integrate call of ten-stage Gauss collocation in the rotor frame (exact
in the rotor energies): at the pulse-core step dt (from units.to_reduced)
near the centers, doubled past each edge. Samples do not cut its steps: a
sample inside a step is a side step from that step's start state, its
sweeps started on the step's collocation polynomial. A norm violation
fails the run, as does a step whose stage sweeps do not converge; nothing
is ever silently renormalized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import legendre
from scipy import sparse

from .exceptions import ConsistencyError, InvalidConfigError, NumericalError, StepSizeError
from .operators import HamiltonianPieces, PulseSchedule

# Distances from the nearest pulse center, in sigma, past which the
# collocation step doubles: dt, 2 dt, 4 dt, then 8 dt where the envelope is
# below 5e-6 of its peak. Past the last edge the envelope is below
# exp(-25) ~ 1e-11 and the evolution is free.
STEP_BAND_EDGES = (1.5, 2.5, 3.5, 5.0)

# s-stage Gauss collocation on [0, 1]: nodes c, weights b, A[i, j] = integral to c_i of Lagrange l_j
GAUSS_STAGES = 10
_x, _w = legendre.leggauss(GAUSS_STAGES)
GAUSS_NODES, GAUSS_WEIGHTS = 0.5 * (_x + 1.0), 0.5 * _w
GAUSS_MATRIX = 0.5 * legendre.legval(_x, legendre.legint(
    (np.arange(GAUSS_STAGES) + 0.5)[:, None] * _w * legendre.legvander(_x, GAUSS_STAGES - 1).T, lbnd=-1)).T
# A^T on the float64 view of a complex stage block: the real and imaginary column of a stage share its weights
_STAGE_PRODUCT = np.kron(GAUSS_MATRIX.T, np.eye(2))
# a step's collocation polynomial is the degree-s interpolant of its start (at 0) and its stages (at c)
_KNOTS = np.concatenate([[0.0], GAUSS_NODES])
_OTHER_KNOTS = ~np.eye(GAUSS_STAGES + 1, dtype=bool)
_KNOT_SCALE = 1.0 / np.where(_OTHER_KNOTS, _KNOTS[:, None] - _KNOTS, 1.0).prod(axis=1)
# a step h's stage sweeps contract by about h * SWEEP_RATE * |H|: the spectral radius of A, about 0.7 / s
SWEEP_RATE = float(np.abs(np.linalg.eigvals(GAUSS_MATRIX)).max())
# converged at a few roundings of a unit state; sweeps contracting by q > 0.3 need more than the cap
SWEEP_TOLERANCE = 1e-15
MAX_SWEEPS = 30

# Samples per observer block and per free-advance chunk. run_schedule's queue
# briefly holds up to 2 SAMPLE_BLOCK - 1 complex sector rows (more only while a
# larger collocation segment joins it): 0.6 MiB at l_max = 10 (n_s = 286).
SAMPLE_BLOCK = 64


@dataclass
class Trajectory:
    """What propagation computed: the per-sample norms and the final state."""

    norms: np.ndarray
    psi_final: np.ndarray

    @property
    def max_norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))


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
        if np.any(h0.data.imag):
            raise ConsistencyError("H0 must be real; its largest imaginary part is "
                                   f"{np.abs(h0.data.imag).max():.3e}")
        self.halves = (slice(0, split), slice(split, h0.shape[0]))
        try:
            blocks = [np.linalg.eigh(h0[half, half].real.toarray()) for half in self.halves]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition of H0 (dim {h0.shape[0]}) failed: {exc}") from exc
        self.energies = np.concatenate([energies for energies, _ in blocks])
        self.vectors = [vectors for _, vectors in blocks]

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
    stacked = sparse.vstack([rest, pieces.coupling], format="csr")
    if np.any(stacked.data.imag):
        raise ConsistencyError(f"H0 and V must be real; largest imaginary part {np.abs(stacked.data.imag).max():.3e}")
    stacked = stacked.real

    def deriv(f, c):
        pairs = np.ascontiguousarray(c, dtype=np.complex128).view(np.float64).reshape(n, -1)
        w = (stacked @ pairs).view(np.complex128)
        out = w[n:]
        out *= f
        out += w[:n]
        out *= -1j
        return out.reshape(np.shape(c))

    return RightHandSide(pulse.field_scalar, deriv, energies)


def _interpolation_weights(tau: np.ndarray) -> np.ndarray:
    """[..., i, k] = the Lagrange polynomial of knot k of _KNOTS at tau[..., i]."""
    return np.where(_OTHER_KNOTS, tau[..., None, None] - _KNOTS, 1.0).prod(axis=-1) * _KNOT_SCALE


def _collocate(rhs: RightHandSide, y: np.ndarray, fields: np.ndarray, frame: tuple,
               stages: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One step from y: fixed-point sweeps of its rotor-frame stage equations, each one rhs.deriv product
    on the n x s stage block, from the first guess stages until no stage entry moves by more than
    SWEEP_TOLERANCE. Returns the end state, the stages and, if MAX_SWEEPS sweeps did not converge, the
    last update (else 0.0)."""
    turn, back, full, h_a, h_b = frame
    start = np.repeat(y[:, None], GAUSS_STAGES, axis=1)
    for _ in range(MAX_SWEEPS):
        derivs = back * rhs.deriv(fields, turn * stages)
        new = (derivs.view(np.float64) @ h_a).view(np.complex128)
        new += start
        update, stages = np.abs(new - stages).max(), new
        if not update > SWEEP_TOLERANCE:  # converged, or not finite
            return full * (y + derivs @ h_b), stages, 0.0
    return full * (y + derivs @ h_b), stages, update


def rk4_integrate(rhs: RightHandSide, y: np.ndarray, t0: float, t1: float, dt: float,
                  sample_times: np.ndarray = ()) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """GAUSS_STAGES-stage Gauss-Legendre collocation (order 2s = 20; unitary once the stage equations are solved:
    Hairer, Lubich & Wanner, Geometric Numerical Integration, sec. IV) in the frame that rotates with
    rhs.rates, which are integrated exactly. Fixed step dt and one partial final step; a leftover under
    1e-12 max(|t1|, 1), or a negative one, goes to the last full step instead, so the steps end on t1.
    The stage fields of every step come from one call, the frame tables of dt from rhs.band. Returns the
    state at t1, the states at sample_times (ascending, within (t0, t1]) as rows, and the stall: None, or
    (t, last update) of the first step at t whose sweeps, main or side, reached MAX_SWEEPS.

    Samples do not cut the steps. A sample at a step's end, or past the last step, is the state there.
    A sample t* inside the step [t, t + h] is a side step of width t* - t from the state at t: its sweeps
    start on the step's collocation polynomial (the degree-s interpolant of the state at t and the
    step's stages) at the side step's nodes theta c, theta = (t* - t) / h (Hairer, Lubich & Wanner,
    sec. VIII.6), and converge like any step's. A stalled step goes on from its last iterate."""
    if not (dt > 0 and t1 >= t0):
        raise ValueError(f"need dt > 0 and t1 >= t0, got dt = {dt}, span {t1 - t0}")
    n_full = int(np.floor((t1 - t0) / dt + 1e-12))
    remainder = t1 - (t0 + n_full * dt)
    steps = [dt] * n_full
    if remainder > 1e-12 * max(abs(t1), 1.0):
        steps.append(remainder)
    elif steps:  # the last full step takes up a shorter (or negative) leftover, so the span still ends on t1
        steps[-1] += remainder
    starts, widths = t0 + np.arange(len(steps)) * dt, np.array(steps)
    samples = np.asarray(sample_times, dtype=float)
    done = np.searchsorted(starts + widths, samples, side="right")  # the steps that end by each sample
    inside = done < len(steps)
    inside[inside] = samples[inside] > starts[done[inside]]
    owner = done[inside]
    side_widths = samples[inside] - starts[owner]
    fields = rhs.field(np.concatenate([starts, starts[owner]])[:, None]
                       + np.concatenate([widths, side_widths])[:, None] * GAUSS_NODES)
    guesses = _interpolation_weights((side_widths / widths[owner])[:, None] * GAUSS_NODES).swapaxes(1, 2)
    sides = iter(zip(fields[len(steps):], side_widths.tolist(), guesses))
    bounds = np.searchsorted(done, np.arange(len(steps) + 1)).tolist()  # bounds[i]:bounds[i + 1] are past i steps
    band = rhs.band(dt)
    rows = np.empty((samples.size, np.size(y)), dtype=np.complex128)
    stall = None
    for i, (t, h, field_row) in enumerate(zip(starts.tolist(), steps, fields)):
        end, stages, update = _collocate(rhs, y, field_row, band if h == dt else rhs.frame(h), y[:, None])
        for j in range(bounds[i], bounds[i + 1]):
            if not inside[j]:
                rows[j] = y
                continue
            side_fields, width, weights = next(sides)
            polynomial = y[:, None] * weights[0] + stages @ weights[1:]
            rows[j], _, side_update = _collocate(rhs, y, side_fields, rhs.frame(width), polynomial)
            update = update or side_update
        if update and stall is None:
            stall = (t, update)
        y = end
    rows[bounds[-1]:] = y
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


@np.errstate(over="ignore", invalid="ignore")
def run_schedule(pieces: HamiltonianPieces, pulse: PulseSchedule, dt: float,
                 norm_tolerance: float, sample_times: np.ndarray,
                 observers=()) -> Trajectory:
    """Walk the step_plan of [0, last sample] with core step dt from the
    initial state, sampling on the way in the symmetric sector.

    sample_times must be ascending and start at 0. Each segment makes its
    samples' rows at once: FreeEvolution.advance chunks of at most
    SAMPLE_BLOCK, or one rk4_integrate call. take checks each row's norm
    once and queues it, and the queue hands the observers every full block
    of SAMPLE_BLOCK consecutive samples as observer(t_red[K], indices[K],
    coeffs[K, n_s]): sector rows f, whose basis state is S f
    (TwoRotorBasis.unfold). Norms are those of f; psi_final is S f of the
    last sample. The rest of the queue is shown at the last sample, or at the
    first row whose norm drifted beyond tolerance (or is NaN) or that follows
    the first stall an rk4_integrate call returned; then StepSizeError is
    raised. A diverging state overflows quietly.
    """
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise InvalidConfigError("sample_times must be a non-empty 1-d array")
    if samples[0] != 0.0 or np.any(np.diff(samples) <= 0):
        raise InvalidConfigError("sample_times must start at 0 and increase strictly")

    t_end = float(samples[-1])
    coeffs = last = initial_state(pieces.h0.shape[0])
    free = FreeEvolution(pieces.h0, pieces.basis.sector_split)
    rhs = schrodinger_rhs(pieces, pulse)
    norms = np.empty(samples.size)
    stall = None  # (t, update) of the first stalled step: every sample after t fails
    queue = np.empty((0, coeffs.size), dtype=np.complex128)  # checked rows not yet shown

    def take(lo: int, rows: np.ndarray) -> None:
        """Check the rows of samples lo, lo + 1, ... and queue them up to the first bad one; show the
        observers each full block, and the rest of the queue at the last sample or at a bad row."""
        nonlocal queue, last
        row_norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(~(np.abs(row_norms - 1.0) <= norm_tolerance)
                             | (samples[lo:lo + rows.shape[0]] > (stall[0] if stall else np.inf)))
        if bad.size:
            rows = rows[: bad[0] + 1]
        hi = lo + rows.shape[0]
        norms[lo:hi] = row_norms[: hi - lo]
        queue = np.concatenate([queue, rows])  # samples hi - len(queue) to hi - 1
        flush = bad.size or hi == samples.size
        while len(queue) >= SAMPLE_BLOCK or flush and len(queue):
            block, queue = queue[:SAMPLE_BLOCK], queue[SAMPLE_BLOCK:]
            indices = np.arange(hi - len(queue) - len(block), hi - len(queue))
            for observer in observers:
                observer(samples[indices], indices, block)
            last = block[-1]
        if bad.size:
            drift = abs(norms[hi - 1] - 1.0)
            if drift <= norm_tolerance:
                raise StepSizeError(f"the collocation sweeps did not converge at t = {stall[0]:.6g} (update "
                                    f"{stall[1]:.1e} after {MAX_SWEEPS} sweeps); reduce integrator.dt_pulse_fs")
            raise StepSizeError(
                f"norm drifted by {drift:.3e} at t = {samples[hi - 1]:.6g} (tolerance {norm_tolerance:.1e}); "
                + ("reduce integrator.dt_pulse_fs" if np.isfinite(drift) else "the state diverged")
            )

    # each segment owns the samples in (a, b]
    take(0, coeffs[None, :])
    k = 1
    for a, b, h in step_plan(pulse, t_end, dt):
        stop = int(np.searchsorted(samples, b, side="right"))
        if h == 0.0:
            amplitudes = free.project(coeffs)
            for lo in range(k, stop, SAMPLE_BLOCK):
                take(lo, free.advance(amplitudes, samples[lo:min(lo + SAMPLE_BLOCK, stop)] - a))
            if b < t_end:
                coeffs = free.advance(amplitudes, np.array([b - a]))[0]
        else:
            coeffs, rows, stalled = rk4_integrate(rhs, coeffs, a, b, h, samples[k:stop])
            stall = stall or stalled
            take(k, rows)
        k = stop
    return Trajectory(norms=norms, psi_final=pieces.basis.unfold(last))
