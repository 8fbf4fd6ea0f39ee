"""Test-only reference implementations.

Everything in here recomputes quantities the package obtains from closed
forms or sparse fast paths, using slow-but-transparent numerics instead:
angular matrix elements by quadrature over the sphere, two-rotor operators
by Kronecker products of quadrature-built one-rotor matrices, time
evolution by dense midpoint-sampled eigendecomposition, H(t) as one
explicit matrix, RK4 with the derivative rebuilt at every stage, the full
d x d Schmidt matrix, the block run loop in the full M basis (no
symmetric sector), and the sample-by-sample run loop with its
per-sample observables.  None of it is imported by the package itself.
"""

from __future__ import annotations

import numpy as np
from scipy.special import sph_harm_y

from rotorpair.exceptions import StepSizeError
from rotorpair.observables import COLUMNS
from rotorpair.operators import build_costheta_single, expectation
from rotorpair.propagation import (
    SAMPLE_BLOCK,
    WINDOW_HALFWIDTH,
    FreeEvolution,
    Trajectory,
    initial_state,
    pulse_windows,
    rk4_integrate,
    schrodinger_rhs,
)

# Resolution of the default quadrature grid.  Gauss-Legendre in cos(theta)
# with 64 nodes integrates polynomial integrands up to degree 127 exactly;
# products of two harmonics with l <= 12 and one extra power of the
# trigonometric factors stay far below that.  The uniform phi grid handles
# azimuthal factors e^{i k phi} exactly for |k| <= n_phi/2 - 1.
_N_THETA = 64
_N_PHI = 128
_L_LIMIT = 12

OPERATOR_SYMBOLS = ("cos", "s+", "s-")


class OracleError(Exception):
    """A reference computation was asked to run outside its validity range."""


class QuadratureGrid:
    """Product grid on the unit sphere with precomputed harmonic values."""

    def __init__(self, l_max: int, n_theta: int = _N_THETA, n_phi: int = _N_PHI):
        if l_max > _L_LIMIT:
            raise OracleError(
                f"quadrature grid resolves l <= {_L_LIMIT}, got l_max={l_max}"
            )
        x, w = np.polynomial.legendre.leggauss(n_theta)
        self.l_max = l_max
        self.cos_theta = x
        self.theta_weights = w
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self.phi_weight = 2.0 * np.pi / n_phi
        theta = np.arccos(x)
        # harmonics[l*l + l + m] holds Y_lm sampled on the (theta, phi) grid
        d = (l_max + 1) ** 2
        self.harmonics = np.empty((d, n_theta, n_phi), dtype=np.complex128)
        tt, pp = np.meshgrid(theta, self.phi, indexing="ij")
        for l in range(l_max + 1):
            for m in range(-l, l + 1):
                self.harmonics[l * l + l + m] = sph_harm_y(l, m, tt, pp)
        sin_theta = np.sqrt(1.0 - x * x)
        self.operator_values = {
            "cos": x[:, None] * np.ones((1, n_phi)),
            "s+": sin_theta[:, None] * np.exp(1j * self.phi)[None, :],
            "s-": sin_theta[:, None] * np.exp(-1j * self.phi)[None, :],
        }

    def integrate(self, a: int, f_values: np.ndarray, b: int) -> complex:
        """<a| f |b> = integral of conj(Y_a) * f * Y_b over the sphere."""
        integrand = np.conj(self.harmonics[a]) * f_values * self.harmonics[b]
        return complex(
            self.phi_weight * np.dot(self.theta_weights, integrand.sum(axis=1))
        )

    def point_weights(self) -> np.ndarray:
        """Quadrature weight of every grid point, flattened theta-major."""
        return np.repeat(self.theta_weights * self.phi_weight, self.phi.size)

    def gram_matrix(self) -> np.ndarray:
        """Overlap matrix of all stored harmonics (identity if orthonormal)."""
        d = self.harmonics.shape[0]
        flat = self.harmonics.reshape(d, -1)
        weights = self.point_weights()
        return np.conj(flat) @ (weights[None, :] * flat).T


def quad_element(symbol: str, l_from: int, m_from: int, l_to: int, m_to: int,
                 grid: QuadratureGrid | None = None) -> complex:
    """Quadrature value of <l_to m_to| f |l_from m_from>."""
    if symbol not in OPERATOR_SYMBOLS:
        raise OracleError(f"unknown operator symbol {symbol!r}")
    l_big = max(l_from, l_to)
    if grid is None:
        grid = QuadratureGrid(l_big)
    elif grid.l_max < l_big:
        raise OracleError(f"grid built for l <= {grid.l_max}, got l={l_big}")
    a = l_to * l_to + l_to + m_to
    b = l_from * l_from + l_from + m_from
    return grid.integrate(a, grid.operator_values[symbol], b)


def single_rotor_matrix(symbol: str, l_max: int,
                        grid: QuadratureGrid | None = None) -> np.ndarray:
    """Dense one-rotor operator in the l*l+l+m ordering, by quadrature."""
    if grid is None:
        grid = QuadratureGrid(l_max)
    d = (l_max + 1) ** 2
    flat = grid.harmonics[:d].reshape(d, -1)
    weighted = (grid.point_weights() * grid.operator_values[symbol].ravel())
    return np.conj(flat) @ (weighted[None, :] * flat).T


def two_rotor_dipole(dipole_strength: float, l_max: int) -> np.ndarray:
    """Dense dipole-dipole operator on the full product basis.

    Kron ordering (first rotor major) matches the package's lexicographic
    (l1, m1, l2, m2) ordering restricted through its single-rotor indices.
    """
    grid = QuadratureGrid(l_max)
    c = single_rotor_matrix("cos", l_max, grid)
    sp = single_rotor_matrix("s+", l_max, grid)
    sm = single_rotor_matrix("s-", l_max, grid)
    return dipole_strength * (
        0.5 * (np.kron(sp, sm) + np.kron(sm, sp)) - 2.0 * np.kron(c, c)
    )


def two_rotor_coupling(l_max: int) -> np.ndarray:
    """Dense cos(theta_1) + cos(theta_2) on the full product basis."""
    grid = QuadratureGrid(l_max)
    c = single_rotor_matrix("cos", l_max, grid)
    eye = np.eye((l_max + 1) ** 2)
    return np.kron(c, eye) + np.kron(eye, c)


def two_rotor_free_diagonal(l_max: int) -> np.ndarray:
    """Diagonal of l1(l1+1) + l2(l2+1) on the full product basis."""
    ls = np.concatenate([np.full(2 * l + 1, l) for l in range(l_max + 1)])
    e = ls * (ls + 1.0)
    return (e[:, None] + e[None, :]).ravel()


def restrict(full_matrix: np.ndarray, basis) -> np.ndarray:
    """Cut a full-product-basis matrix down to a TwoRotorBasis block."""
    return full_matrix[np.ix_(basis.product_index, basis.product_index)]


def dense_propagate(coeffs: np.ndarray, h_sampler, t_a: float, t_b: float,
                    n_steps: int, chunk: int = 512) -> np.ndarray:
    """Propagate by a product of exact exponentials of midpoint-sampled H.

    Each step applies exp(-i H(t_mid) dt) through a dense eigendecomposition,
    so every step is unitary to machine precision and the only error is the
    O(dt^2) midpoint sampling of the time dependence.
    """
    dim = coeffs.shape[0]
    if dim > 1000:
        raise OracleError(f"dense propagation capped at dimension 1000, got {dim}")
    if n_steps < 1:
        raise OracleError("n_steps must be >= 1")
    dt = (t_b - t_a) / n_steps
    coeffs = coeffs.astype(np.complex128, copy=True)
    probe = np.asarray(h_sampler(t_a + 0.5 * dt))
    real_valued = np.isrealobj(probe)
    for start in range(0, n_steps, chunk):
        count = min(chunk, n_steps - start)
        mids = t_a + (np.arange(start, start + count) + 0.5) * dt
        stack = np.empty((count, dim, dim),
                         dtype=np.float64 if real_valued else np.complex128)
        for j, t in enumerate(mids):
            stack[j] = h_sampler(t)
        energies, vectors = np.linalg.eigh(stack)
        for j in range(count):
            v = vectors[j]
            phases = np.exp(-1j * energies[j] * dt)
            coeffs = v @ (phases * (np.conj(v.T) @ coeffs))
    return coeffs


def hamiltonian_at(t: float, pieces, pulse):
    """The full H(t) as an explicit CSR matrix."""
    return (pieces.h0 + pieces.coupling * pulse.field_scalar(t)).tocsr()


def per_stage_rk4(pieces, pulse, y, t0, t1, dt):
    """RK4 over [t0, t1] with the derivative H0 @ c + f(t) (V @ c) built at
    every stage: two sparse products and one scalar field call each, four
    per step.  Same step rule as the package: full steps of dt, then one
    partial final step."""
    h0 = pieces.h0
    coupling = pieces.coupling

    def deriv(t, c):
        return -1j * (h0 @ c + pulse.field_scalar(t) * (coupling @ c))

    n_full = int(np.floor((t1 - t0) / dt + 1e-12))
    for k in range(n_full):
        y = _per_stage_step(deriv, y, t0 + k * dt, dt)
    t_last = t0 + n_full * dt
    remainder = t1 - t_last
    if remainder > 1e-12 * max(abs(t1), 1.0):
        y = _per_stage_step(deriv, y, t_last, remainder)
    return y


def _per_stage_step(deriv, y, t, h):
    k1 = deriv(t, y)
    k2 = deriv(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = deriv(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = deriv(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def coefficient_matrix(basis, coeffs: np.ndarray) -> np.ndarray:
    """Scatter the coefficient vector into the full d_single x d_single matrix C."""
    d = basis.d_single
    c = np.zeros((d, d), dtype=np.complex128)
    c[basis.mol1_single, basis.mol2_single] = coeffs
    return c


def reduced_density_mol1(basis, coeffs: np.ndarray) -> np.ndarray:
    """rho_mol1 = C C^dagger; trace equals the squared norm of the state."""
    c = coefficient_matrix(basis, coeffs)
    return c @ c.conj().T


def full_space_schedule(pieces, pulse, dt, norm_tolerance, sample_times, observers=()):
    """run_schedule's block loop with every state, operator and eigh at the
    full basis size: no symmetric sector, nothing folded or unfolded."""
    samples = np.asarray(sample_times, dtype=float)
    t_end = float(samples[-1])
    windows = pulse_windows(pulse, WINDOW_HALFWIDTH, t_end)
    free = FreeEvolution(pieces.h0)
    rhs = schrodinger_rhs(pieces.h0, pieces.coupling, pulse)
    norms = np.empty(samples.size)
    h0_expect = np.empty(samples.size)

    def emit(lo, block):
        block_norms = np.linalg.norm(block, axis=1)
        bad = np.flatnonzero(~(np.abs(block_norms - 1.0) <= norm_tolerance))
        if bad.size:
            block = block[: bad[0] + 1]
        hi = lo + block.shape[0]
        norms[lo:hi] = block_norms[: hi - lo]
        h0_expect[lo:hi] = expectation(pieces.h0, block).real
        for observer in observers:
            observer(samples[lo:hi], np.arange(lo, hi), block)
        if bad.size:
            raise StepSizeError(f"norm drifted by {abs(norms[hi - 1] - 1.0):.3e}"
                                f" at t = {samples[hi - 1]:.6g}")

    coeffs = initial_state(pieces.basis)
    emit(0, coeffs[None, :])
    k, cursor = 1, 0.0
    for a, b in windows + [(t_end, t_end)]:
        stop = int(np.searchsorted(samples, a, side="right"))
        if a > cursor:
            amplitudes = free.project(coeffs)
            for lo in range(k, stop, SAMPLE_BLOCK):
                block = free.advance(amplitudes, samples[lo:min(lo + SAMPLE_BLOCK, stop)] - cursor)
                emit(lo, block)
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

    return Trajectory(norms=norms, h0_expect=h0_expect, psi_final=coeffs, windows=windows)


def per_sample_schedule(pieces, pulse, dt, sample_times):
    """The sample-by-sample run loop: one complex eigendecomposition of H0,
    one chained free advance per sample, and RK4 restarted at every sample
    inside a window.  Returns (states[K, n], norms[K], h0_expect[K])."""
    samples = np.asarray(sample_times, dtype=float)
    windows = pulse_windows(pulse, WINDOW_HALFWIDTH, float(samples[-1]))
    energies, vectors = np.linalg.eigh(pieces.h0.toarray())
    rhs = schrodinger_rhs(pieces.h0, pieces.coupling, pulse)

    def free(c, tau):
        return vectors @ (np.exp(-1j * energies * tau) * (vectors.conj().T @ c))

    c = initial_state(pieces.basis)
    states = []
    t_now = 0.0
    for t_k in samples:
        cursor = t_now
        for a, b in windows:
            if b <= cursor or a >= t_k:
                continue
            if a > cursor:
                c = free(c, a - cursor)
                cursor = a
            stop = min(b, t_k)
            c = rk4_integrate(rhs, c, cursor, stop, dt)
            cursor = stop
        if t_k > cursor:
            c = free(c, t_k - cursor)
        t_now = float(t_k)
        states.append(c)
    states = np.array(states)
    h0_expect = np.array([np.vdot(s, pieces.h0 @ s).real for s in states])
    return states, np.linalg.norm(states, axis=1), h0_expect


def per_sample_columns(basis, states, watch, log_base="e", sample_interval_ps=0.5):
    """Recorder columns computed one state at a time, with the entropy
    from the SVD of the full d x d Schmidt matrix.  Keys are the recorder's
    COLUMNS plus each watched state as a tuple."""
    cos1 = build_costheta_single(basis, "mol1")
    cos2 = build_costheta_single(basis, "mol2")
    rows = []
    for k, c in enumerate(states):
        lam = np.linalg.svd(coefficient_matrix(basis, c), compute_uv=False) ** 2
        lam = lam[lam > 1e-15]
        entropy = float(-(lam * np.log(lam)).sum())
        entropy /= {"e": 1.0, "2": np.log(2.0), "d_single": np.log(basis.d_single)}[log_base]
        probs = np.abs(c) ** 2
        rows.append([k * sample_interval_ps, np.vdot(c, cos1 @ c).real, np.vdot(c, cos2 @ c).real,
                     entropy, np.linalg.norm(c), probs @ basis.rotor_diagonal]
                    + [probs[basis.index_of(*w)] for w in watch])
    return dict(zip(COLUMNS + tuple(tuple(w) for w in watch), np.array(rows).T))
