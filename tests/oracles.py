"""Test-only reference implementations.

Everything in here recomputes quantities the package obtains from closed
forms or sparse fast paths, using slow-but-transparent numerics instead:
angular matrix elements by quadrature over the sphere, two-rotor operators
by Kronecker products of quadrature-built one-rotor matrices, time
evolution by dense midpoint-sampled eigendecomposition, H(t) as one
explicit matrix, rotor-frame Gauss collocation with its stage equations
solved as one dense linear system, a step's collocation polynomial as the
Lagrange interpolant of its start and stages, uniform classical RK4 with
no frame and no step bands, the full d x d Schmidt matrix, the block run
loop over every state of a basis (no symmetric sector), and the
sample-by-sample run loop with its per-sample observables.  The loops take H0, V and the
rotor energies unfolded, over the M = 0 basis (basis_operators) or the
whole d_single^2 product space (product_operators).  None of it is
imported by the package itself.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.special import sph_harm_y

from rotorpair import operators
from rotorpair.angular import one_rotor_steps
from rotorpair.exceptions import StepSizeError
from rotorpair.observables import COLUMNS
from rotorpair.operators import expectation
from rotorpair.propagation import (
    GAUSS_MATRIX,
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    SAMPLE_BLOCK,
    FreeEvolution,
    rk4_integrate,
    schrodinger_rhs,
    step_plan,
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


def one_rotor_dense(l_max: int) -> dict[str, np.ndarray]:
    """The package's cos, s+ and s- as dense matrices over the one-rotor states
    l <= l_max in the l*l+l+m ordering, each entry written from one step of
    one_rotor_steps; steps that leave l <= l_max are dropped."""
    l = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    m = np.arange(l.size) - l * l - l
    dense = {}
    for symbol, steps in one_rotor_steps(l, m).items():
        dense[symbol] = np.zeros((l.size, l.size))
        for dl, dm, value in steps:
            to_l, to_m = l + dl, m + dm
            lands = (np.abs(to_m) <= to_l) & (to_l <= l_max)
            dense[symbol][(to_l * to_l + to_l + to_m)[lands], np.flatnonzero(lands)] = value[lands]
    return dense


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


def one_rotor_indices(basis) -> tuple[np.ndarray, np.ndarray]:
    """The one-rotor index l*l + l + m of rotor 1 and of rotor 2 in every basis state."""
    return basis.l1 * basis.l1 + basis.l1 + basis.m1, basis.l2 * basis.l2 + basis.l2 + basis.m2


def product_index(basis) -> np.ndarray:
    """Every basis state's index single1 * d_single + single2 in the d_single^2 product space
    (Kronecker order) of its one-rotor indices."""
    single1, single2 = one_rotor_indices(basis)
    return single1 * basis.d_single + single2


def sector_isometry(basis) -> sparse.csr_matrix:
    """The real sector isometry S (size x n_s) of basis.sector_gather, as CSR:
    row r holds weight[r] in column column[r]."""
    column, weight = basis.sector_gather
    return sparse.csr_matrix((weight, (np.arange(basis.size), column)), shape=(basis.size, column.max() + 1))


def restrict(full_matrix: np.ndarray, basis) -> np.ndarray:
    """Cut a full-product-basis matrix down to a TwoRotorBasis block."""
    index = product_index(basis)
    return full_matrix[np.ix_(index, index)]


def orientation_pair(basis) -> tuple[np.ndarray, np.ndarray]:
    """Dense cos(theta_1) and cos(theta_2) over the basis states: the
    quadrature one-rotor cos in a Kronecker product with the identity."""
    c = single_rotor_matrix("cos", basis.l_max)
    eye = np.eye(basis.d_single)
    return restrict(np.kron(c, eye), basis), restrict(np.kron(eye, c), basis)


def product_total_m(l_max: int) -> np.ndarray:
    """m1 + m2 of every state of the d_single^2 product space, in Kronecker order."""
    m = np.concatenate([np.arange(-l, l + 1) for l in range(l_max + 1)])
    return np.add.outer(m, m).ravel()


class BasisOperators(NamedTuple):
    """H0, V (CSR) and the rotor energies over every state of a basis, unfolded;
    the ground state |00;00> is state 0 of every basis here."""

    h0: sparse.csr_matrix
    coupling: sparse.csr_matrix
    energies: np.ndarray


def basis_operators(basis, dipole_strength: float) -> BasisOperators:
    """The package's closed-form H0 = rotor + dipole and V over the M = 0 basis
    (operators.basis_operators), before build_pieces folds them onto the symmetric sector."""
    return BasisOperators(*operators.basis_operators(basis, dipole_strength), basis.rotor_diagonal)


def product_operators(l_max: int, dipole_strength: float) -> BasisOperators:
    """The quadrature H0 and V over the whole d_single^2 product space (every M),
    hermitized and real, with every quadrature rounding entry kept."""
    def hermitized(op):
        return sparse.csr_matrix((0.5 * (op + op.conj().T)).real.astype(np.complex128))

    energies = two_rotor_free_diagonal(l_max)
    return BasisOperators(hermitized(np.diag(energies) + two_rotor_dipole(dipole_strength, l_max)),
                          hermitized(two_rotor_coupling(l_max)), energies)


def ground_state(ops: BasisOperators) -> np.ndarray:
    """|00;00>, state 0 of the basis that ops act on."""
    coeffs = np.zeros(ops.h0.shape[0], dtype=np.complex128)
    coeffs[0] = 1.0
    return coeffs


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


def hamiltonian_at(t: float, ops, pulse):
    """The full H(t) as an explicit CSR matrix."""
    return (ops.h0 + ops.coupling * pulse.field_scalar(t)).tocsr()


def dense_collocation(ops, pulse, y, t0, t1, dt):
    """Rotor-frame Gauss collocation over [t0, t1] with the package's tableau
    and its stage equations solved directly: with D the diagonal of the
    unfolded H0 (the rotor energies), W = H0 - D and the rotor-frame
    generator G_j = exp(i D c_j h) (-i)(W + f(t + c_j h) V) exp(-i D c_j h)
    as a dense matrix at each node, the stages solve the (s n) x (s n)
    system Z_i - h sum_j a_ij G_j Z_j = y, and the step ends with
    y = exp(-i D h) (y + h sum_j b_j G_j Z_j).  Same step rule as the
    package (step_widths)."""
    rest = ops.h0.toarray()
    energies = rest.diagonal().real.copy()
    np.fill_diagonal(rest, 0.0)
    coupling = ops.coupling.toarray()
    n, s = energies.size, GAUSS_NODES.size

    def collocation_step(y, t, h):
        gens = []
        for c in GAUSS_NODES:
            phase = np.exp((1j * c * h) * energies)
            h_t = rest + pulse.field_scalar(t + c * h) * coupling
            gens.append(phase[:, None] * (-1j * h_t) * phase.conj()[None, :])
        system = np.eye(s * n) - h * np.block([[GAUSS_MATRIX[i, j] * gens[j] for j in range(s)]
                                               for i in range(s)])
        stages = np.linalg.solve(system, np.tile(y, s)).reshape(s, n)
        z = y + h * sum(b * g @ z_j for b, g, z_j in zip(GAUSS_WEIGHTS, gens, stages))
        return np.exp((-1j * h) * energies) * z

    for k, h in enumerate(step_widths(t0, t1, dt)):
        y = collocation_step(y, t0 + k * dt, h)
    return y


def step_widths(t0, t1, dt):
    """The widths of the steps rk4_integrate takes over [t0, t1], the k-th from t0 + k dt: whole steps
    of dt, then a closing step of the leftover if it is over 1e-12 max(|t1|, 1) or the span has no whole
    step; any other leftover, or a negative one, widens the last whole step instead."""
    n_full = int(np.floor((t1 - t0) / dt + 1e-12))
    remainder = t1 - (t0 + n_full * dt)
    if remainder > 1e-12 * max(abs(t1), 1.0) or not n_full:
        return [dt] * n_full + [remainder]
    return [dt] * (n_full - 1) + [dt + remainder]


def collocation_interpolant(y, stages, tau):
    """A step's collocation polynomial at the points tau of [0, 1]: the degree-s
    interpolant of its start y (at 0) and its stages (the columns of stages, at
    GAUSS_NODES), summed over the Lagrange basis of those s + 1 knots."""
    knots = np.concatenate([[0.0], GAUSS_NODES])
    others = ~np.eye(knots.size, dtype=bool)
    scale = 1.0 / np.where(others, knots[:, None] - knots, 1.0).prod(axis=1)
    weights = np.where(others, np.asarray(tau)[:, None, None] - knots, 1.0).prod(axis=-1) * scale  # [point, knot]
    return y[:, None] * weights[:, 0] + stages @ weights[:, 1:].T


def classical_rk4(rhs, y, t0, t1, dt):
    """Uniform classical RK4 of dy/dt = -i rates y + deriv(field(t), y), the
    rates stepped like the rest, with the package's step rule (step_widths)
    and one vectorized field call: the path the collocation stepper replaced,
    and the reference that its rotor frame, step bands and step size are
    measured against."""
    steps = step_widths(t0, t1, dt)
    starts, widths = t0 + np.arange(len(steps)) * dt, np.array(steps)
    fields = rhs.field(np.stack([starts, starts + 0.5 * widths, starts + widths]))

    def deriv(f, c):
        return rhs.deriv(f, c) - 1j * rhs.rates * c

    for h, (f0, f_mid, f1) in zip(steps, fields.T.tolist()):
        k1 = deriv(f0, y)
        k2 = deriv(f_mid, y + (0.5 * h) * k1)
        k3 = deriv(f_mid, y + (0.5 * h) * k2)
        k4 = deriv(f1, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def coefficient_matrix(basis, coeffs: np.ndarray) -> np.ndarray:
    """Scatter the coefficient vector into the full d_single x d_single matrix C."""
    d = basis.d_single
    c = np.zeros((d, d), dtype=np.complex128)
    c[one_rotor_indices(basis)] = coeffs
    return c


def reduced_density_mol1(basis, coeffs: np.ndarray) -> np.ndarray:
    """rho_mol1 = C C^dagger; trace equals the squared norm of the state."""
    c = coefficient_matrix(basis, coeffs)
    return c @ c.conj().T


def rk4_windows(plan):
    """The windows of a step plan: each run of adjacent RK4 segments as (start, end)."""
    windows = []
    for a, b, h in plan:
        if h and windows and windows[-1][1] == a:
            windows[-1] = (windows[-1][0], b)
        elif h:
            windows.append((a, b))
    return windows


def strict_rk4(rhs, y, t0, t1, dt, sample_times=()):
    """rk4_integrate's state at t1 and sample rows, raising StepSizeError on the stall it returns."""
    y, rows, stall = rk4_integrate(rhs, y, t0, t1, dt, sample_times)
    if stall:
        raise StepSizeError(f"the collocation sweeps did not converge at t = {stall[0]:.6g}")
    return y, rows


class FullSpaceRun(NamedTuple):
    norms: np.ndarray
    h0_expect: np.ndarray
    psi_final: np.ndarray


def full_space_schedule(ops, pulse, dt, norm_tolerance, sample_times, observers=()):
    """run_schedule's sample queue from |00;00> with every state, operator and
    eigh at the size of the basis of ops: no symmetric sector, nothing
    folded or unfolded: the norm and <H0> of each sample, and the last state."""
    samples = np.asarray(sample_times, dtype=float)
    free = FreeEvolution(ops.h0, ops.h0.shape[0])  # one block: the basis is in no parity order
    rhs = schrodinger_rhs(ops, pulse)
    norms = np.empty(samples.size)
    h0_expect = np.empty(samples.size)
    queue = np.empty((0, ops.h0.shape[0]), dtype=np.complex128)

    def take(lo, rows):
        nonlocal queue
        row_norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(~(np.abs(row_norms - 1.0) <= norm_tolerance))
        if bad.size:
            rows = rows[: bad[0] + 1]
        hi = lo + rows.shape[0]
        norms[lo:hi] = row_norms[: hi - lo]
        h0_expect[lo:hi] = expectation(ops.h0, rows).real
        queue = np.concatenate([queue, rows])  # samples hi - len(queue) to hi - 1
        flush = bad.size or hi == samples.size
        while len(queue) >= SAMPLE_BLOCK or flush and len(queue):
            block, queue = queue[:SAMPLE_BLOCK], queue[SAMPLE_BLOCK:]
            indices = np.arange(hi - len(queue) - len(block), hi - len(queue))
            for observer in observers:
                observer(samples[indices], indices, block)
        if bad.size:
            raise StepSizeError(f"norm drifted by {abs(norms[hi - 1] - 1.0):.3e}"
                                f" at t = {samples[hi - 1]:.6g}")

    coeffs = ground_state(ops)
    take(0, coeffs[None, :])
    k = 1
    for a, b, h in step_plan(pulse, float(samples[-1]), dt):
        stop = int(np.searchsorted(samples, b, side="right"))
        if h == 0.0:
            amplitudes = free.project(coeffs)
            for lo in range(k, stop, SAMPLE_BLOCK):
                take(lo, free.advance(amplitudes, samples[lo:min(lo + SAMPLE_BLOCK, stop)] - a))
            coeffs = free.advance(amplitudes, np.array([b - a]))[0]
        else:
            coeffs, rows = strict_rk4(rhs, coeffs, a, b, h, samples[k:stop])
            take(k, rows)
        k = stop
    return FullSpaceRun(norms=norms, h0_expect=h0_expect, psi_final=coeffs)


def per_sample_schedule(ops, pulse, dt, sample_times):
    """The sample-by-sample run loop: one complex eigendecomposition of H0,
    one chained free advance per sample, and the RK4 stepper restarted at
    every sample, over each part of the step plan between two samples.
    Returns (states[K, n], norms[K], h0_expect[K])."""
    samples = np.asarray(sample_times, dtype=float)
    plan = step_plan(pulse, float(samples[-1]), dt)
    energies, vectors = np.linalg.eigh(ops.h0.toarray())
    rhs = schrodinger_rhs(ops, pulse)

    c = ground_state(ops)
    states = [c]
    for t_from, t_k in zip(samples[:-1].tolist(), samples[1:].tolist()):
        for a, b, h in plan:
            lo, hi = max(a, t_from), min(b, t_k)
            if hi > lo and h == 0.0:
                c = vectors @ (np.exp(-1j * energies * (hi - lo)) * (vectors.conj().T @ c))
            elif hi > lo:
                c = strict_rk4(rhs, c, lo, hi, h)[0]
        states.append(c)
    states = np.array(states)
    h0_expect = np.array([np.vdot(s, ops.h0 @ s).real for s in states])
    return states, np.linalg.norm(states, axis=1), h0_expect


def per_sample_columns(basis, states, watch, log_base="e", sample_interval_ps=0.5):
    """Recorder columns computed one basis state vector at a time, with the
    orientations from the quadrature Kronecker cos(theta_1) and cos(theta_2)
    and the entropy from the SVD of the full d x d Schmidt matrix.  Keys are
    the recorder's COLUMNS plus each watched state as a tuple."""
    cos1, cos2 = orientation_pair(basis)
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
