"""Schmidt analysis of two-rotor wavefunctions, a block of states at a time.

The coefficient vector c_{l m l' m'} scatters into the matrix
C[(l,m), (l',m')]; the Schmidt weights are the squared singular values
of C, identical to the eigenvalues of the reduced density matrix
rho_mol1 = C C^dagger. The von Neumann entropy is -sum(lam log lam).

The states analysed here are sector rows f, the coefficients of the
P12/sigma_v-even M = 0 sector that every run propagates, and C is
gathered from them (TwoRotorBasis.unfold). The basis holds only
M = 0 states, so C is nonzero only where m' = -m and splits into one
block C_m per m (the symmetry-resolved Schmidt decomposition), and the
sector makes C_{-m} = C_m = C_m^T: the spectrum is block 0's weights
plus each m > 0 block's twice, and the weights of C_m are the
eigenvalues of its Gram matrix C_m C_m^dagger.
"""

from __future__ import annotations

import math

import numpy as np

from .angular import TwoRotorBasis
from .exceptions import NumericalError

# weights below this are rounding noise and are dropped before the log
_CLIP = 1e-15


@np.errstate(over="ignore")
def schmidt_spectrum(basis: TwoRotorBasis, coeffs: np.ndarray) -> np.ndarray:
    """Schmidt weights of every sector row of coeffs (K x n_s), shape
    (K, d_single): blocks m = 1..l_max, then m = 0..l_max, descending within
    a block and never negative. A row whose squared norm is not finite (a
    NaN, an inf, or a diverged state that would overflow its Gram matrices)
    gets NaN weights instead of failing the whole block.
    """
    coeffs = np.atleast_2d(coeffs)
    finite = np.isfinite((np.abs(coeffs) ** 2).sum(axis=1))
    good = coeffs[finite]
    weights = np.full((coeffs.shape[0], basis.d_single), np.nan)
    eigs = []
    try:
        for block in basis.schmidt_blocks:
            c = basis.unfold(good, block)
            # no weight of a block exceeds its squared Frobenius norm: at half of _CLIP or
            # less, every weight is one the entropy drops, and zeros change no bit
            if (c.real ** 2 + c.imag ** 2).sum(axis=(1, 2)).max(initial=0.0) <= 0.5 * _CLIP:
                eigs.append(np.zeros(c.shape[:2]))
            else:
                eigs.append(np.linalg.eigvalsh(c @ c.conj().swapaxes(1, 2))[:, ::-1])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalues of the Schmidt Gram matrix failed: {exc}") from exc
    weights[finite] = np.maximum(np.concatenate(eigs[1:] + eigs, axis=1), 0.0)
    return weights


def von_neumann_entropy(weights: np.ndarray, d_single: int, log_base: str) -> np.ndarray:
    """-sum(lam log lam) over the last axis with 0 log 0 = 0; a negative sum
    reads 0.0 and NaN stays NaN.

    "d_single" divides by ln d_single, the one-rotor dimension (l_max+1)^2,
    whatever the number of weights.
    """
    lam = np.asarray(weights, dtype=float)
    entropy = -(lam * np.log(np.where(lam > _CLIP, lam, 1.0))).sum(axis=-1)
    # a product state's one weight is its norm^2, which rounding can put just
    # above 1; -0.0 and NaN are kept
    entropy = np.where(entropy < 0, 0.0, entropy)
    if log_base == "2":
        entropy /= math.log(2.0)
    elif log_base == "d_single" and d_single > 1:
        entropy /= math.log(d_single)
    return entropy
