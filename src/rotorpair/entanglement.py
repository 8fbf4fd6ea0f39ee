"""Schmidt analysis of two-rotor wavefunctions, a block of states at a time.

The coefficient vector c_{l m l' m'} scatters into the matrix
C[(l,m), (l',m')]; the Schmidt weights are the squared singular values
of C, identical to the eigenvalues of the reduced density matrix
rho_mol1 = C C^dagger. The von Neumann entropy is -sum(lam log lam).

With m1 + m2 = M conserved, C is nonzero only where m' = M - m, so it
splits into one block per m and its spectrum is the union of the block
spectra (the symmetry-resolved Schmidt decomposition). The basis holds
the scatter map (TwoRotorBasis.schmidt_flat); the full basis is the same
map with one d_single x d_single block.
"""

from __future__ import annotations

import math

import numpy as np

from .angular import TwoRotorBasis
from .config import ENTROPY_LOG_BASES
from .exceptions import InvalidConfigError, NumericalError

# weights below this are rounding noise and are dropped before the log
_CLIP = 1e-15


def schmidt_spectrum(basis: TwoRotorBasis, coeffs: np.ndarray) -> np.ndarray:
    """Schmidt weights of every row of coeffs (K x n), shape (K, w).

    Each row holds the blocks' weights in block order, descending within a
    block, with zeros where a block is padded. A row that is not finite
    gets NaN weights instead of failing the whole block.
    """
    coeffs = np.atleast_2d(coeffs)
    k = coeffs.shape[0]
    blocks = np.zeros((k, math.prod(basis.schmidt_shape)), dtype=np.complex128)
    blocks[:, basis.schmidt_flat] = coeffs
    blocks = blocks.reshape((k,) + basis.schmidt_shape)
    finite = np.isfinite(coeffs).all(axis=1)
    weights = np.full((k, basis.schmidt_shape[0] * basis.schmidt_shape[2]), np.nan)
    try:
        singulars = np.linalg.svd(blocks[finite], compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of the coefficient matrix failed: {exc}") from exc
    weights[finite] = (singulars * singulars).reshape(-1, weights.shape[1])
    return weights


def von_neumann_entropy(weights: np.ndarray, d_single: int, log_base: str) -> np.ndarray:
    """-sum(lam log lam) over the last axis with 0 log 0 = 0; a negative sum
    reads 0.0 and NaN stays NaN.

    "d_single" divides by ln d_single, the one-rotor dimension (l_max+1)^2,
    whatever the number of weights.
    """
    if log_base not in ENTROPY_LOG_BASES:
        raise InvalidConfigError(f"log_base must be one of {ENTROPY_LOG_BASES}, got {log_base!r}")
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
