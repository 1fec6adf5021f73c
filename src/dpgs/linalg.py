"""Dense symmetric linear algebra used by the estimators and audits.

All matrices are numpy arrays (row-major). Index sets returned elsewhere in
the package are 0-based. Mahalanobis norms follow the convention
``||v||_Sigma^2 = v^T Sigma^{-1} v``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NotPD, NotSymmetric

# Relative eigenvalue threshold below which a PSD matrix is treated as
# singular in Mahalanobis computations.
SINGULAR_RTOL = 1e-12

# Relative mass a vector may have outside range(sigma) and still count as
# lying in the range (pseudoinverse convention, see mahalanobis_sq).
RANGE_RTOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition of a symmetric matrix.

    Attributes
    ----------
    eigenvalues : (d,) array, descending order.
    eigenvectors : (d, d) array, column i pairs with eigenvalues[i].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class MatrixNorms:
    spectral: float
    frobenius: float
    trace_norm: float


def _as_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    return a


def check_symmetric(a: np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Return ``a`` as a float array, raising NotSymmetric if it is not.

    Symmetry is checked relative to the largest absolute entry so that a
    matrix scaled by 1e6 is judged by the same yardstick as a unit one.
    An exactly symmetric matrix without NaN entries passes that test, so
    it returns early; the covariance estimates ``w @ w.T`` take that path.
    Any other matrix with a NaN or infinite entry is rejected: an infinite
    yardstick would accept every finite pair.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"matrix of shape {a.shape} is not square")
    if np.array_equal(a, a.T):
        return a
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if not np.isfinite(scale):
        raise NotSymmetric("matrix is not exactly symmetric and has a non-finite entry")
    if not np.allclose(a, a.T, atol=rtol * max(scale, 1e-300), rtol=0.0):
        raise NotSymmetric("matrix is not symmetric")
    return a


def spectral_decomp(a: np.ndarray) -> SpectralDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Reconstruction ``U diag(w) U^T`` agrees with ``a`` to LAPACK accuracy
    and the eigenvector matrix is orthonormal.
    """
    a = check_symmetric(a)
    w, u = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    return SpectralDecomp(eigenvalues=w[order], eigenvectors=u[:, order])


def matrix_norms(a: np.ndarray) -> MatrixNorms:
    """Spectral, Frobenius and trace norms via singular values."""
    a = _as_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    spectral = float(s[0]) if s.size else 0.0
    return MatrixNorms(
        spectral=spectral,
        frobenius=float(np.sqrt(np.sum(s**2))),
        trace_norm=float(np.sum(s)),
    )


def mahalanobis_sq(v: np.ndarray, sigma: np.ndarray) -> float:
    """Squared Mahalanobis norm ``v^T sigma^{-1} v`` of a single vector.

    ``sigma`` must be symmetric PSD. When sigma is singular the
    pseudoinverse limit applies: vectors with a component outside
    range(sigma) get ``+inf``; vectors inside the range (in particular the
    zero vector) get ``v^T sigma^+ v``. Eigenvalues below
    ``SINGULAR_RTOL * max_eig`` count as zero.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    sigma = check_symmetric(sigma)
    if sigma.shape[0] != v.shape[0]:
        raise DimensionMismatch(
            f"vector of length {v.shape[0]} vs matrix of shape {sigma.shape}"
        )
    w, u = np.linalg.eigh(sigma)
    if np.any(w < -SINGULAR_RTOL * max(float(w[-1]), 0.0) - 1e-300):
        raise NotPD("sigma must be positive semidefinite")
    top = float(w[-1]) if w.size else 0.0
    if top <= 0.0:
        # sigma == 0: only the zero vector lies in the range.
        return 0.0 if not np.any(v) else float("inf")
    keep = w > SINGULAR_RTOL * top
    coords = u.T @ v
    if not np.all(keep):
        null_mass = float(np.sum(coords[~keep] ** 2))
        if null_mass > (RANGE_RTOL * float(np.linalg.norm(v))) ** 2:
            return float("inf")
    kept = coords[keep]
    return float(np.sum(kept**2 / w[keep]))


def sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root. Tiny negative eigenvalues clip to 0."""
    dec = spectral_decomp(a)
    w = np.clip(dec.eigenvalues, 0.0, None)
    return (dec.eigenvectors * np.sqrt(w)) @ dec.eigenvectors.T


def sym_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root of a positive definite matrix."""
    dec = spectral_decomp(a)
    if dec.eigenvalues[-1] <= 0.0:
        raise NotPD("matrix is not positive definite")
    return (dec.eigenvectors / np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.T


def psd_sandwich_check(s1: np.ndarray, s2: np.ndarray, gamma: float, tol: float = 1e-9) -> bool:
    """Check ``(1-gamma) s1 <= s2 <= s1 / (1-gamma)`` in the PSD order.

    Both matrices must be symmetric positive definite and gamma in [0, 1).
    Conjugating by s1^{-1/2} reduces the check to eigenvalue bounds
    ``1-gamma <= eig <= 1/(1-gamma)`` up to an absolute slack ``tol``.
    """
    s1 = check_symmetric(s1)
    s2 = check_symmetric(s2)
    if s1.shape != s2.shape:
        raise DimensionMismatch("matrices must share a shape")
    if not 0.0 <= gamma < 1.0:
        raise NotPD(f"gamma must lie in [0, 1), got {gamma}")
    root = sym_inv_sqrt(s1)
    conj = root @ s2 @ root
    w = np.linalg.eigvalsh((conj + conj.T) / 2.0)
    return bool(w[0] >= (1.0 - gamma) - tol and w[-1] <= 1.0 / (1.0 - gamma) + tol)


def inverse_tracenorm_gap(a: np.ndarray) -> tuple[float, float]:
    """Trace-norm gaps ``(||a - I||_tr, ||a^{-1} - I||_tr)`` for ``a >= I``.

    For a symmetric matrix with all eigenvalues >= 1, the inverse gap never
    exceeds the forward gap (each eigenvalue satisfies 1 - 1/w <= w - 1).
    """
    a = check_symmetric(a)
    w = np.linalg.eigvalsh(a)
    if w[0] < 1.0 - 1e-12:
        raise NotPD("matrix must satisfy a >= I")
    w = np.clip(w, 1.0, None)
    gap = float(np.sum(w - 1.0))
    inv_gap = float(np.sum(1.0 - 1.0 / w))
    return gap, inv_gap
