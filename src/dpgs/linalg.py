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
# lying in the range (pseudoinverse convention, see range_mask).
RANGE_RTOL = 1e-9


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


def check_symmetric(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a float array, raising NotSymmetric if it is not.

    Symmetry is checked to 1e-9 of the largest absolute entry so that a
    matrix scaled by 1e6 is judged by the same yardstick as a unit one.
    An exactly symmetric matrix without NaN entries passes that test, so
    it returns early; the covariance estimates ``w @ w.T`` take that path.
    Any other matrix with a NaN or infinite entry is rejected: an infinite
    yardstick would accept every finite pair.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"matrix of shape {a.shape} is not square")
    if (a == a.T).all():  # np.array_equal(a, a.T) for a square a
        return a
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if not np.isfinite(scale):
        raise NotSymmetric("matrix is not exactly symmetric and has a non-finite entry")
    if not np.allclose(a, a.T, atol=1e-9 * max(scale, 1e-300), rtol=0.0):
        raise NotSymmetric("matrix is not symmetric")
    return a


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


def range_mask(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues (``eigh``'s ascending ``w``) span the range of a PSD matrix.

    The range keeps the eigenvalues above SINGULAR_RTOL times the largest,
    so the zero matrix has none; one below -SINGULAR_RTOL times the largest
    (less 1e-300) raises NotPD. Every Mahalanobis norm in the package takes
    the pseudoinverse limit on this split: a difference outside the range
    (see outside_range) is infinitely far, one inside it uses sigma^+.
    """
    top = max(float(w[-1]), 0.0) if w.size else 0.0
    if w.size and w[0] < -SINGULAR_RTOL * top - 1e-300:
        raise NotPD("sigma must be positive semidefinite")
    return w > SINGULAR_RTOL * top


def outside_range(null_mass: np.ndarray | float, sq_norm: np.ndarray | float):
    """Whether squared null-space mass null_mass puts a vector of squared
    norm sq_norm outside the range (elementwise)."""
    return null_mass > (RANGE_RTOL**2) * sq_norm


def mahalanobis_sq(v: np.ndarray, sigma: np.ndarray) -> float:
    """Squared Mahalanobis norm ``v^T sigma^{-1} v`` of a single vector.

    ``sigma`` must be symmetric PSD (NotPD otherwise). When sigma is
    singular the pseudoinverse limit of range_mask applies: vectors with a
    component outside range(sigma) get ``+inf``; vectors inside the range
    (in particular the zero vector) get ``v^T sigma^+ v``.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    sigma = check_symmetric(sigma)
    if sigma.shape[0] != v.shape[0]:
        raise DimensionMismatch(
            f"vector of length {v.shape[0]} vs matrix of shape {sigma.shape}"
        )
    w, u = np.linalg.eigh(sigma)
    keep = range_mask(w)
    coords = u.T @ v
    if outside_range(float(np.sum(coords[~keep] ** 2)), float(v @ v)):
        return float("inf")
    return float(np.sum(coords[keep] ** 2 / w[keep]))


def sym_sqrt(
    a: np.ndarray, eig: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Symmetric PSD square root. Tiny negative eigenvalues clip to 0.

    Eigenpairs are summed largest first; the release bytes depend on it.
    eig, if given, must be ``np.linalg.eigh(a)``'s output (w ascending, u);
    the root is then built from it without decomposing a again, with the
    same bytes. A 1 x 1 matrix takes the closed form and ignores eig: for
    N = 1 LAPACK's dsyevd returns the entry itself with eigenvector 1 and no
    arithmetic, so the eigen route reduces to the clipped entry's square
    root, with the same bytes.
    """
    a = check_symmetric(a)
    if a.shape[0] == 1:
        return np.sqrt(np.maximum(a, 0.0))
    w, u = np.linalg.eigh(a) if eig is None else eig
    order = np.argsort(w)[::-1]
    w, u = np.maximum(w[order], 0.0), u[:, order]
    return (u * np.sqrt(w)) @ u.T


def sym_inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root of a positive definite matrix."""
    w, u = np.linalg.eigh(check_symmetric(a))
    order = np.argsort(w)[::-1]
    w, u = w[order], u[:, order]
    if w[-1] <= 0.0:
        raise NotPD("matrix is not positive definite")
    return (u / np.sqrt(w)) @ u.T


def psd_sandwich_check(s1: np.ndarray, s2: np.ndarray, gamma: float) -> bool:
    """Check ``(1-gamma) s1 <= s2 <= s1 / (1-gamma)`` in the PSD order.

    Both matrices must be symmetric positive definite and gamma in [0, 1).
    Conjugating by s1^{-1/2} reduces the check to eigenvalue bounds
    ``1-gamma <= eig <= 1/(1-gamma)`` up to an absolute slack of 1e-9.
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
    return bool(w[0] >= (1.0 - gamma) - 1e-9 and w[-1] <= 1.0 / (1.0 - gamma) + 1e-9)


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
