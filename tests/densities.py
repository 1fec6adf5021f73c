"""Closed-form one-dimensional densities for the divergence tests, and the
quadrature mass of any Density1D."""

import math

import numpy as np

from dpgs.divergences import Density1D, ProjectedSphereDensity, _integrate, _scan_grid


def gaussian_1d(mu: float, sigma: float) -> Density1D:
    """N(mu, sigma^2) with a 14-sigma bulk."""
    const = -0.5 * math.log(2.0 * math.pi) - math.log(sigma)

    def log_pdf(x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - mu) / sigma
        return const - 0.5 * z * z

    return Density1D(log_pdf, (-math.inf, math.inf), (mu - 14.0 * sigma, mu + 14.0 * sigma))


def uniform_1d(a: float, b: float) -> Density1D:
    level = -math.log(b - a)
    return Density1D(lambda x: np.full(np.asarray(x, dtype=float).shape, level), (a, b))


def scaled_sphere_projection(n: int, shift: float, scale: float) -> Density1D:
    """The law of shift + scale * z1, z1 the first coordinate of a uniform
    point on S^{n-1}."""
    base = ProjectedSphereDensity(n, 1)

    def log_pdf(x: np.ndarray) -> np.ndarray:
        u = (np.asarray(x) - shift) / scale
        return base.log_pdf_sq(u * u) - math.log(scale)

    return Density1D(log_pdf, (shift - scale, shift + scale))


def mass(dens: Density1D) -> float:
    """Quadrature of dens over its window, with hockey_stick_1d's integrator;
    raises QuadratureFailure when the error bound exceeds 1e-8."""
    return float(_integrate(dens.pdf, _scan_grid((dens,))).sum())
