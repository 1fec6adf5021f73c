import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgs.exceptions import DimensionMismatch, NotPD, NotSymmetric
from dpgs.linalg import (
    check_symmetric,
    inverse_tracenorm_gap,
    mahalanobis_sq,
    matrix_norms,
    psd_sandwich_check,
    spectral_decomp,
    sym_inv_sqrt,
    sym_sqrt,
)


def random_symmetric(rng, d):
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2.0


def random_spd(rng, d, jitter=0.5):
    a = rng.standard_normal((d, d))
    return a @ a.T + jitter * np.eye(d)


def test_spectral_decomp_reconstructs():
    rng = np.random.default_rng(7)
    for d in (1, 2, 5, 17, 50):
        a = random_symmetric(rng, d)
        dec = spectral_decomp(a)
        u, w = dec.eigenvectors, dec.eigenvalues
        assert np.all(np.diff(w) <= 0)  # descending
        assert np.allclose(u @ np.diag(w) @ u.T, a, atol=1e-10 * max(1.0, np.abs(a).max()))
        assert np.allclose(u.T @ u, np.eye(d), atol=1e-12)


def test_spectral_decomp_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        spectral_decomp(np.array([[0.0, 1.0], [0.0, 0.0]]))


def tolerance_verdict(a, rtol=1e-9):
    """check_symmetric's tolerance test alone, without its exact-equality
    shortcut: entries within rtol times the largest |entry| of the transpose."""
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    return bool(np.allclose(a, a.T, atol=rtol * max(scale, 1e-300), rtol=0.0))


def reference_verdict(a):
    """The tolerance test, where a non-finite entry is allowed only in an
    exactly symmetric matrix (an infinite yardstick accepts every pair)."""
    return tolerance_verdict(a) and (bool(np.all(np.isfinite(a))) or np.array_equal(a, a.T))


def is_symmetric(a):
    try:
        check_symmetric(a)
    except NotSymmetric:
        return False
    return True


NAN, INF = np.nan, np.inf


# allclose warns when the yardstick is infinite; the verdict is still defined
inf_yardstick = pytest.mark.filterwarnings("ignore:One of rtol or atol:RuntimeWarning")


@inf_yardstick
@pytest.mark.parametrize(
    "a, want",
    [
        ([[NAN, 0.0], [0.0, 1.0]], False),  # NaN on the diagonal
        ([[1.0, NAN], [NAN, 1.0]], False),  # NaN placed symmetrically
        ([[INF, -INF], [-INF, 1.0]], True),  # symmetric infinities
        ([[1.0, 1.0 + 1e-12], [1.0, 1.0]], True),  # within the tolerance
        ([[1e6, 1e6 + 1e-4], [1e6, 1e6]], True),  # tolerance scales with the entries
        ([[1.0, 1.0 + 1e-6], [1.0, 1.0]], False),  # beyond it
        ([[2.0]], True),
        (np.zeros((0, 0)), True),
    ],
)
def test_check_symmetric_verdicts(a, want):
    a = np.asarray(a, dtype=float)
    assert is_symmetric(a) is want
    assert tolerance_verdict(a) is want


def test_check_symmetric_rejects_non_square():
    with pytest.raises(NotSymmetric):
        check_symmetric(np.zeros((2, 3)))


@inf_yardstick
def test_check_symmetric_shortcut_keeps_the_tolerance_verdict():
    rng = np.random.default_rng(31)
    for trial in range(400):
        d = int(rng.integers(1, 6))
        a = random_symmetric(rng, d) * 10.0 ** rng.integers(-100, 100)
        i, j = rng.integers(0, d, size=2)
        kind = trial % 5
        if kind == 1:
            a[i, j] = a[j, i] = rng.choice([NAN, INF, -INF])
        elif kind == 2:
            a[i, j] *= 1.0 + rng.choice([1e-13, 1e-10, 1e-8, 1e-6])
        elif kind == 3:
            a[i, j] = rng.choice([NAN, INF])
        elif kind == 4:  # an infinity on the diagonal, an asymmetric pair beside it
            a[i, i] = rng.choice([INF, -INF])
            a[j, (j + 1) % d] *= 1.0 + rng.choice([0.0, 1e-13, 1e-6, 1.0])
        assert is_symmetric(a) is reference_verdict(a), (trial, a)
    w = rng.standard_normal((5, 40))
    assert np.array_equal(check_symmetric(w @ w.T), w @ w.T)


@pytest.mark.parametrize(
    "a",
    [
        [[INF, 1.0], [2.0, 0.0]],
        [[1.0, INF], [0.0, 1.0]],
        [[-INF, 0.0], [1e300, 5.0]],
        [[INF, 1.0], [1.0 + 1e-12, 0.0]],  # within the tolerance, but holds an inf
    ],
)
def test_check_symmetric_rejects_inexact_matrix_with_inf(a):
    with pytest.raises(NotSymmetric, match="non-finite"):
        check_symmetric(np.asarray(a, dtype=float))


def test_matrix_norms_from_singular_values():
    # diag(3, -4) has singular values (4, 3)
    norms = matrix_norms(np.diag([3.0, -4.0]))
    assert norms.spectral == pytest.approx(4.0, abs=1e-12)
    assert norms.frobenius == pytest.approx(5.0, abs=1e-12)
    assert norms.trace_norm == pytest.approx(7.0, abs=1e-12)


def test_matrix_norms_inequalities():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.standard_normal((4, 6))
        norms = matrix_norms(a)
        assert norms.spectral <= norms.frobenius + 1e-12
        assert norms.frobenius <= norms.trace_norm + 1e-12


def test_mahalanobis_identity_is_sq_norm():
    v = np.array([3.0, 4.0])
    assert mahalanobis_sq(v, np.eye(2)) == pytest.approx(25.0, abs=1e-12)


def test_mahalanobis_diagonal():
    v = np.array([2.0, 1.0])
    assert mahalanobis_sq(v, np.diag([4.0, 1.0])) == pytest.approx(2.0, abs=1e-12)


def test_mahalanobis_zero_matrix_conventions():
    # distance to a point outside the range of a singular matrix is +inf
    assert mahalanobis_sq(np.array([1.0]), np.array([[0.0]])) == np.inf
    # the zero vector is inside every range
    assert mahalanobis_sq(np.zeros(3), np.zeros((3, 3))) == 0.0


def test_mahalanobis_rank_deficient_range():
    sigma = np.diag([1.0, 0.0])
    assert mahalanobis_sq(np.array([1.0, 0.0]), sigma) == pytest.approx(1.0, abs=1e-12)
    assert mahalanobis_sq(np.array([0.0, 1.0]), sigma) == np.inf
    assert mahalanobis_sq(np.array([2.0, 1e-3]), sigma) == np.inf


def test_mahalanobis_matches_solve_on_pd():
    rng = np.random.default_rng(10)
    for _ in range(25):
        d = rng.integers(1, 6)
        sigma = random_spd(rng, int(d))
        v = rng.standard_normal(int(d))
        want = float(v @ np.linalg.solve(sigma, v))
        assert mahalanobis_sq(v, sigma) == pytest.approx(want, rel=1e-9)


def test_mahalanobis_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mahalanobis_sq(np.array([1.0, 2.0]), np.eye(3))


def test_sym_sqrt_roundtrip():
    rng = np.random.default_rng(11)
    a = random_spd(rng, 5)
    root = sym_sqrt(a)
    assert np.allclose(root @ root, a, atol=1e-9)
    inv_root = sym_inv_sqrt(a)
    assert np.allclose(inv_root @ a @ inv_root, np.eye(5), atol=1e-8)


def test_sym_sqrt_of_zero_is_zero():
    assert np.all(sym_sqrt(np.zeros((3, 3))) == 0.0)


def test_sym_inv_sqrt_rejects_singular():
    with pytest.raises(NotPD):
        sym_inv_sqrt(np.diag([1.0, 0.0]))


def test_sandwich_check_equal_matrices():
    rng = np.random.default_rng(12)
    s = random_spd(rng, 4)
    assert psd_sandwich_check(s, s, 0.0)
    assert psd_sandwich_check(s, s, 0.3)


def test_sandwich_check_boundary_and_violation():
    rng = np.random.default_rng(13)
    s = random_spd(rng, 3)
    gamma = 0.2
    assert psd_sandwich_check(s, (1.0 - gamma) * s, gamma)
    assert psd_sandwich_check(s, s / (1.0 - gamma), gamma)
    assert not psd_sandwich_check(s, (1.0 - 2.5 * gamma) * s, gamma)
    assert not psd_sandwich_check(s, s / (1.0 - 2.5 * gamma), gamma)


def test_inverse_tracenorm_gap_diagonal():
    a = np.diag([1.3, 1.1])
    fwd, inv = inverse_tracenorm_gap(a)
    assert fwd == pytest.approx(0.4, abs=1e-12)
    assert inv == pytest.approx(0.3 / 1.3 + 0.1 / 1.1, abs=1e-12)


def test_inverse_tracenorm_gap_requires_dominating_identity():
    with pytest.raises(NotPD):
        inverse_tracenorm_gap(np.diag([2.0, 0.5]))


@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_inverse_gap_never_exceeds_forward_gap(excesses):
    # for a >= I the trace norm of I - a^{-1} is at most that of a - I
    a = np.diag(1.0 + np.asarray(excesses))
    fwd, inv = inverse_tracenorm_gap(a)
    assert inv <= fwd + 1e-12
