import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from dpgs.divergences import (
    Density1D,
    ProjectedSphereDensity,
    hockey_stick_1d,
    hs_discrete,
    t_density_log_pdf,
    tv_histogram,
    weak_triangle_check,
)
from dpgs.exceptions import (
    DimensionMismatch,
    NotPD,
    NotSymmetric,
    PreconditionViolated,
    QuadratureFailure,
    SupportMismatch,
)
from dpgs.randomness import RngStream, sphere_batch

from densities import gaussian_1d, mass, scaled_sphere_projection, uniform_1d


def gauss_hs_analytic(mu: float, eps: float) -> float:
    # hockey-stick of order e^eps between N(0,1) and N(mu,1)
    return stats.norm.cdf(mu / 2 - eps / mu) - math.exp(eps) * stats.norm.cdf(
        -mu / 2 - eps / mu
    )


def test_density_mass_normalization():
    assert mass(gaussian_1d(0.0, 1.0)) == pytest.approx(1.0, abs=1e-8)
    assert mass(gaussian_1d(-3.0, 0.2)) == pytest.approx(1.0, abs=1e-8)
    assert mass(uniform_1d(2.0, 5.0)) == pytest.approx(1.0, abs=1e-10)
    assert mass(scaled_sphere_projection(20, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-8)


def test_density_requires_bulk_when_unbounded():
    with pytest.raises(PreconditionViolated):
        Density1D(lambda x: -x * x, (-math.inf, math.inf))


def test_sphere_projection_dim3_is_uniform():
    # first coordinate of a uniform point on S^2 has constant density 1/2
    dens = ProjectedSphereDensity(3, 1)
    for t in (-0.9, -0.3, 0.0, 0.5):
        assert dens.log_pdf_sq(t * t) == pytest.approx(math.log(0.5), abs=1e-12)
    assert dens.log_pdf_sq(1.5 * 1.5) == -math.inf


def test_tv_of_shifted_gaussians():
    p = gaussian_1d(0.0, 1.0)
    q = gaussian_1d(2.0, 1.0)
    val = hockey_stick_1d(p, q, 0.0)
    assert val == pytest.approx(0.6826894921370859, abs=1e-7)


def test_tv_of_nested_uniforms():
    val = hockey_stick_1d(uniform_1d(0.0, 1.0), uniform_1d(0.0, 2.0), 0.0)
    assert val == pytest.approx(0.5, abs=1e-10)


def test_hs_uniform_positive_eps():
    val = hockey_stick_1d(uniform_1d(0.0, 1.0), uniform_1d(0.0, 2.0), 0.3)
    assert val == pytest.approx(1.0 - 0.5 * math.exp(0.3), abs=1e-10)
    # at eps = ln 2 the rescaled wide uniform exactly covers the narrow one
    assert hockey_stick_1d(uniform_1d(0.0, 1.0), uniform_1d(0.0, 2.0), math.log(2.0)) == 0.0


def test_hs_gaussian_matches_analytic_curve():
    for mu, eps in [(2.0, 0.5), (1.0, 0.3), (0.5, 0.0), (3.0, 1.0)]:
        p = gaussian_1d(0.0, 1.0)
        q = gaussian_1d(mu, 1.0)
        want = gauss_hs_analytic(mu, eps) if mu > 0 else None
        got = hockey_stick_1d(p, q, eps)
        assert got == pytest.approx(want, abs=1e-7)


def test_hs_same_density_is_zero():
    p = gaussian_1d(1.0, 2.0)
    assert hockey_stick_1d(p, gaussian_1d(1.0, 2.0), 0.0) == pytest.approx(0.0, abs=1e-9)
    assert hockey_stick_1d(p, gaussian_1d(1.0, 2.0), 0.2) == 0.0


def test_hs_forms_agree():
    rng = np.random.default_rng(41)
    for _ in range(8):
        p = gaussian_1d(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
        q = gaussian_1d(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
        eps = rng.uniform(0.0, 1.0)
        a = hockey_stick_1d(p, q, eps, form="abs")
        b = hockey_stick_1d(p, q, eps, form="max")
        assert abs(a - b) <= 1e-10


def test_hs_affine_reparam_invariance():
    # mapping x -> 2x - 3 on both densities leaves the divergence unchanged
    eps = 0.4
    direct = hockey_stick_1d(gaussian_1d(0.0, 1.0), gaussian_1d(2.0, 1.0), eps)
    mapped = hockey_stick_1d(gaussian_1d(-3.0, 2.0), gaussian_1d(1.0, 2.0), eps)
    assert direct == pytest.approx(mapped, abs=1e-8)
    assert direct == pytest.approx(gauss_hs_analytic(2.0, eps), abs=1e-8)


def _quad(f, a, b):
    return integrate.quad(
        lambda v: float(f(np.array([v]))[0]), a, b, epsabs=1e-14, epsrel=1e-12, limit=500
    )[0]


def quad_reference_hs(p, q, eps):
    """Both hockey-stick forms by scipy quad: crossings from a 200,001-point
    scan refined by brentq (the jumps at support ends are no crossings),
    100 extra breakpoints, and the tails to +-inf."""
    ratio = math.exp(eps)

    def h(x):
        return p.pdf(x) - ratio * q.pdf(x)

    lo, hi = min(p.window()[0], q.window()[0]), max(p.window()[1], q.window()[1])
    xs = np.linspace(lo, hi, 200_001)
    sign = np.sign(h(xs))
    ends = [e for dens in (p, q) for e in dens.support if lo < e < hi]
    roots = [
        optimize.brentq(lambda v: float(h(np.array([v]))[0]), xs[j], xs[j + 1], xtol=1e-15)
        for j in np.flatnonzero(sign[:-1] * sign[1:] < 0)
        if not any(xs[j] <= e <= xs[j + 1] for e in ends)
    ]
    pts = sorted({lo, hi, *ends, *roots, *np.linspace(lo, hi, 101)})
    vals = [_quad(h, a, b) for a, b in zip(pts[:-1], pts[1:])]
    if math.isinf(p.support[0]) or math.isinf(q.support[0]):
        vals.append(_quad(h, -np.inf, lo))
    if math.isinf(p.support[1]) or math.isinf(q.support[1]):
        vals.append(_quad(h, hi, np.inf))
    vals = np.array(vals)
    return vals[vals > 0].sum(), 0.5 * np.abs(vals).sum() - 0.5 * (ratio - 1.0)


REFERENCE_PANEL = {
    "narrow-vs-wide-gauss": (gaussian_1d(0.0, 0.01), gaussian_1d(0.0, 5.0)),
    "wide-vs-narrow-gauss": (gaussian_1d(0.3, 5.0), gaussian_1d(0.0, 0.01)),
    "gauss-vs-uniform": (gaussian_1d(0.0, 1.0), uniform_1d(-2.0, 2.0)),
    # n = 4 has a square-root edge at both ends of the support
    **{
        f"sphere-{n}": (
            scaled_sphere_projection(n, 0.0, 1.0),
            scaled_sphere_projection(n, 0.5 / math.sqrt(n), 1.1),
        )
        for n in (4, 20, 319, 12_760)
    },
}


@pytest.mark.parametrize("name", REFERENCE_PANEL)
def test_integrator_matches_scipy_quad_reference(name):
    p, q = REFERENCE_PANEL[name]
    for eps in (0.0, 0.5):
        want_max, want_abs = quad_reference_hs(p, q, eps)
        assert hockey_stick_1d(p, q, eps, form="max") == pytest.approx(want_max, abs=1e-10)
        assert hockey_stick_1d(p, q, eps, form="abs") == pytest.approx(want_abs, abs=1e-10)
    for dens in (p, q):
        lo, hi = dens.support
        mid = 0.0 if math.isinf(lo) else 0.5 * (lo + hi)
        want = _quad(dens.pdf, lo, mid) + _quad(dens.pdf, mid, hi)
        assert mass(dens) == pytest.approx(want, abs=1e-10)


def test_narrow_density_between_scan_points_is_resolved():
    # the narrow bulk lies between two points of a scan over the wide one
    p, q = gaussian_1d(0.3, 5.0), gaussian_1d(0.01, 0.001)
    want_max, want_abs = quad_reference_hs(p, q, 0.0)
    assert hockey_stick_1d(p, q, 0.0, form="max") == pytest.approx(want_max, abs=1e-10)
    assert hockey_stick_1d(p, q, 0.0, form="abs") == pytest.approx(want_abs, abs=1e-10)


def test_unresolvable_spike_raises_quadrature_failure():
    # (1 - a)/2 |x|^-a on [-1, 1] has mass 1, but at a = 0.99 its mass near 0
    # shrinks too slowly under halving for any panel to converge
    a = 0.99
    spike = Density1D(lambda x: math.log((1.0 - a) / 2.0) - a * np.log(np.abs(x)), (-1.0, 1.0))
    with np.errstate(divide="ignore"):  # the scan grid holds x = 0
        with pytest.raises(QuadratureFailure):
            mass(spike)
        with pytest.raises(QuadratureFailure):
            hockey_stick_1d(spike, uniform_1d(-1.0, 1.0), 0.0)
        with pytest.raises(QuadratureFailure):
            hockey_stick_1d(uniform_1d(-1.0, 1.0), spike, 0.3, form="max")


def random_prob(rng, size):
    v = rng.dirichlet(np.ones(size))
    return v


def test_hs_discrete_matches_tv():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.3, 0.5])
    assert hs_discrete(p, q, 0.0) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(SupportMismatch):
        hs_discrete(p, np.array([0.5, 0.5]), 0.0)
    with pytest.raises(PreconditionViolated):
        hs_discrete(np.array([0.5, 0.4]), np.array([0.5, 0.5]), 0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.1])
def test_an_eps_that_is_not_finite_and_nonnegative_is_refused_before_any_work(eps):
    def unread(x):
        raise AssertionError("the density was read")

    dens = Density1D(unread, (0.0, 1.0))
    with pytest.raises(PreconditionViolated, match="eps must be finite and >= 0"):
        hockey_stick_1d(dens, dens, eps)
    with pytest.raises(PreconditionViolated, match="eps must be finite and >= 0"):
        hs_discrete([0.5, 0.5], [0.5, 0.5], eps)


def test_hs_discrete_joint_convexity():
    rng = np.random.default_rng(42)
    for _ in range(200):
        lam = rng.uniform()
        eps = rng.uniform(0.0, 1.0)
        p1, p2 = random_prob(rng, 6), random_prob(rng, 6)
        q1, q2 = random_prob(rng, 6), random_prob(rng, 6)
        mixed = hs_discrete(lam * p1 + (1 - lam) * p2, lam * q1 + (1 - lam) * q2, eps)
        split = lam * hs_discrete(p1, q1, eps) + (1 - lam) * hs_discrete(p2, q2, eps)
        assert mixed <= split + 1e-12


def test_hs_discrete_data_processing():
    # merging adjacent bins can only shrink the divergence
    rng = np.random.default_rng(43)
    for _ in range(200):
        eps = rng.uniform(0.0, 0.8)
        p = random_prob(rng, 8)
        q = random_prob(rng, 8)
        fine = hs_discrete(p, q, eps)
        coarse = hs_discrete(p.reshape(4, 2).sum(1), q.reshape(4, 2).sum(1), eps)
        assert coarse <= fine + 1e-12


def test_weak_triangle_on_random_triples():
    rng = np.random.default_rng(44)
    for _ in range(300):
        p, q, r = (random_prob(rng, 5) for _ in range(3))
        e1, e2 = rng.uniform(0.0, 0.7, size=2)
        assert weak_triangle_check(p, q, r, e1, e2)


# The projected-sphere log ratios the audit grids read, written out as
# independent closed forms: sq_a and sq_b are the squared norms at which
# the two laws are read, and every point must lie inside the unit ball.
def _closed_form(const, sq_a, sq_b, n2, d):
    return const + 0.5 * (n2 - d - 2) * (math.log1p(-sq_a) - math.log1p(-sq_b))


def scaled_projection_ref(t, ratio, n2):
    # the first sphere coordinate against its rescaling by ratio
    return _closed_form(math.log(ratio), t * t, (t / ratio) ** 2, n2, 1)


def linear_image_ref(t, m, n2):
    # a d-dim projection against its image under L, L L^T = M^{-1}
    return _closed_form(-0.5 * math.log(np.linalg.det(m)), t @ t, t @ m @ t, n2, t.size)


def shift_ref(t, ell, n2):
    # a d-dim projection at t against the same law at t - ell
    return _closed_form(0.0, t @ t, (t - ell) @ (t - ell), n2, t.size)


def scaled_ratio(t, ratio, n2):
    one = np.array([t])
    return t_density_log_pdf(one, np.eye(1), n2) - t_density_log_pdf(one, np.eye(1) / ratio**2, n2)


def image_ratio(t, m, n2):
    return t_density_log_pdf(t, np.eye(m.shape[0]), n2) - t_density_log_pdf(t, m, n2)


def shift_ratio(t, ell, n2):
    eye = np.eye(np.shape(t)[-1])
    return t_density_log_pdf(t, eye, n2) - t_density_log_pdf(t - ell, eye, n2)


def random_spd(gen, d, lo=0.6, hi=1.6):
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    m = (q * gen.uniform(lo, hi, size=d)) @ q.T
    return 0.5 * (m + m.T)


def test_scaled_projection_value():
    assert scaled_ratio(0.5, 1.1, 5) == pytest.approx(0.039070461481448854, rel=1e-12)
    assert scaled_ratio(0.0, 1.1, 5) == pytest.approx(math.log(1.1))
    # t outside the ball, t / ratio inside: the numerator law is zero there
    assert scaled_ratio(1.05, 1.1, 5) == -math.inf


def test_scaled_projection_consistency_with_densities():
    # p_T(t) = p_z(t/r)/r, so log(p_z(t)/p_T(t)) = log p_z(t) - log p_z(t/r) + log r
    n2, r, t = 9, 1.07, 0.4
    dens = ProjectedSphereDensity(n2, 1)
    want = float(dens.log_pdf_sq(t * t)) - float(dens.log_pdf_sq((t / r) ** 2)) + math.log(r)
    assert scaled_ratio(t, r, n2) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_log_ratios_match_their_closed_forms(d):
    gen = np.random.default_rng(600 + d)
    for n2 in (d + 1, d + 3, 40, 12_760):
        m = random_spd(gen, d)
        for _ in range(20):
            # inside the ball under both laws of each ratio
            t = sphere_batch(gen, d, 1)[0] * gen.uniform(0.0, 0.55)
            ell = sphere_batch(gen, d, 1)[0] * gen.uniform(0.0, 0.3)
            assert image_ratio(t, m, n2) == pytest.approx(
                linear_image_ref(t, m, n2), rel=1e-12, abs=1e-12
            )
            assert shift_ratio(t, ell, n2) == pytest.approx(
                shift_ref(t, ell, n2), rel=1e-12, abs=1e-12
            )
            if d == 1:
                r = gen.uniform(0.8, 1.25)
                assert scaled_ratio(t[0], r, n2) == pytest.approx(
                    scaled_projection_ref(t[0], r, n2), rel=1e-12, abs=1e-12
                )


def test_t_density_reduces_to_scaled_projection():
    for t, mval, n2 in [(0.3, 0.7, 8), (-0.5, 1.4, 20), (0.1, 0.25, 6)]:
        got = image_ratio(np.array([t]), np.array([[mval]]), n2)
        want = scaled_projection_ref(t, 1.0 / math.sqrt(mval), n2)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_t_density_out_of_support():
    assert t_density_log_pdf(np.array([0.8, 0.7]), np.eye(2), 10) == -math.inf
    # a NaN point is no point of the law, not a point outside its support
    assert math.isnan(t_density_log_pdf(np.array([math.nan, 0.1]), np.eye(2), 10))
    # batched, on the boundary and far outside, at exponents of both signs:
    # -inf everywhere and no RuntimeWarning from the logarithm
    pts = np.array([[0.8, 0.7], [1.0, 0.0], [0.0, -1.0], [3e5, 1e3], [-1e150, 2e150]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n2 in (3, 4, 10):
            assert np.all(t_density_log_pdf(pts, np.eye(2), n2) == -math.inf)
            assert np.all(t_density_log_pdf(pts, np.diag([2.0, 1.5]), n2) == -math.inf)


def test_log_ratios_share_the_law_domain_n2_above_d():
    # ProjectedSphereDensity(n2, d) needs n2 > d; the law and each log
    # ratio read off it refuse n2 = d and accept n2 = d + 1
    t2 = np.array([0.3, -0.2])
    for d, log_ratio in (
        (1, lambda n2: scaled_ratio(0.3, 1.1, n2)),
        (2, lambda n2: image_ratio(t2, 1.2 * np.eye(2), n2)),
        (2, lambda n2: shift_ratio(t2, np.array([0.05, 0.0]), n2)),
        (3, lambda n2: t_density_log_pdf(np.full(3, 0.2), np.eye(3), n2)),
        (5, lambda n2: t_density_log_pdf(np.full(5, 0.2), np.eye(5), n2)),
    ):
        assert math.isfinite(log_ratio(d + 1))
        with pytest.raises(PreconditionViolated):
            log_ratio(d)


def test_t_density_batched_matches_pointwise():
    gen = np.random.default_rng(46)
    m = random_spd(gen, 3)
    # radii up to 1.3 put about a third of the points outside the ball
    pts = sphere_batch(gen, 3, 200) * gen.uniform(0.0, 1.3, size=(200, 1))
    batched = t_density_log_pdf(pts.reshape(4, 50, 3), m, 30)
    assert batched.shape == (4, 50)
    single = np.array([t_density_log_pdf(t, m, 30) for t in pts]).reshape(4, 50)
    outside = single == -math.inf
    assert 0 < outside.sum() < outside.size
    np.testing.assert_array_equal(batched == -math.inf, outside)
    np.testing.assert_allclose(batched[~outside], single[~outside], rtol=1e-12, atol=0.0)


def test_t_density_checks_its_matrix_and_points():
    with pytest.raises(DimensionMismatch):
        t_density_log_pdf(np.zeros((4, 3)), np.eye(2), 10)
    with pytest.raises(DimensionMismatch):
        t_density_log_pdf(np.float64(0.1), np.eye(1), 10)
    with pytest.raises(NotPD):
        t_density_log_pdf(np.zeros(2), np.diag([1.0, -1.0]), 10)
    with pytest.raises(NotSymmetric):
        t_density_log_pdf(np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]), 10)


def test_t_density_pdf_normalizes():
    # Monte Carlo box integration of the mapped projection density, d = 2
    theta = 0.3
    u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    m = u.T @ np.diag([1.5, 0.8]) @ u
    n2 = 12
    rng = np.random.default_rng(45)
    box = 1.2
    pts = rng.uniform(-box, box, size=(400_000, 2))
    est = np.exp(t_density_log_pdf(pts, m, n2)).mean() * (2 * box) ** 2
    assert est == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_t_density_matches_the_samplers_draws(d):
    # The sampler's release noise: y = L z[:d], z uniform on S^{n2-1} from
    # sphere_batch, L L^T = M1^{-1}. If f(.; M1) is the law of y, the
    # importance weights f(y; M2) / f(y; M1) average to 1; M2 >= M1 keeps
    # the support of f(.; M2) inside that of f(.; M1).
    n2, count = 20, 100_000
    gen = RngStream(47, d).generator()
    m1 = random_spd(gen, d)
    m2 = m1 + random_spd(gen, d, 0.0, 0.8)
    chol = np.linalg.cholesky(np.linalg.inv(m1))
    y = sphere_batch(gen, n2, count)[:, :d] @ chol.T
    w = np.exp(t_density_log_pdf(y, m2, n2) - t_density_log_pdf(y, m1, n2))
    se = w.std(ddof=1) / math.sqrt(count)
    assert se > 1e-4  # the two laws differ enough for the test to see
    assert abs(w.mean() - 1.0) <= 5.0 * se


def test_shift_log_ratio_properties():
    t = np.array([0.2, -0.1])
    zero = np.zeros(2)
    assert shift_ratio(t, zero, 10) == 0.0
    ell = np.array([0.05, 0.02])
    fwd = shift_ratio(t, ell, 10)
    bwd = shift_ratio(t - ell, -ell, 10)
    assert fwd == pytest.approx(-bwd, rel=1e-12)
    # t outside the ball, t - ell inside
    assert shift_ratio(np.array([1.2]), np.array([0.5]), 10) == -math.inf


def test_tv_histogram_identical_samples():
    x = np.random.default_rng(46).standard_normal(5000)
    est = tv_histogram(x, x, rng=RngStream(1))
    assert est.raw_tv == 0.0
    assert est.tv == 0.0


def test_tv_histogram_null_within_noise():
    gen = np.random.default_rng(47)
    a = gen.standard_normal(50_000)
    b = gen.standard_normal(50_000)
    est = tv_histogram(a, b, rng=RngStream(2))
    assert est.tv <= 3.0 * est.boot_sigma
    assert est.null_bias > 0.0
    assert est.bins_per_axis == 37


def test_tv_histogram_recovers_gaussian_shift():
    gen = np.random.default_rng(48)
    a = gen.standard_normal(50_000)
    b = gen.standard_normal(50_000) + 2.0
    est = tv_histogram(a, b, rng=RngStream(3))
    assert est.tv == pytest.approx(0.6826894921370859, abs=0.03)


def test_tv_histogram_rejects_2d_samples():
    gen = np.random.default_rng(49)
    for shape in ((500, 1), (500, 4)):
        a = gen.standard_normal(shape)
        with pytest.raises(DimensionMismatch):
            tv_histogram(a, a, rng=RngStream(4))
        with pytest.raises(DimensionMismatch):
            tv_histogram(a[:, 0], a, rng=RngStream(4))
