import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy import stats
from scipy.integrate import quad

from jumpvol import (
    ConfigurationError,
    DegenerateDataError,
    DegenerateInferenceError,
    InsufficientDataError,
    KAPPA_FLOOR,
    DiffusionSpec,
    GibbsPosterior,
    Inference,
    InverseGammaParams,
    JumpSpec,
    NormalApprox,
    NumericError,
    QvEstimate,
    SamplePath,
    ThresholdRule,
    bvm_normal,
    compute_kappa,
    compute_mle,
    credible_interval,
    derive_seed,
    estimate_jump_qv,
    gibbs_update,
    infer_increments,
    mle_from_increments,
    modify_posterior,
    simulate_path,
    tempered_update,
)
from jumpvol.diagnostics import _TV_LADDER, _gauss_legendre
from jumpvol.errors import JumpvolError
from jumpvol.posterior import (
    _FLOAT_MAX,
    QUANTILE_TOL,
    TruncatedPosterior,
    _gammaincc_root,
    _infer_rows,
    _stirlerr,
)

DIFF = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
JUMPS = JumpSpec.two_point(5.0, 3.0)
PRIOR = InverseGammaParams(1.0, 1.0)


def _qv(jump_qv_hat, eta=1.0, flagged=()):
    return QvEstimate(eta=eta, jump_qv_hat=jump_qv_hat, flagged=flagged)


def _path(increments, horizon=1.0):
    d = np.asarray(increments, dtype=float)
    return SamplePath(n=d.size, delta=horizon / d.size, increments=d)


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------

def test_mle_direct_formula():
    assert compute_mle(_path([1.0, 1.0, 1.0, 1.0])) == pytest.approx(4.0)
    assert compute_mle(_path([0.0, 0.0, 0.0])) == 0.0


@pytest.mark.parametrize(
    "increments, horizon, fragment",
    [
        ([1e200, 1.0], 1.0, "sum D_i^2 = inf, horizon = 1.0"),
        ([3.0, 4.0], 1e-320, "sum D_i^2 = 25.0, horizon = 1e-320"),
    ],
    ids=["sum", "horizon"],
)
def test_mle_refuses_an_overflow(increments, horizon, fragment):
    with pytest.raises(ConfigurationError) as err:
        mle_from_increments(increments, horizon)
    assert str(err.value) == f"theta_hat = sum D_i^2 / horizon overflows: {fragment}"


def test_mle_chi_square_moment():
    # beta=0, no jumps: theta_hat is theta* times a chi^2_n / n, so its mean
    # is exactly theta*
    diff = DiffusionSpec(beta=0.0, theta_star=10.0, horizon=1.0)
    nojumps = JumpSpec.two_point(0.0, 1.0)
    reps = 2000
    estimates = np.empty(reps)
    for rep in range(reps):
        path = simulate_path(diff, nojumps, n=5000, seed=derive_seed(31, 0, rep))
        estimates[rep] = compute_mle(path)
    stderr = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - 10.0) < 3.0 * stderr


# ---------------------------------------------------------------------------
# Temperature
# ---------------------------------------------------------------------------

def test_kappa_no_detected_jumps_is_one():
    assert compute_kappa(10.0, _qv(0.0), horizon=1.0) == 1.0


def test_kappa_direct_arithmetic():
    assert compute_kappa(10.0, _qv(5.0), horizon=1.0) == pytest.approx(0.25)


def test_kappa_degenerate_cases():
    with pytest.raises(DegenerateDataError):
        compute_kappa(0.0, _qv(0.0), horizon=1.0)
    with pytest.raises(DegenerateInferenceError):
        compute_kappa(10.0, _qv(10.0 * (1.0 - 1e-4)), horizon=1.0)


def test_kappa_tracks_conditional_limit():
    # mean kappa over seeds matches mean (theta*/theta_dagger)^2 from truth,
    # each mean taken at its own Monte Carlo resolution
    rule = ThresholdRule.iqr()
    reps = 1000
    kappas = np.empty(reps)
    limits = np.empty(reps)
    for rep in range(reps):
        path = simulate_path(DIFF, JUMPS, n=5000, seed=derive_seed(33, 0, rep))
        qv = estimate_jump_qv(path.increments, rule.resolve(path.increments))
        kappas[rep] = compute_kappa(compute_mle(path), qv, path.horizon)
        dagger = DIFF.theta_star + path.truth.jump_qv / path.horizon
        limits[rep] = (DIFF.theta_star / dagger) ** 2
    assert np.all(kappas > 0.0) and np.all(kappas <= 1.0)
    stderr = max(kappas.std(ddof=1), limits.std(ddof=1)) / math.sqrt(reps)
    assert abs(kappas.mean() - limits.mean()) < 2.0 * stderr


def test_shifted_center_is_consistent():
    # over 1000 seeds the shifted center sits on theta* and its RMSE matches
    # the efficiency-benchmark scale sqrt(2 theta*^2 / n) within 50%
    rule = ThresholdRule.iqr()
    reps, n = 1000, 5000
    centers = np.empty(reps)
    for rep in range(reps):
        path = simulate_path(DIFF, JUMPS, n=n, seed=derive_seed(34, 0, rep))
        qv = estimate_jump_qv(path.increments, rule.resolve(path.increments))
        centers[rep] = compute_mle(path) - qv.jump_qv_hat / path.horizon
    assert 9.8 <= centers.mean() <= 10.2
    rmse = math.sqrt(np.mean((centers - DIFF.theta_star) ** 2))
    target = math.sqrt(2.0 * DIFF.theta_star**2 / n)
    assert abs(rmse - target) <= 0.5 * target


@pytest.mark.parametrize("cell, rate, tau", [(0, 16.0, 4.0), (1, 32.0, 8.0)])
def test_shifted_center_is_efficient_with_jumps(cell, rate, tau):
    # the paper's efficiency claim with jumps present: over 1000 seeds the
    # shifted center's variance lies within 15% of the no-jumps bound
    # 2 theta*^2 / n
    reps, n = 1000, 5000
    jumps = JumpSpec.two_point(rate, tau)
    centers = np.empty(reps)
    for rep in range(reps):
        path = simulate_path(DIFF, jumps, n=n, seed=derive_seed(2016, cell, rep))
        inf = infer_increments(path.increments, path.horizon, ThresholdRule.iqr(), PRIOR)
        centers[rep] = inf.theta_hat - inf.modified.shift
    bound = 2.0 * DIFF.theta_star**2 / n
    assert abs(centers.var(ddof=1) / bound - 1.0) <= 0.15


# ---------------------------------------------------------------------------
# Conjugate update
# ---------------------------------------------------------------------------

def test_update_conjugate_algebra():
    post = gibbs_update(PRIOR, _path([1.0, 1.0]), kappa=1.0)
    assert post.ig.shape == pytest.approx(2.0)
    assert post.ig.rate == pytest.approx(3.0)


def test_update_tempering_limit_returns_prior():
    post = tempered_update(PRIOR, n=100, theta_hat=5.0, kappa=1e12)
    assert post.ig.shape == pytest.approx(PRIOR.shape, rel=1e-9)
    assert post.ig.rate == pytest.approx(PRIOR.rate, rel=1e-9)


def test_update_rejects_bad_temperature():
    with pytest.raises(DegenerateInferenceError):
        tempered_update(PRIOR, n=10, theta_hat=1.0, kappa=1e-7)
    with pytest.raises(DegenerateInferenceError):
        tempered_update(PRIOR, n=10, theta_hat=1.0, kappa=math.inf)


@pytest.mark.parametrize(
    "prior, n, theta_hat, name",
    [
        (PRIOR, 50, 1e307, "rate"),
        (InverseGammaParams(_FLOAT_MAX, 1.0), 10**300, 1.0, "shape"),
    ],
    ids=["rate", "shape"],
)
def test_update_refuses_a_posterior_that_overflows(prior, n, theta_hat, name):
    with pytest.raises(ConfigurationError) as err:
        tempered_update(prior, n=n, theta_hat=theta_hat, kappa=1.0)
    assert str(err.value) == f"posterior {name} overflows to inf at theta_hat = {theta_hat}"


def _quadrature_moments(a, b, n, theta_hat, kappa):
    """Independent oracle: moments of L^(1/kappa) * prior by quadrature."""

    def logkern(t):
        like = (-n / (2.0 * kappa)) * math.log(t) - n * theta_hat / (2.0 * kappa * t)
        prior = (-a - 1.0) * math.log(t) - b / t
        return like + prior

    mode = (n * theta_hat / (2.0 * kappa) + b) / (n / (2.0 * kappa) + a + 1.0)
    scale = logkern(mode)

    def kern(t, k=0):
        return (t**k) * math.exp(logkern(t) - scale)

    lo = hi = mode
    while kern(hi) > 1e-18:
        hi *= 2.0
    while kern(lo) > 1e-18:
        lo *= 0.5
    z0 = quad(kern, lo, hi, limit=300, epsabs=1e-13, epsrel=1e-13)[0]
    z1 = quad(lambda t: kern(t, 1), lo, hi, limit=300, epsabs=1e-13, epsrel=1e-13)[0]
    z2 = quad(lambda t: kern(t, 2), lo, hi, limit=300, epsabs=1e-13, epsrel=1e-13)[0]
    mean = z1 / z0
    return mean, z2 / z0 - mean * mean


def test_update_matches_quadrature():
    rng = np.random.default_rng(101)
    for _ in range(25):
        a = rng.uniform(0.5, 5.0)
        b = rng.uniform(0.5, 5.0)
        kappa = rng.uniform(0.1, 1.5)
        n = int(rng.integers(5, 40))
        horizon = rng.uniform(0.5, 2.0)
        d = rng.normal(0.0, math.sqrt(rng.uniform(0.5, 4.0)), n)
        path = _path(d, horizon=horizon)
        post = gibbs_update(InverseGammaParams(a, b), path, kappa)
        mean_q, var_q = _quadrature_moments(a, b, n, compute_mle(path), kappa)
        assert post.mean == pytest.approx(mean_q, rel=1e-6)
        assert post.variance == pytest.approx(var_q, rel=1e-6)


def test_tempering_shrinks_posterior_variance():
    path = _path(np.full(40, 0.7))
    previous = math.inf
    for kappa in (1.0, 0.5, 0.25, 0.1):
        post = gibbs_update(PRIOR, path, kappa)
        assert post.variance < previous
        previous = post.variance


# ---------------------------------------------------------------------------
# Quantiles against an independent implementation
# ---------------------------------------------------------------------------

def test_quantiles_match_scipy():
    rng = np.random.default_rng(55)
    draws = [(10 ** rng.uniform(-0.3, 5.0), 10 ** rng.uniform(-1.0, 6.0)) for _ in range(30)]
    # shapes near n / (2 kappa) of a 1M-row infer
    for shape, rate in draws + [(5e5, 5e6), (1e6, 1e7)]:
        post = GibbsPosterior(ig=InverseGammaParams(shape, rate))
        frozen = stats.invgamma(shape, scale=rate)
        for q in (1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-6):
            assert post.ppf(q) == pytest.approx(frozen.ppf(q), rel=1e-7)


@pytest.mark.parametrize("q", [1e-6, 0.025, 0.975, 1.0 - 1e-6])
@pytest.mark.parametrize("shape", [3.5e7, 1e8, 2.4e8])
def test_quantile_mass_residual_at_large_shapes(shape, q):
    # shapes of n / (2 kappa) at n = 16000 with rate 16, tau 8: gammainccinv
    # alone misses the mass tolerance near q = 1 - 1e-6 there
    rate = 1.7e3 * shape
    post = GibbsPosterior(ig=InverseGammaParams(shape, rate))
    x = post.ppf(q)
    assert abs(sc.gammaincc(shape, rate / x) - q) <= QUANTILE_TOL
    closed_form = rate / sc.gammainccinv(shape, q)
    if abs(sc.gammaincc(shape, rate / closed_form) - q) <= QUANTILE_TOL:
        assert x == closed_form


def _scalar_invgamma_ppf(q: float, shape: float, rate: float) -> float:
    """The inverse-gamma quantile computed one level at a time, as it was
    before ``ppf`` took arrays."""
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"quantile level must lie in (0, 1), got {q}")
    y = float(sc.gammainccinv(shape, q))
    x = rate / y if y > 0.0 else math.inf
    residual = abs(float(sc.gammaincc(shape, rate / x)) - q)
    if not residual <= QUANTILE_TOL and 0.0 < y < math.inf:
        x = rate / _gammaincc_root(shape, q, y)
        residual = abs(float(sc.gammaincc(shape, rate / x)) - q)
    if not residual <= QUANTILE_TOL:
        raise NumericError(f"quantile out of tolerance at q={q}")
    return x


def _scalar_quantile(law, q: float) -> float:
    if isinstance(law, NormalApprox):
        return law.mean + law.sd * float(sc.ndtri(q))
    if isinstance(law, TruncatedPosterior):
        f0 = law.mass_below_zero
        return _scalar_quantile(law.source, f0 + q * (1.0 - f0))
    return _scalar_invgamma_ppf(q, law.ig.shape, law.ig.rate) - law.shift


@pytest.mark.parametrize("shape", [2.0, 50.0, 1e4, 3.5e7, 1e8, 2.4e8])
def test_array_quantiles_are_the_scalar_ones_bit_for_bit(shape):
    rate = 1.7e3 * shape
    ig = InverseGammaParams(shape, rate)
    mean = rate / (shape - 1.0)
    laws = [
        GibbsPosterior(ig),
        GibbsPosterior(ig, shift=0.5 * mean),
        GibbsPosterior(ig, shift=mean).truncated_positive(),
        NormalApprox(mean, 2.0 * mean**2 / shape),
    ]
    if shape >= 3.5e7:
        # the closed form misses the mass tolerance at some ladder level, so
        # the elementwise refinement runs
        closed = rate / sc.gammainccinv(shape, _TV_LADDER)
        assert np.any(np.abs(sc.gammaincc(shape, rate / closed) - _TV_LADDER) > QUANTILE_TOL)
    for law in laws:
        expected = np.array([_scalar_quantile(law, float(q)) for q in _TV_LADDER])
        assert law.ppf(_TV_LADDER).tobytes() == expected.tobytes()
        assert law.ppf(_TV_LADDER.reshape(5, 5)).tobytes() == expected.tobytes()
        for q, x in zip(_TV_LADDER[::6], expected[::6]):
            value = law.ppf(float(q))
            assert type(value) is float and value == x


_LAWS = {
    "normal": NormalApprox(0.0, 1.0),
    "gibbs": GibbsPosterior(InverseGammaParams(3.0, 2.0)),
    "shifted": GibbsPosterior(InverseGammaParams(3.0, 2.0), shift=1.0),
    "truncated": GibbsPosterior(InverseGammaParams(3.0, 2.0), shift=1.0).truncated_positive(),
}


@pytest.mark.parametrize("name", sorted(_LAWS))
@pytest.mark.parametrize(
    "levels, first_bad",
    [
        (1.5, "1.5"),
        (0.0, "0.0"),
        (1.0, "1.0"),
        (-0.1, "-0.1"),
        (math.nan, "nan"),
        ([0.5, -0.1, 2.0], "-0.1"),
        ([[0.2, 0.3], [1.0, -1.0]], "1.0"),
    ],
)
def test_ppf_names_the_first_level_outside_the_unit_interval(name, levels, first_bad):
    with pytest.raises(ConfigurationError, match=f"must lie in \\(0, 1\\), got {first_bad}$"):
        _LAWS[name].ppf(levels)


def test_truncated_quantile_of_a_negative_level_is_refused():
    # mapped onto the source's levels first, -0.1 would land on 0.645, and
    # the quantile of that is below zero
    truncated = _LAWS["truncated"]
    assert truncated.mass_below_zero == pytest.approx(0.677, abs=1e-3)
    with pytest.raises(ConfigurationError, match="got -0.1$"):
        truncated.ppf(-0.1)
    assert truncated.ppf(0.01) > 0.0


def test_pdf_of_a_float_is_the_array_value():
    post = tempered_update(PRIOR, n=40, theta_hat=12.0, kappa=0.4)
    modified = modify_posterior(post, _qv(3.0), horizon=1.0)
    densities = (post, modified, modified.truncated_positive(), NormalApprox(9.0, 2.5))
    for dist in densities:
        for x in (-4.0, -1e-3, 0.0, 5e-324, 1e-3, 2.5, 9.0, 14.0, 1e3):
            value = dist.pdf(x)
            assert type(value) is float
            assert value == dist.pdf(np.array([x]))[0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(log10_shape=st.floats(math.log10(5.0), math.log10(5e8)))
def test_density_integrates_to_one_at_large_shapes(log10_shape):
    # the TV rule's panels between the ladder quantiles hold 1 - 2e-14 of the
    # mass; a density with a shape-sized rounding error in its log misses
    # that by up to 1.6e-6 at these shapes
    shape = 10.0**log10_shape
    post = GibbsPosterior(ig=InverseGammaParams(shape, 10.0 * shape))
    knots = post.ppf(_TV_LADDER)
    nodes, weights = _gauss_legendre(knots[:-1], knots[1:])
    assert abs(post.pdf(nodes) @ weights - 1.0) <= 1e-9


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 5.0, 14.9, 15.0, 15.1, 100.0, 1e3, 1e4])
def test_density_matches_direct_form_at_moderate_shapes(shape):
    # up to shape 1e4 the direct log-density is itself accurate to ~6e-12
    rate = 10.0 * shape
    post = GibbsPosterior(ig=InverseGammaParams(shape, rate))
    x = np.array([post.ppf(p) for p in _TV_LADDER])
    direct = shape * math.log(rate) - sc.gammaln(shape) - (shape + 1.0) * np.log(x) - rate / x
    np.testing.assert_allclose(np.log(post.pdf(x)), direct, rtol=0.0, atol=1e-11)


def test_stirlerr_series_meets_direct_form_from_its_cutoff():
    for a in np.linspace(15.0, 40.0, 26):
        direct = math.lgamma(a) - (a - 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
        assert abs(_stirlerr(a) - direct) <= 2e-14


def test_cdf_matches_scipy():
    post = tempered_update(PRIOR, n=20, theta_hat=2.5, kappa=0.8)
    frozen = stats.invgamma(post.ig.shape, scale=post.ig.rate)
    grid = np.linspace(0.5, 9.0, 40)
    np.testing.assert_allclose(post.cdf(grid), frozen.cdf(grid), rtol=1e-10)
    np.testing.assert_allclose(post.pdf(grid), frozen.pdf(grid), rtol=1e-10)


# ---------------------------------------------------------------------------
# Shifted posterior
# ---------------------------------------------------------------------------

def test_zero_shift_is_identity():
    post = tempered_update(PRIOR, n=50, theta_hat=3.0, kappa=0.5)
    modified = modify_posterior(post, _qv(0.0), horizon=1.0)
    assert modified.shift == 0.0
    grid = np.linspace(0.5, 8.0, 50)
    np.testing.assert_array_equal(modified.pdf(grid), post.pdf(grid))
    assert modified.ppf(0.3) == post.ppf(0.3)


def test_shift_moves_density_exactly():
    post = tempered_update(PRIOR, n=50, theta_hat=13.0, kappa=0.3)
    modified = modify_posterior(post, _qv(4.0), horizon=1.0)
    rng = np.random.default_rng(9)
    for theta in rng.uniform(-3.5, 30.0, 100):
        assert modified.pdf(theta) == post.pdf(theta + 4.0)


def test_interval_width_independent_of_shift():
    post = tempered_update(PRIOR, n=200, theta_hat=12.0, kappa=0.4)
    widths = []
    for shift in (0.0, 1.0, 5.0):
        modified = modify_posterior(post, _qv(shift), horizon=1.0)
        widths.append(credible_interval(modified, 0.9).width)
    assert widths[0] == pytest.approx(widths[1], rel=1e-12)
    assert widths[0] == pytest.approx(widths[2], rel=1e-12)


def test_truncated_positive_renormalizes():
    post = tempered_update(PRIOR, n=6, theta_hat=1.0, kappa=1.0)
    modified = modify_posterior(post, _qv(1.5), horizon=1.0)
    assert modified.mass_below_zero > 0.01
    truncated = modified.truncated_positive()
    mass = quad(lambda x: truncated.pdf(x), 0.0, 100.0, limit=200)[0]
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert truncated.cdf(0.0) == 0.0
    q = truncated.ppf(0.25)
    assert truncated.cdf(q) == pytest.approx(0.25, abs=1e-9)
    assert q > 0.0


@pytest.mark.parametrize("shift", [1e7, 3e7, 1e8])
def test_truncation_refuses_mass_above_zero_within_the_quantile_tolerance(shift):
    # 1 - mass_below_zero is about 5e-15, 6e-16 and 0 here; at 3e7 the level
    # 0.975 maps onto 1.0 in the source's mass scale
    post = GibbsPosterior(ig=InverseGammaParams(2.0, 1.0), shift=shift)
    assert post.mass_below_zero > 1.0 - QUANTILE_TOL
    with pytest.raises(DegenerateInferenceError, match="mass_below_zero"):
        post.truncated_positive()


# ---------------------------------------------------------------------------
# Credible intervals
# ---------------------------------------------------------------------------

def test_interval_levels_and_degeneracy():
    post = tempered_update(PRIOR, n=100, theta_hat=4.0, kappa=1.0)
    modified = modify_posterior(post, _qv(1.0), horizon=1.0)
    tiny = credible_interval(modified, 1e-9)
    median = modified.ppf(0.5)
    assert tiny.lo == pytest.approx(median, rel=1e-6)
    assert tiny.hi == pytest.approx(median, rel=1e-6)
    with pytest.raises(ConfigurationError):
        credible_interval(modified, 0.0)
    with pytest.raises(ConfigurationError):
        credible_interval(modified, 1.0)


def test_interval_quantiles_match_oracle():
    post = GibbsPosterior(ig=InverseGammaParams(3.0, 2.0))
    modified = modify_posterior(post, _qv(0.0), horizon=1.0)
    interval = credible_interval(modified, 0.5)
    frozen = stats.invgamma(3.0, scale=2.0)
    assert interval.lo == pytest.approx(frozen.ppf(0.25), rel=1e-8)
    assert interval.hi == pytest.approx(frozen.ppf(0.75), rel=1e-8)


def test_interval_mass_at_solver_tolerance():
    post = tempered_update(PRIOR, n=5000, theta_hat=55.0, kappa=0.03)
    modified = modify_posterior(post, _qv(45.0), horizon=1.0)
    interval = credible_interval(modified, 0.95)
    mass = modified.cdf(interval.hi) - modified.cdf(interval.lo)
    assert abs(mass - 0.95) < 2e-9


def test_interval_matches_normal_limit_without_jumps():
    nojumps = JumpSpec.two_point(0.0, 1.0)
    path = simulate_path(DIFF, nojumps, n=5000, seed=77)
    qv = estimate_jump_qv(path.increments, ThresholdRule.iqr().resolve(path.increments))
    theta_hat = compute_mle(path)
    post = gibbs_update(PRIOR, path, compute_kappa(theta_hat, qv, path.horizon))
    interval = credible_interval(modify_posterior(post, qv, path.horizon), 0.95)
    half = 1.96 * math.sqrt(2.0 * theta_hat**2 / path.n)
    assert interval.lo == pytest.approx(theta_hat - half, rel=0.02)
    assert interval.hi == pytest.approx(theta_hat + half, rel=0.02)


# ---------------------------------------------------------------------------
# Normal approximation
# ---------------------------------------------------------------------------

def test_bvm_normal_plug_in():
    approx = bvm_normal(10.0, _qv(0.0), horizon=1.0, n=5000)
    assert approx.mean == 10.0
    assert approx.variance == pytest.approx(0.04)
    approx = bvm_normal(12.0, _qv(2.0), horizon=1.0, n=5000)
    assert approx.mean == pytest.approx(10.0)
    assert approx.variance == pytest.approx(0.04)


def test_bvm_normal_rejects_nonpositive_center():
    with pytest.raises(DegenerateInferenceError):
        bvm_normal(2.0, _qv(2.0), horizon=1.0, n=100)


def test_normal_approx_refuses_an_infinite_variance():
    with pytest.raises(ConfigurationError, match="positive and finite, got inf"):
        NormalApprox(mean=0.0, variance=math.inf)


def test_normal_approx_quantiles():
    approx = NormalApprox(mean=3.0, variance=4.0)
    assert approx.ppf(0.5) == pytest.approx(3.0)
    assert approx.cdf(3.0) == pytest.approx(0.5)
    assert approx.ppf(0.975) == pytest.approx(3.0 + 2.0 * stats.norm.ppf(0.975), rel=1e-12)


# ---------------------------------------------------------------------------
# One-path illustration at the default experiment configuration
# ---------------------------------------------------------------------------

def test_single_path_inference_brackets_truth():
    path = simulate_path(DIFF, JUMPS, n=5000, seed=42)
    qv = estimate_jump_qv(path.increments, ThresholdRule.iqr().resolve(path.increments))
    theta_hat = compute_mle(path)
    kappa = compute_kappa(theta_hat, qv, path.horizon)
    post = gibbs_update(PRIOR, path, kappa)
    modified = modify_posterior(post, qv, path.horizon)
    interval = credible_interval(modified, 0.95)
    assert interval.contains(DIFF.theta_star)
    assert abs(modified.mean - DIFF.theta_star) < 0.5


# ---------------------------------------------------------------------------
# The whole pipeline: properties over generated increments
# ---------------------------------------------------------------------------

# increments on a 1e-3 grid, so no square underflows
_increments = st.lists(st.integers(-(10**6), 10**6), min_size=4, max_size=60).map(
    lambda ks: np.array(ks) / 1000.0
)


def _infer_or_none(d, rule=ThresholdRule.iqr()):
    try:
        return infer_increments(d, 1.0, rule, PRIOR)
    except DegenerateInferenceError:
        return None


@settings(derandomize=True, deadline=None)
@given(d=_increments, k=st.integers(-20, 20))
def test_pipeline_scale_equivariance(d, k):
    # c a power of two scales every stage exactly, so no increment can cross
    # the threshold by rounding
    c = 2.0**k
    base, scaled = _infer_or_none(d), _infer_or_none(c * d)
    assert (base is None) == (scaled is None)
    if base is not None:
        assert scaled.theta_hat == pytest.approx(c * c * base.theta_hat, rel=1e-12)
        assert scaled.kappa == base.kappa


@settings(derandomize=True, deadline=None)
@given(d=_increments, data=st.data())
def test_pipeline_permutation_invariance(d, data):
    permuted = d[data.draw(st.permutations(range(d.size)))]
    base, other = _infer_or_none(d), _infer_or_none(permuted)
    assert (base is None) == (other is None)
    if base is not None:
        assert other.theta_hat == pytest.approx(base.theta_hat, rel=1e-12)
        assert other.kappa == pytest.approx(base.kappa, rel=1e-12)


@settings(derandomize=True, deadline=None)
@given(d=_increments)
def test_pipeline_kappa_in_range(d):
    inf = _infer_or_none(d)
    if inf is not None:
        assert KAPPA_FLOOR < inf.kappa <= 1.0


@settings(derandomize=True, deadline=None)
@given(d=_increments, levels=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2))
def test_pipeline_intervals_nested_in_level(d, levels):
    inf = _infer_or_none(d)
    if inf is not None:
        inner = credible_interval(inf.modified, min(levels))
        outer = credible_interval(inf.modified, max(levels))
        assert outer.lo <= inner.lo <= inner.hi <= outer.hi


@pytest.mark.parametrize("rule", [ThresholdRule.iqr(), ThresholdRule.fixed(0.04)])
def test_block_inference_is_each_rows_inference(rule):
    # rows that infer, that are degenerate (all zero; everything flagged) and
    # that are refused (a NaN), each as infer_increments gives it alone
    rng = np.random.default_rng(12)
    block = rng.standard_normal((6, 50))
    block[1] = 0.0
    block[2, 9] = math.nan
    block[4] *= 1e-3
    rows = _infer_rows(block, 1.0, rule, PRIOR)
    for i, row in enumerate(block):
        try:
            inf = infer_increments(row, 1.0, rule, PRIOR)
        except (ConfigurationError, DegenerateInferenceError) as err:
            assert type(rows.faults[i]) is type(err) and str(rows.faults[i]) == str(err)
            continue
        assert rows.faults[i] is None and rows.inference(i) == inf
    # without the refused row, every interval is formed; NaN marks a degenerate row
    kept = block[[0, 1, 3, 4, 5]]
    lo, hi = _infer_rows(kept, 1.0, rule, PRIOR).intervals(0.9)
    for row, a, b in zip(kept, lo.tolist(), hi.tolist()):
        inf = _infer_or_none(row, rule)
        if inf is None:
            assert math.isnan(a) and math.isnan(b)
        else:
            interval = credible_interval(inf.modified, 0.9)
            assert (a, b) == (interval.lo, interval.hi)


def test_block_wide_errors_are_each_rows_error_at_its_stage():
    # three increments are too few for the IQR rule, so every row fails at
    # the threshold, but for the row whose NaN fails before it
    block = np.array([[1.0, 2.0, 3.0], [1.0, math.nan, 3.0], [4.0, 5.0, 6.0]])
    rows = _infer_rows(block, 1.0, ThresholdRule.iqr(), PRIOR)
    assert [type(fault) for fault in rows.faults] == [
        InsufficientDataError, ConfigurationError, InsufficientDataError]
    for fault, row in zip(rows.faults, block):
        with pytest.raises(ConfigurationError) as err:
            infer_increments(row, 1.0, ThresholdRule.iqr(), PRIOR)
        assert type(fault) is type(err.value) and str(fault) == str(err.value)
    # a bad horizon fails every row at the MLE, after the threshold
    rows = _infer_rows(np.ones((2, 8)), 0.0, ThresholdRule.fixed(0.5), PRIOR)
    assert [str(fault) for fault in rows.faults] == ["horizon must be positive, got 0.0"] * 2


def test_block_intervals_raise_the_first_refused_row_after_the_rows_before_it():
    block = np.random.default_rng(13).standard_normal((3, 20))
    block[2, 0] = math.inf
    rows = _infer_rows(block, 1.0, ThresholdRule.iqr(), PRIOR)
    assert rows.faults[:2] == [None, None]
    with pytest.raises(ConfigurationError, match="increment in row 1 is not finite: inf"):
        rows.intervals(0.95)
    # a level out of range fails first, before the fault of any row
    with pytest.raises(ConfigurationError, match="level must lie in"):
        rows.intervals(1.5)


def _public_chain(row, horizon, rule, prior) -> Inference:
    """The stages of the corrected posterior on one row, each by its public
    function, after the non-finite check that :func:`infer_increments`
    documents."""
    bad = np.flatnonzero(~np.isfinite(row))
    if bad.size:
        raise ConfigurationError(f"increment in row {bad[0] + 1} is not finite: {row[bad[0]]}")
    qv = estimate_jump_qv(row, rule.resolve(row))
    theta_hat = mle_from_increments(row, horizon)
    kappa = compute_kappa(theta_hat, qv, horizon)
    post = tempered_update(prior, row.size, theta_hat, kappa)
    return Inference(row.size, theta_hat, qv, kappa, post, modify_posterior(post, qv, horizon))


@st.composite
def _blocks(draw):
    """A block of 1-4 rows of 0-24 increments, each row normals at a scale
    from 1e-300 to 1e300 (some with cells of +-0, NaN or +-inf), all zeros or
    one constant."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(0, 24))
    block = np.zeros((m, n))
    for row in block:
        kind = draw(st.sampled_from(["normal", "cells", "zeros", "constant"]))
        if kind == "constant":
            row[:] = draw(st.floats(-1e300, 1e300))
        elif kind != "zeros":
            normals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
            row[:] = normals * 10.0 ** draw(st.integers(-300, 300))
        if kind == "cells" and n:
            for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
                row[j] = draw(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))
    return block


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    block=_blocks(),
    rule=st.sampled_from(["iqr", "iqr:0.5", "fixed:0.04", "fixed:1e-9", "fixed:inf"]),
    horizon=st.sampled_from([1.0, 0.25, 1e-320, 1e300, 0.0, -1.0, math.inf, math.nan]),
    prior=st.sampled_from([(1.0, 1.0), (1e-300, 1e-300), (1e300, 1e300)]),
)
def test_block_inference_is_the_public_chain_on_each_row(block, rule, horizon, prior):
    # an oracle independent of the block code: each row's inference, or its
    # error by type and message, is that of the public stage functions
    rule, prior = ThresholdRule.parse(rule), InverseGammaParams(*prior)
    rows = _infer_rows(block, horizon, rule, prior)
    for i, row in enumerate(block):
        try:
            expected = _public_chain(row, horizon, rule, prior)
        except JumpvolError as err:
            assert type(rows.faults[i]) is type(err) and str(rows.faults[i]) == str(err)
            continue
        assert rows.faults[i] is None and rows.inference(i) == expected
