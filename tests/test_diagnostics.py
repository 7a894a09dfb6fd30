import math

import numpy as np
import pytest
from scipy.integrate import quad

from jumpvol import (
    ConfigurationError,
    DiffusionSpec,
    GibbsPosterior,
    InverseGammaParams,
    JumpRealization,
    JumpSpec,
    NormalApprox,
    ThresholdRule,
    TruthSummary,
    bvm_convergence_check,
    compute_kappa,
    compute_mle,
    derive_seed,
    estimate_jump_qv,
    gibbs_update,
    infer_increments,
    modify_posterior,
    mse_oracle,
    sandwich_variance,
    simulate_jumps,
    simulate_path,
    tempered_update,
    tv_distance,
)
from jumpvol.diagnostics import _bvm_distances

DIFF = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
JUMPS = JumpSpec.two_point(5.0, 3.0)
PRIOR = InverseGammaParams(1.0, 1.0)


# ---------------------------------------------------------------------------
# TruthSummary
# ---------------------------------------------------------------------------

def test_truth_summary_from_path():
    path = simulate_path(DIFF, JUMPS, n=2000, seed=1)
    truth = TruthSummary.from_path(DIFF, path)
    assert truth.theta_dagger == pytest.approx(10.0 + path.truth.jump_qv / path.horizon)
    assert truth.kappa_dagger == pytest.approx((10.0 / truth.theta_dagger) ** 2)
    assert (truth.theta_star, truth.jump_qv) == (10.0, path.truth.jump_qv)


def test_truth_summary_validation():
    with pytest.raises(ConfigurationError):
        TruthSummary(theta_star=-1.0, jump_qv=0.0, horizon=1.0)
    with pytest.raises(ConfigurationError):
        TruthSummary(theta_star=1.0, jump_qv=-2.0, horizon=1.0)
    with pytest.raises(ConfigurationError, match="jump_qv"):
        TruthSummary(theta_star=1.0, jump_qv=math.nan, horizon=1.0)
    with pytest.raises(ConfigurationError, match="horizon"):
        TruthSummary(theta_star=1.0, jump_qv=45.0, horizon=0.0)
    with pytest.raises(ConfigurationError, match="overflows"):
        TruthSummary(theta_star=1.0, jump_qv=1e308, horizon=1e-10)


# ---------------------------------------------------------------------------
# Total variation distance
# ---------------------------------------------------------------------------

def test_tv_identical_densities_is_zero():
    f = NormalApprox(mean=0.0, variance=1.0)
    assert tv_distance(f, f) < 1e-10


def test_tv_equal_variance_normals_closed_form():
    f = NormalApprox(mean=0.0, variance=1.0)
    g = NormalApprox(mean=1.0, variance=1.0)
    # closed form: 2*Phi(1/2) - 1
    assert tv_distance(f, g) == pytest.approx(0.38292492254802624, abs=1e-4)


def test_tv_disjoint_supports_is_one():
    f = NormalApprox(mean=0.0, variance=0.01)
    g = NormalApprox(mean=100.0, variance=0.01)
    assert tv_distance(f, g) == pytest.approx(1.0, abs=1e-4)


def test_tv_symmetry_and_bounds():
    rng = np.random.default_rng(12)
    for _ in range(10):
        f = NormalApprox(mean=rng.uniform(-2, 2), variance=rng.uniform(0.5, 2.0))
        g = NormalApprox(mean=rng.uniform(-2, 2), variance=rng.uniform(0.5, 2.0))
        ab = tv_distance(f, g)
        ba = tv_distance(g, f)
        assert 0.0 <= ab <= 1.0
        assert ab == pytest.approx(ba, abs=1e-6)


def test_tv_shift_invariance():
    rng = np.random.default_rng(13)
    for _ in range(5):
        m1, m2 = rng.uniform(-1, 1, 2)
        v1, v2 = rng.uniform(0.5, 2.0, 2)
        c = rng.uniform(-20, 20)
        base = tv_distance(NormalApprox(m1, v1), NormalApprox(m2, v2))
        shifted = tv_distance(NormalApprox(m1 + c, v1), NormalApprox(m2 + c, v2))
        assert shifted == pytest.approx(base, abs=1e-6)


def test_tv_rejects_unnormalized_density():
    class Doubled:
        def __init__(self):
            self.inner = NormalApprox(0.0, 1.0)

        def pdf(self, x):
            return 2.0 * self.inner.pdf(x)

        def ppf(self, q):
            return self.inner.ppf(q)

    with pytest.raises(ValueError):
        tv_distance(Doubled(), NormalApprox(0.0, 1.0))


def test_bvm_distances_at_a_tempered_shape_of_2e8():
    # replication 40 at n = 16000 of `diag bvm --seed 1` with rate 16, tau 8:
    # kappa is 4.2e-5 there, and a density whose log carries a rounding error
    # of shape size integrates to 1 - 1.1e-6 and fails the mass check
    jumps = JumpSpec.two_point(16.0, 8.0)
    seed = derive_seed(1, 1, 40)
    tv_t, tv_m = _bvm_distances(DIFF, jumps, PRIOR, ThresholdRule.iqr(), 16000, seed)
    assert 0.0 < tv_t < 0.01
    assert tv_m == pytest.approx(tv_t, abs=1e-9)


def _quad_tv(a, b) -> float:
    """Reference TV: adaptive quadrature to 1e-9 between both densities'
    1e-14 quantiles, with breakpoints at their quantiles and at 0."""
    levels = (1e-14, 1e-6, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0 - 1e-6, 1.0 - 1e-14)
    knots = sorted({dist.ppf(p) for dist in (a, b) for p in levels})
    lo, hi = knots[0], knots[-1]
    points = [p for p in knots[1:-1] + [0.0] if lo < p < hi]
    value, abserr = quad(
        lambda x: abs(a.pdf(x) - b.pdf(x)),
        lo, hi, points=points, limit=1000, epsabs=1e-9, epsrel=1e-9,
    )
    assert abserr < 1e-6
    return 0.5 * value


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize(
    "n, rate, tau, kind",
    [
        (40, 5.0, 3.0, "tempered"),
        (40, 32.0, 1.0, "shifted"),
        (40, 16.0, 8.0, "truncated"),
        (1000, 5.0, 3.0, "shifted"),
        (1000, 32.0, 1.0, "truncated"),
        (1000, 16.0, 8.0, "tempered"),
        (16000, 5.0, 3.0, "truncated"),
        (16000, 32.0, 1.0, "tempered"),
        (16000, 16.0, 8.0, "shifted"),
    ],
)
def test_tv_matches_adaptive_quadrature(n, rate, tau, kind):
    path = simulate_path(DIFF, JumpSpec.two_point(rate, tau), n, seed=derive_seed(7, n, int(rate)))
    truth = TruthSummary.from_path(DIFF, path)
    inf = infer_increments(path.increments, path.horizon, ThresholdRule.iqr(), PRIOR)
    if kind == "tempered":
        dist = inf.posterior
        limit = NormalApprox(inf.theta_hat, 2.0 * truth.kappa_dagger * truth.theta_dagger**2 / n)
    else:
        dist = inf.modified if kind == "shifted" else inf.modified.truncated_positive()
        limit = NormalApprox(inf.theta_hat - inf.modified.shift, 2.0 * truth.theta_star**2 / n)
    assert tv_distance(dist, limit) == pytest.approx(_quad_tv(dist, limit), abs=1e-4)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_tv_of_truncated_posterior_with_mass_below_zero():
    # the clipped density jumps at 0, inside the support of the normal
    post = tempered_update(PRIOR, n=6, theta_hat=1.0, kappa=1.0)
    truncated = GibbsPosterior(ig=post.ig, shift=1.5).truncated_positive()
    assert truncated.mass_below_zero > 0.01
    for limit in (NormalApprox(0.2, 0.3), NormalApprox(1.0, 4.0)):
        assert tv_distance(truncated, limit) == pytest.approx(
            _quad_tv(truncated, limit), abs=1e-4
        )


# ---------------------------------------------------------------------------
# Normal-limit convergence
# ---------------------------------------------------------------------------

def _pipeline(path):
    qv = estimate_jump_qv(path.increments, ThresholdRule.iqr().resolve(path.increments))
    theta_hat = compute_mle(path)
    kappa = compute_kappa(theta_hat, qv, path.horizon)
    post = gibbs_update(PRIOR, path, kappa)
    return qv, theta_hat, post, modify_posterior(post, qv, path.horizon)


def test_tempered_and_modified_pairings_agree():
    # the shifted posterior against its shifted normal limit is the same
    # comparison as the unshifted pair: TV is shift invariant
    path = simulate_path(DIFF, JUMPS, n=5000, seed=4)
    truth = TruthSummary.from_path(DIFF, path)
    qv, theta_hat, post, modified = _pipeline(path)
    tempered_limit = NormalApprox(
        theta_hat, 2.0 * truth.kappa_dagger * truth.theta_dagger**2 / path.n
    )
    modified_limit = NormalApprox(
        theta_hat - qv.jump_qv_hat / path.horizon, 2.0 * truth.theta_star**2 / path.n
    )
    tv_a = tv_distance(post, tempered_limit)
    tv_b = tv_distance(modified, modified_limit)
    assert abs(tv_a - tv_b) < 1e-6


def test_single_path_overlay_is_close():
    path = simulate_path(DIFF, JUMPS, n=5000, seed=42)
    qv, theta_hat, post, modified = _pipeline(path)
    limit = NormalApprox(theta_hat - qv.jump_qv_hat / path.horizon, 2.0 * 10.0**2 / path.n)
    assert tv_distance(modified, limit) < 0.05


def test_bvm_check_well_specified_benchmark():
    nojumps = JumpSpec.two_point(0.0, 3.0)
    rows = bvm_convergence_check(DIFF, nojumps, (1000, 5000), reps=100, seed=11)
    assert rows[-1].tv_tempered < 0.05
    assert rows[-1].tv_modified < 0.05
    assert rows[1].tv_tempered < rows[0].tv_tempered


def test_bvm_check_validation():
    with pytest.raises(ConfigurationError):
        bvm_convergence_check(DIFF, JUMPS, (4000, 1000), reps=100, seed=0)
    with pytest.raises(ConfigurationError):
        bvm_convergence_check(DIFF, JUMPS, (1000, 4000), reps=10, seed=0)


# ---------------------------------------------------------------------------
# Sandwich variance
# ---------------------------------------------------------------------------

def test_sandwich_reduces_to_efficiency_benchmark():
    truth = TruthSummary(theta_star=10.0, jump_qv=0.0, horizon=1.0)
    assert sandwich_variance(truth, n=5000) == pytest.approx(
        2.0 * 100.0 / 5000.0, rel=1e-15
    )


def test_sandwich_direct_arithmetic():
    truth = TruthSummary(theta_star=10.0, jump_qv=45.0, horizon=1.0)
    value = sandwich_variance(truth, n=5000)
    assert value == pytest.approx((2.0 * 55.0**2 / 5000.0) * (1.0 - (45.0 / 55.0) ** 2), rel=1e-12)
    assert value == pytest.approx(0.4, abs=1e-12)


def test_sandwich_matches_conditional_monte_carlo():
    fixed = JumpRealization(times=np.array([0.5]), sizes=np.array([3.0]))
    result = mse_oracle(DIFF, fixed, n=2000, reps=2000, seed=1)
    assert result.empirical_variance == pytest.approx(result.sandwich, rel=0.10)


# ---------------------------------------------------------------------------
# MSE oracle
# ---------------------------------------------------------------------------

def test_mse_oracle_no_jumps_hits_benchmark():
    diff = DiffusionSpec(beta=0.0, theta_star=10.0, horizon=1.0)
    empty = JumpRealization(times=np.array([]), sizes=np.array([]))
    result = mse_oracle(diff, empty, n=1000, reps=2000, seed=2)
    assert result.theta_dagger == 10.0
    assert result.empirical_mse == pytest.approx(2.0 * 100.0 / 1000.0, rel=0.10)


def test_mse_oracle_requires_enough_reps():
    empty = JumpRealization(times=np.array([]), sizes=np.array([]))
    with pytest.raises(ConfigurationError):
        mse_oracle(DIFF, empty, n=100, reps=10, seed=0)


def test_mse_halves_when_n_doubles():
    fixed = simulate_jumps(JUMPS, 1.0, seed=6)
    small = mse_oracle(DIFF, fixed, n=1000, reps=2000, seed=3)
    large = mse_oracle(DIFF, fixed, n=2000, reps=2000, seed=4)
    assert small.empirical_mse / large.empirical_mse == pytest.approx(2.0, rel=0.15)


def test_mse_oracle_reports_both_candidates():
    # single fixed jump of size 3: the two closed forms genuinely differ and
    # the empirical value adjudicates; both discrepancies must be reported
    fixed = JumpRealization(times=np.array([0.5]), sizes=np.array([3.0]))
    result = mse_oracle(DIFF, fixed, n=5000, reps=2000, seed=5)
    assert result.product_form == pytest.approx(2.0 * 10.0 * 19.0 / 5000.0, rel=1e-12)
    assert result.sandwich == pytest.approx(
        (2.0 * 19.0**2 / 5000.0) * (1.0 - (9.0 / 19.0) ** 2), rel=1e-12
    )
    assert math.isfinite(result.product_form_discrepancy)
    assert math.isfinite(result.sandwich_discrepancy)
    assert result.empirical_mse_stderr > 0.0
