import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
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
from jumpvol import diagnostics
from jumpvol.diagnostics import (
    _GL_NODES,
    _GL_WEIGHTS,
    _TAIL_FRACTION,
    _TV_LADDER,
    _bvm_distances,
    _mean_and_stderr,
    _Normals,
    _Posteriors,
    _tv_pass,
)

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
    with pytest.raises(ConfigurationError, match="squared jump sizes overflow float64"):
        TruthSummary(theta_star=1.0, jump_qv=math.inf, horizon=1.0)


def test_sandwich_variance_refuses_what_float64_cannot_hold():
    # 2 theta_dagger^2 overflows although its square does not; a theta_star
    # this far below jump_qv / T leaves 1 - ratio^2 at 0
    with pytest.raises(ConfigurationError, match="sandwich variance overflows at theta_star = 1.2e"):
        sandwich_variance(TruthSummary(theta_star=1.2e154, jump_qv=0.0, horizon=1.0), 1)
    with pytest.raises(ConfigurationError, match="underflows to 0 at theta_star = 1e-300"):
        sandwich_variance(TruthSummary(theta_star=1e-300, jump_qv=45.0, horizon=1.0), 1)


def test_truth_summary_refuses_a_theta_dagger_whose_square_overflows():
    # sandwich_variance and the bvm limit square theta_dagger, where a float
    # above about 1.34e154 raises OverflowError
    with pytest.raises(ConfigurationError, match="theta_dagger is 1e\\+300, whose square"):
        TruthSummary(theta_star=1e300, jump_qv=0.0, horizon=1.0)
    with pytest.raises(ConfigurationError, match="whose square overflows"):
        TruthSummary(theta_star=1.0, jump_qv=1e200, horizon=1e-100)
    truth = TruthSummary(theta_star=1e154, jump_qv=0.0, horizon=1.0)
    assert math.isfinite(truth.theta_dagger**2)


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


def test_tv_refuses_a_quantile_range_float64_cannot_span():
    # the top ladder quantiles of IG(2, 1e305) overflow to inf
    wide = GibbsPosterior(InverseGammaParams(2.0, 1e305))
    for pair in ((wide, NormalApprox(1.0, 1.0)), (NormalApprox(1.0, 1.0), wide)):
        with pytest.raises(ConfigurationError, match="no visible mass on its own quantile range"):
            tv_distance(*pair)


def test_bvm_distances_at_a_tempered_shape_of_2e8():
    # replication 40 at n = 16000 of `diag bvm --seed 1` with rate 16, tau 8:
    # kappa is 4.2e-5 there, and a density whose log carries a rounding error
    # of shape size integrates to 1 - 1.1e-6 and fails the mass check
    jumps = JumpSpec.two_point(16.0, 8.0)
    seed = derive_seed(1, 1, 40)
    ((tv_t, tv_m),) = _bvm_distances(DIFF, jumps, PRIOR, ThresholdRule.iqr(), 16000, [seed])
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


#: (n, rate, tau, posterior) settings that span the posterior shapes and
#: kinds ``diag bvm`` meets.
_TV_SETTINGS = [
    (40, 5.0, 3.0, "tempered"),
    (40, 32.0, 1.0, "shifted"),
    (40, 16.0, 8.0, "truncated"),
    (1000, 5.0, 3.0, "shifted"),
    (1000, 32.0, 1.0, "truncated"),
    (1000, 16.0, 8.0, "tempered"),
    (16000, 5.0, 3.0, "truncated"),
    (16000, 32.0, 1.0, "tempered"),
    (16000, 16.0, 8.0, "shifted"),
]


def _posterior_and_limit(n, rate, tau, kind):
    path = simulate_path(DIFF, JumpSpec.two_point(rate, tau), n, seed=derive_seed(7, n, int(rate)))
    truth = TruthSummary.from_path(DIFF, path)
    inf = infer_increments(path.increments, path.horizon, ThresholdRule.iqr(), PRIOR)
    if kind == "tempered":
        dist = inf.posterior
        limit = NormalApprox(inf.theta_hat, 2.0 * truth.kappa_dagger * truth.theta_dagger**2 / n)
    else:
        dist = inf.modified if kind == "shifted" else inf.modified.truncated_positive()
        limit = NormalApprox(inf.theta_hat - inf.modified.shift, 2.0 * truth.theta_star**2 / n)
    return dist, limit


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n, rate, tau, kind", _TV_SETTINGS)
def test_tv_matches_adaptive_quadrature(n, rate, tau, kind):
    dist, limit = _posterior_and_limit(n, rate, tau, kind)
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


def _scalar_tv(density_a, density_b) -> float:
    """The TV rule as it was with one float ``ppf`` call per ladder level, and
    coarse and fine nodes built apart, the fine edges by ``np.insert``; its
    accuracy and mass guards are left out, as they do not touch the value."""

    def support_and_knots(dist):
        knots = [dist.ppf(float(p)) for p in _TV_LADDER]
        lo, hi = knots[0], knots[-1]
        return lo, hi, float(np.max(dist.pdf(np.linspace(lo, hi, 1025)))), knots

    def gauss_legendre(edges):
        half = 0.5 * np.diff(edges)[:, None]
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()

    lo_a, hi_a, peak_a, knots_a = support_and_knots(density_a)
    lo_b, hi_b, peak_b, knots_b = support_and_knots(density_b)
    lo, hi = min(lo_a, lo_b), max(hi_a, hi_b)

    def tails_dead(x):
        return (
            float(density_a.pdf(x)) < _TAIL_FRACTION * peak_a
            and float(density_b.pdf(x)) < _TAIL_FRACTION * peak_b
        )

    span = hi - lo
    while not tails_dead(lo):
        lo -= 0.25 * span
        span = hi - lo
    while not tails_dead(hi):
        hi += 0.25 * span
        span = hi - lo
    edges = np.unique(np.clip([lo, hi] + knots_a + knots_b, lo, hi))
    halves = np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))
    x_coarse, _ = gauss_legendre(edges)
    x_fine, w_fine = gauss_legendre(halves)
    x = np.concatenate([x_coarse, x_fine])
    f, g = density_a.pdf(x), density_b.pdf(x)
    values = np.stack([f, g, np.abs(f - g)])
    l1 = float((values[:, x_coarse.size :] @ w_fine)[2])
    return min(max(0.5 * l1, 0.0), 1.0)


class _Unit:
    """The uniform law on [0, 1], counting its float ``pdf`` calls: its density
    is alive at both ends of its quantile range, so the TV rule has to extend
    both tails past them."""

    def __init__(self):
        self.float_calls = 0

    def pdf(self, x):
        self.float_calls += isinstance(x, float)
        x = np.asarray(x, dtype=float)
        out = np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)
        return out if out.ndim else float(out)

    def ppf(self, q):
        return q


@pytest.mark.parametrize("n, rate, tau, kind", _TV_SETTINGS)
def test_tv_is_the_scalar_rule_bit_for_bit(n, rate, tau, kind):
    dist, limit = _posterior_and_limit(n, rate, tau, kind)
    assert tv_distance(dist, limit) == _scalar_tv(dist, limit)
    assert tv_distance(limit, dist) == _scalar_tv(limit, dist)


def test_tv_is_the_scalar_rule_bit_for_bit_with_mass_below_zero_and_live_tails():
    post = tempered_update(PRIOR, n=6, theta_hat=1.0, kappa=1.0)
    truncated = GibbsPosterior(ig=post.ig, shift=1.5).truncated_positive()
    for limit in (NormalApprox(0.2, 0.3), NormalApprox(1.0, 4.0)):
        assert tv_distance(truncated, limit) == _scalar_tv(truncated, limit)
    narrow = NormalApprox(0.5, 0.05**2)
    unit = _Unit()
    tv = tv_distance(unit, narrow)
    # two probes at the ends of the quantile range, and one more past each
    assert unit.float_calls == 4
    assert tv == _scalar_tv(_Unit(), narrow)


#: One pair of a stack: the posterior's log10 shape, its scale rate / shape,
#: its shift as a multiple of that scale, the limit's log10 sd and its offset
#: (both in units of the posterior's spread scale / sqrt(shape)), and whether
#: it repeats the law of the pair before, as the shifted pair of a ``diag
#: bvm`` row repeats its tempered one.  One limit in eight is 1e-10 of the
#: spread or narrower: it collapses onto a few floats and fails a guard of the
#: quadrature, so most stacks pass whole and some fail at one or more pairs.
_STACKED_PAIR = st.tuples(
    st.floats(math.log10(2.0), math.log10(2e8)),
    st.floats(1e-2, 1e2),
    st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    st.integers(0, 7).flatmap(
        lambda k: st.floats(-16.0, -10.0) if k == 0 else st.floats(-3.0, 2.0)
    ),
    st.floats(-30.0, 30.0),
    st.booleans(),
)


def _outcome(call):
    """What ``call()`` gives: its value, or its error's type and message."""
    try:
        return call()
    except Exception as err:
        return type(err), str(err)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.lists(_STACKED_PAIR, min_size=1, max_size=20))
def test_tv_pass_is_the_one_pair_tv_bit_for_bit(pairs):
    # shapes reach the refined quantiles of _invgamma_ppf from about 3.5e7
    laws, limits = [], []
    for log_shape, scale, shift, log_sd, offset, repeat in pairs:
        shape, rate = (laws[-1].ig.shape, laws[-1].ig.rate) if repeat and laws else (
            10.0**log_shape, scale * 10.0**log_shape
        )
        spread = (rate / shape) / math.sqrt(shape)
        laws.append(GibbsPosterior(InverseGammaParams(shape, rate), shift * rate / shape))
        limits.append(NormalApprox(
            rate / shape - laws[-1].shift + offset * spread, (spread * 10.0**log_sd) ** 2
        ))
    expected = [_outcome(lambda: tv_distance(law, limit)) for law, limit in zip(laws, limits)]
    stack = _outcome(lambda: _tv_pass(
        _Posteriors(*(np.array(v) for v in zip(*((l.ig.shape, l.ig.rate, l.shift) for l in laws)))),
        _Normals(np.array([l.mean for l in limits]), np.array([l.sd for l in limits])),
    ))
    failures = [e for e in expected if isinstance(e, tuple)]
    assert stack == (failures[0] if failures else expected)


def test_tv_pass_raises_its_first_failing_pair_before_a_later_one_refused_sooner():
    # the second pair's range is refused before any quadrature, the first
    # pair's narrow limit only at the mass check that follows it
    posteriors = _Posteriors(np.array([10.0, 2.0]), np.array([10.0, 1e305]), np.zeros(2))
    limits = _Normals(np.array([1.0, 1.0]), np.array([1e-13, 1.0]))
    with pytest.raises(ValueError, match="^second density integrates to 0.99992966"):
        _tv_pass(posteriors, limits)


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


def test_bvm_check_refuses_a_limit_too_narrow_to_resolve():
    # without jumps the drift puts theta_hat near beta^2 T / n = 5e-3, where an
    # sd of about 1e-161 is far below the float spacing: every TV node would
    # round onto the limit's mean
    diff = DiffusionSpec(beta=1.0, theta_star=1e-160, horizon=1.0)
    with pytest.raises(ConfigurationError, match="cannot resolve at the mean .* = 1e-160$"):
        bvm_convergence_check(diff, JumpSpec.two_point(0.0, 3.0), (200, 400), reps=100, seed=0)


def test_bvm_check_without_flagging_matches_the_quadrature_oracle():
    # at rate 0, beta 0 and fixed:inf, kappa = 1 and the shift is 0, so both
    # TVs depend on the data only through S = sum D_i^2, where S / (theta*
    # delta) is chi2(n): the mean TV is one integral over that law, whatever
    # the seeds
    theta_star, horizon, prior = 10.0, 1.0, InverseGammaParams(1.0, 1.0)
    rows = bvm_convergence_check(
        DiffusionSpec(beta=0.0, theta_star=theta_star, horizon=horizon),
        JumpSpec.two_point(0.0, 3.0),
        (200, 400),
        reps=400,
        seed=11,
        prior=prior,
        threshold=ThresholdRule.fixed(math.inf),
    )
    nodes, weights = np.polynomial.legendre.leggauss(64)
    for row in rows:
        delta = horizon / row.n
        law = stats.chi2(row.n)
        lo, hi = law.ppf([1e-12, 1.0 - 1e-12])
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        tv = [
            tv_distance(
                stats.invgamma(prior.shape + row.n / 2, scale=prior.rate + s / (2 * delta)),
                stats.norm(s / horizon, theta_star * math.sqrt(2.0 / row.n)),
            )
            for s in theta_star * delta * x
        ]
        oracle = 0.5 * (hi - lo) * float(np.dot(weights * law.pdf(x), tv))
        assert abs(row.tv_tempered - oracle) <= 3.0 * row.tv_tempered_stderr
        assert abs(row.tv_modified - oracle) <= 3.0 * row.tv_modified_stderr


def test_mean_and_stderr_is_exact_and_finite_at_any_scale():
    values = np.random.default_rng(3).random(1000)
    plain = (values.mean(), values.std(ddof=1) / math.sqrt(values.size))
    assert _mean_and_stderr(values) == plain
    # a power of two scales every step exactly, up to where the squares overflow
    assert _mean_and_stderr(values * 2.0**600) == tuple(v * 2.0**600 for v in plain)
    mean, stderr = _mean_and_stderr(values * 1e307)
    assert (mean, stderr) == pytest.approx((plain[0] * 1e307, plain[1] * 1e307), rel=1e-12)
    assert _mean_and_stderr(np.zeros(5)) == (0.0, 0.0)


def test_bvm_check_validation():
    with pytest.raises(ConfigurationError):
        bvm_convergence_check(DIFF, JUMPS, (4000, 1000), reps=100, seed=0)
    with pytest.raises(ConfigurationError):
        bvm_convergence_check(DIFF, JUMPS, (1000, 4000), reps=10, seed=0)


def test_bvm_check_refuses_a_sample_size_that_is_not_an_integer():
    # int() would run n = 40 and report it as such
    with pytest.raises(ConfigurationError, match="^n_grid entry 40.9 is not an integer$"):
        bvm_convergence_check(DIFF, JUMPS, (40.9, 80), reps=100, seed=1)
    with pytest.raises(ConfigurationError, match="^n_grid entry nan is not an integer$"):
        bvm_convergence_check(DIFF, JUMPS, (40, math.nan), reps=100, seed=1)


@pytest.mark.parametrize(
    "jumps, n_grid, seed",
    [
        # the golden diag bvm config: 163 and 81 rows to a chunk
        (JUMPS, (200, 400), 0),
        # 109 and 46 rows to a chunk: 218 and 92 pairs, neither a multiple of 16
        (JumpSpec.two_point(32.0, 1.0), (300, 700), 2),
    ],
)
def test_bvm_rows_do_not_depend_on_the_pass_size(monkeypatch, jumps, n_grid, seed):
    rows = {}
    for size in (1, diagnostics._TV_PASS):
        monkeypatch.setattr(diagnostics, "_TV_PASS", size)
        rows[size] = bvm_convergence_check(DIFF, jumps, n_grid, reps=100, seed=seed)
    (one, default) = rows.values()
    assert repr(one) == repr(default)


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
