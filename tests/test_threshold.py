import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpvol import (
    ConfigurationError,
    DiffusionSpec,
    InsufficientDataError,
    JumpSpec,
    ThresholdRule,
    derive_seed,
    estimate_jump_qv,
    interquartile_threshold,
    qv_error_rate,
    simulate_path,
)
from jumpvol.threshold import _quartiles

DIFF = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
JUMPS = JumpSpec.two_point(5.0, 3.0)


# ---------------------------------------------------------------------------
# interquartile_threshold
# ---------------------------------------------------------------------------

def test_iqr_hand_example():
    # |D| = {1,2,3,4,100}: Q1=2, Q3=4, IQR=2, eta=10; only 100 exceeds it
    d = np.array([1.0, -2.0, 3.0, -4.0, 100.0])
    eta = interquartile_threshold(d, multiplier=5.0)
    assert eta == pytest.approx(10.0, abs=1e-12)
    estimate = estimate_jump_qv(d, eta)
    assert estimate.flagged == (5,)
    assert estimate.jump_qv_hat == pytest.approx(10000.0)


def test_degenerate_spread_maps_to_infinity():
    d = np.array([0.5, -0.5, 0.5, 0.5, -0.5])
    eta = interquartile_threshold(d)
    assert eta == math.inf
    assert estimate_jump_qv(d, eta).flagged == ()


def test_iqr_preconditions():
    with pytest.raises(InsufficientDataError):
        interquartile_threshold(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigurationError):
        interquartile_threshold(np.ones(10), multiplier=0.0)


def test_iqr_scale_equivariance():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = rng.normal(0, 2, 60)
        s = rng.uniform(0.1, 10)
        eta = interquartile_threshold(d)
        eta_scaled = interquartile_threshold(s * d)
        assert eta_scaled == pytest.approx(s * eta, rel=1e-12)
        hat = estimate_jump_qv(d, eta).jump_qv_hat
        hat_scaled = estimate_jump_qv(s * d, s * eta).jump_qv_hat
        assert hat_scaled == pytest.approx(s * s * hat, rel=1e-12)


#: Values the quartile property mixes into normal draws: signed zeros,
#: subnormals, the normal-range boundary, and magnitudes near 1e300.
_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.0, -1.0, 1e300, -1e300]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    n=st.integers(4, 10_000),
    seed=st.integers(0, 2**32 - 1),
    pool=st.lists(
        st.sampled_from(_SPECIAL_VALUES) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    ),
    share=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    rows=st.integers(1, 4),
)
def test_partition_quartiles_are_np_quantile_bit_for_bit(n, seed, pool, share, rows):
    # a share of the increments comes from a small pool, so ties are common
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((rows, n))
    tied = rng.random((rows, n)) < share
    block[tied] = rng.choice(np.array(pool), int(tied.sum()))
    d = block[0]
    magnitudes = np.abs(d)
    expected = np.quantile(magnitudes, [0.25, 0.75])
    assert np.array(_quartiles(magnitudes.copy())).tobytes() == expected.tobytes()
    spread = float(expected[1] - expected[0])
    assert interquartile_threshold(d, 5.0) == (math.inf if spread == 0.0 else 5.0 * spread)
    # along the last axis of a block, each row as on its own
    expected = np.quantile(np.abs(block), [0.25, 0.75], axis=-1)
    assert np.array(_quartiles(np.abs(block))).tobytes() == expected.tobytes()
    by_row = [interquartile_threshold(row, 5.0) for row in block]
    assert interquartile_threshold(block, 5.0).tobytes() == np.array(by_row).tobytes()


def test_block_threshold_is_each_rows_threshold():
    rng = np.random.default_rng(4)
    block = rng.standard_normal((4, 40))
    block[1, 5:] = 2.0  # over three quarters tied: a zero IQR, so eta is inf
    block[2, 7] = math.nan
    by_row = [interquartile_threshold(row) for row in block]
    assert by_row[1] == math.inf and math.isnan(by_row[2])
    assert interquartile_threshold(block).tobytes() == np.array(by_row).tobytes()
    assert ThresholdRule.iqr().resolve(block).tobytes() == np.array(by_row).tobytes()
    assert ThresholdRule.fixed(0.5).resolve(block).tolist() == [0.5] * 4


def test_quartiles_of_magnitudes_with_a_nan_are_nan():
    # np.quantile answers NaN for both quartiles then, and so the threshold is NaN
    assert math.isnan(interquartile_threshold([1.0, -2.0, math.nan, 4.0, 5.0]))


# ---------------------------------------------------------------------------
# estimate_jump_qv
# ---------------------------------------------------------------------------

def test_qv_direct_formula():
    estimate = estimate_jump_qv(np.array([0.1, 5.0, 0.2]), eta=1.0)
    assert estimate.jump_qv_hat == pytest.approx(25.0)
    assert estimate.flagged == (2,)


def test_qv_infinite_threshold_sentinel():
    estimate = estimate_jump_qv(np.array([0.1, 5.0, 0.2]), eta=math.inf)
    assert estimate.jump_qv_hat == 0.0
    assert estimate.flagged == ()


def test_qv_strict_inequality_at_threshold():
    estimate = estimate_jump_qv(np.array([1.0, 2.0, 3.0]), eta=3.0)
    assert estimate.flagged == ()


def test_qv_requires_positive_threshold():
    with pytest.raises(ConfigurationError):
        estimate_jump_qv(np.array([1.0]), eta=0.0)


def test_qv_monotone_in_threshold():
    rng = np.random.default_rng(5)
    d = rng.normal(0, 1, 500)
    previous = math.inf
    for eta in np.linspace(0.1, 4.0, 25):
        hat = estimate_jump_qv(d, eta).jump_qv_hat
        assert hat <= previous
        previous = hat


def test_qv_bounded_by_total_sum_of_squares():
    rng = np.random.default_rng(6)
    for _ in range(30):
        d = rng.standard_t(3, size=200)
        eta = interquartile_threshold(d)
        hat = estimate_jump_qv(d, eta).jump_qv_hat
        assert hat <= np.sum(d * d) + 1e-12


# ---------------------------------------------------------------------------
# ThresholdRule
# ---------------------------------------------------------------------------

def test_rule_parsing():
    assert ThresholdRule.parse("iqr:5") == ThresholdRule.iqr(5.0)
    assert ThresholdRule.parse("iqr") == ThresholdRule.iqr()
    assert ThresholdRule.parse("fixed:0.5") == ThresholdRule.fixed(0.5)
    assert ThresholdRule.parse("fixed:inf").value == math.inf
    with pytest.raises(ConfigurationError):
        ThresholdRule.parse("quantile:0.99")
    with pytest.raises(ConfigurationError):
        ThresholdRule.parse("fixed:abc")
    with pytest.raises(ConfigurationError):
        ThresholdRule.parse("fixed")
    with pytest.raises(ConfigurationError):
        ThresholdRule.fixed(-1.0)


def test_rule_resolution():
    d = np.array([1.0, -2.0, 3.0, -4.0, 100.0])
    assert ThresholdRule.fixed(7.0).resolve(d) == 7.0
    assert ThresholdRule.iqr(5.0).resolve(d) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Monte Carlo behavior at the default experiment configuration
# ---------------------------------------------------------------------------

def test_flagged_count_tracks_jump_rate():
    counts = np.empty(1000)
    rule = ThresholdRule.iqr()
    for rep in range(1000):
        path = simulate_path(DIFF, JUMPS, n=5000, seed=derive_seed(21, 0, rep))
        eta = rule.resolve(path.increments)
        counts[rep] = len(estimate_jump_qv(path.increments, eta).flagged)
    assert 4.0 <= counts.mean() <= 6.0


def test_qv_estimate_tracks_truth():
    rule = ThresholdRule.iqr()
    hats = np.empty(1000)
    truths = np.empty(1000)
    for rep in range(1000):
        path = simulate_path(DIFF, JUMPS, n=5000, seed=derive_seed(22, 0, rep))
        eta = rule.resolve(path.increments)
        hats[rep] = estimate_jump_qv(path.increments, eta).jump_qv_hat
        truths[rep] = path.truth.jump_qv
    assert abs(hats.mean() - truths.mean()) / truths.mean() < 0.05


def test_fixed_threshold_error_is_centered():
    # with eta between the jump size and the diffusion scale, the estimation
    # error has mean zero up to Monte Carlo resolution
    rule = ThresholdRule.fixed(1.0)
    reps, n = 500, 16000
    errors = np.empty(reps)
    for rep in range(reps):
        path = simulate_path(DIFF, JUMPS, n=n, seed=derive_seed(23, 0, rep))
        hat = estimate_jump_qv(path.increments, rule.resolve(path.increments)).jump_qv_hat
        errors[rep] = hat - path.truth.jump_qv
    stderr = errors.std(ddof=1) / math.sqrt(reps)
    assert abs(errors.mean()) < 2.0 * stderr


# ---------------------------------------------------------------------------
# qv_error_rate
# ---------------------------------------------------------------------------

def test_qv_error_rate_validation():
    with pytest.raises(ConfigurationError):
        qv_error_rate(DIFF, JUMPS, (1000, 2000), reps=200, seed=0)
    with pytest.raises(ConfigurationError):
        qv_error_rate(DIFF, JUMPS, (1000, 2000, 4000), reps=200, seed=0)
    with pytest.raises(ConfigurationError):
        qv_error_rate(DIFF, JUMPS, (1000, 4000, 16000), reps=50, seed=0)


def test_qv_error_rate_refuses_a_sample_size_that_is_not_an_integer():
    # int() would run n = 20 and report it as such
    with pytest.raises(ConfigurationError, match="^n_grid entry 20.5 is not an integer$"):
        qv_error_rate(DIFF, JUMPS, (20.5, 60, 200), reps=200, seed=0)


def test_qv_error_rate_refuses_a_replication_count_that_is_not_an_integer():
    # range() would raise a bare TypeError on it
    with pytest.raises(ConfigurationError, match="^reps 200.5 is not an integer$"):
        qv_error_rate(DIFF, JUMPS, (20, 60, 200), reps=200.5, seed=0)


def test_qv_error_rate_no_jumps():
    # with nothing to estimate, the MAE is just the occasional false flag's
    # squared increment: near zero on the scale of any jump; the slope fit
    # is not meaningful here and is not asserted
    nojumps = JumpSpec.two_point(0.0, 3.0)
    result = qv_error_rate(DIFF, nojumps, (100, 400, 1600), reps=200, seed=0)
    assert all(mae < 0.05 for mae in result.mae)
