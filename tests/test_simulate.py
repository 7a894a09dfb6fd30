import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpvol import (
    ConfigurationError,
    DiffusionSpec,
    JumpRealization,
    JumpSpec,
    PathTruth,
    SamplePath,
    SizeTable,
    TwoPointSizes,
    bin_jumps,
    derive_seed,
    simulate_jumps,
    simulate_path,
    simulate_path_given_jumps,
    write_increments_csv,
)
from jumpvol.cli import main
from jumpvol.simulate import _simulate_rows, _streams

DIFF = DiffusionSpec(beta=1.0, theta_star=10.0, horizon=1.0)
JUMPS = JumpSpec.two_point(5.0, 3.0)


# ---------------------------------------------------------------------------
# Specs and validation
# ---------------------------------------------------------------------------

def test_invalid_specs_rejected():
    with pytest.raises(ConfigurationError):
        DiffusionSpec(beta=1.0, theta_star=0.0, horizon=1.0)
    with pytest.raises(ConfigurationError):
        DiffusionSpec(beta=1.0, theta_star=10.0, horizon=-1.0)
    with pytest.raises(ConfigurationError):
        JumpSpec.two_point(-1.0, 3.0)
    with pytest.raises(ConfigurationError):
        JumpSpec.two_point(5.0, 0.0)
    with pytest.raises(ConfigurationError):
        JumpSpec.fixed(5.0, 0.0)
    with pytest.raises(ConfigurationError):
        SizeTable(values=(1.0, 2.0), probs=(0.6, 0.5))
    with pytest.raises(ConfigurationError):
        SizeTable(values=(1.0, 0.0), probs=(0.5, 0.5))
    # simulate_jumps trusts the sizes that a library size law draws
    with pytest.raises(ConfigurationError, match="unknown jump size law"):
        JumpSpec(rate=5.0, size_law=3.0)


def test_size_table_accepts_exact_probabilities():
    law = SizeTable(values=(-2.0, 1.0, 4.0), probs=(0.25, 0.5, 0.25))
    rng = np.random.default_rng(0)
    draws = law.sample(rng, 1000)
    assert set(np.unique(draws)) <= {-2.0, 1.0, 4.0}


def test_size_table_names_the_bad_value():
    with pytest.raises(ConfigurationError, match="nonzero, got 0.0"):
        JumpSpec.fixed(5.0, 0.0)
    with pytest.raises(ConfigurationError, match="nonzero, got inf"):
        SizeTable(values=(1.0, math.inf), probs=(0.5, 0.5))


class _ConstantSizes:
    """The fixed size law as a law of its own: every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def sample(self, rng, count):
        return np.full(count, float(self.value))


def _constant_spec(rate, value):
    # JumpSpec refuses a law it does not know, so its fields are set directly
    spec = object.__new__(JumpSpec)
    object.__setattr__(spec, "rate", rate)
    object.__setattr__(spec, "size_law", _ConstantSizes(value))
    return spec


@pytest.mark.parametrize("value", [2.5, -0.75, 1e-3])
@pytest.mark.parametrize("seed", [0, 9, 2024])
def test_fixed_law_draws_the_paths_of_a_constant_size(seed, value):
    # a one-row table draws its uniforms after everything else the jump
    # stream feeds, so it leaves the path of a constant size bit for bit
    fixed = simulate_path(DIFF, JumpSpec.fixed(40.0, value), n=300, seed=seed)
    constant = simulate_path(DIFF, _constant_spec(40.0, value), n=300, seed=seed)
    assert np.any(fixed.truth.mu != 0.0)
    assert np.array_equal(fixed.increments, constant.increments)
    assert np.array_equal(fixed.truth.mu, constant.truth.mu)


def test_fixed_config_kind_writes_the_csv_of_a_constant_size(tmp_path, monkeypatch):
    monkeypatch.delenv("JUMPVOL_SEED", raising=False)
    cfg = tmp_path / "sim.json"
    model = {"jump_sizes": {"kind": "fixed", "value": 2.5}}
    cfg.write_text(json.dumps({"model": model, "n": 3000, "seed": 9, "with_truth": True}))
    out = tmp_path / "path.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    expected = io.StringIO()
    path = simulate_path(DiffusionSpec(1.0, 10.0, 1.0), _constant_spec(5.0, 2.5), 3000, seed=9)
    write_increments_csv(expected, path, with_truth=True)
    assert out.read_text() == expected.getvalue()


def test_jump_realization_validation():
    with pytest.raises(ConfigurationError):
        JumpRealization(times=np.array([0.5, 0.4]), sizes=np.array([1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        JumpRealization(times=np.array([0.5]), sizes=np.array([0.0]))
    with pytest.raises(ConfigurationError):
        JumpRealization(times=np.array([-0.1]), sizes=np.array([1.0]))


# ---------------------------------------------------------------------------
# simulate_jumps
# ---------------------------------------------------------------------------

def test_zero_rate_gives_empty_realization():
    realization = simulate_jumps(JumpSpec.two_point(0.0, 3.0), horizon=7.0, seed=1)
    assert len(realization) == 0


def test_two_point_sizes_and_time_range():
    for seed in range(200):
        realization = simulate_jumps(JUMPS, horizon=1.0, seed=seed)
        assert np.all(np.abs(realization.sizes) == 3.0)
        if len(realization):
            assert realization.times.min() > 0.0
            assert realization.times.max() < 1.0
            assert np.all(np.diff(realization.times) > 0)


def test_poisson_count_and_size_moments():
    # expected count 5 per unit time; |size| identically 3 for the two-point law
    counts = np.empty(10_000)
    abs_sizes = []
    for seed in range(10_000):
        realization = simulate_jumps(JUMPS, horizon=1.0, seed=seed)
        counts[seed] = len(realization)
        abs_sizes.extend(np.abs(realization.sizes))
    assert abs(counts.mean() - 5.0) < 0.1
    assert np.all(np.array(abs_sizes) == 3.0)


def test_simulate_jumps_deterministic():
    a = simulate_jumps(JUMPS, horizon=1.0, seed=123)
    b = simulate_jumps(JUMPS, horizon=1.0, seed=123)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.sizes, b.sizes)


def test_simulate_jumps_bad_horizon():
    with pytest.raises(ConfigurationError):
        simulate_jumps(JUMPS, horizon=0.0, seed=1)


def test_simulate_jumps_refuses_counts_numpy_cannot_draw_or_hold():
    # numpy's Poisson sampler takes means up to this limit and refuses the
    # next float; a count drawn at the limit is more than an array can hold.
    # Both are refused before anything is allocated.
    limit = 9.223372006484771e18
    above = JumpSpec.two_point(math.nextafter(limit, math.inf), 1.0)
    with pytest.raises(ConfigurationError, match=r"rate \* horizon is 9.223372006484772e\+18"):
        simulate_jumps(above, horizon=1.0, seed=0)
    with pytest.raises(ConfigurationError, match="more than an array can hold"):
        simulate_jumps(JumpSpec.two_point(limit, 1.0), horizon=1.0, seed=0)


# ---------------------------------------------------------------------------
# bin_jumps
# ---------------------------------------------------------------------------

def test_bin_jumps_sums_and_counts():
    realization = JumpRealization(
        times=np.array([0.05, 0.07, 0.93]), sizes=np.array([1.0, 2.0, -4.0])
    )
    mu, counts = bin_jumps(realization, n=10, horizon=1.0)
    assert mu[0] == 3.0 and counts[0] == 2
    assert mu[9] == -4.0 and counts[9] == 1
    assert counts.sum() == 3


def test_bin_jumps_window_edges():
    # t exactly on the left edge of window 2 lands in window 2
    realization = JumpRealization(times=np.array([0.1]), sizes=np.array([1.0]))
    mu, _ = bin_jumps(realization, n=10, horizon=1.0)
    assert mu[1] == 1.0


def _bin_jumps_with_add_at(jumps, n, horizon):
    """The per-window sums and counts by ``np.add.at``: the reference for
    ``bin_jumps``, which must equal it bit for bit."""
    mu = np.zeros(n)
    counts = np.zeros(n, dtype=int)
    idx = np.minimum((jumps.times * (n / horizon)).astype(int), n - 1)
    np.add.at(mu, idx, jumps.sizes)
    np.add.at(counts, idx, 1)
    return mu, counts


#: Sizes whose sum depends on the order of addition, mixed into any floats.
_SIZES = st.sampled_from([1.0, -1.0, 0.1, 1e16, -1e16, 5e-324]) | st.floats(
    -1e300, 1e300, allow_subnormal=True
).filter(lambda v: v != 0.0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    n=st.integers(1, 50),
    cells=st.lists(
        st.tuples(st.integers(0, 3) | st.integers(0, 49), st.floats(0.0, 1.0, exclude_max=True)),
        max_size=40,
    ),
    sizes=st.lists(_SIZES, min_size=40, max_size=40),
)
# 1 + 1e16 rounds to 1e16, so this window sums to 0.0 in jump order, 1.0 in reverse
@example(n=2, cells=[(1, 0.1), (1, 0.2), (1, 0.3)], sizes=[1.0, 1e16, -1e16] + [1.0] * 37)
def test_bin_jumps_matches_add_at_bit_for_bit(n, cells, sizes):
    # windows are drawn first, so several jumps share one window and their
    # sum shows the order of addition; zero jumps too
    times = np.unique([(i % n + frac) / n for i, frac in cells])
    times = times[(times > 0.0) & (times < 1.0)]
    jumps = JumpRealization(times=times, sizes=np.array(sizes[: times.size]))
    mu, counts = bin_jumps(jumps, n, 1.0)
    expected_mu, expected_counts = _bin_jumps_with_add_at(jumps, n, 1.0)
    assert mu.tobytes() == expected_mu.tobytes()
    assert counts.dtype == expected_counts.dtype
    assert np.array_equal(counts, expected_counts)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**64), count=st.integers(0, 300), tau=st.floats(1e-300, 1e300))
def test_two_point_sizes_draw_what_rng_choice_draws(seed, count, tau):
    ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = TwoPointSizes(tau).sample(ours, count)
    expected = oracle.choice(np.array([-tau, tau]), size=count)
    assert drawn.tobytes() == expected.tobytes()
    assert ours.bit_generator.state == oracle.bit_generator.state


def test_bin_jumps_rejects_times_outside_horizon():
    realization = JumpRealization(times=np.array([1.5]), sizes=np.array([1.0]))
    with pytest.raises(ConfigurationError):
        bin_jumps(realization, n=10, horizon=1.0)


def test_bin_jumps_refuses_more_windows_than_an_array_holds():
    # np.iinfo(np.intp).max // 8 float64 elements is numpy's largest array
    empty = JumpRealization(times=np.array([]), sizes=np.array([]))
    n = np.iinfo(np.intp).max // 8 + 1
    with pytest.raises(ConfigurationError, match=f"n is {n}, more than an array can hold"):
        bin_jumps(empty, n=n, horizon=1.0)


_STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, np.uint64(2**63 + 5), True]
# the seeds of four words (a seed is zero-padded to four), as derive_seed gives
_FOUR_WORD_SEEDS = [seed for seed in _STREAM_SEEDS if seed < 2**128]
_CHILD_KEYS = [[0], [1]]


def _seed_sequence_children(seed) -> list[np.random.Generator]:
    # the oracle: numpy's own children (0,) and (1,) through default_rng
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2)]


def _states(generators) -> list[dict]:
    return [g.bit_generator.state for g in generators]


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_integer_seed_streams_are_seed_sequence_children(seed):
    (kernel,) = _streams([seed], _CHILD_KEYS)
    oracle = _seed_sequence_children(seed)
    assert _states(kernel) == _states(oracle)
    # the key [] gives the root stream, that of default_rng(seed)
    (root,) = _streams([seed], [[]])
    assert _states(root) == _states([np.random.default_rng(seed)])
    paths = []
    for jump_stream, diff_stream in (kernel, oracle):
        jumps = simulate_jumps(JUMPS, DIFF.horizon, seed=jump_stream)
        paths.append(simulate_path_given_jumps(DIFF, jumps, 300, seed=diff_stream))
    assert [g.bit_generator.state for g in kernel] == [g.bit_generator.state for g in oracle]
    path = simulate_path(DIFF, JUMPS, 300, seed=seed)
    for other in paths:
        assert path.increments.tobytes() == other.increments.tobytes()
        assert path.truth.mu.tobytes() == other.truth.mu.tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seeds=st.one_of(
    st.lists(st.integers(0, 2**200), min_size=1, max_size=1),
    st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=12),
))
def test_integer_seed_streams_match_seed_sequence_at_any_size(seeds):
    # one call over one seed of any size, or over a list of seeds of four words
    assert [_states(pair) for pair in _streams(seeds, _CHILD_KEYS)] == [
        _states(_seed_sequence_children(seed)) for seed in seeds
    ]


def test_streams_of_a_seed_list_are_each_seeds_children():
    # one call over the seeds of four words, in both orders
    seeds = _FOUR_WORD_SEEDS + _FOUR_WORD_SEEDS[::-1]
    for pair, seed in zip(_streams(seeds, _CHILD_KEYS), seeds, strict=True):
        assert _states(pair) == _states(_seed_sequence_children(seed))


@pytest.mark.parametrize("keys", [_CHILD_KEYS, [[]]])
@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 5, derive_seed(1, 0, 0)])
def test_a_one_seed_block_gets_the_streams_the_kernel_derives(seed, keys):
    # one seed goes through numpy's SeedSequence, a block of seeds through
    # the package's copy of its mix
    (alone,) = _streams([seed], keys)
    block = _streams([seed, seed], keys)
    assert [_states(alone)] * 2 == [_states(streams) for streams in block]


def test_negative_seed_fails_as_seed_sequence_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        simulate_path(DIFF, JUMPS, n=100, seed=-1)


def test_seed_sequence_accepted_as_seed():
    ss = np.random.SeedSequence(99)
    a = simulate_path(DIFF, JUMPS, n=100, seed=np.random.SeedSequence(99))
    b = simulate_path(DIFF, JUMPS, n=100, seed=ss)
    assert np.array_equal(a.increments, b.increments)


# ---------------------------------------------------------------------------
# simulate_path
# ---------------------------------------------------------------------------

def test_path_needs_two_increments():
    with pytest.raises(ConfigurationError):
        simulate_path(DIFF, JUMPS, n=1, seed=0)


def test_drift_dominates_when_volatility_vanishes():
    diff = DiffusionSpec(beta=1.0, theta_star=1e-12, horizon=1.0)
    path = simulate_path(diff, JumpSpec.two_point(0.0, 3.0), n=4, seed=0)
    assert np.all(np.abs(path.increments - 0.25) < 1e-4)


def test_no_jumps_truth_is_empty():
    path = simulate_path(DIFF, JumpSpec.two_point(0.0, 3.0), n=100, seed=5)
    assert path.truth.jump_qv == 0.0
    assert path.truth.jump_windows == ()
    assert np.all(path.truth.mu == 0.0)


def test_path_determinism_bit_identical():
    a = simulate_path(DIFF, JUMPS, n=500, seed=2024)
    b = simulate_path(DIFF, JUMPS, n=500, seed=2024)
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.truth.mu, b.truth.mu)
    assert a.truth.jump_qv == b.truth.jump_qv
    assert a.truth.jump_windows == b.truth.jump_windows


def test_truth_bookkeeping_exact():
    for seed in range(50):
        path = simulate_path(DIFF, JUMPS, n=200, seed=seed)
        mu = path.truth.mu
        windows = np.array(path.truth.jump_windows, dtype=int)
        assert np.array_equal(windows, np.flatnonzero(mu) + 1)
        # stored value equals the subset sum exactly
        selected = mu[mu != 0.0]
        assert float(np.sum(selected * selected)) == path.truth.jump_qv


def test_path_truth_holds_mu_and_derives_jump_qv():
    assert [f.name for f in dataclasses.fields(PathTruth)] == ["mu"]
    truth = PathTruth([0, 3, 0, -2])
    assert truth.mu.dtype == float
    assert (truth.jump_qv, truth.jump_windows) == (13.0, (2, 4))
    for seed in range(20):
        mu = simulate_path(DIFF, JUMPS, n=200, seed=seed).truth.mu
        nz = mu[mu != 0.0]
        assert PathTruth(mu).jump_qv == float(np.sum(nz * nz))


def test_sum_of_squares_moment():
    # no jumps, beta=0: mean of sum D_i^2 over R reps matches theta*T
    theta, horizon, n, reps = 3.0, 2.0, 250, 400
    diff = DiffusionSpec(beta=0.0, theta_star=theta, horizon=horizon)
    nojumps = JumpSpec.two_point(0.0, 1.0)
    totals = np.empty(reps)
    for rep in range(reps):
        path = simulate_path(diff, nojumps, n, seed=derive_seed(10, 0, rep))
        totals[rep] = np.sum(path.increments**2)
    bound = 4.0 * math.sqrt(2.0 / (n * reps)) * theta * horizon
    assert abs(totals.mean() - theta * horizon) < bound


def test_single_jump_per_window_regime():
    # n=5000, rate 5: multi-jump windows are a vanishing fraction
    multi = 0
    total = 0
    for seed in range(1000):
        realization = simulate_jumps(JUMPS, horizon=1.0, seed=seed)
        _, counts = bin_jumps(realization, n=5000, horizon=1.0)
        multi += int(np.sum(counts >= 2))
        total += 5000
    assert multi / total < 0.002


def test_default_config_jump_statistics():
    # mean number of jump windows near 5, mean jump qv near rate*T*tau^2 = 45
    windows = np.empty(1000)
    qv = np.empty(1000)
    for rep in range(1000):
        path = simulate_path(DIFF, JUMPS, n=5000, seed=derive_seed(3, 0, rep))
        windows[rep] = len(path.truth.jump_windows)
        qv[rep] = path.truth.jump_qv
    assert abs(windows.mean() - 5.0) < 0.3
    assert abs(qv.mean() - 45.0) / 45.0 < 0.05


def test_conditional_simulation_reuses_jumps():
    realization = simulate_jumps(JUMPS, horizon=1.0, seed=8)
    a = simulate_path_given_jumps(DIFF, realization, n=1000, seed=1)
    b = simulate_path_given_jumps(DIFF, realization, n=1000, seed=2)
    assert np.array_equal(a.truth.mu, b.truth.mu)
    assert not np.array_equal(a.increments, b.increments)


def test_sample_path_invariant_checks():
    with pytest.raises(ConfigurationError):
        SamplePath(n=3, delta=0.5, increments=np.array([1.0, 2.0]))
    path = simulate_path(DIFF, JUMPS, n=100, seed=0)
    assert path.horizon == pytest.approx(1.0, rel=1e-12)
    assert path.times[-1] == pytest.approx(path.horizon)


@pytest.mark.parametrize(
    "jumps, n",
    [
        (JUMPS, 300),
        # many jumps per window: the block's one bincount must add each
        # window's sizes in the order one path's bincount does
        (JumpSpec.table(400.0, [0.1, -0.7, 3.3], [0.5, 0.3, 0.2]), 40),
        (JumpSpec.two_point(0.0, 1.0), 100),
    ],
)
def test_simulated_rows_are_one_row_paths(jumps, n):
    seeds = [derive_seed(2, 0, rep) for rep in range(7)]
    increments, mu = _simulate_rows(DIFF, jumps, n, _streams(seeds, _CHILD_KEYS))
    for seed, row, row_mu in zip(seeds, increments, mu, strict=True):
        path = simulate_path(DIFF, jumps, n, seed=seed)
        assert row.tobytes() == path.increments.tobytes()
        assert row_mu.tobytes() == path.truth.mu.tobytes()
