"""Numeric verification of the method's large-sample claims.

Provides a total variation distance by a fixed-node rule (16-point
Gauss–Legendre panels between quantiles of both densities, checked against
the same rule on halved panels to 1e-4) and taken for a stack of pairs in
one array pass, which writes its nodes, densities and intermediates into one
workspace that ``diag bvm`` allocates once a block; Monte Carlo checks that
the (corrected and uncorrected) posteriors approach their normal limits, the
sandwich formula for the conditional variance of the jump-blind volatility
estimator, a conditional Monte Carlo oracle for its mean squared error around
the biased target it actually estimates, and the jump QV estimator's error rate.
"""

from __future__ import annotations

__all__ = [
    "BvmRow",
    "MseOracleResult",
    "QvRateResult",
    "TruthSummary",
    "bvm_convergence_check",
    "mse_oracle",
    "qv_error_rate",
    "sandwich_variance",
    "tv_distance",
]

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, JumpvolError, NumericError
from .harness import (
    _BLOCK,
    CoverageConfig,
    _chunks,
    _inferred_chunks,
    _sample_sizes,
    _simulated_chunks,
    replicate,
)
from .posterior import (
    InverseGammaParams,
    NormalApprox,
    _invgamma_pdf,
    _invgamma_ppf,
    _normal_pdf,
    _normal_ppf,
    mle_from_increments,
)
from .simulate import (
    DiffusionSpec,
    JumpRealization,
    JumpSpec,
    PathTruth,
    SamplePath,
    _check_increments,
    _integer,
    _path_rows,
    _pool_size,
    _streams,
    bin_jumps,
)
from .threshold import ThresholdRule, _flag_rows, estimate_jump_qv

#: Tails are truncated where both densities fall below this fraction of
#: their peaks, each density's largest value at its ladder quantiles.
_TAIL_FRACTION = 1e-12

#: Required absolute accuracy of the TV quadrature.
_TV_ACCURACY = 1e-4

#: Probability levels whose quantiles in each density, with the ends of the
#: truncated support, break the TV integral into panels.  The first and last
#: levels give each density's own support.
_TV_LADDER = np.array([
    1e-14, 1e-10, 1e-6, 1e-4, 1e-3, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
    0.95, 0.98, 0.99, 0.999, 1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-14,
])
_TV_LADDER.flags.writeable = False

#: Pairs of densities whose TVs one pass of the quadrature takes together:
#: more pairs cost fewer numpy calls per pair and more memory per pass.
_TV_PASS = 16

#: Gauss–Legendre nodes and weights on [-1, 1], applied on every panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

#: The most nodes a pair of a pass can have: those of its coarse panels, at
#: most one fewer than its breakpoints (both ends and each density's ladder
#: quantiles), and of their halves.
_TV_NODES = 3 * (2 * _TV_LADDER.size + 1) * _GL_NODES.size

#: Smallest sd, relative to its mean, of a normal limit handed to the TV
#: quadrature: the float spacing at the mean is then at most sqrt(eps) of an
#: sd.  The mass check first fails near 1e-12, where the nodes round onto a
#: few floats.
_LIMIT_RESOLUTION = math.sqrt(np.finfo(float).eps)

#: Work each process of a diagnostic's pool must have to pay for its start,
#: in replications for ``diag bvm`` and in simulated increments for ``mse``
#: and ``qvrate``.  Each is where two processes broke even with one on a
#: 2-CPU host: ``diag bvm`` at n (40, 80) and 50 reps a cell, ``mse`` at
#: n 2000 and 1000 reps, ``qvrate`` at n (200, 1000, 4000) and 200 reps.
_BVM_REPS_PER_WORKER = 100
_MSE_INCREMENTS_PER_WORKER = 2**21
_QV_INCREMENTS_PER_WORKER = 2**20


@dataclass(frozen=True)
class TruthSummary:
    """Hidden quantities the asymptotics are phrased in.

    ``theta_dagger = theta_star + jump_qv / horizon`` is the point the
    uncorrected posterior concentrates on, and ``kappa_dagger =
    (theta_star / theta_dagger)^2`` is the temperature that restores the
    efficient spread.
    """

    theta_star: float
    jump_qv: float
    horizon: float

    def __post_init__(self):
        if not (np.isfinite(self.theta_star) and self.theta_star > 0):
            raise ConfigurationError(f"theta_star must be positive, got {self.theta_star}")
        if self.jump_qv == math.inf:
            raise ConfigurationError("jump_qv is inf: the squared jump sizes overflow float64")
        if not (np.isfinite(self.jump_qv) and self.jump_qv >= 0):
            raise ConfigurationError(f"jump_qv must be nonnegative, got {self.jump_qv}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if not np.isfinite(self.theta_dagger):
            raise ConfigurationError(
                f"jump_qv / horizon overflows: {self.jump_qv} / {self.horizon}"
            )
        try:
            float(self.theta_dagger) ** 2
        except OverflowError:
            raise ConfigurationError(
                f"theta_dagger is {self.theta_dagger}, whose square overflows"
            ) from None

    @property
    def theta_dagger(self) -> float:
        return self.theta_star + self.jump_qv / self.horizon

    @property
    def kappa_dagger(self) -> float:
        return (self.theta_star / self.theta_dagger) ** 2

    @classmethod
    def from_path(cls, diff: DiffusionSpec, path: SamplePath) -> "TruthSummary":
        if path.truth is None:
            raise ConfigurationError("path carries no truth fields")
        return cls(theta_star=diff.theta_star, jump_qv=path.truth.jump_qv, horizon=path.horizon)


def _resolved(value: float, what: str, truth: TruthSummary) -> float:
    """``value``, a leading variance, if float64 holds it as a positive
    finite number; otherwise the error naming the volatility at fault."""
    if not math.isfinite(value):
        raise ConfigurationError(
            f"{what} overflows at theta_star = {truth.theta_star!r} "
            f"(theta_dagger = {truth.theta_dagger!r})"
        )
    if not value > 0.0:
        raise ConfigurationError(f"{what} underflows to 0 at theta_star = {truth.theta_star!r}")
    return value


def _limit(mean: float, variance: float, what: str, truth: TruthSummary) -> NormalApprox:
    """The normal limit ``N(mean, variance)`` if float64 resolves it: its
    variance (see :func:`_resolved`) and its sd at its mean; otherwise the
    error naming the volatility at fault."""
    limit = NormalApprox(mean, _resolved(variance, what, truth))
    if limit.sd < _LIMIT_RESOLUTION * abs(mean):
        raise ConfigurationError(
            f"{what} gives an sd of {limit.sd!r}, which float64 cannot resolve at the "
            f"mean {mean!r}, at theta_star = {truth.theta_star!r}"
        )
    return limit


def _scaled(values: np.ndarray) -> tuple[np.ndarray, float]:
    """``values / 2**k`` and ``2**k``, with ``2**k`` near their largest
    magnitude, so that no square or sum of the scaled values overflows.
    Scaling by a power of two is exact."""
    scale = 2.0 ** math.frexp(float(np.max(np.abs(values))))[1]
    return values / scale, scale


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of ``values`` and its standard error, both taken of
    the :func:`_scaled` values and scaled back.  A value that is not finite
    gives a mean or a standard error that is not, for the caller to refuse."""
    scaled, scale = _scaled(values)
    with np.errstate(invalid="ignore"):  # an infinite value gives a NaN stderr
        stderr = scaled.std(ddof=1) / math.sqrt(values.size)
    return float(scaled.mean()) * scale, float(stderr) * scale


# ---------------------------------------------------------------------------
# Total variation distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _One:
    """Any one law with ``pdf`` and ``ppf``, as a stack of one pair.  A probe
    of its tails, an array of shape ``(1, 1)``, calls ``pdf`` with a float;
    given ``out``, the law's densities are copied into it."""

    law: object

    def __len__(self) -> int:
        return 1

    def ppf(self, q) -> np.ndarray:
        return np.asarray(self.law.ppf(q), dtype=float)[None]

    def pdf(self, x: np.ndarray, out=None, scratch=None) -> np.ndarray:
        if x.shape == (1, 1):
            return np.array([[float(self.law.pdf(float(x[0, 0])))]])
        density = np.asarray(self.law.pdf(x[0]), dtype=float)[None]
        if out is not None:
            out[...] = density
        return density


@dataclass(frozen=True)
class _Posteriors:
    """``GibbsPosterior(InverseGammaParams(shape[k], rate[k]), shift[k])`` for
    each pair ``k``, with its ``pdf`` and ``ppf`` bit for bit."""

    shape: np.ndarray
    rate: np.ndarray
    shift: np.ndarray

    def __len__(self) -> int:
        return self.shift.size

    def take(self, pairs: slice) -> "_Posteriors":
        return _Posteriors(self.shape[pairs], self.rate[pairs], self.shift[pairs])

    def ppf(self, q) -> np.ndarray:
        # consecutive pairs of one inverse-gamma law share its quantiles:
        # subtracting a zero shift is exact
        new = np.ones(len(self), dtype=bool)
        new[1:] = (self.shape[1:] != self.shape[:-1]) | (self.rate[1:] != self.rate[:-1])
        quantiles = _invgamma_ppf(q, self.shape[new, None], self.rate[new, None])
        return quantiles[np.cumsum(new) - 1] - self.shift[:, None]

    def pdf(self, x: np.ndarray, out=None, scratch=(None, None)) -> np.ndarray:
        shifted = np.add(x, self.shift[:, None], out=scratch[0])
        return _invgamma_pdf(shifted, self.shape[:, None], self.rate[:, None], out, scratch[1])


@dataclass(frozen=True)
class _Normals:
    """``NormalApprox`` laws of means ``mean[k]`` and sds ``sd[k]``, one per
    pair ``k``, with their ``pdf`` and ``ppf`` bit for bit."""

    mean: np.ndarray
    sd: np.ndarray

    def __len__(self) -> int:
        return self.sd.size

    def take(self, pairs: slice) -> "_Normals":
        return _Normals(self.mean[pairs], self.sd[pairs])

    def ppf(self, q) -> np.ndarray:
        return _normal_ppf(q, self.mean[:, None], self.sd[:, None])

    def pdf(self, x: np.ndarray, out=None, scratch=(None, None)) -> np.ndarray:
        return _normal_pdf(x, self.mean[:, None], self.sd[:, None], out, scratch[0])


def _gauss_legendre(left: np.ndarray, right: np.ndarray, nodes=None, weights=None):
    """Nodes and weights of the Gauss–Legendre rule on every panel
    ``[left[..., k], right[..., k]]``, concatenated panel by panel along the
    last axis; written into ``nodes`` and ``weights`` if given, contiguous
    arrays of that shape."""
    half = 0.5 * (right - left)[..., None]
    mid = 0.5 * (left + right)[..., None]
    if nodes is None:
        nodes, weights = np.empty((2,) + left.shape[:-1] + (left.shape[-1] * _GL_NODES.size,))
    panels = left.shape + _GL_NODES.shape
    np.add(mid, np.multiply(half, _GL_NODES, out=nodes.reshape(panels)), out=nodes.reshape(panels))
    np.multiply(half, _GL_WEIGHTS, out=weights.reshape(panels))
    return nodes, weights


def _peaks(laws, knots: np.ndarray) -> np.ndarray:
    """Each law's largest density at its own ladder quantiles ``knots``: the
    reference its tails are truncated against.  A law is refused when it has
    none, or when float64 cannot hold the width of its quantile range."""
    peak = np.max(laws.pdf(knots), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        spanned = np.isfinite(knots[:, -1] - knots[:, 0])
    if not np.all((peak > 0) & spanned):
        raise ConfigurationError("density has no visible mass on its own quantile range")
    return peak


def _workspace(pairs: int, nodes: int = _TV_NODES) -> np.ndarray:
    """Room for a pass of up to ``pairs`` pairs of up to ``nodes`` nodes each:
    the nodes, the weights, two scratch rows, and both densities with
    ``|f - g|``, seven rows of floats a pair.  A stack's ``pdf(x, out,
    scratch)`` writes its densities at the nodes ``x`` into ``out`` and may
    overwrite the two ``scratch`` rows."""
    return np.empty(7 * pairs * nodes)


def _tv_pass(a, b, workspace=None) -> list[float]:
    """:func:`tv_distance` of each pair ``(a[k], b[k])`` of two stacks of laws,
    as one array pass; the first pair, in order, that fails raises its error.

    Each step of the tail search probes every pair's end as one column.  A
    pair's row of the node array, 16 nodes a panel, holds its coarse panels
    padded to the widest pair's count, then its halved panels padded to twice
    that, the padding being panels of zero width at its ``hi``; each density
    is evaluated once on it.  Each pair's sums take its own nodes only, in the
    one-pair call's order, so each pair's value is that call's bit for bit.

    The node arrays and the densities' intermediates are written into
    ``workspace``, a :func:`_workspace` for at least ``len(a)`` pairs, which
    a caller taking many passes allocates once; without one the pass
    allocates its own.
    """
    try:
        return _tv_stack(a, b, workspace)
    except Exception:
        if len(a) == 1:
            raise
        # the pass stopped at its first failure found; the first pair to fail
        # alone is the one whose error the pairs taken in order raise
        for k in range(len(a)):
            _tv_stack(a.take(slice(k, k + 1)), b.take(slice(k, k + 1)), workspace)
        raise


def _tv_stack(a, b, workspace) -> list[float]:
    knots_a = a.ppf(_TV_LADDER)
    peak_a = _peaks(a, knots_a)[:, None]
    knots_b = b.ppf(_TV_LADDER)
    peak_b = _peaks(b, knots_b)[:, None]
    lo = np.minimum(knots_a[:, :1], knots_b[:, :1])
    hi = np.maximum(knots_a[:, -1:], knots_b[:, -1:])

    # extend each pair's range by a quarter of its span at a time until both
    # densities are below _TAIL_FRACTION of their peaks, the left end first;
    # a dead end stays put, so probing it again gives the same answer
    for end, step, side in ((lo, -0.25, "left"), (hi, 0.25, "right")):
        for _ in range(60):
            dead = a.pdf(end) < _TAIL_FRACTION * peak_a
            if dead.any():  # b is probed only if some end of a is dead
                dead &= b.pdf(end) < _TAIL_FRACTION * peak_b
            if dead.all():
                break
            end[~dead] += step * (hi - lo)[~dead]
        else:
            raise NumericError(f"could not truncate the {side} tail below threshold")

    # each repeated breakpoint moved onto hi: a pair's distinct breakpoints
    # come first, then copies of its hi
    edges = np.sort(np.clip(np.concatenate((lo, hi, knots_a, knots_b), axis=1), lo, hi), axis=1)
    np.copyto(edges[:, 1:], hi, where=edges[:, 1:] == edges[:, :-1])
    edges.sort(axis=1)
    panels = np.count_nonzero(edges < hi, axis=1)
    width = int(panels.max())
    edges = edges[:, :width + 1]
    # the coarse panels, then each of them split at its midpoint
    halves = np.empty((len(a), 2 * width + 1))
    halves[:, ::2] = edges
    halves[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])

    # a row's coarse panels padded to width, then its halves padded to 2 width,
    # in views of the workspace: x, w, two scratch rows, f, g and |f - g|, each
    # a (pairs, nodes) array, the last three one (3, pairs, nodes) block
    nodes = _GL_NODES.size
    row = 3 * width * nodes
    if workspace is None:
        workspace = _workspace(len(a), row)
    size = len(a) * row
    x, w, *scratch = (workspace[i * size:(i + 1) * size].reshape(len(a), row) for i in range(4))
    values = workspace[4 * size:7 * size].reshape(3, len(a), row)
    f, g, d = values
    left = np.concatenate((edges[:, :-1], halves[:, :-1]), axis=1)
    _gauss_legendre(left, np.concatenate((edges[:, 1:], halves[:, 1:]), axis=1), x, w)
    a.pdf(x, f, scratch)
    b.pdf(x, g, scratch)
    np.abs(np.subtract(f, g, out=d), out=d)

    # each pair's mass of f and of g and its integral of |f - g|, on the coarse
    # panels and on the halves
    sums = np.empty((len(a), 2, 3))
    for k, count in enumerate(panels.tolist()):
        for rule, own in enumerate((slice(0, nodes * count),
                                    slice(nodes * width, nodes * (width + 2 * count)))):
            np.matmul(values[:, k, own], w[k, own], out=sums[k, rule])
    coarse, fine = sums[:, 0], sums[:, 1]
    error = np.max(np.abs(coarse - fine), axis=1)
    failing = np.flatnonzero(
        (error > _TV_ACCURACY) | np.any(np.abs(fine[:, :2] - 1.0) > 1e-6, axis=1)
    )
    if failing.size:  # the first failing pair raises its first failing check
        k = int(failing[0])
        if error[k] > _TV_ACCURACY:
            raise NumericError(f"quadrature error {float(error[k]):.2e} exceeds {_TV_ACCURACY:.0e}")
        mass_a, mass_b = fine[k, :2].tolist()
        if abs(mass_a - 1.0) > 1e-6:
            raise ValueError(f"first density integrates to {mass_a}, not 1")
        raise ValueError(f"second density integrates to {mass_b}, not 1")
    return [min(max(0.5 * l1, 0.0), 1.0) for l1 in fine[:, 2].tolist()]


def tv_distance(density_a, density_b) -> float:
    """Total variation distance ``(1/2) \\int |f - g|`` by a fixed-node rule.

    Both arguments must expose ``pdf`` and ``ppf`` that take a float or an
    array.  The integral runs over the union of the effective supports,
    truncating tails where both densities are below 1e-12 of their largest
    values at the levels of ``_TV_LADDER``.  Panel breakpoints are the ends
    of that range and each density's quantiles at those levels, all asked
    for in one ``ppf`` call; every panel gets a 16-point Gauss–Legendre rule,
    and both densities are evaluated once, on all nodes.  The same rule on
    the panels split in half gives the returned value; if the two rules
    disagree on either mass or on the TV by more than 1e-4, a
    :class:`NumericError` is raised, so the absolute accuracy is 1e-4.
    Inputs must each integrate to 1 within 1e-6 over that range, otherwise a
    ``ValueError`` is raised.  This is the one-pair call of the pass that
    takes the TVs of ``diag bvm``.
    """
    (tv,) = _tv_pass(_One(density_a), _One(density_b))
    return tv


# ---------------------------------------------------------------------------
# Normal-limit convergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BvmRow:
    """Mean TV distances to the normal limits at one sample size.

    ``tv_tempered`` pairs the uncorrected tempered posterior with
    ``N(theta_hat, 2 kappa_dagger theta_dagger^2 / n)``; ``tv_modified``
    pairs the shifted posterior with ``N(theta_hat - jump_qv_hat / T,
    2 theta_star^2 / n)``.  Truth enters only through the normal parameters.
    """

    n: int
    reps: int
    tv_tempered: float
    tv_tempered_stderr: float
    tv_modified: float
    tv_modified_stderr: float


def _replicate_per_seed(stat, cells, reps: int, seed: int, work: int, per_process: int):
    """:func:`replicate` of a ``stat`` that gives one result per seed, on
    ``_pool_size(work, per_process)`` processes.  Each cell is cut into one
    block a process, of at most ``_BLOCK`` reps, so that every process takes
    an even share of each cell.  The results depend on neither."""
    workers = _pool_size(work, per_process)
    return replicate(stat, cells, reps, seed, workers, min(_BLOCK, -(-reps // workers)))


def _bvm_distances(diff, jumps, prior, rule, n, seeds) -> list[tuple[float, float]]:
    """TV distances of the tempered and shifted posteriors to their limits,
    one pair per seed.  The paths are simulated and inferred in the row
    chunks of the coverage experiment, and each chunk's TVs are taken in
    passes of :data:`_TV_PASS` pairs, all in one workspace.  A row whose
    limits cannot be formed raises after the TVs of the rows before it."""
    distances = []
    workspace = _workspace(_TV_PASS)
    for mu, rows in _inferred_chunks(diff, jumps, n, seeds, rule, prior):
        limits, refusal = [], None
        for i, window_sums in enumerate(mu):
            try:
                truth = TruthSummary(diff.theta_star, PathTruth(window_sums).jump_qv, rows.horizon)
                if rows.faults[i] is not None:
                    raise rows.faults[i]
                theta_hat, shift = float(rows.theta_hat[i]), float(rows.shift[i])
                limits += [
                    _limit(
                        theta_hat,
                        2.0 * truth.kappa_dagger * truth.theta_dagger**2 / n,
                        "the tempered limit variance 2 kappa_dagger theta_dagger^2 / n",
                        truth,
                    ),
                    _limit(
                        theta_hat - shift,
                        2.0 * truth.theta_star**2 / n,
                        "the limit variance 2 theta_star^2 / n",
                        truth,
                    ),
                ]
            except JumpvolError as err:
                refusal = err
                break
        # each row's tempered posterior (no shift), then its shifted one
        done = len(limits) // 2
        posteriors = _Posteriors(
            np.repeat(rows.shape[:done], 2),
            np.repeat(rows.rate[:done], 2),
            np.stack([np.zeros(done), rows.shift[:done]], axis=1).ravel(),
        )
        normals = _Normals(np.array([l.mean for l in limits]), np.array([l.sd for l in limits]))
        tvs = []
        for start in range(0, len(limits), _TV_PASS):
            part = slice(start, start + _TV_PASS)
            tvs += _tv_pass(posteriors.take(part), normals.take(part), workspace)
        distances += zip(tvs[::2], tvs[1::2])
        if refusal is not None:
            raise refusal
    return distances


def bvm_convergence_check(
    diff: DiffusionSpec,
    jumps: JumpSpec,
    n_grid,
    reps: int,
    seed: int,
    prior: InverseGammaParams = CoverageConfig.prior,
    threshold: ThresholdRule = CoverageConfig.threshold,
) -> list[BvmRow]:
    """Mean TV distance to the normal limits along an increasing n grid.

    Runs on a pool of one process for each ``_BVM_REPS_PER_WORKER``
    replications over the grid, up to the usable CPUs, so on two CPUs even
    the floor of 100 reps at two sample sizes is pooled; a daemon process,
    or one CPU, runs them in this process.  The rows do not depend on the
    process count.
    """
    grid = _sample_sizes(n_grid)
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("n_grid must be strictly increasing with >= 2 entries")
    reps = _integer(reps, "reps")
    if reps < 100:
        raise ConfigurationError(f"need at least 100 replications, got {reps}")
    stat = partial(_bvm_distances, diff, jumps, prior, threshold)
    results = _replicate_per_seed(stat, grid, reps, seed, reps * len(grid), _BVM_REPS_PER_WORKER)
    rows = []
    for n, distances in zip(grid, results):
        tempered, modified = (_mean_and_stderr(np.array(tv)) for tv in zip(*distances))
        rows.append(BvmRow(n, reps, *tempered, *modified))
    return rows


# ---------------------------------------------------------------------------
# Conditional variance and MSE of the jump-blind estimator
# ---------------------------------------------------------------------------

def sandwich_variance(truth: TruthSummary, n: int) -> float:
    """Leading term of the conditional variance of ``theta_hat``:
    ``(2 theta_dagger^2 / n) * (1 - (jump_qv / (T theta_dagger))^2)``.

    With no jumps this is the efficiency benchmark ``2 theta_star^2 / n``.
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    ratio = truth.jump_qv / (truth.horizon * truth.theta_dagger)
    return _resolved(
        (2.0 * truth.theta_dagger**2 / n) * (1.0 - ratio**2),
        "the sandwich variance",
        truth,
    )


@dataclass(frozen=True)
class MseOracleResult:
    """Conditional Monte Carlo for ``theta_hat`` against one fixed jump path.

    ``empirical_mse`` targets ``E (theta_hat - theta_dagger)^2``;
    ``empirical_variance`` is the plain sample variance.  Two closed-form
    candidates for the leading O(1/n) term are reported with their relative
    discrepancies: ``product_form = 2 theta_star theta_dagger / n`` and the
    sandwich value.  The numbers adjudicate; no winner is assumed.
    """

    n: int
    reps: int
    theta_dagger: float
    empirical_mse: float
    empirical_mse_stderr: float
    empirical_variance: float
    empirical_variance_stderr: float
    product_form: float
    sandwich: float

    @property
    def product_form_discrepancy(self) -> float:
        """Relative discrepancy of the empirical MSE from the product form."""
        return abs(self.empirical_mse - self.product_form) / self.product_form

    @property
    def sandwich_discrepancy(self) -> float:
        """Relative discrepancy of the empirical MSE from the sandwich value."""
        return abs(self.empirical_mse - self.sandwich) / self.sandwich


def _mles_given_jumps(diff, fixed_jumps, n, seeds) -> list[float]:
    """``compute_mle(simulate_path_given_jumps(diff, fixed_jumps, n, seed))``
    for each seed, a chunk of rows at a time; the first row whose MLE
    overflows raises that stage's error."""
    _check_increments(n)
    horizon = n * (diff.horizon / n)  # SamplePath.horizon
    mles = []
    roots = [stream for (stream,) in _streams(seeds, [[]])]
    for chunk in _chunks(n, roots):
        increments, _ = _path_rows(diff, [fixed_jumps] * len(chunk), n, chunk)
        with np.errstate(over="ignore"):  # an overflow is refused below
            theta_hat = np.sum(increments * increments, axis=-1) / horizon
        overflows = np.flatnonzero(theta_hat == math.inf)
        if overflows.size:
            mle_from_increments(increments[overflows[0]], horizon)  # raises
        mles += theta_hat.tolist()
    return mles


def mse_oracle(
    diff: DiffusionSpec,
    fixed_jumps: JumpRealization,
    n: int,
    reps: int,
    seed: int,
) -> MseOracleResult:
    """Redraw the diffusion part ``reps`` times against one frozen jump path
    and measure how ``theta_hat`` scatters around ``theta_dagger``.

    Runs on a pool of one process for each ``_MSE_INCREMENTS_PER_WORKER``
    simulated increments (``reps * n``), up to the usable CPUs; a daemon
    process, or one CPU, runs them in this process.  The result does not
    depend on the process count.
    """
    n = _integer(n, "n")
    reps = _integer(reps, "reps")
    if reps < 1000:
        raise ConfigurationError(f"need at least 1000 replications, got {reps}")
    jump_truth = PathTruth(bin_jumps(fixed_jumps, n, diff.horizon)[0])
    horizon = n * (diff.horizon / n)
    truth = TruthSummary(diff.theta_star, jump_truth.jump_qv, horizon)
    product_form = _resolved(
        2.0 * diff.theta_star * truth.theta_dagger / n, "the product form", truth
    )
    sandwich = sandwich_variance(truth, n)
    stat = partial(_mles_given_jumps, diff, fixed_jumps)
    (estimates,) = _replicate_per_seed(stat, [n], reps, seed, reps * n, _MSE_INCREMENTS_PER_WORKER)
    estimates = np.array(estimates)
    with np.errstate(over="ignore"):  # an overflow is refused below
        errors = (estimates - truth.theta_dagger) ** 2
    overflows = np.flatnonzero(errors == math.inf)
    if overflows.size:
        raise ConfigurationError(
            f"the squared error (theta_hat - theta_dagger)^2 overflows at theta_hat = "
            f"{float(estimates[overflows[0]])!r}, theta_dagger = {truth.theta_dagger!r} "
            f"(beta = {diff.beta!r})"
        )
    mse, mse_stderr = _mean_and_stderr(errors)
    squares = (estimates - estimates.mean()) ** 2
    _, variance_stderr = _mean_and_stderr(squares)
    scaled, scale = _scaled(squares)  # so the sum in estimates.var(ddof=1) cannot overflow
    return MseOracleResult(
        n=n,
        reps=reps,
        theta_dagger=float(truth.theta_dagger),
        empirical_mse=mse,
        empirical_mse_stderr=mse_stderr,
        empirical_variance=float(scaled.sum() / (reps - 1)) * scale,
        empirical_variance_stderr=variance_stderr,
        product_form=product_form,
        sandwich=sandwich,
    )


# ---------------------------------------------------------------------------
# Error rate of the jump QV estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QvRateResult:
    """Mean absolute estimation error by sample size, with the fitted slope
    of log MAE against log n."""

    n_grid: tuple[int, ...]
    mae: tuple[float, ...]
    mae_stderr: tuple[float, ...]
    slope: float


def _qv_errors(diff, jumps, rule, n, seeds) -> list[float]:
    """Absolute error of the thresholded jump QV estimate, one path per seed,
    a chunk of rows at a time."""
    errors = []
    for increments, mu in _simulated_chunks(diff, jumps, n, seeds):
        eta = rule.resolve(increments)
        refused = np.flatnonzero(~(eta > 0))
        if refused.size:
            estimate_jump_qv(increments[refused[0]], float(eta[refused[0]]))  # raises
        _, hats = _flag_rows(increments, eta)
        errors.extend(abs(hat - PathTruth(window_sums).jump_qv)
                      for hat, window_sums in zip(hats.tolist(), mu))
    return errors


def qv_error_rate(
    diff: DiffusionSpec,
    jumps: JumpSpec,
    n_grid,
    reps: int,
    seed: int,
    threshold: ThresholdRule = CoverageConfig.threshold,
) -> QvRateResult:
    """Monte Carlo error-rate regression for the thresholded estimator.

    For each sample size the mean absolute error ``E|hat - true|`` against
    the simulator's truth is estimated over ``reps`` replications, and the
    least-squares slope of log MAE on log n is returned.  If any MAE is zero
    (e.g. no jumps at all) the slope is NaN.

    Runs on a pool of one process for each ``_QV_INCREMENTS_PER_WORKER``
    simulated increments (``reps`` times the sum of the grid), up to the
    usable CPUs; a daemon process, or one CPU, runs them in this process.
    The result does not depend on the process count.
    """
    grid = sorted(set(_sample_sizes(n_grid)))
    if len(grid) < 3:
        raise ConfigurationError("n_grid needs at least 3 distinct sample sizes")
    if grid[-1] < 10 * grid[0]:
        raise ConfigurationError("n_grid must span at least one decade")
    reps = _integer(reps, "reps")
    if reps < 200:
        raise ConfigurationError(f"need at least 200 replications, got {reps}")
    stat = partial(_qv_errors, diff, jumps, threshold)
    work = reps * sum(grid)
    results = _replicate_per_seed(stat, grid, reps, seed, work, _QV_INCREMENTS_PER_WORKER)
    mae, stderr = zip(*(_mean_and_stderr(np.array(errors)) for errors in results))
    if min(mae) <= 0.0:
        slope = math.nan
    else:
        slope = float(np.polyfit(np.log(grid), np.log(mae), 1)[0])
    return QvRateResult(n_grid=tuple(grid), mae=mae, mae_stderr=stderr, slope=slope)
