"""Volatility inference from increments that deliberately ignore the jumps.

Treating the increments as iid ``N(0, theta * delta)`` gives a closed-form
likelihood whose maximizer is ``theta_hat = T^{-1} sum D_i^2``.  The working
posterior raises that likelihood to the power ``1/kappa`` (a temperature) and
stays conjugate to an inverse-gamma prior:

    shape' = a + n / (2 * kappa),    rate' = b + n * theta_hat / (2 * kappa).

Two corrections repair the damage the ignored jumps do to this posterior:
the temperature ``kappa = (1 - jump_qv_hat / (T * theta_hat))^2`` restores
the efficient spread, and subtracting ``jump_qv_hat / T`` from the location
re-centers it on the diffusion volatility.  For large n the corrected
posterior is close to ``N(theta_hat - jump_qv_hat / T, 2 * center^2 / n)``.
:func:`infer_increments` runs these stages in order on one set of increments.
"""

from __future__ import annotations

__all__ = [
    "CredibleInterval",
    "GibbsPosterior",
    "Inference",
    "InverseGammaParams",
    "KAPPA_FLOOR",
    "NormalApprox",
    "TruncatedPosterior",
    "bvm_normal",
    "compute_kappa",
    "compute_mle",
    "credible_interval",
    "gibbs_update",
    "infer_increments",
    "mle_from_increments",
    "modify_posterior",
    "tempered_update",
]

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special as sc

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DegenerateInferenceError,
    JumpvolError,
    NumericError,
)
from .simulate import SamplePath
from .threshold import QvEstimate, ThresholdRule, _flag_rows, estimate_jump_qv

#: Temperatures below this floor mean essentially all variation was flagged
#: as jumps; inference is refused rather than numerically exploded.
KAPPA_FLOOR = 1e-6

#: Largest posterior-mass residual ``|F(x) - q|`` a returned quantile ``x`` may
#: have; a larger one raises :class:`NumericError`.
QUANTILE_TOL = 1e-9

_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class InverseGammaParams:
    """Shape/rate parameters of an inverse-gamma law
    (density proportional to ``x^{-shape-1} exp(-rate/x)`` on ``x > 0``)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise ConfigurationError(f"shape must be positive and finite, got {self.shape}")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ConfigurationError(f"rate must be positive and finite, got {self.rate}")


def _stirlerr(a: float) -> float:
    """Error of Stirling's formula, ``log Gamma(a) - (a - 1/2) log a + a -
    log(2 pi) / 2``: directly below 15, and from 15 up by its asymptotic
    series, whose first omitted term is below 3e-16 there."""
    if a < 15.0:
        return float(sc.gammaln(a)) - (a - 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    b = 1.0 / (a * a)
    return (1 / 12 - b * (1 / 360 - b * (1 / 1260 - b * (1 / 1680 - b / 1188)))) / a


def _log_scale(shape):
    """``log(shape / 2 pi) / 2 - stirlerr(shape)``, of a float or of each
    element of an array."""
    if isinstance(shape, np.ndarray):
        return np.array([_log_scale(a) for a in shape.ravel().tolist()]).reshape(shape.shape)
    return 0.5 * math.log(shape / (2.0 * math.pi)) - _stirlerr(shape)


def _outputs(out, work) -> tuple[dict, dict]:
    """The ``out`` keywords of a density kernel's two chains of steps, which
    start in ``out`` and in ``work`` when these are given; each later step is
    in place, which a numpy scalar takes as its own fast arithmetic.  No
    keyword at all is passed without them: a ufunc given none, not even
    ``out=None``, takes numpy's fast path on a scalar."""
    if out is None:
        return {}, {}
    return {"out": out}, {"out": work}


def _invgamma_pdf(x, shape, rate, out=None, work=None):
    """Inverse-gamma density in the saddle-point form of Loader (2000), "Fast
    and accurate computation of binomial probabilities": with ``r = rate /
    (shape x)``,

        log f(x) = shape (log r - (r - 1)) + log(shape / 2 pi) / 2 - stirlerr(shape) - log x.

    No term of size ``shape log rate`` is formed, so the rounding error does
    not grow with the shape as it does in ``shape log rate - gammaln(shape)
    - (shape + 1) log x - rate / x``.  ``r - 1`` is exact near the mode, and
    ``log r`` (not ``log1p(r - 1)``) keeps its precision far in the right
    tail, where ``r`` is tiny.  ``shape`` and ``rate`` are floats, or arrays
    that broadcast against ``x`` with one law per element; each element is
    then what the floats give.

    Given ``out`` and ``work``, two arrays of the broadcast shape apart from
    ``x``, the density is written into ``out``, ``work`` is overwritten, and
    no array of that shape is allocated; the values are the same bits.
    """
    # a float becomes a numpy scalar, whose arithmetic costs less than a 0-d array's
    x = np.asarray(x, dtype=float)[()]
    log_scale = _log_scale(shape)
    into, scratch = _outputs(out, work)
    # evaluated everywhere, and replaced by 0 where x <= 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # capped so that an overflowing ratio gives a zero density, not inf - inf
        r = np.minimum(np.divide(rate / shape, x, **scratch), _FLOAT_MAX, **scratch)
        density = np.log(r, **into)
        r -= 1.0
        density -= r
        density *= shape
        density += log_scale
        density = np.exp(density, **into)
        density /= x
    if out is None:
        out = np.where(x > 0, density, 0.0)
        return out if out.ndim else float(out)
    np.copyto(out, 0.0, where=~(x > 0))
    return out


def _invgamma_cdf(x, shape: float, rate: float):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = sc.gammaincc(shape, rate / x[pos])
    return out if out.ndim else float(out)


def _gammaincc_root(shape: float, q: float, y: float) -> float:
    """Root of ``Q(shape, t) = q`` in a bracket around the estimate ``y``,
    widened from a thousandth of the gamma law's spread until ``Q - q``
    changes sign across it."""
    from scipy.optimize import brentq  # imported here: it is slow to load and rarely needed

    def excess(t: float) -> float:
        return float(sc.gammaincc(shape, t)) - q

    step = 1e-3 * math.sqrt(shape)
    while excess(max(y - step, 0.0)) * excess(y + step) > 0.0:
        step *= 2.0
    return brentq(excess, max(y - step, 0.0), y + step)


def _levels(q) -> np.ndarray:
    """Quantile levels as a float array, checked to lie in (0, 1); the
    message names the first level outside.  Levels come a few at a time, and
    a pass over them as floats costs less than array operations would."""
    q = np.asarray(q, dtype=float)
    for level in q.ravel().tolist():
        if not 0.0 < level < 1.0:
            raise ConfigurationError(f"quantile level must lie in (0, 1), got {level}")
    return q


def _invgamma_ppf(q, shape, rate):
    """Inverse-gamma quantiles ``rate / Q^{-1}(shape, q)``, with ``Q`` the
    regularized upper incomplete gamma function, at levels ``q`` broadcast
    against ``shape`` and ``rate``; all three floats give a float.

    Where ``gammainccinv`` misses :data:`QUANTILE_TOL` (from shapes of about
    3.5e7 near ``q = 1 - 1e-6``), a bracketed root solve of the same residual
    refines that element; every other quantile is the closed form as is.
    """
    q = _levels(q)
    y = sc.gammainccinv(shape, q)
    # y is 0 or subnormal where the quantile overflows, and x = +inf there
    with np.errstate(divide="ignore", over="ignore"):
        x = np.where(y > 0.0, rate / y, math.inf)
    excess = sc.gammaincc(shape, rate / x) - q
    for i in np.flatnonzero(~(np.abs(excess) <= QUANTILE_TOL)).tolist():
        a, b, level, guess = (float(np.broadcast_to(v, x.shape).flat[i])
                              for v in (shape, rate, q, y))
        if 0.0 < guess < math.inf:
            x.flat[i] = b / _gammaincc_root(a, level, guess)
        residual = abs(float(sc.gammaincc(a, b / x.flat[i])) - level)
        if not residual <= QUANTILE_TOL:
            raise NumericError(
                f"quantile out of tolerance: shape={a}, rate={b}, "
                f"q={level}, x={x.flat[i]}, mass residual={residual:.3e}"
            )
    return x if x.ndim else float(x)


@dataclass(frozen=True)
class GibbsPosterior:
    """Tempered conjugate posterior: an inverse-gamma law moved left by
    ``shift`` (``jump_qv_hat / T`` after :func:`modify_posterior`, else 0).

    The density at ``x`` equals the inverse-gamma density at ``x + shift``;
    support is ``(-shift, inf)``.  No renormalization to the positive axis is
    applied; :meth:`truncated_positive` returns the clipped, renormalized law.
    """

    ig: InverseGammaParams
    shift: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.shift) and self.shift >= 0):
            raise ConfigurationError(f"shift must be nonnegative, got {self.shift}")

    def pdf(self, x):
        return _invgamma_pdf(np.asarray(x, dtype=float) + self.shift, self.ig.shape, self.ig.rate)

    def cdf(self, x):
        return _invgamma_cdf(np.asarray(x, dtype=float) + self.shift, self.ig.shape, self.ig.rate)

    def ppf(self, q):
        return _invgamma_ppf(q, self.ig.shape, self.ig.rate) - self.shift

    @property
    def mean(self) -> float:
        if self.ig.shape <= 1:
            raise ValueError(f"mean undefined for shape {self.ig.shape} <= 1")
        return self.ig.rate / (self.ig.shape - 1.0) - self.shift

    @property
    def variance(self) -> float:
        a, b = self.ig.shape, self.ig.rate
        if a <= 2:
            raise ValueError(f"variance undefined for shape {a} <= 2")
        return b * b / ((a - 1.0) ** 2 * (a - 2.0))

    @property
    def mass_below_zero(self) -> float:
        """Posterior mass the shift pushed onto ``(-shift, 0]``."""
        return float(self.cdf(0.0))

    def truncated_positive(self) -> "TruncatedPosterior":
        return TruncatedPosterior(self)


@dataclass(frozen=True)
class TruncatedPosterior:
    """A shifted posterior clipped to ``(0, inf)`` and renormalized.

    A :class:`DegenerateInferenceError` is raised when the mass left above
    zero is within :data:`QUANTILE_TOL`, the mass residual that the source's
    quantiles may have: no quantile of the clipped law is resolved then.
    """

    source: GibbsPosterior
    mass_below_zero: float = field(init=False)

    def __post_init__(self):
        f0 = self.source.mass_below_zero
        if not 1.0 - f0 > QUANTILE_TOL:
            raise DegenerateInferenceError(
                f"mass_below_zero is {f0}: the shift {self.source.shift} leaves "
                f"at most {QUANTILE_TOL:.0e} of the posterior mass above zero"
            )
        object.__setattr__(self, "mass_below_zero", f0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, self.source.pdf(x) / (1.0 - self.mass_below_zero), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        f0 = self.mass_below_zero
        out = np.where(x > 0, np.clip((self.source.cdf(x) - f0) / (1.0 - f0), 0.0, 1.0), 0.0)
        return out if out.ndim else float(out)

    def ppf(self, q):
        f0 = self.mass_below_zero
        return self.source.ppf(f0 + _levels(q) * (1.0 - f0))


@dataclass(frozen=True)
class NormalApprox:
    """A normal law used as the large-sample stand-in for a posterior."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ConfigurationError(f"variance must be positive and finite, got {self.variance}")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def pdf(self, x):
        return _normal_pdf(x, self.mean, self.sd)

    def cdf(self, x):
        out = sc.ndtr((np.asarray(x, dtype=float) - self.mean) / self.sd)
        return out if out.ndim else float(out)

    def ppf(self, q):
        out = _normal_ppf(_levels(q), self.mean, self.sd)
        return out if out.ndim else float(out)


def _normal_pdf(x, mean, sd, out=None, work=None):
    """The ``N(mean, sd^2)`` density at ``x``; ``mean`` and ``sd`` are floats,
    or arrays of one shape that broadcast against ``x`` with one law per
    element.  Given ``out`` and ``work`` as in :func:`_invgamma_pdf`, the
    density is written into ``out`` and ``work`` is overwritten."""
    into, scratch = _outputs(out, work)
    z = np.subtract(np.asarray(x, dtype=float), mean, **scratch)
    z /= sd
    with np.errstate(over="ignore"):  # a square past the float range gives exp(-inf) = 0
        density = np.multiply(-0.5, z, **into)
        density *= z
        density = np.exp(density, **into)
        density /= sd * math.sqrt(2.0 * math.pi)
    return density if density.ndim else float(density)


def _normal_ppf(q, mean, sd):
    """The ``N(mean, sd^2)`` quantiles at levels ``q``, broadcast as in
    :func:`_normal_pdf`."""
    return mean + sd * sc.ndtri(q)


@dataclass(frozen=True)
class CredibleInterval:
    """Equal-tailed interval with the given posterior mass."""

    level: float
    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ConfigurationError(f"level must lie in (0, 1), got {self.level}")
        if not self.lo <= self.hi:
            raise ConfigurationError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def mle_from_increments(increments, horizon: float) -> float:
    """``theta_hat = horizon^{-1} * sum D_i^2`` (drift ignored by design)."""
    d = np.asarray(increments, dtype=float)
    if d.size < 1:
        raise ConfigurationError("need at least one increment")
    if not (np.isfinite(horizon) and horizon > 0):
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    with np.errstate(over="ignore"):  # an overflow is refused below
        squares = float(np.sum(d * d))
        theta_hat = squares / horizon
    if theta_hat == math.inf:
        raise ConfigurationError(
            f"theta_hat = sum D_i^2 / horizon overflows: sum D_i^2 = {squares}, horizon = {horizon}"
        )
    return theta_hat


def compute_mle(path: SamplePath) -> float:
    """Maximum-likelihood volatility under the jump-blind normal model."""
    return mle_from_increments(path.increments, path.horizon)


def compute_kappa(theta_hat: float, qv: QvEstimate, horizon: float) -> float:
    """Temperature ``kappa = (1 - jump_qv_hat / (horizon * theta_hat))^2``.

    Because the flagged sum can never exceed the total sum of squares, kappa
    lies in [0, 1]; values below :data:`KAPPA_FLOOR` mean essentially all
    variation was attributed to jumps and raise a degenerate-inference error.
    """
    if not (np.isfinite(theta_hat) and theta_hat > 0):
        raise DegenerateDataError(f"theta_hat must be positive, got {theta_hat}")
    if not (np.isfinite(horizon) and horizon > 0):
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    kappa = (1.0 - qv.jump_qv_hat / (horizon * theta_hat)) ** 2
    if not kappa > KAPPA_FLOOR:
        raise DegenerateInferenceError(
            f"temperature {kappa:.3e} below floor {KAPPA_FLOOR:.0e}: "
            "essentially all variation was flagged as jumps"
        )
    return float(kappa)


def tempered_update(prior: InverseGammaParams, n: int, theta_hat: float, kappa: float) -> GibbsPosterior:
    """Conjugate update of an inverse-gamma prior by the tempered likelihood.

    ``shape' = a + n/(2 kappa)`` and ``rate' = b + n theta_hat/(2 kappa)``,
    which is exactly the normalization of ``L_n(theta)^{1/kappa} pi(theta)``.
    Any finite ``kappa`` above the floor is accepted (large values wash the
    likelihood out and return the prior in the limit).
    """
    if n < 1:
        raise ConfigurationError(f"need at least one observation, got n={n}")
    if not (np.isfinite(theta_hat) and theta_hat >= 0):
        raise ConfigurationError(f"theta_hat must be nonnegative, got {theta_hat}")
    if not np.isfinite(kappa) or kappa <= KAPPA_FLOOR:
        raise DegenerateInferenceError(
            f"temperature {kappa} out of range (must be finite and > {KAPPA_FLOOR:.0e})"
        )
    half = n / (2.0 * kappa)
    shape, rate = prior.shape + half, prior.rate + half * theta_hat
    for name, value in (("shape", shape), ("rate", rate)):
        if value == math.inf:
            raise ConfigurationError(
                f"posterior {name} overflows to inf at theta_hat = {theta_hat}"
            )
    return GibbsPosterior(ig=InverseGammaParams(shape=shape, rate=rate))


def gibbs_update(prior: InverseGammaParams, path: SamplePath, kappa: float) -> GibbsPosterior:
    """Tempered conjugate update driven by a sample path."""
    return tempered_update(prior, n=path.n, theta_hat=compute_mle(path), kappa=kappa)


def modify_posterior(post: GibbsPosterior, qv: QvEstimate, horizon: float) -> GibbsPosterior:
    """``post`` with its shift set to ``jump_qv_hat / horizon``."""
    if not (np.isfinite(horizon) and horizon > 0):
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    return replace(post, shift=qv.jump_qv_hat / horizon)


def _tail_levels(level: float) -> np.ndarray:
    """The levels of an equal-tailed interval of mass ``level``."""
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"level must lie in (0, 1), got {level}")
    alpha = 1.0 - level
    return np.array([alpha / 2.0, 1.0 - alpha / 2.0])


def credible_interval(mod, level: float) -> CredibleInterval:
    """Equal-tailed credible interval from any object whose ``ppf`` takes an
    array of levels."""
    lo, hi = mod.ppf(_tail_levels(level)).tolist()
    return CredibleInterval(level=level, lo=lo, hi=hi)


def bvm_normal(theta_hat: float, qv: QvEstimate, horizon: float, n: int) -> NormalApprox:
    """Plug-in normal approximation ``N(center, 2 * center^2 / n)`` with
    ``center = theta_hat - jump_qv_hat / horizon``.

    The limiting variance involves the unknown true volatility; the shifted
    center is its consistent estimate and is plugged in.
    """
    if n < 1:
        raise ConfigurationError(f"need at least one observation, got n={n}")
    center = theta_hat - qv.jump_qv_hat / horizon
    if not (np.isfinite(center) and center > 0):
        raise DegenerateInferenceError(f"nonpositive shifted center {center}")
    return NormalApprox(mean=center, variance=2.0 * center * center / n)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Inference:
    """Every stage of the corrected posterior for one set of increments:
    the tempered ``posterior`` and the ``modified`` one shifted by
    ``qv.jump_qv_hat / horizon``."""

    n: int
    theta_hat: float
    qv: QvEstimate
    kappa: float
    posterior: GibbsPosterior
    modified: GibbsPosterior


@dataclass(frozen=True, eq=False)
class _RowInference:
    """The stages of :func:`infer_increments` on each row of an ``(m, n)``
    block, one array entry per row, and per row the error that the call on
    that row alone raises (None where it returns)."""

    n: int
    horizon: float
    eta: np.ndarray
    flags: np.ndarray
    jump_qv_hat: np.ndarray
    theta_hat: np.ndarray
    kappa: np.ndarray
    shape: np.ndarray
    rate: np.ndarray
    shift: np.ndarray
    faults: list

    def inference(self, i: int) -> Inference:
        """Row ``i`` as :func:`infer_increments` gives it, or its error raised."""
        if self.faults[i] is not None:
            raise self.faults[i]
        flagged = tuple((np.flatnonzero(self.flags[i]) + 1).tolist())
        post = GibbsPosterior(InverseGammaParams(float(self.shape[i]), float(self.rate[i])))
        return Inference(
            n=self.n,
            theta_hat=float(self.theta_hat[i]),
            qv=QvEstimate(float(self.eta[i]), float(self.jump_qv_hat[i]), flagged),
            kappa=float(self.kappa[i]),
            posterior=post,
            modified=GibbsPosterior(post.ig, float(self.shift[i])),
        )

    def intervals(self, level: float) -> tuple[np.ndarray, np.ndarray]:
        """The ends of each row's :func:`credible_interval` of the shifted
        posterior, NaN where the row's inference is degenerate.  After the
        level, the first other error of a row's inference is raised, before
        any interval is formed."""
        levels = _tail_levels(level)
        for fault in self.faults:
            if fault is not None and not isinstance(fault, DegenerateInferenceError):
                raise fault
        rows = np.flatnonzero([fault is None for fault in self.faults])
        ends = _invgamma_ppf(levels, self.shape[rows, None], self.rate[rows, None])
        ends -= self.shift[rows, None]
        disordered = np.flatnonzero(~(ends[:, 0] <= ends[:, 1]))
        if disordered.size:
            CredibleInterval(level, *ends[disordered[0]].tolist())  # raises
        lo, hi = np.full((2, len(self.faults)), math.nan)
        lo[rows], hi[rows] = ends.T
        return lo, hi


def _infer_rows(
    d: np.ndarray, horizon: float, rule: ThresholdRule, prior: InverseGammaParams
) -> _RowInference:
    """:func:`infer_increments` on each row of the ``(m, n)`` block ``d``.

    A row's error is that of the first stage it fails, as the stage's own
    function raises it on that row; an error of the whole block (too few
    increments for the rule) is every row's at the threshold.
    """
    m, n = d.shape
    try:
        eta, refused = rule.resolve(d), None
    except ConfigurationError as err:
        eta, refused = np.full(m, math.nan), err
    flags, hat = _flag_rows(d, eta)
    # as in the stage functions' float arithmetic, an overflow gives inf and
    # 0 / 0 gives NaN, without a warning; the mask below refuses both
    with np.errstate(all="ignore"):
        theta_hat = np.sum(d * d, axis=-1) / horizon
        # C pow, as a float's ** 2 is; x * x differs in the last bit at times
        kappa = np.float_power(1.0 - hat / (horizon * theta_hat), 2)
        half = n / (2.0 * kappa)
        shape, rate = prior.shape + half, prior.rate + half * theta_hat
        shift = hat / horizon
    accepted = (eta > 0) & np.isfinite(theta_hat) & (theta_hat > 0) & (kappa > KAPPA_FLOOR)
    accepted &= np.isfinite(kappa) & np.isfinite(shape) & np.isfinite(rate) & np.isfinite(shift)

    def refusal(i: int) -> JumpvolError:
        """The error of the first stage that refuses row ``i``, from the
        values computed for it above."""
        row, theta = d[i], float(theta_hat[i])
        # a finite positive theta_hat needs finite increments, n >= 1 and a
        # finite positive horizon: the row passes the increment check and the MLE
        mle_passes = 0.0 < theta < math.inf
        bad = () if mle_passes else np.flatnonzero(~np.isfinite(row)).tolist()
        if bad:
            return ConfigurationError(f"increment in row {bad[0] + 1} is not finite: {row[bad[0]]}")
        if refused is not None:
            return refused
        try:
            if not eta[i] > 0:
                estimate_jump_qv(row, float(eta[i]))
            if not mle_passes:
                mle_from_increments(row, horizon)
            compute_kappa(theta, QvEstimate(float(eta[i]), float(hat[i]), ()), horizon)
            tempered_update(prior, n, theta, float(kappa[i]))
            GibbsPosterior(InverseGammaParams(float(shape[i]), float(rate[i])), float(shift[i]))
        except JumpvolError as err:
            return err
        raise AssertionError(f"no stage refuses row {i} of the block")

    faults = [None if ok else refusal(i) for i, ok in enumerate(accepted.tolist())]
    return _RowInference(n, horizon, eta, flags, hat, theta_hat, kappa, shape, rate, shift, faults)


def infer_increments(
    increments, horizon: float, rule: ThresholdRule, prior: InverseGammaParams
) -> Inference:
    """Threshold, MLE, temperature, conjugate update and shift, in that order.

    Non-finite increments are rejected with a :class:`ConfigurationError`
    naming the first bad 1-based row.  When no temperature can be formed
    (``theta_hat`` is zero or ``kappa`` is at or below :data:`KAPPA_FLOOR`),
    a :class:`DegenerateInferenceError` is raised.  This is the one-row call
    of the block inference the coverage and normal-limit experiments run.
    """
    d = np.asarray(increments, dtype=float).reshape(1, -1)
    return _infer_rows(d, horizon, rule, prior).inference(0)
