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

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special as sc

from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DegenerateInferenceError,
    NumericError,
)
from .simulate import SamplePath
from .threshold import QvEstimate, ThresholdRule, estimate_jump_qv

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


def _invgamma_pdf(x, shape: float, rate: float):
    """Inverse-gamma density in the saddle-point form of Loader (2000), "Fast
    and accurate computation of binomial probabilities": with ``r = rate /
    (shape x)``,

        log f(x) = shape (log r - (r - 1)) + log(shape / 2 pi) / 2 - stirlerr(shape) - log x.

    No term of size ``shape log rate`` is formed, so the rounding error does
    not grow with the shape as it does in ``shape log rate - gammaln(shape)
    - (shape + 1) log x - rate / x``.  ``r - 1`` is exact near the mode, and
    ``log r`` (not ``log1p(r - 1)``) keeps its precision far in the right
    tail, where ``r`` is tiny.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    xp = x[pos]
    log_scale = 0.5 * math.log(shape / (2.0 * math.pi)) - _stirlerr(shape)
    with np.errstate(over="ignore", divide="ignore"):
        # capped so that an overflowing ratio gives a zero density, not inf - inf
        r = np.minimum((rate / shape) / xp, _FLOAT_MAX)
        out[pos] = np.exp(shape * (np.log(r) - (r - 1.0)) + log_scale) / xp
    return out if out.ndim else float(out)


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


def _invgamma_ppf(q: float, shape: float, rate: float) -> float:
    """Inverse-gamma quantile ``rate / Q^{-1}(shape, q)``, with ``Q`` the
    regularized upper incomplete gamma function.

    Where ``gammainccinv`` misses :data:`QUANTILE_TOL` (from shapes of about
    3.5e7 near ``q = 1 - 1e-6``), a bracketed root solve of the same residual
    refines it; every other quantile is the closed form as is.
    """
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"quantile level must lie in (0, 1), got {q}")
    y = float(sc.gammainccinv(shape, q))
    x = rate / y if y > 0.0 else math.inf
    residual = abs(float(sc.gammaincc(shape, rate / x)) - q)
    if not residual <= QUANTILE_TOL and 0.0 < y < math.inf:
        x = rate / _gammaincc_root(shape, q, y)
        residual = abs(float(sc.gammaincc(shape, rate / x)) - q)
    if not residual <= QUANTILE_TOL:
        raise NumericError(
            f"quantile out of tolerance: shape={shape}, rate={rate}, "
            f"q={q}, x={x}, mass residual={residual:.3e}"
        )
    return x


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

    def ppf(self, q: float) -> float:
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

    def ppf(self, q: float) -> float:
        f0 = self.mass_below_zero
        return self.source.ppf(f0 + q * (1.0 - f0))


@dataclass(frozen=True)
class NormalApprox:
    """A normal law used as the large-sample stand-in for a posterior."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ConfigurationError(f"variance must be positive, got {self.variance}")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.sd
        out = np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))
        return out if out.ndim else float(out)

    def cdf(self, x):
        out = sc.ndtr((np.asarray(x, dtype=float) - self.mean) / self.sd)
        return out if out.ndim else float(out)

    def ppf(self, q: float) -> float:
        return self.mean + self.sd * float(sc.ndtri(q))


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
    return float(np.sum(d * d)) / horizon


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
    ig = InverseGammaParams(shape=prior.shape + half, rate=prior.rate + half * theta_hat)
    return GibbsPosterior(ig=ig)


def gibbs_update(prior: InverseGammaParams, path: SamplePath, kappa: float) -> GibbsPosterior:
    """Tempered conjugate update driven by a sample path."""
    return tempered_update(prior, n=path.n, theta_hat=compute_mle(path), kappa=kappa)


def modify_posterior(post: GibbsPosterior, qv: QvEstimate, horizon: float) -> GibbsPosterior:
    """``post`` with its shift set to ``jump_qv_hat / horizon``."""
    if not (np.isfinite(horizon) and horizon > 0):
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    return replace(post, shift=qv.jump_qv_hat / horizon)


def credible_interval(mod, level: float) -> CredibleInterval:
    """Equal-tailed credible interval from any object exposing ``ppf``."""
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"level must lie in (0, 1), got {level}")
    alpha = 1.0 - level
    return CredibleInterval(level=level, lo=mod.ppf(alpha / 2.0), hi=mod.ppf(1.0 - alpha / 2.0))


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


def infer_increments(
    increments, horizon: float, rule: ThresholdRule, prior: InverseGammaParams
) -> Inference:
    """Threshold, MLE, temperature, conjugate update and shift, in that order.

    Non-finite increments are rejected with a :class:`ConfigurationError`
    naming the first bad 1-based row.  When no temperature can be formed
    (``theta_hat`` is zero or ``kappa`` is at or below :data:`KAPPA_FLOOR`),
    a :class:`DegenerateInferenceError` is raised.
    """
    d = np.asarray(increments, dtype=float)
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        raise ConfigurationError(f"increment in row {bad[0] + 1} is not finite: {d[bad[0]]}")
    qv = estimate_jump_qv(d, rule.resolve(d))
    theta_hat = mle_from_increments(d, horizon)
    kappa = compute_kappa(theta_hat, qv, horizon)
    post = tempered_update(prior, d.size, theta_hat, kappa)
    return Inference(
        n=d.size,
        theta_hat=theta_hat,
        qv=qv,
        kappa=kappa,
        posterior=post,
        modified=modify_posterior(post, qv, horizon),
    )
