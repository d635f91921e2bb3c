"""Unnormalized log-densities targeted by the samplers.

A target is always of the form

    log pi(theta) = (lam / T) * loglik(theta) + (1 / T) * logprior(theta)

where ``lam`` is a likelihood-tempering exponent in [0, 1] and ``T`` a
temperature (T < 1 sharpens the whole posterior). The prior is an isotropic
Gaussian: zero-mean, or anchored at a MAP estimate with shrunken variance
s*v by ``make_anchored``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


class NonFiniteDensityError(ValueError):
    """Raised when a likelihood or prior evaluation is NaN or +inf.

    Samplers catch this and treat the offending proposal as rejected.
    A value of -inf (zero probability) is legitimate and does not raise.
    """


def _check_finite(value: float, what: str) -> float:
    if np.isnan(value) or value == np.inf:
        raise NonFiniteDensityError(f"{what} evaluated to {value!r}")
    return value


def _finite_grad(grad: np.ndarray) -> np.ndarray:
    grad = np.asarray(grad, dtype=float)
    if not np.isfinite(grad).all():
        raise NonFiniteDensityError("log-likelihood gradient is non-finite")
    return grad


def row_dots(x: np.ndarray) -> float | np.ndarray:
    """``np.dot(x, x)``, or that of each row of a bank ``x``, summed in
    ``np.dot``'s own order, so a bank's row gets the bits of one chain."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class GaussianPrior:
    """Isotropic N(mean, v*Id) prior on d coordinates; the mean is zero
    unless one is given."""

    variance: float
    dim: int
    mean: np.ndarray | None = None

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError(f"prior variance must be positive, got {self.variance}")
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        mean = np.zeros(self.dim) if self.mean is None else np.asarray(self.mean, dtype=float)
        if mean.shape != (self.dim,):
            raise ValueError(f"prior mean has shape {mean.shape}, expected ({self.dim},)")
        object.__setattr__(self, "mean", mean)

    @property
    def marginal_std(self) -> float:
        return float(np.sqrt(self.variance))

    def log_density(self, theta: np.ndarray) -> float | np.ndarray:  # or one per row of a bank
        v = self.variance
        r = theta - self.mean
        return -0.5 * self.dim * np.log(2 * np.pi * v) - 0.5 * row_dots(r) / v

    def grad_log_density(self, theta: np.ndarray) -> np.ndarray:
        return (self.mean - theta) / self.variance

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        size = self.dim if n is None else (n, self.dim)
        return self.mean + rng.normal(0.0, self.marginal_std, size=size)


LogLik = Callable[[np.ndarray], float]
LogLikAndGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class TargetDensity:
    """Tempered product of a likelihood and a Gaussian prior.

    ``loglik`` (the value) and ``loglik_and_grad`` (value and gradient from
    one pass) are injected pure functions of the flat parameter vector, so
    the same machinery serves neural-network and synthetic Gaussian
    likelihoods.
    """

    loglik: LogLik
    loglik_and_grad: LogLikAndGrad
    prior: GaussianPrior
    lam: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        if not (0 <= self.lam <= 1):
            raise ValueError(f"tempering exponent must lie in [0, 1], got {self.lam}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")

    @property
    def dim(self) -> int:
        return self.prior.dim

    def _check_dim(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(
                f"parameter vector has shape {theta.shape}, target expects ({self.dim},)"
            )
        return theta

    def log_likelihood(self, theta: np.ndarray) -> float:
        theta = self._check_dim(theta)
        return _check_finite(float(self.loglik(theta)), "log-likelihood")

    def log_likelihood_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """The checked log-likelihood and its gradient from one call. Like
        the likelihood itself they hold for every ``lam`` and ``T``."""
        theta = self._check_dim(theta)
        ll, gl = self.loglik_and_grad(theta)
        return _check_finite(float(ll), "log-likelihood"), _finite_grad(gl)

    def log_density(self, theta: np.ndarray) -> float:
        theta = self._check_dim(theta)
        lp = _check_finite(self.prior.log_density(theta), "log-prior")
        if self.lam == 0.0:
            return lp / self.temperature
        ll = _check_finite(float(self.loglik(theta)), "log-likelihood")
        return (self.lam * ll + lp) / self.temperature

    def grad_log_density(self, theta: np.ndarray) -> np.ndarray:
        theta = self._check_dim(theta)
        g = self.prior.grad_log_density(theta)
        if self.lam != 0.0:
            g = g + self.lam * _finite_grad(self.loglik_and_grad(theta)[1])
        return g / self.temperature

    def temper(self, thetas: np.ndarray, ll: np.ndarray, gl: np.ndarray) -> tuple:
        """``log_density`` and ``grad_log_density`` at each row of the bank
        ``thetas`` (N, d), or at one vector, from the likelihood pair there,
        with no likelihood call and no check; at lam = 0 the pair is not
        read. A row gets the bits of the one-vector methods."""
        lp = self.prior.log_density(thetas)
        g = self.prior.grad_log_density(thetas)
        if self.lam != 0.0:
            lp = self.lam * ll + lp
            g = g + self.lam * gl
        return lp / self.temperature, g / self.temperature

    def with_lam(self, lam: float) -> "TargetDensity":
        return replace(self, lam=lam)


def make_anchored(posterior: TargetDensity, anchor: np.ndarray, s: float) -> TargetDensity:
    """Swap the posterior's zero-mean prior N(0, v*Id) for the anchored prior
    N(alpha * anchor, s*v*Id) with alpha = 1{s < 1/2}.

    Interpolates between a tight ball around the anchor (small s) and the
    original posterior: at s = 1 the returned target equals the input
    pointwise.
    """
    if not (0 < s <= 1):
        raise ValueError(
            f"s must lie in (0, 1]; got {s} (s=0 is the point-mass limit and has no density)"
        )
    prior = posterior.prior
    if np.any(prior.mean != 0):
        raise TypeError("make_anchored expects a posterior with a zero-mean prior")
    anchor = np.asarray(anchor, dtype=float)
    if anchor.shape != (posterior.dim,):
        raise ValueError(
            f"anchor has shape {anchor.shape}, expected ({posterior.dim},)"
        )
    mean = anchor if s < 0.5 else None
    return replace(posterior, prior=GaussianPrior(s * prior.variance, prior.dim, mean))


def make_cold(posterior: TargetDensity, temperature: float) -> TargetDensity:
    """Raise the whole unnormalized posterior to the power 1/T."""
    return replace(posterior, temperature=temperature)


def gaussian_loglik(mean: np.ndarray, variance: float) -> tuple[LogLik, LogLikAndGrad]:
    """Synthetic Gaussian 'likelihood' N(theta; mean, variance*Id), for tests
    and conjugate oracles. Returns (loglik, loglik_and_grad) in the
    injected-function contract of TargetDensity."""
    mean = np.asarray(mean, dtype=float)
    log_norm = -0.5 * mean.size * np.log(2 * np.pi * variance)

    def ll_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        r = theta - mean
        return float(log_norm - 0.5 * np.dot(r, r) / variance), -r / variance

    return lambda theta: ll_and_grad(theta)[0], ll_and_grad
