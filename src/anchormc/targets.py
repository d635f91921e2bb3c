"""Unnormalized log-densities targeted by the samplers.

A target is always of the form

    log pi(theta) = (lam / T) * loglik(theta) + (1 / T) * logprior(theta)

where ``lam`` is a likelihood-tempering exponent in [0, 1] and ``T`` a
temperature (T < 1 sharpens the whole posterior). The prior is either a
zero-mean isotropic Gaussian or an isotropic Gaussian anchored at a MAP
estimate with shrunken variance s*v.
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


@dataclass(frozen=True)
class GaussianPrior:
    """Isotropic N(0, v*Id) prior on d coordinates."""

    variance: float
    dim: int

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError(f"prior variance must be positive, got {self.variance}")
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    @property
    def marginal_std(self) -> float:
        return float(np.sqrt(self.variance))

    def log_density(self, theta: np.ndarray) -> float:
        v = self.variance
        return float(
            -0.5 * self.dim * np.log(2 * np.pi * v) - 0.5 * np.dot(theta, theta) / v
        )

    def grad_log_density(self, theta: np.ndarray) -> np.ndarray:
        return -theta / self.variance

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        size = self.dim if n is None else (n, self.dim)
        return rng.normal(0.0, self.marginal_std, size=size)


@dataclass(frozen=True)
class AnchoredPrior:
    """N(alpha * anchor, s*v*Id) with alpha = 1{s < 1/2}.

    Interpolates between a tight ball around the anchor (small s) and the
    original zero-mean prior (s = 1).
    """

    anchor: np.ndarray
    s: float
    base_variance: float

    def __post_init__(self):
        if not (0 < self.s <= 1):
            raise ValueError(
                f"s must lie in (0, 1]; got {self.s} (s=0 is the point-mass limit "
                "and has no density)"
            )
        if self.base_variance <= 0:
            raise ValueError(f"base variance must be positive, got {self.base_variance}")

    @property
    def alpha(self) -> float:
        return 1.0 if self.s < 0.5 else 0.0

    @property
    def variance(self) -> float:
        return self.s * self.base_variance

    @property
    def dim(self) -> int:
        return self.anchor.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return self.alpha * self.anchor

    @property
    def marginal_std(self) -> float:
        return float(np.sqrt(self.variance))

    def log_density(self, theta: np.ndarray) -> float:
        v = self.variance
        r = theta - self.mean
        return float(-0.5 * self.dim * np.log(2 * np.pi * v) - 0.5 * np.dot(r, r) / v)

    def grad_log_density(self, theta: np.ndarray) -> np.ndarray:
        return -(theta - self.mean) / self.variance

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        size = (self.dim,) if n is None else (n, self.dim)
        return self.mean + rng.normal(0.0, self.marginal_std, size=size)


Prior = GaussianPrior | AnchoredPrior

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
    prior: Prior
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

    def log_density_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """``log_density`` and ``grad_log_density`` from one likelihood call."""
        theta = self._check_dim(theta)
        lp = _check_finite(self.prior.log_density(theta), "log-prior")
        g = self.prior.grad_log_density(theta)
        if self.lam != 0.0:
            ll, gl = self.loglik_and_grad(theta)
            lp = self.lam * _check_finite(float(ll), "log-likelihood") + lp
            g = g + self.lam * _finite_grad(gl)
        return lp / self.temperature, g / self.temperature

    def with_lam(self, lam: float) -> "TargetDensity":
        return replace(self, lam=lam)


def make_anchored(posterior: TargetDensity, anchor: np.ndarray, s: float) -> TargetDensity:
    """Swap the posterior's zero-mean prior for one anchored at ``anchor``.

    At s = 1 the returned target equals the input pointwise (alpha(1) = 0 and
    the variance reverts to v).
    """
    if not (0 <= s <= 1):
        raise ValueError(f"s must lie in [0, 1], got {s}")
    if not isinstance(posterior.prior, GaussianPrior):
        raise TypeError("make_anchored expects a posterior with a zero-mean GaussianPrior")
    anchor = np.asarray(anchor, dtype=float)
    if anchor.shape != (posterior.dim,):
        raise ValueError(
            f"anchor has shape {anchor.shape}, expected ({posterior.dim},)"
        )
    prior = AnchoredPrior(anchor=anchor, s=s, base_variance=posterior.prior.variance)
    return replace(posterior, prior=prior)


def make_cold(posterior: TargetDensity, temperature: float) -> TargetDensity:
    """Raise the whole unnormalized posterior to the power 1/T."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
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
