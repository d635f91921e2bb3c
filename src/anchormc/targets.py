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


def _check_rows(values, n: int, what: str) -> np.ndarray:
    """``values`` as an (n,) array of the caller's own, one per row of a
    bank; a NaN or +inf row raises ``NonFiniteDensityError`` naming it."""
    values = np.array(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{what} of {n} rows has shape {values.shape}, expected ({n},)")
    bad = np.flatnonzero(np.isnan(values) | (values == np.inf))
    if bad.size:
        raise NonFiniteDensityError(f"{what} evaluated to {values[bad[0]]!r} at row {bad[0]}")
    return values


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
        if not 0 < self.variance < np.inf:
            raise ValueError(f"prior variance must be positive and finite, got {self.variance}")
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


LogLik = Callable[[np.ndarray], np.ndarray]
LogLikAndGrad = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class TargetDensity:
    """Tempered product of a likelihood and a Gaussian prior.

    The likelihood is injected as a pair of pure functions of a bank of
    parameter vectors, an (N, d) array whose rows are particles or chains:
    ``loglik(thetas)`` returns the (N,) log-likelihoods and
    ``loglik_and_grad(thetas)`` the (N,) values with their (N, d) gradients
    from one pass. Row i of an output depends on row i of the input alone,
    so the samplers make one call per evaluation for a whole bank, and the
    same machinery serves neural-network likelihoods (``nets.make_loglik``,
    one network pass per bank) and synthetic Gaussian ones
    (``gaussian_loglik``).
    """

    loglik: LogLik
    loglik_and_grad: LogLikAndGrad
    prior: GaussianPrior
    lam: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        if not (0 <= self.lam <= 1):
            raise ValueError(f"tempering exponent must lie in [0, 1], got {self.lam}")
        if not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")

    @property
    def dim(self) -> int:
        return self.prior.dim

    def _check_bank(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.dim:
            raise ValueError(
                f"parameter bank has shape {thetas.shape}, target expects (N, {self.dim})"
            )
        return thetas

    def log_likelihood(self, thetas: np.ndarray) -> np.ndarray:
        """The checked log-likelihood of each row of the bank ``thetas``: a
        NaN or +inf row raises ``NonFiniteDensityError``; -inf (zero
        likelihood) is a value. The array is a copy."""
        thetas = self._check_bank(thetas)
        return _check_rows(self.loglik(thetas), len(thetas), "log-likelihood")

    def log_likelihood_and_grad(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The checked log-likelihood and its gradient at each row of the
        bank ``thetas``, from one call; a non-finite gradient entry raises
        too. Like the likelihood itself they hold for every ``lam`` and
        ``T``. Both are copies, so a pair may reuse its output buffers."""
        thetas = self._check_bank(thetas)
        ll, gl = self.loglik_and_grad(thetas)
        ll, gl = _check_rows(ll, len(thetas), "log-likelihood"), np.array(gl, dtype=float)
        bad = np.flatnonzero(~np.isfinite(gl).all(axis=1))
        if bad.size:
            raise NonFiniteDensityError(f"log-likelihood gradient is non-finite at row {bad[0]}")
        return ll, gl

    def log_density(self, theta: np.ndarray) -> float:
        """The tempered log-density at one vector, checked: a one-row bank."""
        thetas = self._check_bank(np.asarray(theta, dtype=float)[None])
        lp = _check_rows(self.prior.log_density(thetas), 1, "log-prior")
        if self.lam != 0.0:
            lp = self.lam * self.log_likelihood(thetas) + lp
        return float(lp[0] / self.temperature)

    def grad_log_density(self, theta: np.ndarray) -> np.ndarray:
        """The gradient of ``log_density`` at one vector, checked."""
        thetas = self._check_bank(np.asarray(theta, dtype=float)[None])
        g = self.prior.grad_log_density(thetas)
        if self.lam != 0.0:
            g = g + self.lam * self.log_likelihood_and_grad(thetas)[1]
        return g[0] / self.temperature

    def tempered_log_density(self, thetas: np.ndarray, ll: np.ndarray) -> np.ndarray:
        """``log_density`` at each row of the bank ``thetas`` (N, d), or at
        one vector, from the log-likelihood ``ll`` there, with no likelihood
        call and no check; at lam = 0 ``ll`` is not read. A row gets the
        bits of the one-vector method; a product or quotient by 1 is exact, so skipped."""
        lp = self.prior.log_density(thetas)
        if self.lam != 0.0:
            lp = (ll if self.lam == 1.0 else self.lam * ll) + lp
        return lp if self.temperature == 1.0 else lp / self.temperature

    def tempered_grad(self, thetas: np.ndarray, gl: np.ndarray) -> np.ndarray:
        """``grad_log_density`` likewise, from the log-likelihood gradient
        ``gl`` at ``thetas``, added into the prior gradient in place."""
        g = self.prior.grad_log_density(thetas)
        if self.lam != 0.0:
            g += gl if self.lam == 1.0 else self.lam * gl
        return g if self.temperature == 1.0 else g / self.temperature

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
    and conjugate oracles. Returns (loglik, loglik_and_grad) in the bank
    contract of TargetDensity; each row has the bits of the one-vector
    formula, its square summed in ``np.dot``'s order (``row_dots``)."""
    mean = np.asarray(mean, dtype=float)
    log_norm = -0.5 * mean.size * np.log(2 * np.pi * variance)

    def ll_and_grad(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = thetas - mean
        return log_norm - 0.5 * row_dots(r) / variance, -r / variance

    return lambda thetas: ll_and_grad(thetas)[0], ll_and_grad
