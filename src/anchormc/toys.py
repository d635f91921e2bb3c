"""Small analytic targets used by demos, diagnostics, and tests."""

from __future__ import annotations

import numpy as np

from .targets import GaussianPrior, TargetDensity, make_anchored, make_cold

CENTERS = np.array([-2.0, 2.0])  # the bimodal toy's two modes, equally weighted
LOG_WEIGHTS = np.log([0.5, 0.5])


def bimodal_loglik(sigma: float):
    """1-d Gaussian-mixture log-likelihood with components at ``CENTERS``, as
    the (loglik, loglik_and_grad) pair in the bank form of TargetDensity: an
    (N, 1) bank in, (N,) values and (N, 1) gradients out."""
    inv_var = 1.0 / sigma**2

    def ll_and_grad(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = LOG_WEIGHTS - 0.5 * inv_var * (thetas[:, :1] - CENTERS) ** 2  # (N, components)
        m = c.max(axis=1, keepdims=True)
        r = np.exp(c - m)
        total = r.sum(axis=1, keepdims=True)
        grad = np.sum(r / total * (CENTERS - thetas[:, :1]), axis=1, keepdims=True) * inv_var
        return (m + np.log(total))[:, 0], grad

    return lambda thetas: ll_and_grad(thetas)[0], ll_and_grad


def bimodal_toy(
    s: float | None = None,
    temperature: float = 1.0,
    prior_variance: float = 1.0,
    sigma: float = 0.35,
) -> TargetDensity:
    """Bimodal posterior in 1-d; optionally anchored at the mode at +2
    and/or sharpened by a temperature below 1."""
    ll, ll_and_grad = bimodal_loglik(sigma=sigma)
    target = TargetDensity(
        loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(prior_variance, 1)
    )
    if s is not None:
        target = make_anchored(target, CENTERS[1:], s)
    if temperature != 1.0:
        target = make_cold(target, temperature)
    return target


def conjugate_posterior(
    likelihood_mean: np.ndarray, likelihood_variance: float, prior_variance: float
) -> tuple[np.ndarray, float, float]:
    """Closed form for a Gaussian 'likelihood' N(theta; a, sl*Id) against the
    prior N(0, v*Id): posterior mean, posterior variance, and log evidence."""
    a = np.asarray(likelihood_mean, dtype=float)
    sl, v = likelihood_variance, prior_variance
    post_var = 1.0 / (1.0 / sl + 1.0 / v)
    post_mean = post_var * a / sl
    d = a.size
    # evidence of the product of the two Gaussians
    log_ev = float(
        -0.5 * d * np.log(2 * np.pi * (sl + v)) - 0.5 * np.dot(a, a) / (sl + v)
    )
    return post_mean, post_var, log_ev
