"""Anchored posteriors on a conjugate Gaussian toy.

The anchored target keeps the exact likelihood but swaps the prior for
N(alpha(s) * theta_anchor, s * v * Id).  At s=1 the anchor is ignored and
the target is exactly the original posterior; as s shrinks the target
concentrates around the anchor.  A temperature T < 1 sharpens the whole
target instead.
"""

import numpy as np

from anchormc import (
    GaussianPrior,
    TargetDensity,
    gaussian_loglik,
    make_anchored,
    make_cold,
)
from anchormc.toys import conjugate_posterior

# A 2-d Gaussian "likelihood" centered at a with variance sl, against an
# N(0, v) prior, so every quantity below has a closed form.
a = np.array([1.0, -0.5])
sl, v = 0.8, 1.5
ll, ll_and_grad = gaussian_loglik(a, sl)
posterior = TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, 2))

post_mean, post_var, log_ev = conjugate_posterior(a, sl, v)
print(f"analytic posterior mean {post_mean}, variance {post_var:.4f}")

# s = 1 recovers the posterior pointwise: the log-densities agree exactly.
anchor = post_mean  # in practice this is the MAP estimate
s1 = make_anchored(posterior, anchor, 1.0)
rng = np.random.default_rng(0)
gap = max(
    abs(s1.log_density(th) - posterior.log_density(th))
    for th in rng.normal(size=(20, 2))
)
print(f"s=1: max |log-density gap| over 20 points = {gap:.2e}")

# Small s concentrates the prior (and hence the target) around the anchor.
# The anchor mean only switches on below s = 0.5, so the s=0.5 row below is
# still centered at the origin while its variance has already shrunk.
for s in (0.5, 0.1, 0.01):
    anchored = make_anchored(posterior, anchor, s)
    draws = np.array([anchored.prior.sample(rng) for _ in range(5000)])
    print(
        f"s={s:4}: prior draws mean {draws.mean(axis=0).round(3)}, "
        f"per-coordinate variance {draws.var(axis=0).mean():.4f} (expect {s * v:.4f})"
    )

# Cooling divides the whole log-density by T, sharpening both likelihood
# and prior; the density ratio between two points grows by the factor 1/T.
cold = make_cold(posterior, 0.2)
th1, th2 = np.zeros(2), np.ones(2)
ratio_warm = posterior.log_density(th1) - posterior.log_density(th2)
ratio_cold = cold.log_density(th1) - cold.log_density(th2)
print(f"log-density contrast: T=1 {ratio_warm:.4f}, T=0.2 {ratio_cold:.4f} (5x)")
