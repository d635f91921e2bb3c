"""The tempered SMC sampler on a conjugate Gaussian toy.

Particles start as prior draws and are pulled toward the posterior along an
adaptively chosen ladder of likelihood temperings lambda = 0 -> 1.  Each
step reweights, resamples when diversity drops, and runs a few MCMC sweeps;
the accumulated weight normalizers give an unbiased evidence estimate.
"""

import numpy as np

from anchormc import GaussianPrior, SmcConfig, TargetDensity, gaussian_loglik, run_smc
from anchormc.kernels import HmcConfig
from anchormc.toys import conjugate_posterior

a = np.array([1.0, -0.5])
sl, v = 0.8, 1.5
ll, ll_and_grad = gaussian_loglik(a, sl)
target = TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, 2))
post_mean, post_var, log_ev = conjugate_posterior(a, sl, v)

result = run_smc(
    target,
    SmcConfig(n_particles=512, kernel="hmc", hmc=HmcConfig(0.4, 3), seed=0),
)

# The schedule is chosen on the fly: each new lambda is the point where the
# effective sample size of the incremental weights hits rho * N.
print("adaptive tempering ladder:")
for lam, ess, m in zip(
    result.schedule.lambdas[1:], result.schedule.ess, result.schedule.mutation_steps
):
    print(f"  lambda={lam:.4f}  ESS={ess:7.2f}  mutation sweeps={m}")

est_mean = result.particles.mean(axis=0)
est_var = result.particles.var(axis=0).mean()
print(f"posterior mean: sampled {est_mean.round(4)} vs analytic {post_mean.round(4)}")
print(f"posterior var : sampled {est_var:.4f} vs analytic {post_var:.4f}")
print(f"log evidence  : sampled {result.log_z:.4f} vs analytic {log_ev:.4f}")
print(f"cost: {result.epochs_per_particle:.1f} likelihood sweeps per particle")
