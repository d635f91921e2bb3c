"""Island parallelism: independent sampler runs combined by evidence weight.

Each island is a full SMC run with its own particles and its own evidence
estimate Z.  Estimates are combined as sum_p omega_p * (island mean) with
omega_p proportional to Z_p, computed in log space so that astronomically
small evidences cannot underflow.  ``pool`` spreads omega_p evenly over an
island's particles, so every estimate is one dot product with the pooled
particle weights.
"""

import numpy as np

from anchormc import GaussianPrior, SmcConfig, TargetDensity, ess, gaussian_loglik
from anchormc.kernels import PcnConfig
from anchormc.parallel import RunResult, pool, run_parallel, standard_error
from anchormc.toys import conjugate_posterior

a = np.array([1.0, -0.5])
sl, v = 0.8, 1.5
ll, ll_and_grad = gaussian_loglik(a, sl)
target = TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, 2))
post_mean, _, _ = conjugate_posterior(a, sl, v)

cfg = SmcConfig(n_particles=64, kernel="pcn", pcn=PcnConfig(0.7))
results = run_parallel(target, cfg, n_islands=8, base_seed=0)

samples, particle_weights, w, _ = pool(results)
print(f"island weights: {np.round(w, 3)}")
print(f"effective islands: {ess(w):.2f} of {len(results)}")
print(f"combined mean {(particle_weights @ samples).round(4)} vs analytic {post_mean.round(4)}")

# Replicate-level uncertainty: rerun the whole thing R times and report the
# spread of the combined estimate.
reps = []
for r in range(5):
    rr_samples, rr_weights, _, _ = pool(run_parallel(target, cfg, n_islands=8, base_seed=100 + r))
    reps.append(rr_weights @ rr_samples[:, 0])
mean, se = standard_error(np.array(reps))
print(f"first coordinate over 5 replicates: {mean:.4f} +/- {se:.4f}")

# The weighting is robust to a common shift of every log Z (only ratios
# matter), which is what makes high-dimensional evidences usable at all.
shifted = [
    RunResult(p=r.p, samples=r.samples, log_z=r.log_z - 1e4, epochs_per_particle=0.0)
    for r in results
]
_, _, w_shifted, _ = pool(shifted)
print(f"after shifting every log Z by -1e4: max weight change "
      f"{np.max(np.abs(w_shifted - w)):.2e}")
