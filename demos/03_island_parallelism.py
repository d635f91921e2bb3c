"""Island parallelism: independent sampler runs combined by evidence weight.

Each island is a full SMC run with its own particles and its own evidence
estimate Z.  Estimates are combined as sum_p omega_p * (island mean) with
omega_p proportional to Z_p, computed in log space so that astronomically
small evidences cannot underflow.
"""

import numpy as np

from anchormc import GaussianPrior, SmcConfig, TargetDensity, gaussian_loglik
from anchormc.kernels import PcnConfig
from anchormc.parallel import RunResult, combine, run_parallel, standard_error
from anchormc.toys import conjugate_posterior

a = np.array([1.0, -0.5])
sl, v = 0.8, 1.5
ll, ll_and_grad = gaussian_loglik(a, sl)
target = TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, 2))
post_mean, _, _ = conjugate_posterior(a, sl, v)

cfg = SmcConfig(n_particles=64, kernel="pcn", pcn=PcnConfig(0.7))
results = run_parallel(target, cfg, n_islands=8, base_seed=0)

c = combine(results, lambda th: th)
print(f"island weights: {np.round(c.island_weights, 3)}")
print(f"effective islands: {c.effective_islands:.2f} of {len(results)}")
print(f"combined mean {c.estimate.round(4)} vs analytic {post_mean.round(4)}")

# Replicate-level uncertainty: rerun the whole thing R times and report the
# spread of the combined estimate.
reps = []
for r in range(5):
    rr = run_parallel(target, cfg, n_islands=8, base_seed=100 + r)
    reps.append(combine(rr, lambda th: th[0]).estimate)
mean, se = standard_error(np.array(reps))
print(f"first coordinate over 5 replicates: {mean:.4f} +/- {se:.4f}")

# The weighting is robust to a common shift of every log Z (only ratios
# matter), which is what makes high-dimensional evidences usable at all.
shifted = [
    RunResult(p=r.p, samples=r.samples, log_z=r.log_z - 1e4, epochs_per_particle=0.0)
    for r in results
]
c2 = combine(shifted, lambda th: th)
print(f"after shifting every log Z by -1e4: max weight change "
      f"{np.max(np.abs(c2.island_weights - c.island_weights)):.2e}")
