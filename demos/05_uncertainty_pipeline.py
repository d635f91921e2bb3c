"""End-to-end uncertainty pipeline on a synthetic image task.

Train a MAP network, draw anchored posterior samples around it, decompose
the predictive entropy into aleatoric and epistemic parts, and train the
incorrect/OOD meta-classifier that powers the abstaining 2-level predictor.

The data are synthetic 8x8 "images": classes 0-7 light up a class-specific
block, so the task is learnable, while out-of-distribution inputs are pure
noise the network has never seen.
"""

import numpy as np

from anchormc import (
    GaussianPrior,
    NetworkSpec,
    OptConfig,
    SmcConfig,
    TargetDensity,
    make_anchored,
    map_estimate,
    run_smc,
)
from anchormc.data import Dataset
from anchormc.nets import make_loglik
from anchormc.uncertainty import (
    abstain_2level,
    entropy_decomposition,
    features,
    metrics,
    predictive,
    threshold_metrics,
    train_meta,
)

rng = np.random.default_rng(0)


def make_images(n):
    y = rng.integers(0, 8, n)
    x = rng.random((n, 8, 8)) * 0.25
    for i, c in enumerate(y):
        r, col = divmod(int(c), 4)
        x[i, 2 * r : 2 * r + 2, 2 * col : 2 * col + 2] = 1.0
    return Dataset(x=x.reshape(n, 64), y=y, image_shape=(8, 8))


train, val, test = make_images(300), make_images(80), make_images(300)
ood = rng.random((150, 64))  # OOD inputs: an array, with no labels

# 1. MAP training of a small classifier.
spec = NetworkSpec(kind="mlp", widths=(64, 8))
prior = GaussianPrior(variance=1.0, dim=spec.n_params)
opt = OptConfig(learning_rate=0.1, max_epochs=60)
map_result = map_estimate(spec, prior, train, val, opt, seed=0)
print(f"MAP: {map_result.epochs_used} epochs, val NLL {map_result.val_nll:.3f}")

# 2. Anchored posterior sampling around the MAP point.
ll, ll_and_grad = make_loglik(spec, train)
posterior = TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=prior)
target = make_anchored(posterior, map_result.theta, 0.1)
smc = run_smc(target, SmcConfig(n_particles=10, kernel="pcn", seed=0))
w = np.full(10, 0.1)

m_test = predictive(smc.particles, w, spec, test.x)
print("test metrics:", metrics(m_test, test.y))

# 3. Entropy decomposition separates "the classes genuinely overlap"
# (aleatoric) from "the sampled networks disagree" (epistemic); only the
# epistemic part should blow up on OOD inputs.
m_ood = predictive(smc.particles, w, spec, ood)
rep_test, rep_ood = entropy_decomposition(m_test), entropy_decomposition(m_ood)
for name, rep in (("in-distribution", rep_test), ("OOD noise", rep_ood)):
    print(
        f"{name:16s} H_total {rep.total.mean():.3f}  "
        f"H_aleatoric {rep.aleatoric.mean():.3f}  H_epistemic {rep.epistemic.mean():.3f}"
    )

# 4. Meta-classifier: 7 confidence features -> P(base prediction is wrong
# or input is OOD), trained on one half and evaluated on the other.
correct = m_test.mean.argmax(axis=1) == test.y
f_id, f_ood = features(m_test, rep_test), features(m_ood, rep_ood)
half_id, half_ood = len(test) // 2, len(ood) // 2
meta = train_meta(
    np.concatenate([f_id[:half_id], f_ood[:half_ood]]),
    np.concatenate([(~correct[:half_id]).astype(int), np.ones(half_ood, dtype=int)]),
    seed=0,
)
scores = meta.predict_incorrect(np.concatenate([f_id[half_id:], f_ood[half_ood:]]))
z = np.concatenate(
    [(~correct[half_id:]).astype(int), np.ones(len(ood) - half_ood, dtype=int)]
)
report = threshold_metrics(scores, z)
print(f"meta-classifier: AUC {report.auc:.3f}, best F1 {report.f1_best:.3f} "
      f"at threshold {report.best_threshold:.2f}")

# 5. The 2-level predictor abstains when flagged; abstaining counts as
# correct exactly when the base answer would have been wrong.
base_correct = np.concatenate(
    [correct[half_id:], np.zeros(len(ood) - half_ood, dtype=bool)]
)
never = abstain_2level(scores, base_correct, 1.1).accuracy
taus = np.linspace(0, 1, 101)
accs = [abstain_2level(scores, base_correct, t).accuracy for t in taus]
best = int(np.argmax(accs))
print(f"2-level accuracy: never abstain {never:.3f}, "
      f"best {accs[best]:.3f} at threshold {taus[best]:.2f}")
