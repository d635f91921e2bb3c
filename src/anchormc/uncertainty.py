"""Posterior-predictive quantities: entropy decomposition, first-order
metrics, confidence features, the incorrect/OOD meta-classifier, and the
abstaining 2-level predictor."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .nets import NetworkSpec, TrainingDivergedError, forward, init_params, log_likelihood_and_grad
from .targets import GaussianPrior

FEATURE_NAMES = (
    "p_max_mean",
    "h_total",
    "mean_p_max",
    "mean_delta_max",
    "h_epistemic",
    "var_p_max",
    "var_delta_max",
)


@dataclass(frozen=True)
class PredictiveMatrix:
    """Per-input, per-particle class probabilities with particle weights.

    probs: (n_inputs, n_particles, K); weights: (n_particles,), nonnegative,
    summing to 1 (island weight spread evenly over that island's particles).
    """

    probs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.probs.ndim != 3:
            raise ValueError(f"probs must be 3-d, got shape {self.probs.shape}")
        if self.weights.shape != (self.probs.shape[1],):
            raise ValueError("one weight per particle required")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("particle weights must sum to 1")

    @property
    def n_classes(self) -> int:
        return self.probs.shape[2]

    @property
    def mean(self) -> np.ndarray:
        """Weighted posterior-mean probability vector per input, (n, K)."""
        return np.einsum("j,njk->nk", self.weights, self.probs)


def predictive(samples: np.ndarray, weights: np.ndarray, spec: NetworkSpec, x: np.ndarray) -> PredictiveMatrix:
    """Evaluate the network at every sampled parameter vector."""
    samples = np.atleast_2d(samples)
    weights = np.asarray(weights, dtype=float)
    probs = np.stack(forward(spec, samples, x), axis=1)
    return PredictiveMatrix(probs=probs, weights=weights / weights.sum())


def _entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats along the last axis, with 0*log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=-1)


@dataclass(frozen=True)
class EntropyReport:
    total: np.ndarray
    aleatoric: np.ndarray
    epistemic: np.ndarray


def entropy_decomposition(matrix: PredictiveMatrix) -> EntropyReport:
    """Split total predictive entropy into aleatoric (mean per-particle
    entropy) and epistemic (the Jensen gap) parts, in nats."""
    h_tot = _entropy(matrix.mean)
    h_al = np.einsum("j,nj->n", matrix.weights, _entropy(matrix.probs))
    h_ep = h_tot - h_al
    # the gap is nonnegative up to roundoff; clamp tiny negatives
    h_ep = np.where((h_ep < 0) & (h_ep > -1e-9), 0.0, h_ep)
    return EntropyReport(total=h_tot, aleatoric=h_al, epistemic=h_ep)


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    nll: float
    brier: float
    ece: float


ECE_BINS = 15
THRESHOLD_GRID_STEP = 0.001


def metrics(matrix: PredictiveMatrix, labels: np.ndarray) -> Metrics:
    labels = np.asarray(labels)
    m = matrix.mean
    n, k = m.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    pred = m.argmax(axis=1)
    correct = pred == labels
    accuracy = float(correct.mean())
    eps_floor = np.finfo(float).tiny
    nll = float(-np.log(np.maximum(m[np.arange(n), labels], eps_floor)).mean())
    onehot = np.zeros_like(m)
    onehot[np.arange(n), labels] = 1.0
    brier = float(((m - onehot) ** 2).sum(axis=1).mean())
    conf = m.max(axis=1)
    edges = np.linspace(0.0, 1.0, ECE_BINS + 1)
    which = np.clip(np.digitize(conf, edges[1:-1]), 0, ECE_BINS - 1)
    ece = 0.0
    for b in range(ECE_BINS):
        mask = which == b
        if mask.any():
            ece += mask.mean() * abs(correct[mask].mean() - conf[mask].mean())
    return Metrics(accuracy=accuracy, nll=nll, brier=brier, ece=float(ece))


def features(matrix: PredictiveMatrix, ent: EntropyReport) -> np.ndarray:
    """The 7 confidence features per input (see FEATURE_NAMES); ``ent`` is
    ``entropy_decomposition(matrix)``.

    Moments of p_max and delta_max (top-1 minus top-2 probability) are taken
    under the weighted particle law; variances are exactly 0 for a single
    particle.
    """
    if matrix.n_classes < 2:
        raise ValueError("delta_max needs at least 2 classes")
    sorted_p = np.sort(matrix.probs, axis=-1)
    p_max = sorted_p[..., -1]  # (n, particles)
    delta = sorted_p[..., -1] - sorted_p[..., -2]
    w = matrix.weights
    e_pmax = p_max @ w
    e_delta = delta @ w
    var_pmax = np.maximum((p_max**2) @ w - e_pmax**2, 0.0)
    var_delta = np.maximum((delta**2) @ w - e_delta**2, 0.0)
    p_max_mean = matrix.mean.max(axis=1)
    return np.column_stack(
        [p_max_mean, ent.total, e_pmax, e_delta, ent.epistemic, var_pmax, var_delta]
    )


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        std = x.std(axis=0)
        return cls(mean=x.mean(axis=0), std=np.where(std > 0, std, 1.0))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


@dataclass(frozen=True)
class MetaClassifier:
    """Binary incorrect/OOD classifier over the 7 features: 7 -> META_HIDDEN -> 2
    MLP at the MAP of a Gaussian prior, fitted by full-batch L-BFGS on every
    meta-training row. Standardization statistics are frozen from that set."""

    spec: NetworkSpec
    theta: np.ndarray
    standardizer: Standardizer

    def predict_incorrect(self, raw_features: np.ndarray) -> np.ndarray:
        """P(z = 1), i.e. probability the base prediction is wrong or OOD."""
        probs = forward(self.spec, self.theta, self.standardizer.apply(raw_features))
        return np.atleast_2d(probs)[:, 1]


META_HIDDEN = 50  # width of the meta-classifier's one hidden layer
META_PRIOR_VARIANCE = 1.0
LBFGS_HISTORY = 10  # (s, y) pairs kept
LBFGS_ARMIJO = 1e-4  # sufficient-decrease constant c1
LBFGS_MAX_TRIALS = 20  # per line search: step 1, then halved
LBFGS_GTOL = 1e-5  # stop when max|g| is at most this
LBFGS_FTOL = 1e-7  # stop when (f - f+) / max(|f|, |f+|, 1) is at most this
LBFGS_MAX_ITER = 200


def _lbfgs(objective, theta: np.ndarray) -> tuple[np.ndarray, int, str]:
    """Minimize ``objective(theta) -> (value, gradient)`` from ``theta`` by
    L-BFGS with Armijo backtracking (Nocedal & Wright 2006, algorithms 7.4
    and 3.1). Returns the last accepted iterate, the iterations run and why
    it stopped: "gradient", "decrease", "iterations", or "line search" when
    no trial step passes (a non-finite value fails)."""
    f, g = objective(theta)
    if not np.isfinite(f):
        raise TrainingDivergedError("objective is not finite at the initial parameters")
    pairs: deque = deque(maxlen=LBFGS_HISTORY)  # (s, y, 1 / s'y), oldest first
    for it in range(LBFGS_MAX_ITER):
        if np.abs(g).max() <= LBFGS_GTOL:
            return theta, it, "gradient"
        d = -g / max(1.0, np.linalg.norm(g))  # with no history
        if pairs:  # two-loop recursion, scaled by s'y / y'y of the newest pair
            d, alphas = -g, []
            for s, y, rho in reversed(pairs):
                alphas.append(rho * (s @ d))
                d -= alphas[-1] * y
            d /= pairs[-1][2] * (pairs[-1][1] @ pairs[-1][1])
            for (s, y, rho), a in zip(pairs, reversed(alphas)):
                d += (a - rho * (y @ d)) * s
            if not g @ d < 0:  # not downhill: start the history again
                pairs.clear()
                d = -g
        for k in range(LBFGS_MAX_TRIALS):
            f_new, g_new = objective(theta + 0.5**k * d)
            if np.isfinite(f_new) and f_new <= f + LBFGS_ARMIJO * 0.5**k * (g @ d):
                break
        else:
            return theta, it, "line search"
        s, y = 0.5**k * d, g_new - g
        if s @ y > 0:
            pairs.append((s, y, 1.0 / (s @ y)))
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        theta, f, g = theta + s, f_new, g_new
        if decrease <= LBFGS_FTOL:
            return theta, it + 1, "decrease"
    return theta, LBFGS_MAX_ITER, "iterations"


def train_meta(raw_features: np.ndarray, labels: np.ndarray, seed: int = 0) -> MetaClassifier:
    """Fit the meta-classifier on all rows, from an initial θ drawn from the
    prior with ``seed``. ``labels``: 1 for incorrect/OOD, 0 for correct."""
    labels = np.asarray(labels, dtype=np.int64)
    if set(np.unique(labels)) - {0, 1}:
        raise ValueError("meta labels must be 0/1")
    if len(np.unique(labels)) < 2:
        raise ValueError("meta training set contains a single class")
    std = Standardizer.fit(raw_features)
    data = Dataset(std.apply(raw_features), labels)
    n = len(data)
    spec = NetworkSpec(kind="mlp", widths=(data.x.shape[1], META_HIDDEN, 2))
    prior = GaussianPrior(variance=META_PRIOR_VARIANCE, dim=spec.n_params)

    def objective(theta):  # the mean negative log posterior and its gradient
        ll, g = log_likelihood_and_grad(spec, theta, data)
        return -(ll + prior.log_density(theta)) / n, -(g + prior.grad_log_density(theta)) / n

    theta, _, _ = _lbfgs(objective, init_params(spec, prior, np.random.default_rng(seed)))
    return MetaClassifier(spec=spec, theta=theta, standardizer=std)


@dataclass(frozen=True)
class AbstentionResult:
    abstain: np.ndarray  # per-input decision
    accuracy: float  # 2-level accuracy


def abstain_2level(
    p_incorrect: np.ndarray, base_correct: np.ndarray, threshold: float
) -> AbstentionResult:
    """Abstain when the meta-classifier flags the input; an abstention counts
    as correct exactly when the base prediction would have been wrong
    (OOD inputs count as wrong)."""
    p_incorrect = np.asarray(p_incorrect, dtype=float)
    base_correct = np.asarray(base_correct, dtype=bool)
    abstain = p_incorrect >= threshold
    good = np.where(abstain, ~base_correct, base_correct)
    return AbstentionResult(abstain=abstain, accuracy=float(good.mean()))


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, from the
    rank statistic (ties get average rank). Scores must be finite."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes in the evaluation set")
    if not np.isfinite(scores).all():
        raise ValueError("AUC needs finite scores")
    # a run of tied scores occupying ranks ends-counts+1..ends gets their mean
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = (0.5 * (ends + ends - counts + 1))[group]
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


@dataclass(frozen=True)
class ThresholdReport:
    auc: float
    precision_05: float
    recall_05: float
    f1_05: float
    best_threshold: float
    precision_best: float
    recall_best: float
    f1_best: float


def threshold_metrics(scores: np.ndarray, labels: np.ndarray) -> ThresholdReport:
    """Precision/recall/F1 at 0.5 and at the best-F1 threshold over a dense
    grid, plus rank-statistic AUC. One sort gives the counts at every
    threshold tau: the scores below tau are the first searchsorted(tau)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    auc = auc_roc(scores, labels)  # raises unless both classes are present
    grid = np.arange(0.0, 1.0 + THRESHOLD_GRID_STEP / 2, THRESHOLD_GRID_STEP)
    order = np.argsort(scores)
    below = np.searchsorted(scores[order], np.append(0.5, grid), "left")
    n_pos = int(labels.sum())
    tp = n_pos - np.concatenate([[0], np.cumsum(labels[order])])[below]
    n_pred = len(scores) - below  # tp + fp
    p = np.divide(tp, n_pred, out=np.zeros(len(below)), where=n_pred > 0)
    r = tp / n_pos
    f = np.divide(2 * p * r, p + r, out=np.zeros(len(below)), where=p + r > 0)
    # index 0 is tau = 0.5; then the first grid point of highest F1, which
    # is (0, 0, 0, 0) at tau = 0 when no threshold has a true positive
    i = 1 + int(np.argmax(f[1:]))
    return ThresholdReport(
        auc=auc,
        precision_05=float(p[0]),
        recall_05=float(r[0]),
        f1_05=float(f[0]),
        best_threshold=float(grid[i - 1]),
        precision_best=float(p[i]),
        recall_best=float(r[i]),
        f1_best=float(f[i]),
    )
