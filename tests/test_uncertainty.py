import numpy as np
import pytest
from scipy.optimize import minimize

from anchormc import uncertainty
from anchormc.data import Dataset
from anchormc.nets import NetworkSpec, TrainingDivergedError, forward, log_likelihood_and_grad
from anchormc.targets import GaussianPrior
from anchormc.uncertainty import (
    LBFGS_GTOL,
    LBFGS_MAX_ITER,
    LBFGS_MAX_TRIALS,
    FEATURE_NAMES,
    THRESHOLD_GRID_STEP,
    PredictiveMatrix,
    Standardizer,
    ThresholdReport,
    abstain_2level,
    auc_roc,
    entropy_decomposition,
    features,
    metrics,
    predictive,
    _lbfgs,
    threshold_metrics,
    train_meta,
)


def matrix(probs, weights=None):
    probs = np.asarray(probs, dtype=float)
    if weights is None:
        weights = np.full(probs.shape[1], 1.0 / probs.shape[1])
    return PredictiveMatrix(probs=probs, weights=np.asarray(weights, dtype=float))


class TestPredictiveMatrix:
    def test_mean_is_weighted_average(self):
        m = matrix([[[1.0, 0.0], [0.0, 1.0]]], weights=[0.25, 0.75])
        assert np.allclose(m.mean, [[0.25, 0.75]])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            matrix([[[0.5, 0.5]]], weights=[0.9])

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError):
            matrix([[[0.5, 0.5], [0.5, 0.5]]], weights=[1.0])

    def test_predictive_evaluates_network(self, rng):
        spec = NetworkSpec(kind="mlp", widths=(2, 3))
        samples = rng.normal(size=(4, spec.n_params))
        x = rng.normal(size=(5, 2))
        m = predictive(samples, np.ones(4), spec, x)
        assert m.probs.shape == (5, 4, 3)
        assert np.allclose(m.probs.sum(axis=-1), 1.0)
        assert np.allclose(m.weights, 0.25)
        for j, theta in enumerate(samples):  # one bank pass: equal to a tolerance
            assert np.allclose(m.probs[:, j], forward(spec, theta, x), rtol=1e-12, atol=0)


class TestEntropy:
    def test_agreeing_particles_zero_epistemic(self):
        p = [[0.7, 0.2, 0.1]]
        m = matrix([[p[0], p[0], p[0]]])
        rep = entropy_decomposition(m)
        hand = -(0.7 * np.log(0.7) + 0.2 * np.log(0.2) + 0.1 * np.log(0.1))
        assert rep.total[0] == pytest.approx(hand, rel=1e-12)
        assert rep.epistemic[0] == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_disagreement_all_epistemic(self):
        m = matrix([[[1.0, 0.0], [0.0, 1.0]]])
        rep = entropy_decomposition(m)
        assert rep.total[0] == pytest.approx(np.log(2), rel=1e-12)
        assert rep.aleatoric[0] == 0.0
        assert rep.epistemic[0] == pytest.approx(np.log(2), rel=1e-12)

    def test_identity_holds(self, rng):
        probs = rng.dirichlet(np.ones(4), size=(10, 6))
        rep = entropy_decomposition(matrix(probs))
        assert np.allclose(rep.total, rep.aleatoric + rep.epistemic, atol=1e-9)

    def test_epistemic_nonnegative(self, rng):
        probs = rng.dirichlet(np.ones(3), size=(50, 8))
        rep = entropy_decomposition(matrix(probs))
        assert np.all(rep.epistemic >= 0)

    def test_uniform_is_max_entropy(self):
        k = 5
        m = matrix([[np.full(k, 1 / k)]])
        assert entropy_decomposition(m).total[0] == pytest.approx(np.log(k), rel=1e-12)


class TestMetrics:
    def test_perfect_confident_predictions(self):
        m = matrix([[[1.0, 0.0]], [[0.0, 1.0]]])
        out = metrics(m, np.array([0, 1]))
        assert out.accuracy == 1.0
        assert out.nll == pytest.approx(0.0, abs=1e-12)
        assert out.brier == pytest.approx(0.0, abs=1e-12)
        assert out.ece == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_values(self):
        # two items: p = (0.8, 0.2) label 0; p = (0.6, 0.4) label 1
        m = matrix([[[0.8, 0.2]], [[0.6, 0.4]]])
        out = metrics(m, np.array([0, 1]))
        assert out.accuracy == 0.5
        assert out.nll == pytest.approx(-(np.log(0.8) + np.log(0.4)) / 2, rel=1e-12)
        assert out.brier == pytest.approx(
            ((0.2**2 + 0.2**2) + (0.6**2 + 0.6**2)) / 2, rel=1e-12
        )
        # confidences 0.8 and 0.6 land in different bins of 15
        assert out.ece == pytest.approx(0.5 * abs(1 - 0.8) + 0.5 * abs(0 - 0.6), rel=1e-12)

    def test_label_count_mismatch(self):
        m = matrix([[[0.5, 0.5]]])
        with pytest.raises(ValueError):
            metrics(m, np.array([0, 1]))
        with pytest.raises(ValueError, match="labels"):  # the shape check refuses None too
            metrics(m, None)


class TestFeatures:
    def test_names_match_columns(self):
        assert len(FEATURE_NAMES) == 7

    def test_two_point_moments(self):
        # particles (0.9, 0.1) and (0.5, 0.5), equal weight
        m = matrix([[[0.9, 0.1], [0.5, 0.5]]])
        f = features(m, entropy_decomposition(m))[0]
        assert f[0] == pytest.approx(0.7)  # p_max of mean (0.7, 0.3)
        assert f[2] == pytest.approx(0.7)  # E[p_max] = (0.9 + 0.5)/2
        assert f[3] == pytest.approx(0.4)  # E[delta] = (0.8 + 0.0)/2
        assert f[5] == pytest.approx(0.04)  # Var[p_max] = 0.2^2
        assert f[6] == pytest.approx(0.16)  # Var[delta] = 0.4^2

    def test_single_particle_zero_variance(self, rng):
        probs = rng.dirichlet(np.ones(3), size=(5, 1))
        m = matrix(probs)
        f = features(m, entropy_decomposition(m))
        assert np.allclose(f[:, 5], 0.0, atol=1e-12)
        assert np.allclose(f[:, 6], 0.0, atol=1e-12)
        assert np.allclose(f[:, 4], 0.0, atol=1e-9)  # no epistemic spread

    def test_single_class_rejected(self):
        m = matrix([[[1.0]]])
        with pytest.raises(ValueError):
            features(m, entropy_decomposition(m))


class TestStandardizer:
    def test_fit_apply_zero_mean_unit_std(self, rng):
        x = rng.normal(3.0, 2.0, size=(100, 4))
        z = Standardizer.fit(x).apply(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_unscaled(self):
        x = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
        z = Standardizer.fit(x).apply(x)
        assert np.allclose(z[:, 0], 0.0)


class TestMeta:
    def separable_features(self, rng, n=200):
        # positives low-confidence, negatives high-confidence
        f = rng.normal(size=(n, 7)) * 0.1
        y = rng.integers(0, 2, n)
        f[:, 0] += np.where(y == 1, 0.3, 0.9)
        f[:, 1] += np.where(y == 1, 1.5, 0.2)
        return f, y

    def test_learns_separable_rule(self, rng):
        f, y = self.separable_features(rng)
        meta = train_meta(f, y, seed=0)
        p = meta.predict_incorrect(f)
        assert ((p >= 0.5) == y).mean() > 0.9

    def test_probabilities_in_unit_interval(self, rng):
        f, y = self.separable_features(rng)
        p = train_meta(f, y, seed=1).predict_incorrect(f)
        assert np.all((p >= 0) & (p <= 1))

    def test_single_class_rejected(self, rng):
        f = rng.normal(size=(50, 7))
        with pytest.raises(ValueError):
            train_meta(f, np.zeros(50, dtype=int))

    def test_bad_labels_rejected(self, rng):
        f = rng.normal(size=(10, 7))
        with pytest.raises(ValueError):
            train_meta(f, np.full(10, 2))

    def test_bit_identical_at_one_seed(self, rng):
        f, y = self.separable_features(rng)
        a, b = train_meta(f, y, seed=3), train_meta(f, y, seed=3)
        assert np.array_equal(a.theta, b.theta)

    def test_perfectly_separable_set_finishes_within_the_cap(self, rng, monkeypatch):
        f = rng.normal(size=(400, 7))
        y = (f[:, 0] > 0).astype(int)
        f[:, 0] += np.where(y == 1, 5.0, -5.0)  # a wide margin along one feature
        runs = []

        def spy(objective, theta):
            points = []
            out = _lbfgs(counted(objective, points), theta)
            runs.append((len(points), *out[1:]))
            return out

        monkeypatch.setattr(uncertainty, "_lbfgs", spy)
        meta = train_meta(f, y, seed=0)
        [(evaluations, iterations, reason)] = runs
        assert iterations <= LBFGS_MAX_ITER and evaluations <= 1 + iterations * LBFGS_MAX_TRIALS
        assert reason in ("gradient", "decrease", "iterations")
        assert np.array_equal(meta.predict_incorrect(f) >= 0.5, y == 1)


def counted(objective, points):
    """``objective``, recording each point it is asked for."""

    def wrapped(theta):
        points.append(np.array(theta))
        return objective(theta)

    return wrapped


class TestLbfgs:
    def test_reaches_the_scipy_optimum_of_a_convex_problem(self, rng):
        # a linear-softmax model under a Gaussian prior: strictly convex
        spec = NetworkSpec(kind="mlp", widths=(7, 2))
        x = rng.normal(size=(300, 7))
        y = (x @ rng.normal(size=7) + rng.normal(size=300) > 0).astype(int)
        prior = GaussianPrior(variance=1.0, dim=spec.n_params)

        def objective(theta):
            ll, g = log_likelihood_and_grad(spec, theta, Dataset(x, y))
            n = len(x)
            return -(ll + prior.log_density(theta)) / n, -(g + prior.grad_log_density(theta)) / n

        theta0 = rng.normal(size=spec.n_params)
        theta, _, _ = _lbfgs(objective, theta0)
        tight = dict(gtol=1e-12, ftol=1e-15)
        reference = minimize(objective, theta0, jac=True, method="L-BFGS-B", options=tight)
        f, g = objective(theta)
        assert abs(f - reference.fun) <= 1e-8 * abs(reference.fun)
        assert np.abs(g).max() <= LBFGS_GTOL

    def test_non_finite_trial_is_halved_not_accepted(self):
        # finite only at theta >= 0.5; the first trial step lands at 0.2
        def objective(theta):
            f = 5.0 * (theta[0] - 0.6) ** 2 if theta[0] >= 0.5 else np.nan
            return f, 10.0 * (theta - 0.6)

        points = []
        theta, _, reason = _lbfgs(counted(objective, points), np.array([1.2]))
        assert points[1][0] == pytest.approx(0.2) and points[2][0] == pytest.approx(0.7)
        assert reason == "gradient" and theta[0] == pytest.approx(0.6, abs=1e-6)

    def test_no_passing_trial_keeps_the_last_iterate(self):
        points = []
        start = np.array([1.0, -2.0])
        objective = counted(lambda t: (0.0, t) if np.array_equal(t, start) else (np.inf, t), points)
        theta, iterations, reason = _lbfgs(objective, start)
        assert (reason, iterations) == ("line search", 0)
        assert np.array_equal(theta, start) and len(points) == 1 + LBFGS_MAX_TRIALS

    def test_non_finite_start_raises(self):
        with pytest.raises(TrainingDivergedError):
            _lbfgs(lambda t: (np.nan, t), np.zeros(3))


class TestAbstention:
    def test_perfect_meta_perfect_accuracy(self):
        base_correct = np.array([True, False, True, False])
        p_inc = (~base_correct).astype(float)
        out = abstain_2level(p_inc, base_correct, 0.5)
        assert out.accuracy == 1.0
        assert np.array_equal(out.abstain, ~base_correct)

    def test_never_abstain_recovers_base_accuracy(self):
        base_correct = np.array([True, True, False, True])
        out = abstain_2level(np.zeros(4), base_correct, 0.5)
        assert not out.abstain.any()
        assert out.accuracy == 0.75

    def test_always_abstain_inverts(self):
        base_correct = np.array([True, False])
        out = abstain_2level(np.ones(2), base_correct, 0.5)
        assert out.abstain.all()
        assert out.accuracy == 0.5

    def test_threshold_boundary_inclusive(self):
        out = abstain_2level(np.array([0.5]), np.array([False]), 0.5)
        assert out.abstain[0]


class TestAucAndThresholds:
    def test_perfect_separation(self):
        assert auc_roc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1])) == 1.0

    def test_reversed_separation(self):
        assert auc_roc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([0, 0, 1, 1])) == 0.0

    def test_random_scores_near_half(self, rng):
        scores = rng.random(4000)
        labels = rng.integers(0, 2, 4000)
        assert auc_roc(scores, labels) == pytest.approx(0.5, abs=0.05)

    def test_ties_get_average_rank(self):
        # all scores tied: AUC must be exactly 0.5
        assert auc_roc(np.full(6, 0.3), np.array([1, 0, 1, 0, 1, 0])) == 0.5

    def test_matches_trapezoid_oracle(self, rng):
        scores = rng.random(500)
        labels = (scores + rng.normal(scale=0.3, size=500)) > 0.5
        if labels.all() or not labels.any():
            pytest.skip("degenerate draw")
        # trapezoidal ROC integration oracle
        order = np.argsort(-scores)
        tp = np.concatenate([[0], np.cumsum(labels[order])])
        fp = np.concatenate([[0], np.cumsum(~labels[order])])
        tpr, fpr = tp / tp[-1], fp / fp[-1]
        oracle = np.trapezoid(tpr, fpr)
        assert auc_roc(scores, labels) == pytest.approx(oracle, abs=1e-10)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_roc(np.array([0.1, 0.9]), np.array([1, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        # sorted as a value, NaN would rank above every score and give a
        # finite, wrong AUC
        with pytest.raises(ValueError, match="finite"):
            auc_roc(np.array([0.1, bad, 0.9, 0.4]), np.array([0, 1, 1, 0]))

    @pytest.mark.parametrize("ties", ["untied", "rounded", "integer"])
    def test_equals_rankdata_statistic(self, rng, ties):
        from scipy.stats import rankdata

        for _ in range(50):
            n = int(rng.integers(2, 400))
            scores = rng.normal(size=n)
            if ties == "rounded":
                scores = np.round(scores, 2)
            elif ties == "integer":
                scores = rng.integers(0, 5, n).astype(float)
            labels = rng.integers(0, 2, n).astype(bool)
            labels[:2] = (True, False)
            n_pos, n_neg = int(labels.sum()), int((~labels).sum())
            reference = (rankdata(scores)[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
            assert auc_roc(scores, labels) == reference

    def test_threshold_report_hand_case(self):
        scores = np.array([0.9, 0.8, 0.3, 0.2])
        labels = np.array([1, 1, 0, 0])
        rep = threshold_metrics(scores, labels)
        assert rep.auc == 1.0
        assert rep.precision_05 == 1.0
        assert rep.recall_05 == 1.0
        assert rep.f1_05 == 1.0
        assert rep.f1_best == 1.0

    def test_best_f1_beats_half_threshold(self, rng):
        # scores shifted so that 0.5 is a poor operating point
        labels = rng.integers(0, 2, 300).astype(bool)
        scores = np.where(labels, 0.35, 0.15) + rng.random(300) * 0.05
        rep = threshold_metrics(scores, labels)
        assert rep.f1_best >= rep.f1_05
        assert rep.f1_best > 0.9

    @pytest.mark.parametrize("ties", ["untied", "rounded", "grid", "few"])
    def test_equals_threshold_loop(self, rng, ties):
        # the grid search as one F1 evaluation per threshold, first best kept
        def prf(scores, labels, tau):
            pred = scores >= tau
            tp = int(np.sum(pred & labels))
            fp = int(np.sum(pred & ~labels))
            fn = int(np.sum(~pred & labels))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            return precision, recall, f1

        def reference(scores, labels):
            best = (0.0, 0.0, 0.0, 0.0)  # f1, threshold, precision, recall
            for tau in np.arange(0.0, 1.0 + THRESHOLD_GRID_STEP / 2, THRESHOLD_GRID_STEP):
                p, r, f = prf(scores, labels, tau)
                if f > best[0]:
                    best = (f, tau, p, r)
            return ThresholdReport(
                auc_roc(scores, labels), *prf(scores, labels, 0.5), best[1], *best[2:], best[0]
            )

        grid = np.arange(0.0, 1.0 + THRESHOLD_GRID_STEP / 2, THRESHOLD_GRID_STEP)
        for _ in range(40):
            n = int(rng.integers(2, 300))
            scores = rng.random(n) * 1.2 - 0.1  # some below and above the grid
            if ties == "rounded":
                scores = np.round(scores, 2)
            elif ties == "grid":  # exactly on grid points, 0.5 among them
                scores = rng.choice(np.append(grid, 0.5), n)
            elif ties == "few":
                scores = rng.choice([0.0, 0.25, 0.5, 1.0], n)
            labels = rng.random(n) < rng.random()
            labels[:2] = (True, False)
            assert threshold_metrics(scores, labels) == reference(scores, labels)
