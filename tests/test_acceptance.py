"""Acceptance suite: one test (and one pass/fail line) per criterion.

Criteria 8 and 10 need the MNIST IDX files, which this environment may not
provide; point ANCHORMC_MNIST_DIR at a directory containing
train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte,
t10k-labels-idx1-ubyte to enable them.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from anchormc.data import load_idx, make_ood, Dataset
from anchormc.diagnostics import hmc_chain, iact
from anchormc.kernels import HmcConfig, PcnConfig, RowStreams, hmc_step, pcn_step, start_state
from anchormc.nets import (
    NetworkSpec,
    OptConfig,
    deep_ensemble,
    log_likelihood_and_grad,
    make_loglik,
    map_estimate,
)
from anchormc.parallel import RunResult, pool, run_parallel, standard_error
from anchormc.smc import SmcConfig, next_lambda, run_smc
from anchormc.targets import (
    GaussianPrior,
    TargetDensity,
    gaussian_loglik,
    make_anchored,
)
from anchormc.toys import bimodal_toy, conjugate_posterior
from anchormc.uncertainty import (
    PredictiveMatrix,
    abstain_2level,
    entropy_decomposition,
    features,
    metrics,
    predictive,
    threshold_metrics,
    train_meta,
)

from conftest import finite_difference_grad, mnist7_cnn_spec


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_conjugate_gaussian_oracle():
    a, sl, v = np.array([1.0, -0.5]), 0.8, 1.5
    post_mean, _, log_ev = conjugate_posterior(a, sl, v)
    ll, ll_and_grad = gaussian_loglik(a, sl)
    target = TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, 2))
    cfg = SmcConfig(
        n_particles=256,
        kernel="pcn",
        pcn=PcnConfig(0.7),
        fixed_schedule=tuple(np.linspace(0.0, 1.0, 21)),
        max_mutation_steps=2,
    )
    t0 = time.time()
    means, evidences = [], []
    for seed in range(200):
        r = run_smc(target, replace(cfg, seed=seed))
        means.append(r.particles.mean(axis=0))
        evidences.append(np.exp(r.log_z))
    elapsed = time.time() - t0
    means = np.array(means)
    evidences = np.array(evidences)
    mean_se = means.std(axis=0, ddof=1) / np.sqrt(len(means))
    mean_ok = np.all(np.abs(means.mean(axis=0) - post_mean) <= 3 * mean_se)
    ev_se = evidences.std(ddof=1) / np.sqrt(len(evidences))
    ev_ok = abs(evidences.mean() - np.exp(log_ev)) <= 3 * ev_se
    time_ok = elapsed < 60.0
    report(
        1,
        mean_ok and ev_ok and time_ok,
        f"posterior mean within 3 SE: {mean_ok}, evidence within 3 SE: {ev_ok}, "
        f"runtime {elapsed:.1f}s < 60s: {time_ok}",
    )


def test_criterion_02_interpolation_limits(rng):
    a = rng.normal(size=3)
    ll, ll_and_grad = gaussian_loglik(a, 0.7)
    v = 0.6
    posterior = TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, 3))
    anchor = rng.normal(size=3)
    s1 = make_anchored(posterior, anchor, 1.0)
    max_gap = max(
        abs(s1.log_density(th) - posterior.log_density(th))
        for th in rng.normal(size=(100, 3))
    )
    pointwise_ok = max_gap < 1e-12
    s = 0.3
    anchored = make_anchored(posterior, anchor, s)
    draws = np.array([anchored.prior.sample(rng) for _ in range(10_000)])
    var_ok = np.all(np.abs(draws.var(axis=0, ddof=1) / (s * v) - 1.0) < 0.05)
    report(
        2,
        pointwise_ok and var_ok,
        f"s=1 max |gap| {max_gap:.2e} < 1e-12: {pointwise_ok}, "
        f"prior-draw variance within 5% of s*v: {var_ok}",
    )


def test_criterion_03_kernel_correctness(rng):
    a, sl, v = np.array([2.0]), 0.5, 1.0
    post_mean, post_var, _ = conjugate_posterior(a, sl, v)
    ll, ll_and_grad = gaussian_loglik(a, sl)
    prior = GaussianPrior(v, 1)
    target = TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=prior)

    n, chains = 40_000, 8

    def bank_draws(step, cfg, seed):
        # a bank of chains started at zero, each with its own stream
        streams = RowStreams.seeded(seed, chains)
        state = start_state(target, np.zeros((chains, 1)), cfg)
        draws = np.empty((n // chains, chains))
        for i in range(n // chains):
            state, _ = step(target, state, cfg, streams)
            draws[i] = state.thetas[:, 0]
        return draws.ravel()

    hmc_draws = bank_draws(hmc_step, HmcConfig(0.5, 3), 0)
    pcn_draws = bank_draws(pcn_step, PcnConfig(0.3), 1)

    def ok(draws, discount):
        se = draws.std() / np.sqrt(n / discount)
        var_se = post_var * np.sqrt(2 * discount / n)
        return (
            abs(draws.mean() - post_mean[0]) <= 3 * se
            and abs(draws.var() - post_var) <= 3 * var_se
        )

    moments_ok = ok(hmc_draws, 10) and ok(pcn_draws, 25)

    th0, p0 = rng.normal(size=4), rng.normal(size=4)
    # value and gradient from one pair, as the likelihood contract requires
    big = TargetDensity(*gaussian_loglik(rng.normal(size=4), 0.9), prior=GaussianPrior(1.0, 4))
    from anchormc.kernels import leapfrog

    cfg = HmcConfig(0.05, 8)
    end, p1, _ = leapfrog(big, start_state(big, th0[None], cfg), p0[None], cfg)
    back, p2, _ = leapfrog(big, end, -p1, cfg)
    rev_ok = np.max(np.abs(back.thetas[0] - th0)) < 1e-10 and np.max(np.abs(-p2[0] - p0)) < 1e-10

    grad_ok = True
    for spec in (
        NetworkSpec(kind="mlp", widths=(3, 4, 2)),
        NetworkSpec(kind="cnn", image_shape=(4, 4), conv_channels=2, n_classes=3),
    ):
        theta = rng.normal(size=spec.n_params) * 0.4
        n_in = spec.widths[0] if spec.kind == "mlp" else 16
        data = Dataset(x=rng.normal(size=(4, n_in)), y=rng.integers(0, spec.n_outputs, 4))
        _, g = log_likelihood_and_grad(spec, theta, data)
        num = finite_difference_grad(lambda t: log_likelihood_and_grad(spec, t, data)[0], theta)
        grad_ok &= bool(np.allclose(g, num, rtol=1e-4, atol=1e-7))

    report(
        3,
        moments_ok and rev_ok and grad_ok,
        f"chain moments: {moments_ok}, leapfrog reversibility < 1e-10: {rev_ok}, "
        f"network gradients at rtol 1e-4: {grad_ok}",
    )


def test_criterion_04_adaptive_tempering(rng):
    from scipy.special import softmax

    n, rho = 100, 0.5
    worst = 0.0
    for trial in range(50):
        ll = rng.normal(scale=rng.uniform(1, 40), size=n)
        lam_prev = rng.uniform(0.0, 0.8)
        lam = next_lambda(ll, lam_prev, rho)
        achieved = 1.0 / np.sum(softmax((lam - lam_prev) * ll) ** 2)
        if lam < 1.0:
            worst = max(worst, abs(achieved - rho * n))
            # dense-grid oracle: the floor is not crossed before the accepted step
            grid = np.linspace(lam_prev + 1e-9, lam, 500)
            for h in grid[:-1]:
                assert 1.0 / np.sum(softmax((h - lam_prev) * ll) ** 2) >= rho * n - 0.01 * n
        else:
            assert 1.0 / np.sum(softmax((1.0 - lam_prev) * ll) ** 2) >= rho * n - 0.01 * n
    ok = worst <= 0.01 * n
    report(4, ok, f"max |ESS - rho*N| = {worst:.4f} <= {0.01 * n}")


def test_criterion_05_log_sum_exp_stability():
    def estimate(log_z0, log_z1):
        results = [
            RunResult(p=p, samples=np.array([[float(p)]]), log_z=log_z, epochs_per_particle=0.0)
            for p, log_z in enumerate((log_z0, log_z1))
        ]
        samples, weights, w, _ = pool(results)
        return weights @ samples[:, 0], w

    with np.errstate(all="raise"):
        e, w = estimate(-1e4, -1e4 + np.log(3.0))
    weights_ok = bool(np.all(np.abs(w - [0.25, 0.75]) < 1e-10))
    shift = 123.456
    e2, _ = estimate(-1e4 + shift, -1e4 + np.log(3.0) + shift)
    shift_ok = abs(e - e2) < 1e-12
    report(
        5,
        weights_ok and shift_ok,
        f"omega = (0.25, 0.75) within 1e-10: {weights_ok}, additive-shift invariant: {shift_ok}",
    )


def test_criterion_06_entropy_identities(rng):
    single = PredictiveMatrix(
        probs=rng.dirichlet(np.ones(4), size=(20, 1)), weights=np.ones(1)
    )
    single_ok = bool(np.all(entropy_decomposition(single).epistemic == 0.0))

    two = PredictiveMatrix(
        probs=np.array([[[1.0, 0.0], [0.0, 1.0]]]), weights=np.full(2, 0.5)
    )
    rep = entropy_decomposition(two)
    two_ok = (
        abs(rep.total[0] - np.log(2)) < 1e-12
        and rep.aleatoric[0] == 0.0
        and abs(rep.epistemic[0] - np.log(2)) < 1e-12
    )

    rand = PredictiveMatrix(
        probs=rng.dirichlet(np.ones(5), size=(10_000, 7)), weights=np.full(7, 1 / 7)
    )
    nonneg_ok = bool(np.all(entropy_decomposition(rand).epistemic >= -1e-9))
    report(
        6,
        single_ok and two_ok and nonneg_ok,
        f"single-particle H_ep == 0: {single_ok}, two-one-hot identity: {two_ok}, "
        f"H_ep >= -1e-9 on 10^4 matrices: {nonneg_ok}",
    )


def test_criterion_07_iact_oracle():
    t = 100_000
    worst = 0.0
    for phi in (0.0, 0.5, 0.9):
        gen = np.random.default_rng(int(phi * 10) + 1)
        x = np.empty(t)
        x[0] = gen.normal()
        for i in range(1, t):
            x[i] = phi * x[i - 1] + gen.normal()
        truth = (1 + phi) / (1 - phi)
        worst = max(worst, abs(iact(x, max_lag=2000) - truth) / truth)
    ok = worst <= 0.15
    report(7, ok, f"max relative IACT error {worst:.3f} <= 0.15")


MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def _mnist_dir():
    d = os.environ.get("ANCHORMC_MNIST_DIR", "")
    if d and all(os.path.exists(os.path.join(d, f)) for f in MNIST_FILES):
        return d
    return None


needs_mnist = pytest.mark.skipif(
    _mnist_dir() is None,
    reason=(
        "MNIST IDX files unavailable; set ANCHORMC_MNIST_DIR to a directory "
        "containing " + ", ".join(MNIST_FILES)
    ),
)


def _mnist7(seed_count=5):
    """Shared heavy pipeline for criteria 8 and 10: per-seed MAP, anchored
    SMC-with-HMC run, and deep ensemble on the 8-class MNIST subset."""
    d = _mnist_dir()
    train_full = load_idx(
        os.path.join(d, MNIST_FILES[0]), os.path.join(d, MNIST_FILES[1])
    )
    test_full = load_idx(os.path.join(d, MNIST_FILES[2]), os.path.join(d, MNIST_FILES[3]))
    keep = list(range(8))
    train8 = train_full.filter_labels(keep)
    train = train8.take(1200)
    val = train8.subset(np.arange(1200, 1400), split="validation")
    test = test_full.filter_labels(keep).take(2000, split="test")
    spec = mnist7_cnn_spec()
    v = 0.1
    prior = GaussianPrior(v, spec.n_params)
    opt = OptConfig(learning_rate=1e-2, batch_size=64, max_epochs=160, patience=10)
    runs = []
    for seed in range(seed_count):
        map_result = map_estimate(spec, prior, train, val, opt, seed=seed)
        ll, ll_and_grad = make_loglik(spec, train)
        posterior = TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=prior)
        target = make_anchored(posterior, map_result.theta, 0.1)
        smc = run_smc(
            target,
            SmcConfig(n_particles=10, kernel="hmc", hmc=None, seed=seed),
        )
        members = deep_ensemble(
            spec, prior, train, val, opt, seeds=range(100 + 10 * seed, 110 + 10 * seed)
        )
        runs.append((map_result, smc, np.array([m.theta for m in members])))
    ood = make_ood(test_full, "heldout", 2000, seed=0)
    return spec, train, test, ood, runs


@pytest.fixture(scope="module")
def mnist7_runs():
    return _mnist7()


@needs_mnist
def test_criterion_08_mnist7_reproduction(mnist7_runs):
    spec, _, test, ood, runs = mnist7_runs
    map_accs, smc_accs, smc_nlls = [], [], []
    order_ok, ratio_ok = True, True
    for map_result, smc, de_thetas in runs:
        w1 = np.ones(1)
        map_accs.append(metrics(predictive(map_result.theta, w1, spec, test.x), test.y).accuracy)
        wN = np.full(len(smc.particles), 1 / len(smc.particles))
        m_test = predictive(smc.particles, wN, spec, test.x)
        mm = metrics(m_test, test.y)
        smc_accs.append(mm.accuracy)
        smc_nlls.append(mm.nll)
        correct = m_test.mean.argmax(axis=1) == test.y
        ep_id = entropy_decomposition(m_test).epistemic
        m_ood = predictive(smc.particles, wN, spec, ood)
        ep_ood = entropy_decomposition(m_ood).epistemic.mean()
        order_ok &= ep_ood > ep_id[~correct].mean() > ep_id[correct].mean()
        wD = np.full(len(de_thetas), 1 / len(de_thetas))
        de_ep_ood = entropy_decomposition(predictive(de_thetas, wD, spec, ood)).epistemic.mean()
        ratio_ok &= ep_ood >= 3 * de_ep_ood
    map_mean, map_se = standard_error(np.array(map_accs))
    smc_mean, smc_se = standard_error(np.array(smc_accs))
    nll_mean, nll_se = standard_error(np.array(smc_nlls))
    map_ok = 0.905 <= map_mean <= 0.940
    acc_ok = 0.915 <= smc_mean <= 0.945
    nll_ok = 0.21 <= nll_mean <= 0.26
    report(
        8,
        map_ok and acc_ok and nll_ok and order_ok and ratio_ok,
        f"MAP acc {map_mean:.3f}±{map_se:.3f} in [0.905,0.940]: {map_ok}; "
        f"sampler acc {smc_mean:.3f}±{smc_se:.3f} in [0.915,0.945]: {acc_ok}; "
        f"NLL {nll_mean:.3f}±{nll_se:.3f} in [0.21,0.26]: {nll_ok}; "
        f"H_ep ordering OOD > wrong > right: {order_ok}; >=3x ensemble OOD H_ep: {ratio_ok}",
    )


def test_criterion_09_mixing_ordering():
    toy = dict(prior_variance=8.0, sigma=0.8)
    cfg = HmcConfig(0.4, 5)
    iacts = {}
    for label, target in {
        "s=0.1": bimodal_toy(s=0.1, **toy),
        "s=0.3": bimodal_toy(s=0.3, **toy),
        "s=1": bimodal_toy(s=1.0, **toy),
        "T=0.2": bimodal_toy(s=1.0, temperature=0.2, **toy),
    }.items():
        theta0 = np.asarray(target.prior.mean, dtype=float)
        states, _ = hmc_chain(target, theta0, cfg, 40_000, seed=0)
        iacts[label] = iact(states[:, 0])
    s_order = iacts["s=0.1"] < iacts["s=0.3"] < iacts["s=1"]
    s_sep = iacts["s=1"] >= 2 * iacts["s=0.1"]
    cold = iacts["T=0.2"] > iacts["s=1"]
    cold_sep = iacts["T=0.2"] >= 2 * iacts["s=1"]
    report(
        9,
        s_order and s_sep and cold and cold_sep,
        "IACT "
        + ", ".join(f"{k}={v:.1f}" for k, v in iacts.items())
        + f"; anchor ordering: {s_order}, >=2x: {s_sep}, cold slower: {cold}, >=2x: {cold_sep}",
    )


@needs_mnist
def test_criterion_10_meta_classifier(mnist7_runs):
    spec, _, test, heldout, runs = mnist7_runs
    _, smc, _ = runs[0]
    wN = np.full(len(smc.particles), 1 / len(smc.particles))
    noise = make_ood(test, "white-noise", 500, seed=1)
    perturbed_raw = make_ood(test, "perturbed", 500, seed=2)
    ood_x = np.concatenate([heldout[:1000], noise, perturbed_raw])

    m_id = predictive(smc.particles, wN, spec, test.x)
    correct_id = m_id.mean.argmax(axis=1) == test.y
    f_id = features(m_id, entropy_decomposition(m_id))
    m_ood = predictive(smc.particles, wN, spec, ood_x)
    f_ood = features(m_ood, entropy_decomposition(m_ood))

    half_id, half_ood = len(test) // 2, len(ood_x) // 2
    f_train = np.concatenate([f_id[:half_id], f_ood[:half_ood]])
    z_train = np.concatenate(
        [(~correct_id[:half_id]).astype(int), np.ones(half_ood, dtype=int)]
    )
    meta = train_meta(f_train, z_train, seed=0)

    f_eval = np.concatenate([f_id[half_id:], f_ood[half_ood:]])
    z_eval = np.concatenate(
        [(~correct_id[half_id:]).astype(int), np.ones(len(ood_x) - half_ood, dtype=int)]
    )
    base_correct = np.concatenate(
        [correct_id[half_id:], np.zeros(len(ood_x) - half_ood, dtype=bool)]
    )
    scores = meta.predict_incorrect(f_eval)
    rep = threshold_metrics(scores, z_eval)
    never = abstain_2level(scores, base_correct, 1.1).accuracy
    best = max(
        abstain_2level(scores, base_correct, tau).accuracy for tau in np.linspace(0, 1, 101)
    )
    auc_ok = rep.auc >= 0.85
    f1_ok = rep.f1_best >= 0.78
    abstain_ok = best > never
    report(
        10,
        auc_ok and f1_ok and abstain_ok,
        f"AUC {rep.auc:.3f} >= 0.85: {auc_ok}; best F1 {rep.f1_best:.3f} >= 0.78: {f1_ok}; "
        f"abstention max {best:.3f} > never-abstain {never:.3f}: {abstain_ok}",
    )


def _errors_in_se(estimate, batches, exact) -> np.ndarray:
    """``estimate - exact`` per coordinate, in standard errors of the mean of
    the batch estimates."""
    columns = np.asarray(batches, dtype=float).reshape(len(batches), -1).T
    se = np.array([standard_error(column)[1] for column in columns])
    return (np.ravel(estimate) - np.ravel(exact)) / se


def test_criterion_11_island_pool_consistency():
    # Each island's Z times its particle mean is unbiased, so the Z-weighted
    # pool of P islands converges to the posterior as P grows at a fixed,
    # small N, and the mean Z to the evidence; the unweighted mean of island
    # means does not. The pool is taken over all P islands; batches of 50
    # give its standard error. A fixed ladder and 2 sweeps per stage, as the
    # adaptive ladder and the displacement stop bias each island by a little.
    a, sl, v = np.array([2.0, -1.0]), 0.1, 1.5
    anchor, s = np.array([1.5, -0.5]), 0.1
    posterior = TargetDensity(*gaussian_loglik(a, sl), prior=GaussianPrior(v, 2))
    post_mean, _, log_ev = conjugate_posterior(a, sl, v)
    shifted_mean, _, anchored_log_ev = conjugate_posterior(a - anchor, sl, s * v)
    cfg = SmcConfig(
        n_particles=8,
        kernel="pcn",
        pcn=PcnConfig(0.5),
        fixed_schedule=(0.0, 0.3, 1.0),
        max_mutation_steps=2,
    )
    n_batches, batch = 40, 50
    ok, details = True, []
    for name, target, exact_mean, exact_log_z, base_seed in (
        ("plain", posterior, post_mean, log_ev, 2903),
        ("s=0.1", make_anchored(posterior, anchor, s), anchor + shifted_mean, anchored_log_ev, 2904),
    ):
        runs = run_parallel(target, cfg, n_batches * batch, base_seed)
        weighted, unweighted, evidences = [], [], []
        for b in range(n_batches):
            islands = runs[b * batch : (b + 1) * batch]
            samples, weights, _, _ = pool(islands)
            weighted.append(weights @ samples)
            unweighted.append(np.mean([r.samples.mean(axis=0) for r in islands], axis=0))
            evidences.append(np.mean([np.exp(r.log_z) for r in islands]))
        samples, weights, _, _ = pool(runs)
        pool_err = _errors_in_se(weights @ samples, weighted, exact_mean)
        z_err = _errors_in_se(np.mean(evidences), evidences, np.exp(exact_log_z))
        naive_err = _errors_in_se(np.mean(unweighted, axis=0), unweighted, exact_mean)
        pool_ok = bool(np.all(np.abs(pool_err) <= 3))
        z_ok = bool(np.all(np.abs(z_err) <= 3))
        # the oracle's power: without the evidence weights the plain pool misses
        power_ok = name != "plain" or bool(np.max(np.abs(naive_err)) > 10)
        failed_ok = not any(r.failed for r in runs)
        ok = ok and pool_ok and z_ok and power_ok and failed_ok
        details.append(
            f"{name}: Z-weighted pool error {np.round(pool_err, 2).tolist()} SE: {pool_ok}, "
            f"mean Z error {z_err[0]:.2f} SE: {z_ok}, unweighted error "
            f"{np.round(naive_err, 1).tolist()} SE (plain must pass 10): {power_ok}, "
            f"no failed island: {failed_ok}"
        )
    report(11, ok, "; ".join(details))
