import math

import numpy as np
import pytest

from anchormc import nets
from anchormc.data import Dataset
from anchormc.nets import (
    EnsembleMemberError,
    NetworkSpec,
    OptConfig,
    deep_ensemble,
    forward,
    log_likelihood_and_grad,
    map_estimate,
    pack,
    unpack,
)
from anchormc.targets import GaussianPrior

from conftest import (
    finite_difference_grad,
    mnist7_cnn_spec,
    one_vector_log_probs,
    one_vector_loglik_and_grad,
    per_row,
)


def small_mlp():
    return NetworkSpec(kind="mlp", widths=(3, 4, 2))


def tiny_cnn():
    return NetworkSpec(kind="cnn", image_shape=(4, 4), conv_channels=2, n_classes=3)


class TestSpec:
    def test_mnist7_parameter_count(self):
        assert mnist7_cnn_spec().n_params == 6320

    def test_mlp_parameter_count(self):
        # (3->4): 12+4, (4->2): 8+2
        assert small_mlp().n_params == 26

    def test_pack_unpack_roundtrip(self, rng):
        for spec in (small_mlp(), tiny_cnn()):
            theta = rng.normal(size=spec.n_params)
            assert np.array_equal(pack(spec, unpack(spec, theta)), theta)


class TestForward:
    def test_zero_parameters_give_uniform(self):
        spec = small_mlp()
        p = forward(spec, np.zeros(spec.n_params), np.array([0.5, -1.0, 2.0]))
        assert np.allclose(p, 0.5)

    def test_equal_bias_logits_give_uniform(self, rng):
        spec = NetworkSpec(kind="mlp", widths=(2, 3))
        theta = np.zeros(spec.n_params)
        theta[-3:] = 1.0  # biases only, all equal
        p = forward(spec, theta, np.zeros(2))
        assert np.allclose(p, 1 / 3)

    def test_hand_softmax(self):
        # single linear layer, logits (ln 3, 0) -> (0.75, 0.25)
        spec = NetworkSpec(kind="mlp", widths=(1, 2))
        theta = np.array([np.log(3.0), 0.0, 0.0, 0.0])  # W=(ln3, 0), b=0
        p = forward(spec, theta, np.array([1.0]))
        assert np.allclose(p, [0.75, 0.25], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        for spec in (small_mlp(), tiny_cnn()):
            theta = rng.normal(size=spec.n_params)
            x = rng.normal(size=(7, spec.widths[0] if spec.kind == "mlp" else 16))
            p = forward(spec, theta, x)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p > 0)

    def test_shape_mismatch_rejected(self, rng):
        spec = small_mlp()
        with pytest.raises(ValueError):
            forward(spec, np.zeros(spec.n_params), np.zeros(5))

    def test_stack_of_parameter_vectors_equals_one_call_each(self, rng):
        # one bank pass for the stack: its rows' bits may depend on the
        # stack's size, so they match one call each to a tolerance
        for spec in (small_mlp(), tiny_cnn()):
            thetas = rng.normal(size=(3, spec.n_params))
            x = rng.normal(size=(7, spec.widths[0] if spec.kind == "mlp" else 16))
            p = forward(spec, thetas, x)
            assert p.shape == (3, 7, spec.n_outputs)
            for t, theta in enumerate(thetas):
                assert np.allclose(p[t], forward(spec, theta, x), rtol=1e-12, atol=0)
                assert np.allclose(
                    forward(spec, thetas, x[0])[t], forward(spec, theta, x[0]), rtol=1e-12, atol=0
                )


class TestLikelihood:
    def test_uniform_output_single_item(self):
        spec = small_mlp()
        data = Dataset(x=np.zeros((1, 3)), y=np.array([1]))
        ll, _ = log_likelihood_and_grad(spec, np.zeros(spec.n_params), data)
        assert ll == pytest.approx(np.log(0.5))

    def test_duplicated_item_doubles(self, rng):
        spec = small_mlp()
        theta = rng.normal(size=spec.n_params)
        x = rng.normal(size=(1, 3))
        one = Dataset(x=x, y=np.array([0]))
        two = Dataset(x=np.vstack([x, x]), y=np.array([0, 0]))
        ll1, g1 = log_likelihood_and_grad(spec, theta, one)
        ll2, g2 = log_likelihood_and_grad(spec, theta, two)
        assert ll2 == pytest.approx(2 * ll1, rel=1e-12)
        assert np.allclose(g2, 2 * g1, rtol=1e-12)

    @pytest.mark.parametrize("spec_fn", [small_mlp, tiny_cnn], ids=["mlp", "cnn"])
    def test_gradient_matches_finite_differences(self, spec_fn, rng):
        spec = spec_fn()
        theta = rng.normal(size=spec.n_params) * 0.5
        n_in = spec.widths[0] if spec.kind == "mlp" else 16
        data = Dataset(x=rng.normal(size=(5, n_in)), y=rng.integers(0, spec.n_outputs, 5))
        _, grad = log_likelihood_and_grad(spec, theta, data)
        num = finite_difference_grad(
            lambda t: log_likelihood_and_grad(spec, t, data)[0], theta
        )
        assert np.allclose(grad, num, rtol=1e-4, atol=1e-7)

    def test_deeper_mlp_gradient(self, rng):
        spec = NetworkSpec(kind="mlp", widths=(4, 6, 5, 3))  # d ~ 65
        theta = rng.normal(size=spec.n_params) * 0.3
        data = Dataset(x=rng.normal(size=(5, 4)), y=rng.integers(0, 3, 5))
        _, grad = log_likelihood_and_grad(spec, theta, data)
        num = finite_difference_grad(
            lambda t: log_likelihood_and_grad(spec, t, data)[0], theta
        )
        assert np.allclose(grad, num, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("spec_fn", [small_mlp, tiny_cnn], ids=["mlp", "cnn"])
    def test_rows_of_precomputed_input_equal_batch_input(self, spec_fn, rng):
        # map_estimate takes each minibatch as rows of the network input of
        # the whole training set: shuffled rows, and a short final batch
        spec = spec_fn()
        n_in = spec.widths[0] if spec.kind == "mlp" else 16
        data = Dataset(x=rng.normal(size=(23, n_in)), y=rng.integers(0, spec.n_outputs, 23))
        theta = rng.normal(size=spec.n_params) * 0.5
        inputs = nets._network_input(spec, data.x)
        order = rng.permutation(len(data))
        for start in range(0, len(data), 8):
            idx = order[start : start + 8]
            assert np.array_equal(inputs[idx], nets._network_input(spec, data.x[idx]))
            (ll,), (grad,) = nets._network_pass(spec, theta[None], inputs[idx], data.y[idx], True)
            ll_ref, grad_ref = log_likelihood_and_grad(spec, theta, data.subset(idx))
            assert ll == ll_ref
            assert np.array_equal(grad, grad_ref)
        assert len(idx) == 7


class TestNetworkInput:
    def test_cnn_patches_are_corner_major_with_a_ones_column(self, rng):
        spec = NetworkSpec(kind="cnn", image_shape=(4, 6), conv_channels=2, n_classes=3)
        x = rng.normal(size=(3, 24))
        inputs = nets._network_input(spec, x)
        assert inputs.shape == (3, 4, 6, 10)
        assert inputs.flags.c_contiguous
        padded = np.pad(x.reshape(3, 4, 6), ((0, 0), (1, 1), (1, 1)))
        for a in (0, 1):
            for b in (0, 1):
                for r in range(2):
                    for s in range(3):
                        # corner (a, b) of pool window (r, s) is pixel (2r + a, 2s + b)
                        patch = padded[:, 2 * r + a : 2 * r + a + 3, 2 * s + b : 2 * s + b + 3]
                        row = inputs[:, 2 * a + b, 3 * r + s]
                        assert np.array_equal(row[:, :9], patch.reshape(3, 9))
        assert np.all(inputs[..., 9] == 1.0)


def first_corner(window):
    return window.index(max(window))


def last_corner(window):
    return len(window) - 1 - window[::-1].index(max(window))


def naive_log_probs(spec, theta, x):
    """The CNN's log class probabilities, pixel by pixel: 3x3 conv over the
    zero-padded image, ReLU, 2x2 max-pool, linear head, log-softmax."""
    (wc, bc), (wl, bl) = unpack(spec, theta)
    (h, w), c, n = spec.image_shape, spec.conv_channels, x.shape[0]
    padded = np.pad(x.reshape(n, h, w), ((0, 0), (1, 1), (1, 1)))
    conv = np.empty((n, h, w, c))
    for r in range(h):
        for s in range(w):
            conv[:, r, s] = np.einsum("nab,cab->nc", padded[:, r : r + 3, s : s + 3], wc[:, 0]) + bc
    relu = np.maximum(conv, 0.0)
    pooled = np.maximum.reduce([relu[:, a::2, b::2] for a in (0, 1) for b in (0, 1)])
    logits = pooled.reshape(n, -1) @ wl.T + bl
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def pooled_gradient_reference(spec, theta, x, y, corner):
    """The CNN log-likelihood gradient, pooled window by window: each 2x2
    window's gradient goes to the corner ``corner(window)`` picks from its
    four values in row-major order."""
    (wc, bc), (wl, bl) = unpack(spec, theta)
    (h, w), c, n = spec.image_shape, spec.conv_channels, x.shape[0]
    padded = np.pad(x.reshape(n, h, w), ((0, 0), (1, 1), (1, 1)))
    patches = np.stack(
        [padded[:, r : r + 3, s : s + 3] for r in range(h) for s in range(w)], axis=1
    )  # (n, h*w, 3, 3)
    conv = (np.einsum("npab,cab->npc", patches, wc[:, 0]) + bc).reshape(n, h, w, c)
    relu = np.maximum(conv, 0.0)
    pooled = np.zeros((n, h // 2, w // 2, c))
    routed = {}
    for i in range(n):
        for r in range(h // 2):
            for s in range(w // 2):
                for k in range(c):
                    window = [relu[i, 2 * r + a, 2 * s + b, k] for a in (0, 1) for b in (0, 1)]
                    pooled[i, r, s, k] = max(window)
                    a, b = divmod(corner(window), 2)
                    routed[i, r, s, k] = (2 * r + a, 2 * s + b)
    flat = pooled.reshape(n, -1)
    logits = flat @ wl.T + bl
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    dlogits = np.eye(spec.n_classes)[y] - probs / probs.sum(axis=1, keepdims=True)
    dpool = (dlogits @ wl).reshape(pooled.shape)
    dconv = np.zeros((n, h, w, c))
    for (i, r, s, k), (a, b) in routed.items():
        if conv[i, a, b, k] > 0:
            dconv[i, a, b, k] = dpool[i, r, s, k]
    dwc = np.einsum("npab,npc->cab", patches, dconv.reshape(n, h * w, c))[:, None]
    return pack(spec, [(dwc, dconv.sum(axis=(0, 1, 2))), (dlogits.T @ flat, dlogits.sum(axis=0))])


def image_data(rng, shape, n, n_classes=8):
    x = rng.random((n, shape[0] * shape[1]))
    return Dataset(x=x, y=rng.integers(0, n_classes, n), image_shape=shape)


def assert_bank_matches_per_row(spec, data, thetas):
    """The bank pass (the likelihood pair and ``forward``) against the
    one-vector pass run row by row: values and probabilities at rtol 1e-12,
    gradients at rtol 1e-12 of their largest entry, since entries near 0 are
    sums that cancel."""
    inputs = nets._network_input(spec, data.x)
    pair = lambda theta: one_vector_loglik_and_grad(spec, theta, inputs, data.y)  # noqa: E731
    ref_values, ref_grads = per_row(lambda theta: pair(theta)[0], pair)[1](thetas)
    ll, ll_and_grad = nets.make_loglik(spec, data)
    np.testing.assert_allclose(ll(thetas), ref_values, rtol=1e-12, atol=0)
    values, grads = ll_and_grad(thetas)
    np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0)
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    probs = np.exp([one_vector_log_probs(spec, theta, inputs)[0] for theta in thetas])
    np.testing.assert_allclose(forward(spec, thetas, data.x), probs, rtol=1e-12, atol=0)


class TestBankPass:
    """One network pass for a bank of parameter vectors, over blocks of
    data rows, against the one-vector pass."""

    @pytest.mark.parametrize(
        "shape, n", [((8, 8), 64), ((8, 8), 2000), ((28, 28), 300)], ids=["8x8-64", "8x8-2000", "28x28-300"]
    )
    def test_cnn_matches_per_row_reference(self, shape, n, rng):
        spec = NetworkSpec(kind="cnn", image_shape=shape, n_classes=8)
        thetas = rng.normal(size=(8, spec.n_params)) * 0.3
        assert_bank_matches_per_row(spec, image_data(rng, shape, n), thetas)

    @pytest.mark.parametrize("widths", [(7, 50, 2), (4, 6, 5, 3)])
    def test_mlp_matches_per_row_reference(self, widths, rng):
        spec = NetworkSpec(kind="mlp", widths=widths)
        n = 2000  # several blocks at 8 particles, the last one short
        data = Dataset(x=rng.normal(size=(n, widths[0])), y=rng.integers(0, widths[-1], n))
        assert_bank_matches_per_row(spec, data, rng.normal(size=(8, spec.n_params)) * 0.5)

    @pytest.mark.parametrize("spec", [small_mlp(), tiny_cnn()], ids=["mlp", "cnn"])
    def test_short_final_block(self, spec, rng, monkeypatch):
        # blocks of 5 rows over 23 rows: four full blocks and one of 3
        n_bank = 4
        row_floats = sum(spec.widths[1:]) if spec.kind == "mlp" else 16 * spec.conv_channels
        monkeypatch.setattr(nets, "BLOCK_FLOATS", 5 * n_bank * row_floats)
        blocks = []
        real = nets._forward

        def spy(spec, layers, inputs, work):
            blocks.append(len(inputs))
            return real(spec, layers, inputs, work)

        monkeypatch.setattr(nets, "_forward", spy)
        n_in = spec.widths[0] if spec.kind == "mlp" else 16
        data = Dataset(x=rng.normal(size=(23, n_in)), y=rng.integers(0, spec.n_outputs, 23))
        assert_bank_matches_per_row(spec, data, rng.normal(size=(n_bank, spec.n_params)))
        assert blocks[:5] == [5, 5, 5, 5, 3]

    @pytest.mark.parametrize(
        "spec, n",
        [
            (NetworkSpec(kind="cnn", image_shape=(8, 8), n_classes=8), 64),
            (NetworkSpec(kind="cnn", image_shape=(8, 8), n_classes=8), 128),
            (NetworkSpec(kind="cnn", image_shape=(6, 6), conv_channels=2, n_classes=3), 40),
            (NetworkSpec(kind="mlp", widths=(7, 50, 2)), 2000),
            (NetworkSpec(kind="mlp", widths=(4, 6, 5, 3)), 300),
        ],
        ids=["cnn8-64", "cnn8-128", "cnn6-40", "mlp-meta-2000", "mlp-deep-300"],
    )
    def test_one_row_bank_equals_one_vector_pass_bit_for_bit(self, spec, n, rng):
        # rows that fit one block, as map_estimate's batches and validation
        # sets and train_meta's rows do: the same products in the same order
        n_in = spec.widths[0] if spec.kind == "mlp" else math.prod(spec.image_shape)
        x, y = rng.normal(size=(n, n_in)), rng.integers(0, spec.n_outputs, n)
        inputs = nets._network_input(spec, x)
        for theta in rng.normal(size=(3, spec.n_params)) * 0.5:
            ref_ll, ref_grad = one_vector_loglik_and_grad(spec, theta, inputs, y)
            ll, grad = log_likelihood_and_grad(spec, theta, Dataset(x=x, y=y))
            assert ll == ref_ll
            assert grad.tobytes() == ref_grad.tobytes()
            probs = np.exp(one_vector_log_probs(spec, theta, inputs)[0])
            assert forward(spec, theta, x).tobytes() == probs.tobytes()
            pair = nets.make_loglik(spec, Dataset(x=x, y=y, image_shape=spec.image_shape))
            assert pair[0](theta[None])[0] == ref_ll

    def test_every_tie_pattern_in_a_bank_of_short_blocks(self, rng, monkeypatch):
        # the tie patterns of TestMaxPoolTies, for 4 particles whose conv
        # values stay exact (centre taps and biases scaled by powers of 2),
        # in blocks of 2 rows over 3
        spec, x, y, wc, bc = tie_pattern_case(rng)
        monkeypatch.setattr(nets, "BLOCK_FLOATS", 2 * 4 * 64 * spec.conv_channels)
        thetas = np.stack(
            [
                pack(spec, [(wc * scale, bc * scale), (rng.normal(size=(4, 48)), rng.normal(size=4))])
                for scale in (1.0, 0.5, 2.0, 0.25)
            ]
        )
        _, grads = nets.make_loglik(spec, Dataset(x=x, y=y, image_shape=(8, 8)))[1](thetas)
        for grad, theta in zip(grads, thetas):
            first = pooled_gradient_reference(spec, theta, x, y, first_corner)
            last = pooled_gradient_reference(spec, theta, x, y, last_corner)
            assert np.allclose(grad, first, rtol=1e-12, atol=1e-12)
            assert not np.allclose(grad, last, rtol=1e-6, atol=1e-6)


def tie_pattern_case(rng):
    """One 2x2 window per subset of corners holding the bright pixel: 2-,
    3- and 4-way ties with the first tied corner in every position.
    Centre taps only and values exact in binary, so every conv value is
    exactly x * w + b and the reference sees the network's ties. Channel 0
    peaks at the bright corners (live), channel 1 at the dim ones (live, or
    a dead 4-way tie when all four are bright), channel 2 at the bright
    ones (live, dead when none is bright)."""
    spec = NetworkSpec(kind="cnn", image_shape=(8, 8), conv_channels=3, n_classes=4)
    n = 3
    x = np.full((n, 8, 8), 0.25)
    for i in range(n):
        for cell, subset in enumerate(rng.permutation(16)):
            r, s = divmod(cell, 4)
            for corner in range(4):
                if subset >> corner & 1:
                    x[i, 2 * r + corner // 2, 2 * s + corner % 2] = 1.0
    wc = np.zeros((3, 1, 3, 3))
    wc[:, 0, 1, 1] = (1.5, -1.5, 1.0)
    return spec, x.reshape(n, 64), rng.integers(0, 4, n), wc, np.array([0.5, 0.5, -0.5])


class TestMaxPoolTies:
    def test_gradient_goes_to_first_maximal_corner(self, rng):
        spec = NetworkSpec(kind="cnn", image_shape=(6, 6), conv_channels=2, n_classes=3)
        n = 4
        x = np.full((n, 36), 0.2)  # constant background, a few bright pixels
        x[rng.random(x.shape) < 0.15] = 1.0
        y = rng.integers(0, 3, n)
        wl, bl = rng.normal(size=(3, 18)), rng.normal(size=3)
        # centre taps only, so every conv value is exactly x * w + b and the
        # reference sees the network's ties; tied corners still differ in
        # their off-centre pixels, which the weight gradient reads
        wc = np.zeros((2, 1, 3, 3))
        wc[:, 0, 1, 1] = (1.5, -1.5)
        bc = np.array([0.5, 0.5])  # positive: background windows tie above the ReLU
        theta = pack(spec, [(wc, bc), (wl, bl)])
        _, grad = log_likelihood_and_grad(spec, theta, Dataset(x=x, y=y, image_shape=(6, 6)))
        first = pooled_gradient_reference(spec, theta, x, y, first_corner)
        assert np.allclose(grad, first, rtol=1e-12, atol=1e-12)
        # the case tells the tie rules apart
        last = pooled_gradient_reference(spec, theta, x, y, last_corner)
        assert not np.allclose(first, last, rtol=1e-6, atol=1e-6)

    def test_every_tie_pattern_goes_to_its_first_corner(self, rng):
        spec, x, y, wc, bc = tie_pattern_case(rng)
        theta = pack(spec, [(wc, bc), (rng.normal(size=(4, 48)), rng.normal(size=4))])
        _, grad = log_likelihood_and_grad(spec, theta, Dataset(x=x, y=y, image_shape=(8, 8)))
        first = pooled_gradient_reference(spec, theta, x, y, first_corner)
        last = pooled_gradient_reference(spec, theta, x, y, last_corner)
        assert np.allclose(grad, first, rtol=1e-12, atol=1e-12)
        assert not np.allclose(grad, last, rtol=1e-6, atol=1e-6)

    def test_mnist_shape_matches_references(self, rng):
        # the 28x28 shape of criteria 08 and 10, which skip without MNIST
        spec = mnist7_cnn_spec()
        n = 3
        x, y = rng.random((n, 784)), rng.integers(0, 8, n)
        theta = rng.normal(size=spec.n_params) * 0.3
        p = forward(spec, theta, x)
        assert np.allclose(np.log(p), naive_log_probs(spec, theta, x), rtol=1e-12, atol=1e-12)
        _, grad = log_likelihood_and_grad(spec, theta, Dataset(x=x, y=y, image_shape=(28, 28)))
        reference = pooled_gradient_reference(spec, theta, x, y, first_corner)
        assert np.allclose(grad, reference, rtol=1e-12, atol=1e-12)

    def test_gradient_matches_reference_at_benchmark_shape(self, rng):
        # the shape of the cnn-hmc-islands likelihood; finite differences
        # (rtol 1e-4) cannot tell a wrong conv-weight contraction apart
        spec = NetworkSpec(kind="cnn", image_shape=(8, 8), conv_channels=4, n_classes=8)
        n = 64
        x, y = rng.random((n, 64)), rng.integers(0, 8, n)
        theta = rng.normal(size=spec.n_params) * 0.3
        _, grad = log_likelihood_and_grad(spec, theta, Dataset(x=x, y=y, image_shape=(8, 8)))
        reference = pooled_gradient_reference(spec, theta, x, y, first_corner)
        assert np.allclose(grad, reference, rtol=1e-12, atol=1e-12)


def separable_toy(rng, n=20):
    # two clusters far apart along the first coordinate
    x = np.vstack(
        [rng.normal(-3, 0.3, size=(n // 2, 2)), rng.normal(3, 0.3, size=(n // 2, 2))]
    )
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return Dataset(x=x, y=y)


class TestMapEstimate:
    def test_linearly_separable_reaches_full_accuracy(self, rng):
        spec = NetworkSpec(kind="mlp", widths=(2, 2))
        train = separable_toy(rng)
        val = separable_toy(rng)
        prior = GaussianPrior(variance=10.0, dim=spec.n_params)
        result = map_estimate(
            spec, prior, train, val, OptConfig(learning_rate=0.5, max_epochs=100), seed=0
        )
        pred = forward(spec, result.theta, train.x).argmax(axis=1)
        assert np.array_equal(pred, train.y)

    def test_deterministic_given_seed(self, rng):
        spec = NetworkSpec(kind="mlp", widths=(2, 2))
        train, val = separable_toy(rng), separable_toy(rng)
        prior = GaussianPrior(variance=1.0, dim=spec.n_params)
        cfg = OptConfig(max_epochs=20)
        a = map_estimate(spec, prior, train, val, cfg, seed=7)
        b = map_estimate(spec, prior, train, val, cfg, seed=7)
        assert np.array_equal(a.theta, b.theta)
        assert a.epochs_used == b.epochs_used

    def test_empty_training_set_rejected(self):
        spec = NetworkSpec(kind="mlp", widths=(2, 2))
        empty = Dataset(x=np.zeros((0, 2)), y=np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            map_estimate(spec, GaussianPrior(1.0, spec.n_params), empty, empty)

    def test_empty_validation_set_rejected(self, rng):
        # early stopping has no loss to watch, not a diverged fit
        spec = NetworkSpec(kind="mlp", widths=(2, 2))
        empty = Dataset(x=np.zeros((0, 2)), y=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="validation set is empty"):
            map_estimate(spec, GaussianPrior(1.0, spec.n_params), separable_toy(rng), empty)


class TestOptConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", 0.0),
            ("learning_rate", -0.1),
            ("learning_rate", float("nan")),
            ("batch_size", 0),
            ("max_epochs", 0),
            ("patience", 0),
        ],
    )
    def test_out_of_range_value_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptConfig(**{field: value})


class TestDeepEnsemble:
    def test_single_member_equals_map(self, rng):
        spec = NetworkSpec(kind="mlp", widths=(2, 2))
        train, val = separable_toy(rng), separable_toy(rng)
        prior = GaussianPrior(variance=1.0, dim=spec.n_params)
        cfg = OptConfig(max_epochs=10)
        members = deep_ensemble(spec, prior, train, val, cfg, seeds=[3])
        direct = map_estimate(spec, prior, train, val, cfg, seed=3)
        assert np.array_equal(members[0].theta, direct.theta)

    def test_repeat_seeds_bit_identical(self, rng):
        spec = NetworkSpec(kind="mlp", widths=(2, 2))
        train, val = separable_toy(rng), separable_toy(rng)
        prior = GaussianPrior(variance=1.0, dim=spec.n_params)
        cfg = OptConfig(max_epochs=5)
        a = deep_ensemble(spec, prior, train, val, cfg, seeds=range(3))
        b = deep_ensemble(spec, prior, train, val, cfg, seeds=range(3))
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.theta, mb.theta)

    def test_members_differ_across_seeds(self, rng):
        spec = NetworkSpec(kind="mlp", widths=(2, 2))
        train, val = separable_toy(rng), separable_toy(rng)
        prior = GaussianPrior(variance=1.0, dim=spec.n_params)
        members = deep_ensemble(spec, prior, train, val, OptConfig(max_epochs=5), seeds=range(2))
        assert not np.array_equal(members[0].theta, members[1].theta)

    def test_needs_a_seed(self, rng):
        spec = NetworkSpec(kind="mlp", widths=(2, 2))
        train, val = separable_toy(rng), separable_toy(rng)
        prior = GaussianPrior(variance=1.0, dim=spec.n_params)
        with pytest.raises(ValueError, match="at least one member"):
            deep_ensemble(spec, prior, train, val, OptConfig(max_epochs=5), seeds=[])

    def test_failure_names_seed(self, rng):
        spec = NetworkSpec(kind="mlp", widths=(2, 2))
        train, val = separable_toy(rng), separable_toy(rng)
        prior = GaussianPrior(variance=1.0, dim=spec.n_params)
        # absurd learning rate forces divergence
        cfg = OptConfig(learning_rate=1e12, max_epochs=60, patience=60)
        with pytest.raises(EnsembleMemberError) as err:
            deep_ensemble(spec, prior, train, val, cfg, seeds=[42])
        assert err.value.seed == 42
