import numpy as np
import pytest

from anchormc.nets import NetworkSpec, pack, unpack


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def finite_difference_grad(f, theta, step=1e-5):
    """Central differences, component by component."""
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (f(up) - f(dn)) / (2 * step)
    return g


MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix_reference(z: int) -> int:
    """SplitMix64's output function on one Python integer, with explicit
    masking: the loop form that the array mixer must equal."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


U53 = 2.0**-53 - 2.0**-106  # the smallest uniform; (k + 1) * U53 for the top 53 bits k


def stream_normal(streams, d: int) -> np.ndarray:
    """``d`` standard normals per row of ``streams`` (a ``kernels.RowStreams``),
    (N, d), by Box-Muller on its next 2 * ceil(d / 2) words: radii from the
    first half, angles from the second, with cosine and sine from
    t = tan(angle / 2). With ``stream_uniform`` after it, the reference that
    a sweep's block of draws must equal."""
    m = (d + 1) // 2
    k = streams._words(2 * m)
    r = np.sqrt(-2.0 * np.log((k[:, :m] + 1) * U53))
    t = np.tan(k[:, m:] * (np.pi * 2.0**-53))
    q = r / (1.0 + t * t)
    return np.concatenate([(1.0 - t * t) * q, 2.0 * t * q], axis=1)[:, :d]


def stream_uniform(streams) -> np.ndarray:
    """One uniform in (0, 1) per row of ``streams``, (N,), from its next word."""
    return (streams._words(1)[:, 0] + 1) * U53


def mnist7_cnn_spec():
    """The 28x28 8-class CNN of criteria 08 and 10: 4 channels of 3x3
    kernels, unit stride and padding, 2x2 max-pool, linear head; 6320
    parameters."""
    return NetworkSpec(kind="cnn", image_shape=(28, 28), n_classes=8)


def per_row(loglik, loglik_and_grad):
    """Lift a per-vector pair, ``loglik(theta) -> float`` and
    ``loglik_and_grad(theta) -> (float, (d,))``, to the bank form
    ``TargetDensity`` takes, by calling it on each row in turn: the
    reference that a bank-shaped likelihood must match."""

    def bank_loglik(thetas):
        return np.array([loglik(theta) for theta in thetas], dtype=float)

    def bank_loglik_and_grad(thetas):
        ll, gl = np.empty(len(thetas)), np.empty(np.shape(thetas))
        for i, theta in enumerate(thetas):
            ll[i], gl[i] = loglik_and_grad(theta)
        return ll, gl

    return bank_loglik, bank_loglik_and_grad


def one_vector_log_probs(spec, theta, inputs):
    """The network at one parameter vector over all rows of
    ``nets._network_input``'s ``inputs`` at once, as it ran before passes
    took banks: log-probabilities (n, K) and the cache for backprop."""
    layers = unpack(spec, theta)
    if spec.kind == "mlp":
        activations = [inputs]
        for i, (w, b) in enumerate(layers):
            pre = activations[-1] @ w.T + b
            if i < len(layers) - 1:
                activations.append(np.maximum(pre, 0.0))
        logits, cache = pre, {"activations": activations}
    else:
        c = spec.conv_channels
        (wc, bc), (wl, bl) = layers
        kernel = np.concatenate([wc.reshape(c, 9).T, bc[None]])  # (10, c)
        conv = (inputs.reshape(-1, 10) @ kernel).reshape(*inputs.shape[:3], c)
        pooled = np.maximum(conv.max(axis=1), 0.0)
        logits = pooled.reshape(len(inputs), -1) @ wl.T + bl
        cache = {"conv": conv, "pooled": pooled}
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True)), cache


def one_vector_loglik_and_grad(spec, theta, inputs, y):
    """The log-likelihood at labels ``y`` and its gradient, from
    ``one_vector_log_probs`` and one backward pass over all rows."""
    logp, cache = one_vector_log_probs(spec, theta, inputs)
    idx = np.arange(len(logp))
    dlogits = -np.exp(logp)
    dlogits[idx, y] += 1.0
    layers = unpack(spec, theta)
    if spec.kind == "mlp":
        activations, grads, delta = cache["activations"], [None] * len(layers), dlogits
        for i in range(len(layers) - 1, -1, -1):
            grads[i] = (delta.T @ activations[i], delta.sum(axis=0))
            if i > 0:
                delta = (delta @ layers[i][0]) * (activations[i] > 0)
        return float(logp[idx, y].sum()), pack(spec, grads)
    conv, pooled = cache["conv"], cache["pooled"]
    dpool = (dlogits @ layers[1][0]).reshape(pooled.shape)
    route = conv == pooled[:, None]
    taken = pooled <= 0  # the first maximal corner of a live window
    for k in range(4):
        route[:, k] &= ~taken
        taken |= route[:, k]
    dconv = route * dpool[:, None]
    dkernel = inputs.reshape(-1, 10).T @ dconv.reshape(-1, spec.conv_channels)
    dwl = dlogits.T @ pooled.reshape(len(logp), -1)
    grads = [(dkernel[:9].T, dkernel[9]), (dwl, dlogits.sum(axis=0))]
    return float(logp[idx, y].sum()), pack(spec, grads)
