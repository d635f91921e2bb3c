"""Small MLP and one-conv-layer CNN classifiers with hand-rolled backprop,
the softmax categorical likelihood, and SGD MAP estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .targets import GaussianPrior, per_row


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description; parameter count is fully determined by it.

    mlp: ``widths`` = (n0, ..., nD) with ReLU between linear layers and a
    softmax head; (n0, K) is a plain linear-softmax model.

    cnn: one conv layer over grayscale images (``conv_channels`` 3x3
    kernels, stride 1, padding 1) -> ReLU -> 2x2 max-pool -> linear ->
    softmax.
    """

    kind: str
    widths: tuple[int, ...] = ()
    image_shape: tuple[int, int] = (28, 28)
    conv_channels: int = 4
    n_classes: int = 8

    def __post_init__(self):
        if self.kind == "mlp":
            if len(self.widths) < 2:
                raise ValueError("mlp needs at least input and output widths")
            if self.widths[-1] < 2:
                raise ValueError("output width (number of classes) must be >= 2")
        elif self.kind == "cnn":
            if self.n_classes < 2:
                raise ValueError("number of classes must be >= 2")
            h, w = self.image_shape
            if h % 2 or w % 2:
                raise ValueError("2x2 max-pool requires even image dimensions")
        else:
            raise ValueError(f"unknown architecture kind {self.kind!r}")

    @property
    def n_outputs(self) -> int:
        return self.widths[-1] if self.kind == "mlp" else self.n_classes

    @cached_property
    def layer_shapes(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """(weight shape, bias shape) per layer, in parameter-vector order.
        Worked out once per spec; a tuple, since every caller shares it."""
        if self.kind == "mlp":
            return tuple(
                ((n_out, n_in), (n_out,))
                for n_in, n_out in zip(self.widths[:-1], self.widths[1:])
            )
        h, w = self.image_shape
        c = self.conv_channels
        flat = c * (h // 2) * (w // 2)
        return (
            ((c, 1, 3, 3), (c,)),
            ((self.n_classes, flat), (self.n_classes,)),
        )

    @cached_property
    def n_params(self) -> int:
        return sum(math.prod(ws) + math.prod(bs) for ws, bs in self.layer_shapes)


def unpack(spec: NetworkSpec, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat parameter vector into per-layer (W, b), layer-major with
    weights before biases. Views, not copies."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.n_params,):
        raise ValueError(
            f"parameter vector has shape {theta.shape}, spec needs ({spec.n_params},)"
        )
    out = []
    pos = 0
    for ws, bs in spec.layer_shapes:
        nw, nb = math.prod(ws), math.prod(bs)
        out.append((theta[pos : pos + nw].reshape(ws), theta[pos + nw : pos + nw + nb]))
        pos += nw + nb
    return out


def pack(spec: NetworkSpec, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in layers])


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _im2col(x: np.ndarray) -> np.ndarray:
    """x: (n, h, w) zero-padded by 1 -> (n, 4, h/2 * w/2, 10): per pool-window
    corner (row-major), per window (row-major), the 3x3 patch (row-major)
    and a 1 that carries the conv bias through the patch matmul."""
    n, h, w = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    corners = windows.reshape(n, h // 2, 2, w // 2, 2, 3, 3).transpose(0, 2, 4, 1, 3, 5, 6)
    out = np.empty((n, 2, 2, h // 2, w // 2, 10))
    np.copyto(out[..., :9].reshape(corners.shape), corners)  # a view: splits the last axis
    out[..., 9] = 1.0
    return out.reshape(n, 4, (h // 2) * (w // 2), 10)


def _network_input(spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """What the first layer reads from inputs x of shape (n, features) or
    (features,): x itself for an MLP, ``_im2col``'s patches for a CNN. Row i
    is input i's alone, and a fixed dataset's is computed once."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if spec.kind == "mlp":
        if x.shape[1] != spec.widths[0]:
            raise ValueError(
                f"input width {x.shape[1]} does not match spec width {spec.widths[0]}"
            )
        return x
    h, w_ = spec.image_shape
    if x.shape[1] != h * w_:
        raise ValueError(f"input width {x.shape[1]} does not match image shape {h}x{w_}")
    return _im2col(x.reshape(x.shape[0], h, w_))


def _forward_internal(spec: NetworkSpec, theta: np.ndarray, inputs: np.ndarray):
    """Returns (log-probabilities, cache for backprop) from ``_network_input``'s
    output. The CNN conv is one matmul of the patches with the kernels over
    the bias, (n, 4, P, c); the pool is the maximum of its 4 corner blocks,
    then the ReLU, (n, P, c) in (n, h/2, w/2, c) order. The cache keeps both."""
    layers = unpack(spec, theta)
    if spec.kind == "mlp":
        activations = [inputs]
        pre = None
        for i, (w, b) in enumerate(layers):
            pre = activations[-1] @ w.T + b
            if i < len(layers) - 1:
                activations.append(np.maximum(pre, 0.0))
        return _log_softmax(pre), {"layers": layers, "activations": activations}

    c = spec.conv_channels
    (wc, bc), (wl, bl) = layers
    n = inputs.shape[0]
    kernel = np.concatenate([wc.reshape(c, 9).T, bc[None]])  # (10, c)
    conv = (inputs.reshape(-1, 10) @ kernel).reshape(*inputs.shape[:3], c)
    pooled = np.maximum(conv.max(axis=1), 0.0)  # max commutes with the ReLU
    cache = {"layers": layers, "cols": inputs, "conv": conv, "pooled": pooled}
    return _log_softmax(pooled.reshape(n, -1) @ wl.T + bl), cache


def forward(spec: NetworkSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities, shape (n, K) (or (K,) for a single input).

    ``theta`` may be a (S, n_params) stack of parameter vectors: the result
    is then stacked (S, ...), one array per vector, and the network input of
    ``x`` is computed once for all of them."""
    single = np.asarray(x).ndim == 1
    stacked = np.asarray(theta).ndim == 2
    inputs = _network_input(spec, x)
    p = np.stack(
        [
            np.exp(_forward_internal(spec, t, inputs)[0])
            for t in (theta if stacked else [theta])
        ]
    )
    if single:
        p = p[:, 0]
    return p if stacked else p[0]


def _label_log_prob(logp: np.ndarray, y: np.ndarray) -> float:
    return float(logp[np.arange(logp.shape[0]), y].sum())


def _log_likelihood_and_grad(
    spec: NetworkSpec, theta: np.ndarray, inputs: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    logp, cache = _forward_internal(spec, theta, inputs)
    n = logp.shape[0]
    idx = np.arange(n)
    ll = _label_log_prob(logp, y)

    probs = np.exp(logp)
    dlogits = -probs
    dlogits[idx, y] += 1.0  # d ll / d logits = onehot - p

    layers = cache["layers"]
    if spec.kind == "mlp":
        activations = cache["activations"]
        grads = [None] * len(layers)
        delta = dlogits
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            grads[i] = (delta.T @ activations[i], delta.sum(axis=0))
            if i > 0:
                delta = (delta @ w) * (activations[i] > 0)
        return ll, pack(spec, grads)

    conv, pooled = cache["conv"], cache["pooled"]
    dpool = (dlogits @ layers[1][0]).reshape(pooled.shape)
    # each window's gradient goes to the first of its corners, in row-major
    # order, that equals the maximum, and only through a live ReLU
    route = conv == pooled[:, None]
    taken = pooled <= 0  # a dead window routes to no corner
    for k in range(4):
        route[:, k] &= ~taken
        taken |= route[:, k]
    # into conv's buffer, dead from here: a fresh array of this size
    # page-faults on every call at large n
    dconv = np.multiply(route, dpool[:, None], out=conv)
    # rows 0-8: the kernel gradient; row 9, the ones column: the bias gradient
    dkernel = cache["cols"].reshape(-1, 10).T @ dconv.reshape(-1, spec.conv_channels)
    dwl = dlogits.T @ pooled.reshape(n, -1)
    return ll, pack(spec, [(dkernel[:9].T, dkernel[9]), (dwl, dlogits.sum(axis=0))])


def log_likelihood_and_grad(
    spec: NetworkSpec, theta: np.ndarray, data: Dataset
) -> tuple[float, np.ndarray]:
    """Sum of log softmax probabilities at the labels, and its exact gradient."""
    if data.y is None:
        raise ValueError("log-likelihood needs labeled data")
    return _log_likelihood_and_grad(spec, theta, _network_input(spec, data.x), data.y)


def make_loglik(spec: NetworkSpec, data: Dataset):
    """Bind a dataset into the (loglik, loglik_and_grad) pair TargetDensity
    expects, in its bank form: each takes an (N, n_params) bank and runs
    the network once per row, so every row has the bits of a one-vector
    call.

    The network input (the CNN's im2col) is computed once, here. ``loglik``
    runs the forward pass only; ``loglik_and_grad`` runs forward and
    backward and returns the value with the gradient. Neither keeps state
    between calls."""
    if data.y is None:
        raise ValueError("log-likelihood needs labeled data")
    inputs, y = _network_input(spec, data.x), data.y

    def ll(theta: np.ndarray) -> float:
        logp, _ = _forward_internal(spec, theta, inputs)
        return _label_log_prob(logp, y)

    def ll_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        return _log_likelihood_and_grad(spec, theta, inputs, y)

    return per_row(ll, ll_and_grad)


class TrainingDivergedError(RuntimeError):
    pass


LR_DROP_FRAC = 0.8  # map_estimate decays lr by 10x after this fraction of max_epochs


@dataclass(frozen=True)
class OptConfig:
    learning_rate: float = 1e-2
    batch_size: int = 64
    max_epochs: int = 160
    patience: int = 10

    def __post_init__(self):
        for name in ("learning_rate", "batch_size", "max_epochs", "patience"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class MapResult:
    theta: np.ndarray
    epochs_used: int
    val_nll: float


def init_params(spec: NetworkSpec, prior: GaussianPrior, rng: np.random.Generator) -> np.ndarray:
    # initialization matches the prior scale
    return rng.normal(0.0, np.sqrt(prior.variance), size=spec.n_params)


def map_estimate(
    spec: NetworkSpec,
    prior: GaussianPrior,
    train: Dataset,
    val: Dataset,
    cfg: OptConfig = OptConfig(),
    seed: int = 0,
) -> MapResult:
    """SGD ascent on log-likelihood + log-prior with early stopping on
    validation NLL; restores the best iterate. Deterministic given
    (seed, cfg, data). ``epochs_used`` counts full likelihood+gradient
    sweeps over the training data."""
    if len(train) == 0:
        raise ValueError("training set is empty")
    if train.y is None or val.y is None:
        raise ValueError("log-likelihood needs labeled data")
    if prior.dim != spec.n_params:
        raise ValueError(
            f"prior dimension {prior.dim} does not match parameter count {spec.n_params}"
        )
    rng = np.random.default_rng(seed)
    theta = init_params(spec, prior, rng)
    train_inputs = _network_input(spec, train.x)
    val_inputs = _network_input(spec, val.x)
    m = len(train)
    best_nll = np.inf
    best_theta = theta.copy()
    since_best = 0
    epochs_used = 0
    drop_at = int(np.ceil(LR_DROP_FRAC * cfg.max_epochs))
    for epoch in range(cfg.max_epochs):
        lr = cfg.learning_rate * (0.1 if epoch >= drop_at else 1.0)
        order = rng.permutation(m)
        for start in range(0, m, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            ll, g_ll = _log_likelihood_and_grad(spec, theta, train_inputs[batch], train.y[batch])
            if not np.isfinite(ll):
                raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}")
            g = g_ll / len(batch) + prior.grad_log_density(theta) / m
            theta = theta + lr * g
        epochs_used += 1
        val_nll = -_label_log_prob(_forward_internal(spec, theta, val_inputs)[0], val.y) / len(val)
        if not np.isfinite(val_nll):
            raise TrainingDivergedError(f"validation loss non-finite at epoch {epoch}")
        if val_nll < best_nll:
            best_nll = val_nll
            best_theta = theta.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return MapResult(theta=best_theta, epochs_used=epochs_used, val_nll=float(best_nll))


class EnsembleMemberError(RuntimeError):
    def __init__(self, seed: int, cause: Exception):
        super().__init__(f"ensemble member with seed {seed} failed: {cause}")
        self.seed = seed
        self.cause = cause


def deep_ensemble(
    spec: NetworkSpec,
    prior: GaussianPrior,
    train: Dataset,
    val: Dataset,
    cfg: OptConfig = OptConfig(),
    seeds: range | list[int] = range(10),
) -> list[MapResult]:
    """Independent MAP estimates, one per seed (distinct inits and batch
    orders)."""
    if len(seeds) < 1:
        raise ValueError("ensemble needs at least one member")
    members = []
    for seed in seeds:
        try:
            members.append(map_estimate(spec, prior, train, val, cfg, seed=seed))
        except Exception as e:
            raise EnsembleMemberError(seed, e) from e
    return members
