"""Small MLP and one-conv-layer CNN classifiers with hand-rolled backprop,
the softmax categorical likelihood, and SGD MAP estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .targets import GaussianPrior


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
    """Split a flat parameter vector, or each row of an (N, n_params) bank,
    into per-layer (W, b), layer-major with weights before biases. Views,
    not copies; a bank's carry a leading N axis."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != spec.n_params:
        raise ValueError(
            f"parameters have shape {theta.shape}, spec needs ({spec.n_params},) or (N, {spec.n_params})"
        )
    lead = theta.shape[:-1]
    out = []
    pos = 0
    for ws, bs in spec.layer_shapes:
        nw, nb = math.prod(ws), math.prod(bs)
        out.append((theta[..., pos : pos + nw].reshape(*lead, *ws), theta[..., pos + nw : pos + nw + nb]))
        pos += nw + nb
    return out


def pack(spec: NetworkSpec, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """``unpack``'s inverse, for a vector's layers or a bank's."""
    lead = layers[0][1].shape[:-1]
    return np.concatenate([np.concatenate([w.reshape(*lead, -1), b], -1) for w, b in layers], -1)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


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


# A pass takes its data rows in blocks of as many rows as keep the bank's
# activations within this many floats: N times a row's per particle, the
# conv output (h*w*c) of a CNN or the summed widths of an MLP. Chosen by a
# timing sweep of 2**15 to 2**19. A one-row bank takes 512 rows of an 8x8 CNN
# and 2520 of the meta-classifier's MLP per block, so map_estimate's batches
# and train_meta's rows are one block, with the bits of one full pass.
BLOCK_FLOATS = 2**17


def _forward(spec: NetworkSpec, layers, inputs: np.ndarray, work: np.ndarray | None):
    """Log-probabilities (N, rows, K) of a bank's ``layers`` (``unpack`` of an
    (N, n_params) bank) at a block of ``_network_input`` rows, and the cache
    for backprop.

    The CNN conv is one matmul of the patches with the N particles' kernels
    side by side over their biases, (rows, 4, W, N, c) for the W pool
    windows; the pool is the maximum of its 4 corner blocks, then the ReLU,
    (rows, W, N, c); the linear layer is one batched matmul of the pooled
    features as (N, rows, W*c). These large arrays, and the backward pass's
    pool gradient, live in ``work``: 7 pool-sized arrays, allocated once
    per pass. Arrays made fresh for each block page-fault on every call."""
    if spec.kind == "mlp":
        activations = [inputs]
        for i, (w, b) in enumerate(layers):
            pre = activations[-1] @ w.swapaxes(1, 2)
            pre += b[:, None]
            if i < len(layers) - 1:
                activations.append(np.maximum(pre, 0.0, out=pre))
        return _log_softmax(pre), {"activations": activations}

    (wc, bc), (wl, bl) = layers
    n_bank, c = bc.shape
    rows, _, n_windows, _ = inputs.shape
    size = rows * n_windows * n_bank * c
    conv, (pooled, hidden, dpool) = work[: 4 * size], work[4 * size : 7 * size].reshape(3, size)
    kernels = np.concatenate([wc.reshape(n_bank, c, 9), bc[..., None]], axis=2)
    kernels = kernels.transpose(2, 0, 1).reshape(10, n_bank * c)
    np.matmul(inputs.reshape(-1, 10), kernels, out=conv.reshape(-1, n_bank * c))
    conv = conv.reshape(rows, 4, n_windows, n_bank, c)
    pooled = conv.max(axis=1, out=pooled.reshape(rows, n_windows, n_bank, c))
    np.maximum(pooled, 0.0, out=pooled)  # max commutes with the ReLU
    hidden = hidden.reshape(n_bank, rows, n_windows * c)
    np.copyto(hidden.reshape(n_bank, rows, n_windows, c), pooled.transpose(2, 0, 1, 3))
    cache = {"cols": inputs, "conv": conv, "pooled": pooled, "hidden": hidden, "dpool": dpool}
    return _log_softmax(hidden @ wl.swapaxes(1, 2) + bl[:, None]), cache


def _backward(spec: NetworkSpec, layers, cache: dict, dlogits: np.ndarray):
    """Per-layer (dW, db), each with the bank axis first, of one block from
    d ll / d logits (N, rows, K) and ``_forward``'s cache, whose arrays it
    overwrites."""
    if spec.kind == "mlp":
        activations = cache["activations"]
        grads = [None] * len(layers)
        delta = dlogits
        for i in range(len(layers) - 1, -1, -1):
            grads[i] = (delta.swapaxes(1, 2) @ activations[i], delta.sum(axis=1))
            if i > 0:
                delta = delta @ layers[i][0]
                delta *= activations[i] > 0
        return grads

    conv, pooled, hidden = cache["conv"], cache["pooled"], cache["hidden"]
    rows, n_windows, n_bank, c = pooled.shape
    dwl = dlogits.swapaxes(1, 2) @ hidden
    dpool = cache["dpool"].reshape(pooled.shape)
    np.matmul(dlogits, layers[1][0], out=hidden)  # hidden is read no more
    np.copyto(dpool, hidden.reshape(n_bank, rows, n_windows, c).transpose(1, 2, 0, 3))
    # each window's gradient goes to the first of its corners, in row-major
    # order, that equals the maximum, and only through a live ReLU, into
    # conv's buffer, each corner's once compared
    taken = pooled <= 0  # a dead window routes to no corner
    for k in range(4):
        hit = conv[:, k] == pooled
        hit &= ~taken
        taken |= hit
        np.multiply(hit, dpool, out=conv[:, k])
    # rows 0-8: the kernel gradients; row 9, the ones column: the bias gradients
    dkernels = cache["cols"].reshape(-1, 10).T @ conv.reshape(-1, n_bank * c)
    dkernels = dkernels.reshape(10, n_bank, c)
    return [(dkernels[:9].transpose(1, 2, 0), dkernels[9]), (dwl, dlogits.sum(axis=1))]


def _network_pass(
    spec: NetworkSpec, thetas: np.ndarray, inputs: np.ndarray, y: np.ndarray | None, grad: bool
):
    """The network at each row of the bank ``thetas`` (N, n_params), over the
    ``_network_input`` rows ``inputs`` in blocks of ``BLOCK_FLOATS``.

    With no labels ``y`` it returns the class probabilities (N, n, K);
    with labels, the (N,) sums of log-probabilities at the labels, and with
    ``grad`` also their (N, n_params) gradients, each summed over the
    blocks. Row i of an output depends on row i of ``thetas`` alone."""
    layers = unpack(spec, thetas)
    n_bank, n = len(thetas), len(inputs)
    cnn = spec.kind == "cnn"
    row_floats = math.prod(spec.image_shape) * spec.conv_channels if cnn else sum(spec.widths[1:])
    step = max(1, BLOCK_FLOATS // (n_bank * row_floats))
    work = np.empty(7 * min(step, n) * n_bank * row_floats // 4) if cnn else None
    probs = np.empty((n_bank, n, spec.n_outputs)) if y is None else None
    ll, total = np.zeros(n_bank), None
    for start in range(0, max(n, 1), step):  # no rows: one empty block
        block = slice(start, start + step)
        logp, cache = _forward(spec, layers, inputs[block], work)
        if y is None:
            np.exp(logp, out=probs[:, block])
            continue
        idx, labels = np.arange(logp.shape[1]), y[block]
        ll += logp[:, idx, labels].sum(axis=1)
        if grad:
            dlogits = -np.exp(logp)
            dlogits[:, idx, labels] += 1.0  # d ll / d logits = onehot - p
            grads = _backward(spec, layers, cache, dlogits)
            if total is not None:
                grads = [(gw + dw, gb + db) for (gw, gb), (dw, db) in zip(total, grads)]
            total = grads
    if y is None:
        return probs
    return (ll, pack(spec, total)) if grad else ll


def forward(spec: NetworkSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities, shape (n, K) (or (K,) for a single input).

    ``theta`` may be an (S, n_params) stack of parameter vectors: the result
    is then stacked (S, ...), one array per vector, from one bank pass over
    the network input of ``x``."""
    stacked = np.asarray(theta).ndim == 2
    p = _network_pass(spec, np.atleast_2d(theta), _network_input(spec, x), None, False)
    if np.asarray(x).ndim == 1:
        p = p[:, 0]
    return p if stacked else p[0]


def log_likelihood_and_grad(
    spec: NetworkSpec, theta: np.ndarray, data: Dataset
) -> tuple[float, np.ndarray]:
    """Sum of log softmax probabilities at the labels, and its exact
    gradient: the pass of a one-row bank, at one parameter vector."""
    inputs = _network_input(spec, data.x)
    ll, g = _network_pass(spec, np.asarray(theta, dtype=float)[None], inputs, data.y, True)
    return float(ll[0]), g[0]


def make_loglik(spec: NetworkSpec, data: Dataset):
    """Bind a dataset into the (loglik, loglik_and_grad) pair TargetDensity
    expects, in its bank form: each takes an (N, n_params) bank and runs
    one network pass for the whole bank, over blocks of data rows.

    The network input (the CNN's im2col) is computed once, here. ``loglik``
    runs the forward pass only; ``loglik_and_grad`` runs forward and
    backward and returns the values with the gradients. Neither keeps state
    between calls. A row's bits can depend on the bank's size, since the
    block size and the matmul shapes do; a one-row bank's equal those of
    ``log_likelihood_and_grad`` where its rows fit one block."""
    inputs, y = _network_input(spec, data.x), data.y

    def ll(thetas: np.ndarray) -> np.ndarray:
        return _network_pass(spec, thetas, inputs, y, False)

    def ll_and_grad(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _network_pass(spec, thetas, inputs, y, True)

    return ll, ll_and_grad


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
    if len(val) == 0:
        raise ValueError("validation set is empty")
    if prior.dim != spec.n_params:
        raise ValueError(
            f"prior dimension {prior.dim} does not match parameter count {spec.n_params}"
        )
    rng = np.random.default_rng(seed)
    theta = init_params(spec, prior, rng)
    train_inputs = _network_input(spec, train.x)
    val_inputs = _network_input(spec, val.x)
    m = len(train)
    # minibatches are gathered into one buffer per fit: a fresh copy per
    # batch, with the pass's own buffer, made the heap shrink and regrow
    # (page faults) on every batch
    batch_inputs = np.empty((min(cfg.batch_size, m), *train_inputs.shape[1:]))
    best_nll = np.inf
    best_theta = theta.copy()
    since_best = 0
    epochs_used = 0
    drop_at = int(np.ceil(LR_DROP_FRAC * cfg.max_epochs))
    # a diverging fit ends in TrainingDivergedError, not in numpy warnings first
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            lr = cfg.learning_rate * (0.1 if epoch >= drop_at else 1.0)
            order = rng.permutation(m)
            for start in range(0, m, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                inputs = np.take(train_inputs, batch, axis=0, out=batch_inputs[: len(batch)])
                (ll,), (g_ll,) = _network_pass(spec, theta[None], inputs, train.y[batch], True)
                if not np.isfinite(ll):
                    raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}")
                g = g_ll / len(batch) + prior.grad_log_density(theta) / m
                theta = theta + lr * g
            epochs_used += 1
            val_nll = -_network_pass(spec, theta[None], val_inputs, val.y, False)[0] / len(val)
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
