"""Minimal differentiable network substrate with exact analytic gradients.

The network is an affine+rectifier trunk over raw feature vectors, inverted
dropout before the heads, and one or two affine+softmax heads (event head
first, imitation/auxiliary head second).  All parameters live in a single
flat float64 vector with a deterministic layout, so checkpoints, SGD updates,
and finite-difference checks all speak the same representation.

``ParamStore`` binds each layer's weight and bias views once, when it is
built; ``forward`` and ``backward`` walk those bound pairs.  ``forward``
computes every head by default, or only the heads named in ``heads``; the
others stay ``None`` in the cache.  The cache keeps only what ``backward``
and the losses read: each trunk layer's rectified output, rectified in
place (``backward`` masks with ``out > 0``, true exactly where the
pre-activation is positive), and each head's softmax and log-softmax.

Losses: cross-entropy on hard labels and a soft-target imitation loss in
two directions.  Each returns its gradient with respect to one head's
pre-activations, batch-scaled; ``backward`` maps a dict of such head
gradients to parameter space and adds them into a caller-owned gradient
store laid out like the parameters (``ParamStore.zeros_like``), so two
backward passes can share one store.  The transfer modes' weighted sums of
these losses are composed by the training loop, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DROPOUT = 0.7
DEFAULT_LR = 0.01
DEFAULT_MOMENTUM = 0.9

SOFT_TARGET_AS_DISTRIBUTION = "target_as_distribution"
SOFT_TARGET_IN_LOG = "target_in_log"

_INIT_STREAM = 0


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    trunk: tuple[int, ...] = ()
    heads: tuple[int, ...] = (2,)
    dropout_rate: float = DEFAULT_DROPOUT

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        object.__setattr__(self, "trunk", tuple(int(w) for w in self.trunk))
        object.__setattr__(self, "heads", tuple(int(d) for d in self.heads))
        if any(w < 1 for w in self.trunk):
            raise ValueError("trunk widths must be >= 1")
        if not 1 <= len(self.heads) <= 2 or any(d < 1 for d in self.heads):
            raise ValueError("need 1 or 2 heads with dims >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    @property
    def trunk_output_dim(self) -> int:
        return self.trunk[-1] if self.trunk else self.input_dim

    def layer_dims(self) -> list[tuple[str, int, int]]:
        """Deterministic (name, fan_in, fan_out) list defining the flat layout."""
        dims = []
        fan_in = self.input_dim
        for i, width in enumerate(self.trunk):
            dims.append((f"trunk{i}", fan_in, width))
            fan_in = width
        for h, out in enumerate(self.heads):
            dims.append((f"head{h}", self.trunk_output_dim, out))
        return dims


@dataclass(eq=False)
class ParamStore:
    """All learnable weights in one flat vector.

    ``layout`` is ``build_layout`` of the network's config: the (offset,
    shape) slice of ``values`` of each layer's weight, then its bias.
    ``rng_seed`` records the seed used at initialization.  Each entry's view
    of ``values`` is bound once, at construction, and ``layers`` holds the
    ``(W, b)`` view pair of each layer in layout order (trunk, then heads).
    The views stay valid because ``values`` is only ever updated in place.
    """

    values: np.ndarray
    layout: list[tuple[str, int, tuple[int, ...]]]
    rng_seed: int
    _index: dict[str, np.ndarray] = field(init=False, repr=False)
    layers: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {
            name: self.values[offset : offset + math.prod(shape)].reshape(shape)
            for name, offset, shape in self.layout
        }
        views = iter(self._index.values())
        self.layers = list(zip(views, views))

    def view(self, name: str) -> np.ndarray:
        return self._index[name]

    def zeros_like(self) -> ParamStore:
        """An all-zero store with this layout: the gradient store ``backward``
        adds into."""
        return ParamStore(np.zeros_like(self.values), self.layout, self.rng_seed)


@dataclass(eq=False)
class Checkpoint:
    """A network config with its trained (or initial) parameter store."""

    config: NetworkConfig
    params: ParamStore


def build_layout(config: NetworkConfig) -> list[tuple[str, int, tuple[int, ...]]]:
    layout = []
    offset = 0
    for name, fan_in, fan_out in config.layer_dims():
        layout.append((f"{name}.W", offset, (fan_in, fan_out)))
        offset += fan_in * fan_out
        layout.append((f"{name}.b", offset, (fan_out,)))
        offset += fan_out
    return layout


def param_count(config: NetworkConfig) -> int:
    layout = build_layout(config)
    name, offset, shape = layout[-1]
    return offset + int(np.prod(shape))


def init_params(
    config: NetworkConfig, seed: int, source: ParamStore | None = None
) -> ParamStore:
    """Seeded uniform init: weights in +-1/sqrt(fan_in), biases zero.

    Draws follow layout order (trunk first, then heads in order) from the
    ``[seed, 0]`` stream, so the event head's initial values do not depend
    on whether a second head exists.  With a ``source`` store, each trunk
    layer's weights and bias are copied from the source's same-named layer
    instead of drawn, so the heads are the stream's first draws; the source
    must have a trunk of the same shape, and its heads are ignored.
    """
    store = ParamStore(np.zeros(param_count(config)), build_layout(config), seed)
    rng = np.random.default_rng([seed, _INIT_STREAM])
    for (name, fan_in, fan_out), (w, b) in zip(config.layer_dims(), store.layers):
        if source is not None and name.startswith("trunk"):
            src = source.view(f"{name}.W")
            if src.shape != w.shape:
                raise ValueError(
                    f"source {name}.W has shape {src.shape}, config wants {w.shape}"
                )
            w[:] = src
            b[:] = source.view(f"{name}.b")
        else:
            limit = 1.0 / np.sqrt(fan_in)
            w[:] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return store


@dataclass(eq=False)
class ForwardCache:
    """What backward and the losses read: the net and params it ran with, the
    input, each trunk layer's rectified output (positive exactly where its
    pre-activation is), the dropout mask, the heads' input, and each head's
    softmax and log-softmax (``None`` for a head the forward did not compute)."""

    config: NetworkConfig
    params: ParamStore
    x: np.ndarray
    trunk_out: list[np.ndarray]
    dropout_mask: np.ndarray | None
    head_input: np.ndarray
    head_prob: list[np.ndarray | None]
    head_logprob: list[np.ndarray | None]

    @property
    def batch_size(self) -> int:
        return self.x.shape[0]


def _softmax_with_log(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logp = z - z.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    return np.exp(logp), logp


def _computed(outputs: list[np.ndarray | None], head: int) -> np.ndarray:
    out = outputs[head]
    if out is None:
        raise ValueError(f"head {head} was not computed by the forward pass")
    return out


def forward(
    config: NetworkConfig,
    params: ParamStore,
    x,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    heads: tuple[int, ...] | None = None,
) -> ForwardCache:
    """Run the network on a batch; in train mode dropout needs an rng.

    Dropout uses inverted scaling so eval outputs need no rescale.  ``heads``
    names the heads to compute (default: all); the others are left ``None``
    in the cache, and their outputs do not depend on which heads ran.

    Eval contract: a row's outputs are bitwise the same wherever the row
    sits in its batch, and agree within 1e-12 with the same row scored in a
    batch of another size, since the matrix product's blocking depends on
    the batch size (seen: up to 2.2e-16 in ``head_prob``).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(
            f"input shape {x.shape} does not match input_dim {config.input_dim}"
        )
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")

    n_heads = len(config.heads)
    if heads is None:
        heads = range(n_heads)

    n_trunk = len(config.trunk)
    h = x
    trunk_out = []
    for w, b in params.layers[:n_trunk]:
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        trunk_out.append(h)

    dropout_mask = None
    if mode == "train" and config.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        keep = 1.0 - config.dropout_rate
        dropout_mask = (rng.random(h.shape) >= config.dropout_rate) / keep
        h = h * dropout_mask

    head_prob = [None] * n_heads
    head_logprob = [None] * n_heads
    for hd in heads:
        if not 0 <= hd < n_heads:
            raise ValueError(f"heads {tuple(heads)} out of range for {n_heads} heads")
        w, b = params.layers[n_trunk + hd]
        z = h @ w
        z += b
        head_prob[hd], head_logprob[hd] = _softmax_with_log(z)

    return ForwardCache(
        config=config,
        params=params,
        x=x,
        trunk_out=trunk_out,
        dropout_mask=dropout_mask,
        head_input=h,
        head_prob=head_prob,
        head_logprob=head_logprob,
    )


def backward(
    cache: ForwardCache, head_grads: dict[int, np.ndarray], grad: ParamStore
) -> None:
    """Add the parameter gradient of head pre-activation gradients into ``grad``.

    ``grad`` is laid out like ``cache.params`` (``ParamStore.zeros_like``);
    the caller zeroes it.  Heads absent from ``head_grads`` add nothing, so
    two backward passes into one store sum their gradients.
    """
    params = cache.params
    if grad.values.shape != params.values.shape:
        raise ValueError(
            f"gradient store of shape {grad.values.shape} for parameters of "
            f"shape {params.values.shape}"
        )
    n_trunk = len(cache.config.trunk)
    d_h = None
    for hd, g in head_grads.items():
        g = np.asarray(g, dtype=np.float64)
        if g.shape != _computed(cache.head_prob, hd).shape:
            raise ValueError(f"head {hd} gradient shape mismatch")
        g_w, g_b = grad.layers[n_trunk + hd]
        g_w += cache.head_input.T @ g
        g_b += g.sum(axis=0)
        if n_trunk:
            d_in = g @ params.layers[n_trunk + hd][0].T
            if d_h is None:
                d_h = d_in
            else:
                d_h += d_in
    if d_h is None:  # no trunk, or no head gradient
        return

    if cache.dropout_mask is not None:
        d_h *= cache.dropout_mask

    for i in reversed(range(n_trunk)):
        d_h *= cache.trunk_out[i] > 0.0  # now the pre-activation gradient
        layer_in = cache.trunk_out[i - 1] if i > 0 else cache.x
        g_w, g_b = grad.layers[i]
        g_w += layer_in.T @ d_h
        g_b += d_h.sum(axis=0)
        if i > 0:
            d_h = d_h @ params.layers[i][0].T


def cross_entropy_loss(
    cache: ForwardCache, labels, head: int = 0
) -> tuple[float, np.ndarray]:
    """Batch-mean negative log-likelihood of the labels under a softmax head.

    Returns the loss and its gradient w.r.t. the head pre-activations,
    ``(p - onehot) / batch``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    dim = cache.config.heads[head]
    if labels.view(np.uint64).max() >= dim:  # a negative label reads as >= 2**63
        raise ValueError(f"label out of range for head {head} with {dim} classes")
    b = cache.batch_size
    if labels.size != b:
        raise ValueError("one label per batch row required")
    rows = np.arange(b)
    loss = -float(_computed(cache.head_logprob, head)[rows, labels].sum() / b)
    grad = cache.head_prob[head].copy()
    grad[rows, labels] -= 1.0
    grad /= b
    return loss, grad


def soft_target_loss(
    cache: ForwardCache,
    targets,
    direction: str = SOFT_TARGET_AS_DISTRIBUTION,
) -> tuple[float, np.ndarray]:
    """Imitation loss between the softmax of head 1, q, and frozen teacher
    rows f.

    Default direction treats f as the target distribution, -sum f log q,
    which reduces to cross-entropy when f is one-hot.  ``target_in_log``
    evaluates -sum q log f (f clamped below at 1e-12); gradients flow
    through q only in both directions.  Rows of f are taken to be on the
    simplex: ``training.SoftTargets`` checks that once, when it is built.
    """
    f = np.asarray(targets, dtype=np.float64)
    q = _computed(cache.head_prob, 1)
    if f.shape != q.shape:
        raise ValueError(f"target shape {f.shape} vs head output {q.shape}")
    b = cache.batch_size
    if direction == SOFT_TARGET_AS_DISTRIBUTION:
        logq = cache.head_logprob[1]
        loss = -float((f * logq).sum(axis=1).sum() / b)
        grad = (q - f) / b
    elif direction == SOFT_TARGET_IN_LOG:
        logf = np.log(np.maximum(f, 1e-12))
        loss = -float((q * logf).sum(axis=1).sum() / b)
        grad = q * ((q * logf).sum(axis=1, keepdims=True) - logf) / b
    else:
        raise ValueError(f"unknown soft loss direction {direction!r}")
    return loss, grad


def sgd_momentum_step(
    params: ParamStore,
    gradient: np.ndarray,
    velocity: np.ndarray,
    lr: float = DEFAULT_LR,
    momentum: float = DEFAULT_MOMENTUM,
) -> None:
    """Classic momentum update in place: v <- m*v - lr*g; params <- params + v."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != params.values.shape or velocity.shape != params.values.shape:
        raise ValueError("gradient/velocity shape mismatch")
    if not np.isfinite(gradient).all():
        raise ValueError("divergence: non-finite gradient")
    velocity *= momentum
    velocity -= lr * gradient
    params.values += velocity
