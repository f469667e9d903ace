"""Minimal differentiable network substrate with exact analytic gradients.

The network is an affine+rectifier trunk over raw feature vectors, inverted
dropout before the heads, and one or two affine+softmax heads (event head
first, imitation/auxiliary head second).  All parameters live in a single
flat float64 vector with a deterministic layout, so checkpoints, SGD updates,
and finite-difference checks all speak the same representation.

Losses: cross-entropy on hard labels and a soft-target imitation loss in
two directions.  Each returns its gradient with respect to one head's
pre-activations, batch-scaled; ``backward`` maps a dict of such head
gradients to parameter space.  The transfer modes' weighted sums of these
losses are composed by the training loop, not here.
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


@dataclass
class ParamStore:
    """All learnable weights in one flat vector.

    ``layout`` maps each weight/bias to its (offset, shape) slice of
    ``values``; the entries must tile ``values`` contiguously from offset 0.
    ``rng_seed`` records the seed used at initialization.  The name index
    behind ``view`` and ``slice_of`` is built once, at construction.
    """

    values: np.ndarray
    layout: list[tuple[str, int, tuple[int, ...]]]
    rng_seed: int
    _index: dict[str, tuple[slice, tuple[int, ...]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self._index = {}
        end = 0
        for name, offset, shape in self.layout:
            if offset != end:
                raise ValueError(
                    f"layout entry {name!r} starts at offset {offset}, "
                    f"expected {end}"
                )
            end = offset + math.prod(shape)
            if end > self.values.size:
                raise ValueError(
                    f"layout entry {name!r} (offset {offset}, shape "
                    f"{tuple(shape)}) runs past the end of {self.values.size} values"
                )
            self._index[name] = (slice(offset, end), tuple(shape))
        if self.values.shape != (end,):
            raise ValueError(
                f"layout covers {end} values, got values of shape {self.values.shape}"
            )

    def view(self, name: str) -> np.ndarray:
        span, shape = self._index[name]
        return self.values[span].reshape(shape)

    def slice_of(self, name: str) -> slice:
        return self._index[name][0]


@dataclass
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


def init_params(config: NetworkConfig, seed: int) -> ParamStore:
    """Seeded uniform init: weights in +-1/sqrt(fan_in), biases zero.

    Draws follow layout order (trunk first, then heads in order), so the
    event head's initial values do not depend on whether a second head
    exists.
    """
    layout = build_layout(config)
    values = np.zeros(param_count(config))
    store = ParamStore(values=values, layout=layout, rng_seed=seed)
    rng = np.random.default_rng([seed, _INIT_STREAM])
    for name, fan_in, fan_out in config.layer_dims():
        limit = 1.0 / np.sqrt(fan_in)
        store.view(f"{name}.W")[:] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return store


def init_from_source(
    config: NetworkConfig, source: ParamStore, seed: int
) -> ParamStore:
    """Copy trunk weights from a source store; re-init heads.

    The source must have a trunk of the same shape; its heads are ignored.
    """
    params = init_params(config, seed)
    rng = np.random.default_rng([seed, _INIT_STREAM])
    for name, fan_in, fan_out in config.layer_dims():
        if name.startswith("trunk"):
            src = source.view(f"{name}.W")
            if src.shape != (fan_in, fan_out):
                raise ValueError(
                    f"source {name}.W has shape {src.shape}, config wants "
                    f"{(fan_in, fan_out)}"
                )
            params.view(f"{name}.W")[:] = src
            params.view(f"{name}.b")[:] = source.view(f"{name}.b")
        else:
            limit = 1.0 / np.sqrt(fan_in)
            params.view(f"{name}.W")[:] = rng.uniform(
                -limit, limit, size=(fan_in, fan_out)
            )
            params.view(f"{name}.b")[:] = 0.0
    return params


@dataclass
class ForwardCache:
    """Everything backward needs: the net and params it ran with, activations,
    masks, and head outputs."""

    config: NetworkConfig
    params: ParamStore
    x: np.ndarray
    trunk_pre: list[np.ndarray]
    trunk_out: list[np.ndarray]
    dropout_mask: np.ndarray | None
    head_input: np.ndarray
    head_pre: list[np.ndarray]
    head_prob: list[np.ndarray]
    head_logprob: list[np.ndarray]

    @property
    def batch_size(self) -> int:
        return self.x.shape[0]


def _softmax_with_log(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    shifted = z - z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsum
    return np.exp(logp), logp


def forward(
    config: NetworkConfig,
    params: ParamStore,
    x,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> ForwardCache:
    """Run the network on a batch; in train mode dropout needs an rng.

    Dropout uses inverted scaling so eval outputs need no rescale.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(
            f"input shape {x.shape} does not match input_dim {config.input_dim}"
        )
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")

    h = x
    trunk_pre, trunk_out = [], []
    for i in range(len(config.trunk)):
        pre = h @ params.view(f"trunk{i}.W") + params.view(f"trunk{i}.b")
        h = np.maximum(pre, 0.0)
        trunk_pre.append(pre)
        trunk_out.append(h)

    dropout_mask = None
    if mode == "train" and config.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        keep = 1.0 - config.dropout_rate
        dropout_mask = (rng.random(h.shape) >= config.dropout_rate) / keep
        h = h * dropout_mask

    head_pre, head_prob, head_logprob = [], [], []
    for hd in range(len(config.heads)):
        z = h @ params.view(f"head{hd}.W") + params.view(f"head{hd}.b")
        p, logp = _softmax_with_log(z)
        head_pre.append(z)
        head_prob.append(p)
        head_logprob.append(logp)

    return ForwardCache(
        config=config,
        params=params,
        x=x,
        trunk_pre=trunk_pre,
        trunk_out=trunk_out,
        dropout_mask=dropout_mask,
        head_input=h,
        head_pre=head_pre,
        head_prob=head_prob,
        head_logprob=head_logprob,
    )


def backward(cache: ForwardCache, head_grads: dict[int, np.ndarray]) -> np.ndarray:
    """Map head pre-activation gradients to a flat parameter gradient.

    Heads absent from ``head_grads`` contribute nothing (their parameter
    gradients are zero).  The gradient is laid out like ``cache.params``.
    """
    params = cache.params
    grad = np.zeros_like(params.values)
    d_head_in = np.zeros_like(cache.head_input)
    for hd, g in head_grads.items():
        g = np.asarray(g, dtype=np.float64)
        if g.shape != cache.head_pre[hd].shape:
            raise ValueError(f"head {hd} gradient shape mismatch")
        grad[params.slice_of(f"head{hd}.W")] = (cache.head_input.T @ g).ravel()
        grad[params.slice_of(f"head{hd}.b")] = g.sum(axis=0)
        d_head_in += g @ params.view(f"head{hd}.W").T

    d_h = d_head_in
    if cache.dropout_mask is not None:
        d_h = d_h * cache.dropout_mask

    for i in reversed(range(len(cache.config.trunk))):
        d_pre = d_h * (cache.trunk_pre[i] > 0.0)
        layer_in = cache.trunk_out[i - 1] if i > 0 else cache.x
        grad[params.slice_of(f"trunk{i}.W")] = (layer_in.T @ d_pre).ravel()
        grad[params.slice_of(f"trunk{i}.b")] = d_pre.sum(axis=0)
        if i > 0:
            d_h = d_pre @ params.view(f"trunk{i}.W").T
    return grad


def _one_hot(labels: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros((labels.size, dim))
    out[np.arange(labels.size), labels] = 1.0
    return out


def cross_entropy_loss(
    cache: ForwardCache, labels, head: int = 0
) -> tuple[float, np.ndarray]:
    """Batch-mean negative log-likelihood of the labels under a softmax head.

    Returns the loss and its gradient w.r.t. the head pre-activations,
    ``(p - onehot) / batch``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    dim = cache.config.heads[head]
    if labels.min() < 0 or labels.max() >= dim:
        raise ValueError(f"label out of range for head {head} with {dim} classes")
    b = cache.batch_size
    if labels.size != b:
        raise ValueError("one label per batch row required")
    logp = cache.head_logprob[head]
    loss = -float(logp[np.arange(b), labels].mean())
    grad = (cache.head_prob[head] - _one_hot(labels, dim)) / b
    return loss, grad


def soft_target_loss(
    cache: ForwardCache,
    targets,
    direction: str = SOFT_TARGET_AS_DISTRIBUTION,
    head: int = 1,
) -> tuple[float, np.ndarray]:
    """Imitation loss between a softmax head q and frozen teacher rows f.

    Default direction treats f as the target distribution, -sum f log q,
    which reduces to cross-entropy when f is one-hot.  ``target_in_log``
    evaluates -sum q log f (f clamped below at 1e-12); gradients flow
    through q only in both directions.  Rows of f are taken to be on the
    simplex: ``training.SoftTargets`` checks that once, when it is built.
    """
    f = np.asarray(targets, dtype=np.float64)
    q = cache.head_prob[head]
    if f.shape != q.shape:
        raise ValueError(f"target shape {f.shape} vs head output {q.shape}")
    b = cache.batch_size
    if direction == SOFT_TARGET_AS_DISTRIBUTION:
        logq = cache.head_logprob[head]
        loss = -float((f * logq).sum(axis=1).mean())
        grad = (q - f) / b
    elif direction == SOFT_TARGET_IN_LOG:
        logf = np.log(np.maximum(f, 1e-12))
        loss = -float((q * logf).sum(axis=1).mean())
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
    if not np.all(np.isfinite(gradient)):
        raise ValueError("divergence: non-finite gradient")
    velocity *= momentum
    velocity -= lr * gradient
    params.values += velocity
