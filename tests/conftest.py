"""Shared test helpers: data fixtures, the finite-difference gradient
checker, kink-free gradient-check cases, the per-step parameter recorder of
the training loop, the linear probe, a plain reference training loop, and
planted-data helpers that only tests use."""

import os

import numpy as np

from os2e import training
from os2e.datagen import GeneratorConfig, blob_levels
from os2e.network import (
    DEFAULT_MOMENTUM,
    SOFT_TARGET_AS_DISTRIBUTION,
    SOFT_TARGET_IN_LOG,
    Checkpoint,
    NetworkConfig,
    backward,
    cross_entropy_loss,
    forward,
    init_params,
    sgd_momentum_step,
    soft_target_loss,
)
from os2e.pipeline import DEFAULT_MEAN_PIXEL

RELU_KINK_MARGIN = 1e-3
FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    """Absolute path of a data fixture under ``tests/fixtures`` (e.g. the 3-class table)."""
    return os.path.join(FIXTURE_DIR, name)


def param_steps(monkeypatch, train_fn, *args):
    """Run ``train_fn(*args)``; return its report and a copy of the flat
    parameter vector after each SGD step the training loop takes."""
    steps = []

    def step(params, *step_args, **step_kwargs):
        sgd_momentum_step(params, *step_args, **step_kwargs)
        steps.append(params.values.copy())

    monkeypatch.setattr(training, "sgd_momentum_step", step)
    report = train_fn(*args)
    assert len(steps) == report.final.iteration, "an SGD step went unrecorded"
    return report, steps


def grad_check(
    config: NetworkConfig,
    params,
    loss_fn,
    epsilon: float = 1e-5,
    sample_size: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error of the analytic gradient vs central differences.

    ``loss_fn(params) -> (loss, flat_grad)`` must be deterministic (run
    dropout-free or with a fixed mask).  Checks every parameter, or a random
    subset of ``sample_size`` for larger nets.
    """
    _, analytic = loss_fn(params)
    n = params.values.size
    if n <= sample_size:
        indices = np.arange(n)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        indices = rng.choice(n, size=sample_size, replace=False)
    worst = 0.0
    for i in indices:
        orig = params.values[i]
        params.values[i] = orig + epsilon
        loss_plus, _ = loss_fn(params)
        params.values[i] = orig - epsilon
        loss_minus, _ = loss_fn(params)
        params.values[i] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        denom = max(1e-8, abs(analytic[i]) + abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def view_of(params, flat, name):
    """A copy of entry ``name`` of the flat vector ``flat``, which is laid
    out like the store ``params``."""
    store = params.zeros_like()
    store.values[:] = flat
    return store.view(name)


def flat_grad(cache, head_grads):
    """``backward`` into a fresh zeroed store; its flat gradient vector."""
    grad = cache.params.zeros_like()
    backward(cache, head_grads, grad)
    return grad.values


def ce_loss_fn(cfg, x, y):
    """Event cross-entropy: ``params -> (loss, flat_grad)`` for ``grad_check``."""

    def fn(params):
        cache = forward(cfg, params, x, mode="eval")
        loss, g = cross_entropy_loss(cache, y)
        return loss, flat_grad(cache, {0: g})

    return fn


def knowledge_loss_fn(cfg, x, y, f, alpha, direction=SOFT_TARGET_AS_DISTRIBUTION):
    """Event CE + alpha * imitation loss on head 1, as the training loop sums it."""

    def fn(params):
        cache = forward(cfg, params, x, mode="eval")
        ce, g_event = cross_entropy_loss(cache, y)
        soft, g_soft = soft_target_loss(cache, f, direction=direction)
        return ce + alpha * soft, flat_grad(cache, {0: g_event, 1: alpha * g_soft})

    return fn


def data_loss_fn(cfg, x, y, xa, ya, beta):
    """Event CE + beta * aux CE over two batches through the shared trunk."""

    def fn(params):
        event_cache = forward(cfg, params, x, mode="eval")
        aux_cache = forward(cfg, params, xa, mode="eval")
        ce, g_event = cross_entropy_loss(event_cache, y)
        ce_aux, g_aux = cross_entropy_loss(aux_cache, ya, head=1)
        grad = event_cache.params.zeros_like()
        backward(event_cache, {0: g_event}, grad)
        backward(aux_cache, {1: beta * g_aux}, grad)
        return ce + beta * ce_aux, grad.values

    return fn


def _reference_step_grad(net, params, x, rng, losses):
    """One dropout forward and the flat gradient of ``losses``, written with
    the textbook formulas: affine+rectifier trunk, one softmax per head, a
    one-hot cross-entropy gradient, and a fresh zero vector per backward.

    ``losses`` maps a head to ``(kind, target, weight)`` with kind ``"ce"``
    (integer labels) or a soft-target direction (teacher rows).
    """
    h = x
    trunk_pre, trunk_out = [], []
    for i in range(len(net.trunk)):
        pre = h @ params.view(f"trunk{i}.W") + params.view(f"trunk{i}.b")
        h = np.maximum(pre, 0.0)
        trunk_pre.append(pre)
        trunk_out.append(h)
    mask = None
    if net.dropout_rate > 0.0:
        mask = (rng.random(h.shape) >= net.dropout_rate) / (1.0 - net.dropout_rate)
        h = h * mask
    b = x.shape[0]
    head_grads = {}
    for hd in range(len(net.heads)):
        z = h @ params.view(f"head{hd}.W") + params.view(f"head{hd}.b")
        shifted = z - z.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        p = np.exp(logp)
        if hd not in losses:
            continue
        kind, target, weight = losses[hd]
        if kind == "ce":
            onehot = np.zeros((b, net.heads[hd]))
            onehot[np.arange(b), target] = 1.0
            g = (p - onehot) / b
        elif kind == SOFT_TARGET_AS_DISTRIBUTION:
            g = (p - target) / b
        elif kind == SOFT_TARGET_IN_LOG:
            logf = np.log(np.maximum(target, 1e-12))
            g = p * ((p * logf).sum(axis=1, keepdims=True) - logf) / b
        else:
            raise ValueError(f"unknown loss kind {kind!r}")
        head_grads[hd] = weight * g

    grad = params.zeros_like()
    d_h = np.zeros_like(h)
    for hd, g in head_grads.items():
        grad.view(f"head{hd}.W")[...] = h.T @ g
        grad.view(f"head{hd}.b")[...] = g.sum(axis=0)
        d_h += g @ params.view(f"head{hd}.W").T
    if mask is not None:
        d_h = d_h * mask
    for i in reversed(range(len(net.trunk))):
        d_pre = d_h * (trunk_pre[i] > 0.0)
        layer_in = trunk_out[i - 1] if i > 0 else x
        grad.view(f"trunk{i}.W")[...] = layer_in.T @ d_pre
        grad.view(f"trunk{i}.b")[...] = d_pre.sum(axis=0)
        if i > 0:
            d_h = d_pre @ params.view(f"trunk{i}.W").T
    return grad.values


def probe_train(train, test, config):
    """The linear probe as ``os2e train --mode probe`` runs it: init transfer
    from a fresh source with no trunk, on rows already l2-normalized."""
    net = NetworkConfig(
        input_dim=train.features.shape[1], trunk=(), heads=(train.num_classes,),
        dropout_rate=0.0,
    )
    source = Checkpoint(config=net, params=init_params(net, config.seed))
    return training.init_transfer_train(source, train, test, config)


def reference_training(net, params, train, config, soft=None, aux=None):
    """The training loop's parameters after every SGD step, recomputed in
    place on ``params`` by a plain loop over ``_reference_step_grad``.

    It draws batches and dropout masks from the loop's seeded streams, in
    the loop's order, and applies the same lr schedule and momentum step;
    evaluation points are skipped, as they change no parameter.  Its batch
    indices are one draw per step, so it also checks that the loop's one
    draw per eval interval gives the same values.
    """
    stream = lambda k: np.random.default_rng([config.seed, k])  # noqa: E731
    batch_rng, drop_rng = stream(training._STREAM_BATCH), stream(training._STREAM_DROPOUT)
    aux_batch_rng = stream(training._STREAM_AUX_BATCH)
    aux_drop_rng = stream(training._STREAM_AUX_DROPOUT)
    velocity = np.zeros_like(params.values)
    for t in range(config.total_iters):
        idx = batch_rng.integers(0, len(train), size=config.batch_size)
        x = train.features[idx]
        losses = {0: ("ce", train.labels[idx], 1.0)}
        if soft is not None:
            losses[1] = (config.soft_direction, soft.values[idx], config.alpha)
        grad = _reference_step_grad(net, params, x, drop_rng, losses)
        if aux is not None:
            aux_idx = aux_batch_rng.integers(0, len(aux), size=config.batch_size)
            aux_losses = {1: ("ce", aux.labels[aux_idx], config.beta)}
            grad = grad + _reference_step_grad(
                net, params, aux.features[aux_idx], aux_drop_rng, aux_losses
            )
        velocity *= DEFAULT_MOMENTUM
        velocity -= config.lr_at(t) * grad
        params.values += velocity
    return params.values


def _trunk_pre(cfg, params, x):
    """Each trunk layer's pre-activation on ``x`` (the forward cache keeps
    only the rectified outputs)."""
    pre, h = [], x
    for i in range(len(cfg.trunk)):
        pre.append(h @ params.view(f"trunk{i}.W") + params.view(f"trunk{i}.b"))
        h = np.maximum(pre[-1], 0.0)
    return pre


def draw_grad_check_case(rng, batch=5, margin=RELU_KINK_MARGIN, max_tries=60):
    """Random two-head net + batch at a differentiable point.

    Central differences straddle the rectifier kink when any pre-activation
    sits within epsilon of zero (including the exact zeros a dead previous
    layer feeds into zero-initialized biases), so cases are redrawn until
    every pre-activation clears the margin.
    """
    for _ in range(max_tries):
        trunk = tuple(int(w) for w in rng.integers(2, 9, size=rng.integers(0, 3)))
        cfg = NetworkConfig(
            input_dim=int(rng.integers(2, 7)),
            trunk=trunk,
            heads=(int(rng.integers(2, 5)), int(rng.integers(2, 5))),
            dropout_rate=0.0,
        )
        params = init_params(cfg, seed=int(rng.integers(0, 10_000)))
        x = rng.normal(size=(batch, cfg.input_dim))
        if all(np.abs(pre).min() > margin for pre in _trunk_pre(cfg, params, x)):
            y = rng.integers(0, cfg.heads[0], size=batch)
            f = rng.dirichlet(np.ones(cfg.heads[1]), size=batch)
            return cfg, params, x, y, f
    raise RuntimeError("could not draw a case clear of rectifier kinks")


def draw_aux_batch(cfg, params, rng, batch=5, margin=RELU_KINK_MARGIN, max_tries=60):
    """Second-batch draw for the shared-trunk loss, same kink-margin rule."""
    for _ in range(max_tries):
        xa = rng.normal(size=(batch, cfg.input_dim))
        if all(np.abs(pre).min() > margin for pre in _trunk_pre(cfg, params, xa)):
            ya = rng.integers(0, cfg.heads[1], size=batch)
            return xa, ya
    raise RuntimeError("could not draw an aux batch clear of rectifier kinks")


def _window_max_mean(planes: np.ndarray, window: int) -> np.ndarray:
    """Per plane of an (n, h, w) stack: max over all window x window means.

    Window sums come from integral images.
    """
    n, h, w = planes.shape
    window = min(window, h, w)
    integral = np.zeros((n, h + 1, w + 1))
    integral[:, 1:, 1:] = planes.cumsum(axis=1).cumsum(axis=2)
    sums = (
        integral[:, window:, window:]
        - integral[:, :-window, window:]
        - integral[:, window:, :-window]
        + integral[:, :-window, :-window]
    )
    return sums.max(axis=(1, 2)) / (window * window)


def make_blob_scorer(
    num_events: int,
    window: int = 4,
    temperature: float = 0.02,
):
    """Toy classifier: nearest blob-intensity level to the crop's hottest window.

    Crops whose hottest window stays below the lowest level (no blob in view)
    abstain with a uniform score vector.
    """
    levels = blob_levels(num_events)
    floor = levels[0] - (levels[1] - levels[0]) if num_events > 1 else levels[0] * 0.5

    def scorer(crops: np.ndarray) -> np.ndarray:
        # one (n, M) row per crop of the (n, h, w, c) stack, which the
        # pipeline handed over minus DEFAULT_MEAN_PIXEL
        m = _window_max_mean(crops[:, :, :, 0] + DEFAULT_MEAN_PIXEL, window)
        z = -np.abs(m[:, None] - levels) / temperature
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[m < floor] = 1.0 / num_events
        return p

    return scorer


def preset_high_concentration(seed: int = 0) -> GeneratorConfig:
    """Strongly peaked responses: selection should recover the planted concepts."""
    return GeneratorConfig(
        num_events=4,
        num_objects=20,
        num_scenes=12,
        signature_sparsity=2,
        concentration=50.0,
        noise_sigma=0.05,
        n_train=160,
        n_test=160,
        seed=seed,
    )
