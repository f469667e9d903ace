"""Shared test helpers: data fixtures, the finite-difference gradient
checker, kink-free gradient-check cases, the per-step parameter recorder of
the training loop, and planted-data helpers that only tests use."""

import os

import numpy as np

from os2e import training
from os2e.datagen import GeneratorConfig, blob_levels
from os2e.network import (
    SOFT_TARGET_AS_DISTRIBUTION,
    NetworkConfig,
    backward,
    cross_entropy_loss,
    forward,
    init_params,
    sgd_momentum_step,
    soft_target_loss,
)

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


def ce_loss_fn(cfg, x, y):
    """Event cross-entropy: ``params -> (loss, flat_grad)`` for ``grad_check``."""

    def fn(params):
        cache = forward(cfg, params, x, mode="eval")
        loss, g = cross_entropy_loss(cache, y)
        return loss, backward(cache, {0: g})

    return fn


def knowledge_loss_fn(cfg, x, y, f, alpha, direction=SOFT_TARGET_AS_DISTRIBUTION):
    """Event CE + alpha * imitation loss on head 1, as the training loop sums it."""

    def fn(params):
        cache = forward(cfg, params, x, mode="eval")
        ce, g_event = cross_entropy_loss(cache, y)
        soft, g_soft = soft_target_loss(cache, f, direction=direction)
        return ce + alpha * soft, backward(cache, {0: g_event, 1: alpha * g_soft})

    return fn


def data_loss_fn(cfg, x, y, xa, ya, beta):
    """Event CE + beta * aux CE over two batches through the shared trunk."""

    def fn(params):
        event_cache = forward(cfg, params, x, mode="eval")
        aux_cache = forward(cfg, params, xa, mode="eval")
        ce, g_event = cross_entropy_loss(event_cache, y)
        ce_aux, g_aux = cross_entropy_loss(aux_cache, ya, head=1)
        grad = backward(event_cache, {0: g_event}) + backward(
            aux_cache, {1: beta * g_aux}
        )
        return ce + beta * ce_aux, grad

    return fn


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
        cache = forward(cfg, params, x, mode="eval")
        if all(np.abs(pre).min() > margin for pre in cache.trunk_pre):
            y = rng.integers(0, cfg.heads[0], size=batch)
            f = rng.dirichlet(np.ones(cfg.heads[1]), size=batch)
            return cfg, params, x, y, f
    raise RuntimeError("could not draw a case clear of rectifier kinks")


def draw_aux_batch(cfg, params, rng, batch=5, margin=RELU_KINK_MARGIN, max_tries=60):
    """Second-batch draw for the shared-trunk loss, same kink-margin rule."""
    for _ in range(max_tries):
        xa = rng.normal(size=(batch, cfg.input_dim))
        cache = forward(cfg, params, xa, mode="eval")
        if all(np.abs(pre).min() > margin for pre in cache.trunk_pre):
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
    mean_pixel: float = 0.5,
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
        # one (n, M) row per crop of the (n, h, w, c) stack
        m = _window_max_mean(crops[:, :, :, 0] + mean_pixel, window)
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
