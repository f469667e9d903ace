"""Shared test helpers."""

import numpy as np

from os2e.network import NetworkConfig, forward, init_params

RELU_KINK_MARGIN = 1e-3


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
