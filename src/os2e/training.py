"""Transfer-mode trainers and the evaluation protocol.

Three ways to adapt a source network to an event dataset:

* ``init``: copy the source trunk, re-initialize the heads, minimize plain
  cross-entropy.
* ``knowledge``: same start, but a second head imitates frozen teacher
  distributions (soft targets) with weight alpha.
* ``data``: same start, but each step also draws a batch from an auxiliary
  concept-labeled dataset whose loss (weight beta) flows through the shared
  trunk via its own head.

Each mode has its own entry point, so the call picks the mode; the linear
probe (``probe`` of ``TRANSFER_MODES``) is ``init`` from a source with no
trunk, on rows l2-normalized by ``probe_features``.  Only the trainers check
that their inputs pair up, and raise a ``PairingError`` if not.

All modes share one loop, and it alone composes their losses from the
network's primitives: event cross-entropy, plus alpha times the imitation
loss on the second head (``knowledge``), or plus beta times the auxiliary
cross-entropy of a second forward through the shared trunk (``data``).
Each forward computes only the heads its losses read, and every backward of
a step adds into one gradient store that the loop owns and zeroes per step.
The loop samples batches with replacement, takes SGD steps with momentum
``DEFAULT_MOMENTUM``, and follows a step learning-rate schedule (decay by
``LR_DECAY_DEFAULT`` every ``k_iters`` iterations, stop at ``2.5 *
k_iters``, evaluate every eighth of the run).  Batch sampling, dropout, and
head initialization each draw from independent seeded streams, so disabling
an auxiliary term (alpha or beta = 0) reproduces the init-mode event
trajectory bit for bit.  Each eval interval's batch indices are one draw per
batch stream when the interval starts, a block of ``eval_every x
batch_size`` int64 values (fewer rows for a short last interval) equal to
one draw per step; each step gathers its rows from its row of the block.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .network import (
    Checkpoint,
    NetworkConfig,
    ParamStore,
    backward,
    cross_entropy_loss,
    forward,
    init_params,
    sgd_momentum_step,
    soft_target_loss,
    DEFAULT_DROPOUT,
    DEFAULT_LR,
    DEFAULT_MOMENTUM,
    SOFT_TARGET_AS_DISTRIBUTION,
)
from .stats import INGEST_TOL, check_labels, check_simplex_rows

ALPHA_OBJECT_DEFAULT = 0.125
ALPHA_SCENE_DEFAULT = 0.25
BETA_DEFAULT = 0.5
K_ITERS_DEFAULT = 300
BATCH_SIZE_DEFAULT = 32
LR_DECAY_DEFAULT = 0.1
SCHEDULE_STOP_MULTIPLE = 2.5
TRANSFER_MODES = ("init", "knowledge", "data", "probe")

# independent rng streams hanging off the run seed
_STREAM_BATCH = 1
_STREAM_AUX_BATCH = 2
_STREAM_DROPOUT = 3
_STREAM_AUX_DROPOUT = 4


class PairingError(ValueError):
    """A set whose width is not the source network's, or soft targets that
    are not one row per training sample.  ``inputs`` names the inputs at
    fault (``train``, ``test``, ``aux``, ``soft_targets``, ``source``), the
    faulty one first."""

    def __init__(self, message: str, inputs: tuple[str, ...]):
        super().__init__(message)
        self.inputs = inputs


@dataclass(eq=False)
class Dataset:
    """Integer-labelled samples in one float64 array, a row per label:
    feature vectors (N, D) or images (N, H, W, C)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.labels = check_labels(self.labels, self.num_classes, "label")
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.shape[0] != self.labels.size:
            raise ValueError("one label per feature row required")

    def __len__(self) -> int:
        return self.labels.size


@dataclass(eq=False)
class SoftTargets:
    """Per-sample teacher distributions over the selected concept classes,
    one concept id per column."""

    values: np.ndarray
    concept_ids: list[int]

    def __post_init__(self):
        if np.ndim(self.values) != 2:
            raise ValueError("soft targets must be a 2-D matrix")
        self.values = check_simplex_rows(self.values, INGEST_TOL, "soft target row")
        if len(self.concept_ids) != self.values.shape[1]:
            raise ValueError(
                f"{len(self.concept_ids)} concept ids for {self.values.shape[1]} columns"
            )


@dataclass
class TransferConfig:
    """Every training setting and its default, shared by all transfer modes.

    The entry point picks the mode: ``knowledge_transfer_train`` reads
    ``alpha`` and ``soft_direction``, ``data_transfer_train`` reads ``beta``,
    and ``init_transfer_train`` reads neither.  The lr decay factor and the
    momentum are the module constants ``LR_DECAY_DEFAULT`` and
    ``DEFAULT_MOMENTUM``.
    """

    alpha: float = ALPHA_OBJECT_DEFAULT
    beta: float = BETA_DEFAULT
    lr: float = DEFAULT_LR
    k_iters: int = K_ITERS_DEFAULT
    batch_size: int = BATCH_SIZE_DEFAULT
    dropout_rate: float = DEFAULT_DROPOUT
    seed: int = 0
    soft_direction: str = SOFT_TARGET_AS_DISTRIBUTION

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        for name, weight in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0 <= weight < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {weight!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.k_iters < 0:
            raise ValueError("k_iters must be >= 0")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def total_iters(self) -> int:
        return int(round(SCHEDULE_STOP_MULTIPLE * self.k_iters))

    def lr_at(self, iteration: int) -> float:
        return self.lr * LR_DECAY_DEFAULT ** (iteration // self.k_iters)


@dataclass
class EvalRecord:
    iteration: int
    train_loss: float
    test_loss: float
    test_accuracy: float
    test_map: float


@dataclass
class TrainReport:
    """Loss/metric curve, the final checkpoint, and timing for one run."""

    records: list[EvalRecord]
    checkpoint: Checkpoint
    wall_clock_s: float

    @property
    def final(self) -> EvalRecord:
        return self.records[-1]


@dataclass(eq=False)
class EvalResult:
    """Accuracy and per-class AP; a class without positives has a NaN AP
    and is left out of the mean."""

    accuracy: float
    average_precision: np.ndarray

    @property
    def mean_ap(self) -> float:
        ap = self.average_precision
        return float("nan") if np.isnan(ap).all() else float(np.nanmean(ap))


def evaluate(scores, labels) -> EvalResult:
    """Accuracy plus per-class average precision and their mean (mAP).

    Accuracy takes the argmax per row (lowest index on ties).  AP for a class
    ranks all samples by descending class score (ties by sample index) and
    averages precision at each positive's rank.  Classes without positives
    get a NaN AP, which the result's ``mean_ap`` leaves out.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != labels.size:
        raise ValueError("one score row per labeled sample required")
    n, m = scores.shape
    accuracy = float((scores.argmax(axis=1) == labels).mean())
    ap = np.full(m, np.nan)
    for c in range(m):
        positives = labels == c
        if not positives.any():
            continue
        order = np.argsort(-scores[:, c], kind="stable")
        hits = positives[order]
        cum_hits = np.cumsum(hits)
        ranks = np.flatnonzero(hits) + 1
        ap[c] = float((cum_hits[hits > 0] / ranks).mean())
    return EvalResult(accuracy=accuracy, average_precision=ap)


def _evaluate_point(
    net: NetworkConfig,
    params: ParamStore,
    train: Dataset,
    test: Dataset,
    iteration: int,
) -> EvalRecord:
    train_cache = forward(net, params, train.features, mode="eval", heads=(0,))
    train_loss, _ = cross_entropy_loss(train_cache, train.labels)
    test_cache = forward(net, params, test.features, mode="eval", heads=(0,))
    test_loss, _ = cross_entropy_loss(test_cache, test.labels)
    result = evaluate(test_cache.head_prob[0], test.labels)
    return EvalRecord(
        iteration=iteration,
        train_loss=train_loss,
        test_loss=test_loss,
        test_accuracy=result.accuracy,
        test_map=result.mean_ap,
    )


def _run_training(
    net: NetworkConfig,
    params: ParamStore,
    train: Dataset,
    test: Dataset,
    config: TransferConfig,
    soft: SoftTargets | None = None,
    aux: Dataset | None = None,
) -> TrainReport:
    for name, ds in (("train", train), ("test", test), ("aux", aux)):
        if ds is not None and ds.features.shape[1:] != (net.input_dim,):
            raise PairingError(
                f"{name} set: features of shape {ds.features.shape}, but the "
                f"network takes {net.input_dim} per sample",
                (name, "source"),
            )
    t_start = time.perf_counter()
    velocity = np.zeros_like(params.values)
    grad = params.zeros_like()
    batch_rng = np.random.default_rng([config.seed, _STREAM_BATCH])
    drop_rng = np.random.default_rng([config.seed, _STREAM_DROPOUT])
    aux_batch_rng = np.random.default_rng([config.seed, _STREAM_AUX_BATCH])
    aux_drop_rng = np.random.default_rng([config.seed, _STREAM_AUX_DROPOUT])

    total = config.total_iters
    eval_every = max(1, total // 8)
    records = [_evaluate_point(net, params, train, test, 0)]

    use_soft = soft is not None and config.alpha != 0.0
    use_aux = aux is not None and config.beta != 0.0
    event_heads = (0, 1) if use_soft else (0,)

    for t in range(total):
        lr_t = config.lr_at(t)
        step = t % eval_every
        if step == 0:
            # the interval's batch indices in one draw per stream: the same
            # values, in the same order, as one draw per step
            shape = (min(eval_every, total - t), config.batch_size)
            batches = batch_rng.integers(0, len(train), size=shape)
            if use_aux:
                aux_batches = aux_batch_rng.integers(0, len(aux), size=shape)
        idx = batches[step]
        xb = train.features[idx]
        yb = train.labels[idx]
        grad.values.fill(0.0)
        # overflow after a blow-up surfaces as a non-finite loss and is
        # raised below; keep the warning noise out of the run
        with np.errstate(over="ignore", invalid="ignore"):
            cache = forward(
                net, params, xb, mode="train", rng=drop_rng, heads=event_heads
            )
            loss, g_event = cross_entropy_loss(cache, yb)
            if use_soft:
                soft_loss, g_soft = soft_target_loss(
                    cache, soft.values[idx], config.soft_direction
                )
                loss += config.alpha * soft_loss
                backward(cache, {0: g_event, 1: config.alpha * g_soft}, grad)
            elif use_aux:
                aux_idx = aux_batches[step]
                aux_cache = forward(
                    net, params, aux.features[aux_idx], mode="train",
                    rng=aux_drop_rng, heads=(1,),
                )
                aux_loss, g_aux = cross_entropy_loss(aux_cache, aux.labels[aux_idx], head=1)
                loss += config.beta * aux_loss
                backward(cache, {0: g_event}, grad)
                backward(aux_cache, {1: config.beta * g_aux}, grad)
            else:
                backward(cache, {0: g_event}, grad)
        if not math.isfinite(loss):
            raise ValueError(f"divergence at iteration {t}: loss={loss!r}")
        sgd_momentum_step(params, grad.values, velocity, lr=lr_t, momentum=DEFAULT_MOMENTUM)
        done = t + 1
        if done % eval_every == 0 and done != total:
            records.append(_evaluate_point(net, params, train, test, done))
    if total > 0:
        records.append(_evaluate_point(net, params, train, test, total))

    return TrainReport(
        records=records,
        checkpoint=Checkpoint(config=net, params=params),
        wall_clock_s=time.perf_counter() - t_start,
    )


def _target_net(
    source: Checkpoint, heads: tuple[int, ...], config: TransferConfig
) -> NetworkConfig:
    return NetworkConfig(
        input_dim=source.config.input_dim,
        trunk=source.config.trunk,
        heads=heads,
        dropout_rate=config.dropout_rate,
    )


def init_transfer_train(
    source: Checkpoint, train: Dataset, test: Dataset, config: TransferConfig
) -> TrainReport:
    """Fine-tune from the source trunk with freshly initialized event head."""
    net = _target_net(source, (train.num_classes,), config)
    params = init_params(net, config.seed, source.params)
    return _run_training(net, params, train, test, config)


def knowledge_transfer_train(
    source: Checkpoint,
    train: Dataset,
    test: Dataset,
    soft: SoftTargets,
    config: TransferConfig,
) -> TrainReport:
    """Fine-tune with an imitation head supervised by frozen soft targets."""
    if soft.values.shape[0] != len(train):
        raise PairingError(
            f"{soft.values.shape[0]} soft target rows for the {len(train)} "
            "samples of the train set",
            ("soft_targets", "train"),
        )
    net = _target_net(source, (train.num_classes, soft.values.shape[1]), config)
    params = init_params(net, config.seed, source.params)
    return _run_training(net, params, train, test, config, soft=soft)


def data_transfer_train(
    source: Checkpoint,
    train: Dataset,
    test: Dataset,
    aux: Dataset,
    config: TransferConfig,
) -> TrainReport:
    """Jointly fine-tune on the event set and an auxiliary concept-labeled set.

    Each step draws one batch from each dataset and applies a single update;
    the auxiliary branch reaches the shared trunk through its own head.
    """
    if len(aux) == 0:
        raise ValueError("empty aux dataset")
    net = _target_net(source, (train.num_classes, aux.num_classes), config)
    params = init_params(net, config.seed, source.params)
    return _run_training(net, params, train, test, config, aux=aux)


def probe_features(values) -> np.ndarray:
    """Row-wise l2 normalization of raw response rows into probe features."""
    arr = np.asarray(values, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return arr / safe
