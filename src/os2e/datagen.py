"""Planted-concept synthetic data generators for the benchmark suite.

Every generator is a pure function of (config, seed).  The common structure:
each event class owns a small "signature" of concept classes, disjoint from
every other event's (``GeneratorConfig`` rejects sizes too small for that),
and samples of that event express those concepts (peaked response rows,
indicator feature patterns, or an intensity-coded blob).  The hidden
signatures come back as a frozen :class:`PlantedTruth` so selection-recovery
and transfer benchmarks can score themselves against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Checkpoint, NetworkConfig, init_params
from .stats import EventLabels, ResponseMatrix, default_class_ids
from .training import TRANSFER_MODES, Dataset, SoftTargets, TransferConfig

# rng streams per generator so adding one draw never shifts the others
_STREAM_SIGNATURES = 0
_STREAM_LABELS = 1
_STREAM_OBJECT_ROWS = 2
_STREAM_SCENE_ROWS = 3
_STREAM_FEATURES = 4
_STREAM_TEACHER = 5
_STREAM_AUX = 6
_STREAM_IMAGES = 7
_STREAM_SOURCE = 8


@dataclass(frozen=True)
class GeneratorConfig:
    """Sizes, noise and seed of a generated dataset.  Each event's signature
    is ``signature_sparsity`` object and as many scene classes, disjoint from
    every other event's, so ``num_events * signature_sparsity`` may not exceed
    ``min(num_objects, num_scenes)``."""

    num_events: int = 4
    num_objects: int = 20
    num_scenes: int = 12
    signature_sparsity: int = 2
    concentration: float = 8.0
    noise_sigma: float = 0.05
    feature_dim: int = 32
    image_side: int = 64
    blob_side: int = 20
    n_train: int = 64
    n_test: int = 400
    n_aux: int = 256
    seed: int = 0

    def __post_init__(self):
        if min(self.num_events, self.num_objects, self.num_scenes) < 1:
            raise ValueError("all counts must be >= 1")
        if min(self.n_train, self.n_test, self.n_aux) < 1:
            raise ValueError("sample counts must be >= 1")
        classes = min(self.num_objects, self.num_scenes)
        if not 1 <= self.num_events * self.signature_sparsity <= classes:
            raise ValueError(
                "disjoint signatures need 1 <= num_events * signature_sparsity <= "
                f"min(num_objects, num_scenes), got {self.num_events} * "
                f"{self.signature_sparsity} and {classes}"
            )
        for name in ("concentration", "noise_sigma"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.blob_side > self.image_side:
            raise ValueError("blob_side must fit in image_side")


@dataclass(frozen=True)
class PlantedTruth:
    """The generator's hidden event-concept signatures.  The frozen teacher
    is a function of these and the config: see ``teacher_weights``."""

    object_signatures: list[list[int]]
    scene_signatures: list[list[int]]

    def planted_objects(self) -> list[int]:
        return sorted({c for sig in self.object_signatures for c in sig})


def _draw_signatures(
    rng: np.random.Generator, num_events: int, num_classes: int, sparsity: int
) -> list[list[int]]:
    perm = rng.permutation(num_classes)
    return [
        sorted(int(c) for c in perm[e * sparsity : (e + 1) * sparsity])
        for e in range(num_events)
    ]


def make_truth(config: GeneratorConfig) -> PlantedTruth:
    rng = np.random.default_rng([config.seed, _STREAM_SIGNATURES])
    return PlantedTruth(
        object_signatures=_draw_signatures(
            rng, config.num_events, config.num_objects, config.signature_sparsity
        ),
        scene_signatures=_draw_signatures(
            rng, config.num_events, config.num_scenes, config.signature_sparsity
        ),
    )


def _balanced_labels(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    # round-robin then shuffled: every event appears whenever n >= m
    labels = np.arange(n) % m
    rng.shuffle(labels)
    return labels


def _split_labels(
    rng: np.random.Generator, config: GeneratorConfig, sizes: tuple[int, ...] | None = None
) -> np.ndarray:
    """Event-balanced labels for each split in turn: by default the train
    split's ``n_train``, then the test split's ``n_test``."""
    if sizes is None:
        sizes = (config.n_train, config.n_test)
    return np.concatenate([_balanced_labels(rng, n, config.num_events) for n in sizes])


def _split(
    features: np.ndarray, labels: np.ndarray, config: GeneratorConfig
) -> tuple[Dataset, Dataset]:
    """The first ``n_train`` rows as the train split, the rest as the test split."""
    n = config.n_train
    return (
        Dataset(features=features[:n], labels=labels[:n], num_classes=config.num_events),
        Dataset(features=features[n:], labels=labels[n:], num_classes=config.num_events),
    )


def _responses(
    config: GeneratorConfig,
    labels: np.ndarray,
    stream: int,
    signatures: list[list[int]],
    num_classes: int,
    kind: str,
) -> ResponseMatrix:
    """One stream's response rows: signature-peaked weights plus half-normal
    noise from the ``stream`` rng, normalized to the simplex."""
    weights = np.ones((labels.size, num_classes))
    for e, sig in enumerate(signatures):
        rows = labels == e
        weights[np.ix_(rows, sig)] += config.concentration / len(sig)
    rng = np.random.default_rng([config.seed, stream])
    weights += config.noise_sigma * np.abs(rng.normal(size=weights.shape))
    weights /= weights.sum(axis=1, keepdims=True)
    return ResponseMatrix(
        values=weights, class_ids=default_class_ids(num_classes), kind=kind
    )


def gen_response_data(
    config: GeneratorConfig,
) -> tuple[ResponseMatrix, ResponseMatrix, EventLabels, PlantedTruth]:
    """Peaked response rows for both streams plus labels and the hidden truth.

    Rows are train samples first (``n_train``) then test samples; each block
    is event-balanced.
    """
    truth = make_truth(config)
    labels = _split_labels(np.random.default_rng([config.seed, _STREAM_LABELS]), config)
    objects = _responses(
        config, labels, _STREAM_OBJECT_ROWS, truth.object_signatures,
        config.num_objects, "object",
    )
    scenes = _responses(
        config, labels, _STREAM_SCENE_ROWS, truth.scene_signatures,
        config.num_scenes, "scene",
    )
    return objects, scenes, EventLabels(labels, config.num_events), truth


def _event_prototypes(config: GeneratorConfig, truth: PlantedTruth) -> np.ndarray:
    protos = np.zeros((config.num_events, config.feature_dim))
    for e, sig in enumerate(truth.object_signatures):
        protos[e, sig] = 1.0
    return protos


_TEACHER_GAIN = 4.0
_TEACHER_NOISE = 0.05


def teacher_weights(config: GeneratorConfig, truth: PlantedTruth) -> np.ndarray:
    """The frozen teacher: a bias-free linear scorer from ``feature_dim``
    inputs to the planted concepts, each column aligned with its concept's
    dimension, drawn from the teacher stream."""
    concepts = truth.planted_objects()
    rng = np.random.default_rng([config.seed, _STREAM_TEACHER])
    w = _TEACHER_NOISE * rng.normal(size=(config.feature_dim, len(concepts)))
    for k, c in enumerate(concepts):
        w[c, k] += _TEACHER_GAIN
    return w


def teacher_soft_targets(
    config: GeneratorConfig, truth: PlantedTruth, features: np.ndarray
) -> SoftTargets:
    """Apply the frozen teacher to features; identical inputs give identical rows."""
    logits = features @ teacher_weights(config, truth)
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=1, keepdims=True)
    return SoftTargets(values=probs, concept_ids=truth.planted_objects())


def gen_vector_dataset(
    config: GeneratorConfig, truth: PlantedTruth
) -> tuple[Dataset, Dataset, SoftTargets]:
    """Feature-vector train/test split plus teacher soft targets for the train rows.

    A sample of event e is the indicator pattern of e's signature concepts
    (living in the first ``num_objects`` dims) plus Gaussian noise.
    """
    if config.feature_dim < config.num_objects:
        raise ValueError("feature_dim must be >= num_objects")
    rng = np.random.default_rng([config.seed, _STREAM_FEATURES])
    protos = _event_prototypes(config, truth)
    labels = _split_labels(rng, config)
    features = protos[labels] + config.noise_sigma * rng.normal(
        size=(labels.size, config.feature_dim)
    )
    train, test = _split(features, labels, config)
    soft = teacher_soft_targets(config, truth, train.features)
    return train, test, soft


def gen_aux_dataset(
    config: GeneratorConfig, truth: PlantedTruth, concepts: list[int] | None = None
) -> Dataset:
    """Auxiliary dataset labeled over selected concepts.

    Aux samples are drawn from the same generator as event samples and
    labeled with one of the sample's signature concepts.  Sharing the input
    statistics is what lets the weight-shared trunk feel the auxiliary
    supervision; fully synthetic off-manifold aux inputs just get routed
    through disjoint trunk units.
    """
    if concepts is None:
        concepts = truth.planted_objects()
    if not concepts:
        raise ValueError("empty aux dataset: no concepts to label")
    rng = np.random.default_rng([config.seed, _STREAM_AUX])
    protos = _event_prototypes(config, truth)
    events = _split_labels(rng, config, (config.n_aux,))
    features = protos[events] + config.noise_sigma * rng.normal(
        size=(config.n_aux, config.feature_dim)
    )
    concept_index = {c: k for k, c in enumerate(concepts)}
    labels = np.empty(config.n_aux, dtype=np.int64)
    for i, e in enumerate(events):
        sig = [c for c in truth.object_signatures[e] if c in concept_index]
        if not sig:
            raise ValueError(f"event {e} has no signature concept among {concepts}")
        labels[i] = concept_index[sig[int(rng.integers(0, len(sig)))]]
    return Dataset(
        features=features,
        labels=labels,
        num_classes=len(concepts),
    )


def blob_levels(num_events: int) -> np.ndarray:
    """Per-class blob intensities, evenly spread over (0.35, 1.0]."""
    return 0.35 + 0.65 * (np.arange(num_events) + 1) / num_events


def gen_image_dataset(
    config: GeneratorConfig, truth: PlantedTruth
) -> tuple[Dataset, Dataset]:
    """Images with one class-intensity-coded square blob at a random spot.

    Background pixels are uniform noise in [0, noise_sigma]; the blob is a
    constant intensity unique to the event class.  Each split's features are
    one (N, side, side, 1) float64 stack of pixels in [0, 1].
    """
    rng = np.random.default_rng([config.seed, _STREAM_IMAGES])
    levels = blob_levels(config.num_events)
    bg = min(config.noise_sigma, 0.3)
    labels = _split_labels(rng, config)
    side, blob = config.image_side, config.blob_side
    images = np.zeros((labels.size, side, side, 1))
    for px, label in zip(images, labels):
        if bg > 0:
            px[...] = rng.uniform(0.0, bg, size=(side, side, 1))
        top = int(rng.integers(0, side - blob + 1))
        left = int(rng.integers(0, side - blob + 1))
        px[top : top + blob, left : left + blob] = levels[label]
    return _split(images, labels, config)


def make_source_checkpoint(
    config: GeneratorConfig,
    truth: PlantedTruth | None,
    trunk: tuple[int, ...],
    kind: str = "planted",
    seed: int = 0,
) -> Checkpoint:
    """A source network to transfer from.

    ``random`` is a plain seeded init.  ``planted`` aligns each first-layer
    unit with one of the signal-carrying (planted signature) concept
    dimensions; ``vocabulary`` aligns units with arbitrary concept dimensions,
    like a model pretrained on the full concept vocabulary rather than the
    handful the events are built from.  Boosted columns are rescaled to the
    expected random-init column norm so the source transfers features, not an
    inflated weight scale (which only makes the head overconfident).
    """
    net = NetworkConfig(
        input_dim=config.feature_dim,
        trunk=trunk,
        heads=(config.num_objects,),
        dropout_rate=0.0,
    )
    params = init_params(net, seed)
    if kind in ("planted", "vocabulary"):
        if truth is None:
            raise ValueError("planted source needs the generator truth")
        if not trunk:
            raise ValueError("planted source needs at least one trunk layer")
        concepts = (
            truth.planted_objects()
            if kind == "planted"
            else list(range(config.num_objects))
        )
        rng = np.random.default_rng([config.seed, _STREAM_SOURCE, seed])
        w0 = params.view("trunk0.W")
        for j in range(w0.shape[1]):
            c = concepts[int(rng.integers(0, len(concepts)))]
            w0[c, j] += 1.0
        # expected column norm of the uniform(+-1/sqrt(d)) init is 1/sqrt(3)
        w0 /= np.linalg.norm(w0, axis=0, keepdims=True) * np.sqrt(3.0)
    elif kind != "random":
        raise ValueError(f"unknown source kind {kind!r}")
    return Checkpoint(config=net, params=params)


def preset_responses(seed: int = 0) -> GeneratorConfig:
    """Moderate-noise response generator used by the stats and probe benchmarks.

    Calibrated so a linear probe on one stream lands well below ceiling
    (~0.77 mAP) and the object+scene concatenation visibly improves on it.
    """
    return GeneratorConfig(
        num_events=4,
        num_objects=20,
        num_scenes=12,
        signature_sparsity=2,
        concentration=2.0,
        noise_sigma=1.0,
        n_train=96,
        n_test=400,
        seed=seed,
    )


def preset_vector_benchmark(seed: int = 0) -> GeneratorConfig:
    """Overfitting-prone transfer benchmark: tiny train split, noisy features,
    plentiful auxiliary data."""
    return GeneratorConfig(
        num_events=4,
        num_objects=20,
        signature_sparsity=2,
        noise_sigma=1.0,
        feature_dim=32,
        n_train=64,
        n_test=400,
        n_aux=2048,
        seed=seed,
    )


BENCHMARK_TRUNK = (64,)
BENCHMARK_SOURCE_KIND = "vocabulary"


def benchmark_transfer_config(mode: str, seed: int) -> TransferConfig:
    """Settings shared by the mode-comparison benchmark runs: the
    ``TransferConfig`` defaults with dropout 0.5.  ``mode`` names the trainer
    the caller runs and must be one of ``TRANSFER_MODES``."""
    if mode not in TRANSFER_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return TransferConfig(dropout_rate=0.5, seed=seed)


def preset_image_benchmark(seed: int = 0) -> GeneratorConfig:
    """Blob images sized for the desk-scale 54-region cropping config."""
    return GeneratorConfig(
        num_events=4,
        image_side=64,
        blob_side=20,
        noise_sigma=0.25,
        n_train=8,
        n_test=200,
        seed=seed,
    )
