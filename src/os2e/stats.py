"""Concept-response statistics.

Turns image-level concept responses into the probability objects the rest
of the toolkit consumes: response distributions, concept-given-event
conditionals, event priors, concept marginals, Bayes posteriors and
conditional entropies.

All distributions are plain float64 numpy arrays.  ``check_simplex_rows``,
used here and by ``pipeline`` and ``training``, is the one check that rows are
probability distributions: ingested data (files, scorer output) is accepted
within ``INGEST_TOL`` (it carries rounding), internally produced tables are
held to ``INTERNAL_TOL``.  ``check_labels`` is the one label-range check;
both raise a ``RowError`` that carries the first bad row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INGEST_TOL = 1e-6
INTERNAL_TOL = 1e-9


def _as_float_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


class RowError(ValueError):
    """A rule broken by a row; ``row`` is the index of the first bad row."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def check_simplex_rows(rows, tol: float, what: str) -> np.ndarray:
    """``rows`` as float64, once each row (along the last axis) is checked to
    hold entries >= 0 summing to 1 within ``tol``, comparisons that NaN and
    inf fail; otherwise a ``RowError`` naming ``what`` and the first bad row."""
    rows = np.asarray(rows, dtype=np.float64)
    sums = rows.sum(axis=-1)
    ok = (rows >= 0).all(axis=-1) & (np.abs(sums - 1.0) <= tol)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        least = rows.reshape(-1, rows.shape[-1])[i].min(initial=np.inf)
        raise RowError(
            i,
            f"{what} {i} off simplex: sums to {float(sums.flat[i])!r}, "
            f"least entry {float(least)!r}",
        )
    return rows


def check_labels(labels, n: int, what: str) -> np.ndarray:
    """``labels`` as 1-D int64, once each is checked to lie in [0, ``n``);
    otherwise a ``RowError`` naming ``what`` and the first bad row."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D sequence")
    bad = np.flatnonzero((labels < 0) | (labels >= n))
    if bad.size:
        i = int(bad[0])
        raise RowError(i, f"{what} {labels[i]} of row {i} out of range [0, {n})")
    return labels


@dataclass(eq=False)
class ResponseMatrix:
    """Per-image concept-response distributions, one simplex row per image.

    ``kind`` tags the concept vocabulary ("object" or "scene"); ``class_ids``
    names the C columns.
    """

    values: np.ndarray
    class_ids: list[str]
    kind: str = "object"

    def __post_init__(self):
        self.values = _as_float_matrix(self.values)
        if self.kind not in ("object", "scene"):
            raise ValueError(f"kind must be 'object' or 'scene', got {self.kind!r}")
        if len(self.class_ids) != self.values.shape[1]:
            raise ValueError(
                f"{len(self.class_ids)} class ids for {self.values.shape[1]} columns"
            )
        check_simplex_rows(self.values, INGEST_TOL, "response row")
        # Ingested rows may carry up to INGEST_TOL of file rounding; renormalize
        # so every table derived from this matrix meets INTERNAL_TOL.
        self.values = self.values / self.values.sum(axis=1, keepdims=True)

    @property
    def num_images(self) -> int:
        return self.values.shape[0]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]


def default_class_ids(num_classes: int) -> list[str]:
    return [f"class_{j}" for j in range(num_classes)]


@dataclass(eq=False)
class EventLabels:
    """Event index per image; indices live in [0, num_events)."""

    labels: np.ndarray
    num_events: int

    def __post_init__(self):
        self.labels = check_labels(self.labels, self.num_events, "event label")
        if self.num_events < 1:
            raise ValueError("num_events must be >= 1")

    def counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_events)


@dataclass(eq=False)
class ConditionalTable:
    """p(concept|event) columns plus the per-event image counts.

    ``cond`` is C x M with each column a distribution over concepts.  The
    event prior p(e) and the image total are read off ``counts``:
    ``prior == counts / total`` exactly.
    """

    cond: np.ndarray
    counts: np.ndarray
    class_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.cond = _as_float_matrix(self.cond)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if not self.class_ids:
            self.class_ids = default_class_ids(self.cond.shape[0])
        if len(self.class_ids) != self.cond.shape[0]:
            raise ValueError("one class id per concept row required")
        if self.counts.shape != (self.cond.shape[1],):
            raise ValueError("counts length must match number of events")
        if np.any(self.counts < 0) or self.total < 1:
            raise ValueError(
                f"counts must be >= 0 with a total >= 1, got counts {self.counts.tolist()}"
            )
        check_simplex_rows(self.cond.T, INTERNAL_TOL, "conditional column")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def prior(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    @property
    def num_events(self) -> int:
        return self.cond.shape[1]


@dataclass(eq=False)
class PosteriorTable:
    """p(event|concept) rows with the concept marginal and a zero-marginal mask.

    Rows of ``post`` are distributions over events.  Concepts that never fire
    (``marginal == 0``) carry a uniform 1/M row and ``undefined_mask`` set.
    """

    post: np.ndarray
    marginal: np.ndarray
    undefined_mask: np.ndarray
    class_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.post = _as_float_matrix(self.post)
        self.marginal = np.asarray(self.marginal, dtype=np.float64)
        self.undefined_mask = np.asarray(self.undefined_mask, dtype=bool)
        if not self.class_ids:
            self.class_ids = default_class_ids(self.post.shape[0])
        c, m = self.post.shape
        if self.marginal.shape != (c,) or self.undefined_mask.shape != (c,):
            raise ValueError("marginal and mask must have one entry per concept")
        check_simplex_rows(self.post, INTERNAL_TOL, "posterior row")
        if np.any(self.post[self.undefined_mask] != 1.0 / m):
            raise ValueError("masked posterior rows must be exactly uniform")

    @property
    def num_classes(self) -> int:
        return self.post.shape[0]


def estimate_conditional(
    responses: ResponseMatrix, labels: EventLabels
) -> ConditionalTable:
    """Estimate p(concept|event) by averaging response rows within each event.

    The prior is the empirical event frequency.  Every event must appear at
    least once; an unseen event has no conditional and is rejected.
    """
    if responses.num_images != labels.labels.size:
        raise ValueError(
            f"{responses.num_images} response rows vs {labels.labels.size} labels"
        )
    if responses.num_images < 1:
        raise ValueError("need at least one image")
    counts = labels.counts()
    empty = np.where(counts == 0)[0]
    if empty.size:
        raise ValueError(f"empty event class {empty[0]}: drop or merge it first")
    m = labels.num_events
    cond = np.zeros((responses.num_classes, m))
    for e in range(m):
        cond[:, e] = responses.values[labels.labels == e].mean(axis=0)
    return ConditionalTable(cond=cond, counts=counts, class_ids=list(responses.class_ids))


def marginalize(table: ConditionalTable) -> np.ndarray:
    """Concept marginal p(concept) = sum_e p(concept|event) p(event)."""
    return table.cond @ table.prior


def bayes_posterior(table: ConditionalTable) -> PosteriorTable:
    """Invert the conditional with Bayes' rule to get p(event|concept) rows.

    Concepts with zero marginal have no defined posterior; they get a uniform
    row and are flagged in ``undefined_mask``.
    """
    marginal = marginalize(table)
    m = table.num_events
    mask = marginal == 0.0
    post = np.empty_like(table.cond)
    live = ~mask
    post[live] = table.cond[live] * table.prior / marginal[live, None]
    post[mask] = 1.0 / m
    return PosteriorTable(
        post=post,
        marginal=marginal,
        undefined_mask=mask,
        class_ids=list(table.class_ids),
    )


def conditional_entropy(posterior) -> float | np.ndarray:
    """Entropy in bits of event distributions along the last axis, with
    0*log2(0) taken as 0: a float for one row, the C row entropies of a
    (C, M) table.

    Low entropy means the concept fires for few events, i.e. it is
    discriminative.
    """
    p = check_simplex_rows(posterior, INGEST_TOL, "entropy input row")
    h = -np.sum(p * np.log2(p, out=np.zeros_like(p), where=p > 0), axis=-1)
    h = np.where(h > 0.0, h, 0.0)
    return float(h) if p.ndim == 1 else h
