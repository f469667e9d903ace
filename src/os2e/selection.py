"""Discriminative-diverse concept class selection.

Chooses K concept classes whose event posteriors are peaked (low conditional
entropy, the unary cost ``phi``) while staying mutually decorrelated.  The
correlation of two classes is the inner product of their posterior rows,
``psi(i, j) = post[i] @ post[j]``.  The greedy routine picks the argmin of
``phi(o) + lam * S(O, o)`` each step, where ``S(O, o)`` is the mean of
``psi(i, o)`` over the already-selected set ``O`` (0 while it is empty); it
keeps the running ``psi`` sum of every candidate, one matrix-vector product
per pick.  ``energy`` scores a full subset with the ordered-pair pairwise
sum, and an exhaustive enumerator serves as the exact oracle for small
instances.

Note the two costs are deliberately not the same function: the greedy step
uses the running *average* correlation against the already-selected set,
while the subset energy sums correlation over all ordered pairs.  ``energy``
is for reporting and oracle comparison only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .stats import PosteriorTable, conditional_entropy

DEFAULT_LAMBDA = 0.5
DEFAULT_K_OBJECTS = 300
DEFAULT_K_SCENES = 150

EXHAUSTIVE_MAX_CLASSES = 20
EXHAUSTIVE_MAX_SUBSETS = 200_000


@dataclass(eq=False)
class SelectionProblem:
    """A posterior table plus the selection knobs (weight, K).

    ``phi``, the unary cost of each concept class, is the conditional entropy
    of its posterior row, derived for the whole table once, at construction.
    """

    posterior: PosteriorTable
    lam: float = DEFAULT_LAMBDA
    k: int = 1
    phi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c = self.posterior.num_classes
        if not (1 <= self.k <= c):
            raise ValueError(f"k must be in [1, {c}], got {self.k}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        self.phi = conditional_entropy(self.posterior.post)

    @classmethod
    def from_posterior(
        cls, posterior: PosteriorTable, k: int, lam: float = DEFAULT_LAMBDA
    ) -> "SelectionProblem":
        return cls(posterior=posterior, lam=lam, k=k)

    @property
    def num_classes(self) -> int:
        return self.posterior.num_classes


@dataclass(eq=False)
class SelectionResult:
    """Selected class indices in pick order, per-step costs, and total energy."""

    selected: list[int]
    step_costs: list[float]
    energy: float
    indicator: np.ndarray = field(default=None)

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected indices must be distinct")
        self.indicator = np.asarray(self.indicator, dtype=np.int8)
        if int(self.indicator.sum()) != len(self.selected) or np.any(
            self.indicator[self.selected] != 1
        ):
            raise ValueError("indicator must mark exactly the selected classes")


def energy(problem: SelectionProblem, indicator) -> float:
    """Subset energy: sum of unary costs plus lam times all ordered-pair correlations.

    Each unordered pair contributes twice (the double sum runs over ordered
    pairs).
    """
    h = np.asarray(indicator)
    if h.shape != (problem.num_classes,):
        raise ValueError("indicator must have one entry per class")
    sel = np.where(h != 0)[0]
    if sel.size != problem.k:
        raise ValueError(
            f"constraint violated: {sel.size} selected, expected {problem.k}"
        )
    unary = float(problem.phi[sel].sum())
    rows = problem.posterior.post[sel]
    gram = rows @ rows.T
    pair = float(gram.sum() - np.trace(gram))
    return unary + problem.lam * pair


def greedy_select(problem: SelectionProblem) -> SelectionResult:
    """Greedy minimization: each step picks argmin of phi + lam * avg correlation.

    Ties break toward the lowest class index.  Zero-marginal (masked) classes
    are never candidates; there must be at least K unmasked classes.
    """
    post = problem.posterior.post
    eligible = ~problem.posterior.undefined_mask
    n_eligible = int(eligible.sum())
    if problem.k > n_eligible:
        raise ValueError(
            f"insufficient classes: k={problem.k} but only {n_eligible} unmasked"
        )
    remaining = eligible.copy()
    corr_sum = np.zeros(problem.num_classes)
    selected: list[int] = []
    step_costs: list[float] = []
    for step in range(problem.k):
        costs = problem.phi + (
            problem.lam * corr_sum / len(selected) if selected else 0.0
        )
        costs = np.where(remaining, costs, np.inf)
        pick = int(np.argmin(costs))  # argmin takes the lowest index on ties
        selected.append(pick)
        step_costs.append(float(costs[pick]))
        remaining[pick] = False
        corr_sum += post @ post[pick]
    indicator = np.zeros(problem.num_classes, dtype=np.int8)
    indicator[selected] = 1
    return SelectionResult(
        selected=selected,
        step_costs=step_costs,
        energy=energy(problem, indicator),
        indicator=indicator,
    )


def exhaustive_select(problem: SelectionProblem) -> tuple[np.ndarray, float]:
    """Enumerate every K-subset and return the exact energy minimizer.

    Guarded to small instances.  Subset energies sum one Gram matrix pair by
    pair; ``energy`` reports the winner's.  Ties break toward the
    lexicographically smallest index tuple (enumeration order).
    """
    c, k = problem.num_classes, problem.k
    if c > EXHAUSTIVE_MAX_CLASSES:
        raise ValueError(f"instance too large for oracle: C={c}")
    n_subsets = math.comb(c, k)
    if n_subsets > EXHAUSTIVE_MAX_SUBSETS:
        raise ValueError(f"instance too large for oracle: {n_subsets} subsets")
    subsets = np.array(list(itertools.combinations(range(c), k)), dtype=np.intp)
    post = problem.posterior.post
    gram = post @ post.T
    pair = np.zeros(n_subsets)
    for a, b in itertools.combinations(range(k), 2):
        pair += gram[subsets[:, a], subsets[:, b]]
    energies = problem.phi[subsets].sum(axis=1) + problem.lam * (2.0 * pair)
    best = np.zeros(c, dtype=np.int8)
    best[subsets[np.argmin(energies)]] = 1
    return best, energy(problem, best)
