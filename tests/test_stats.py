"""Concept statistics: hand-computed cases and probability-law properties."""

import numpy as np
import pytest

from os2e.stats import (
    INGEST_TOL,
    ConditionalTable,
    EventLabels,
    PosteriorTable,
    ResponseMatrix,
    bayes_posterior,
    check_simplex_rows,
    conditional_entropy,
    default_class_ids,
    estimate_conditional,
    marginalize,
)


def make_responses(values, kind="object"):
    values = np.asarray(values, dtype=np.float64)
    return ResponseMatrix(values, default_class_ids(values.shape[1]), kind=kind)


def random_simplex_rows(rng, n, c):
    rows = rng.dirichlet(np.ones(c) * rng.uniform(0.3, 3.0), size=n)
    return rows


class TestCheckSimplexRows:
    def test_returns_float64_rows(self):
        rows = check_simplex_rows([[1, 0], [0, 1]], INGEST_TOL, "row")
        assert rows.dtype == np.float64 and rows.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "bad, total, least",
        [([0.5, 0.75], "1.25", "0.5"), ([1.5, -0.5], "1.0", "-0.5"),
         ([np.nan, 1.0], "nan", "nan"), ([np.inf, 0.0], "inf", "0.0"),
         ([1.0, -np.inf], "-inf", "-inf")],
    )
    def test_first_bad_row_named_with_its_sum(self, bad, total, least):
        rows = [[0.25, 0.75], bad, [1.5, 1.5]]
        with pytest.raises(ValueError) as info:
            check_simplex_rows(rows, INGEST_TOL, "test row")
        message = f"test row 1 off simplex: sums to {total}, least entry {least}"
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_conditional_column_rejected(self, value):
        cond = np.array([[0.8, 0.4], [0.2, 0.6]])
        cond[1, 1] = value
        with pytest.raises(ValueError, match="conditional column 1 off simplex"):
            ConditionalTable(cond=cond, counts=[1, 1])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_posterior_row_rejected(self, value):
        post = np.array([[0.5, 0.5], [value, 0.0]])
        with pytest.raises(ValueError, match="posterior row 1 off simplex"):
            PosteriorTable(post=post, marginal=[0.5, 0.5], undefined_mask=[False, False])


class TestEstimateConditional:
    def test_two_images_one_event(self):
        responses = make_responses([[1.0, 0.0], [0.0, 1.0]])
        table = estimate_conditional(responses, EventLabels([0, 0], 1))
        np.testing.assert_allclose(table.cond[:, 0], [0.5, 0.5])

    def test_prior_is_event_frequency(self):
        rng = np.random.default_rng(0)
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
        responses = make_responses(random_simplex_rows(rng, 10, 5))
        table = estimate_conditional(responses, EventLabels(labels, 4))
        assert table.prior[0] == 0.4
        np.testing.assert_array_equal(table.counts, [4, 3, 2, 1])

    def test_hand_computed_averages(self):
        responses = make_responses([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]])
        table = estimate_conditional(responses, EventLabels([0, 0, 1], 2))
        np.testing.assert_allclose(table.cond, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)
        np.testing.assert_allclose(table.prior, [2 / 3, 1 / 3], atol=0)

    def test_empty_event_class_rejected(self):
        responses = make_responses([[1.0, 0.0]])
        with pytest.raises(ValueError, match="empty event class"):
            estimate_conditional(responses, EventLabels([0], 2))

    def test_columns_are_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, c, m = int(rng.integers(4, 20)), int(rng.integers(2, 8)), int(rng.integers(1, 4))
            labels = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
            table = estimate_conditional(
                make_responses(random_simplex_rows(rng, n, c)), EventLabels(labels, m)
            )
            np.testing.assert_allclose(table.cond.sum(axis=0), 1.0, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        rows = random_simplex_rows(rng, 12, 4)
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])
        perm = rng.permutation(12)
        a = estimate_conditional(make_responses(rows), EventLabels(labels, 3))
        b = estimate_conditional(make_responses(rows[perm]), EventLabels(labels[perm], 3))
        np.testing.assert_allclose(a.cond, b.cond, atol=1e-15)
        np.testing.assert_array_equal(a.prior, b.prior)


class TestMarginalize:
    def test_one_class_id_per_row_required(self):
        # the report tables pair class ids with rows; a short list would drop rows
        with pytest.raises(ValueError, match="one class id per concept row"):
            ConditionalTable(cond=[[1.0, 0.0], [0.0, 1.0]], counts=[1, 1], class_ids=["a"])

    def test_symmetric(self):
        table = ConditionalTable(cond=[[1.0, 0.0], [0.0, 1.0]], counts=[1, 1])
        np.testing.assert_allclose(marginalize(table), [0.5, 0.5])

    def test_hand_weighted_sum(self):
        table = ConditionalTable(cond=[[0.8, 0.4], [0.2, 0.6]], counts=[1, 1])
        np.testing.assert_allclose(marginalize(table), [0.6, 0.4], atol=1e-15)

    def test_uniform_conditional_gives_uniform_marginal(self):
        table = ConditionalTable(cond=np.full((4, 3), 0.25), counts=[2, 1, 1])
        np.testing.assert_allclose(marginalize(table), 0.25, atol=1e-15)

    def test_total_probability(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            c, m = int(rng.integers(2, 10)), int(rng.integers(1, 6))
            cond = random_simplex_rows(rng, m, c).T
            counts = rng.integers(1, 9, size=m)
            table = ConditionalTable(cond=cond, counts=counts)
            assert abs(marginalize(table).sum() - 1.0) <= 1e-9


class TestBayesPosterior:
    def test_hand_applied_bayes(self):
        table = ConditionalTable(cond=[[0.8, 0.4], [0.2, 0.6]], counts=[1, 1])
        posterior = bayes_posterior(table)
        np.testing.assert_allclose(posterior.post[0], [2 / 3, 1 / 3], atol=1e-15)
        assert not posterior.undefined_mask.any()

    def test_zero_conditional_row_masked_uniform(self):
        table = ConditionalTable(cond=[[1.0, 1.0], [0.0, 0.0]], counts=[1, 1])
        posterior = bayes_posterior(table)
        assert posterior.undefined_mask.tolist() == [False, True]
        np.testing.assert_array_equal(posterior.post[1], [0.5, 0.5])

    def test_single_event_posterior_is_one(self):
        table = ConditionalTable(cond=[[0.3], [0.7]], counts=[5])
        np.testing.assert_array_equal(bayes_posterior(table).post, 1.0)

    def test_round_trip_recovers_prior(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            c, m = int(rng.integers(2, 10)), int(rng.integers(2, 6))
            cond = random_simplex_rows(rng, m, c).T
            counts = rng.integers(1, 9, size=m)
            table = ConditionalTable(cond=cond, counts=counts)
            posterior = bayes_posterior(table)
            recovered = posterior.post.T @ posterior.marginal
            np.testing.assert_allclose(recovered, table.prior, atol=1e-8)


class TestConditionalEntropy:
    def test_uniform_maximum(self):
        assert conditional_entropy([0.25, 0.25, 0.25, 0.25]) == 2.0

    def test_one_hot_zero(self):
        assert conditional_entropy([0.0, 1.0, 0.0]) == 0.0

    def test_hand_evaluated(self):
        assert conditional_entropy([0.5, 0.25, 0.25]) == 1.5

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="entropy input row 0 off simplex"):
            conditional_entropy([1.2, -0.2])

    def test_bounds_over_random_posteriors(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            h = conditional_entropy(rng.dirichlet(np.ones(m)))
            assert 0.0 <= h <= np.log2(m) + 1e-12


class TestResponseMatrix:
    def test_ingestion_tolerance_then_renormalized(self):
        row = np.array([[0.5 + 4e-7, 0.5]])
        matrix = make_responses(row)
        assert abs(matrix.values.sum() - 1.0) <= 1e-12

    def test_rejects_beyond_ingest_tolerance(self):
        with pytest.raises(ValueError, match="response row 0 off simplex"):
            make_responses([[0.5 + 1e-5, 0.5]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="least entry -0.5"):
            make_responses([[1.5, -0.5]])
