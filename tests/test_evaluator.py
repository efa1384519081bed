import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    naive_average_precision,
    naive_mean_average_precision,
    ranked_relevance_reference,
)
from sphash.data import one_hot
from sphash.errors import ParameterError, ShapeError
from sphash import kernels
from sphash.evaluator import (
    RetrievalTask,
    cross_modal_tasks,
    mean_average_precision,
    noise_detection_score,
    pairwise_hamming,
    pr_curve,
    weight_density,
)
from sphash.fileio import write_csv
from sphash.pacer import SampleWeights

pm_codes = arrays(
    np.int8,
    st.tuples(st.integers(1, 12), st.integers(1, 16)),
    elements=st.sampled_from([-1, 1]),
)


def random_task(rng, n_query=6, n_gallery=20, length=8, k=3, multi_label=False):
    def labels(n):
        if multi_label:  # any number of classes per row, none included
            return (rng.random((n, k)) < 0.4).astype(np.uint8)
        return one_hot(rng.integers(0, k, n), k)

    return RetrievalTask(
        query_codes=rng.choice([-1, 1], (n_query, length)).astype(np.int8),
        query_labels=labels(n_query),
        gallery_codes=rng.choice([-1, 1], (n_gallery, length)).astype(np.int8),
        gallery_labels=labels(n_gallery),
    )


@st.composite
def tie_heavy_tasks(draw):
    """Tasks whose codes repeat a few rows, so most distances tie; multi-label rows."""
    length = draw(st.sampled_from([1, 2, 3, 65]))
    pool = draw(arrays(np.int8, (draw(st.integers(1, 4)), length),
                       elements=st.sampled_from([-1, 1])))
    n_query, n_gallery, k = draw(st.integers(1, 6)), draw(st.integers(1, 40)), draw(st.integers(1, 5))
    picks = st.integers(0, len(pool) - 1)
    query_rows = draw(arrays(np.intp, n_query, elements=picks))
    gallery_rows = draw(arrays(np.intp, n_gallery, elements=picks))
    label_bits = st.integers(0, 1)
    return RetrievalTask(
        query_codes=pool[query_rows],
        query_labels=draw(arrays(np.uint8, (n_query, k), elements=label_bits)),
        gallery_codes=pool[gallery_rows],
        gallery_labels=draw(arrays(np.uint8, (n_gallery, k), elements=label_bits)),
    )


def distance(a, b) -> int:
    """One pair's distance through the packed all-pairs kernel."""
    return int(pairwise_hamming(a[None, :], b[None, :])[0, 0])


def gallery_order(query, gallery):
    """A task's ranking of the gallery for one query, read back from ranked_relevance.

    Copy i of the query shares a class with gallery item i alone, so the one
    relevant rank in row i is the rank of item i.
    """
    n = len(gallery)
    labels = np.eye(n, dtype=np.uint8)
    task = RetrievalTask(np.repeat(query[None, :], n, axis=0), labels, gallery, labels)
    return np.argsort(task.ranked_relevance.argmax(axis=1))


class TestHammingDistance:
    def test_identity(self):
        a = np.array([1, -1, 1], dtype=np.int8)
        assert distance(a, a) == 0

    def test_counting(self):
        a = np.array([1, 1, -1, -1], dtype=np.int8)
        b = np.array([1, -1, -1, 1], dtype=np.int8)
        assert distance(a, b) == 2

    def test_antipodal(self):
        a = np.array([1, -1, 1, 1, -1], dtype=np.int8)
        assert distance(a, -a) == 5

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pairwise_hamming(np.ones((1, 3), dtype=np.int8), np.ones((1, 4), dtype=np.int8))

    @settings(max_examples=50, deadline=None)
    @given(codes=pm_codes)
    def test_metric_properties(self, codes):
        d = pairwise_hamming(codes, codes)
        assert np.array_equal(d, d.T)
        equal_rows = (codes[:, None, :] == codes[None, :, :]).all(axis=2)
        assert np.array_equal(d == 0, equal_rows)
        # d(x, z) <= d(x, y) + d(y, z) over every triple
        assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()

    @settings(max_examples=30, deadline=None)
    @given(codes=pm_codes)
    def test_dot_product_identity(self, codes):
        length = codes.shape[1]
        dots = codes.astype(np.int64) @ codes.astype(np.int64).T
        assert np.array_equal(pairwise_hamming(codes, codes), (length - dots) // 2)


class TestPairwiseHamming:
    def test_packed_equals_dot_route(self):
        rng = np.random.default_rng(0)
        for length in (1, 7, 32, 64, 100, 130):
            a = rng.choice([-1, 1], (9, length)).astype(np.int8)
            b = rng.choice([-1, 1], (13, length)).astype(np.int8)
            dot_route = (length - a.astype(np.int64) @ b.astype(np.int64).T) // 2
            assert np.array_equal(pairwise_hamming(a, b), dot_route)

    def test_shape_check(self):
        a = np.ones((2, 4), dtype=np.int8)
        b = np.ones((2, 5), dtype=np.int8)
        with pytest.raises(ShapeError):
            pairwise_hamming(a, b)


class TestRankGallery:
    def test_exact_duplicate_first(self):
        rng = np.random.default_rng(1)
        gallery = rng.choice([-1, 1], (10, 6)).astype(np.int8)
        query = gallery[4].copy()
        order = gallery_order(query, gallery)
        dist = (gallery != query).sum(axis=1)
        first_zero = int(np.flatnonzero(dist == 0)[0])
        assert order[0] == first_zero

    def test_tie_break_by_index(self):
        # distances (3, 1, 1, 0) -> order (3, 1, 2, 0)
        query = np.array([1, 1, 1], dtype=np.int8)
        gallery = np.array(
            [[-1, -1, -1], [1, 1, -1], [1, -1, 1], [1, 1, 1]], dtype=np.int8
        )
        assert gallery_order(query, gallery).tolist() == [3, 1, 2, 0]

    @settings(max_examples=100, deadline=None)
    @given(task=tie_heavy_tasks())
    def test_matches_stable_int64_oracle(self, task):
        expected = ranked_relevance_reference(
            task.query_codes, task.query_labels, task.gallery_codes, task.gallery_labels
        )
        assert task.ranked_relevance.dtype == bool
        assert np.array_equal(task.ranked_relevance, expected)
        shared = task.query_labels.astype(np.int64) @ task.gallery_labels.astype(np.int64).T
        assert np.array_equal(task.relevance(), shared >= 1)

    def test_matches_stable_int64_oracle_over_many_query_rows(self):
        rng = np.random.default_rng(16)
        task = random_task(rng, n_query=150, n_gallery=300, length=5, k=4, multi_label=True)
        expected = ranked_relevance_reference(
            task.query_codes, task.query_labels, task.gallery_codes, task.gallery_labels
        )
        assert np.array_equal(task.ranked_relevance, expected)

    def test_output_is_permutation(self):
        rng = np.random.default_rng(2)
        gallery = rng.choice([-1, 1], (15, 5)).astype(np.int8)
        order = gallery_order(gallery[0], gallery)
        assert sorted(order.tolist()) == list(range(15))


class TestRankOnce:
    def test_map_and_pr_curve_share_one_ranking(self, monkeypatch):
        calls = []
        real = kernels.pairwise_hamming_packed

        def counting(query_words, gallery_words):
            calls.append(1)
            return real(query_words, gallery_words)

        monkeypatch.setattr(kernels, "pairwise_hamming_packed", counting)
        task = random_task(np.random.default_rng(14))
        mean_average_precision(task)
        pr_curve(task, 5)
        assert len(calls) == 1

    def test_cross_modal_directions(self):
        rng = np.random.default_rng(15)
        query = [rng.choice([-1, 1], (3, 8)).astype(np.int8) for _ in range(2)]
        gallery = [rng.choice([-1, 1], (5, 8)).astype(np.int8) for _ in range(2)]
        q_labels, g_labels = one_hot(np.arange(3) % 2, 2), one_hot(np.arange(5) % 2, 2)
        i2t, t2i = cross_modal_tasks(query, q_labels, gallery, g_labels)
        assert (i2t.direction, t2i.direction) == ("I2T", "T2I")
        assert i2t.query_codes is query[0] and i2t.gallery_codes is gallery[1]
        assert t2i.query_codes is query[1] and t2i.gallery_codes is gallery[0]
        assert i2t.query_labels is q_labels and t2i.gallery_labels is g_labels


def average_precision(relevance) -> float:
    """AP of one ranked relevance list, from the kernel mean_average_precision runs."""
    return float(kernels.ap_scores(np.asarray(relevance)[None, :])[0])


class TestAveragePrecision:
    def test_all_relevant_first(self):
        assert average_precision(np.array([1, 1, 0])) == 1.0

    def test_hand_derived_values(self):
        assert average_precision(np.array([0, 1, 1])) == pytest.approx(7 / 12, rel=1e-15)
        assert average_precision(np.array([1, 0, 1])) == pytest.approx(5 / 6, rel=1e-15)
        # the independent oracle agrees bit for bit
        assert average_precision(np.array([0, 1, 1])) == naive_average_precision([0, 1, 1])
        assert average_precision(np.array([1, 0, 1])) == naive_average_precision([1, 0, 1])

    def test_no_relevant_items(self):
        assert average_precision(np.zeros(5, dtype=int)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(rel=st.lists(st.integers(0, 1), min_size=1, max_size=40))
    def test_matches_oracle_bit_for_bit(self, rel):
        assert average_precision(np.array(rel)) == naive_average_precision(rel)

    @settings(max_examples=100, deadline=None)
    @given(rel=st.lists(st.integers(0, 1), min_size=1, max_size=30))
    def test_range_and_perfection(self, rel):
        ap = average_precision(np.array(rel))
        assert 0.0 <= ap <= 1.0
        total = sum(rel)
        sorted_desc = sorted(rel, reverse=True)
        if total:
            assert (ap == 1.0) == (rel == sorted_desc)


class TestMeanAveragePrecision:
    def test_self_retrieval_is_perfect(self):
        rng = np.random.default_rng(3)
        codes = rng.choice([-1, 1], (4, 16)).astype(np.int8)
        labels = one_hot(np.arange(4), 4)
        task = RetrievalTask(codes, labels, codes.copy(), labels.copy())
        assert mean_average_precision(task) == 1.0

    def test_random_codes_score_near_class_prior(self):
        rng = np.random.default_rng(4)
        task = RetrievalTask(
            query_codes=rng.choice([-1, 1], (200, 24)).astype(np.int8),
            query_labels=one_hot(rng.integers(0, 2, 200), 2),
            gallery_codes=rng.choice([-1, 1], (1000, 24)).astype(np.int8),
            gallery_labels=one_hot((np.arange(1000) % 2), 2),
        )
        assert abs(mean_average_precision(task) - 0.5) < 0.05

    def test_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(5)
        for multi_label in (False, True):
            for _ in range(25):
                task = random_task(
                    rng,
                    n_query=int(rng.integers(1, 10)),
                    n_gallery=int(rng.integers(1, 40)),
                    length=int(rng.integers(1, 12)),
                    k=int(rng.integers(2, 6)) if multi_label else 3,
                    multi_label=multi_label,
                )
                expected = naive_mean_average_precision(
                    task.query_codes, task.query_labels, task.gallery_codes, task.gallery_labels
                )
                assert mean_average_precision(task) == expected

    def test_gallery_permutation_invariance_with_reindexed_ties(self):
        # ranking by (distance, original index) after a permutation reproduces
        # the original relevance sequence, so MAP is unchanged
        rng = np.random.default_rng(6)
        task = random_task(rng, n_query=5, n_gallery=30)
        base = mean_average_precision(task)
        perm = rng.permutation(30)
        permuted = RetrievalTask(
            task.query_codes,
            task.query_labels,
            task.gallery_codes[perm],
            task.gallery_labels[perm],
        )
        dist = pairwise_hamming(permuted.query_codes, permuted.gallery_codes)
        rel = permuted.relevance()
        total = 0.0
        for qi in range(5):
            order = np.lexsort((perm, dist[qi]))  # tie-break on original index
            total += naive_average_precision(rel[qi][order])
        assert np.isclose(total / 5, base, atol=1e-12)


class TestPrCurve:
    def test_perfect_retrieval_flat_at_one(self):
        codes = np.repeat(np.array([[1, 1, 1, 1], [-1, -1, -1, -1]], dtype=np.int8), 3, axis=0)
        labels = one_hot(np.repeat([0, 1], 3), 2)
        task = RetrievalTask(codes, labels, codes.copy(), labels.copy())
        points = pr_curve(task, 11)
        assert all(p.y == 1.0 for p in points)

    def test_recall_levels_strictly_increasing(self):
        rng = np.random.default_rng(7)
        points = pr_curve(random_task(rng), 21)
        recalls = [p.x for p in points]
        assert recalls[0] == 0.0 and recalls[-1] == 1.0
        assert all(b > a for a, b in zip(recalls, recalls[1:]))

    def test_precisions_in_unit_interval(self):
        rng = np.random.default_rng(8)
        points = pr_curve(random_task(rng, n_query=8, n_gallery=50), 11)
        assert all(0.0 <= p.y <= 1.0 for p in points)

    def test_full_recall_precision_is_relevant_fraction_when_last_is_relevant(self):
        rng = np.random.default_rng(9)
        length = 8
        query = np.ones((1, length), dtype=np.int8)
        gallery = rng.choice([-1, 1], (20, length)).astype(np.int8)
        gallery[-1] = -query[0]  # unique maximal distance, ranked dead last
        labels = np.zeros((20, 2), dtype=np.uint8)
        relevant = rng.random(20) < 0.4
        relevant[-1] = True
        labels[relevant, 0] = 1
        labels[~relevant, 1] = 1
        task = RetrievalTask(query, np.array([[1, 0]], dtype=np.uint8), gallery, labels)
        points = pr_curve(task, 5)
        assert np.isclose(points[-1].y, relevant.sum() / 20, atol=1e-12)

    def test_num_points_validated(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ParameterError):
            pr_curve(random_task(rng), 1)

    def test_csv_format(self, tmp_path):
        rng = np.random.default_rng(11)
        points = pr_curve(random_task(rng), 3)
        path = tmp_path / "pr.csv"
        write_csv(path, ("recall", "precision"), [(p.x, p.y) for p in points])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "recall,precision"
        assert len(lines) == 4
        assert lines[1].startswith("0.000000,")


class TestNoiseDetection:
    def test_perfect_detection(self):
        mask = np.array([True, False, True, False])
        weights = np.array([0.0, 0.8, 0.0, 0.5])
        score = noise_detection_score(weights, mask)
        assert (score.precision, score.recall, score.f1, score.auc) == (1.0, 1.0, 1.0, 1.0)

    def test_equal_weights_auc_half(self):
        mask = np.array([True, False, True, False])
        score = noise_detection_score(np.full(4, 0.5), mask)
        assert score.auc == 0.5

    def test_all_clean_mask_convention(self):
        mask = np.zeros(4, dtype=bool)
        score = noise_detection_score(np.array([0.0, 0.4, 0.9, 1.0]), mask)
        assert score.recall == 1.0
        assert score.precision == 0.0
        assert score.auc == 0.5

    def test_no_predictions_on_noisy_mask(self):
        mask = np.array([True, False])
        score = noise_detection_score(np.array([0.5, 0.7]), mask)
        assert score.precision == 0.0
        assert score.recall == 0.0
        assert score.f1 == 0.0

    def test_accepts_sample_weights(self):
        mask = np.array([True, False])
        weights = SampleWeights(np.array([0.0, 1.0]), gamma=1.0)
        assert noise_detection_score(weights, mask).f1 == 1.0

    def test_auc_orders_by_weight(self):
        # noisy instances carry lower weights: AUC must be high but below 1
        mask = np.array([True, True, True, False, False, False])
        weights = np.array([0.1, 0.2, 0.6, 0.5, 0.8, 0.9])
        score = noise_detection_score(weights, mask)
        assert score.auc == pytest.approx(8 / 9)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            noise_detection_score(np.ones(3), np.zeros(4, dtype=bool))


class TestWeightDensity:
    def test_all_ones_in_top_bin(self):
        hist = weight_density(np.ones(50), bins=10)
        assert hist.masses[-1] == 1.0
        assert hist.masses[:-1].sum() == 0.0

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(12)
        hist = weight_density(rng.uniform(0, 1, 1000), bins=7)
        assert abs(hist.masses.sum() - 1.0) < 1e-9

    def test_uniform_weights_give_flat_histogram(self):
        rng = np.random.default_rng(13)
        n, bins = 10**5, 10
        hist = weight_density(rng.uniform(0, 1, n), bins=bins)
        sigma = np.sqrt((1 / bins) * (1 - 1 / bins) / n)
        assert (np.abs(hist.masses - 1 / bins) < 5 * sigma).all()

    def test_bins_validated(self):
        with pytest.raises(ParameterError):
            weight_density(np.ones(5), bins=1)
