import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from memory import traced_peak
from oracles import (
    naive_average_precision,
    naive_mean_average_precision,
    naive_pr_curve,
    ranked_relevance_reference,
)
from sphash.data import one_hot
from sphash.errors import ParameterError
from sphash import kernels
from sphash.evaluator import (
    RetrievalTask,
    mean_average_precision,
    noise_detection_score,
    pr_curve,
)
from sphash.fileio import write_csv

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


@st.composite
def ragged_relevance(draw):
    """(Q, G) bool rankings with Q around the query chunk: each row its own
    relevant fraction, and some rows empty or all relevant."""
    n_query = draw(st.sampled_from([1, 63, 64, 65, 129]))
    n_gallery = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rel = rng.random((n_query, n_gallery)) < rng.random((n_query, 1))
    kind = rng.integers(0, 4, n_query)
    rel[kind == 0] = False
    rel[kind == 1] = True
    return rel


def task_ranked_as(rel):
    """A task whose ranked_relevance is rel: every distance ties, so the ranking is
    gallery order, and query i shares a class with gallery item j where rel[i, j]."""
    n_query, n_gallery = rel.shape
    codes = np.ones((max(n_query, n_gallery), 1), dtype=np.int8)
    return RetrievalTask(codes[:n_query], rel.astype(np.uint8), codes[:n_gallery],
                         np.eye(n_gallery, dtype=np.uint8))


def pairwise_hamming(codes_a, codes_b):
    """All-pairs distances of {-1,+1} code rows through the packed kernel."""
    return kernels.pairwise_hamming_packed(kernels.pack_signs(codes_a), kernels.pack_signs(codes_b))


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
    return np.argsort(task.ranked_relevance().argmax(axis=1))


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
        # 3 and 4 bits pack into one word each: the task is what compares code lengths
        with pytest.raises(ParameterError, match="query code length 3 != gallery code length 4"):
            RetrievalTask(np.ones((1, 3), dtype=np.int8), np.ones((1, 1), dtype=np.uint8),
                          np.ones((1, 4), dtype=np.int8), np.ones((1, 1), dtype=np.uint8))

    @pytest.mark.parametrize("query_labels", [np.ones((2, 4), dtype=np.uint8),
                                              np.ones(2, dtype=np.uint8)])
    def test_labels_the_ranking_cannot_compare(self, query_labels):
        # 4 classes against 3, or a 1-d label vector: rejected before any ranking
        message = {2: "differ in class count", 1: "labels must be 2-d"}[query_labels.ndim]
        codes = np.ones((2, 8), dtype=np.int8)
        with pytest.raises(ParameterError, match=message):
            RetrievalTask(codes, query_labels, codes, np.ones((2, 3), dtype=np.uint8))

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
        assert task.ranked_relevance().dtype == bool
        assert np.array_equal(task.ranked_relevance(), expected)

    def test_matches_stable_int64_oracle_over_many_query_rows(self):
        rng = np.random.default_rng(16)
        task = random_task(rng, n_query=150, n_gallery=300, length=5, k=4, multi_label=True)
        expected = ranked_relevance_reference(
            task.query_codes, task.query_labels, task.gallery_codes, task.gallery_labels
        )
        assert np.array_equal(task.ranked_relevance(), expected)

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
        task = random_task(np.random.default_rng(14), n_query=150)
        mean_average_precision(task)
        pr_curve(task, 5)
        # one Hamming call per query chunk, for both metrics
        assert len(calls) == math.ceil(150 / kernels.QUERY_CHUNK)

    @pytest.mark.parametrize("chunk", [16, 32, 64, 100])
    def test_query_chunk_does_not_change_the_bits(self, monkeypatch, chunk):
        # AP, MAP and the PR sums add per query, in query order, whatever the chunk
        def scores():
            task = random_task(np.random.default_rng(19), n_query=150, n_gallery=700,
                               length=128, k=6, multi_label=True)
            return mean_average_precision(task), pr_curve(task, 11)

        expected = scores()
        monkeypatch.setattr(kernels, "QUERY_CHUNK", chunk)
        assert scores() == expected

    def test_ranking_peaks_below_a_dense_float32_relevance(self):
        # relevance is computed one query chunk at a time, never as a (Q, G) float32 matrix
        n = 2000
        task = random_task(np.random.default_rng(17), n, n, length=32, k=8, multi_label=True)
        assert traced_peak(lambda: task.packed_ranking) < n * n * 4

    def test_map_and_pr_curve_peak_below_8_mb(self):
        # the ranking is kept bit-packed (1.75 MB here) and built, then read, one
        # query chunk at a time: no (Q, G) matrix is ever alive
        rng = np.random.default_rng(18)
        task = random_task(rng, n_query=2000, n_gallery=7000, length=128, k=8)
        peak = traced_peak(lambda: (mean_average_precision(task), pr_curve(task, 11)))
        assert task.packed_ranking.shape == (2000, 875)
        assert peak < 8_000_000


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
        shared = permuted.query_labels.astype(np.int64) @ permuted.gallery_labels.astype(np.int64).T
        rel = shared >= 1
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
        assert all(y == 1.0 for _, y in points)

    def test_recall_levels_strictly_increasing(self):
        rng = np.random.default_rng(7)
        points = pr_curve(random_task(rng), 21)
        recalls = [x for x, _ in points]
        assert recalls[0] == 0.0 and recalls[-1] == 1.0
        assert all(b > a for a, b in zip(recalls, recalls[1:]))

    def test_precisions_in_unit_interval(self):
        rng = np.random.default_rng(8)
        points = pr_curve(random_task(rng, n_query=8, n_gallery=50), 11)
        assert all(0.0 <= y <= 1.0 for _, y in points)

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
        assert np.isclose(points[-1][1], relevant.sum() / 20, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(rel=ragged_relevance(), num_points=st.sampled_from([2, 3, 21, 10001]))
    def test_matches_dense_oracle_bit_for_bit(self, rel, num_points):
        task = task_ranked_as(rel)
        assert np.array_equal(task.ranked_relevance(), rel)
        points = pr_curve(task, num_points)
        assert points == naive_pr_curve(rel, num_points)

    def test_num_points_validated(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ParameterError):
            pr_curve(random_task(rng), 1)

    def test_csv_format(self, tmp_path):
        rng = np.random.default_rng(11)
        points = pr_curve(random_task(rng), 3)
        path = tmp_path / "pr.csv"
        write_csv(path, ("recall", "precision"), points)
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

    def test_auc_orders_by_weight(self):
        # noisy instances carry lower weights: AUC must be high but below 1
        mask = np.array([True, True, True, False, False, False])
        weights = np.array([0.1, 0.2, 0.6, 0.5, 0.8, 0.9])
        score = noise_detection_score(weights, mask)
        assert score.auc == pytest.approx(8 / 9)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError, match="vs mask"):
            noise_detection_score(np.ones(3), np.zeros(4, dtype=bool))
