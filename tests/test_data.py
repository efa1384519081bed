import numpy as np
import pytest

from sphash.data import (
    SynthSpec,
    generate_synthetic,
    inject_noise_subset,
    inject_symmetric_noise,
    one_hot,
    split,
)
from sphash.errors import ParameterError


def small_spec(**overrides):
    base = dict(n=100, k=4, m=2, dims=(32, 16), seed=11)
    base.update(overrides)
    return SynthSpec(**base)


class TestGenerateSynthetic:
    def test_shapes_and_balance(self):
        ds = generate_synthetic(small_spec())
        assert [x.shape for x in ds.modalities] == [(100, 32), (100, 16)]
        assert ds.labels.shape == (100, 4)
        counts = ds.labels.sum(axis=0)
        assert counts.tolist() == [25, 25, 25, 25]
        assert not ds.noise_mask.any()

    def test_rejects_more_classes_than_instances(self):
        with pytest.raises(ParameterError):
            SynthSpec(n=3, k=4, m=2, dims=(8, 8))

    def test_rejects_bad_fields(self):
        with pytest.raises(ParameterError):
            SynthSpec(n=10, k=2, m=2, dims=(8,))
        with pytest.raises(ParameterError):
            SynthSpec(n=10, k=2, m=2, dims=(8, 1))
        with pytest.raises(ParameterError):
            SynthSpec(n=10, k=2, m=2, dims=(8, 8), intra_noise_std=0.0)

    def test_rejects_modality_counts_other_than_two(self):
        for m, dims in ((1, (8,)), (3, (8, 8, 8))):
            with pytest.raises(ParameterError):
                SynthSpec(n=10, k=2, m=m, dims=dims)

    def test_validate_rejects_a_third_modality(self):
        ds = generate_synthetic(small_spec())
        ds.modalities.append(ds.modalities[1].copy())
        with pytest.raises(ParameterError):
            ds.validate()

    def test_deterministic_per_seed(self):
        a = generate_synthetic(small_spec())
        b = generate_synthetic(small_spec())
        for xa, xb in zip(a.modalities, b.modalities):
            assert xa.tobytes() == xb.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = generate_synthetic(small_spec())
        b = generate_synthetic(small_spec(seed=12))
        assert a.modalities[0].tobytes() != b.modalities[0].tobytes()

    def test_features_finite_and_validates(self):
        ds = generate_synthetic(small_spec())
        ds.validate()
        for x in ds.modalities:
            assert np.isfinite(x).all()

    def test_classes_form_separated_feature_clusters(self):
        ds = generate_synthetic(small_spec(class_separation=8.0, intra_noise_std=0.2))
        classes = ds.true_labels.argmax(axis=1)
        means = np.stack([ds.modalities[0][classes == c].mean(axis=0) for c in range(4)])
        spread = np.stack(
            [ds.modalities[0][classes == c].std(axis=0).mean() for c in range(4)]
        )
        gaps = [
            np.linalg.norm(means[a] - means[b]) for a in range(4) for b in range(a + 1, 4)
        ]
        assert min(gaps) > 2 * spread.max()


class TestInjectSymmetricNoise:
    def test_zero_rate_is_identity(self):
        labels = one_hot(np.arange(10) % 3, 3)
        noisy, mask = inject_symmetric_noise(labels, 0.0, seed=0)
        assert np.array_equal(noisy, labels)
        assert not mask.any()

    def test_exact_flip_count_and_new_classes(self):
        labels = one_hot(np.arange(10) % 5, 5)
        noisy, mask = inject_symmetric_noise(labels, 0.4, seed=3)
        assert mask.sum() == 4
        changed = (noisy != labels).any(axis=1)
        assert np.array_equal(changed, mask)
        # every flipped row is still one-hot with a different class
        assert (noisy.sum(axis=1) == 1).all()
        assert (noisy[mask].argmax(axis=1) != labels[mask].argmax(axis=1)).all()

    def test_rate_bounds(self):
        labels = one_hot(np.zeros(4, dtype=int), 2)
        with pytest.raises(ParameterError):
            inject_symmetric_noise(labels, 1.5, seed=0)
        with pytest.raises(ParameterError):
            inject_symmetric_noise(labels, -0.1, seed=0)

    def test_multi_hot_rejected(self):
        labels = np.ones((4, 3), dtype=np.uint8)
        with pytest.raises(ParameterError, match="single-label"):
            inject_symmetric_noise(labels, 0.5, seed=0)

    def test_deterministic(self):
        labels = one_hot(np.arange(50) % 7, 7)
        a = inject_symmetric_noise(labels, 0.3, seed=9)
        b = inject_symmetric_noise(labels, 0.3, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_flips_spread_uniformly_over_classes(self):
        # N=1000 balanced over K=10; 600 flips draw ~Binomial(600, 0.1) from each
        # class, so 4 binomial sigmas around 60 is a generous envelope (the
        # actual without-replacement sampling is tighter).
        labels = one_hot(np.arange(1000) % 10, 10)
        sigma = np.sqrt(600 * 0.1 * 0.9)
        for seed in range(100):
            _, mask = inject_symmetric_noise(labels, 0.6, seed=seed)
            assert mask.sum() == 600
            per_class = labels[mask].sum(axis=0).astype(np.int64)
            assert (np.abs(per_class - 60) <= 4 * sigma).all(), f"seed {seed}: {per_class}"

    def test_flip_targets_cover_other_classes(self):
        labels = one_hot(np.zeros(2000, dtype=int), 5)
        noisy, mask = inject_symmetric_noise(labels, 1.0, seed=1)
        targets = noisy[mask].argmax(axis=1)
        counts = np.bincount(targets, minlength=5).astype(np.int64)
        assert counts[0] == 0
        # uniform over the 4 other classes: 500 each +- 5 sigma
        sigma = np.sqrt(2000 * 0.25 * 0.75)
        assert (np.abs(counts[1:] - 500) < 5 * sigma).all()


class TestInjectNoiseSubset:
    def test_only_selected_rows_touched(self):
        ds = generate_synthetic(small_spec())
        rows = np.arange(0, 50)
        noised = inject_noise_subset(ds, rows, 0.5, seed=5)
        noised.validate()
        assert noised.noise_mask.sum() == 25
        assert not noised.noise_mask[50:].any()
        assert np.array_equal(noised.labels[50:], ds.labels[50:])


class TestSplit:
    def test_sizes(self):
        ds = generate_synthetic(small_spec())
        tr, va, te = split(ds, 0.7, 0.1, seed=2)
        assert (tr.n, va.n, te.n) == (70, 10, 20)

    def test_disjoint_cover(self):
        ds = generate_synthetic(small_spec())
        tr, va, te = split(ds, 0.7, 0.1, seed=2)
        all_rows = np.concatenate([tr.source_rows, va.source_rows, te.source_rows])
        assert sorted(all_rows.tolist()) == list(range(100))

    def test_stratified_within_one(self):
        ds = generate_synthetic(small_spec(n=101, k=4))
        tr, va, te = split(ds, 0.7, 0.1, seed=2)
        for part, frac in ((tr, 0.7), (va, 0.1), (te, 0.2)):
            counts = part.true_labels.sum(axis=0)
            ideal = frac * ds.true_labels.sum(axis=0)
            assert (np.abs(counts - ideal) <= 1.0 + 1e-9).all()

    def test_deterministic(self):
        ds = generate_synthetic(small_spec())
        a = split(ds, 0.7, 0.1, seed=4)
        b = split(ds, 0.7, 0.1, seed=4)
        for da, db in zip(a, b):
            assert np.array_equal(da.source_rows, db.source_rows)

    def test_carries_labels_and_mask(self):
        ds = generate_synthetic(small_spec())
        noised = inject_noise_subset(ds, np.arange(100), 0.3, seed=8)
        tr, va, te = split(noised, 0.7, 0.1, seed=2)
        for part in (tr, va, te):
            part.validate()
            assert np.array_equal(part.noise_mask, noised.noise_mask[part.source_rows])
            assert np.array_equal(part.labels, noised.labels[part.source_rows])

    def test_degenerate_fractions_rejected(self):
        ds = generate_synthetic(small_spec())
        with pytest.raises(ParameterError):
            split(ds, 0.9, 0.2, seed=0)
        with pytest.raises(ParameterError):
            split(ds, 0.0, 0.1, seed=0)


class TestDatasetValidate:
    def test_labels_that_are_not_2d_rejected(self):
        ds = generate_synthetic(small_spec())
        ds.labels = ds.labels.argmax(axis=1)  # class indices, not one-hot rows
        with pytest.raises(ParameterError, match="is not 2-d"):
            ds.validate()

    def test_take_composes_source_rows(self):
        ds = generate_synthetic(small_spec())
        sub = ds.take(np.arange(10, 40))
        subsub = sub.take(np.arange(0, 5))
        assert subsub.source_rows.tolist() == list(range(10, 15))
