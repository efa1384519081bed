import copy

import numpy as np
import pytest

from oracles import NestedOptimizer
from sphash.data import SynthSpec, generate_synthetic, inject_noise_subset, split
from sphash.encoder import encode, init_centers, init_params
from sphash.errors import ParameterError, TrainingDivergedError
from sphash.fileio import load_checkpoint
from sphash.losses import SELFPACED, WARMUP, LossConfig
from sphash.pacer import PaceSchedule, SampleWeights
from sphash.seeding import stable_seed
from sphash.trainer import (
    OPTIMIZERS,
    TrainConfig,
    _OptimizerState,
    resolve_config,
    step,
    train,
    write_report_csv,
    write_weight_log_csv,
)


def tiny_splits(noise=0.4, seed=5):
    ds = generate_synthetic(
        SynthSpec(n=80, k=3, m=2, dims=(6, 5), class_separation=5.0, intra_noise_std=0.4, seed=seed)
    )
    tr, _, _ = split(ds, 0.6, 0.2, seed)
    ds = inject_noise_subset(ds, tr.source_rows, noise, stable_seed(seed, "train-noise"))
    return split(ds, 0.6, 0.2, seed)


def tiny_config(**overrides):
    base = dict(
        code_length=8,
        hidden_dim=12,
        batch_size=16,
        warmup_epochs=2,
        max_epochs=5,
        learning_rate=1e-3,
        seed=3,
        loss=LossConfig(alpha=0.1),
    )
    base.update(overrides)
    return TrainConfig(**base)


def step_inputs(batch_size=6, seed=0):
    rng = np.random.default_rng(seed)
    params = init_params((6, 5), hidden_dim=12, code_length=8, seed=seed)
    centers = init_centers(3, 8, seed=seed)
    x = [rng.normal(size=(batch_size, 6)), rng.normal(size=(batch_size, 5))]
    y = np.zeros((batch_size, 3), dtype=np.uint8)
    y[np.arange(batch_size), rng.integers(0, 3, batch_size)] = 1
    return params, centers, x, y


class TestConfigValidation:
    def test_warmup_must_precede_max(self):
        with pytest.raises(ParameterError):
            tiny_config(warmup_epochs=5, max_epochs=5)

    def test_batch_floor(self):
        with pytest.raises(ParameterError):
            tiny_config(batch_size=1)

    def test_learning_rate_non_negative_and_finite(self):
        for value in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                tiny_config(learning_rate=value)

    def test_unknown_variant_and_optimizer(self):
        with pytest.raises(ParameterError):
            tiny_config(variant="half_spl")
        with pytest.raises(ParameterError):
            tiny_config(optimizer="lbfgs")

    def test_resolve_materializes_default_gamma(self):
        cfg = resolve_config(tiny_config(), n_modalities=2)
        assert cfg.pace is not None
        assert cfg.pace.gamma_start == pytest.approx(1.5)  # half of M(r^2-r+1)/r at M=2, r=0.5

    def test_resolve_applies_variant_forcings(self):
        assert resolve_config(tiny_config(variant="no_chl"), 2).loss.alpha == 0.0
        assert resolve_config(tiny_config(variant="no_warmup"), 2).warmup_epochs == 0

    def test_gamma_override_requires_pace(self):
        with pytest.raises(ParameterError):
            resolve_config(tiny_config(variant="gamma_override"), 2)
        cfg = resolve_config(
            tiny_config(variant="gamma_override", pace=PaceSchedule("fixed", gamma_start=200.0)), 2
        )
        assert cfg.pace.gamma_start == 200.0

    def test_out_of_bounds_schedule_rejected_for_normal_variants(self):
        with pytest.raises(ParameterError):
            resolve_config(tiny_config(pace=PaceSchedule("fixed", gamma_start=3.0)), 2)


class TestOptimizer:
    @pytest.mark.parametrize("kind", OPTIMIZERS)
    def test_flat_update_matches_nested_reference(self, kind):
        params = init_params((7, 4), hidden_dim=6, code_length=5, seed=11)
        nested = [[a.copy() for a in (m.w1, m.b1, m.w2, m.b2)] for m in params.modalities]
        flat_opt, ref_opt = _OptimizerState(kind, params), NestedOptimizer(kind, nested)
        rng = np.random.default_rng(12)
        for _ in range(25):
            grad = rng.normal(size=params.flat.shape) * rng.uniform(0.01, 10.0)
            assert grad.all()
            flat_opt.apply(params, grad, 0.05)
            ref_opt.apply(nested, split_like(grad, nested), 0.05)
            reference = np.concatenate([a.ravel() for mod in nested for a in mod])
            assert params.flat.tobytes() == reference.tobytes()


def split_like(vector, nested):
    """Cut a flat vector into arrays shaped like nested, in order."""
    out, offset = [], 0
    for mod in nested:
        out.append([])
        for a in mod:
            out[-1].append(vector[offset : offset + a.size].reshape(a.shape))
            offset += a.size
    return out


class TestStep:
    def test_zero_learning_rate_keeps_params(self):
        params, centers, x, y = step_inputs()
        cfg = tiny_config(learning_rate=0.0)
        opt = _OptimizerState(cfg.optimizer, params)
        before = params.flat.copy()
        step(params, centers, x, y, WARMUP, None, cfg, opt)
        assert np.array_equal(before, params.flat)

    def test_identical_states_give_identical_updates(self):
        params1, centers, x, y = step_inputs()
        params2 = copy.deepcopy(params1)
        cfg = tiny_config()
        opt1 = _OptimizerState(cfg.optimizer, params1)
        opt2 = _OptimizerState(cfg.optimizer, params2)
        r1 = step(params1, centers, x, y, WARMUP, None, cfg, opt1)
        r2 = step(params2, centers, x, y, WARMUP, None, cfg, opt2)
        assert r1 == r2
        assert params1.flat.tobytes() == params2.flat.tobytes()

    def test_all_zero_weights_and_no_contrast_is_noop_under_sgd(self):
        params, centers, x, y = step_inputs()
        cfg = tiny_config(optimizer="sgd", loss=LossConfig(alpha=0.0))
        opt = _OptimizerState("sgd", params)
        weights = SampleWeights(np.zeros(x[0].shape[0]), gamma=1.0)
        before = params.flat.copy()
        step(params, centers, x, y, SELFPACED, weights, cfg, opt)
        assert np.array_equal(before, params.flat)

    def test_zero_weight_instance_contributes_no_data_gradient(self):
        # sgd deltas scaled by batch size must coincide with the instance dropped
        params1, centers, x, y = step_inputs(batch_size=6)
        params2 = copy.deepcopy(params1)
        reference = copy.deepcopy(params1)
        cfg = tiny_config(optimizer="sgd", learning_rate=1.0, loss=LossConfig(alpha=0.0))
        w_full = SampleWeights(np.array([0.0, 0.7, 1.0, 0.2, 0.5, 0.9]), gamma=1.0)
        w_drop = SampleWeights(w_full.values[1:], gamma=1.0)
        step(params1, centers, x, y, SELFPACED, w_full, cfg, _OptimizerState("sgd", params1))
        step(
            params2,
            centers,
            [xm[1:] for xm in x],
            y[1:],
            SELFPACED,
            w_drop,
            cfg,
            _OptimizerState("sgd", params2),
        )
        # regularizer is weight-only, so deltas are pure data gradients
        r, a, b = reference.flat, params1.flat, params2.flat
        assert np.allclose((a - r) * 6, (b - r) * 5, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_raises_with_context(self):
        params, centers, x, y = step_inputs()
        params.modalities[0].w1[:] = np.inf
        cfg = tiny_config()
        opt = _OptimizerState(cfg.optimizer, params)
        with pytest.raises(TrainingDivergedError) as err:
            step(params, centers, x, y, WARMUP, None, cfg, opt, epoch=4, batch_index=2)
        assert err.value.epoch == 4
        assert err.value.batch == 2


class TestTrainLoop:
    def test_phase_switch_exactly_at_warmup(self, tmp_path):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(), tmp_path)
        phases = [rec.phase for rec in report.records]
        assert phases == [WARMUP] * 2 + [SELFPACED] * 3
        for rec in report.records:
            if rec.phase == WARMUP:
                assert rec.gamma is None and rec.zero_weight_count is None
            else:
                assert rec.gamma is not None and rec.zero_weight_count is not None

    def test_deterministic_reports_and_checkpoints(self, tmp_path):
        tr, va, _ = tiny_splits()
        r1 = train(tr, va, tiny_config(), tmp_path / "a")
        r2 = train(tr, va, tiny_config(), tmp_path / "b")
        assert r1.records == r2.records
        assert r1.best_epoch == r2.best_epoch
        assert (tmp_path / "a/checkpoint.bin").read_bytes() == (
            tmp_path / "b/checkpoint.bin"
        ).read_bytes()

    def test_no_spl_variant_keeps_unit_weights(self, tmp_path):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(variant="no_spl"), tmp_path)
        for rec in report.records:
            if rec.phase == SELFPACED:
                assert rec.zero_weight_count == 0
        for snap in report.weight_log:
            assert (snap.weights == 1.0).all()

    def test_no_chl_variant_never_evaluates_contrastive(self, tmp_path):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(variant="no_chl"), tmp_path)
        assert all(rec.loss_contrastive is None for rec in report.records)

    def test_no_warmup_variant_starts_selfpaced(self, tmp_path):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(variant="no_warmup"), tmp_path)
        assert report.records[0].phase == SELFPACED

    def test_gamma_override_admits_everyone(self, tmp_path):
        tr, va, _ = tiny_splits()
        cfg = tiny_config(variant="gamma_override", pace=PaceSchedule("fixed", gamma_start=200.0))
        report = train(tr, va, cfg, tmp_path)
        for snap in report.weight_log:
            assert (snap.weights > 0.9).all()
        for rec in report.records:
            if rec.phase == SELFPACED:
                assert rec.zero_weight_count == 0

    def test_binarize_weights_variant(self, tmp_path):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(variant="binarize_weights"), tmp_path)
        for snap in report.weight_log:
            assert set(np.unique(snap.weights)).issubset({0.0, 1.0})

    def test_best_checkpoint_reproduces_encoder(self, tmp_path):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(), tmp_path)
        params, centers = load_checkpoint(report.checkpoint_path)
        assert params.dims == tr.dims
        codes = encode(params.modalities[0], tr.modalities[0][:4].astype(np.float64))
        assert np.isfinite(codes).all()
        assert report.best_epoch >= 0
        assert 0.0 <= report.best_val_map <= 1.0

    def test_eval_cadence(self, tmp_path):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(eval_every=2, max_epochs=5), tmp_path)
        evaluated = [rec.epoch for rec in report.records if rec.val_map_i2t is not None]
        assert evaluated == [0, 2, 4]

    def test_linear_ramp_gamma_recorded(self, tmp_path):
        tr, va, _ = tiny_splits()
        cfg = tiny_config(
            pace=PaceSchedule("linear_ramp", gamma_start=0.5, gamma_end=1.0, ramp_epochs=2)
        )
        report = train(tr, va, cfg, tmp_path)
        gammas = [rec.gamma for rec in report.records if rec.phase == SELFPACED]
        assert gammas == [0.5, 0.75, 1.0]


class TestReportFiles:
    def test_report_csv_shape(self, tmp_path):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(), tmp_path)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,phase,loss_total")
        assert len(lines) == 1 + 5
        warm_row = lines[1].split(",")
        assert warm_row[1] == WARMUP and warm_row[5] == ""
        paced_row = lines[4].split(",")
        assert paced_row[1] == SELFPACED and paced_row[5] != ""

    def test_weight_log_csv(self, tmp_path):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(), tmp_path)
        path = tmp_path / "weights.csv"
        write_weight_log_csv(report, tr, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,instance_index,loss,weight,is_noisy_ground_truth"
        # 3 self-paced epochs x train rows
        assert len(lines) == 1 + 3 * tr.n
        first = lines[1].split(",")
        assert int(first[0]) == 2  # first self-paced epoch
        assert int(first[1]) in tr.source_rows
        assert first[4] in ("0", "1")
