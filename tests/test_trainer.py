import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from buffers import step_buffers, update_scratch
from memory import traced_peak
from oracles import NestedOptimizer, encode_reference
import sphash.encoder as encoder_module
import sphash.fileio as fileio
import sphash.losses as losses_module
import sphash.trainer as trainer_module
from sphash.data import MultiModalDataset, SynthSpec, generate_synthetic, inject_noise_subset, split
from sphash.encoder import init_centers, init_params
from sphash.errors import ParameterError, TrainingDivergedError
from sphash.evaluator import RetrievalTask, mean_average_precision
from sphash.fileio import WEIGHT_LOG_COLUMNS, read_weight_log, save_checkpoint, write_csv
from sphash.losses import BatchCodes, LossConfig, per_instance_loss
from sphash.pacer import PaceSchedule, SampleWeights, refresh_weights
from sphash.seeding import stable_seed
from sphash.trainer import (
    SELFPACED,
    WARMUP,
    TrainConfig,
    TrainReport,
    _OptimizerState,
    _full_train_losses,
    _Workspace,
    binary_codes,
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


def random_dataset(rng, n, dims=(64, 48), k=8):
    """n float32 rows per modality, one class per row, no noise."""
    labels = np.eye(k, dtype=np.uint8)[rng.integers(0, k, n)]
    features = [rng.normal(size=(n, d)).astype(np.float32) for d in dims]
    return MultiModalDataset(features, labels, labels.copy(), 0)


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

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            tiny_config(variant="half_spl")

    def test_resolve_materializes_default_gamma(self):
        cfg = resolve_config(tiny_config(), n_modalities=2)
        assert cfg.pace is not None
        assert cfg.pace.gamma_start == pytest.approx(1.5)  # half of M(r^2-r+1)/r at M=2, r=0.5

    def test_resolve_applies_variant_forcings(self):
        assert resolve_config(tiny_config(variant="no_chl"), 2).loss.alpha == 0.0
        assert resolve_config(tiny_config(variant="no_warmup"), 2).warmup_epochs == 0

    def test_gamma_override_defaults_to_200(self):
        cfg = resolve_config(tiny_config(variant="gamma_override"), 2)
        assert cfg.pace == PaceSchedule(gamma_start=200.0)
        # an explicit pace wins, and is not held to the admissible interval
        cfg = resolve_config(
            tiny_config(variant="gamma_override", pace=PaceSchedule(gamma_start=50.0)), 2
        )
        assert cfg.pace.gamma_start == 50.0

    def test_out_of_bounds_schedule_rejected_for_normal_variants(self):
        with pytest.raises(ParameterError):
            resolve_config(tiny_config(pace=PaceSchedule(gamma_start=3.0)), 2)


class TestOptimizer:
    def test_flat_update_matches_nested_reference(self):
        params = init_params((7, 4), hidden_dim=6, code_length=5, seed=11)
        nested = [[a.copy() for a in (m.w1, m.b1, m.w2, m.b2)] for m in params.modalities]
        flat_opt, ref_opt = _OptimizerState(params), NestedOptimizer(nested)
        rng = np.random.default_rng(12)
        for _ in range(25):
            grad = rng.normal(size=params.flat.shape) * rng.uniform(0.01, 10.0)
            assert grad.all()
            flat_opt.apply(params, grad, 0.05, update_scratch(params))
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
        opt = _OptimizerState(params)
        before = params.flat.copy()
        step(params, centers, *step_buffers(params, x), y, None, cfg, opt)
        assert np.array_equal(before, params.flat)

    def test_identical_states_give_identical_updates(self):
        params1, centers, x, y = step_inputs()
        params2 = copy.deepcopy(params1)
        cfg = tiny_config()
        opt1 = _OptimizerState(params1)
        opt2 = _OptimizerState(params2)
        r1 = step(params1, centers, *step_buffers(params1, x), y, None, cfg, opt1)
        r2 = step(params2, centers, *step_buffers(params2, x), y, None, cfg, opt2)
        assert r1 == r2
        assert params1.flat.tobytes() == params2.flat.tobytes()

    def test_all_zero_weights_and_no_contrast_give_zero_gradient(self):
        params, centers, x, y = step_inputs()
        cfg = tiny_config(loss=LossConfig(alpha=0.0))
        weights = SampleWeights(np.zeros(x[0].shape[0]), gamma=1.0)
        workspace, views = step_buffers(params, x)
        before = params.flat.copy()
        step(params, centers, workspace, views, y, weights, cfg, _OptimizerState(params))
        assert not workspace.grad.any()
        assert np.array_equal(before, params.flat)  # Adam's first step on a zero gradient

    def test_zero_weight_instance_contributes_no_data_gradient(self):
        # batch-mean gradients scaled by batch size must coincide with the instance dropped
        params, centers, x, y = step_inputs(batch_size=6)
        cfg = tiny_config(loss=LossConfig(alpha=0.0))
        w_full = SampleWeights(np.array([0.0, 0.7, 1.0, 0.2, 0.5, 0.9]), gamma=1.0)
        w_drop = SampleWeights(w_full.values[1:], gamma=1.0)
        grads = []
        for batch_x, batch_y, weights in ((x, y, w_full), ([xm[1:] for xm in x], y[1:], w_drop)):
            own = copy.deepcopy(params)  # step updates its params after the gradient
            workspace, views = step_buffers(own, batch_x)
            step(own, centers, workspace, views, batch_y, weights, cfg, _OptimizerState(own))
            grads.append(workspace.grad.copy())
        # regularizer is weight-only, so the gradients are pure data gradients
        assert grads[0].any()
        assert np.allclose(grads[0] * 6, grads[1] * 5, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_raises_with_context(self):
        params, centers, x, y = step_inputs()
        params.modalities[0].w1[:] = np.inf
        cfg = tiny_config()
        with pytest.raises(TrainingDivergedError, match="epoch 4, batch 2"):
            step(params, centers, *step_buffers(params, x), y, None, cfg, _OptimizerState(params),
                 epoch=4, batch_index=2)

    def test_warm_step_allocates_under_128_kib(self):
        # every (B, hidden), (B, L), (2B, 2B) and flat-weight array lives in the workspace;
        # what is left are (B, K) and (2B,) vectors and numpy's own 64 KiB iterator
        # buffer for a broadcasting ufunc
        rng = np.random.default_rng(8)
        params = init_params((64, 48), hidden_dim=256, code_length=128, seed=8)
        centers = init_centers(8, 128, seed=8)
        x = [rng.normal(size=(128, 64)), rng.normal(size=(128, 48))]
        y = np.eye(8, dtype=np.uint8)[rng.integers(0, 8, 128)]
        weights = SampleWeights(rng.uniform(0, 1, 128), gamma=1.0)
        cfg = resolve_config(TrainConfig(code_length=128, hidden_dim=256, batch_size=128), 2)
        opt, (workspace, views) = _OptimizerState(params), step_buffers(params, x)
        step(params, centers, workspace, views, y, weights, cfg, opt)
        peak = traced_peak(lambda: step(params, centers, workspace, views, y, weights, cfg, opt))
        assert peak < 128 * 1024

    def test_shorter_batch_reuses_the_workspace_bit_for_bit(self):
        params1, centers, x, y = step_inputs(batch_size=5)
        params2 = copy.deepcopy(params1)
        cfg = tiny_config()
        step(params1, centers, *step_buffers(params1, x, capacity=9), y, None, cfg,
             _OptimizerState(params1))
        step(params2, centers, *step_buffers(params2, x), y, None, cfg,
             _OptimizerState(params2))
        assert params1.flat.tobytes() == params2.flat.tobytes()


@pytest.mark.parametrize("function, names", [
    (encoder_module.forward, ("out",)),
    (encoder_module.encode, ("out",)),
    (encoder_module.backward, ("out", "scratch")),
    (losses_module._instance_softmax, ("buffers",)),
    (losses_module.chl_loss, ("buffers",)),
    (losses_module.total_loss, ("buffers",)),
    (losses_module._weighted_center_loss, ("out",)),
    (losses_module.cal_loss, ("out",)),
    (losses_module.nsh_loss, ("out",)),
    (step, ("workspace",)),
    (_full_train_losses, ("workspace", "out")),
    (_OptimizerState.apply, ("scratch",)),
])
def test_training_path_buffers_are_required(function, names):
    # one code path per function: no buffer may default to a fresh allocation
    parameters = inspect.signature(function).parameters
    for name in names:
        assert parameters[name].default is inspect.Parameter.empty, f"{function.__name__}({name})"


def test_diverged_error_survives_pickle_and_copy():
    err = TrainingDivergedError("non-finite loss at epoch 3, batch 7")
    for clone in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
        assert type(clone) is TrainingDivergedError
        assert str(clone) == str(err)


class TestRefresh:
    @pytest.mark.parametrize("bits", [32, 128])
    def test_losses_equal_chunked_encode_oracle_bit_for_bit(self, bits):
        # 1100 rows: one full 1024-row chunk and a 76-row tail
        rng = np.random.default_rng(bits)
        params = init_params((64, 48), hidden_dim=64, code_length=bits, seed=bits)
        params.flat *= 3.0  # codes away from zero, so the loss varies per row
        centers = init_centers(8, bits, seed=bits)
        x_all = [rng.normal(size=(1100, 64)), rng.normal(size=(1100, 48))]
        labels = np.eye(8, dtype=np.uint8)[rng.integers(0, 8, 1100)]
        cfg = LossConfig()
        expected = np.concatenate([
            per_instance_loss(
                BatchCodes(np.concatenate([encode_reference(mod, x[start:start + 1024])
                                           for mod, x in zip(params.modalities, x_all)]),
                           labels[start:start + 1024]),
                centers, cfg)
            for start in (0, 1024)
        ])
        got = _full_train_losses(params, centers, x_all, labels, cfg, epoch=0,
                                 workspace=_Workspace(params, 128, 1024), out=np.empty(1100))
        assert got.tobytes() == expected.tobytes()
        assert np.unique(got).size > 1000


class TestValidation:
    @pytest.mark.parametrize("bits", [32, 128])
    def test_workspace_codes_equal_fresh_codes_bit_for_bit(self, bits):
        # 1100 rows: one full 1024-row chunk and a 76-row tail
        rng = np.random.default_rng(bits)
        params = init_params((64, 48), hidden_dim=64, code_length=bits, seed=bits)
        params.flat *= 3.0
        ds = random_dataset(rng, 1100)
        hidden, codes = _Workspace(params, 16, 1024).refresh_views(1024)
        got = [binary_codes(params, ds, m, (hidden, codes[:1024])) for m in range(ds.m)]
        for mod, x, mine, fresh in zip(params.modalities, ds.modalities, got,
                                       [binary_codes(params, ds, m) for m in range(ds.m)]):
            expected = np.concatenate([np.where(encode_reference(mod, x[start:start + 1024]) >= 0,
                                                1, -1) for start in (0, 1024)]).astype(np.int8)
            assert mine.tobytes() == fresh.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bits", [32, 128])
    def test_validation_split_larger_than_the_training_split(self, bits):
        ds = generate_synthetic(SynthSpec(n=200, k=3, m=2, dims=(6, 5), seed=2))
        tr, va, _ = split(ds, 0.2, 0.5, 2)
        assert va.n > tr.n
        report = train(tr, va, tiny_config(code_length=bits, warmup_epochs=0, max_epochs=1))
        codes = [binary_codes(report.best_params, va, m) for m in range(va.m)]  # no workspace
        # I2T: modality-0 queries against the modality-1 gallery; T2I the reverse
        i2t = RetrievalTask(codes[0], va.labels, codes[1], va.labels)
        t2i = RetrievalTask(codes[1], va.labels, codes[0], va.labels)
        record = report.records[0]
        assert (record.val_map_i2t, record.val_map_t2i) == (
            mean_average_precision(i2t), mean_average_precision(t2i))

    def test_train_peaks_below_a_float64_copy_of_the_split(self):
        # 20,000 x (64 + 48) float32 features: a float64 copy of them alone is 17.9 MB
        rng = np.random.default_rng(9)
        tr, va = random_dataset(rng, 20_000), random_dataset(rng, 200)
        cfg = TrainConfig(code_length=8, hidden_dim=16, warmup_epochs=0, max_epochs=1, seed=9)
        assert traced_peak(lambda: train(tr, va, cfg)) < 20_000 * (64 + 48) * 8


def with_third_modality(ds):
    return dataclasses.replace(ds, modalities=[*ds.modalities, ds.modalities[0].copy()])


def with_wider_first_modality(ds):
    first = np.random.default_rng(0).normal(size=(ds.n, 7)).astype(np.float32)
    return dataclasses.replace(ds, modalities=[first, *ds.modalities[1:]])


def with_nan_feature(ds):
    first = ds.modalities[0].copy()
    first[1, 2] = np.nan
    return dataclasses.replace(ds, modalities=[first, *ds.modalities[1:]])


def with_extra_class(ds):
    pad = ((0, 0), (0, 1))
    return dataclasses.replace(ds, labels=np.pad(ds.labels, pad),
                               true_labels=np.pad(ds.true_labels, pad))


class TestSplitChecks:
    """train rejects the splits read_dataset rejects, before it allocates or steps."""

    @pytest.mark.parametrize("make_train, make_val, message", [
        (with_third_modality, with_third_modality, "exactly 2 modalities, got 3"),
        (lambda ds: ds, with_third_modality, "exactly 2 modalities, got 3"),
        (lambda ds: ds, with_wider_first_modality, r"validation split has dims \(7, 5\)"),
        (with_nan_feature, lambda ds: ds, "modality 0 contains non-finite values"),
        (lambda ds: ds, with_extra_class, "and 4 classes, training split"),
    ])
    def test_rejected_before_the_first_step(self, monkeypatch, make_train, make_val, message):
        def refuse(*args, **kwargs):
            raise AssertionError("train reached its first allocation or step")

        monkeypatch.setattr(trainer_module, "init_params", refuse)
        monkeypatch.setattr(trainer_module, "step", refuse)
        tr, va, _ = tiny_splits()
        with pytest.raises(ParameterError, match=message):
            train(make_train(tr), make_val(va), tiny_config())


class TestTrainLoop:
    def test_phase_switch_exactly_at_warmup(self):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config())
        phases = [rec.phase for rec in report.records]
        assert phases == [WARMUP] * 2 + [SELFPACED] * 3
        for rec in report.records:
            if rec.phase == WARMUP:
                assert rec.gamma is None and rec.zero_weight_count is None
            else:
                assert rec.gamma is not None and rec.zero_weight_count is not None

    def test_history_row_i_is_epoch_warmup_plus_i(self):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config())
        assert report.instance_losses.shape == report.weights.shape == (3, tr.n)
        for rec, losses, weights in zip(report.records[2:], report.instance_losses, report.weights):
            assert (refresh_weights(losses, rec.gamma).values == weights).all()
            assert rec.zero_weight_count == (weights == 0).sum()

    def test_deterministic_reports_and_checkpoints(self, tmp_path):
        tr, va, _ = tiny_splits()
        r1 = train(tr, va, tiny_config())
        r2 = train(tr, va, tiny_config())
        assert r1.records == r2.records
        assert r1.best_epoch == r2.best_epoch
        for name, report in (("a.bin", r1), ("b.bin", r2)):
            save_checkpoint(report.best_params, report.centers, tmp_path / name)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_train_writes_no_file(self, monkeypatch):
        def refuse(path, chunks):
            raise AssertionError(f"train wrote {path}")

        monkeypatch.setattr(fileio, "atomic_write", refuse)
        tr, va, _ = tiny_splits()
        assert train(tr, va, tiny_config()).best_epoch >= 0

    def test_no_spl_variant_keeps_unit_weights(self):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(variant="no_spl"))
        for rec in report.records:
            if rec.phase == SELFPACED:
                assert rec.zero_weight_count == 0
        assert (report.weights == 1.0).all()

    def test_no_chl_variant_never_evaluates_contrastive(self):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(variant="no_chl"))
        assert all(rec.loss_contrastive is None for rec in report.records)

    def test_no_warmup_variant_starts_selfpaced(self):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(variant="no_warmup"))
        assert report.records[0].phase == SELFPACED

    def test_gamma_override_admits_everyone(self):
        tr, va, _ = tiny_splits()
        cfg = tiny_config(variant="gamma_override", pace=PaceSchedule(gamma_start=200.0))
        report = train(tr, va, cfg)
        assert (report.weights > 0.9).all()
        for rec in report.records:
            if rec.phase == SELFPACED:
                assert rec.zero_weight_count == 0

    def test_binarize_weights_variant(self):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(variant="binarize_weights"))
        gammas = [rec.gamma for rec in report.records[2:]]
        for losses, weights, gamma in zip(report.instance_losses, report.weights, gammas):
            admitted = refresh_weights(losses, gamma).values > 0
            assert weights.tolist() == np.where(admitted, 1.0, 0.0).tolist()

    def test_best_params_are_the_weights_validated_at_best_epoch(self, monkeypatch):
        validated = []  # params.flat at each validation, in epoch order
        real = trainer_module._validation_map

        def recording(params, val_ds, clean_val, workspace):
            validated.append(params.flat.copy())
            return real(params, val_ds, clean_val, workspace)

        monkeypatch.setattr(trainer_module, "_validation_map", recording)
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config(max_epochs=8, learning_rate=1e-2))
        assert len(validated) == 8
        assert report.best_epoch == 2  # here validation MAP peaks early, then the weights move on
        assert validated[2].tobytes() == report.best_params.flat.tobytes()
        assert (validated[2] != validated[-1]).any()
        assert report.best_params.dims == tr.dims
        assert (report.centers == init_centers(3, 8, seed=3)).all()
        records = [rec for rec in report.records if rec.epoch == report.best_epoch]
        assert report.best_val_map == 0.5 * (records[0].val_map_i2t + records[0].val_map_t2i)

    def test_linear_ramp_gamma_recorded(self):
        tr, va, _ = tiny_splits()
        cfg = tiny_config(
            pace=PaceSchedule(gamma_start=0.5, gamma_end=1.0, ramp_epochs=2)
        )
        report = train(tr, va, cfg)
        gammas = [rec.gamma for rec in report.records if rec.phase == SELFPACED]
        assert gammas == [0.5, 0.75, 1.0]


class TestReportFiles:
    def test_report_csv_shape(self, tmp_path):
        tr, va, _ = tiny_splits()
        report = train(tr, va, tiny_config())
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
        report = train(tr, va, tiny_config())
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

    def test_weight_log_csv_follows_the_csv_rule_and_round_trips(self, tmp_path):
        tr, _, _ = tiny_splits()
        edges = [0.0, 1.0, 2.5e-7, 0.1234565, 0.9999995, 5e-7, 1.5e-6, 0.5]
        losses = [0.0, 999.9999995, 1e3, 998.1234565, 2.5e-7, 0.1234565, 1.0, 3.0]
        epochs = (2, 3, 4)  # tiny_config's warm-up is 2 of 5 epochs
        history = [np.array([np.resize(np.roll(values, epoch), tr.n) for epoch in epochs])
                   for values in (losses, edges)]
        params, centers, _, _ = step_inputs()
        report = TrainReport(tiny_config(), [], *history, 0, 0.0, params, centers)
        path, reference = tmp_path / "weights.csv", tmp_path / "reference.csv"
        write_weight_log_csv(report, tr, path)
        write_csv(reference, WEIGHT_LOG_COLUMNS, [
            (epoch, int(row), float(loss), float(weight), int(noisy))
            for epoch, epoch_losses, epoch_weights in zip(epochs, *history)
            for row, loss, weight, noisy in zip(tr.source_rows, epoch_losses, epoch_weights,
                                                tr.noise_mask)
        ])
        assert path.read_bytes() == reference.read_bytes()

        idx, weights, noisy = read_weight_log(path)
        assert idx.tolist() == tr.source_rows.tolist()
        assert weights.tolist() == [float(f"{w:.6f}") for w in report.weights[-1].tolist()]
        assert noisy.tolist() == tr.noise_mask.astype(int).tolist()
