"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
The qualitative retrieval criteria (6-8) train on the seeded synthetic
benchmark below with the library's default configuration; the seed is fixed
and recorded here.
"""

import dataclasses
import time

import numpy as np
import pytest

from buffers import activations, gradients, loss_buffers
from oracles import (
    central_difference_grads,
    max_relative_error,
    naive_average_precision,
    naive_mean_average_precision,
)
from sphash import evaluator, kernels, losses
from sphash.cli import main as cli_main
from sphash.data import SynthSpec, generate_synthetic, inject_noise_subset, one_hot, split
from sphash.encoder import backward, encode, forward, init_centers, init_params
from sphash.fileio import load_checkpoint, save_checkpoint
from sphash.losses import BatchCodes, LossConfig
from sphash.pacer import PaceSchedule, SampleWeights, loss_upper_bound, refresh_weights
from sphash.seeding import stable_seed
from sphash.trainer import TrainConfig, binary_codes, train

# the recorded benchmark seed: data generation, noise injection, splits and
# training all derive from it
BENCH_SEED = 19

BENCH = dict(n=2000, k=8, m=2, dims=(64, 48), code_length=32)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def benchmark_splits(noise: float):
    spec = SynthSpec(n=BENCH["n"], k=BENCH["k"], m=BENCH["m"], dims=BENCH["dims"], seed=BENCH_SEED)
    ds = generate_synthetic(spec)
    tr, _, _ = split(ds, 0.7, 0.1, BENCH_SEED)
    ds = inject_noise_subset(ds, tr.source_rows, noise, stable_seed(BENCH_SEED, "train-noise"))
    return split(ds, 0.7, 0.1, BENCH_SEED)


def train_benchmark(noise: float, variant: str, tmp_path_factory):
    tr, va, te = benchmark_splits(noise)
    pace = PaceSchedule(gamma_start=200.0) if variant == "gamma_override" else None
    config = TrainConfig(
        code_length=BENCH["code_length"], seed=BENCH_SEED, variant=variant, pace=pace
    )
    started = time.monotonic()
    rep = train(tr, va, config)
    seconds = time.monotonic() - started
    # score the float32 weights a checkpoint holds, as eval does
    checkpoint = tmp_path_factory.mktemp(f"bench_{variant}_{noise}") / "checkpoint.bin"
    save_checkpoint(rep.best_params, rep.centers, checkpoint)
    params, _ = load_checkpoint(checkpoint)
    q = [binary_codes(params, te, m) for m in range(te.m)]
    g = [binary_codes(params, tr, m) for m in range(tr.m)]
    i2t, t2i = (
        evaluator.mean_average_precision(task)
        for task in (evaluator.RetrievalTask(q[0], te.true_labels, g[1], tr.true_labels),
                     evaluator.RetrievalTask(q[1], te.true_labels, g[0], tr.true_labels))
    )
    # row i of the history is epoch warmup + i; a best epoch in warm-up scores row 0
    at_best = rep.weights[max(rep.best_epoch - rep.config.warmup_epochs, 0)]
    auc_first = evaluator.noise_detection_score(rep.weights[0], tr.noise_mask).auc
    f1_best = evaluator.noise_detection_score(at_best, tr.noise_mask).f1
    return {
        "map": 0.5 * (i2t + t2i),
        "seconds": seconds,
        "auc_first": auc_first,
        "f1_best": f1_best,
        "report": rep,
    }


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """All benchmark runs needed by criteria 6-8, trained once."""
    runs = {}
    for variant, noise in [
        ("full", 0.2), ("full", 0.6), ("full", 0.8),
        ("no_spl", 0.2), ("no_spl", 0.6), ("no_spl", 0.8),
        ("gamma_override", 0.6),
    ]:
        runs[(variant, noise)] = train_benchmark(noise, variant, tmp_path_factory)
    return runs


def test_criterion_1_weight_solver_matches_grid_argmin():
    rng = np.random.default_rng(101)
    upper = loss_upper_bound(2, 0.5)
    grid = np.linspace(0.0, 1.0, 10**6)
    penalty = 0.5 * grid * grid - grid
    objective = np.empty_like(grid)  # reused buffer keeps the loop memory-bound
    started = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        loss = float(rng.uniform(0.0, 2.0 * upper))
        gamma = float(rng.uniform(1e-6, upper))
        np.multiply(grid, loss, out=objective)
        objective += gamma * penalty
        best_grid = grid[int(np.argmin(objective))]
        worst = max(worst, abs(refresh_weights(np.array([loss]), gamma).values[0] - best_grid))
    seconds = time.monotonic() - started
    report(
        1,
        worst < 2e-6 and seconds < 10.0,
        f"max |closed-form - grid argmin| = {worst:.2e} over 1000 pairs in {seconds:.1f}s",
    )


def test_criterion_2_per_instance_loss_bounds():
    rng = np.random.default_rng(202)
    started = time.monotonic()
    checked = 0
    bound_ok = True
    for r in (0.1, 0.5, 1.0):
        for m in (1, 2, 3):
            cfg = LossConfig(r=r)
            upper = loss_upper_bound(m, r)
            for _ in range(10):
                batch_size = 112
                scale = rng.uniform(0.5, 200.0)
                codes = [scale * rng.uniform(-1, 1, (batch_size, 8)) for _ in range(m)]
                labels = one_hot(rng.integers(0, 5, batch_size), 5)
                centers = init_centers(5, 8, seed=int(rng.integers(1 << 30)))
                values = losses.per_instance_loss(BatchCodes(np.concatenate(codes), labels),
                                                   centers, cfg)
                checked += batch_size
                bound_ok &= bool((values >= 0.0).all() and (values <= upper + 1e-9).all())
            # the bound is attained: grid over v in [0,1]^M through the library transform
            axis = np.linspace(0.0, 1.0, 101)
            grids = np.meshgrid(*([axis] * m), indexing="ij")
            grid_max = float(sum(losses.gce_terms(g, r) for g in grids).max())
            bound_ok &= abs(grid_max - upper) < 1e-6
    seconds = time.monotonic() - started
    report(
        2,
        bound_ok and checked >= 10_000 and seconds < 30.0,
        f"{checked} random losses inside [0, M(r^2-r+1)/r + 1e-9]; grid max attains the "
        f"bound within 1e-6 ({seconds:.1f}s)",
    )


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(303)
    started = time.monotonic()

    def random_case():
        b = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        length = int(rng.integers(2, 9))
        k = int(rng.integers(2, 6))
        cfg = LossConfig(
            tau=float(rng.uniform(0.3, 2.0)), r=float(rng.uniform(0.2, 1.0)),
            alpha=float(rng.uniform(0.1, 2.0)),
        )
        batch = BatchCodes(
            np.concatenate([rng.uniform(-0.95, 0.95, (b, length)) for _ in range(m)]),
            one_hot(rng.integers(0, k, b), k),
        )
        centers = init_centers(k, length, seed=int(rng.integers(1 << 30)))
        weights = SampleWeights(rng.uniform(0, 1, b), gamma=float(rng.uniform(0.2, 2.0)))
        return batch, centers, weights, cfg

    def check(fn, batch):
        _, analytic = fn(batch)
        numeric = central_difference_grads(lambda: fn(batch)[0], batch.codes, step=1e-4)
        return max_relative_error(analytic, numeric)

    def objective(parts, cfg):
        center, contrastive, grads = parts  # alpha > 0: the contrastive term is evaluated
        return center + cfg.alpha * contrastive, grads

    worst = 0.0
    for _ in range(20):
        batch, centers, weights, cfg = random_case()
        worst = max(worst, check(lambda bt: losses.chl_loss(bt, cfg, loss_buffers(bt)), batch))
        worst = max(worst, check(
            lambda bt: losses.cal_loss(bt, centers, cfg, loss_buffers(bt).grads), batch))
        worst = max(worst, check(
            lambda bt: losses.nsh_loss(bt, centers, weights, cfg, loss_buffers(bt).grads), batch))
        worst = max(
            worst,
            check(lambda bt: objective(losses.total_loss(bt, centers, weights, cfg,
                                                         loss_buffers(bt)), cfg), batch),
        )

    for trial in range(20):
        params = init_params((3,), 4, 2, seed=trial)
        mod = params.modalities[0]
        x = rng.normal(size=(5, 3))
        upstream = rng.normal(size=(5, 2))
        # the gradient vector shares the weights' layout, so the same views split it
        hidden, codes = forward(mod, x, activations(mod, x))
        grad = dataclasses.replace(
            params, flat=backward(mod, x, hidden, codes, upstream, *gradients(mod, 5)))
        g = grad.modalities[0]
        numeric = central_difference_grads(
            lambda: float((upstream * encode(mod, x, activations(mod, x))).sum()),
            [mod.w1, mod.b1, mod.w2, mod.b2],
            step=1e-4,
        )
        analytic = [g.w1, g.b1, g.w2, g.b2]
        worst = max(worst, max_relative_error(analytic, numeric))

    seconds = time.monotonic() - started
    report(
        3,
        worst < 1e-4 and seconds < 60.0,
        f"max relative gradient error {worst:.2e} over 20 instances per kernel ({seconds:.1f}s)",
    )


def test_criterion_4_probability_normalization_and_stability():
    rng = np.random.default_rng(404)
    worst_center = worst_instance = 0.0
    finite = True
    for scale in (1.0, 100.0, 625.0):  # |logit| up to 16 * 625 = 1e4 at tau = 1
        cfg = LossConfig(tau=1.0)
        codes = [scale * rng.choice([-1.0, 1.0], (6, 16)) for _ in range(2)]
        batch = BatchCodes(np.concatenate(codes), one_hot(rng.integers(0, 4, 6), 4))
        centers = init_centers(4, 16, seed=9)
        probs = losses.center_probs(np.vstack(codes), centers, cfg.tau)
        finite &= bool(np.isfinite(probs).all())
        worst_center = max(worst_center, float(np.abs(probs.sum(axis=1) - 1.0).max()))
        softmax, q, _ = losses._instance_softmax(batch, cfg, loss_buffers(batch))
        finite &= bool(np.isfinite(softmax).all() and np.isfinite(q).all())
        worst_instance = max(worst_instance, float(np.abs(softmax.sum(axis=1) - 1.0).max()))
    report(
        4,
        finite and worst_center < 1e-6 and worst_instance < 1e-6,
        f"softmax row sums off by at most {max(worst_center, worst_instance):.2e} "
        f"with |logit| up to 1e4, no NaN/Inf",
    )


def test_criterion_5_map_matches_naive_oracle():
    rng = np.random.default_rng(505)
    exact = True
    for _ in range(100):
        n_query = int(rng.integers(1, 51))
        n_gallery = int(rng.integers(1, 201))
        length = int(rng.integers(1, 17))
        k = int(rng.integers(2, 5))
        task = evaluator.RetrievalTask(
            rng.choice([-1, 1], (n_query, length)).astype(np.int8),
            one_hot(rng.integers(0, k, n_query), k),
            rng.choice([-1, 1], (n_gallery, length)).astype(np.int8),
            one_hot(rng.integers(0, k, n_gallery), k),
        )
        ours = evaluator.mean_average_precision(task)
        reference = naive_mean_average_precision(
            task.query_codes, task.query_labels, task.gallery_codes, task.gallery_labels
        )
        exact &= ours == reference
    ap_011, ap_101 = kernels.ap_scores(np.array([[0, 1, 1], [1, 0, 1]]))
    hand = (
        ap_011 == naive_average_precision([0, 1, 1])
        and abs(ap_011 - 7 / 12) < 1e-12
        and abs(ap_101 - 5 / 6) < 1e-12
    )
    report(5, exact and hand, "bit-equal with the naive oracle on 100 tasks; AP(0,1,1)=7/12, AP(1,0,1)=5/6")


def test_criterion_6_noise_separation(bench):
    run = bench[("full", 0.6)]
    ok = run["auc_first"] >= 0.8 and run["f1_best"] >= 0.7 and run["seconds"] < 300.0
    report(
        6,
        ok,
        f"weight/mask AUC {run['auc_first']:.3f} after first self-paced epoch, "
        f"zero-weight F1 {run['f1_best']:.3f} at best epoch, run took {run['seconds']:.0f}s",
    )


def test_monitored_retained_loss_trend(bench):
    """Monitored, not gating: mean loss over retained instances should not
    rise across 5-epoch windows once self-pacing starts."""
    report = bench[("full", 0.6)]["report"]
    means = [
        float(losses[weights > 0].mean())
        for losses, weights in zip(report.instance_losses, report.weights)
        if (weights > 0).any()
    ]
    violations = [
        (i, means[i], means[i + 5])
        for i in range(len(means) - 5)
        if means[i + 5] > means[i] + 1e-9
    ]
    if violations:
        worst = max(violations, key=lambda v: v[2] - v[1])
        print(
            f"[monitor] WARNING: retained-instance mean loss rose across a 5-epoch window "
            f"(epoch offset {worst[0]}: {worst[1]:.6f} -> {worst[2]:.6f})"
        )
    else:
        print("[monitor] retained-instance mean loss non-increasing across all 5-epoch windows")


def test_criterion_7_ablation_ordering(bench):
    full06 = bench[("full", 0.6)]["map"]
    no_spl06 = bench[("no_spl", 0.6)]["map"]
    go06 = bench[("gamma_override", 0.6)]["map"]
    full02 = bench[("full", 0.2)]["map"]
    ok = (
        full06 - no_spl06 >= 0.05
        and full06 - go06 >= 0.05
        and full02 >= 0.85
    )
    report(
        7,
        ok,
        f"MAP@0.6 full {full06:.4f} vs no_spl {no_spl06:.4f} vs gamma_override {go06:.4f}; "
        f"full MAP@0.2 {full02:.4f}",
    )


def test_criterion_8_robustness_curve(bench):
    full02 = bench[("full", 0.2)]["map"]
    full08 = bench[("full", 0.8)]["map"]
    nospl02 = bench[("no_spl", 0.2)]["map"]
    nospl08 = bench[("no_spl", 0.8)]["map"]
    full_drop = (full02 - full08) / full02
    nospl_drop = (nospl02 - nospl08) / nospl02
    ok = full_drop < 0.15 and nospl_drop > 0.25
    report(
        8,
        ok,
        f"full degrades {full_drop:.1%} from MAP {full02:.4f} to {full08:.4f}; "
        f"no_spl degrades {nospl_drop:.1%}",
    )


def test_criterion_9_sweep_determinism(tmp_path):
    argv = [
        "sweep", "--noise-rates", "0.2,0.6", "--bits", "16", "--variants", "full,no_spl",
        "--n", "120", "--k", "4", "--m", "2", "--dims", "10,8",
        "--hidden", "16", "--batch-size", "16", "--warmup", "1", "--epochs", "4",
        "--seed", "13",
    ]
    assert cli_main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a/aggregate.csv").read_bytes()
    second = (tmp_path / "b/aggregate.csv").read_bytes()
    report(9, first == second, "two complete sweep runs produced byte-identical aggregate CSVs")
