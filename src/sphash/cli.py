"""Command-line surface.

Subcommands:
  gen-data   synthesize a multi-modal dataset, corrupt the train split's
             labels at a chosen rate, and write it to a directory
  train      fit hash encoders on a dataset directory
  eval       score a checkpoint on the test split (MAP, PR curves, noise
             detection against the stored mask)
  sweep      train+eval over a noise-rate x bits x variant grid and
             aggregate one table

Every command writes a run_manifest.json capturing the fully resolved
configuration, the seed, and the artifact paths; re-running a command with
the manifest's argv reproduces every artifact byte for byte (the manifest
itself records wall-clock time, so compare the artifacts, not the manifest).

Exit codes: 0 success, 2 usage error, 3 I/O or file-format error,
4 numerical divergence during training, 5 checkpoint/dataset mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, evaluator, trainer
from .data import MultiModalDataset, SynthSpec, generate_synthetic, inject_noise_subset, split
from .errors import (
    CompatibilityError,
    FormatError,
    ParameterError,
    SphashError,
    TrainingDivergedError,
)
from .fileio import load_checkpoint, read_dataset, write_csv, write_dataset, write_json
from .losses import LossConfig
from .pacer import PaceSchedule
from .seeding import stable_seed

_DEFAULT_TRAIN_FRAC = 0.7
_DEFAULT_VAL_FRAC = 0.1
_GAMMA_OVERRIDE_DEFAULT = 200.0


def _list_of(kind):
    """Parser for comma-separated text (or a JSON list) into a list of ``kind``."""

    def parse(value) -> list:
        if not isinstance(value, (list, tuple)):
            value = [v for v in str(value).split(",") if v]
        return [kind(v) for v in value]

    parse.__name__ = f"{kind.__name__} list"  # named in argparse's error messages
    return parse


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--config",
        help="JSON file supplying defaults for any flag of this command; "
        "flags given on the command line win",
    )


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=2000, help="instance count (default 2000)")
    p.add_argument("--k", type=int, default=8, help="class count (default 8)")
    p.add_argument("--m", type=int, default=2, help="modality count; must be 2 (default 2)")
    p.add_argument(
        "--dims", type=_list_of(int), default=[64, 48],
        help="comma-separated feature dims, one per modality (default 64,48)",
    )
    p.add_argument(
        "--class-separation", type=float, default=5.5,
        help="minimum distance between class latents (default 5.5)",
    )
    p.add_argument(
        "--intra-noise-std", type=float, default=0.7,
        help="std of the per-instance latent perturbation (default 0.7)",
    )
    p.add_argument(
        "--train-frac", type=float, default=_DEFAULT_TRAIN_FRAC,
        help=f"training fraction of the split (default {_DEFAULT_TRAIN_FRAC})",
    )
    p.add_argument(
        "--val-frac", type=float, default=_DEFAULT_VAL_FRAC,
        help=f"validation fraction of the split (default {_DEFAULT_VAL_FRAC})",
    )


def _add_train_flags(p: argparse.ArgumentParser, bits_as_grid: bool = False) -> None:
    if bits_as_grid:
        p.add_argument(
            "--bits", type=_list_of(int), default=[16, 32, 64, 128],
            help="comma-separated code lengths (default 16,32,64,128)",
        )
    else:
        p.add_argument(
            "--bits", type=int, default=32,
            help="hash code length; typical settings are 16, 32, 64 or 128 (default 32)",
        )
    p.add_argument("--hidden", type=int, default=256, help="encoder hidden width (default 256)")
    p.add_argument("--batch-size", type=int, default=128, help="mini-batch size (default 128)")
    p.add_argument("--warmup", type=int, default=5, help="warm-up epochs before self-pacing (default 5)")
    p.add_argument("--epochs", type=int, default=200, help="total training epochs (default 200)")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate (default 1e-3)")
    p.add_argument(
        "--optimizer", choices=trainer.OPTIMIZERS, default="adaptive_moments",
        help="parameter update rule (default adaptive_moments)",
    )
    p.add_argument("--tau", type=float, default=1.0, help="softmax temperature (default 1.0)")
    p.add_argument(
        "--r", type=float, default=0.5,
        help="robustness factor in (0,1]; 1 behaves like 1-p, small r like -ln p (default 0.5)",
    )
    p.add_argument(
        "--alpha", type=float, default=0.002,
        help="weight of the contrastive term in the objective (default 0.002)",
    )
    p.add_argument(
        "--gamma", type=float, default=None,
        help="fixed pace parameter; default is half the per-instance loss upper bound",
    )
    p.add_argument(
        "--gamma-ramp", default=None, metavar="START:END:EPOCHS",
        help="linear pace ramp over the self-paced phase, overrides --gamma",
    )
    p.add_argument(
        "--variant", choices=trainer.VARIANTS, default="full",
        help="ablation/robustness variant (default full)",
    )
    p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    p.add_argument(
        "--eval-every", type=int, default=1,
        help="validation cadence in epochs (default 1)",
    )
    p.add_argument(
        "--clean-val", action="store_true",
        help="use ground-truth labels for validation relevance (diagnostic)",
    )


def _build_pace(args) -> PaceSchedule | None:
    if args.gamma_ramp:
        parts = str(args.gamma_ramp).split(":")
        if len(parts) != 3:
            raise ParameterError(f"--gamma-ramp must be START:END:EPOCHS, got {args.gamma_ramp!r}")
        return PaceSchedule(
            mode="linear_ramp",
            gamma_start=float(parts[0]),
            gamma_end=float(parts[1]),
            ramp_epochs=int(parts[2]),
        )
    gamma = args.gamma
    if gamma is None and args.variant == "gamma_override":
        gamma = _GAMMA_OVERRIDE_DEFAULT
    if gamma is not None:
        return PaceSchedule(mode="fixed", gamma_start=float(gamma))
    return None


def _train_config(args) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        code_length=args.bits,
        hidden_dim=args.hidden,
        batch_size=args.batch_size,
        warmup_epochs=args.warmup,
        max_epochs=args.epochs,
        learning_rate=args.lr,
        optimizer=args.optimizer,
        loss=LossConfig(tau=args.tau, r=args.r, alpha=args.alpha),
        pace=_build_pace(args),
        seed=args.seed,
        variant=args.variant,
        eval_every=args.eval_every,
        clean_val=args.clean_val,
    )


def _write_run_manifest(out_dir: Path, command: str, config: dict, seed: int,
                        artifacts: list, started: float, argv) -> None:
    manifest = {
        "command": command,
        "argv": list(argv),
        "config": config,
        "seed": int(seed),
        "artifacts": sorted(str(a) for a in artifacts),
        "tool_version": __version__,
        "duration_seconds": round(time.time() - started, 3),
    }
    write_json(out_dir / "run_manifest.json", manifest)


def _load_splits(manifest: dict, dataset: MultiModalDataset):
    spec = manifest.get("split", {})
    return split(
        dataset,
        float(spec.get("train_frac", _DEFAULT_TRAIN_FRAC)),
        float(spec.get("val_frac", _DEFAULT_VAL_FRAC)),
        int(spec.get("seed", dataset.seed)),
    )


def _write_synthetic(args, seed: int, noise_rate: float, out: Path):
    """Synthesize a dataset, corrupt its train split's labels and write it to out.

    Returns (spec, manifest path).
    """
    spec = SynthSpec(
        n=args.n, k=args.k, m=args.m, dims=tuple(args.dims),
        class_separation=args.class_separation, intra_noise_std=args.intra_noise_std,
        seed=seed,
    )
    dataset = generate_synthetic(spec)
    train_ds, _, _ = split(dataset, args.train_frac, args.val_frac, seed)
    noised = inject_noise_subset(
        dataset, train_ds.source_rows, noise_rate, stable_seed(seed, "train-noise")
    )
    split_spec = {"train_frac": args.train_frac, "val_frac": args.val_frac, "seed": seed}
    return spec, write_dataset(noised, out, split_spec=split_spec)


def cmd_gen_data(args) -> int:
    started = time.time()
    if not 0.0 <= args.noise_rate <= 1.0:
        raise ParameterError(f"--noise-rate {args.noise_rate} outside [0, 1]")
    out = Path(args.out)
    spec, manifest_path = _write_synthetic(args, args.seed, args.noise_rate, out)
    artifacts = sorted(p.name for p in out.iterdir() if p.suffix in (".fmat", ".lmat"))
    artifacts.append(manifest_path.name)
    config = {"synth": spec, "noise_rate": args.noise_rate}
    _write_run_manifest(out, "gen-data", config, args.seed, artifacts, started, args.argv)
    print(f"wrote dataset with {spec.n} instances to {out}")
    return 0


def _run_training(dataset, manifest: dict, config: trainer.TrainConfig, out: Path):
    train_ds, val_ds, test_ds = _load_splits(manifest, dataset)
    report = trainer.train(train_ds, val_ds, config, out)
    trainer.write_report_csv(report, out / "report.csv")
    write_csv(
        out / "map_curve.csv",
        ("epoch", "map_i2t", "map_t2i"),
        [
            (rec.epoch, rec.val_map_i2t, rec.val_map_t2i)
            for rec in report.records
            if rec.val_map_i2t is not None
        ],
    )
    trainer.write_weight_log_csv(report, train_ds, out / "weights.csv")
    return report, (train_ds, val_ds, test_ds)


def cmd_train(args) -> int:
    started = time.time()
    dataset, manifest = read_dataset(Path(args.data))
    config = _train_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report, _ = _run_training(dataset, manifest, config, out)
    artifacts = ["checkpoint.bin", "report.csv", "map_curve.csv", "weights.csv"]
    _write_run_manifest(out, "train", {"train": report.config, "data": str(args.data)},
                        args.seed, artifacts, started, args.argv)
    print(
        f"best epoch {report.best_epoch} with validation MAP {report.best_val_map:.4f}; "
        f"checkpoint at {report.checkpoint_path}"
    )
    return 0


def _final_weight_dump(weights_csv: Path, n_instances: int):
    """Weights of the last dumped epoch: (instance_index array, weight array).

    None when the dump has no rows. A file that does not parse as a weight
    dump raises FormatError; an index outside the dataset's n_instances
    raises CompatibilityError.
    """
    try:
        with open(weights_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            return None
        epochs = [int(row["epoch"]) for row in rows]
        last_epoch = max(epochs)
        final = [row for row, epoch in zip(rows, epochs) if epoch == last_epoch]
        idx = np.array([int(row["instance_index"]) for row in final])
        weights = np.array([float(row["weight"]) for row in final])
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        raise FormatError(f"{weights_csv}: not a weight dump ({exc!r})") from exc
    if not np.all((weights >= 0.0) & (weights <= 1.0)):
        raise FormatError(f"{weights_csv}: weight outside [0, 1]")
    if idx.min() < 0 or idx.max() >= n_instances:
        raise CompatibilityError(
            f"{weights_csv}: instance index outside the dataset's {n_instances} instances"
        )
    return idx, weights


def _test_split_tasks(params, train_ds, test_ds):
    """I2T and T2I: test-split queries against the train-split gallery, true labels."""
    return evaluator.cross_modal_tasks(
        trainer.binary_codes(params, test_ds), test_ds.true_labels,
        trainer.binary_codes(params, train_ds), train_ds.true_labels,
    )


def _write_retrieval_scores(params, train_ds, test_ds, out: Path, pr_points: int) -> list[str]:
    """Write map.csv and one PR curve per direction; returns the artifact names."""
    artifacts, map_rows = [], []
    for task in _test_split_tasks(params, train_ds, test_ds):
        direction = task.direction.lower()
        score = evaluator.mean_average_precision(task)
        map_rows.append((direction, score))
        print(f"map_{direction} {score:.4f}")
        points = evaluator.pr_curve(task, pr_points)
        pr_rows = [(p.x, p.y) for p in points]
        write_csv(out / f"pr_{direction}.csv", ("recall", "precision"), pr_rows)
        artifacts.append(f"pr_{direction}.csv")
    write_csv(out / "map.csv", ("direction", "map"), map_rows)
    return artifacts + ["map.csv"]


def cmd_eval(args) -> int:
    started = time.time()
    params, centers = load_checkpoint(Path(args.checkpoint))
    dataset, manifest = read_dataset(Path(args.data))
    if params.dims != dataset.dims:
        raise CompatibilityError(
            f"checkpoint expects feature dims {params.dims}, dataset has {dataset.dims}"
        )
    if centers.shape[0] != dataset.class_count:
        raise CompatibilityError(
            f"checkpoint has {centers.shape[0]} centers, dataset has "
            f"{dataset.class_count} classes"
        )

    train_ds, _, test_ds = _load_splits(manifest, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # scored in a callee so the tasks' cached rankings are freed before the weights.csv parse
    artifacts = _write_retrieval_scores(params, train_ds, test_ds, out, args.pr_points)

    weights_csv = Path(args.weights) if args.weights else None
    if weights_csv and not weights_csv.exists():
        raise FileNotFoundError(f"weight dump {weights_csv} does not exist")
    if weights_csv and dataset.noise_mask.any():
        dump = _final_weight_dump(weights_csv, dataset.n)
        if dump is not None:
            idx, weights = dump
            score = evaluator.noise_detection_score(weights, dataset.noise_mask[idx])
            write_json(out / "noise_detection.json", score)
            histogram = evaluator.weight_density(weights, bins=20)
            edges = histogram.edges.tolist()
            write_csv(
                out / "weights_histogram.csv",
                ("bin_left", "bin_right", "density"),
                zip(edges[:-1], edges[1:], histogram.masses.tolist()),
            )
            artifacts += ["noise_detection.json", "weights_histogram.csv"]

    _write_run_manifest(
        out, "eval",
        {"checkpoint": str(args.checkpoint), "data": str(args.data), "pr_points": args.pr_points},
        dataset.seed, artifacts, started, args.argv,
    )
    return 0


def cmd_sweep(args) -> int:
    started = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cells = {}
    failed = False
    for noise in args.noise_rates:
        for bits in args.bits:
            for variant in args.variants:
                cell_seed = stable_seed(args.seed, noise, bits, variant)
                cell_dir = out / "cells" / f"n{noise}_b{bits}_{variant}"
                try:
                    cells[(noise, bits, variant)] = _run_cell(
                        args, noise, bits, variant, cell_seed, cell_dir
                    )
                except (SphashError, OSError) as exc:  # a broken cell must not sink the grid
                    print(f"cell n={noise} bits={bits} {variant} failed: {exc}", file=sys.stderr)
                    cells[(noise, bits, variant)] = None
                    failed = True

    columns = ["variant"]
    for noise in args.noise_rates:
        for bits in args.bits:
            columns += [f"i2t_n{noise}_b{bits}", f"t2i_n{noise}_b{bits}"]
    rows = []
    for variant in args.variants:
        row = [variant]
        for noise in args.noise_rates:
            for bits in args.bits:
                cell = cells[(noise, bits, variant)]
                row += ["error", "error"] if cell is None else list(cell)
        rows.append(row)
    write_csv(out / "aggregate.csv", columns, rows)

    grid = {
        "noise_rates": args.noise_rates,
        "bits": args.bits,
        "variants": args.variants,
        "epochs": args.epochs,
        "n": args.n,
    }
    _write_run_manifest(out, "sweep", grid, args.seed, ["aggregate.csv"], started, args.argv)
    print(f"aggregate table at {out / 'aggregate.csv'}")
    return 1 if failed else 0


def _run_cell(args, noise: float, bits: int, variant: str, seed: int, cell_dir: Path):
    """gen-data + train + test-split MAP for one sweep cell."""
    _, manifest_path = _write_synthetic(args, seed, noise, cell_dir / "data")
    dataset, manifest = read_dataset(manifest_path)

    cell_args = argparse.Namespace(**vars(args))
    cell_args.bits = bits
    cell_args.variant = variant
    cell_args.seed = seed
    config = _train_config(cell_args)
    report, (train_ds, _, test_ds) = _run_training(dataset, manifest, config, cell_dir / "train")

    params, _ = load_checkpoint(report.checkpoint_path)
    i2t, t2i = _test_split_tasks(params, train_ds, test_ds)
    return evaluator.mean_average_precision(i2t), evaluator.mean_average_precision(t2i)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="sphash",
        description="Self-paced cross-modal hashing under noisy labels",
    )
    parser.add_argument("--version", action="version", version=f"sphash {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = sub.add_parser("gen-data", help="synthesize a dataset directory")
    _add_config_flag(p)
    _add_synth_flags(p)
    p.add_argument("--noise-rate", type=float, default=0.0,
                   help="fraction of train-split labels to corrupt (default 0.0)")
    p.add_argument("--seed", type=int, default=0, help="generation seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)
    commands["gen-data"] = p

    p = sub.add_parser("train", help="train hash encoders on a dataset directory")
    _add_config_flag(p)
    p.add_argument("--data", required=True, help="dataset directory or manifest path")
    p.add_argument("--out", required=True, help="output directory")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)
    commands["train"] = p

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _add_config_flag(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint file from train")
    p.add_argument("--data", required=True, help="dataset directory or manifest path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--weights", default=None,
                   help="weights.csv from train, enables the noise-detection report")
    p.add_argument("--pr-points", type=int, default=21,
                   help="recall levels on the PR curves (default 21)")
    p.set_defaults(func=cmd_eval)
    commands["eval"] = p

    p = sub.add_parser("sweep", help="train+eval over a noise x bits x variant grid")
    _add_config_flag(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--noise-rates", type=_list_of(float), default=[0.2, 0.4, 0.6, 0.8],
                   help="comma-separated noise rates (default 0.2,0.4,0.6,0.8)")
    p.add_argument("--variants", type=_list_of(str), default=["full"],
                   help="comma-separated variants (default full)")
    _add_synth_flags(p)
    _add_train_flags(p, bits_as_grid=True)
    p.set_defaults(func=cmd_sweep)
    commands["sweep"] = p
    return parser, commands


def _apply_config_file(parser: argparse.ArgumentParser, commands: dict, argv):
    args = parser.parse_args(argv)
    config_path = getattr(args, "config", None)
    if not config_path:
        return args
    try:
        values = json.loads(Path(config_path).read_text())
    except ValueError as exc:
        raise ParameterError(f"config file {config_path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ParameterError(f"config file {config_path} must hold a JSON object")
    subparser = commands[args.command]
    known = {action.dest for action in subparser._actions}
    defaults = {}
    for key, value in values.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise ParameterError(f"unknown config key {key!r} in {config_path}")
        defaults[dest] = value
    # file values become the subcommand's defaults, so explicit flags still win
    subparser.set_defaults(**defaults)
    args = parser.parse_args(argv)
    # list-valued flags may arrive from JSON as strings or lists; normalize
    kinds = {"dims": int, "noise_rates": float, "variants": str}
    if args.command == "sweep":
        kinds["bits"] = int
    for dest, kind in kinds.items():
        if hasattr(args, dest):
            try:
                setattr(args, dest, _list_of(kind)(getattr(args, dest)))
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"config key {dest!r} in {config_path}: {exc}") from exc
    return args


def main(argv=None) -> int:
    parser, commands = build_parser()
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _apply_config_file(parser, commands, argv)
        args.argv = raw_argv
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except CompatibilityError as exc:
        print(f"incompatible inputs: {exc}", file=sys.stderr)
        return 5
    except (FileNotFoundError, IsADirectoryError, FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
