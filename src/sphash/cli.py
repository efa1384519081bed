"""Command-line surface.

Subcommands:
  gen-data   synthesize a multi-modal dataset, corrupt the train split's
             labels at a chosen rate, and write it to a directory
  train      fit hash encoders on a dataset directory
  eval       score a checkpoint on the test split (MAP, PR curves, noise
             detection against the stored mask)
  sweep      train+eval over a noise-rate x bits x variant grid and
             aggregate one table

Each ``cmd_*`` returns ``(exit code, config, seed, artifacts)``: the fully
resolved configuration, the seed, and the artifact names it wrote under
``--out``. ``main`` then writes run_manifest.json from them, last, and only
when the command returns: a command that raises writes no manifest.
Re-running a command with the manifest's argv reproduces every artifact byte
for byte (the manifest itself records the run's duration, so compare the
artifacts, not the manifest).

eval and each sweep cell score the T2I direction in a forked child process
(POSIX ``fork``) while the command's own process scores I2T.

Exit codes: 0 success, 1 some sweep cell failed (its aggregate entries read
"error"), 2 usage error, 3 I/O error of any kind (an ``OSError``, which
includes a file-format error and a scoring process that died) or out of memory
(a ``MemoryError``), 4 numerical divergence during training, 5 a checkpoint or
weight dump that does not fit the dataset. sweep checks its whole grid before
the first cell runs, so an empty axis or a bad noise rate, size, split, code
length or variant exits 2 and writes no cell. Every flag, on the command line
and as a --config key, is spelled in full: a prefix of a flag exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import signal
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, evaluator, trainer
from .data import (SynthSpec, generate_synthetic, inject_noise_subset, split, split_rows,
                   split_sizes)
from .encoder import check_capacity
from .errors import (
    CompatibilityError,
    FormatError,
    ParameterError,
    SphashError,
    TrainingDivergedError,
)
from .fileio import (
    dataset_files, load_checkpoint, read_dataset, read_weight_log, save_checkpoint, write_csv,
    write_dataset, write_json,
)
from .losses import LossConfig
from .pacer import PaceSchedule
from .seeding import stable_seed

_DEFAULT_VARIANT = trainer.TrainConfig.variant
_MAX_PR_POINTS = 10_001  # a recall step of 1e-4


def _list_of(kind):
    """Parser for comma-separated text into a list of ``kind``; empty items are skipped."""

    def parse(text: str) -> list:
        return [kind(v) for v in text.split(",") if v]

    parse.__name__ = f"{kind.__name__} list"  # named in argparse's error messages
    return parse


def _gamma_ramp(text: str) -> tuple[float, float, int]:
    """START:END:EPOCHS as (start, end, epochs)."""
    try:
        start, end, epochs = text.split(":")
        return float(start), float(end), int(epochs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:END:EPOCHS, got {text!r}") from None


def _pr_points(text: str) -> int:
    """A PR curve's recall level count: an int from 2 to _MAX_PR_POINTS."""
    points = int(text)
    if not 2 <= points <= _MAX_PR_POINTS:
        raise argparse.ArgumentTypeError(f"need 2 to {_MAX_PR_POINTS} recall levels, got {points}")
    return points


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=2000, help="instance count (default 2000)")
    p.add_argument("--k", type=int, default=8, help="class count (default 8)")
    p.add_argument("--m", type=int, default=2, help="modality count; must be 2 (default 2)")
    p.add_argument(
        "--dims", type=_list_of(int), default=[64, 48],
        help="comma-separated feature dims, one per modality (default 64,48)",
    )
    p.add_argument("--class-separation", type=float, default=SynthSpec.class_separation,
                   help="minimum distance between class latents (default %(default)s)")
    p.add_argument("--intra-noise-std", type=float, default=SynthSpec.intra_noise_std,
                   help="std of the per-instance latent perturbation (default %(default)s)")
    p.add_argument("--train-frac", type=float, default=0.7,
                   help="training fraction of the split (default 0.7)")
    p.add_argument("--val-frac", type=float, default=0.1,
                   help="validation fraction of the split (default 0.1)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """The training flags train and sweep share; each adds its own --bits and variant flag."""
    config = trainer.TrainConfig  # each default below is its field's
    p.add_argument("--hidden", type=int, default=config.hidden_dim,
                   help="encoder hidden width (default %(default)s)")
    p.add_argument("--batch-size", type=int, default=config.batch_size,
                   help="mini-batch size (default %(default)s)")
    p.add_argument("--warmup", type=int, default=config.warmup_epochs,
                   help="warm-up epochs before self-pacing (default %(default)s)")
    p.add_argument("--epochs", type=int, default=config.max_epochs,
                   help="total training epochs (default %(default)s)")
    p.add_argument("--lr", type=float, default=config.learning_rate,
                   help="Adam step size (default %(default)s)")
    p.add_argument("--tau", type=float, default=LossConfig.tau,
                   help="softmax temperature (default %(default)s)")
    p.add_argument("--r", type=float, default=LossConfig.r,
                   help="robustness factor in (0,1]; 1 behaves like 1-p, small r like -ln p "
                   "(default %(default)s)")
    p.add_argument("--alpha", type=float, default=LossConfig.alpha,
                   help="weight of the contrastive term in the objective (default %(default)s)")
    p.add_argument(
        "--gamma", type=float, default=None,
        help="fixed pace parameter; default is half the per-instance loss upper bound, "
        f"or {trainer._GAMMA_OVERRIDE_DEFAULT:g} under gamma_override",
    )
    p.add_argument(
        "--gamma-ramp", type=_gamma_ramp, default=None, metavar="START:END:EPOCHS",
        help="linear pace ramp over the self-paced phase, overrides --gamma",
    )
    p.add_argument("--seed", type=int, default=config.seed, help="run seed (default %(default)s)")
    p.add_argument(
        "--clean-val", action="store_true",
        help="use ground-truth labels for validation relevance (diagnostic)",
    )


def _build_pace(args) -> PaceSchedule | None:
    if args.gamma_ramp is not None:
        return PaceSchedule(*args.gamma_ramp)
    if args.gamma is not None:
        return PaceSchedule(gamma_start=args.gamma)
    return None  # trainer.resolve_config picks the variant's default


def _train_config(args, bits: int, variant: str) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        code_length=bits,
        hidden_dim=args.hidden,
        batch_size=args.batch_size,
        warmup_epochs=args.warmup,
        max_epochs=args.epochs,
        learning_rate=args.lr,
        loss=LossConfig(tau=args.tau, r=args.r, alpha=args.alpha),
        pace=_build_pace(args),
        seed=args.seed,
        variant=variant,
        clean_val=args.clean_val,
    )


def _synth_spec(args) -> SynthSpec:
    return SynthSpec(
        n=args.n, k=args.k, m=args.m, dims=tuple(args.dims),
        class_separation=args.class_separation, intra_noise_std=args.intra_noise_std,
        seed=args.seed,
    )


def _write_synthetic(args, spec: SynthSpec, noise_rate: float, out: Path):
    """Synthesize spec's dataset, corrupt its train split's labels and write it to out.

    Returns (dataset, split record) as ``read_dataset`` reads them back from out.
    """
    dataset = generate_synthetic(spec)
    split_record = (args.train_frac, args.val_frac, spec.seed)
    train_rows, _, _ = split_rows(dataset, *split_record)
    noised = inject_noise_subset(
        dataset, train_rows, noise_rate, stable_seed(spec.seed, "train-noise")
    )
    write_dataset(noised, out, split_record)
    return noised, split_record


def cmd_gen_data(args):
    spec = _synth_spec(args)
    _write_synthetic(args, spec, args.noise_rate, args.out)
    print(f"wrote dataset with {spec.n} instances to {args.out}")
    return 0, {"synth": spec, "noise_rate": args.noise_rate}, args.seed, dataset_files(spec.m)


_TRAIN_ARTIFACTS = ("checkpoint.bin", "report.csv", "map_curve.csv", "weights.csv")


def _run_training(train_ds, val_ds, config: trainer.TrainConfig, out: Path):
    """Train on the train and validation splits, then write the _TRAIN_ARTIFACTS to out."""
    out.mkdir(parents=True, exist_ok=True)
    report = trainer.train(train_ds, val_ds, config)
    save_checkpoint(report.best_params, report.centers, out / "checkpoint.bin")
    trainer.write_report_csv(report, out / "report.csv")
    curve = [(rec.epoch, rec.val_map_i2t, rec.val_map_t2i) for rec in report.records]
    write_csv(out / "map_curve.csv", ("epoch", "map_i2t", "map_t2i"), curve)
    trainer.write_weight_log_csv(report, train_ds, out / "weights.csv")
    return report


def cmd_train(args):
    dataset, split_record = read_dataset(args.data)
    config = trainer.resolve_config(_train_config(args, args.bits, args.variant), dataset.m)
    check_capacity(dataset.class_count, config.code_length)
    train_ds, val_ds, _ = split(dataset, *split_record)
    del dataset  # the two splits hold every row training reads
    report = _run_training(train_ds, val_ds, config, args.out)
    print(f"best epoch {report.best_epoch} with validation MAP {report.best_val_map:.4f}; "
          f"checkpoint at {args.out / 'checkpoint.bin'}")
    return 0, {"train": report.config, "data": args.data}, args.seed, _TRAIN_ARTIFACTS


def _score_direction(params, train_ds, test_ds, direction, pr_points):
    """(name, MAP, PR curve or None) of one of ``evaluator.DIRECTIONS``.

    Test-split queries against the train-split gallery, relevance by true
    labels. Only the two modalities the direction ranks are encoded.
    """
    name, query, gallery = direction
    task = evaluator.RetrievalTask(
        trainer.binary_codes(params, test_ds, query), test_ds.true_labels,
        trainer.binary_codes(params, train_ds, gallery), train_ds.true_labels,
    )
    curve = None if pr_points is None else evaluator.pr_curve(task, pr_points)
    return name, evaluator.mean_average_precision(task), curve


def _child_run(sink, fn, *args):
    """The forked child's whole life: fn(*args)'s pickled outcome goes to sink, then
    ``os._exit``, so no caller's frame, atexit handler or stdout flush runs in the child."""
    status = 1
    try:
        try:
            payload = pickle.dumps((True, fn(*args)))
        except BaseException as exc:
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)  # an exception can pickle and still not rebuild
            except Exception:
                payload = pickle.dumps((False, ChildProcessError(f"{type(exc).__name__}: {exc}")))
        sink.write(payload)
        sink.flush()
        status = 0
    finally:
        os._exit(status)


def _test_split_scores(params, train_ds, test_ds, pr_points=None) -> list:
    """(direction, MAP, PR curve or None) for I2T, then T2I.

    T2I is scored in a forked child while this process scores I2T, so the
    two rankings use two cores. Each PR curve has pr_points levels; None
    skips the curves. Whatever raises here, an interrupt included, leaves no
    pipe end open and no child running or unreaped.
    """
    i2t, t2i = evaluator.DIRECTIONS
    pid = 0
    read_end, write_end = os.pipe()
    try:
        with open(read_end, "rb") as pipe, open(write_end, "wb") as sink:
            pid = os.fork()
            if not pid:
                _child_run(sink, _score_direction, params, train_ds, test_ds, t2i, pr_points)
            sink.close()  # the child holds the only write end left, so EOF means it is done
            first = _score_direction(params, train_ds, test_ds, i2t, pr_points)
            payload = pipe.read()  # to EOF first: a long PR curve outgrows the pipe's buffer
    except BaseException:
        if pid:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if pid:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        how = f"killed by signal {-code}" if code < 0 else f"exited with code {code}"
        raise ChildProcessError(f"scoring process {pid} {how} before sending a result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return [first, value]


def _write_retrieval_scores(params, train_ds, test_ds, out: Path, pr_points: int) -> list[str]:
    """Write map.csv and one PR curve per direction; returns the artifact names."""
    artifacts, map_rows = [], []
    for name, score, points in _test_split_scores(params, train_ds, test_ds, pr_points):
        direction = name.lower()
        map_rows.append((direction, score))
        print(f"map_{direction} {score:.4f}")
        write_csv(out / f"pr_{direction}.csv", ("recall", "precision"), points)
        artifacts.append(f"pr_{direction}.csv")
    write_csv(out / "map.csv", ("direction", "map"), map_rows)
    return artifacts + ["map.csv"]


def cmd_eval(args):
    params, centers = load_checkpoint(args.checkpoint)
    dataset, split_record = read_dataset(args.data)
    if params.dims != dataset.dims:
        raise CompatibilityError(
            f"checkpoint expects feature dims {params.dims}, dataset has {dataset.dims}"
        )
    if centers.shape[0] != dataset.class_count:
        raise CompatibilityError(
            f"checkpoint has {centers.shape[0]} centers, dataset has "
            f"{dataset.class_count} classes"
        )

    noise_mask, seed = dataset.noise_mask, dataset.seed
    train_ds, _, test_ds = split(dataset, *split_record)
    del dataset  # from here on only its noise mask, seed and these two splits are read
    dump = None if args.weights is None else read_weight_log(args.weights)
    if dump is not None:  # its last epoch lists this dataset's training split, each row once
        idx, weights, noisy = dump
        listed, rows = idx[idx.argsort()], train_ds.source_rows  # split sorts its rows
        if (listed[1:] == listed[:-1]).any():
            raise FormatError(f"{args.weights}: the last epoch lists an instance more than once")
        if (listed.shape != rows.shape or (listed != rows).any()
                or (noisy != noise_mask[idx]).any()):
            raise CompatibilityError(f"{args.weights}: the last epoch is not this dataset's "
                                     "training split with its noise mask")

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    artifacts = _write_retrieval_scores(params, train_ds, test_ds, out, args.pr_points)
    if dump is not None and noise_mask.any():
        score = evaluator.noise_detection_score(weights, noise_mask[idx])
        write_json(out / "noise_detection.json", score)
        counts, edges = np.histogram(weights, bins=20, range=(0.0, 1.0))
        edges = edges.tolist()
        write_csv(out / "weights_histogram.csv", ("bin_left", "bin_right", "density"),
                  zip(edges[:-1], edges[1:], (counts / weights.size).tolist()))
        artifacts += ["noise_detection.json", "weights_histogram.csv"]
    config = {"checkpoint": args.checkpoint, "data": args.data, "pr_points": args.pr_points}
    return 0, config, seed, artifacts


def _sweep_grid(args) -> tuple[SynthSpec, dict]:
    """The sweep's SynthSpec and one resolved TrainConfig per (bits, variant), all checked.

    Raises ParameterError for an empty axis, a value repeated on an axis as parsed
    (0.2,0.20 too), or any bad noise rate, size, split, code length or variant,
    so a grid that cannot run fails before its first cell writes anything.
    """
    for axis in (args.noise_rates, args.bits, args.variants):
        if not axis or len(set(axis)) < len(axis):  # a repeat reruns a cell into its directory
            raise ParameterError(f"each grid axis needs one or more distinct values, got {axis}")
    for noise in args.noise_rates:  # the check inject_symmetric_noise makes per cell
        if not 0.0 <= noise <= 1.0:
            raise ParameterError(f"noise rate {noise} outside [0, 1]")
    spec = _synth_spec(args)
    split_sizes(spec.n, args.train_frac, args.val_frac)
    configs = {}
    for bits in args.bits:
        check_capacity(spec.k, bits)
        for variant in args.variants:
            configs[bits, variant] = trainer.resolve_config(
                _train_config(args, bits, variant), spec.m
            )
    return spec, configs


def cmd_sweep(args):
    spec, configs = _sweep_grid(args)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    columns, rows = ["variant"], [[variant] for variant in args.variants]
    failed = False
    for noise in args.noise_rates:
        for bits in args.bits:
            columns += [f"i2t_n{noise}_b{bits}", f"t2i_n{noise}_b{bits}"]
            for variant, row in zip(args.variants, rows):
                cell_seed = stable_seed(args.seed, noise, bits, variant)
                cell_dir = out / "cells" / f"n{noise}_b{bits}_{variant}"
                try:
                    row += _run_cell(args, noise, spec, configs[bits, variant], cell_seed, cell_dir)
                # a broken cell, out of memory too, must not sink the grid
                except (SphashError, OSError, MemoryError) as exc:
                    print(f"cell n={noise} bits={bits} {variant} failed: {exc}", file=sys.stderr)
                    row += ["error", "error"]
                    failed = True
    write_csv(out / "aggregate.csv", columns, rows)

    grid = {
        "noise_rates": args.noise_rates,
        "bits": args.bits,
        "variants": args.variants,
        "epochs": args.epochs,
        "n": args.n,
        # each cell reseeds these with stable_seed(seed, noise, bits, variant)
        "synth": spec,
        "split": {"train_frac": args.train_frac, "val_frac": args.val_frac},
        "train": list(configs.values()),
    }
    print(f"aggregate table at {out / 'aggregate.csv'}")
    return int(failed), grid, args.seed, ["aggregate.csv"]


def _run_cell(args, noise: float, spec: SynthSpec, config: trainer.TrainConfig, seed: int,
              cell_dir: Path):
    """gen-data + train + test-split MAP for one sweep cell, spec and config reseeded."""
    spec, config = dataclasses.replace(spec, seed=seed), dataclasses.replace(config, seed=seed)
    dataset, split_record = _write_synthetic(args, spec, noise, cell_dir / "data")
    train_ds, val_ds, test_ds = split(dataset, *split_record)
    del dataset
    _run_training(train_ds, val_ds, config, cell_dir / "train")
    # score the checkpoint's float32 weights, as eval does
    params, _ = load_checkpoint(cell_dir / "train" / "checkpoint.bin")
    return tuple(score for _, score, _ in _test_split_scores(params, train_ds, test_ds))


# each subcommand's name and help, in build_parser's order; _parse_args reads the names
_COMMANDS = {
    "gen-data": "synthesize a dataset directory",
    "train": "train hash encoders on a dataset directory",
    "eval": "evaluate a checkpoint on the test split",
    "sweep": "train+eval over a noise x bits x variant grid",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphash",
        description="Self-paced cross-modal hashing under noisy labels",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"sphash {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    envelope = argparse.ArgumentParser(add_help=False)  # every command's first two flags
    envelope.add_argument(
        "--config",
        help="JSON file of flags, read before the command line's own, which win: key k "
        "with value v is --k=v (underscores for dashes), a list is comma-joined, true is "
        "the bare switch, false and null are left out",
    )
    envelope.add_argument("--out", type=Path, required=True, help="output directory")
    gen_data, train, evaluate, sweep = (
        sub.add_parser(name, parents=[envelope], allow_abbrev=False, help=text)
        for name, text in _COMMANDS.items()
    )

    _add_synth_flags(gen_data)
    gen_data.add_argument("--noise-rate", type=float, default=0.0,
                          help="fraction of train-split labels to corrupt (default 0.0)")
    gen_data.add_argument("--seed", type=int, default=SynthSpec.seed,
                          help="generation seed (default %(default)s)")
    gen_data.set_defaults(func=cmd_gen_data)

    train.add_argument("--data", required=True, help="dataset directory or manifest path")
    train.add_argument("--bits", type=int, default=trainer.TrainConfig.code_length, help="hash "
                       "code length; typical settings are 16, 32, 64 or 128 (default %(default)s)")
    train.add_argument("--variant", choices=trainer.VARIANTS, default=_DEFAULT_VARIANT,
                       help="ablation/robustness variant (default %(default)s)")
    _add_train_flags(train)
    train.set_defaults(func=cmd_train)

    evaluate.add_argument("--checkpoint", required=True, help="checkpoint file from train")
    evaluate.add_argument("--data", required=True, help="dataset directory or manifest path")
    evaluate.add_argument("--weights", default=None,
                          help="weights.csv from train, enables the noise-detection report")
    evaluate.add_argument("--pr-points", type=_pr_points, default=21, help="recall levels on "
                          f"the PR curves, 2 to {_MAX_PR_POINTS} (default 21)")
    evaluate.set_defaults(func=cmd_eval)

    sweep.add_argument("--noise-rates", type=_list_of(float), default=[0.2, 0.4, 0.6, 0.8],
                       help="comma-separated noise rates (default 0.2,0.4,0.6,0.8)")
    sweep.add_argument("--bits", type=_list_of(int), default=[16, 32, 64, 128],
                       help="comma-separated code lengths (default 16,32,64,128)")
    sweep.add_argument("--variants", type=_list_of(str), default=[_DEFAULT_VARIANT],
                       help=f"comma-separated variants (default {_DEFAULT_VARIANT})")
    _add_synth_flags(sweep)
    _add_train_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def _config_flags(path: str) -> list[str]:
    """The flags a --config file stands for: ``--key=value`` per key of its JSON object.

    The command's parse rejects a key that is not one of its flags in full.
    """
    try:
        values = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            # every item ends in a comma: a list flag skips the empty last item,
            # and a flag that takes one number rejects the text
            value = "".join(f"{v}," for v in value)
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            flags.append(f"{flag}={value}")
    return flags


def _parse_args(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """argv parsed once, with its --config file's flags put before the command's own."""
    config = None
    if argv and argv[0] in _COMMANDS:  # before the command name only --help and --version parse
        finder = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
        finder.add_argument("--config", nargs="?")  # a bare --config is left to the full parse
        config = finder.parse_known_args(argv[1:])[0].config
    if config is None:
        return parser.parse_args(argv)
    try:
        return parser.parse_args(argv[:1] + _config_flags(config) + argv[1:])
    except SystemExit as exc:  # argparse has printed which flag failed
        if not exc.code:  # --help
            raise
        raise ParameterError(f"{argv[0]} flags with config file {config} do not parse") from exc


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse_args(parser, argv)
        started = time.perf_counter()
        code, config, seed, artifacts = args.func(args)
        write_json(args.out / "run_manifest.json", {
            "command": args.command,
            "argv": argv,
            "config": config,
            "seed": int(seed),
            "artifacts": sorted(artifacts),
            "tool_version": __version__,
            "duration_seconds": round(time.perf_counter() - started, 3),
        })
        return code
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except CompatibilityError as exc:
        print(f"incompatible inputs: {exc}", file=sys.stderr)
        return 5
    except FormatError as exc:  # an OSError too, caught first for its own label
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a resource failure, as a full disk is
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
