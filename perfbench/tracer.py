"""Layer tracer for sphash, installed from outside the package.

Runs one ``sphash`` CLI command with the public entry point of every layer
wrapped in a span recorder, then writes the spans to a JSON file:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json train --data d --out m

A span is ``[name, start, end, parent]``: perf_counter seconds and the index
of the enclosing span (-1 for a root). Spans stay in memory until the command
returns. Some calls also add to named counters (bytes written, kernel pairs),
which are written beside the spans.

``trainer`` and ``cli`` import several entry points by name, so wrapping the
defining module alone would miss their calls. ``install`` therefore rebinds
every module-level name in the ``sphash`` package that refers to a wrapped
function. Only the entry points in ``ENTRY_POINTS`` are wrapped, never the
kernel twins or private helpers; an entry point that no longer exists is
listed under ``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ENTRY_POINTS = {
    "cli": ("cmd_gen_data", "cmd_train", "cmd_eval", "cmd_sweep"),
    "data": ("generate_synthetic", "split", "inject_noise_subset"),
    "fileio": ("write_dataset", "read_dataset", "save_checkpoint", "load_checkpoint"),
    "encoder": ("encode", "backward"),
    "losses": ("chl_loss", "nsh_loss", "cal_loss", "per_instance_loss"),
    "pacer": ("refresh_weights",),
    "trainer": ("train", "step", "binary_codes", "write_weight_log_csv"),
    "evaluator": ("mean_average_precision", "pr_curve"),
    "kernels": ("pairwise_hamming_packed", "ap_scores"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def open_names(self) -> list[str]:
        return [self.spans[i][0] for i in self._open]

    def wrap(self, name: str, fn, count=None):
        """fn with a span per call; count(tracer, bound_args, result) adds counters."""
        signature = inspect.signature(fn) if count else None
        namer = _encode_name if name == "encoder.encode" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(self) if namer else name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if count:
                try:
                    count(self, signature.bind(*args, **kwargs).arguments, result)
                except (KeyError, AttributeError, TypeError, OSError):
                    pass  # the entry point changed shape: its counter reads as absent
            return result

        return traced

    def dump(self, path, missing) -> None:
        payload = {"spans": self.spans, "counters": self.counters, "missing": missing}
        Path(path).write_text(json.dumps(payload, separators=(",", ":")))


def _encode_name(tracer: Tracer) -> str:
    """encoder.encode split by caller: training step, weight refresh, validation, eval."""
    names = tracer.open_names()
    parent = names[-1] if names else ""
    if parent == "trainer.step":
        return "encoder.encode.step"
    if parent == "trainer.train":  # the per-epoch weight refresh pass
        return "encoder.encode.refresh"
    if parent == "trainer.binary_codes":
        return "encoder.encode.validate" if "trainer.train" in names else "encoder.encode.eval"
    return "encoder.encode.other"


def _file_bytes(key: str, arg: str):
    def count(tracer, args, result):
        tracer.add(key, os.path.getsize(args[arg]))

    return count


def _dataset_bytes(tracer, args, result):
    tracer.add("fileio.write_dataset.bytes",
               sum(p.stat().st_size for p in Path(result).parent.iterdir() if p.is_file()))


def _hamming_counts(tracer, args, result):
    # computed from array shapes (both packed inputs read once, distances
    # written once), not measured memory traffic
    q, g = args["query_words"], args["gallery_words"]
    tracer.add("kernels.pairwise_hamming_packed.pairs", q.shape[0] * g.shape[0])
    tracer.add("kernels.pairwise_hamming_packed.bytes", q.nbytes + g.nbytes + result.nbytes)


def _ap_counts(tracer, args, result):
    tracer.add("kernels.ap_scores.elements", args["ranked_relevance"].size)


def _refresh_counts(tracer, args, result):
    values = result.values
    tracer.add("pacer.admitted_ratio.sum", float((values > 0).sum()) / values.size)


COUNTERS = {
    "fileio.write_dataset": _dataset_bytes,
    "fileio.save_checkpoint": _file_bytes("fileio.save_checkpoint.bytes", "path"),
    "trainer.write_weight_log_csv": _file_bytes("trainer.write_weight_log_csv.bytes", "path"),
    "kernels.pairwise_hamming_packed": _hamming_counts,
    "kernels.ap_scores": _ap_counts,
    "pacer.refresh_weights": _refresh_counts,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry point and rebind its names; returns the missing ones."""
    importlib.import_module("sphash.cli")
    missing = []
    wrapped = {}  # id(original) -> (original, wrapper)
    for module_name, names in ENTRY_POINTS.items():
        module = importlib.import_module(f"sphash.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            qualified = f"{module_name}.{name}"
            if not callable(fn):
                missing.append(qualified)
                continue
            wrapped[id(fn)] = (fn, tracer.wrap(qualified, fn, COUNTERS.get(qualified)))
    for module_name, module in list(sys.modules.items()):
        if module_name != "sphash" and not module_name.startswith("sphash."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return missing


def main(argv: list[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    from sphash import cli

    try:
        return cli.main(cli_argv)
    finally:
        tracer.dump(trace_path, missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
