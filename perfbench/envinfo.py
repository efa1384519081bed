"""Print the benchmark's environment block as one JSON object.

Run in a child process with the same environment as the measured commands
(PYTHONPATH=src and the pinned BLAS thread count), so what it reports is
what those commands ran under:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/envinfo.py
"""

from __future__ import annotations

import ctypes
import json
import os
import platform


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    import numpy as np

    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    # the thread count the loaded OpenBLAS will actually use
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def collect() -> dict:
    import numpy as np

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    from sphash import kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_imports": numba_imports,
        "kernels.USE_NUMBA": getattr(kernels, "USE_NUMBA", None),
    }


if __name__ == "__main__":
    print(json.dumps(collect(), sort_keys=True))
