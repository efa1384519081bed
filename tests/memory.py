"""Memory measurement shared by the tests that bound an allocation peak."""

import tracemalloc


def traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs, above what was traced when it started."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before
