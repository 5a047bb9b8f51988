"""Shared helpers: deterministic parallel mapping and atomic file writes."""

from __future__ import annotations

import os
import tempfile


def parallel_map(fn, items, workers: int):
    """Map preserving input order; results are identical for any worker
    count because each item's computation is self-contained (per-item RNG
    streams are keyed by item index, never by worker)."""
    items = list(items)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers, len(items), cpus)
    if workers <= 1:
        return [fn(it) for it in items]
    import multiprocessing as mp
    ctx = mp.get_context("spawn")
    with ctx.Pool(processes=workers) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (workers * 4)))


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
