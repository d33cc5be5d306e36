"""Worker threads for the walks: the worker count and ordered maps over chunks."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .ppr import _BLOCK_COLUMNS


def worker_count(workers: int | None) -> int:
    """``workers``, or every core this process may run on when None."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def map_in_order(fn, items: list, workers: int) -> list:
    """``[fn(x) for x in items]``, on ``workers`` threads when more than one.

    One worker runs serially, so the first exception stops the items after
    it; a pool may already have started them.
    """
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def map_chunks(fn, items: list, workers: int | None) -> list:
    """``fn`` over chunks of ``items``, its result lists joined in order.

    The chunks are as even as they can be, hold at most ``_BLOCK_COLUMNS``
    items each (one walk block) and number a multiple of the worker count,
    so every worker gets the same share: 38 items on 2 workers are 4 chunks
    of 9 or 10, 26 items are 2 chunks of 13.
    """
    workers = worker_count(workers)
    n = len(items)
    count = min(n, -(-n // (_BLOCK_COLUMNS * workers)) * workers)
    chunks = [items[i * n // count:(i + 1) * n // count] for i in range(count)]
    return [out for outs in map_in_order(fn, chunks, workers) for out in outs]
