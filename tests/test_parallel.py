from __future__ import annotations

import pytest

from graphwalk.parallel import map_chunks, worker_count
from graphwalk.ppr import _BLOCK_COLUMNS


@pytest.mark.parametrize("n, workers, sizes", [
    (0, 2, []),
    (1, 8, [1]),
    (26, 2, [13, 13]),
    (26, 1, [13, 13]),
    (38, 2, [9, 10, 9, 10]),
    (17, 3, [5, 6, 6]),
    (100, 1, [14, 14, 14, 15, 14, 14, 15]),
])
def test_map_chunks_cuts_even_blocks_per_worker(n, workers, sizes):
    items = list(range(n))
    seen = []

    def one(chunk):
        seen.append(chunk)
        return [x * 10 for x in chunk]

    assert map_chunks(one, items, workers) == [x * 10 for x in items]
    assert sorted(seen) == [items[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(len(sizes))]
    assert all(size <= _BLOCK_COLUMNS for size in sizes)


def test_worker_count_defaults_to_every_core_and_rejects_below_one():
    assert worker_count(None) >= 1
    assert worker_count(3) == 3
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            worker_count(workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            map_chunks(lambda chunk: chunk, [1, 2], workers)
