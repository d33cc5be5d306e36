"""The one reader behind every tab-separated input file."""

from __future__ import annotations

import sys
from typing import Iterator

from .errors import DataError


def read_tsv(path: str, min_cols: int, max_cols: int | None,
             header: str | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, cols)`` for each non-empty row after the header line.

    The first line is a header and is skipped; when ``header`` is given the
    line must start with it. A row whose column count lies outside
    ``[min_cols, max_cols]`` (``max_cols=None``: no upper bound) raises
    ``DataError("<path>:<line>: expected N columns")``.
    """
    if max_cols is None:
        want, max_cols = f"at least {min_cols}", sys.maxsize
    elif max_cols == min_cols:
        want = str(min_cols)
    else:
        want = f"{min_cols} to {max_cols}"
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if header is not None and not first.startswith(header):
            raise DataError(f"{path}: missing header line")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if not min_cols <= len(cols) <= max_cols:
                raise DataError(f"{path}:{lineno}: expected {want} columns")
            yield lineno, cols
