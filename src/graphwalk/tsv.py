"""The one reader behind every tab-separated input file, and its array form
for the canonical files that graphwalk writes itself."""

from __future__ import annotations

import re
import sys
from typing import Iterator

import numpy as np

from .errors import DataError

# what surrogateescape decoding makes of a byte that is not UTF-8
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# file bytes searched for control bytes, and fields parsed, per step: the
# temporaries stay this small whatever the file
_SCAN_BYTES = 1 << 18
_PARSE_ROWS = 1 << 16
# the most decimal digits that always fit an int64
_MAX_DIGITS = 18


def read_tsv(path: str, min_cols: int, max_cols: int | None,
             header: str | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, cols)`` for each non-empty row after the header line.

    The first line is a header and is skipped; when ``header`` is given the
    line must start with it. A row whose column count lies outside
    ``[min_cols, max_cols]`` (``max_cols=None``: no upper bound) raises
    ``DataError("<path>:<line>: expected N columns")``, and a line that is
    not UTF-8 raises ``DataError("<path>:<line>: invalid UTF-8")``.
    """
    if max_cols is None:
        want, max_cols = f"at least {min_cols}", sys.maxsize
    elif max_cols == min_cols:
        want = str(min_cols)
    else:
        want = f"{min_cols} to {max_cols}"
    with open(path, encoding="utf-8") as fh:
        try:
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
        except UnicodeDecodeError:
            raise DataError(f"{path}:{_undecodable_line(path)}: invalid UTF-8") from None


def _undecodable_line(path: str) -> int:
    """The number of the first line of ``path`` holding a byte that is not
    UTF-8, counted as ``read_tsv`` counts lines."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if _ESCAPED_BYTE.search(line):
                break
    return lineno


def read_table(path: str, cols: int, header: str):
    """A canonical ``cols``-column file as ``(data, column)``, or None.

    Canonical is what graphwalk writes: UTF-8 whose first line starts with
    ``header``, then rows of exactly ``cols`` fields, each field ended by a
    tab and the last by the row's newline; no CR anywhere and no other byte
    below 0x20 after the header. ``data`` is the file's bytes, and
    ``column(c)`` gives the (starts, ends) offsets of column ``c``'s field in
    every row. Any other file gives None, and its reader falls back to
    ``read_tsv``, which accepts what is lenient and names the line of what
    is not.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = data.find(b"\n") + 1
    if (not head or not data.startswith(header.encode("utf-8"))
            or not data.endswith(b"\n") or data.find(b"\r", 0, head) >= 0):
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    b = np.frombuffer(data, dtype=np.uint8)
    rows = data.count(b"\n", head)
    # the header's newline, then every control byte after it: field c of row
    # r lies between seps[k] and seps[k + 1], k = r * cols + c
    seps = np.empty(rows * cols + 1, dtype=np.int32 if len(data) < 2**31 else np.int64)
    seps[0], found = head - 1, 0
    for lo in range(head, len(data), _SCAN_BYTES):
        hits = np.flatnonzero(b[lo:lo + _SCAN_BYTES] < 32)
        if found + hits.size >= seps.size:
            return None
        seps[found + 1:found + 1 + hits.size] = hits + lo
        found += hits.size
    if found + 1 < seps.size:
        return None
    seen = b[seps[1:]].reshape(rows, cols)
    if (seen[:, :-1] != ord("\t")).any() or (seen[:, -1] != ord("\n")).any():
        return None

    def column(c: int) -> tuple[np.ndarray, np.ndarray]:
        return seps[c:-1:cols] + 1, seps[c + 1::cols].copy()
    return data, column


def parse_decimals(data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Each field ``data[starts[i]:ends[i]]`` read as a decimal of 1 to 18
    ASCII digits, as int64; None when a field is anything else."""
    b = np.frombuffer(data, dtype=np.uint8)
    values = np.empty(len(starts), dtype=np.int64)
    for lo in range(0, len(starts), _PARSE_ROWS):
        rows = slice(lo, lo + _PARSE_ROWS)
        first, end = starts[rows], ends[rows]
        widths = end - first
        most = int(widths.max())
        if widths.min() < 1 or most > _MAX_DIGITS:
            return None
        value = np.zeros(len(first), dtype=np.int64)
        # digits right-aligned: a short field reads 0 where it has none
        for back in range(most, 0, -1):
            at = end - back
            digit = b[np.maximum(at, first)] - ord("0")
            digit *= at >= first
            if (digit > 9).any():
                return None
            value *= 10
            value += digit
        values[rows] = value
    return values


def match_words(data: bytes, starts: np.ndarray, ends: np.ndarray, words) -> np.ndarray | None:
    """Each field ``data[starts[i]:ends[i]]``'s index in ``words`` (fewer than
    255 ASCII strings), as uint8; None when a field is not one of them."""
    b = np.frombuffer(data, dtype=np.uint8)
    codes = np.empty(len(starts), dtype=np.uint8)
    for lo in range(0, len(starts), _PARSE_ROWS):
        rows = slice(lo, lo + _PARSE_ROWS)
        first, end = starts[rows], ends[rows]
        code = np.full(len(first), 255, dtype=np.uint8)
        for i, word in enumerate(words):
            hit = end - first == len(word)
            at, same = first[hit], np.ones(np.count_nonzero(hit), dtype=bool)
            for j, byte in enumerate(word.encode("ascii")):
                same &= b[at + j] == byte
            hit[hit] = same
            code[hit] = i
        if (code == 255).any():
            return None
        codes[rows] = code
    return codes
