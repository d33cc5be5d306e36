from __future__ import annotations

import pytest

from graphwalk.errors import DataError
from graphwalk.tsv import read_tsv


def test_read_tsv_yields_numbered_rows_and_checks_columns(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("h1\th2\na\tb\n\nc\td\te\n", encoding="utf-8")
    assert list(read_tsv(str(path), 2, 3)) == [(2, ["a", "b"]), (4, ["c", "d", "e"])]
    with pytest.raises(DataError, match=r"t\.tsv:4: expected 2 columns"):
        list(read_tsv(str(path), 2, 2))
    with pytest.raises(DataError, match=r"t\.tsv:2: expected at least 3 columns"):
        list(read_tsv(str(path), 3, None))
    with pytest.raises(DataError, match=r"t\.tsv: missing header line"):
        list(read_tsv(str(path), 2, 3, header="id\t"))


def test_read_tsv_reports_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"h1\th2\r\na\tb\r\n\nc\td\xff\n")
    with pytest.raises(DataError, match=r"t\.tsv:4: invalid UTF-8"):
        list(read_tsv(str(path), 2, 2))
    path.write_bytes(b"h\xe9ader\na\tb\n")
    with pytest.raises(DataError, match=r"t\.tsv:1: invalid UTF-8"):
        list(read_tsv(str(path), 2, 2))
