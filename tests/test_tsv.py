from __future__ import annotations

import os
import random
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphwalk import graph as graph_mod
from graphwalk.errors import DataError
from graphwalk.graph import NODE_KIND_NAMES, NodeTable, load_edge_file, load_nodes
from graphwalk.tsv import parse_decimals, read_table, read_tsv

from conftest import MUTATIONS, arc_set_of, table_bytes


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


# ---------------------------------------------------------------------------
# the array readers against the line loops they replace on canonical files

def nodes_by_line(path: str):
    """``load_nodes`` as a line loop: (titles, kinds), or its DataError."""
    titles, kinds = [], []
    for lineno, (nid, title, kind) in read_tsv(path, 3, 3, header="id\t"):
        try:
            value = int(nid)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad node id {nid!r}") from None
        if value != len(titles):
            raise DataError(f"{path}:{lineno}: node ids must be dense and ordered")
        if kind not in NODE_KIND_NAMES:
            raise DataError(f"{path}:{lineno}: unknown node kind {kind!r}")
        titles.append(title)
        kinds.append(NODE_KIND_NAMES.index(kind))
    return titles, kinds


def arcs_by_line(path: str, n: int) -> set:
    """``load_edge_file`` as a line loop: the arc set, or its DataError."""
    arcs = set()
    for lineno, cols in read_tsv(path, 2, 2, header="src_id\t"):
        try:
            a, b = int(cols[0]), int(cols[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad node id") from None
        if not (0 <= a < n and 0 <= b < n):
            raise DataError(f"{path}:{lineno}: edge ({a},{b}) references unknown node id")
        arcs.add((a, b))
    return arcs


TITLE_LETTERS = "aZ_09() ,.'-\x7féß中𝄞"


@st.composite
def node_files(draw):
    n = draw(st.sampled_from([0, 1, 9, 10, 11, 101]))
    titles = draw(st.lists(st.text(TITLE_LETTERS, max_size=6), min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(NODE_KIND_NAMES), min_size=n, max_size=n))
    rows = [[str(i), title, kind] for i, (title, kind) in enumerate(zip(titles, kinds))]
    return rows, draw(st.sampled_from(MUTATIONS)), draw(st.integers(0, 200))


@given(node_files())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_load_nodes_equals_the_line_loop(case):
    rows, mutation, pick = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "nodes.tsv")
        with open(path, "wb") as fh:
            fh.write(table_bytes("id\ttitle\tkind", rows, mutation, pick))
        try:
            want = nodes_by_line(path)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_nodes(path)
            assert str(got.value) == str(exc)
            return
        if mutation is None:   # a canonical file never reaches the line loop
            with mock.patch.object(graph_mod, "read_tsv", side_effect=AssertionError):
                nodes = load_nodes(path)
        else:
            nodes = load_nodes(path)
    titles, kinds = want
    assert len(nodes) == len(titles)
    assert [nodes.title_of(i) for i in range(len(nodes))] == titles == nodes.titles
    assert nodes.kinds.dtype == np.uint8 and nodes.kinds.tolist() == kinds
    for title in titles:
        assert nodes.id_of(title) == max(i for i, t in enumerate(titles) if t == title)
    assert nodes.id_of("\t") is None


@st.composite
def edge_files(draw):
    n = draw(st.integers(1, 150))
    m = draw(st.sampled_from([0, 1, 9, 10, 11, 101]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    # one-digit ids often, so that two run together can still be a node id
    rows = [[str(rng.randrange(rng.choice([min(n, 10), n]))) for _ in range(2)]
            for _ in range(m)]
    return n, rows, draw(st.sampled_from(MUTATIONS)), draw(st.integers(0, 200))


@given(edge_files())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_load_edge_file_equals_the_line_loop(case):
    n, rows, mutation, pick = case
    nodes = NodeTable([f"N{i}" for i in range(n)], np.arange(n) % 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.H.tsv")
        with open(path, "wb") as fh:
            fh.write(table_bytes("src_id\tdst_id", rows, mutation, pick))
        try:
            want = arcs_by_line(path, n)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_edge_file(path, nodes, "H")
            assert str(got.value) == str(exc)
            return
        if mutation is None:
            with mock.patch.object(graph_mod, "read_tsv", side_effect=AssertionError):
                g = load_edge_file(path, nodes, "H")
        else:
            g = load_edge_file(path, nodes, "H")
    assert g.n_nodes == n and g.spec == "Hd"
    assert arc_set_of(g) == want
    assert g.kinds.tolist() == nodes.kinds.tolist()


@pytest.mark.parametrize("text,want", [
    ("", None), ("id\n", None), ("id\t\n", (0, [])), ("x\t\n0\t1\n", None),
    ("id\ttitle\n", (0, [])), ("id\ttitle\n0\tA\n", (1, ["A"])),
    ("id\ttitle\n0\tA", None), ("id\ttitle\r\n0\tA\n", None), ("id\ttitle\n0\tA\r\n", None),
    ("id\ttitle\n0\tA\n\n", None), ("id\ttitle\n0\tA\t\n", None), ("id\ttitle\n0A\n", None),
    ("id\ttitle\n0\tA\x0b\n", None), ("id\t\x01ti\ttle\n0\tÅ\n", (1, ["Å"])),
])
def test_read_table_takes_only_canonical_files(tmp_path, text, want):
    path = tmp_path / "t.tsv"
    path.write_bytes(text.encode("utf-8"))
    table = read_table(str(path), 2, "id\t")
    if want is None:
        assert table is None
        return
    data, column = table
    starts, ends = column(1)
    assert (len(starts), [data[s:e].decode("utf-8") for s, e in zip(starts, ends)]) == want


@pytest.mark.parametrize("fields,want", [
    ([], []), (["0"], [0]), (["7", "42", "007"], [7, 42, 7]),
    (["999999999999999999"], [999999999999999999]),
    (["1234567890123456789"], None), ([""], None), (["1a"], None), (["+1"], None),
    (["-1"], None), ([" 1"], None), (["١"], None), (["1", "/"], None), (["1", ":"], None),
])
def test_parse_decimals_reads_ascii_digits_only(fields, want):
    data = "".join(f + "\t" for f in fields).encode("utf-8")
    ends = np.cumsum([len(f.encode("utf-8")) + 1 for f in fields], dtype=np.int64) - 1
    starts = ends - [len(f.encode("utf-8")) for f in fields]
    got = parse_decimals(data, starts, ends)
    assert (got if got is None else got.tolist()) == want
