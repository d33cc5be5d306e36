from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import graphwalk as gw
from graphwalk.errors import DataError
from graphwalk.graph import (build_graph, load_edge_file, load_nodes,
                             load_snapshot, parse_graph_spec, save_snapshot)

from conftest import (arc_set_of, graph_from_arcs, naive_merge,
                      naive_reciprocal, naive_undirected, random_arc_set)


def test_from_arcs_basic():
    g = gw.TypedGraph.from_arcs(2, [0], [1])
    assert g.n_nodes == 2
    assert g.n_arcs == 1
    assert list(g.neighbors_of(0)) == [1]
    assert list(g.neighbors_of(1)) == []


def test_from_arcs_collapses_duplicates():
    g = gw.TypedGraph.from_arcs(3, [0, 0, 0], [1, 1, 2])
    assert g.n_arcs == 2
    assert list(g.neighbors_of(0)) == [1, 2]


def test_from_arcs_rejects_out_of_range():
    with pytest.raises(DataError):
        gw.TypedGraph.from_arcs(2, [0], [99])


def test_to_undirected_adds_reverse():
    g = gw.TypedGraph.from_arcs(2, [0], [1])
    assert arc_set_of(gw.to_undirected(g)) == {(0, 1), (1, 0)}


def test_to_undirected_deduplicates_existing_pairs():
    g = gw.TypedGraph.from_arcs(3, [0, 1, 0], [1, 0, 2])
    u = gw.to_undirected(g)
    assert arc_set_of(u) == {(0, 1), (1, 0), (0, 2), (2, 0)}
    assert u.n_arcs == 4


def test_filter_reciprocal_keeps_mutual_arcs_only():
    g = gw.TypedGraph.from_arcs(3, [0, 1, 0], [1, 0, 2])
    assert arc_set_of(gw.filter_reciprocal(g)) == {(0, 1), (1, 0)}


def test_filter_reciprocal_empty_result():
    g = gw.TypedGraph.from_arcs(2, [0], [1])
    assert gw.filter_reciprocal(g).n_arcs == 0


def test_merge_union_and_idempotence():
    a = gw.TypedGraph.from_arcs(4, [0, 1], [1, 0], spec="Hr")
    b = gw.TypedGraph.from_arcs(4, [0, 2], [2, 0], spec="Cu")
    merged = gw.merge([a, b])
    assert merged.n_arcs == 4
    assert merged.spec == "HrCu"
    again = gw.merge([a, a])
    assert arc_set_of(again) == arc_set_of(a)


def test_merge_arc_count_equals_union_size():
    rng = np.random.default_rng(11)
    arcs1 = random_arc_set(rng, 20)
    arcs2 = random_arc_set(rng, 20)
    g = gw.merge([graph_from_arcs(20, arcs1), graph_from_arcs(20, arcs2)])
    assert g.n_arcs == len(arcs1 | arcs2)
    assert g.n_arcs == len(arcs1) + len(arcs2) - len(arcs1 & arcs2)


def test_merge_rejects_mismatched_universe():
    a = gw.TypedGraph.from_arcs(3, [0], [1])
    b = gw.TypedGraph.from_arcs(4, [0], [1])
    with pytest.raises(DataError):
        gw.merge([a, b])


def test_stats_empty_graph():
    g = gw.TypedGraph.from_arcs(5, [], [])
    st = gw.stats(g)
    assert st["nodes"] == 5
    assert st["arcs"] == 0
    assert st["non_isolated_nodes"] == 0


def test_stats_small_cycle():
    g = gw.TypedGraph.from_arcs(4, [0, 1], [1, 0])
    st = gw.stats(g)
    assert st["arcs"] == 2
    assert st["non_isolated_nodes"] == 2


def test_stats_matches_naive_recount():
    rng = np.random.default_rng(3)
    arcs = random_arc_set(rng, 30)
    g = graph_from_arcs(30, arcs)
    st = gw.stats(g)
    assert st["arcs"] == len(arcs)
    assert st["non_isolated_nodes"] == len({x for arc in arcs for x in arc})


def test_transforms_match_naive_sets():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 50))
        arcs = random_arc_set(rng, n)
        g = graph_from_arcs(n, arcs)
        assert arc_set_of(gw.to_undirected(g)) == naive_undirected(arcs)
        assert arc_set_of(gw.filter_reciprocal(g)) == naive_reciprocal(arcs)


def test_transform_invariants():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        arcs = random_arc_set(rng, n)
        g = graph_from_arcs(n, arcs)
        rec = arc_set_of(gw.filter_reciprocal(g))
        und = arc_set_of(gw.to_undirected(g))
        both = arcs | {(b, a) for a, b in arcs}
        assert rec <= und <= both
        # symmetry of u/r outputs
        assert rec == {(b, a) for a, b in rec}
        assert und == {(b, a) for a, b in und}
        # idempotence
        assert arc_set_of(gw.filter_reciprocal(gw.filter_reciprocal(g))) == rec
        assert arc_set_of(gw.to_undirected(gw.to_undirected(g))) == und


def test_transforms_commute_with_merge():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        arcs1 = random_arc_set(rng, n)
        arcs2 = random_arc_set(rng, n)
        g1, g2 = graph_from_arcs(n, arcs1), graph_from_arcs(n, arcs2)
        merged_then_u = arc_set_of(gw.to_undirected(gw.merge([g1, g2])))
        u_then_merged = arc_set_of(gw.merge([gw.to_undirected(g1),
                                             gw.to_undirected(g2)]))
        assert merged_then_u == u_then_merged
        assert merged_then_u == naive_merge(naive_undirected(arcs1),
                                            naive_undirected(arcs2))


def test_parse_graph_spec():
    assert parse_graph_spec("Hr") == [("H", "r")]
    assert parse_graph_spec("HrCuIu") == [("H", "r"), ("C", "u"), ("I", "u")]
    for bad in ("", "H", "Qd", "Hx", "HrHr"):
        with pytest.raises(DataError):
            parse_graph_spec(bad)


def test_reverse_and_in_neighbors():
    g = gw.TypedGraph.from_arcs(3, [0, 1], [2, 2])
    assert list(g.in_neighbors_of(2)) == [0, 1]
    assert list(g.in_neighbors_of(0)) == []
    assert g.has_arc(0, 2) and not g.has_arc(2, 0)


def test_from_arcs_collapses_duplicates_like_unique():
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 40):
        src = rng.integers(0, n, 300)
        dst = rng.integers(0, n, 300)
        g = gw.TypedGraph.from_arcs(n, src, dst)
        keys = np.unique(src * n + dst)
        assert g.arc_arrays()[0].tolist() == (keys // n).tolist()
        assert g.neighbors.tolist() == (keys % n).tolist()


def test_derived_state_is_built_once_under_racing_threads(monkeypatch):
    """Threads racing for a fresh graph's reverse graph, non-isolated count
    and walk engine each build it once and all see the same instance."""
    built = Counter()

    def slow(name, fn):
        def counted(*args, **kwargs):
            built[name] += 1
            time.sleep(0.02)   # widen the race window
            return fn(*args, **kwargs)
        return counted

    for name in ("_build_reverse", "_count_non_isolated"):
        monkeypatch.setattr(gw.TypedGraph, name, slow(name, getattr(gw.TypedGraph, name)))
    monkeypatch.setattr(gw.ppr.PprEngine, "__init__",
                        slow("engine", gw.ppr.PprEngine.__init__))
    rng = np.random.default_rng(3)
    g = graph_from_arcs(30, random_arc_set(rng, 30))
    teleport = gw.ScoreVector.from_pairs({0: 1.0}, 30)
    start = threading.Barrier(8, timeout=30)

    def race(i):
        start.wait()
        if i % 2:
            return g.reverse(), g.non_isolated_count(), gw.ppr._engine_for(g)
        out = gw.run_ppr(g, teleport)
        return g.reverse(), g.non_isolated_count(), gw.ppr._engine_for(g), out

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(race, range(8), timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert built == {"_build_reverse": 1, "_count_non_isolated": 1, "engine": 1}
    for got in results:
        assert got[0] is g.reverse() and got[2] is gw.ppr._engine_for(g)
        assert got[1] == g.non_isolated_count()


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    arcs = random_arc_set(rng, 25)
    kinds = rng.integers(0, 2, size=25).astype(np.uint8)
    src = np.array([a for a, _ in sorted(arcs)])
    dst = np.array([b for _, b in sorted(arcs)])
    g = gw.TypedGraph.from_arcs(25, src, dst, kinds=kinds, spec="HrCu",
                                flags=("experimental:Cr",))
    path = tmp_path / "g.gwkb"
    save_snapshot(g, str(path))
    loaded = load_snapshot(str(path))
    assert loaded.n_nodes == g.n_nodes
    assert arc_set_of(loaded) == arcs
    assert np.array_equal(loaded.kinds, kinds)
    assert loaded.spec == "HrCu"
    assert loaded.flags == ("experimental:Cr",)
    # writing again is byte-identical
    path2 = tmp_path / "g2.gwkb"
    save_snapshot(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.gwkb"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataError):
        load_snapshot(str(path))


@pytest.mark.parametrize("offsets, neighbors", [
    ([1, 2, 2, 2, 2, 2], [1, 0]),       # first offset is not 0
    ([0, 2, 1, 2, 2, 2], [1, 2]),       # offsets decrease
    ([0, 1, 2, 2, 2, 2], [1, 999]),     # neighbor outside the 5 nodes
    ([0, 1, 2, 2, 2, 2], [1, -1]),
    ([0, 2, 2, 2, 2, 2], [3, 1]),       # row not sorted
    ([0, 0, 0, 2, 2, 2], [4, 4]),       # row repeats a neighbor
], ids=["first_offset", "decreasing_offsets", "neighbor_999", "negative_neighbor",
        "unsorted_row", "repeated_neighbor"])
def test_snapshot_with_broken_structure_is_a_data_error(tmp_path, offsets, neighbors):
    g = gw.TypedGraph(np.array(offsets, dtype=np.int64), np.array(neighbors, dtype=np.int32),
                      np.zeros(5, dtype=np.uint8), "Hd")
    path = tmp_path / "bad.gwkb"
    save_snapshot(g, str(path))
    with pytest.raises(DataError, match="bad.gwkb: truncated or corrupt snapshot"):
        load_snapshot(str(path))


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def test_load_nodes_and_edges(tmp_path):
    _write(tmp_path / "nodes.tsv",
           "id\ttitle\tkind\n0\tAlpha\tarticle\n1\tBeta\tarticle\n2\tCat\tcategory\n")
    nodes = load_nodes(str(tmp_path / "nodes.tsv"))
    assert len(nodes) == 3
    assert nodes.id_of("Beta") == 1
    assert nodes.title_of(2) == "Cat"
    _write(tmp_path / "edges.H.tsv", "src_id\tdst_id\n0\t1\n")
    g = load_edge_file(str(tmp_path / "edges.H.tsv"), nodes, "H")
    assert g.n_nodes == 3 and g.n_arcs == 1


def test_load_edges_empty_file(tmp_path):
    _write(tmp_path / "nodes.tsv",
           "id\ttitle\tkind\n0\tA\tarticle\n1\tB\tarticle\n2\tC\tarticle\n")
    nodes = load_nodes(str(tmp_path / "nodes.tsv"))
    _write(tmp_path / "edges.H.tsv", "src_id\tdst_id\n")
    g = load_edge_file(str(tmp_path / "edges.H.tsv"), nodes, "H")
    assert g.n_nodes == 3 and g.n_arcs == 0


def test_load_edges_unknown_id_reports_line(tmp_path):
    _write(tmp_path / "nodes.tsv", "id\ttitle\tkind\n0\tA\tarticle\n1\tB\tarticle\n")
    _write(tmp_path / "edges.H.tsv", "src_id\tdst_id\n0\t1\n0\t99\n")
    with pytest.raises(DataError, match=r":3"):
        load_edge_file(str(tmp_path / "edges.H.tsv"),
                       load_nodes(str(tmp_path / "nodes.tsv")), "H")


def test_load_nodes_requires_dense_ids(tmp_path):
    _write(tmp_path / "nodes.tsv", "id\ttitle\tkind\n0\tA\tarticle\n2\tB\tarticle\n")
    with pytest.raises(DataError):
        load_nodes(str(tmp_path / "nodes.tsv"))


def test_load_nodes_reads_ids_as_integers(tmp_path):
    path = tmp_path / "nodes.tsv"
    _write(path, "id\ttitle\tkind\n0\tA\tarticle\n01\tB\tcategory\n 2 \tC\tarticle\n")
    nodes = load_nodes(str(path))
    assert nodes.titles == ["A", "B", "C"]
    assert nodes.kinds.tolist() == [0, 1, 0]
    for rows, message in [
        ("0\tA\tarticle\n1x\tB\tarticle\n", r"nodes\.tsv:3: bad node id '1x'"),
        ("0\tA\tarticle\n02\tB\tarticle\n", r"nodes\.tsv:3: node ids must be dense"),
        ("0\tA\tarticle\n1\tB\tpage\n", r"nodes\.tsv:3: unknown node kind 'page'"),
    ]:
        _write(path, "id\ttitle\tkind\n" + rows)
        with pytest.raises(DataError, match=message):
            load_nodes(str(path))


def test_build_graph_flags_reciprocal_category(tmp_path):
    _write(tmp_path / "nodes.tsv",
           "id\ttitle\tkind\n0\tA\tarticle\n1\tK\tcategory\n")
    _write(tmp_path / "edges.H.tsv", "src_id\tdst_id\n")
    _write(tmp_path / "edges.I.tsv", "src_id\tdst_id\n")
    _write(tmp_path / "edges.C.tsv", "src_id\tdst_id\n0\t1\n1\t0\n")
    nodes = load_nodes(str(tmp_path / "nodes.tsv"))
    g = build_graph("Cr", str(tmp_path), nodes)
    assert g.n_arcs == 2
    assert any(f.startswith("experimental:") for f in g.flags)


@pytest.mark.parametrize("kind", ["graph", "dictionary"])
def test_every_cut_or_padding_of_a_snapshot_is_a_data_error(lions, tmp_path, kind):
    graph, store, _, _ = lions
    path = tmp_path / "snapshot"
    if kind == "graph":
        save_snapshot(graph, str(path))
        load = load_snapshot
    else:
        store.save(str(path))
        load = gw.Dictionary.load
    whole = path.read_bytes()
    for cut in range(len(whole)):
        path.write_bytes(whole[:cut])
        with pytest.raises(DataError, match="snapshot"):
            load(str(path))
    path.write_bytes(whole + b"\0\0")
    with pytest.raises(DataError, match="truncated or corrupt snapshot"):
        load(str(path))
