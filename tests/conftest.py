"""Shared fixtures: naive oracles and the hand-built disambiguation graph."""

from __future__ import annotations

import numpy as np
import pytest

import graphwalk as gw
from graphwalk.graph import NodeTable
from graphwalk.ned import NedQuery

# ---------------------------------------------------------------------------
# naive reimplementations used as oracles (kept independent of the package
# internals on purpose: plain sets and dense matrices only)


def naive_undirected(arcs: set) -> set:
    return arcs | {(b, a) for a, b in arcs}


def naive_reciprocal(arcs: set) -> set:
    return {(a, b) for a, b in arcs if (b, a) in arcs}


def naive_merge(*arc_sets: set) -> set:
    out: set = set()
    for arcs in arc_sets:
        out |= arcs
    return out


def naive_ngd_score(arcs: set, a: int, b: int, n: int) -> float:
    import math
    ins_a = {s for s, d in arcs if d == a}
    ins_b = {s for s, d in arcs if d == b}
    if not ins_a or not ins_b:
        return 0.0
    inter = len(ins_a & ins_b)
    if inter == 0:
        return 0.0
    touched = {x for arc in arcs for x in arc}
    num = math.log2(max(len(ins_a), len(ins_b))) - math.log2(inter)
    if num <= 0:
        return 1.0
    den = math.log2(len(touched)) - math.log2(min(len(ins_a), len(ins_b)))
    if den <= 0:
        return 0.0
    return max(0.0, 1.0 - num / den)


def dense_ppr(n: int, arcs: set, v: np.ndarray, alpha: float,
              iterations: int) -> np.ndarray:
    """Dense power-iteration reference for the walk engine."""
    outdeg = np.zeros(n)
    for a, _ in arcs:
        outdeg[a] += 1
    m = np.zeros((n, n))
    for a, b in arcs:
        m[a, b] = 1.0 / outdeg[a]
    p = v.copy()
    for _ in range(iterations):
        d = p[outdeg == 0].sum()
        p = (1.0 - alpha) * v + alpha * (m.T @ p + d * v)
    return p


def rank_oracle(values) -> list[float]:
    """Quadratic average-rank computation."""
    ranks = []
    for x in values:
        less = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def spearman_oracle(gold, pred) -> float:
    rg = np.array(rank_oracle(gold))
    rp = np.array(rank_oracle(pred))
    rg -= rg.mean()
    rp -= rp.mean()
    return float((rg * rp).sum() / np.sqrt((rg * rg).sum() * (rp * rp).sum()))


def random_arc_set(rng: np.random.Generator, n: int,
                   density: float | None = None,
                   force_dangling: bool = False) -> set:
    density = density if density is not None else rng.uniform(0.03, 0.3)
    m = max(1, int(n * n * density))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    arcs = {(int(a), int(b)) for a, b in zip(src, dst) if a != b}
    if force_dangling and n > 2:
        dead = set(rng.choice(n, size=max(1, n // 5), replace=False).tolist())
        arcs = {(a, b) for a, b in arcs if a not in dead}
    return arcs


def graph_from_arcs(n: int, arcs: set, spec: str = "Hd") -> gw.TypedGraph:
    src = np.array([a for a, _ in sorted(arcs)], dtype=np.int64)
    dst = np.array([b for _, b in sorted(arcs)], dtype=np.int64)
    return gw.TypedGraph.from_arcs(n, src, dst, spec=spec)


def arc_arrays(g: gw.TypedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The graph's arcs as int64 (src, dst) arrays in CSR order."""
    src = np.repeat(np.arange(g.n_nodes, dtype=np.int64), g.out_degrees())
    return src, g.neighbors.astype(np.int64)


def has_arc(g: gw.TypedGraph, a: int, b: int) -> bool:
    row = g.neighbors_of(a)
    i = np.searchsorted(row, b)
    return bool(i < len(row) and row[i] == b)


def score_vector(pairs, dim: int) -> gw.ScoreVector:
    """A score vector from an ``{id: score}`` mapping; zero scores are left out."""
    items = sorted((int(i), float(s)) for i, s in dict(pairs).items() if s != 0.0)
    return gw.ScoreVector(np.array([i for i, _ in items], dtype=np.int64),
                          np.array([s for _, s in items], dtype=np.float64), dim)


def to_dense(sv: gw.ScoreVector) -> np.ndarray:
    dense = np.zeros(sv.dim, dtype=np.float64)
    dense[sv.ids] = sv.scores
    return dense


def score_items(sv: gw.ScoreVector):
    """The vector's (id, score) pairs in id order."""
    return zip(sv.ids.tolist(), sv.scores.tolist())


def arc_set_of(g: gw.TypedGraph) -> set:
    src, dst = arc_arrays(g)
    return set(zip(src.tolist(), dst.tolist()))


# ---------------------------------------------------------------------------
# hand-built disambiguation fixture: an ambiguous "Lions" mention whose
# correct reading is only reachable through multi-hop link paths

LIONS_TITLES = [
    "B&I_Lions",             # 0: rugby team, two direct links into the context
    "Highveld_Lions",        # 1: cricket team, reachable via the cricketers
    "Alan_Kourie",           # 2
    "Duncan_Fletcher",       # 3
    "Darrel_Fletcher",       # 4
    "Cape_Town",             # 5
    "Gauteng_Cricket",       # 6
    "Cricket_South_Africa",  # 7
    "Lions_Tour_1997",       # 8
    "Table_Mountain",        # 9
    "SuperSport_Series",     # 10
    "Wanderers_Stadium",     # 11
]

LIONS_PAIRS = [
    (0, 5), (0, 4), (0, 8),    # rugby team: Cape Town, Darrel, tour page
    (5, 8), (5, 9), (5, 4),    # Cape Town neighborhood
    (8, 9),                    # tour page also covers Table Mountain
    (1, 3),                    # cricket team's single direct context link
    (2, 6), (3, 7), (6, 7),    # cricketers and their boards
    (6, 1), (7, 1),            # two-hop paths into the cricket team
    (1, 10), (1, 11),          # squad/stadium pages
]

LIONS_COUNTS = {
    "lions": {0: 55, 1: 45},
    "alan kourie": {2: 12},
    "fletcher": {3: 8, 4: 2},
    "cape town": {5: 30},
}

LIONS_SENTENCE = ("alan kourie ceo of the lions franchise had discussions "
                  "with fletcher in cape town")


def build_lions_graph() -> gw.TypedGraph:
    src = [a for a, b in LIONS_PAIRS] + [b for a, b in LIONS_PAIRS]
    dst = [b for a, b in LIONS_PAIRS] + [a for a, b in LIONS_PAIRS]
    return gw.TypedGraph.from_arcs(len(LIONS_TITLES), src, dst, spec="Hr")


@pytest.fixture(scope="session")
def lions():
    graph = build_lions_graph()
    store = gw.Dictionary.from_counts(LIONS_COUNTS)
    nodes = NodeTable(LIONS_TITLES, np.zeros(len(LIONS_TITLES), dtype=np.uint8))
    tokens = tuple(LIONS_SENTENCE.split())
    query = NedQuery("lions-1", "Lions", tokens, tokens.index("lions"),
                     "Highveld_Lions")
    return graph, store, nodes, query


# ---------------------------------------------------------------------------
# TSV corpus for ingest/CLI round trips


def write_tsv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write("\t".join(str(c) for c in row) + "\n")


def write_lions_corpus(dir_path) -> dict:
    """Record files that ingest back into the hand-built fixture."""
    pages = [(i, t, "article", "") for i, t in enumerate(LIONS_TITLES)]
    links = []
    for a, b in LIONS_PAIRS:
        links.append((LIONS_TITLES[a], LIONS_TITLES[b], "H"))
        links.append((LIONS_TITLES[b], LIONS_TITLES[a], "H"))
    anchors = []
    for mention, per_node in sorted(LIONS_COUNTS.items()):
        for node, count in sorted(per_node.items()):
            anchors.append((mention, LIONS_TITLES[node], count))
    write_tsv(dir_path / "pages.tsv", "page_id\ttitle\tkind\tredirect_target",
              pages)
    write_tsv(dir_path / "links.tsv", "src_title\tdst_title\tkind", links)
    write_tsv(dir_path / "anchors.tsv", "anchor_text\tdst_title\tcount", anchors)
    return {"pages": dir_path / "pages.tsv", "links": dir_path / "links.tsv",
            "anchors": dir_path / "anchors.tsv"}


# ---------------------------------------------------------------------------
# a menu of mutations for the tab-separated files graphwalk writes

# what each mutation does to a file's rows (lists of fields) or bytes
FIELD_MUTATIONS = {
    "leading_zero": lambda row: ["0" + row[0]] + row[1:],
    "spaced_id": lambda row: [f" {row[0]} "] + row[1:],
    "plus_id": lambda row: ["+" + row[0]] + row[1:],
    "arabic_indic_id": lambda row: [row[0].translate(str.maketrans("0123456789",
                                                                   "٠١٢٣٤٥٦٧٨٩"))] + row[1:],
    "negative_id": lambda row: ["-1"] + row[1:],
    "huge_id": lambda row: [str(2**64)] + row[1:],
    "empty_id": lambda row: [""] + row[1:],
    "unknown_kind": lambda row: row[:-1] + ["page"],
    "missing_column": lambda row: row[:-1],
    "extra_column": lambda row: row + ["x"],
    "nul_byte": lambda row: row[:-1] + [row[-1] + "\x00"],
    "out_of_range_id": lambda row: [str(10**6)] + row[1:],
}
BYTE_MUTATIONS = {
    "crlf": lambda data, at: data.replace(b"\n", b"\r\n"),
    "bom": lambda data, at: b"\xef\xbb\xbf" + data,
    "empty_line": lambda data, at: data[:at] + b"\n" + data[at:],
    "no_final_newline": lambda data, at: data[:-1],
    "not_utf8": lambda data, at: data[:at] + b"\xff" + data[at:],
}
# a row with one tab too few next to one with a tab too many: the file's tab
# count stays right
TAB_MOVED = "tab_moved"
MUTATIONS = [None, *FIELD_MUTATIONS, *BYTE_MUTATIONS, TAB_MOVED]


def table_bytes(header: str, rows: list, mutation, pick: int) -> bytes:
    """The file a writer gives for ``rows``, with ``mutation`` applied to row
    ``pick`` (mod the row count)."""
    rows = [list(row) for row in rows]
    if mutation in FIELD_MUTATIONS and rows:
        i = pick % len(rows)
        rows[i] = FIELD_MUTATIONS[mutation](rows[i])
    if mutation == TAB_MOVED and len(rows) > 1:
        i = pick % (len(rows) - 1)
        rows[i] = rows[i][:-2] + [rows[i][-2] + rows[i][-1]]
        rows[i + 1] = rows[i + 1] + [rows[i + 1][-1]]
    lines = [header] + ["\t".join(row) for row in rows]
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if mutation in BYTE_MUTATIONS:
        starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")][:-1]
        data = BYTE_MUTATIONS[mutation](data, starts[pick % len(starts)])
    return data
