"""Typed link graphs: CSR adjacency, direction-mode transforms, snapshots."""

from __future__ import annotations

import os
import struct
import threading

import numpy as np
from scipy import sparse

from .errors import DataError
from .tsv import match_words, parse_decimals, read_table, read_tsv

EDGE_KINDS = ("H", "I", "C")
MODES = ("d", "u", "r")

ARTICLE = 0
CATEGORY = 1
NODE_KIND_NAMES = ("article", "category")
_KIND_CODES = {name: code for code, name in enumerate(NODE_KIND_NAMES)}

_MAGIC = b"GWKB1"
# guards the one-time build of a graph's derived state: its reverse graph,
# its non-isolated count and its walk engine
_DERIVED_LOCK = threading.RLock()


def parse_graph_spec(spec: str) -> list[tuple[str, str]]:
    """Parse a spec string like ``"Hr"`` or ``"HrCu"`` into (kind, mode) parts."""
    if not spec or len(spec) % 2 != 0:
        raise DataError(f"bad graph spec {spec!r}: expected pairs like 'Hr' or 'HrCu'")
    parts: list[tuple[str, str]] = []
    for i in range(0, len(spec), 2):
        kind, mode = spec[i], spec[i + 1]
        if kind not in EDGE_KINDS or mode not in MODES:
            raise DataError(f"bad graph spec {spec!r}: unknown part {kind + mode!r}")
        if (kind, mode) in parts:
            raise DataError(f"bad graph spec {spec!r}: duplicate part {kind + mode!r}")
        parts.append((kind, mode))
    return parts


class TypedGraph:
    """Immutable directed-arc adjacency over article/category nodes.

    Neighbor lists are sorted and duplicate-free, which fixes a deterministic
    iteration order for all downstream tie-breaking. Undirected and reciprocal
    variants store both arc directions explicitly, so ``n_arcs`` always counts
    directed arcs. Instances are safe to share across threads once built.
    """

    __slots__ = ("offsets", "neighbors", "kinds", "spec", "flags",
                 "_reverse", "_engine", "_non_isolated")

    def __init__(self, offsets, neighbors, kinds, spec="", flags=()):
        self.offsets = offsets        # int64[n+1]
        self.neighbors = neighbors    # int32[m], sorted within each row
        self.kinds = kinds            # uint8[n], ARTICLE or CATEGORY
        self.spec = spec
        self.flags = tuple(flags)
        self._reverse = None
        self._engine = None           # lazily attached by ppr
        self._non_isolated = None

    @classmethod
    def from_arcs(cls, n_nodes, src, dst, kinds=None, spec="", flags=()):
        """Build a graph from parallel src/dst arrays; duplicates collapse."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= n_nodes:
                raise DataError(f"arc endpoint out of range for {n_nodes} nodes")
        # sort plus an adjacent-difference mask: np.unique gives the same
        # keys but is far slower on large int64 arrays
        keys = np.sort(src * np.int64(n_nodes) + dst)
        fresh = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        s = keys // n_nodes
        d = keys % n_nodes
        offsets = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(s, minlength=n_nodes), out=offsets[1:])
        if kinds is None:
            kinds = np.zeros(n_nodes, dtype=np.uint8)
        return cls(offsets, d.astype(np.int32), np.asarray(kinds, dtype=np.uint8),
                   spec, flags)

    @property
    def n_nodes(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_arcs(self) -> int:
        return int(self.offsets[-1])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors_of(self, u: int) -> np.ndarray:
        return self.neighbors[self.offsets[u]:self.offsets[u + 1]]

    def _derived(self, slot: str, build):
        """The value in ``slot``, built by ``build()`` once even when threads
        race; once built it is read without taking the lock."""
        value = getattr(self, slot)
        if value is None:
            with _DERIVED_LOCK:
                value = getattr(self, slot)
                if value is None:
                    value = build()
                    setattr(self, slot, value)
        return value

    def reverse(self) -> "TypedGraph":
        return self._derived("_reverse", self._build_reverse)

    def _build_reverse(self) -> "TypedGraph":
        rev = _from_adjacency(_adjacency(self).T, self.kinds, self.spec, self.flags)
        rev._reverse = self
        return rev

    def in_neighbors_of(self, u: int) -> np.ndarray:
        return self.reverse().neighbors_of(u)

    def non_isolated_count(self) -> int:
        return self._derived("_non_isolated", self._count_non_isolated)

    def _count_non_isolated(self) -> int:
        in_degrees = np.bincount(self.neighbors, minlength=self.n_nodes)
        return int(np.count_nonzero(self.out_degrees() + in_degrees))


def _respec(spec: str, mode: str) -> str:
    if len(spec) == 2 and spec[0] in EDGE_KINDS:
        return spec[0] + mode
    return f"{mode}({spec})" if spec else ""


def _adjacency(g: TypedGraph) -> sparse.csr_matrix:
    """The boolean adjacency matrix A over the graph's own CSR arrays."""
    n = g.n_nodes
    return sparse.csr_matrix((np.ones(g.n_arcs, dtype=bool), g.neighbors, g.offsets),
                             shape=(n, n))


def _from_adjacency(a, kinds: np.ndarray, spec: str, flags) -> TypedGraph:
    """A graph from a boolean adjacency matrix. scipy's sums, products and
    CSC-to-CSR conversions of canonical matrices are canonical, so each row
    comes out sorted and duplicate-free."""
    a = a.tocsr()
    return TypedGraph(a.indptr.astype(np.int64), a.indices.astype(np.int32, copy=False),
                      kinds, spec, flags)


def to_undirected(g: TypedGraph) -> TypedGraph:
    """Symmetric closure A + A^T: both arc directions for every connected pair."""
    a = _adjacency(g)
    return _from_adjacency(a + a.T, g.kinds, _respec(g.spec, "u"), g.flags)


def filter_reciprocal(g: TypedGraph) -> TypedGraph:
    """Elementwise A * A^T: keep an arc a->b only if b->a is also present."""
    a = _adjacency(g)
    return _from_adjacency(a.multiply(a.T), g.kinds, _respec(g.spec, "r"), g.flags)


def merge(graphs: list[TypedGraph]) -> TypedGraph:
    """Arc union, the sum of the graphs' A, over one shared node universe."""
    if not graphs:
        raise ValueError("merge needs at least one graph")
    base = graphs[0]
    for g in graphs[1:]:
        if g.n_nodes != base.n_nodes or not np.array_equal(g.kinds, base.kinds):
            raise DataError("cannot merge graphs over different node universes")
    flags = list(dict.fromkeys(f for g in graphs for f in g.flags))
    union = sum((_adjacency(g) for g in graphs[1:]), _adjacency(base))
    return _from_adjacency(union, base.kinds, "".join(g.spec for g in graphs), flags)


def stats(g: TypedGraph) -> dict:
    return {
        "spec": g.spec,
        "nodes": g.n_nodes,
        "non_isolated_nodes": g.non_isolated_count(),
        "arcs": g.n_arcs,
        "article_nodes": int((g.kinds == ARTICLE).sum()),
        "category_nodes": int((g.kinds == CATEGORY).sum()),
        "flags": list(g.flags),
    }


class NodeTable:
    """Dense node id <-> title mapping with node kinds.

    The titles are kept as UTF-8 bytes with each title's (start, end) in
    them, as ``load_nodes`` found them in the file; a title is decoded only
    when it is asked for."""

    def __init__(self, titles, kinds):
        encoded = [title.encode("utf-8") for title in titles]
        bounds = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum([len(title) for title in encoded], out=bounds[1:])
        self._data, self._starts, self._ends = b"".join(encoded), bounds[:-1], bounds[1:]
        self.kinds = np.asarray(kinds, dtype=np.uint8)
        self._by_title = None

    @classmethod
    def _of_bytes(cls, data: bytes, starts, ends, kinds) -> "NodeTable":
        """The table over titles ``data[starts[i]:ends[i]]``, not copied."""
        table = cls((), kinds)
        table._data, table._starts, table._ends = data, starts, ends
        return table

    def __len__(self) -> int:
        return len(self._starts)

    @property
    def titles(self) -> list[str]:
        """Every title, decoded."""
        data = self._data
        return [data[s:e].decode("utf-8")
                for s, e in zip(self._starts.tolist(), self._ends.tolist())]

    def id_of(self, title: str):
        # built on first use: only the remote title resolver asks. Threads
        # that race here build equal maps, so no lock is needed
        by_title = self._by_title
        if by_title is None:
            by_title = self._by_title = dict(zip(self.titles, range(len(self))))
        return by_title.get(title)

    def title_of(self, node_id: int) -> str:
        return self._data[self._starts[node_id]:self._ends[node_id]].decode("utf-8")


def load_nodes(path: str) -> NodeTable:
    """Read ``nodes.tsv`` (id, title, kind); ids must be dense and in order.

    A canonical file (``read_table``) is checked on arrays and keeps its
    bytes as the titles. Any other goes through the line loop, which accepts
    what is lenient (``01``, `` 2 ``) and names the line of what is not."""
    table = read_table(path, 3, "id\t")
    if table is not None:
        data, column = table
        ids = parse_decimals(data, *column(0))
        kinds = match_words(data, *column(2), NODE_KIND_NAMES)
        if ids is not None and kinds is not None and np.array_equal(ids, np.arange(len(ids))):
            return NodeTable._of_bytes(data, *column(1), kinds)
    titles: list[str] = []
    kinds = bytearray()
    for lineno, (nid, title, kind) in read_tsv(path, 3, 3, header="id\t"):
        # the string compare takes every well-formed row; int() decides the rest
        if nid != str(len(titles)):
            try:
                value = int(nid)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad node id {nid!r}") from None
            if value != len(titles):
                raise DataError(f"{path}:{lineno}: node ids must be dense and ordered")
        code = _KIND_CODES.get(kind)
        if code is None:
            raise DataError(f"{path}:{lineno}: unknown node kind {kind!r}")
        titles.append(title)
        kinds.append(code)
    return NodeTable(titles, np.frombuffer(kinds, dtype=np.uint8))


def load_edge_file(path: str, nodes: NodeTable, kind: str) -> TypedGraph:
    """Load one per-kind edge file as a directed graph over the node table.

    A canonical file whose ids are all in range is read on arrays; any other
    goes through the line loop, which names the line at fault."""
    n = len(nodes)
    table = read_table(path, 2, "src_id\t")
    if table is not None:
        data, column = table
        src, dst = (parse_decimals(data, *column(c)) for c in range(2))
        if (src is not None and dst is not None
                and max(src.max(initial=-1), dst.max(initial=-1)) < n):
            return TypedGraph.from_arcs(n, src, dst, nodes.kinds, kind + "d")
    src: list[int] = []
    dst: list[int] = []
    for lineno, cols in read_tsv(path, 2, 2, header="src_id\t"):
        try:
            a, b = int(cols[0]), int(cols[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad node id") from None
        if not (0 <= a < n and 0 <= b < n):
            raise DataError(f"{path}:{lineno}: edge ({a},{b}) references unknown node id")
        src.append(a)
        dst.append(b)
    return TypedGraph.from_arcs(n, np.array(src, dtype=np.int64),
                                np.array(dst, dtype=np.int64),
                                nodes.kinds, kind + "d")


def build_graph(spec: str, edges_dir: str, nodes: NodeTable,
                parts: dict | None = None) -> TypedGraph:
    """Assemble a graph from per-kind edge files according to a spec string.

    Reciprocal filtering of category/infobox parts is permitted but marked
    with an ``experimental:`` flag since those graphs are typically too
    sparse to be useful. ``parts`` keeps each (kind, mode) part built, the
    edge file's own graph under mode ``d``; a caller that passes one dict to
    several calls reads each edge file once.
    """
    parts = {} if parts is None else parts
    built: list[TypedGraph] = []
    for kind, mode in parse_graph_spec(spec):
        if (kind, "d") not in parts:
            parts[kind, "d"] = load_edge_file(os.path.join(edges_dir, f"edges.{kind}.tsv"),
                                              nodes, kind)
        if (kind, mode) not in parts:
            g = parts[kind, "d"]
            if mode == "u":
                g = to_undirected(g)
            else:
                g = filter_reciprocal(g)
                if kind != "H":
                    g = TypedGraph(g.offsets, g.neighbors, g.kinds, g.spec,
                                   g.flags + (f"experimental:{kind}r",))
            parts[kind, mode] = g
        built.append(parts[kind, mode])
    return merge(built) if len(built) > 1 else built[0]


def save_snapshot(g: TypedGraph, path: str) -> None:
    """Write the binary snapshot: header, offsets, neighbors, kind bitmap, spec."""
    spec_b = g.spec.encode("utf-8")
    flags_b = "\n".join(g.flags).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", g.n_nodes, g.n_arcs))
        fh.write(g.offsets.astype("<i8").tobytes())
        fh.write(g.neighbors.astype("<i4").tobytes())
        fh.write(np.packbits(g.kinds, bitorder="little").tobytes())
        fh.write(struct.pack("<I", len(spec_b)))
        fh.write(spec_b)
        fh.write(struct.pack("<I", len(flags_b)))
        fh.write(flags_b)


def load_snapshot(path: str) -> TypedGraph:
    """Read a ``save_snapshot`` file; a short, padded or undecodable one is a DataError."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise DataError(f"{path}: not a graph snapshot")
        size = os.fstat(fh.fileno()).st_size

        def take(count: int) -> bytes:
            if fh.tell() + count > size:
                raise ValueError("snapshot ends early")
            return fh.read(count)

        try:
            n, m = struct.unpack("<QQ", take(16))
            offsets = np.frombuffer(take((n + 1) * 8), dtype="<i8").astype(np.int64)
            neighbors = np.frombuffer(take(m * 4), dtype="<i4").astype(np.int32)
            bitmap = np.frombuffer(take((n + 7) // 8), dtype=np.uint8)
            kinds = np.unpackbits(bitmap, bitorder="little", count=n).astype(np.uint8)
            (spec_len,) = struct.unpack("<I", take(4))
            spec = take(spec_len).decode("utf-8")
            (flags_len,) = struct.unpack("<I", take(4))
            flags = tuple(s for s in take(flags_len).decode("utf-8").split("\n") if s)
        except ValueError:
            raise DataError(f"{path}: truncated or corrupt snapshot") from None
        if fh.tell() != size or not _valid_csr(offsets, neighbors, n):
            raise DataError(f"{path}: truncated or corrupt snapshot")
    return TypedGraph(offsets, neighbors, kinds, spec, flags)


def _valid_csr(offsets: np.ndarray, neighbors: np.ndarray, n: int) -> bool:
    """Offsets run from 0 to m without decreasing; every row holds node ids
    in [0, n), strictly increasing."""
    m = len(neighbors)
    if offsets[0] != 0 or offsets[-1] != m or np.any(np.diff(offsets) < 0):
        return False
    if m and (neighbors.min() < 0 or neighbors.max() >= n):
        return False
    row_start = np.zeros(m + 1, dtype=bool)
    row_start[offsets] = True
    return not np.any((np.diff(neighbors) <= 0) & ~row_start[1:m])
