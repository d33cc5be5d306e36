"""Personalized PageRank: teleport vectors, power iteration, PPV truncation."""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dictionary import DictEntry
from .graph import TypedGraph


# teleports walked together per sparse-matrix product by PprEngine.run_many
_BLOCK_COLUMNS = 16
# a block multiplies only the rows it may have reached while their out-arcs
# are under this share of all arcs, then the whole matrix. 0.5 walked ned
# bench blocks about as fast but held ~10 MiB more per block at the switch
_FRONTIER_ARCS = 0.3


class NoContextError(Exception):
    """No usable mention was available to build a teleport vector."""


@dataclass(frozen=True)
class PprParams:
    """Walk parameters. ``alpha`` is the link-follow probability, so the
    teleport weight per step is ``1 - alpha``. ``iterations=0`` returns the
    teleport vector itself."""

    alpha: float = 0.85
    iterations: int = 30
    k: int | None = 5000
    prior_init: bool = True

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1 or None")


@dataclass(frozen=True)
class ScoreVector:
    """Sparse score vector over node ids; no explicit zeros are stored."""

    ids: np.ndarray      # int64, strictly increasing
    scores: np.ndarray   # float64
    dim: int

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "ScoreVector":
        ids = np.flatnonzero(dense).astype(np.int64)
        return cls(ids, np.asarray(dense, dtype=np.float64)[ids], len(dense))

    @property
    def nnz(self) -> int:
        return len(self.ids)

    def total(self) -> float:
        return float(self.scores.sum())

    def dot(self, other: "ScoreVector") -> float:
        common, ia, ib = np.intersect1d(self.ids, other.ids,
                                        assume_unique=True, return_indices=True)
        if not common.size:
            return 0.0
        return float(np.dot(self.scores[ia], other.scores[ib]))

    def norm(self) -> float:
        return float(np.linalg.norm(self.scores))


def build_teleport(mentions: list[DictEntry], n_nodes: int,
                   prior_init: bool = True) -> ScoreVector:
    """Teleport distribution for a set of mentions.

    Each mention spreads unit mass over its candidate articles, by prior when
    ``prior_init`` else uniformly; articles shared by several mentions
    accumulate, and the final vector is renormalized to sum 1 so the damping
    factor keeps its meaning.
    """
    mass: dict[int, float] = {}
    used = 0
    for entry in mentions:
        cands = entry.candidates
        if not cands:
            continue
        used += 1
        if prior_init:
            for c in cands:
                mass[c.article] = mass.get(c.article, 0.0) + c.prior
        else:
            w = 1.0 / len(cands)
            for c in cands:
                mass[c.article] = mass.get(c.article, 0.0) + w
    if not used:
        raise NoContextError("no mention with candidates")
    ids = np.array(sorted(mass), dtype=np.int64)
    if ids.size and (ids[0] < 0 or ids[-1] >= n_nodes):
        raise ValueError("candidate node id outside the graph's node universe")
    scores = np.array([mass[i] for i in ids.tolist()], dtype=np.float64)
    scores /= scores.sum()
    return ScoreVector(ids, scores, n_nodes)


class PprEngine:
    """Reusable power-iteration state for one immutable graph.

    The transition matrix is row-stochastic over out-neighbors; mass sitting
    on dangling nodes is redistributed along the teleport vector each step,
    which keeps every iterate a probability vector and keeps mass that cannot
    walk anywhere near the query. Stateless between calls, so one engine can
    serve concurrent queries. It holds its graph weakly, so a graph that
    caches its engine is freed without a GC pass; a walk with ``reads``
    needs the graph kept alive.
    """

    def __init__(self, graph: TypedGraph):
        n = graph.n_nodes
        outdeg = graph.out_degrees()
        inv = np.zeros(n, dtype=np.float64)
        nz = outdeg > 0
        inv[nz] = 1.0 / outdeg[nz]
        m = sparse.csr_matrix(
            (np.repeat(inv, outdeg), graph.neighbors, graph.offsets), shape=(n, n))
        self._mt = m.T  # csc view; y = M^T p
        self._arcs = outdeg  # arcs per column of the view
        self._dangling = np.flatnonzero(~nz)
        self._graph = weakref.ref(graph)  # its reverse is built by the first walk with reads
        self.n_nodes = n

    def run(self, teleport: ScoreVector, params: PprParams) -> ScoreVector:
        return next(self.run_many([teleport], params))

    def run_many(self, teleports, params: PprParams, reads=None):
        """Yield one walk result per teleport, in order: a ``ScoreVector``,
        or with ``reads`` (one array of node ids per teleport) the walk's
        float64 scores at those ids.

        Teleports are walked ``_BLOCK_COLUMNS`` at a time as the columns of a
        dense block, one sparse-matrix product per iteration; every column is
        bitwise equal to walking its teleport alone. The teleport term is
        added on each teleport's own ids only: elsewhere it is ``c * 0.0``,
        which leaves a non-negative entry unchanged.

        While the rows the block may have reached have out-arcs under
        ``_FRONTIER_ARCS`` of all arcs, only those rows are multiplied: at
        first the teleports' ids, then those plus the rows the last product
        wrote. That is exact too: every other row is zero in every column,
        a skipped row would add ``a * 0.0`` to a non-negative sum, and the
        selected columns keep their order, so every output entry is summed in
        the same order as by the full product.

        With ``reads``, the last iterations compute only the rows the read
        scores depend on (``_cone``), each from its in-neighbours in
        ascending order over the reverse graph's CSR: the order in which the
        full product sums it, with the same multiply-adds. A cone iteration
        writes only its level's rows into the block; the rest go stale, and
        nothing reads them again: each level holds the next level's
        in-neighbours and the dangling rows, and the last holds the reads.
        """
        teleports = iter(teleports)
        if reads is not None:
            reads = iter(reads)
        frontier_arcs = _FRONTIER_ARCS * self._mt.nnz
        while block := list(itertools.islice(teleports, _BLOCK_COLUMNS)):
            p = np.zeros((self.n_nodes, len(block)), dtype=np.float64)
            start = np.zeros(self.n_nodes, dtype=bool)
            for j, teleport in enumerate(block):
                if teleport.dim != self.n_nodes:
                    raise ValueError(
                        f"teleport dimension {teleport.dim} != graph size {self.n_nodes}")
                p[teleport.ids, j] = teleport.scores
                start[teleport.ids] = True
            rows = np.flatnonzero(start)
            cone = []
            if reads is not None:
                block_reads = [self._read_ids(next(reads, None)) for _ in block]
                cone = self._cone(block_reads, params.iterations, frontier_arcs)
            first_cone = params.iterations - len(cone)
            for i in range(params.iterations):
                # per-column dangling mass, summed in the same order as a 1-D sum
                d = np.ascontiguousarray(p[self._dangling].T).sum(axis=1)
                if i >= first_cone:  # rows outside the level go stale: none is read again
                    level = cone[i - first_cone]
                    p[level] = self._cone_product(level).dot(p) * params.alpha
                elif rows is not None and self._arcs[rows].sum() < frontier_arcs:
                    frontier = self._mt[:, rows]
                    p = p[rows]  # frees the block before the product allocates the next
                    p = frontier.dot(p)
                    p *= params.alpha
                    reached = start.copy()
                    reached[frontier.indices] = True
                    rows = np.flatnonzero(reached)
                else:  # the middle iterations multiply every row
                    rows = None
                    p = self._mt.dot(p)
                    p *= params.alpha
                c = params.alpha * d + 1.0 - params.alpha
                for j, teleport in enumerate(block):
                    p[teleport.ids, j] += c[j] * teleport.scores
            if reads is not None:
                for j, ids in enumerate(block_reads):
                    yield p[ids, j]
                continue
            p = np.ascontiguousarray(p.T)
            for row in p:
                yield ScoreVector.from_dense(row)
        if reads is not None and next(reads, None) is not None:
            raise ValueError("more reads than teleports")

    def _read_ids(self, ids) -> np.ndarray:
        if ids is None:
            raise ValueError("fewer reads than teleports")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_nodes):
            raise ValueError(f"read id outside [0, {self.n_nodes})")
        return ids

    def _cone(self, reads, iterations: int, max_arcs: float) -> list:
        """The backward cone of a block's reads: ``[S_{T-L+1}, ..., S_T]``,
        the sorted rows that each of the last ``L`` of ``T`` iterations
        computes. ``S_T`` is every read id, and ``S_{t-1}`` is the
        in-neighbours of ``S_t`` plus the dangling rows, whose mass sets each
        step's teleport weight. A level joins while its rows' in-arcs stay
        under ``max_arcs``, up to all ``T`` iterations."""
        rev = self._graph().reverse()
        rows = np.unique(np.concatenate(reads))
        levels = []
        while len(levels) < iterations:
            if (rev.offsets[rows + 1] - rev.offsets[rows]).sum() >= max_arcs:
                break
            levels.append(rows)
            below = np.zeros(self.n_nodes, dtype=bool)
            below[self._dangling] = True
            below[rev.neighbors[_row_ranges(rev.offsets, rows)[0]]] = True
            rows = np.flatnonzero(below)
        return levels[::-1]

    def _cone_product(self, rows: np.ndarray) -> sparse.csr_matrix:
        """The rows ``rows`` of ``M^T``."""
        rev = self._graph().reverse()
        arcs, indptr = _row_ranges(rev.offsets, rows)
        src = rev.neighbors[arcs]
        weights = 1.0 / self._arcs[src]  # as __init__ weights each arc
        return sparse.csr_matrix((weights, src, indptr), shape=(len(rows), self.n_nodes))


def _row_ranges(offsets: np.ndarray, rows: np.ndarray):
    """The arc positions of ``rows`` in a CSR, row after row, and their row
    pointer."""
    lo = offsets[rows]
    counts = offsets[rows + 1] - lo
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], counts), indptr


def _engine_for(graph: TypedGraph) -> PprEngine:
    return graph._derived("_engine", lambda: PprEngine(graph))


def run_ppr(graph: TypedGraph, teleport: ScoreVector,
            params: PprParams | None = None) -> ScoreVector:
    """Fixed-iteration personalized PageRank; result sums to 1."""
    return _engine_for(graph).run(teleport, params or PprParams())


def truncate_ppv(ppv: ScoreVector, k: int | None) -> ScoreVector:
    """Keep the top-k entries by score (boundary ties to the lower node id).

    No renormalization: the cosine downstream is scale-invariant. Selects in
    O(nnz): every entry above the k-th largest score, then the entries at
    that score in id order until there are k.
    """
    if k is None or k >= ppv.nnz:
        return ppv
    scores = ppv.scores
    threshold = np.partition(scores, ppv.nnz - k)[ppv.nnz - k]
    keep = scores > threshold
    tied = np.flatnonzero(scores == threshold)
    keep[tied[:k - np.count_nonzero(keep)]] = True
    return ScoreVector(ppv.ids[keep], scores[keep], ppv.dim)
