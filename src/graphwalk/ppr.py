"""Personalized PageRank: teleport vectors, power iteration, PPV truncation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dictionary import DictEntry
from .graph import TypedGraph


# teleports walked together per sparse-matrix product by PprEngine.run_many
_BLOCK_COLUMNS = 16


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

    @classmethod
    def from_pairs(cls, pairs, dim: int) -> "ScoreVector":
        items = sorted((int(i), float(s)) for i, s in dict(pairs).items() if s != 0.0)
        ids = np.array([i for i, _ in items], dtype=np.int64)
        scores = np.array([s for _, s in items], dtype=np.float64)
        return cls(ids, scores, dim)

    @property
    def nnz(self) -> int:
        return len(self.ids)

    def total(self) -> float:
        return float(self.scores.sum())

    def get(self, node_id: int) -> float:
        i = np.searchsorted(self.ids, node_id)
        if i < len(self.ids) and self.ids[i] == node_id:
            return float(self.scores[i])
        return 0.0

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim, dtype=np.float64)
        dense[self.ids] = self.scores
        return dense

    def items(self):
        return zip(self.ids.tolist(), self.scores.tolist())

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
    serve concurrent queries.
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
        self._dangling = np.flatnonzero(~nz)
        self.n_nodes = n

    def run(self, teleport: ScoreVector, params: PprParams) -> ScoreVector:
        return next(self.run_many([teleport], params))

    def run_many(self, teleports, params: PprParams):
        """Yield one walk result per teleport, in order.

        Teleports are walked ``_BLOCK_COLUMNS`` at a time as the columns of a
        dense block, one sparse-matrix product per iteration; every column is
        bitwise equal to walking its teleport alone.
        """
        teleports = iter(teleports)
        while block := list(itertools.islice(teleports, _BLOCK_COLUMNS)):
            v = np.zeros((self.n_nodes, len(block)), dtype=np.float64)
            for j, teleport in enumerate(block):
                if teleport.dim != self.n_nodes:
                    raise ValueError(
                        f"teleport dimension {teleport.dim} != graph size {self.n_nodes}")
                v[teleport.ids, j] = teleport.scores
            p = v.copy()
            for _ in range(params.iterations):
                # per-column dangling mass, summed in the same order as a 1-D sum
                d = np.ascontiguousarray(p[self._dangling].T).sum(axis=1)
                p = self._mt.dot(p)
                p *= params.alpha
                p += (params.alpha * d + 1.0 - params.alpha) * v
            for j in range(len(block)):
                yield ScoreVector.from_dense(p[:, j])


def _engine_for(graph: TypedGraph) -> PprEngine:
    return graph._derived("_engine", lambda: PprEngine(graph))


def run_ppr(graph: TypedGraph, teleport: ScoreVector,
            params: PprParams | None = None) -> ScoreVector:
    """Fixed-iteration personalized PageRank; result sums to 1."""
    return _engine_for(graph).run(teleport, params or PprParams())


def truncate_ppv(ppv: ScoreVector, k: int | None) -> ScoreVector:
    """Keep the top-k entries by score (boundary ties to the lower node id).

    No renormalization: the cosine downstream is scale-invariant.
    """
    if k is None or k >= ppv.nnz:
        return ppv
    order = np.lexsort((ppv.ids, -ppv.scores))
    keep = np.sort(order[:k])
    return ScoreVector(ppv.ids[keep], ppv.scores[keep], ppv.dim)
