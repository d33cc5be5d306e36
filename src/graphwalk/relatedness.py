"""Relatedness: walk-vector cosine, shared-inlink baseline, score combination."""

from __future__ import annotations

import math

import numpy as np

from .graph import TypedGraph
from .parallel import map_chunks
from .ppr import (PprParams, ScoreVector, _engine_for, build_teleport, truncate_ppv,
                  run_ppr)  # noqa: F401  (perfbench/spans.py wraps relatedness.run_ppr by name)


class UnknownTermError(LookupError):
    """A query term has no dictionary entry."""

    def __init__(self, term: str):
        super().__init__(f"term not in dictionary: {term!r}")
        self.term = term


def cosine(a: ScoreVector, b: ScoreVector) -> float:
    """Cosine of two sparse vectors; zero vectors compare as 0."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        return 0.0
    return min(1.0, a.dot(b) / (na * nb))


def term_ppv(term: str, graph: TypedGraph, store, params: PprParams) -> ScoreVector:
    """Truncated walk vector for a single term used as the only mention."""
    ppv = _term_vectors([term], graph, store, params, 1)[term]
    if ppv is None:
        raise UnknownTermError(term)
    return ppv


def relate(term1: str, term2: str, graph: TypedGraph, store,
           params: PprParams | None = None) -> float:
    """Relatedness in [0,1] as the cosine of the two terms' walk vectors."""
    params = params or PprParams()
    return cosine(term_ppv(term1, graph, store, params),
                  term_ppv(term2, graph, store, params))


def ngd_relatedness(a: int, b: int, graph: TypedGraph) -> float:
    """Shared in-link relatedness between two articles.

    distance = (log max(|A|,|B|) - log |A&B|) / (log W - log min(|A|,|B|))
    with A, B the in-neighbor sets and W the non-isolated node count; the
    score is max(0, 1 - distance). Logs are base-2 (the ratio is
    base-invariant). Empty sets or an empty intersection score 0.
    """
    ina = graph.in_neighbors_of(a)
    inb = graph.in_neighbors_of(b)
    size_a, size_b = len(ina), len(inb)
    if size_a == 0 or size_b == 0:
        return 0.0
    inter = int(np.intersect1d(ina, inb, assume_unique=True).size)
    if inter == 0:
        return 0.0
    num = math.log2(max(size_a, size_b)) - math.log2(inter)
    if num <= 0.0:
        return 1.0
    den = math.log2(graph.non_isolated_count()) - math.log2(min(size_a, size_b))
    if den <= 0.0:
        return 0.0
    return max(0.0, 1.0 - num / den)


def ngd_relate(term1: str, term2: str, graph: TypedGraph, store) -> float:
    """Term-level baseline: maximum pairwise article relatedness.

    Priors are deliberately not folded in; they hurt this baseline.
    """
    e1 = store.lookup(term1)
    if e1 is None:
        raise UnknownTermError(term1)
    e2 = store.lookup(term2)
    if e2 is None:
        raise UnknownTermError(term2)
    return max(ngd_relatedness(c1.article, c2.article, graph)
               for c1 in e1.candidates for c2 in e2.candidates)


def combine_scores(r1: float, r2: float) -> float:
    """Combine two relatedness scores from independent sources by product."""
    if not (0.0 <= r1 <= 1.0 and 0.0 <= r2 <= 1.0):
        raise ValueError(f"scores must be in [0,1], got {r1}, {r2}")
    return r1 * r2


def score_pairs(pairs, graph: TypedGraph, store, params: PprParams | None,
                system: str = "ppr", on_unknown: str = "skip",
                workers: int | None = None):
    """Score (term1, term2, gold) rows; returns (term1, term2, gold, score).

    The walk system walks each distinct term once, on ``workers`` threads
    (None: every core; see ``_term_vectors``), and scores every pair as
    ``relate`` would, whatever the worker count. Unknown terms either drop
    the pair (``skip``, score None) or score it 0 (``zero``), selected by
    the evaluation caller.
    """
    if system not in ("ppr", "ngd"):
        raise ValueError(f"unknown relatedness system {system!r}")
    if on_unknown not in ("skip", "zero"):
        raise ValueError(f"on_unknown must be 'skip' or 'zero', got {on_unknown!r}")
    pairs = list(pairs)
    if system == "ppr":
        vectors = _term_vectors([t for t1, t2, _ in pairs for t in (t1, t2)],
                                graph, store, params or PprParams(), workers)
    out = []
    for term1, term2, gold in pairs:
        if system == "ppr":
            a, b = vectors[term1], vectors[term2]
            score = None if a is None or b is None else cosine(a, b)
        else:
            try:
                score = ngd_relate(term1, term2, graph, store)
            except UnknownTermError:
                score = None
        if score is None and on_unknown == "zero":
            score = 0.0
        out.append((term1, term2, gold, score))
    return out


def write_predictions(rows, path: str) -> None:
    """Write ``score_pairs`` rows as TSV: term1, term2, gold, score (NA if skipped)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("term1\tterm2\tgold\tscore\n")
        for t1, t2, gold, score in rows:
            g = "" if gold is None else f"{gold:.12g}"
            s = "NA" if score is None else f"{score:.12g}"
            fh.write(f"{t1}\t{t2}\t{g}\t{s}\n")


def _term_vectors(terms, graph: TypedGraph, store, params: PprParams,
                  workers: int | None) -> dict:
    """``term_ppv`` of each distinct term (None when unknown), walked in blocks.

    The known terms are cut into chunks by ``parallel.map_chunks``; a worker
    walks its chunk as one block and truncates each vector as it is yielded,
    so each worker holds at most one block of untruncated vectors.
    """
    entries = {term: store.lookup(term) for term in dict.fromkeys(terms)}
    known = [term for term, entry in entries.items() if entry is not None]
    engine = _engine_for(graph)

    def walk(chunk: list[str]) -> list[ScoreVector]:
        teleports = (build_teleport([entries[term]], graph.n_nodes, params.prior_init)
                     for term in chunk)
        return [truncate_ppv(ppv, params.k) for ppv in engine.run_many(teleports, params)]

    vectors = dict.fromkeys(entries)
    vectors.update(zip(known, map_chunks(walk, known, workers)))
    return vectors
