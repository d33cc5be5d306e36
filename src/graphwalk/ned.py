"""Named-entity disambiguation: candidates, context, walk ranking, baselines."""

from __future__ import annotations

import http.client
import json
import os
import re
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass

from .dictionary import Candidate, DictEntry, longest_match_scan, normalize_mention
from .errors import DataError
from .graph import NodeTable, TypedGraph
from .parallel import map_chunks
from .ppr import (PprParams, _engine_for, build_teleport,
                  run_ppr)  # noqa: F401  (perfbench/spans.py wraps ned.run_ppr by name)
from .relatedness import ngd_relatedness
from .tsv import read_tsv

CONTEXT_HALF_WINDOW = 50  # tokens on each side of the target (101-token window)

# NED walks converge earlier than relatedness walks; 15 fixed iterations.
DEFAULT_NED_PARAMS = PprParams(iterations=15, k=None)

_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class NedQuery:
    query_id: str
    mention: str
    context_tokens: tuple[str, ...]
    target_index: int
    gold_title: str | None = None

    def __post_init__(self):
        if not self.mention:
            raise ValueError(f"{self.query_id}: empty mention")
        if self.context_tokens and not 0 <= self.target_index < len(self.context_tokens):
            raise ValueError(f"{self.query_id}: target index out of bounds")


@dataclass(frozen=True)
class NedPrediction:
    query_id: str
    predicted: int | None                       # node id, None = NIL
    candidate_scores: tuple[tuple[int, float], ...]  # sorted by descending score
    fallback_used: bool = False

    @property
    def score(self) -> float:
        return self.candidate_scores[0][1] if self.candidate_scores else 0.0

    def title(self, nodes: NodeTable) -> str:
        """The predicted node's title, or ``NIL``."""
        return "NIL" if self.predicted is None else nodes.title_of(self.predicted)


def generate_candidates(mention: str, store, resolver=None,
                        nodes: NodeTable | None = None):
    """Candidate entry for a mention, trying fallback heuristics in order.

    The direct lookup already strips parenthesized substrings via mention
    normalization. On a miss: drop a leading "the", then drop the middle
    token of a three-token mention, then ask the optional remote title
    resolver; the first hit wins. Returns None when everything fails.
    """
    entry = store.lookup(mention)
    if entry is not None:
        return entry
    toks = normalize_mention(mention).split()
    if toks and toks[0] == "the":
        entry = store.get(" ".join(toks[1:]))
        if entry is not None:
            return entry
    if len(toks) == 3:
        entry = store.get(toks[0] + " " + toks[2])
        if entry is not None:
            return entry
    if resolver is not None and nodes is not None:
        title = resolver.resolve(mention)
        if title:
            node = nodes.id_of(title)
            if node is not None:
                norm = normalize_mention(mention) or mention.lower()
                return DictEntry(norm, (Candidate(node, 0, 1.0),))
    return None


def extract_context(query: NedQuery, store) -> list[DictEntry]:
    """Dictionary mentions inside the clipped window around the target.

    The window spans CONTEXT_HALF_WINDOW tokens on each side of the target
    mention; the target's own span is excluded and the two sides are scanned
    independently so no match straddles it.
    """
    tokens = list(query.context_tokens)
    span = max(1, len(query.mention.split()))
    t = query.target_index
    left = tokens[max(0, t - CONTEXT_HALF_WINDOW):t]
    right = tokens[t + span:t + span + CONTEXT_HALF_WINDOW]
    return [entry for _, entry in longest_match_scan(store, left) + longest_match_scan(store, right)]


def _prior_prediction(query: NedQuery, entry: DictEntry,
                      fallback: bool) -> NedPrediction:
    scores = tuple((c.article, c.prior) for c in entry.candidates)
    return NedPrediction(query.query_id, entry.candidates[0].article, scores, fallback)


def _rank(query: NedQuery, scored: list[tuple[int, float]]) -> NedPrediction:
    scored.sort(key=lambda t: (-t[1], t[0]))
    return NedPrediction(query.query_id, scored[0][0], tuple(scored))


def disambiguate(query: NedQuery, graph: TypedGraph, store,
                 params: PprParams | None = None, resolver=None,
                 nodes: NodeTable | None = None,
                 include_target: bool = True) -> NedPrediction:
    """Rank the target's candidates by personalized walk probability.

    The teleport vector covers the candidates of every context mention plus,
    by default, the target's own candidates. With prior initialization each
    candidate's walk probability is multiplied by its prior before ranking.
    With no context mentions the highest-prior candidate is returned and
    flagged as a fallback. No candidates at all gives a NIL prediction.
    """
    return _disambiguate_chunk([query], graph, store, params, resolver, nodes,
                               include_target)[0]


def _disambiguate_chunk(queries: list[NedQuery], graph: TypedGraph, store,
                        params: PprParams | None, resolver,
                        nodes: NodeTable | None,
                        include_target: bool) -> list[NedPrediction]:
    """``disambiguate`` for each query, walking their teleports as one block.

    Each walk result is ranked as it is yielded and then dropped, so at most
    one block of walk vectors is held at a time.
    """
    params = params or DEFAULT_NED_PARAMS
    preds: list[NedPrediction | None] = [None] * len(queries)
    walked: list[tuple[int, DictEntry]] = []
    teleports = []
    for i, query in enumerate(queries):
        entry = generate_candidates(query.mention, store, resolver, nodes)
        if entry is None:
            preds[i] = NedPrediction(query.query_id, None, ())
            continue
        context = extract_context(query, store)
        if not context:
            preds[i] = _prior_prediction(query, entry, fallback=True)
            continue
        teleport_entries = context + [entry] if include_target else context
        teleports.append(build_teleport(teleport_entries, graph.n_nodes, params.prior_init))
        walked.append((i, entry))
    ppvs = _engine_for(graph).run_many(teleports, params)
    for (i, entry), ppv in zip(walked, ppvs):
        scored = [(c.article, ppv.get(c.article) * (c.prior if params.prior_init else 1.0))
                  for c in entry.candidates]
        preds[i] = _rank(queries[i], scored)
    return preds


def ngd_disambiguate(query: NedQuery, graph: TypedGraph, store,
                     resolver=None, nodes: NodeTable | None = None) -> NedPrediction:
    """Direct-link baseline: prior times shared-inlink relatedness to context.

    Only monosemous context mentions contribute, each weighted by its
    occurrence count inside the window. When no monosemous mention exists or
    nothing is related, this degrades to the highest-prior candidate.
    """
    entry = generate_candidates(query.mention, store, resolver, nodes)
    if entry is None:
        return NedPrediction(query.query_id, None, ())
    weights: dict[int, int] = {}
    for ctx in extract_context(query, store):
        if len(ctx.candidates) == 1:
            article = ctx.candidates[0].article
            weights[article] = weights.get(article, 0) + 1
    if not weights:
        return _prior_prediction(query, entry, fallback=True)
    scored = []
    for c in entry.candidates:
        rel = sum(w * ngd_relatedness(c.article, article, graph)
                  for article, w in weights.items())
        scored.append((c.article, c.prior * rel))
    if all(s == 0.0 for _, s in scored):
        return _prior_prediction(query, entry, fallback=True)
    return _rank(query, scored)


def mfs_baseline(query: NedQuery, store, resolver=None,
                 nodes: NodeTable | None = None) -> NedPrediction:
    """Most-frequent-sense baseline: the highest-prior candidate."""
    entry = generate_candidates(query.mention, store, resolver, nodes)
    if entry is None:
        return NedPrediction(query.query_id, None, ())
    return _prior_prediction(query, entry, fallback=False)


def run_batch(queries: list[NedQuery], graph: TypedGraph, store,
              params: PprParams | None = None, system: str = "ppr",
              workers: int | None = None, resolver=None,
              nodes: NodeTable | None = None,
              include_target: bool = True) -> list[NedPrediction]:
    """Disambiguate a batch, preserving query order.

    The batch is cut into chunks as ``parallel.map_chunks`` cuts it, on
    ``workers`` threads (None: every core), and the walk system walks each
    chunk in one block. Every walk is bitwise equal to walking its query
    alone, so results do not depend on the worker count.
    """
    if system not in ("ppr", "ngd", "mfs"):
        raise ValueError(f"unknown NED system {system!r}")

    def one(chunk: list[NedQuery]) -> list[NedPrediction]:
        if system == "ppr":
            return _disambiguate_chunk(chunk, graph, store, params, resolver, nodes,
                                       include_target)
        if system == "ngd":
            return [ngd_disambiguate(q, graph, store, resolver, nodes) for q in chunk]
        return [mfs_baseline(q, store, resolver, nodes) for q in chunk]

    if system == "ppr":
        _engine_for(graph)  # built once here, not raced for by the workers
    return map_chunks(one, queries, workers)


def _target_index(text: str, tokens: list[str], mention: str,
                  char_offset: int | None) -> int:
    if char_offset is not None:
        pos = 0
        for i, m in enumerate(_TOKEN_RE.finditer(text)):
            pos = i
            if m.end() > char_offset:
                return i
        return pos
    # search for the mention's first token-aligned occurrence
    want = [w.casefold() for w in mention.split()]
    stripped = [t.casefold().strip(".,;:!?\"'") for t in tokens]
    for i in range(len(tokens) - len(want) + 1):
        window = stripped[i:i + len(want)]
        if window == want or [t.casefold() for t in tokens[i:i + len(want)]] == want:
            return i
    return 0


def load_queries(path: str) -> list[NedQuery]:
    """Read a query TSV: query_id, mention, context_file[, char_offset[, gold]].

    Context files are plain UTF-8 text, resolved relative to the TSV's
    directory and tokenized on whitespace; each distinct file is read once,
    and its queries share one token tuple. Without a character offset the
    first occurrence of the mention locates the target; an offset must lie
    within the context text. Query ids must be unique within the file.
    """
    base = os.path.dirname(os.path.abspath(path))
    queries: list[NedQuery] = []
    seen: set[str] = set()
    documents: dict[str, tuple[str, tuple[str, ...]]] = {}  # resolved path -> text, tokens
    for lineno, cols in read_tsv(path, 3, None):
        query_id, mention, context_file = cols[0], cols[1], cols[2]
        if query_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate query id {query_id!r}")
        if not mention:
            raise DataError(f"{path}:{lineno}: empty mention")
        seen.add(query_id)
        offset = None
        if len(cols) > 3 and cols[3] != "":
            try:
                offset = int(cols[3])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad char offset {cols[3]!r}") from None
        gold = cols[4] if len(cols) > 4 and cols[4] != "" else None
        ctx_path = os.path.join(base, context_file)
        key = os.path.realpath(ctx_path)
        if key not in documents:
            try:
                with open(ctx_path, encoding="utf-8") as ctx:
                    text = ctx.read()
            except OSError as exc:
                raise DataError(f"{path}:{lineno}: cannot read context file: {exc}") from None
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: context file {ctx_path}: invalid UTF-8 "
                                f"at byte {exc.start}") from None
            documents[key] = text, tuple(text.split())
        text, tokens = documents[key]
        if offset is not None and not 0 <= offset < len(text):
            raise DataError(f"{path}:{lineno}: char offset {offset} is outside the "
                            f"{len(text)} characters of {context_file}")
        target = _target_index(text, tokens, mention, offset) if tokens else 0
        queries.append(NedQuery(query_id, mention, tokens, target, gold))
    return queries


def write_predictions(preds: list[NedPrediction], nodes: NodeTable,
                      path: str) -> None:
    """Write predictions as TSV: query_id, predicted_title, score, fallback."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query_id\tpredicted_title\tscore\tfallback_used\n")
        for p in preds:
            fh.write(f"{p.query_id}\t{p.title(nodes)}\t{p.score:.12g}\t"
                     f"{'true' if p.fallback_used else 'false'}\n")


class CachedHttpResolver:
    """Title search over an HTTP endpoint with a JSON file cache.

    ``url_template`` must contain ``{query}``; the response is expected to be
    JSON, either opensearch-shaped (``[query, [titles...]]``) or an object
    with a ``title`` key. Lookups are rate limited and cache writes are
    atomic. A failed fetch resolves to None, so the candidate cascade simply
    moves on, and is not cached, so a later call tries it again; a response
    with no title is cached as null.
    """

    def __init__(self, url_template: str, cache_path: str,
                 timeout: float = 5.0, min_interval: float = 0.5):
        self.url_template = url_template
        self.cache_path = cache_path
        self.timeout = timeout
        self.min_interval = min_interval
        self._lock = threading.Lock()
        self._last_call = 0.0
        self._cache: dict[str, str | None] = {}
        if os.path.exists(cache_path):
            with open(cache_path, encoding="utf-8") as fh:
                try:
                    self._cache = json.load(fh)
                except ValueError as exc:
                    raise DataError(f"{cache_path}: bad resolver cache: {exc}") from None
            if not isinstance(self._cache, dict):
                raise DataError(f"{cache_path}: resolver cache is not a JSON object")
            for mention, title in self._cache.items():
                if title is not None and not isinstance(title, str):
                    raise DataError(f"{cache_path}: resolver cache value for {mention!r} "
                                    f"is not a title or null")

    def resolve(self, mention: str) -> str | None:
        # the lock never spans the sleep or the fetch: a cache hit must not wait on a miss
        with self._lock:
            if mention in self._cache:
                return self._cache[mention]
            now = time.monotonic()
            self._last_call = slot = max(now, self._last_call + self.min_interval)
        time.sleep(slot - now)
        try:
            title = self._fetch(mention)
        except (OSError, ValueError, http.client.HTTPException):
            return None
        with self._lock:
            self._cache[mention] = title
            self._save()
        return title

    def _fetch(self, mention: str) -> str | None:
        url = self.url_template.format(query=urllib.parse.quote(mention))
        with urllib.request.urlopen(url, timeout=self.timeout) as resp:
            return _extract_title(json.load(resp))

    def _save(self) -> None:
        tmp = self.cache_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._cache, fh, ensure_ascii=False, sort_keys=True)
        os.replace(tmp, self.cache_path)


def _extract_title(payload):
    if isinstance(payload, list) and len(payload) > 1 and isinstance(payload[1], list):
        for item in payload[1]:
            if isinstance(item, str) and item:
                return item
    if isinstance(payload, dict):
        title = payload.get("title")
        if isinstance(title, str) and title:
            return title
    return None
