from __future__ import annotations

import json
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

import graphwalk as gw
from graphwalk import ppr
from graphwalk.dictionary import Candidate, Dictionary
from graphwalk.graph import NodeTable
from graphwalk.ned import (CachedHttpResolver, NedQuery, disambiguate,
                           extract_context, generate_candidates, load_queries,
                           mfs_baseline, ngd_disambiguate, run_batch, write_predictions)
from graphwalk.parallel import map_in_order
from graphwalk.ppr import PprParams

from conftest import build_lions_graph


@pytest.fixture()
def cascade_dict():
    return Dictionary.from_counts({
        "smith": {1: 6, 2: 3},
        "white house": {3: 9},
        "john smith": {1: 4},
        "gotham": {10: 32, 11: 15, 12: 35, 13: 1, 14: 1},
    })


def test_parenthetical_stripped_before_lookup(cascade_dict):
    entry = generate_candidates("Smith (politician)", cascade_dict)
    assert entry.mention == "smith"


def test_leading_the_dropped_on_miss(cascade_dict):
    entry = generate_candidates("The White House", cascade_dict)
    assert entry.mention == "white house"


def test_middle_token_dropped_for_three_token_mentions(cascade_dict):
    entry = generate_candidates("John Q Smith", cascade_dict)
    assert entry.mention == "john smith"


def test_direct_hit_stops_the_cascade(cascade_dict):
    entry = generate_candidates("john smith", cascade_dict)
    assert entry.mention == "john smith"


def test_all_heuristics_fail(cascade_dict):
    assert generate_candidates("Completely Unknown Thing Here", cascade_dict) is None


class OneShotResolver:
    def __init__(self, answer):
        self.answer = answer
        self.calls = []

    def resolve(self, mention):
        self.calls.append(mention)
        return self.answer


def test_remote_resolver_is_last_resort(cascade_dict):
    nodes = NodeTable(["Pad"] * 0 + [f"T{i}" for i in range(20)],
                      np.zeros(20, dtype=np.uint8))
    resolver = OneShotResolver("T7")
    entry = generate_candidates("Mystery Entity", cascade_dict, resolver, nodes)
    assert entry.candidates == (Candidate(7, 0, 1.0),)
    assert resolver.calls == ["Mystery Entity"]
    # not consulted when the dictionary already answers
    resolver.calls.clear()
    generate_candidates("gotham", cascade_dict, resolver, nodes)
    assert resolver.calls == []


def test_resolver_title_outside_nodes_fails(cascade_dict):
    nodes = NodeTable(["Only"], np.zeros(1, dtype=np.uint8))
    entry = generate_candidates("Mystery", cascade_dict,
                                OneShotResolver("Elsewhere"), nodes)
    assert entry is None


# --- context extraction ------------------------------------------------------

def test_short_document_scans_everything(cascade_dict):
    tokens = ("we", "saw", "the", "white", "house", "today")
    q = NedQuery("q", "gotham", tokens, 1)
    entries = extract_context(q, cascade_dict)
    assert [e.mention for e in entries] == ["white house"]


def test_no_matches_gives_empty_context(cascade_dict):
    q = NedQuery("q", "gotham", ("nothing", "relevant", "here"), 1)
    assert extract_context(q, cascade_dict) == []


def test_target_span_is_excluded(cascade_dict):
    tokens = ("john", "smith", "met", "smith")
    q = NedQuery("q", "John Smith", tokens, 0)
    entries = extract_context(q, cascade_dict)
    # only the trailing single "smith" remains
    assert [e.mention for e in entries] == ["smith"]


def test_window_is_clipped_to_50_each_side(cascade_dict):
    # "white house" at positions 0-1, target at 52: outside the 50-token window
    tokens = tuple(["white", "house"] + ["filler"] * 58)
    q_far = NedQuery("q", "x", tokens, 52)
    assert extract_context(q_far, cascade_dict) == []
    # at positions 10-11 with the target at 60 it sits exactly on the edge
    tokens = tuple(["filler"] * 10 + ["white", "house"] + ["filler"] * 48
                   + ["x"] + ["filler"] * 60)
    q_near = NedQuery("q", "x", tokens, 60)
    assert [e.mention for e in extract_context(q_near, cascade_dict)] == ["white house"]


# --- disambiguation ----------------------------------------------------------

def test_single_candidate_wins_regardless_of_walk(lions):
    graph, store, nodes, _ = lions
    tokens = tuple("met fletcher in cape town".split())
    q = NedQuery("q", "Alan Kourie", tokens, 0)
    pred = disambiguate(q, graph, store)
    assert pred.predicted == 2
    assert not pred.fallback_used


def test_empty_context_falls_back_to_prior(lions):
    graph, store, nodes, _ = lions
    q = NedQuery("q", "Lions", ("the", "lions", "won"), 1)
    pred = disambiguate(q, graph, store)
    assert pred.predicted == 0  # highest prior
    assert pred.fallback_used


def test_no_candidates_predicts_nil(lions):
    graph, store, nodes, _ = lions
    q = NedQuery("q", "Zzqx", ("some", "zzqx", "mention"), 1)
    pred = disambiguate(q, graph, store)
    assert pred.predicted is None
    assert pred.candidate_scores == ()


def test_walk_flips_the_ambiguous_mention(lions):
    graph, store, nodes, query = lions
    pred = disambiguate(query, graph, store, PprParams(iterations=15, k=None))
    assert nodes.title_of(pred.predicted) == "Highveld_Lions"
    direct = ngd_disambiguate(query, graph, store)
    assert nodes.title_of(direct.predicted) == "B&I_Lions"
    prior_only = mfs_baseline(query, store)
    assert nodes.title_of(prior_only.predicted) == "B&I_Lions"


def test_prediction_always_among_candidates(lions):
    graph, store, nodes, query = lions
    candidates = {c.article for c in store.lookup(query.mention).candidates}
    for params in (PprParams(iterations=1, k=None), PprParams(iterations=30, k=None),
                   PprParams(iterations=15, k=None, prior_init=False)):
        pred = disambiguate(query, graph, store, params)
        assert pred.predicted in candidates
        assert {a for a, _ in pred.candidate_scores} == candidates


def test_scores_sorted_descending(lions):
    graph, store, nodes, query = lions
    pred = disambiguate(query, graph, store)
    scores = [s for _, s in pred.candidate_scores]
    assert scores == sorted(scores, reverse=True)


def test_context_only_teleport_flag(lions):
    graph, store, nodes, query = lions
    with_target = disambiguate(query, graph, store, include_target=True)
    without = disambiguate(query, graph, store, include_target=False)
    assert with_target.predicted == without.predicted == 1
    assert with_target.candidate_scores != without.candidate_scores


# --- direct-link baseline ----------------------------------------------------

def test_ngd_no_monosemous_context_reduces_to_prior(lions):
    graph, store, nodes, _ = lions
    # "fletcher" is ambiguous, so nothing contributes to the link score
    q = NedQuery("q", "Lions", ("lions", "and", "fletcher"), 0)
    pred = ngd_disambiguate(q, graph, store)
    assert pred.predicted == 0
    assert pred.fallback_used


def test_ngd_single_candidate(lions):
    graph, store, nodes, _ = lions
    q = NedQuery("q", "Cape Town", ("cape", "town", "with", "fletcher"), 0)
    pred = ngd_disambiguate(q, graph, store)
    assert pred.predicted == 5


def test_ngd_shared_inlinker_wins():
    # candidate 0 shares an in-linking article with the context article 3;
    # candidate 1 shares none
    pairs = [(0, 2), (3, 2), (1, 4), (3, 5)]
    src = [a for a, b in pairs] + [b for a, b in pairs]
    dst = [b for a, b in pairs] + [a for a, b in pairs]
    g = gw.TypedGraph.from_arcs(6, src, dst)
    d = Dictionary.from_counts({"amb": {0: 5, 1: 5}, "ctx": {3: 3}})
    q = NedQuery("q", "amb", ("amb", "near", "ctx"), 0)
    pred = ngd_disambiguate(q, g, d)
    assert pred.predicted == 0
    assert pred.candidate_scores[0][1] > 0
    # hand check against the formula
    want = 0.5 * naive_score(pairs, 0, 3, 6)
    assert pred.candidate_scores[0][1] == pytest.approx(want)


def naive_score(pairs, a, b, n):
    from conftest import naive_ngd_score
    arcs = set(pairs) | {(y, x) for x, y in pairs}
    return naive_ngd_score(arcs, a, b, n)


# --- most-frequent-sense baseline --------------------------------------------

def test_mfs_picks_highest_prior(cascade_dict):
    q = NedQuery("q", "Gotham", ("gotham", "at", "night"), 0)
    pred = mfs_baseline(q, cascade_dict)
    assert pred.predicted == 12  # count 35 of 84


def test_mfs_tie_breaks_to_lower_id():
    d = Dictionary.from_counts({"m": {9: 5, 4: 5}})
    pred = mfs_baseline(NedQuery("q", "m", ("m",), 0), d)
    assert pred.predicted == 4


def test_mfs_nil_when_unknown(cascade_dict):
    pred = mfs_baseline(NedQuery("q", "zzqx", ("zzqx",), 0), cascade_dict)
    assert pred.predicted is None


# --- zero-iteration reduction ------------------------------------------------

def test_zero_iterations_with_priors_reduces_to_mfs(lions):
    graph, store, nodes, query = lions
    walk = disambiguate(query, graph, store, PprParams(iterations=0, k=None))
    prior = mfs_baseline(query, store)
    assert walk.predicted == prior.predicted


# --- batching ----------------------------------------------------------------

def test_run_batch_is_worker_count_invariant(lions):
    graph, store, nodes, query = lions
    queries = []
    for i in range(24):
        mention = ("Lions", "Fletcher", "Cape Town")[i % 3]
        tokens = tuple(f"q{i}".split()) + query.context_tokens
        queries.append(NedQuery(f"q{i}", mention, tokens,
                                list(tokens).index("lions") if i % 3 == 0 else 0))
    serial = run_batch(queries, graph, store, workers=1)
    threaded = run_batch(queries, graph, store, workers=8)
    assert serial == threaded
    assert [p.query_id for p in serial] == [q.query_id for q in queries]


def chunk_boundary_queries(query: NedQuery, count: int) -> list[NedQuery]:
    """Walked queries with distinct teleports, interleaved with NIL queries
    (no candidates) and no-context fallbacks, so a walk result handed to the
    wrong query would show."""
    words = query.context_tokens
    out = []
    for i in range(count):
        if i % 5 == 3:
            out.append(NedQuery(f"q{i}", "Zzqx", ("some", "zzqx"), 1))
        elif i % 7 == 2:
            out.append(NedQuery(f"q{i}", "Lions", ("the", "lions", "won"), 1))
        else:
            # a different window of the sentence each time
            cut = i % (len(words) - 3)
            tokens = ("lions",) + words[cut:] + words[:cut]
            mention = ("Lions", "Fletcher")[i % 2]
            target = 0 if mention == "Lions" else tokens.index("fletcher")
            out.append(NedQuery(f"q{i}", mention, tokens, target))
    return out


# the walk cases keep the ids they had before the system axis was added
@pytest.mark.parametrize("system, params, include_target", [
    pytest.param("ppr", None, True, id="None-True"),
    pytest.param("ppr", None, False, id="None-False"),
    pytest.param("ppr", PprParams(iterations=15, k=None, prior_init=False), True,
                 id="params2-True"),
    pytest.param("ppr", PprParams(iterations=0, k=None), True, id="params3-True"),
    pytest.param("ngd", None, True, id="ngd"),
    pytest.param("mfs", None, True, id="mfs"),
])
def test_run_batch_equals_single_queries_across_chunk_boundaries(lions, system, params,
                                                                include_target):
    graph, store, nodes, query = lions
    one_query = {
        "ppr": lambda q: disambiguate(q, graph, store, params, include_target=include_target),
        "ngd": lambda q: ngd_disambiguate(q, graph, store),
        "mfs": lambda q: mfs_baseline(q, store),
    }[system]
    for count in (0, 1, 15, 16, 17, 33):
        queries = chunk_boundary_queries(query, count)
        alone = [one_query(q) for q in queries]
        for workers in (1, 2, 3, 8):
            assert run_batch(queries, graph, store, params, system, workers,
                             include_target=include_target) == alone
    walked = chunk_boundary_queries(query, 33)
    preds = run_batch(walked, graph, store, params, system, include_target=include_target)
    assert {p.predicted is None for p in preds} == {True, False}
    assert {p.fallback_used for p in preds} == ({False} if system == "mfs" else {True, False})
    if params is None:
        assert len({p.candidate_scores for p in preds if not p.fallback_used}) > 2


@pytest.mark.parametrize("system", ["ngd", "mfs"])
def test_baseline_systems_build_no_walk_engine(lions, system):
    _, store, nodes, query = lions
    graph = build_lions_graph()
    queries = chunk_boundary_queries(query, 33)
    preds = run_batch(queries, graph, store, system=system, workers=2)
    assert graph._engine is None
    if system == "mfs":  # the most frequent sense needs no graph at all
        assert run_batch(queries, None, store, system="mfs", workers=2) == preds
    run_batch(queries, graph, store, workers=2)
    assert graph._engine is not None


@pytest.mark.parametrize("share, levels", [(1.01, 15), (0.0, 0)],
                         ids=["cone_every_iteration", "no_cone"])
def test_run_batch_predictions_do_not_depend_on_the_cone(lions, share, levels):
    graph, store, nodes, query = lions
    queries = chunk_boundary_queries(query, 33)
    want = run_batch(queries, graph, store, workers=2)
    cones = []
    cone = ppr.PprEngine._cone

    def counting_cone(self, *args):
        rows = cone(self, *args)
        cones.append(len(rows))
        return rows

    with mock.patch.object(ppr, "_FRONTIER_ARCS", share), \
            mock.patch.object(ppr.PprEngine, "_cone", counting_cone):
        assert run_batch(queries, build_lions_graph(), store, workers=2) == want
    assert set(cones) == {levels}


def test_ngd_reads_the_reverse_graph_the_walks_built(lions):
    _, store, nodes, query = lions
    graph = build_lions_graph()
    queries = chunk_boundary_queries(query, 33)
    run_batch(queries, graph, store, workers=2)
    reverse = graph._reverse
    assert reverse is not None
    run_batch(queries, graph, store, system="ngd", workers=2)
    assert graph.reverse() is reverse


def test_run_batch_rejects_unknown_system(lions):
    graph, store, nodes, query = lions
    with pytest.raises(ValueError):
        run_batch([query], graph, store, system="oracle")


@pytest.mark.parametrize("workers", [0, -3])
def test_run_batch_rejects_fewer_than_one_worker(lions, workers):
    graph, store, nodes, query = lions
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_batch([query], graph, store, workers=workers)


# --- IO ----------------------------------------------------------------------

def test_load_queries_and_offsets(tmp_path):
    ctx = tmp_path / "doc1.txt"
    ctx.write_text("Alan Kourie spoke about the Lions in Cape Town", encoding="utf-8")
    tsv = tmp_path / "queries.tsv"
    tsv.write_text(
        "query_id\tmention\tcontext_file\tchar_offset\tgold_title\n"
        "q1\tLions\tdoc1.txt\t28\tHighveld_Lions\n"
        "q2\tLions\tdoc1.txt\t\t\n"
        "q3\tCape Town\tdoc1.txt\n",
        encoding="utf-8")
    queries = load_queries(str(tsv))
    assert queries[0].target_index == 5
    assert queries[0].gold_title == "Highveld_Lions"
    assert queries[1].target_index == 5  # found by scanning
    assert queries[1].gold_title is None
    assert queries[2].target_index == 7
    assert queries[2].mention == "Cape Town"


@pytest.mark.parametrize("offset", [-1, 46, 47, 10_000])
def test_load_queries_rejects_an_offset_outside_the_context(tmp_path, offset):
    text = "Alan Kourie spoke about the Lions in Cape Town"
    assert len(text) == 46
    (tmp_path / "doc1.txt").write_text(text, encoding="utf-8")
    tsv = tmp_path / "queries.tsv"
    tsv.write_text("query_id\tmention\tcontext_file\tchar_offset\n"
                   "q1\tLions\tdoc1.txt\t45\n"
                   f"q2\tLions\tdoc1.txt\t{offset}\n", encoding="utf-8")
    with pytest.raises(gw.DataError, match=re.escape(
            f"queries.tsv:3: char offset {offset} is outside the 46 characters of doc1.txt")):
        load_queries(str(tsv))
    tsv.write_text("query_id\tmention\tcontext_file\tchar_offset\n"
                   "q1\tTown\tdoc1.txt\t45\n", encoding="utf-8")
    assert load_queries(str(tsv))[0].target_index == 8


def test_load_queries_reads_each_context_file_once(tmp_path, monkeypatch):
    (tmp_path / "doc1.txt").write_text("the Lions in Cape Town", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "doc2.txt").write_text("Cape Town again", encoding="utf-8")
    tsv = tmp_path / "queries.tsv"
    tsv.write_text(
        "query_id\tmention\tcontext_file\n"
        "q1\tLions\tdoc1.txt\n"
        "q2\tCape Town\tsub/../doc1.txt\n"
        "q3\tCape Town\tsub/doc2.txt\n"
        "q4\tLions\t./doc1.txt\n",
        encoding="utf-8")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    queries = load_queries(str(tsv))
    monkeypatch.undo()
    assert sum(p.endswith(".txt") for p in opened) == 2
    assert queries[0].context_tokens is queries[1].context_tokens is queries[3].context_tokens
    assert queries[2].context_tokens == ("Cape", "Town", "again")
    assert [q.target_index for q in queries] == [1, 3, 0, 1]


def test_load_queries_missing_context_errors(tmp_path):
    tsv = tmp_path / "queries.tsv"
    tsv.write_text("query_id\tmention\tcontext_file\nq1\tX\tmissing.txt\n",
                   encoding="utf-8")
    with pytest.raises(gw.DataError):
        load_queries(str(tsv))


def test_write_predictions_format(tmp_path, lions):
    graph, store, nodes, query = lions
    preds = run_batch([query], graph, store)
    nil = run_batch([NedQuery("q2", "Zzqx", ("zzqx",), 0)], graph, store)
    path = tmp_path / "preds.tsv"
    write_predictions(preds + nil, nodes, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "query_id\tpredicted_title\tscore\tfallback_used"
    assert lines[1].startswith("lions-1\tHighveld_Lions\t")
    assert lines[2] == "q2\tNIL\t0\tfalse"


# --- remote resolver ---------------------------------------------------------

def test_cached_resolver_caches_and_degrades(tmp_path, monkeypatch):
    cache = tmp_path / "cache.json"
    resolver = CachedHttpResolver("http://example.invalid/search?q={query}",
                                  str(cache), min_interval=0.0)
    answers = {"Alpha": "Alpha_Page"}
    calls = []

    def fake_fetch(mention):
        calls.append(mention)
        return answers.get(mention)

    monkeypatch.setattr(resolver, "_fetch", fake_fetch)
    assert resolver.resolve("Alpha") == "Alpha_Page"
    assert resolver.resolve("Alpha") == "Alpha_Page"
    assert calls == ["Alpha"]  # second hit served from cache
    assert resolver.resolve("Beta") is None  # failure degrades to no title
    assert json.loads(cache.read_text()) == {"Alpha": "Alpha_Page", "Beta": None}
    # a fresh instance reuses the on-disk cache
    resolver2 = CachedHttpResolver("http://example.invalid/{query}", str(cache),
                                   min_interval=0.0)
    monkeypatch.setattr(resolver2, "_fetch", lambda m: pytest.fail("not cached"))
    assert resolver2.resolve("Alpha") == "Alpha_Page"


def test_cached_mention_resolves_while_a_miss_is_fetching(tmp_path, monkeypatch):
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps({"Alpha": "Alpha_Page"}), encoding="utf-8")
    resolver = CachedHttpResolver("http://example.invalid/{query}", str(cache),
                                  min_interval=0.0)
    fetching, release = threading.Event(), threading.Event()

    def blocking_fetch(mention):
        fetching.set()
        release.wait(10)
        return mention + "_Page"

    monkeypatch.setattr(resolver, "_fetch", blocking_fetch)
    results = {}
    miss = threading.Thread(target=lambda: results.update(beta=resolver.resolve("Beta")))
    hit = threading.Thread(target=lambda: results.update(alpha=resolver.resolve("Alpha")))
    miss.start()
    try:
        assert fetching.wait(5)
        hit.start()
        hit.join(2)
        assert not hit.is_alive(), "a cache hit waited behind another thread's fetch"
    finally:
        release.set()
        miss.join(5)
        hit.join(5)
    assert not miss.is_alive()
    assert results == {"alpha": "Alpha_Page", "beta": "Beta_Page"}
    assert json.loads(cache.read_text()) == {"Alpha": "Alpha_Page", "Beta": "Beta_Page"}


def test_resolver_keeps_every_answer_and_spaces_calls_under_threads(tmp_path,
                                                                   monkeypatch):
    resolver = CachedHttpResolver("http://example.invalid/{query}",
                                  str(tmp_path / "cache.json"), min_interval=0.002)
    starts = []
    monkeypatch.setattr(resolver, "_fetch",
                        lambda m: starts.append(time.monotonic()) or m.upper())
    mentions = [f"m{i}" for i in range(40)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    begin = time.monotonic()
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(resolver.resolve, mentions * 2))
    finally:
        sys.setswitchinterval(switch)
    assert answers == [m.upper() for m in mentions * 2]
    assert json.loads((tmp_path / "cache.json").read_text()) == {m: m.upper()
                                                                for m in mentions}
    # each miss reserves the next call slot, min_interval after the one before
    assert len(starts) >= len(mentions)
    assert max(starts) - begin >= (len(mentions) - 1) * 0.002 - 1e-6


def test_map_in_order_is_serial_at_one_worker():
    ran = []

    def fail_on_two(x):
        ran.append(x)
        if x == 2:
            raise RuntimeError("cell failed")
        return x * 10

    assert map_in_order(fail_on_two, [0, 1, 3], 1) == [0, 10, 30]
    assert map_in_order(fail_on_two, [3, 1, 0, 4], 3) == [30, 10, 0, 40]
    for workers in (0, 1):
        ran.clear()
        with pytest.raises(RuntimeError):
            map_in_order(fail_on_two, [0, 1, 2, 3, 4], workers)
        assert ran == [0, 1, 2]
    with pytest.raises(RuntimeError):
        map_in_order(fail_on_two, [0, 1, 2, 3, 4], 2)


def test_resolver_network_failure_returns_none(tmp_path):
    resolver = CachedHttpResolver("http://127.0.0.1:1/nothing?q={query}",
                                  str(tmp_path / "c.json"), timeout=0.2,
                                  min_interval=0.0)
    assert resolver.resolve("anything") is None
    assert not (tmp_path / "c.json").exists()  # the failure is not cached


def test_a_failed_fetch_is_retried_and_a_titleless_one_is_cached(tmp_path, monkeypatch):
    cache = tmp_path / "cache.json"
    resolver = CachedHttpResolver("http://example.invalid/{query}", str(cache),
                                  min_interval=0.0)
    calls = []

    def fetch_failing_once(mention):
        calls.append(mention)
        if len(calls) == 1:
            raise OSError("connection reset")
        return {"Alpha": "Alpha_Page"}.get(mention)

    monkeypatch.setattr(resolver, "_fetch", fetch_failing_once)
    assert resolver.resolve("Alpha") is None
    assert not cache.exists()
    assert resolver.resolve("Alpha") == "Alpha_Page"
    assert resolver.resolve("Beta") is None
    assert resolver.resolve("Beta") is None
    assert calls == ["Alpha", "Alpha", "Beta"]
    assert json.loads(cache.read_text()) == {"Alpha": "Alpha_Page", "Beta": None}
    # a fresh instance retries nothing it has an answer for
    resolver2 = CachedHttpResolver("http://example.invalid/{query}", str(cache),
                                   min_interval=0.0)
    monkeypatch.setattr(resolver2, "_fetch", lambda m: pytest.fail("not cached"))
    assert (resolver2.resolve("Alpha"), resolver2.resolve("Beta")) == ("Alpha_Page", None)


def test_load_queries_rejects_duplicate_ids(tmp_path):
    (tmp_path / "doc.txt").write_text("the Lions played", encoding="utf-8")
    tsv = tmp_path / "queries.tsv"
    tsv.write_text("query_id\tmention\tcontext_file\n"
                   "q1\tLions\tdoc.txt\nq2\tLions\tdoc.txt\nq1\tLions\tdoc.txt\n",
                   encoding="utf-8")
    with pytest.raises(gw.DataError, match=r"queries\.tsv:4: duplicate query id 'q1'"):
        load_queries(str(tsv))


def test_load_queries_rejects_empty_mention(tmp_path):
    (tmp_path / "doc.txt").write_text("the Lions played", encoding="utf-8")
    tsv = tmp_path / "queries.tsv"
    tsv.write_text("query_id\tmention\tcontext_file\nq1\t\tdoc.txt\n", encoding="utf-8")
    with pytest.raises(gw.DataError, match=r"queries\.tsv:2: empty mention"):
        load_queries(str(tsv))


@pytest.mark.parametrize("content, message", [
    ("{bad", "bad resolver cache"),
    ("[1, 2]", "resolver cache is not a JSON object"),
    ('{"zzqx": ["Lions"]}', "resolver cache value for 'zzqx' is not a title or null"),
    ('{"Alpha": "Alpha_Page", "zzqx": 5}',
     "resolver cache value for 'zzqx' is not a title or null"),
])
def test_corrupt_resolver_cache_is_a_data_error(tmp_path, content, message):
    cache = tmp_path / "cache.json"
    cache.write_text(content, encoding="utf-8")
    with pytest.raises(gw.DataError, match=rf"cache\.json: {message}"):
        CachedHttpResolver("http://example.invalid/{query}", str(cache))
