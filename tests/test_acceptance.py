"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines alongside the pytest result markers.
"""

from __future__ import annotations

import resource
import time

import numpy as np
import pytest

import graphwalk as gw
from graphwalk.cli import main
from graphwalk.dictionary import Candidate, DictEntry, Dictionary
from graphwalk.evaluation import fisher_z_test, paired_bootstrap, spearman
from graphwalk.ned import NedQuery, disambiguate, mfs_baseline, ngd_disambiguate
from graphwalk.ppr import PprParams, ScoreVector, build_teleport, run_ppr
from graphwalk.relatedness import ngd_relatedness

from conftest import (LIONS_SENTENCE, dense_ppr, graph_from_arcs,
                      naive_reciprocal, naive_undirected, random_arc_set,
                      score_vector, spearman_oracle, to_dense, write_lions_corpus,
                      arc_set_of)


def note(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion}: {message}")


def test_c01_walk_matches_dense_oracle_on_200_random_graphs():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for i in range(200):
        n = int(rng.integers(2, 51))
        arcs = random_arc_set(rng, n, force_dangling=bool(i % 2))
        g = graph_from_arcs(n, arcs)
        k = min(n, int(rng.integers(1, 4)))
        ids = rng.choice(n, size=k, replace=False)
        weights = rng.random(k) + 0.05
        weights /= weights.sum()
        v_dense = np.zeros(n)
        v_dense[ids] = weights
        iters = int(rng.integers(1, 31))
        alpha = float(rng.uniform(0.5, 0.99))
        got = run_ppr(g, ScoreVector.from_dense(v_dense),
                      PprParams(alpha=alpha, iterations=iters, k=None))
        want = dense_ppr(n, arcs, v_dense, alpha, iters)
        assert np.abs(to_dense(got) - want).sum() <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    note(1, f"200 random graphs match the dense oracle within 1e-9 L1 "
            f"({elapsed:.2f}s)")


def test_c02_two_node_closed_form():
    g = gw.TypedGraph.from_arcs(2, [0, 1], [1, 0])
    v = score_vector({0: 1.0}, 2)
    out = to_dense(run_ppr(g, v, PprParams(alpha=0.85, iterations=200, k=None)))
    assert abs(out[0] - 0.5405405405405406) < 1e-6
    assert abs(out[1] - 0.4594594594594595) < 1e-6
    note(2, f"two-node walk converges to ({out[0]:.9f}, {out[1]:.9f})")


def test_c03_graph_transforms_match_naive_sets_on_100_fixtures():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 50))
        arcs = random_arc_set(rng, n)
        g = graph_from_arcs(n, arcs)
        und = arc_set_of(gw.to_undirected(g))
        rec = arc_set_of(gw.filter_reciprocal(g))
        assert und == naive_undirected(arcs)
        assert rec == naive_reciprocal(arcs)
        other = random_arc_set(rng, n)
        merged = arc_set_of(gw.merge([g, graph_from_arcs(n, other)]))
        assert merged == arcs | other
        # structural relationships between the direction modes
        assert rec <= und
        assert und == {(b, a) for a, b in und}
        assert rec == {(b, a) for a, b in rec}
        pairs = {frozenset(p) for p in arcs}
        assert len(und) == 2 * len(pairs)
        assert len(rec) <= len(arcs) <= len(und)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    note(3, f"100 fixtures: transforms equal naive set reimplementations "
            f"({elapsed:.2f}s)")


def test_c04_direct_links_and_walk_disagree_on_the_lions_mention(lions):
    graph, store, nodes, query = lions
    direct = ngd_disambiguate(query, graph, store)
    assert nodes.title_of(direct.predicted) == "B&I_Lions"
    prior = mfs_baseline(query, store)
    assert nodes.title_of(prior.predicted) == "B&I_Lions"
    for iters in (5, 15, 30):
        walked = disambiguate(query, graph, store,
                              PprParams(iterations=iters, k=None))
        assert nodes.title_of(walked.predicted) == "Highveld_Lions"
    note(4, "shared-inlink scoring picks B&I_Lions, the walk picks "
            "Highveld_Lions at 5/15/30 iterations")


def test_c05_dictionary_priors_normalize_and_match_published_rounding():
    rng = np.random.default_rng(55)
    counts = {}
    for i in range(10_000):
        n_cand = int(rng.integers(1, 7))
        articles = rng.choice(40_000, size=n_cand, replace=False)
        counts[f"mention {i}"] = {int(a): int(rng.integers(1, 500))
                                  for a in articles}
    d = Dictionary.from_counts(counts)
    assert len(d) == 10_000
    for entry in d.entries.values():
        assert abs(sum(c.prior for c in entry.candidates) - 1.0) <= 1e-9

    gotham = Dictionary.from_counts(
        {"gotham": {0: 32, 1: 15, 2: 35, 3: 1, 4: 1}}).get("gotham")
    priors = {c.article: c.prior for c in gotham.candidates}
    assert round(priors[0], 2) == 0.38
    assert round(priors[1], 2) == 0.18
    assert sum(c.count for c in gotham.candidates) == 84
    note(5, "10k random entries normalize within 1e-9; the 32-of-84 and "
            "15-of-84 candidates round to 0.38 and 0.18")


def test_c06_shared_inlink_score_hand_case_is_exact():
    src = [2, 3, 4, 5, 4, 5, 6]
    dst = [0, 0, 0, 0, 1, 1, 7]
    g = gw.TypedGraph.from_arcs(8, src, dst)
    assert g.non_isolated_count() == 8
    assert ngd_relatedness(0, 1, g) == 0.5
    ident = gw.TypedGraph.from_arcs(4, [2, 2, 3, 3], [0, 1, 0, 1])
    assert ngd_relatedness(0, 1, ident) == 1.0
    disjoint = gw.TypedGraph.from_arcs(6, [2, 3], [0, 1])
    assert ngd_relatedness(0, 1, disjoint) == 0.0
    note(6, "hand case (W=8, |A|=4, |B|=2, overlap 2) scores exactly 0.5; "
            "identity and disjoint cases hit 1 and 0")


def test_c07_metric_implementations_are_trustworthy():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        gold = rng.integers(0, 10, size=20).astype(float)
        pred = rng.random(20)
        if len(set(gold.tolist())) < 2:
            continue
        assert spearman(gold, pred) == pytest.approx(
            spearman_oracle(gold.tolist(), pred.tolist()), abs=1e-12)

    assert fisher_z_test(0.42, 0.42, 65, 65) == 1.0
    assert fisher_z_test(-0.9, -0.9, 20, 80) == 1.0

    outcomes = (rng.random(50) < 0.7).tolist()
    assert paired_bootstrap(outcomes, list(outcomes), 10_000, seed=1) == 1.0
    a = (rng.random(80) < 0.75).tolist()
    b = (rng.random(80) < 0.55).tolist()
    values = {paired_bootstrap(a, b, 10_000, seed=99) for _ in range(3)}
    assert len(values) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    note(7, f"rank correlation matches the quadratic oracle; degenerate "
            f"significance cases are exact; bootstrap is seed-stable ({elapsed:.2f}s)")


def _synthetic_ned_world(rng):
    n = 400
    arcs = random_arc_set(rng, n, density=0.02)
    graph = graph_from_arcs(n, arcs)
    counts: dict[str, dict[int, int]] = {}
    for i in range(60):  # target mentions draw from the low node range
        k = int(rng.integers(2, 6))
        arts = rng.choice(200, size=k, replace=False)
        counts[f"target{i}"] = {int(a): int(rng.integers(1, 50)) for a in arts}
    for j in range(40):  # context mentions draw from the high range
        k = int(rng.integers(1, 4))
        arts = 200 + rng.choice(200, size=k, replace=False)
        counts[f"ctx{j}"] = {int(a): int(rng.integers(1, 50)) for a in arts}
    return graph, Dictionary.from_counts(counts)


def test_c08_zero_iteration_walk_reduces_to_most_frequent_sense():
    rng = np.random.default_rng(88)
    graph, store = _synthetic_ned_world(rng)
    params = PprParams(iterations=0, k=None, prior_init=True)
    start = time.perf_counter()
    agree = 0
    for i in range(500):
        mention = f"target{rng.integers(0, 60)}"
        tokens = ["filler"] * 7
        for _ in range(int(rng.integers(0, 4))):
            tokens.insert(int(rng.integers(0, len(tokens))),
                          f"ctx{rng.integers(0, 40)}")
        q = NedQuery(f"q{i}", mention, tuple(tokens), 3)
        walked = disambiguate(q, graph, store, params)
        prior = mfs_baseline(q, store)
        assert walked.predicted == prior.predicted
        agree += 1
    elapsed = time.perf_counter() - start
    assert agree == 500
    assert elapsed < 5.0
    note(8, f"500/500 zero-iteration predictions equal the highest-prior "
            f"candidate ({elapsed:.2f}s)")


def test_c09_ned_command_is_byte_identical_across_worker_counts(tmp_path):
    files = write_lions_corpus(tmp_path)
    ingest_dir = tmp_path / "ingested"
    data_dir = tmp_path / "data"
    assert main(["ingest", "--pages", str(files["pages"]),
                 "--links", str(files["links"]),
                 "--anchors", str(files["anchors"]),
                 "--out", str(ingest_dir)]) == 0
    assert main(["build", "--ingest-dir", str(ingest_dir),
                 "--out", str(data_dir)]) == 0
    (tmp_path / "doc.txt").write_text(LIONS_SENTENCE, encoding="utf-8")
    rows = ["query_id\tmention\tcontext_file\tchar_offset\tgold_title"]
    mentions = ["Lions", "Fletcher", "Cape Town", "Alan Kourie"]
    for i in range(20):
        rows.append(f"q{i:02d}\t{mentions[i % 4]}\tdoc.txt\t\tHighveld_Lions")
    queries = tmp_path / "queries.tsv"
    queries.write_text("\n".join(rows) + "\n", encoding="utf-8")

    start = time.perf_counter()
    outputs = []
    for workers in ("1", "8", "1"):
        out = tmp_path / f"preds_{len(outputs)}.tsv"
        assert main(["ned", "--data", str(data_dir), "--queries", str(queries),
                     "--out", str(out), "--workers", workers]) == 0
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    assert outputs[0] == outputs[1] == outputs[2]
    assert elapsed < 10.0
    note(9, f"prediction files identical for worker counts 1 and 8 and on "
            f"rerun ({elapsed:.2f}s)")


def test_c10_single_query_scales_to_ten_million_arcs():
    rng = np.random.default_rng(1010)
    n = 1_000_000
    m_raw = 10_600_000
    src = rng.integers(0, n, size=m_raw, dtype=np.int64)
    dst = (rng.random(m_raw) ** 3 * n).astype(np.int64)  # heavy-tailed targets
    keep = src != dst
    graph = gw.TypedGraph.from_arcs(n, src[keep], dst[keep], spec="Hd")
    assert graph.n_arcs >= 10_000_000

    entry = DictEntry("probe", (Candidate(123_456, 3, 0.6),
                                Candidate(777, 2, 0.4)))
    start = time.perf_counter()
    teleport = build_teleport([entry], n)
    ppv = run_ppr(graph, teleport, PprParams(iterations=30, k=None))
    elapsed = time.perf_counter() - start
    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1048576
    assert abs(ppv.total() - 1.0) <= 1e-9
    assert elapsed < 60.0
    assert peak_gib < 2.0
    note(10, f"{graph.n_arcs:,} arcs: 30-iteration query in {elapsed:.1f}s, "
             f"peak rss {peak_gib:.2f} GiB")
