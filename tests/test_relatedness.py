from __future__ import annotations

import sys

import numpy as np
import pytest

import graphwalk as gw
from graphwalk.dictionary import Dictionary
from graphwalk.ppr import PprParams, ScoreVector
from graphwalk.relatedness import (UnknownTermError, combine_scores, cosine,
                                   ngd_relate, ngd_relatedness, relate,
                                   score_pairs, term_ppv)

from conftest import graph_from_arcs, naive_ngd_score, random_arc_set


@pytest.fixture(scope="module")
def drink_world():
    """Small symmetric graph with overlapping beverage neighborhoods."""
    titles = ["Drink", "Alcohol", "Alcoholic_beverage", "Drinking", "Coffee",
              "Tea", "Ethanol", "Alkene", "Alcoholism", "Chemistry"]
    pairs = [(0, 2), (0, 3), (0, 4), (0, 5),          # drink neighborhood
             (1, 2), (1, 6), (1, 7), (1, 8),          # alcohol neighborhood
             (6, 9), (7, 9), (4, 5)]
    src = [a for a, b in pairs] + [b for a, b in pairs]
    dst = [b for a, b in pairs] + [a for a, b in pairs]
    g = gw.TypedGraph.from_arcs(len(titles), src, dst, spec="Hr")
    d = Dictionary.from_counts({
        "drink": {0: 20, 3: 5},
        "alcohol": {1: 25, 2: 3},
        "coffee": {4: 9},
        "chemistry": {9: 4},
    })
    return g, d


def test_self_relatedness_is_one(drink_world):
    g, d = drink_world
    assert relate("drink", "drink", g, d) == pytest.approx(1.0, abs=1e-9)


def test_overlapping_neighborhoods_score_positive(drink_world):
    g, d = drink_world
    score = relate("drink", "alcohol", g, d)
    assert 0.0 < score < 1.0


def test_disjoint_components_score_zero():
    g = gw.TypedGraph.from_arcs(6, [0, 1, 3, 4], [1, 0, 4, 3])
    d = Dictionary.from_counts({"left": {0: 1}, "right": {3: 1}})
    assert relate("left", "right", g, d) == 0.0


def test_symmetry_is_exact(drink_world):
    g, d = drink_world
    for t1, t2 in (("drink", "alcohol"), ("coffee", "chemistry"),
                   ("drink", "coffee")):
        assert relate(t1, t2, g, d) == relate(t2, t1, g, d)
        e1 = d.lookup(t1).candidates[0].article
        e2 = d.lookup(t2).candidates[0].article
        assert ngd_relatedness(e1, e2, g) == ngd_relatedness(e2, e1, g)


def test_truncation_beyond_support_matches_untruncated(drink_world):
    g, d = drink_world
    tight = relate("drink", "alcohol", g, d, PprParams(k=g.n_nodes))
    untruncated = relate("drink", "alcohol", g, d, PprParams(k=None))
    assert tight == untruncated


def test_unknown_term_raises(drink_world):
    g, d = drink_world
    with pytest.raises(UnknownTermError):
        relate("drink", "zzqx", g, d)
    with pytest.raises(UnknownTermError):
        ngd_relate("zzqx", "drink", g, d)


def test_score_pairs_unknown_policy(drink_world):
    g, d = drink_world
    pairs = [("drink", "alcohol", 3.0), ("drink", "zzqx", 1.0)]
    rows = score_pairs(pairs, g, d, PprParams(), "ppr", "skip")
    assert rows[1][3] is None
    rows = score_pairs(pairs, g, d, PprParams(), "ppr", "zero")
    assert rows[1][3] == 0.0


def _relate_or_unknown(t1, t2, g, d, params, on_unknown):
    try:
        return relate(t1, t2, g, d, params)
    except UnknownTermError:
        return 0.0 if on_unknown == "zero" else None


@pytest.mark.parametrize("on_unknown", ["skip", "zero"])
@pytest.mark.parametrize("params", [None, PprParams(k=3),
                                    PprParams(iterations=0, prior_init=False)])
def test_score_pairs_equals_relate_per_pair(drink_world, params, on_unknown):
    g, d = drink_world
    rows = [("drink", "alcohol", 3.0), ("alcohol", "drink", 3.0),
            ("drink", "drink", None), ("coffee", "zzqx", 1.0),
            ("zzqx", "chemistry", 0.5), ("Drink", "coffee", 2.0),
            ("chemistry", "alcohol", 1.0)]
    got = score_pairs((row for row in rows), g, d, params, "ppr", on_unknown)
    want = [(t1, t2, gold, _relate_or_unknown(t1, t2, g, d, params, on_unknown))
            for t1, t2, gold in rows]
    assert got == want


def test_score_pairs_walks_each_distinct_term_once(monkeypatch):
    rng = np.random.default_rng(5)
    n = 60
    g = graph_from_arcs(n, random_arc_set(rng, n, force_dangling=True))
    d = Dictionary.from_counts({f"t{i}": {int(a): 1 + int(rng.integers(9))
                                          for a in rng.choice(n, 3, replace=False)}
                                for i in range(40)})
    rows = [(f"t{rng.integers(42)}", f"t{rng.integers(42)}", None) for _ in range(90)]
    walked = []
    build_teleport = gw.relatedness.build_teleport

    def counting_build_teleport(mentions, *args):
        walked.append(mentions[0].mention)
        return build_teleport(mentions, *args)

    monkeypatch.setattr(gw.relatedness, "build_teleport", counting_build_teleport)
    got = score_pairs(rows, g, d, PprParams(k=20), "ppr", "skip")
    assert sorted(walked) == sorted({t for t1, t2, _ in rows for t in (t1, t2)} & set(d.entries))
    monkeypatch.undo()
    assert got == [(t1, t2, None, _relate_or_unknown(t1, t2, g, d, PprParams(k=20), "skip"))
                   for t1, t2, _ in rows]


@pytest.fixture(scope="module")
def term_world():
    """A random graph with dangling nodes and 40 terms of three candidates each."""
    rng = np.random.default_rng(5)
    n = 60
    g = graph_from_arcs(n, random_arc_set(rng, n, force_dangling=True))
    d = Dictionary.from_counts({f"t{i}": {int(a): 1 + int(rng.integers(9))
                                          for a in rng.choice(n, 3, replace=False)}
                                for i in range(40)})
    return g, d


def chunk_boundary_pairs(count: int) -> list[tuple]:
    """Pairs naming ``count`` distinct known terms, mixed with unknown ones,
    so a vector handed to the wrong term would show."""
    known = [f"t{i}" for i in range(count)]
    pairs = [("zz0", "zz1", 1.0)]
    for i, term in enumerate(known):
        pairs.append((term, known[(7 * i + 3) % count], float(i)))
        if i % 4 == 1:
            pairs.append((f"zz{i}", term, None))
    return pairs


def row_bits(rows) -> list[tuple]:
    return [(t1, t2, gold, None if s is None else s.hex()) for t1, t2, gold, s in rows]


@pytest.mark.parametrize("on_unknown", ["skip", "zero"])
@pytest.mark.parametrize("params", [None, PprParams(k=None), PprParams(iterations=0)])
def test_score_pairs_is_bitwise_equal_at_any_worker_count(term_world, params, on_unknown):
    g, d = term_world
    for count in (0, 1, 15, 16, 17, 33):
        pairs = chunk_boundary_pairs(count)
        want = row_bits((t1, t2, gold, _relate_or_unknown(t1, t2, g, d, params, on_unknown))
                        for t1, t2, gold in pairs)
        for workers in (1, 2, 3, 8):
            got = score_pairs(pairs, g, d, params, "ppr", on_unknown, workers)
            assert row_bits(got) == want, (count, workers)


def test_score_pairs_threads_under_frequent_switches(term_world):
    g, d = term_world
    pairs = chunk_boundary_pairs(33)
    serial = score_pairs(pairs, g, d, PprParams(k=20), "ppr", "zero", workers=1)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = score_pairs(pairs, g, d, PprParams(k=20), "ppr", "zero", workers=8)
    finally:
        sys.setswitchinterval(switch)
    assert row_bits(threaded) == row_bits(serial)


@pytest.mark.parametrize("workers", [0, -3])
def test_score_pairs_rejects_fewer_than_one_worker(term_world, workers):
    g, d = term_world
    with pytest.raises(ValueError, match="workers must be >= 1"):
        score_pairs(chunk_boundary_pairs(3), g, d, None, "ppr", "skip", workers)


# --- shared-inlink baseline --------------------------------------------------

def test_ngd_identical_inlink_sets_score_one():
    g = gw.TypedGraph.from_arcs(5, [2, 2, 3, 3], [0, 1, 0, 1])
    assert ngd_relatedness(0, 1, g) == 1.0


def test_ngd_disjoint_inlink_sets_score_zero():
    g = gw.TypedGraph.from_arcs(6, [2, 3], [0, 1])
    assert ngd_relatedness(0, 1, g) == 0.0


def test_ngd_no_inlinks_scores_zero():
    g = gw.TypedGraph.from_arcs(4, [0], [1])
    assert ngd_relatedness(0, 2, g) == 0.0


def test_ngd_hand_computed_case():
    # W = 8 non-isolated, |in(0)| = 4, |in(1)| = 2, overlap = 2
    src = [2, 3, 4, 5, 4, 5, 6]
    dst = [0, 0, 0, 0, 1, 1, 7]
    g = gw.TypedGraph.from_arcs(8, src, dst)
    assert g.non_isolated_count() == 8
    assert ngd_relatedness(0, 1, g) == 0.5


def test_ngd_matches_naive_reimplementation():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(3, 50))
        arcs = random_arc_set(rng, n)
        g = graph_from_arcs(n, arcs)
        for _ in range(6):
            a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
            got = ngd_relatedness(a, b, g)
            want = naive_ngd_score(arcs, a, b, n)
            assert got == pytest.approx(want, abs=1e-12)
            assert 0.0 <= got <= 1.0


def test_ngd_relate_takes_max_over_candidate_pairs(drink_world):
    g, d = drink_world
    score = ngd_relate("drink", "alcohol", g, d)
    best = max(ngd_relatedness(c1.article, c2.article, g)
               for c1 in d.lookup("drink").candidates
               for c2 in d.lookup("alcohol").candidates)
    assert score == best


# --- combination -------------------------------------------------------------

def test_combine_scores_identity_annihilator_product():
    assert combine_scores(1.0, 0.37) == 0.37
    assert combine_scores(0.0, 0.9) == 0.0
    assert combine_scores(0.8, 0.5) == pytest.approx(0.4)


def test_combine_scores_validates_range():
    with pytest.raises(ValueError):
        combine_scores(1.2, 0.5)
    with pytest.raises(ValueError):
        combine_scores(0.5, -0.1)


def test_cosine_zero_vectors():
    a = ScoreVector.from_pairs({}, 4)
    b = ScoreVector.from_pairs({1: 1.0}, 4)
    assert cosine(a, b) == 0.0
    assert cosine(a, a) == 0.0


def test_term_ppv_is_truncated(drink_world):
    g, d = drink_world
    sv = term_ppv("drink", g, d, PprParams(k=3))
    assert sv.nnz == 3
