from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import graphwalk as gw
from graphwalk import ppr
from graphwalk.dictionary import Candidate, DictEntry
from graphwalk.ppr import (_BLOCK_COLUMNS, NoContextError, PprEngine, PprParams,
                           ScoreVector, build_teleport, run_ppr, truncate_ppv)

from conftest import (dense_ppr, graph_from_arcs, random_arc_set, score_items, score_vector,
                      to_dense)


def entry(mention, *cands):
    return DictEntry(mention, tuple(Candidate(a, c, p) for a, c, p in cands))


def test_params_validation():
    PprParams()  # defaults are valid
    with pytest.raises(ValueError):
        PprParams(alpha=0.0)
    with pytest.raises(ValueError):
        PprParams(alpha=1.0)
    with pytest.raises(ValueError):
        PprParams(iterations=-1)
    with pytest.raises(ValueError):
        PprParams(k=0)


def test_default_params_match_standard_run():
    p = PprParams()
    assert (p.alpha, p.iterations, p.k, p.prior_init) == (0.85, 30, 5000, True)


def test_teleport_single_mention_uses_priors():
    v = build_teleport([entry("m", (0, 7, 0.7), (1, 3, 0.3))], 4)
    assert to_dense(v).tolist() == [0.7, 0.3, 0.0, 0.0]


def test_teleport_uniform_when_prior_disabled():
    v = build_teleport([entry("m", (0, 7, 0.7), (1, 2, 0.2), (2, 1, 0.1))], 4,
                       prior_init=False)
    assert np.allclose(to_dense(v), [1 / 3, 1 / 3, 1 / 3, 0.0])


def test_teleport_sums_across_mentions_then_renormalizes():
    m1 = entry("a", (0, 1, 1.0))
    m2 = entry("b", (0, 1, 0.5), (1, 1, 0.5))
    v = build_teleport([m1, m2], 3)
    assert np.allclose(to_dense(v), [0.75, 0.25, 0.0])


def test_teleport_requires_a_usable_mention():
    with pytest.raises(NoContextError):
        build_teleport([], 3)
    with pytest.raises(NoContextError):
        build_teleport([DictEntry("empty", ())], 3)


def test_zero_iterations_returns_teleport():
    g = gw.TypedGraph.from_arcs(3, [0, 1], [1, 2])
    v = build_teleport([entry("m", (0, 1, 1.0))], 3)
    out = run_ppr(g, v, PprParams(iterations=0))
    assert to_dense(out).tolist() == to_dense(v).tolist()


def test_two_node_cycle_closed_form():
    g = gw.TypedGraph.from_arcs(2, [0, 1], [1, 0])
    v = build_teleport([entry("m", (0, 1, 1.0))], 2)
    out = to_dense(run_ppr(g, v, PprParams(iterations=200)))
    assert abs(out[0] - 20 / 37) < 1e-6
    assert abs(out[1] - 17 / 37) < 1e-6


def test_matches_dense_oracle_with_dangling_nodes():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        arcs = random_arc_set(rng, n, force_dangling=True)
        g = graph_from_arcs(n, arcs)
        ids = rng.choice(n, size=min(n, 3), replace=False)
        weights = rng.random(len(ids)) + 0.1
        weights /= weights.sum()
        v_dense = np.zeros(n)
        v_dense[ids] = weights
        v = ScoreVector.from_dense(v_dense)
        iters = int(rng.integers(1, 30))
        alpha = float(rng.uniform(0.5, 0.99))
        got = run_ppr(g, v, PprParams(alpha=alpha, iterations=iters, k=None))
        want = dense_ppr(n, arcs, v_dense, alpha, iters)
        assert np.abs(to_dense(got) - want).sum() <= 1e-9


def test_output_is_probability_vector():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        g = graph_from_arcs(n, random_arc_set(rng, n, force_dangling=True))
        v = build_teleport([entry("m", (0, 1, 0.6), (n - 1, 1, 0.4))], n)
        out = run_ppr(g, v, PprParams(iterations=20))
        assert abs(out.total() - 1.0) <= 1e-9
        assert (out.scores >= 0).all()


def test_mass_stays_in_teleported_component():
    # nodes 0-2 one component, 3-5 another
    g = gw.TypedGraph.from_arcs(6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3])
    v = build_teleport([entry("m", (0, 1, 1.0))], 6)
    out = to_dense(run_ppr(g, v, PprParams(iterations=40)))
    assert out[:3].sum() == pytest.approx(1.0, abs=1e-12)
    assert out[3:].sum() == 0.0


def test_dimension_mismatch_is_hard_error():
    g = gw.TypedGraph.from_arcs(3, [0], [1])
    v = build_teleport([entry("m", (0, 1, 1.0))], 4)
    with pytest.raises(ValueError):
        run_ppr(g, v)


def test_block_walk_dimension_mismatch_is_hard_error():
    g = gw.TypedGraph.from_arcs(3, [0], [1])
    good = build_teleport([entry("m", (0, 1, 1.0))], 3)
    bad = build_teleport([entry("m", (0, 1, 1.0))], 4)
    with pytest.raises(ValueError):
        list(PprEngine(g).run_many([good, bad, good], PprParams()))


@given(seed=st.integers(0, 2**32 - 1),
       count=st.sampled_from([0, 1, _BLOCK_COLUMNS, _BLOCK_COLUMNS + 1, 37]),
       iterations=st.sampled_from([0, 1, 7, 30]))
@settings(max_examples=40, deadline=None)
def test_block_walk_equals_single_walks_bitwise(seed, count, iterations):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    g = graph_from_arcs(n, random_arc_set(rng, n, force_dangling=True))
    engine = PprEngine(g)
    teleports = []
    for _ in range(count):
        dense = np.zeros(n)
        ids = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        dense[ids] = rng.random(len(ids)) + 0.1
        teleports.append(ScoreVector.from_dense(dense / dense.sum()))
    params = PprParams(alpha=float(rng.uniform(0.5, 0.99)), iterations=iterations)
    # a generator, consumed lazily in blocks
    got = list(engine.run_many((t for t in teleports), params))
    assert len(got) == count
    for teleport, block_ppv in zip(teleports, got):
        alone = engine.run(teleport, params)
        assert np.array_equal(block_ppv.ids, alone.ids)
        assert block_ppv.scores.tobytes() == alone.scores.tobytes()


def one_walk_oracle(g, teleport: ScoreVector, params: PprParams) -> np.ndarray:
    """The one-teleport power iteration the block walk replaced: a dense
    teleport vector and a 1-D product per step."""
    n = g.n_nodes
    outdeg = g.out_degrees()
    inv = np.zeros(n)
    inv[outdeg > 0] = 1.0 / outdeg[outdeg > 0]
    mt = sparse.csr_matrix((np.repeat(inv, outdeg), g.neighbors, g.offsets), shape=(n, n)).T
    dangling = np.flatnonzero(outdeg == 0)
    v = np.zeros(n)
    v[teleport.ids] = teleport.scores
    p = v.copy()
    for _ in range(params.iterations):
        d = float(p[dangling].sum())
        p = mt.dot(p)
        p *= params.alpha
        p += (params.alpha * d + 1.0 - params.alpha) * v
    return p


@given(seed=st.integers(0, 2**32 - 1),
       count=st.sampled_from([1, _BLOCK_COLUMNS, _BLOCK_COLUMNS + 3]),
       iterations=st.sampled_from([0, 1, 15, 30]))
@settings(max_examples=30, deadline=None)
def test_block_walk_equals_one_walk_oracle_bitwise(seed, count, iterations):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    g = graph_from_arcs(n, random_arc_set(rng, n, force_dangling=True))
    # teleports drawn from a few shared ids, so columns of one block overlap
    pool = rng.choice(n, size=min(n, 4), replace=False)
    teleports = []
    for _ in range(count):
        dense = np.zeros(n)
        ids = rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False)
        dense[ids] = rng.random(len(ids)) + 0.1
        teleports.append(ScoreVector.from_dense(dense / dense.sum()))
    params = PprParams(alpha=float(rng.uniform(0.5, 0.99)), iterations=iterations)
    got = list(PprEngine(g).run_many(teleports, params))
    assert len(got) == count
    for teleport, block_ppv in zip(teleports, got):
        assert to_dense(block_ppv).tobytes() == one_walk_oracle(g, teleport, params).tobytes()


def dense_block_oracle(g, teleports: list[ScoreVector], params: PprParams) -> list:
    """``run_many``'s loop before the sparse frontier: every product of every
    block multiplies the whole matrix, and each column is read out in place."""
    n = g.n_nodes
    outdeg = g.out_degrees()
    inv = np.zeros(n)
    inv[outdeg > 0] = 1.0 / outdeg[outdeg > 0]
    mt = sparse.csr_matrix((np.repeat(inv, outdeg), g.neighbors, g.offsets), shape=(n, n)).T
    dangling = np.flatnonzero(outdeg == 0)
    out = []
    for first in range(0, len(teleports), _BLOCK_COLUMNS):
        block = teleports[first:first + _BLOCK_COLUMNS]
        p = np.zeros((n, len(block)), dtype=np.float64)
        for j, teleport in enumerate(block):
            p[teleport.ids, j] = teleport.scores
        for _ in range(params.iterations):
            d = np.ascontiguousarray(p[dangling].T).sum(axis=1)
            p = mt.dot(p)
            p *= params.alpha
            c = params.alpha * d + 1.0 - params.alpha
            for j, teleport in enumerate(block):
                p[teleport.ids, j] += c[j] * teleport.scores
        out.extend(ScoreVector.from_dense(p[:, j]) for j in range(len(block)))
    return out


@pytest.mark.parametrize("share", [0.0, 1.01, None], ids=["never_sparse", "always_sparse",
                                                            "default"])
@given(seed=st.integers(0, 2**32 - 1),
       count=st.sampled_from([0, 1, _BLOCK_COLUMNS, _BLOCK_COLUMNS + 1, 37]),
       iterations=st.sampled_from([0, 1, 2, 5, 15]),
       sparse_graph=st.booleans(), everywhere=st.booleans())
@settings(max_examples=40, deadline=None)
def test_frontier_walk_equals_the_dense_block_loop_bitwise(share, seed, count, iterations,
                                                           sparse_graph, everywhere):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 120))
    # about two arcs per node reach most rows only after a few products
    density = 2.0 / n if sparse_graph else None
    g = graph_from_arcs(n, random_arc_set(rng, n, density, force_dangling=True))
    # teleports drawn from a few shared ids, so columns of one block overlap;
    # with ``everywhere`` the first is supported on every node
    pool = rng.choice(n, size=min(n, 6), replace=False)
    teleports = []
    for i in range(count):
        dense = np.zeros(n)
        ids = (np.arange(n) if everywhere and i == 0
               else rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False))
        dense[ids] = rng.random(len(ids)) + 0.1
        teleports.append(ScoreVector.from_dense(dense / dense.sum()))
    params = PprParams(alpha=float(rng.uniform(0.5, 0.99)), iterations=iterations)
    with mock.patch.object(ppr, "_FRONTIER_ARCS",
                           ppr._FRONTIER_ARCS if share is None else share):
        got = list(PprEngine(g).run_many(iter(teleports), params))
    want = dense_block_oracle(g, teleports, params)
    assert len(got) == len(want) == count
    for a, b in zip(got, want):
        assert np.array_equal(a.ids, b.ids)
        assert a.scores.tobytes() == b.scores.tobytes()


@pytest.mark.parametrize("share", [0.0, 1.01, None], ids=["never_cone", "always_cone",
                                                            "default"])
@given(seed=st.integers(0, 2**32 - 1),
       count=st.sampled_from([0, 1, _BLOCK_COLUMNS, _BLOCK_COLUMNS + 1, 37]),
       iterations=st.sampled_from([0, 1, 2, 5, 15]),
       sparse_graph=st.booleans())
@settings(max_examples=40, deadline=None)
def test_read_scores_equal_the_dense_block_loop_bitwise(share, seed, count, iterations,
                                                        sparse_graph):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 120))
    density = 2.0 / n if sparse_graph else None
    g = graph_from_arcs(n, random_arc_set(rng, n, density, force_dangling=True))
    dangling = np.flatnonzero(g.out_degrees() == 0)
    pool = rng.choice(n, size=min(n, 6), replace=False)
    teleports, reads = [], []
    for _ in range(count):
        dense = np.zeros(n)
        ids = rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False)
        dense[ids] = rng.random(len(ids)) + 0.1
        teleports.append(ScoreVector.from_dense(dense / dense.sum()))
        # any ids, so some unreached, drawn with repeats, plus some dangling ones
        picked = [rng.integers(0, n, int(rng.integers(0, 6))),
                  rng.choice(dangling, size=int(rng.integers(0, 3))) if dangling.size else []]
        reads.append(rng.permutation(np.concatenate(picked).astype(np.int64)))
    params = PprParams(alpha=float(rng.uniform(0.5, 0.99)), iterations=iterations)
    with mock.patch.object(ppr, "_FRONTIER_ARCS",
                           ppr._FRONTIER_ARCS if share is None else share):
        got = list(PprEngine(g).run_many(iter(teleports), params, reads=iter(reads)))
    want = dense_block_oracle(g, teleports, params)
    assert len(got) == len(want) == count
    for scores, ids, vector in zip(got, reads, want):
        assert scores.dtype == np.float64
        assert scores.tobytes() == to_dense(vector)[ids].tobytes()


@pytest.mark.parametrize("reads", [[[0]], [[0], [1], [2]], [[0], [3]], [[0], [-1]]],
                         ids=["fewer", "more", "id_n", "negative_id"])
def test_reads_of_the_wrong_length_or_outside_the_graph_are_hard_errors(reads):
    g = gw.TypedGraph.from_arcs(3, [0], [1])
    v = build_teleport([entry("m", (0, 1, 1.0))], 3)
    with pytest.raises(ValueError):
        list(PprEngine(g).run_many([v, v], PprParams(), reads=reads))


def test_repeat_runs_are_bitwise_identical():
    rng = np.random.default_rng(13)
    n = 30
    g = graph_from_arcs(n, random_arc_set(rng, n))
    v = build_teleport([entry("m", (3, 1, 0.5), (9, 1, 0.5))], n)
    a = run_ppr(g, v, PprParams(iterations=25))
    b = run_ppr(g, v, PprParams(iterations=25))
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.ids, b.ids)


def test_truncate_keeps_top_k():
    sv = score_vector({0: 0.5, 1: 0.3, 2: 0.2}, 5)
    out = truncate_ppv(sv, 2)
    assert dict(score_items(out)) == {0: 0.5, 1: 0.3}


def test_truncate_noop_when_k_large_or_none():
    sv = score_vector({0: 0.5, 1: 0.5}, 4)
    assert truncate_ppv(sv, 2) is sv
    assert truncate_ppv(sv, None) is sv


def test_truncate_breaks_ties_by_lower_id():
    sv = score_vector({0: 0.4, 1: 0.3, 2: 0.3}, 5)
    out = truncate_ppv(sv, 2)
    assert dict(score_items(out)) == {0: 0.4, 1: 0.3}
    # and with ids reversed in score order
    sv2 = score_vector({0: 0.3, 1: 0.3, 2: 0.4}, 5)
    out2 = truncate_ppv(sv2, 2)
    assert dict(score_items(out2)) == {0: 0.3, 2: 0.4}


def lexsort_truncate(ppv: ScoreVector, k: int | None) -> ScoreVector:
    """Top-k by a full sort: descending score, ties to the lower id."""
    if k is None or k >= ppv.nnz:
        return ppv
    keep = np.sort(np.lexsort((ppv.ids, -ppv.scores))[:k])
    return ScoreVector(ppv.ids[keep], ppv.scores[keep], ppv.dim)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.5, 0.25, 0.25 + 2.0 ** -50, 1e-300, 3.0, 7e-3]),
                min_size=1, max_size=40),
       st.randoms(use_true_random=False),
       st.sampled_from(["1", "nnz-1", "nnz", "nnz+1", "none", "any"]),
       st.integers(1, 40))
def test_truncate_equals_lexsort_oracle(scores, rnd, which, any_k):
    """Partition selection keeps the same ids and scores, bit for bit, as a
    full sort, on vectors made mostly of tied scores."""
    nnz = len(scores)
    ids = np.array(sorted(rnd.sample(range(3 * nnz), nnz)), dtype=np.int64)
    sv = ScoreVector(ids, np.array(scores, dtype=np.float64), 3 * nnz)
    k = {"1": 1, "nnz-1": max(1, nnz - 1), "nnz": nnz, "nnz+1": nnz + 1, "none": None,
         "any": any_k}[which]
    got, want = truncate_ppv(sv, k), lexsort_truncate(sv, k)
    assert got.ids.tobytes() == want.ids.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.dim == want.dim


def test_score_vector_helpers():
    sv = score_vector({3: 0.25, 1: 0.75}, 6)
    assert sv.nnz == 2
    assert to_dense(sv)[1] == 0.75
    assert to_dense(sv)[2] == 0.0
    assert sv.total() == 1.0
    other = score_vector({3: 0.5, 5: 0.5}, 6)
    assert sv.dot(other) == 0.25 * 0.5

