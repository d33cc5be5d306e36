from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphwalk as gw
from graphwalk.dictionary import Candidate, DictEntry
from graphwalk.ppr import (_BLOCK_COLUMNS, NoContextError, PprEngine, PprParams,
                           ScoreVector, build_teleport, run_ppr, truncate_ppv)

from conftest import dense_ppr, graph_from_arcs, random_arc_set


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
    assert v.to_dense().tolist() == [0.7, 0.3, 0.0, 0.0]


def test_teleport_uniform_when_prior_disabled():
    v = build_teleport([entry("m", (0, 7, 0.7), (1, 2, 0.2), (2, 1, 0.1))], 4,
                       prior_init=False)
    assert np.allclose(v.to_dense(), [1 / 3, 1 / 3, 1 / 3, 0.0])


def test_teleport_sums_across_mentions_then_renormalizes():
    m1 = entry("a", (0, 1, 1.0))
    m2 = entry("b", (0, 1, 0.5), (1, 1, 0.5))
    v = build_teleport([m1, m2], 3)
    assert np.allclose(v.to_dense(), [0.75, 0.25, 0.0])


def test_teleport_requires_a_usable_mention():
    with pytest.raises(NoContextError):
        build_teleport([], 3)
    with pytest.raises(NoContextError):
        build_teleport([DictEntry("empty", ())], 3)


def test_zero_iterations_returns_teleport():
    g = gw.TypedGraph.from_arcs(3, [0, 1], [1, 2])
    v = build_teleport([entry("m", (0, 1, 1.0))], 3)
    out = run_ppr(g, v, PprParams(iterations=0))
    assert out.to_dense().tolist() == v.to_dense().tolist()


def test_two_node_cycle_closed_form():
    g = gw.TypedGraph.from_arcs(2, [0, 1], [1, 0])
    v = build_teleport([entry("m", (0, 1, 1.0))], 2)
    out = run_ppr(g, v, PprParams(iterations=200)).to_dense()
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
        assert np.abs(got.to_dense() - want).sum() <= 1e-9


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
    out = run_ppr(g, v, PprParams(iterations=40)).to_dense()
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
    sv = ScoreVector.from_pairs({0: 0.5, 1: 0.3, 2: 0.2}, 5)
    out = truncate_ppv(sv, 2)
    assert dict(out.items()) == {0: 0.5, 1: 0.3}


def test_truncate_noop_when_k_large_or_none():
    sv = ScoreVector.from_pairs({0: 0.5, 1: 0.5}, 4)
    assert truncate_ppv(sv, 2) is sv
    assert truncate_ppv(sv, None) is sv


def test_truncate_breaks_ties_by_lower_id():
    sv = ScoreVector.from_pairs({0: 0.4, 1: 0.3, 2: 0.3}, 5)
    out = truncate_ppv(sv, 2)
    assert dict(out.items()) == {0: 0.4, 1: 0.3}
    # and with ids reversed in score order
    sv2 = ScoreVector.from_pairs({0: 0.3, 1: 0.3, 2: 0.4}, 5)
    out2 = truncate_ppv(sv2, 2)
    assert dict(out2.items()) == {0: 0.3, 2: 0.4}


def test_score_vector_helpers():
    sv = ScoreVector.from_pairs({3: 0.25, 1: 0.75}, 6)
    assert sv.nnz == 2
    assert sv.get(1) == 0.75
    assert sv.get(2) == 0.0
    assert sv.total() == 1.0
    other = ScoreVector.from_pairs({3: 0.5, 5: 0.5}, 6)
    assert sv.dot(other) == 0.25 * 0.5

