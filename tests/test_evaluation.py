from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from graphwalk.errors import DataError
from graphwalk.evaluation import (AccuracyResult, EvalReport, _average_ranks, accuracy,
                                  compare_prediction_files, fisher_z_test,
                                  load_redirect_map, load_rel_predictions,
                                  load_relatedness_pairs, paired_bootstrap, run_eval,
                                  spearman)
from graphwalk.graph import NodeTable
from graphwalk.ingest import REDIRECT_DEPTH_CAP
from graphwalk.ned import NedPrediction, load_queries, run_batch, write_predictions
from graphwalk.ppr import PprParams

from conftest import spearman_oracle


# --- spearman ----------------------------------------------------------------

def test_identical_orderings_score_one():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_reversed_orderings_score_minus_one():
    assert spearman([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)


def test_spearman_validation():
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1], [1])
    with pytest.raises(ValueError):
        spearman([2, 2, 2], [1, 2, 3])


def test_spearman_matches_quadratic_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        gold = rng.integers(0, 8, size=20).astype(float)  # plenty of ties
        pred = rng.random(20)
        if len(set(gold.tolist())) < 2:
            continue
        assert spearman(gold, pred) == pytest.approx(
            spearman_oracle(gold.tolist(), pred.tolist()), abs=1e-12)


# a small pool, so that drawn arrays tie often: signed zeros, infinities, NaN
_TIED = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, math.inf, -math.inf, math.nan])
_FREE = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=400, deadline=None)
@given(st.lists(_TIED | _FREE, min_size=1, max_size=60))
@example([7.0])
@example([0.0, -0.0, 0.0, 1.0])
@example([math.inf, -math.inf, 0.0, math.inf])
@example([2.0, 1.0, 2.0, 2.0, 1.0])
@example([1.0, math.nan, 2.0])
def test_average_ranks_are_bitwise_scipy_rankdata(values):
    x = np.array(values, dtype=np.float64)
    ranks = _average_ranks(x)
    expected = rankdata(x)
    assert ranks.dtype == expected.dtype == np.float64
    assert ranks.tobytes() == expected.tobytes()
    if np.isnan(x).any():
        assert np.isnan(ranks).all()


def test_spearman_with_a_nan_is_nan():
    assert math.isnan(spearman([1.0, 2.0, math.nan], [1.0, 2.0, 3.0]))
    assert math.isnan(spearman([1.0, 2.0, 3.0], [3.0, math.nan, 1.0]))


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    gold = rng.random(30)
    pred = rng.random(30)
    base = spearman(gold, pred)
    assert spearman(gold, np.exp(pred * 3)) == pytest.approx(base, abs=1e-12)
    assert spearman(gold ** 3, pred) == pytest.approx(base, abs=1e-12)


# --- accuracy ----------------------------------------------------------------

@pytest.fixture()
def nodes():
    return NodeTable(["Alpha", "Beta", "Gamma", "Old_Alpha"],
                     np.zeros(4, dtype=np.uint8))


def pred(qid, node):
    return NedPrediction(qid, node, ((node, 1.0),) if node is not None else ())


def test_accuracy_all_correct(nodes):
    preds = [pred("a", 0), pred("b", 1)]
    res = accuracy(preds, {"a": "Alpha", "b": "Beta"}, nodes)
    assert res == AccuracyResult(1.0, 2, (True, True))


def test_accuracy_counts_only_kb_gold(nodes):
    preds = [pred("a", 0), pred("b", 1), pred("c", 2), pred("d", None),
             pred("e", 0)]
    gold = {"a": "Alpha", "b": "Beta", "c": "NIL", "d": "NIL", "e": "NIL"}
    res = accuracy(preds, gold, nodes)
    assert res.value == 1.0
    assert res.n == 2


def test_nil_prediction_on_kb_gold_is_wrong(nodes):
    res = accuracy([pred("a", None)], {"a": "Alpha"}, nodes)
    assert res.value == 0.0


def test_redirected_prediction_counts_as_correct(nodes):
    res = accuracy([pred("a", 3)], {"a": "Alpha"}, nodes,
                   redirects={"Old_Alpha": "Alpha"})
    assert res.value == 1.0


def test_accuracy_id_mismatch_is_hard_error(nodes):
    with pytest.raises(DataError):
        accuracy([pred("a", 0)], {"b": "Beta"}, nodes)


def test_accuracy_invariant_under_permutation(nodes):
    preds = [pred("a", 0), pred("b", 2), pred("c", 1)]
    gold = {"a": "Alpha", "b": "Beta", "c": "Beta"}
    forward = accuracy(preds, gold, nodes)
    backward = accuracy(list(reversed(preds)), gold, nodes)
    assert forward.value == backward.value
    assert forward.n == backward.n


# --- fisher z ----------------------------------------------------------------

def test_equal_correlations_give_p_one():
    assert fisher_z_test(0.7, 0.7, 50, 50) == 1.0


def test_clearly_different_correlations_significant():
    p = fisher_z_test(0.9, 0.5, 65, 65)
    assert p < 0.05
    # z is about 5.1, so p is far below the threshold
    assert p < 1e-5


def test_fisher_symmetry():
    assert fisher_z_test(0.8, 0.3, 40, 60) == fisher_z_test(0.3, 0.8, 60, 40)


def test_fisher_validation_and_clamping():
    with pytest.raises(ValueError):
        fisher_z_test(0.5, 0.5, 3, 50)
    with pytest.raises(ValueError):
        fisher_z_test(1.5, 0.5, 50, 50)
    with pytest.warns(UserWarning):
        p = fisher_z_test(1.0, 0.5, 50, 50)
    assert 0.0 <= p < 0.05  # the clamped z is huge; erfc may underflow to 0


def test_fisher_matches_hand_computation():
    r1, r2, n = 0.9, 0.5, 65
    z = (math.atanh(r1) - math.atanh(r2)) / math.sqrt(2.0 / (n - 3))
    want = math.erfc(abs(z) / math.sqrt(2.0))
    assert fisher_z_test(r1, r2, n, n) == pytest.approx(want, rel=1e-12)


# --- paired bootstrap --------------------------------------------------------

def test_identical_systems_give_exactly_one():
    a = [True, False, True, True] * 5
    assert paired_bootstrap(a, list(a), resamples=1000, seed=3) == 1.0


def test_total_domination_is_significant():
    a = [True] * 100
    b = [False] * 100
    assert paired_bootstrap(a, b, resamples=2000, seed=1) < 0.001


def test_bootstrap_seed_determinism():
    rng = np.random.default_rng(5)
    a = rng.random(60) < 0.7
    b = rng.random(60) < 0.55
    runs = {paired_bootstrap(a.tolist(), b.tolist(), resamples=2000, seed=11)
            for _ in range(3)}
    assert len(runs) == 1


def test_bootstrap_swap_mirrors_the_test_on_same_resamples():
    # the tail is anchored to the observed winner, so swapping the argument
    # order negates every resampled difference and tests the mirrored event
    # over the same index draws, giving the identical p-value
    rng = np.random.default_rng(9)
    a = (rng.random(40) < 0.8).tolist()
    b = (rng.random(40) < 0.6).tolist()
    p_ab = paired_bootstrap(a, b, resamples=3000, seed=4)
    p_ba = paired_bootstrap(b, a, resamples=3000, seed=4)
    delta = np.array(a, dtype=float) - np.array(b, dtype=float)
    n = len(delta)
    gen = np.random.default_rng(4)
    diffs = []
    done = 0
    while done < 3000:
        chunk = min(1000, 3000 - done)
        idx = gen.integers(0, n, size=(chunk, n))
        diffs.extend(delta[idx].mean(axis=1).tolist())
        done += chunk
    diffs = np.array(diffs)
    assert p_ab == (diffs <= 0).mean()       # winner is A; count ties-or-losses
    assert p_ba == ((-diffs) >= 0).mean()    # swapped: same event, same draws
    assert p_ab == p_ba


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        paired_bootstrap([True], [True, False])
    with pytest.raises(ValueError):
        paired_bootstrap([True], [False], resamples=10)
    with pytest.raises(ValueError):
        paired_bootstrap([], [])


# --- loaders and reports -----------------------------------------------------

def test_load_relatedness_pairs(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("term1\tterm2\tgold\na\tb\t3.5\nc\td\n", encoding="utf-8")
    assert load_relatedness_pairs(str(path)) == [("a", "b", 3.5), ("c", "d", None)]
    path.write_text("term1\tterm2\tgold\na\tb\tnan?\n", encoding="utf-8")
    with pytest.raises(DataError, match=r":2"):
        load_relatedness_pairs(str(path))


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_scores_that_are_not_finite_are_data_errors(tmp_path, raw):
    path = tmp_path / "pairs.tsv"
    path.write_text(f"term1\tterm2\tgold\na\tb\t3.5\nc\td\t{raw}\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: bad gold score {raw!r}")):
        load_relatedness_pairs(str(path))
    preds = tmp_path / "preds.tsv"
    preds.write_text(f"term1\tterm2\tgold\tscore\na\tb\t\tNA\nc\td\t\t{raw}\n",
                     encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{preds}:3: bad score {raw!r}")):
        load_rel_predictions(str(preds))


def test_load_redirect_map(tmp_path):
    path = tmp_path / "redirects.tsv"
    path.write_text("old\tnew\nOld_Alpha\tAlpha\n", encoding="utf-8")
    assert load_redirect_map(str(path)) == {"Old_Alpha": "Alpha"}


def test_report_round_trip(tmp_path):
    rep = EvalReport("ds", "accuracy", 0.75, 4, {"alpha": 0.85},
                     [{"baseline": "b", "p_value": 0.2, "significant": False}])
    path = tmp_path / "report.json"
    rep.write(str(path))
    rep.write(str(tmp_path / "again.json"))
    assert path.read_bytes() == (tmp_path / "again.json").read_bytes()
    import json
    data = json.loads(path.read_text())
    assert data["metric"] == "accuracy"
    assert data["config"] == {"alpha": 0.85}


# --- run_eval end to end -----------------------------------------------------

def test_run_eval_relatedness(lions, tmp_path):
    graph, store, nodes, _ = lions
    ds = tmp_path / "pairs.tsv"
    ds.write_text("term1\tterm2\tgold\n"
                  "alan kourie\tlions\t3.0\n"
                  "cape town\tlions\t2.0\n"
                  "fletcher\tcape town\t1.5\n"
                  "alan kourie\tcape town\t0.5\n", encoding="utf-8")
    report, rows = run_eval("rel", "ppr", [str(ds)], graph=graph, store=store,
                            nodes=nodes)
    assert report.metric == "spearman"
    assert report.n == 4
    assert -1.0 <= report.value <= 1.0
    assert len(rows) == 4


def test_run_eval_ned_with_bootstrap_baseline(lions, tmp_path):
    graph, store, nodes, query = lions
    ctx = tmp_path / "doc.txt"
    ctx.write_text(" ".join(query.context_tokens), encoding="utf-8")
    ds = tmp_path / "queries.tsv"
    rows = ["query_id\tmention\tcontext_file\tchar_offset\tgold_title"]
    for i in range(6):
        rows.append(f"q{i}\tLions\tdoc.txt\t\tHighveld_Lions")
    ds.write_text("\n".join(rows) + "\n", encoding="utf-8")

    base_report, base_preds = run_eval("ned", "mfs", [str(ds)], graph=graph,
                                       store=store, nodes=nodes)
    assert base_report.value == 0.0  # prior picks the rugby team
    from graphwalk.ned import write_predictions
    base_path = tmp_path / "mfs.tsv"
    write_predictions(base_preds, nodes, str(base_path))

    report, preds = run_eval("ned", "ppr", [str(ds)], graph=graph, store=store,
                             nodes=nodes, baseline_paths=[str(base_path)])
    assert report.value == 1.0
    assert report.extras["fallback_count"] == 0
    sig = report.significance[0]
    assert sig["test"] == "paired-bootstrap-one-sided"
    assert sig["p_value"] < 0.05
    assert sig["resamples"] == 10_000 and sig["seed"] == 0


def test_run_eval_reports_exact_fallback_counter(lions, tmp_path):
    graph, store, nodes, query = lions
    (tmp_path / "rich.txt").write_text(" ".join(query.context_tokens),
                                       encoding="utf-8")
    (tmp_path / "bare.txt").write_text("nothing matches here", encoding="utf-8")
    ds = tmp_path / "queries.tsv"
    ds.write_text("query_id\tmention\tcontext_file\tchar_offset\tgold_title\n"
                  "q0\tLions\trich.txt\t\tHighveld_Lions\n"
                  "q1\tLions\tbare.txt\t\tB&I_Lions\n"
                  "q2\tLions\tbare.txt\t\tB&I_Lions\n", encoding="utf-8")
    report, preds = run_eval("ned", "ppr", [str(ds)], graph=graph, store=store,
                             nodes=nodes)
    assert report.extras["fallback_count"] == 2
    assert report.extras["fallback_rate"] == pytest.approx(2 / 3)
    assert [p.fallback_used for p in preds] == [False, True, True]
    assert report.value == 1.0  # the fallback queries have the prior-favored gold


def test_run_eval_pools_datasets(lions, tmp_path):
    graph, store, nodes, query = lions
    ctx = tmp_path / "doc.txt"
    ctx.write_text(" ".join(query.context_tokens), encoding="utf-8")
    for name, n in (("a.tsv", 2), ("b.tsv", 3)):
        rows = ["query_id\tmention\tcontext_file\tchar_offset\tgold_title"]
        for i in range(n):
            rows.append(f"{name}-{i}\tLions\tdoc.txt\t\tHighveld_Lions")
        (tmp_path / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
    report, preds = run_eval("ned", "ppr",
                             [str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")],
                             graph=graph, store=store, nodes=nodes)
    assert report.n == 5
    assert len(preds) == 5


def test_compare_prediction_files_rel(tmp_path, lions):
    graph, store, nodes, _ = lions
    ds = tmp_path / "pairs.tsv"
    ds.write_text("term1\tterm2\tgold\na\tb\t3.0\nc\td\t2.0\ne\tf\t1.0\ng\th\t0.5\n",
                  encoding="utf-8")
    preds = tmp_path / "preds.tsv"
    preds.write_text("term1\tterm2\tgold\tscore\n"
                     "a\tb\t3.0\t0.9\nc\td\t2.0\t0.4\ne\tf\t1.0\t0.7\ng\th\t0.5\t0.1\n",
                     encoding="utf-8")
    base = tmp_path / "base.tsv"
    base.write_text("term1\tterm2\tgold\tscore\n"
                    "a\tb\t3.0\t0.1\nc\td\t2.0\t0.6\ne\tf\t1.0\t0.5\ng\th\t0.5\t0.2\n",
                    encoding="utf-8")
    report = compare_prediction_files("rel", [str(ds)], [str(preds)], [str(base)])
    assert report.value == pytest.approx(0.8)
    assert report.significance[0]["test"] == "fisher-z-two-sided"


def test_version_redirects_follow_the_ingest_chain_rule():
    nodes = NodeTable(["A", "t0", "t1"], np.zeros(3, dtype=np.uint8))
    # a title on a cycle is left unmapped, wherever the walk starts
    cycle = {"A": "B", "B": "A"}
    assert accuracy([pred("q", 0)], {"q": "A"}, nodes, cycle).value == 1.0
    assert accuracy([pred("q", 0)], {"q": "B"}, nodes, cycle).value == 0.0
    # a chain past the depth cap is left unmapped, one within it maps
    chain = {f"t{i}": f"t{i + 1}" for i in range(REDIRECT_DEPTH_CAP + 1)}
    final = f"t{REDIRECT_DEPTH_CAP + 1}"
    assert accuracy([pred("q", 1)], {"q": final}, nodes, chain).value == 0.0
    assert accuracy([pred("q", 1)], {"q": "t0"}, nodes, chain).value == 1.0
    assert accuracy([pred("q", 2)], {"q": final}, nodes, chain).value == 1.0


def test_run_eval_ned_without_params_predicts_what_run_batch_predicts(lions, tmp_path):
    graph, store, nodes, query = lions
    (tmp_path / "doc.txt").write_text(" ".join(query.context_tokens), encoding="utf-8")
    ds = tmp_path / "queries.tsv"
    ds.write_text("query_id\tmention\tcontext_file\tchar_offset\tgold_title\n"
                  "q0\tLions\tdoc.txt\t\tHighveld_Lions\n"
                  "q1\tFletcher\tdoc.txt\t\tDuncan_Fletcher\n", encoding="utf-8")
    _, preds = run_eval("ned", "ppr", [str(ds)], graph=graph, store=store, nodes=nodes)
    assert preds == run_batch(load_queries(str(ds)), graph, store, nodes=nodes)


def test_run_eval_and_eval_score_a_rel_run_alike(lions, tmp_path):
    # the walk skips the unknown term; the baseline scored every pair, and
    # each side is correlated over the gold pairs it scored
    graph, store, nodes, _ = lions
    ds = tmp_path / "pairs.tsv"
    rows = [("alan kourie", "lions", 3.0), ("cape town", "lions", 2.0),
            ("fletcher", "cape town", 1.5), ("alan kourie", "cape town", 0.5),
            ("fletcher", "lions", 2.5), ("zzqx", "lions", 0.2)]
    ds.write_text("term1\tterm2\tgold\n" + "".join(f"{a}\t{b}\t{g}\n" for a, b, g in rows),
                  encoding="utf-8")
    base = tmp_path / "base.tsv"
    base.write_text("term1\tterm2\tgold\tscore\n" + "".join(
        f"{a}\t{b}\t{g}\t{s}\n" for (a, b, g), s in zip(rows, [0.9, 0.2, 0.5, 0.1, 0.3, 0.4])),
        encoding="utf-8")
    report, scored = run_eval("rel", "ppr", [str(ds)], graph=graph, store=store,
                              nodes=nodes, baseline_paths=[str(base)])
    preds = tmp_path / "preds.tsv"
    preds.write_text("term1\tterm2\tgold\tscore\n" + "".join(
        f"{a}\t{b}\t{g}\t{'NA' if s is None else repr(s)}\n" for a, b, g, s in scored),
        encoding="utf-8")
    again = compare_prediction_files("rel", [str(ds)], [str(preds)], [str(base)])
    assert report.n == again.n == 5
    assert report.extras == {"skipped_pairs": 1}
    assert report.value == again.value
    assert report.significance == again.significance
    assert report.significance[0]["baseline_value"] == pytest.approx(
        spearman([r[2] for r in rows], [0.9, 0.2, 0.5, 0.1, 0.3, 0.4]))


def _lions_dataset(task: str, tmp_path, query) -> str:
    """Four gold pairs, or nine walked, fallback and NIL queries."""
    if task == "rel":
        ds = tmp_path / "pairs.tsv"
        ds.write_text("term1\tterm2\tgold\n"
                      "alan kourie\tlions\t3.0\n"
                      "cape town\tlions\t2.0\n"
                      "fletcher\tcape town\t1.5\n"
                      "alan kourie\tcape town\t0.5\n", encoding="utf-8")
        return str(ds)
    (tmp_path / "doc.txt").write_text(" ".join(query.context_tokens), encoding="utf-8")
    (tmp_path / "bare.txt").write_text("nothing matches here", encoding="utf-8")
    rows = ["query_id\tmention\tcontext_file\tchar_offset\tgold_title"]
    rows += [f"q{i}\tLions\tdoc.txt\t\tHighveld_Lions" for i in range(6)]
    rows += ["q6\tLions\tbare.txt\t\tB&I_Lions", "q7\tLions\tbare.txt\t\tHighveld_Lions",
             "q8\tZzqx\tbare.txt\t\tNIL"]
    ds = tmp_path / "queries.tsv"
    ds.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(ds)


@pytest.mark.parametrize("task, params, walk", [
    ("rel", None, (0.85, 30, 5000, True)),
    ("ned", None, (0.85, 15, None, True)),
    ("rel", PprParams(alpha=0.7, iterations=5, k=10, prior_init=False), (0.7, 5, 10, False)),
    ("ned", PprParams(alpha=0.7, iterations=5, k=None, prior_init=False), (0.7, 5, None, False)),
], ids=["rel_defaults", "ned_defaults", "rel_params", "ned_params"])
def test_a_library_run_eval_report_records_the_walk_it_ran(lions, tmp_path, task, params,
                                                           walk):
    graph, store, nodes, query = lions
    ds = _lions_dataset(task, tmp_path, query)
    # the caller's labels are kept, but a key the run derives wins over them
    report, _ = run_eval(task, "ppr", [ds], graph=graph, store=store, nodes=nodes,
                         params=params, config={"graph_spec": "Hr", "alpha": 0.1,
                                                "task": "other"})
    alpha, iterations, k, prior = walk
    own = {"on_unknown": "skip"} if task == "rel" else {"include_target": True}
    assert report.config == {"graph_spec": "Hr", "task": task, "system": "ppr",
                             "alpha": alpha, "iterations": iterations, "k": k,
                             "prior_init": prior, "dataset": ds, **own}


@pytest.mark.parametrize("task, header", [("rel", "term1\tterm2\tgold"),
                                          ("ned", "query_id\tmention\tcontext_file")])
def test_run_eval_over_a_dataset_without_rows_returns_no_report(lions, tmp_path, task,
                                                                header):
    graph, store, nodes, _ = lions
    ds = tmp_path / "empty.tsv"
    ds.write_text(header + "\n", encoding="utf-8")
    assert run_eval(task, "ppr", [str(ds)], graph=graph, store=store,
                    nodes=nodes) == (None, [])


def test_run_eval_and_eval_score_a_ned_run_alike(lions, tmp_path):
    graph, store, nodes, query = lions
    ds = _lions_dataset("ned", tmp_path, query)
    base, preds = str(tmp_path / "mfs.tsv"), str(tmp_path / "ppr.tsv")
    run_eval("ned", "mfs", [ds], graph=graph, store=store, nodes=nodes, out=base)
    report, _ = run_eval("ned", "ppr", [ds], graph=graph, store=store, nodes=nodes,
                         baseline_paths=[base], out=preds)
    again = compare_prediction_files("ned", [ds], [preds], [base])
    assert report.n == again.n == 8
    assert report.value == again.value == 7 / 8
    assert report.significance == again.significance
    assert report.significance[0]["baseline_value"] == 1 / 8
    assert report.significance[0]["resamples"] == 10_000
    assert report.significance[0]["seed"] == 0


def test_pooled_datasets_with_repeated_query_ids_are_rejected(lions, tmp_path):
    graph, store, nodes, query = lions
    (tmp_path / "doc.txt").write_text(" ".join(query.context_tokens), encoding="utf-8")
    for name in ("a.tsv", "b.tsv"):
        (tmp_path / name).write_text("query_id\tmention\tcontext_file\n"
                                     "q0\tLions\tdoc.txt\n", encoding="utf-8")
    preds = tmp_path / "preds.tsv"
    write_predictions(run_batch(load_queries(str(tmp_path / "a.tsv")), graph, store),
                      nodes, str(preds))
    with pytest.raises(DataError, match="repeat across the pooled datasets"):
        compare_prediction_files("ned", [str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")],
                                 [str(preds)])


_NED_HEADER = "query_id\tpredicted_title\tscore\tfallback_used\n"
_REL_HEADER = "term1\tterm2\tgold\tscore\n"


@pytest.mark.parametrize("task, files, preds, baselines, error", [
    # q2 predicted wrong, then right: it used to score 1.0
    ("ned", {"p.tsv": "q1\tA\nq2\tX\nq2\tB\n"}, ["p.tsv"], [],
     r"p\.tsv:4: query id 'q2' is predicted twice"),
    # pooled files, the second wrong on q1: it used to score 0.0
    ("ned", {"a.tsv": "q1\tA\nq2\tB\n", "b.tsv": "q1\tX\n"}, ["a.tsv", "b.tsv"], [],
     r"b\.tsv:2: query id 'q1' is predicted twice"),
    ("ned", {"a.tsv": "q1\tA\nq2\tB\n", "b.tsv": "q1\tA\n"}, ["a.tsv", "b.tsv"], [],
     r"b\.tsv:2: query id 'q1' is predicted twice"),
    ("ned", {"p.tsv": "q1\tA\nq2\tB\n", "base.tsv": "q1\tA\nq2\tX\nq1\tA\n"}, ["p.tsv"],
     ["base.tsv"], r"base\.tsv:4: query id 'q1' is predicted twice"),
    ("rel", {"p.tsv": "a\tb\t\t0.9\nc\td\t\t0.1\na\tb\t\t0.2\n"}, ["p.tsv"], [],
     r"p\.tsv:4: pair \('a', 'b'\) has two different scores"),
    ("rel", {"a.tsv": "a\tb\t\t0.9\nc\td\t\t0.1\n", "b.tsv": "c\td\t\t0.5\n"},
     ["a.tsv", "b.tsv"], [], r"b\.tsv:2: pair \('c', 'd'\) has two different scores"),
    # a pairs file may repeat a pair, so an equal score again is accepted
    ("rel", {"p.tsv": "a\tb\t\t0.9\nc\td\t\t0.1\na\tb\t\t0.90\n", "q.tsv": "c\td\t\t0.1\n"},
     ["p.tsv", "q.tsv"], [], None),
], ids=["ned_twice_in_one_file", "ned_across_pooled_files", "ned_equal_across_pooled_files",
        "ned_in_a_baseline", "rel_two_scores_in_one_file", "rel_two_scores_across_files",
        "rel_equal_repeat"])
def test_a_repeated_prediction_is_a_data_error_at_its_line(tmp_path, task, files, preds,
                                                           baselines, error):
    ds = tmp_path / "gold.tsv"
    ds.write_text("query_id\tmention\tcontext_file\tchar_offset\tgold_title\n"
                  "q1\tA\tdoc.txt\t\tA\nq2\tB\tdoc.txt\t\tB\n" if task == "ned" else
                  "term1\tterm2\tgold\na\tb\t3.0\nc\td\t1.0\n", encoding="utf-8")
    (tmp_path / "doc.txt").write_text("A B", encoding="utf-8")
    for name, rows in files.items():
        (tmp_path / name).write_text((_NED_HEADER if task == "ned" else _REL_HEADER) + rows,
                                     encoding="utf-8")
    pred_paths = [str(tmp_path / name) for name in preds]
    base_paths = [str(tmp_path / name) for name in baselines]
    if error is None:
        assert compare_prediction_files(task, [str(ds)], pred_paths, base_paths).value == 1.0
    else:
        with pytest.raises(DataError, match=error):
            compare_prediction_files(task, [str(ds)], pred_paths, base_paths)
