"""Metrics and significance tests: Spearman, non-NIL accuracy, Fisher z,
paired bootstrap; dataset loaders and report emission."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import ned as ned_mod
from . import relatedness as rel_mod
from .errors import DataError
from .graph import NodeTable, TypedGraph
from .ingest import RedirectMap
from .ppr import PprParams
from .tsv import read_tsv

DEFAULT_RESAMPLES = 10_000
MIN_RESAMPLES = 1000
SIGNIFICANCE_LEVEL = 0.05
DEFAULT_PARAMS = {"rel": PprParams(), "ned": ned_mod.DEFAULT_NED_PARAMS}  # walks given no params


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, each tie group given the mean of its ranks, as
    ``scipy.stats.rankdata`` gives them; a NaN anywhere makes every rank NaN."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    fresh = np.r_[True, ordered[1:] != ordered[:-1]]  # first slot of each tie group
    dense = np.cumsum(fresh)                          # tie group of each slot, from 1
    count = np.r_[np.flatnonzero(fresh), x.size]      # slots before each group, then n
    ranks = np.empty(x.size)
    ranks[order] = 0.5 * (count[dense] + count[dense - 1] + 1)
    return ranks


def spearman(gold, pred) -> float:
    """Rank correlation: Pearson over average-rank vectors (ties averaged)."""
    gold = np.asarray(gold, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if gold.shape != pred.shape:
        raise ValueError("gold and pred must have the same length")
    if len(gold) < 2:
        raise ValueError("need at least 2 pairs")
    rg = _average_ranks(gold)
    rp = _average_ranks(pred)
    if np.all(rg == rg[0]) or np.all(rp == rp[0]):
        raise ValueError("rank correlation undefined: zero variance in ranks")
    rg -= rg.mean()
    rp -= rp.mean()
    return float(np.dot(rg, rp) / math.sqrt(np.dot(rg, rg) * np.dot(rp, rp)))


class AccuracyResult(NamedTuple):
    value: float
    n: int                 # instances with a non-NIL gold entity
    correct: tuple[bool, ...]  # per such instance, in input order


def _is_nil(title: str | None) -> bool:
    return title is None or title == "" or title.upper() == "NIL"


def _version_map(redirects: dict[str, str] | None) -> RedirectMap:
    """Version redirects (old title -> new title) under the ingest chain rule:
    a target that is not itself an old title is final."""
    redirects = redirects or {}
    return RedirectMap({**dict.fromkeys(redirects.values()), **redirects})


def _outcomes(gold, titles: dict[str, str], vmap: RedirectMap, source: str) -> list[bool]:
    """Whether the predicted title matches, per (query_id, gold_title) pair
    whose gold title is a knowledge-base entity.

    Predicted titles are mapped through the version map ``vmap``; a title
    whose chain cycles or exceeds the depth cap is compared unmapped.
    """
    kb_gold = [(query_id, title) for query_id, title in gold if not _is_nil(title)]
    if not kb_gold:
        raise DataError("no instance has a gold entity in the knowledge base")
    outcomes = []
    for query_id, gold_title in kb_gold:
        if query_id not in titles:
            raise DataError(f"{source}: no prediction for query {query_id!r}")
        title = titles[query_id]
        outcomes.append((vmap.resolve(title)[0] or title) == gold_title)
    return outcomes


def accuracy(preds: list, gold: dict[str, str | None], nodes: NodeTable,
             redirects: dict[str, str] | None = None) -> AccuracyResult:
    """Non-NIL accuracy over NED predictions.

    The denominator counts only instances whose gold answer is a knowledge
    base entity; predicted titles are redirect-mapped before comparison, and
    a NIL prediction against a non-NIL gold counts as wrong.
    """
    pred_ids = {p.query_id for p in preds}
    if pred_ids != set(gold):
        missing = set(gold) ^ pred_ids
        raise DataError(f"query id mismatch between predictions and gold: {sorted(missing)[:5]}")
    titles = {p.query_id: p.title(nodes) for p in preds}
    correct = _outcomes([(p.query_id, gold[p.query_id]) for p in preds], titles,
                        _version_map(redirects), "predictions")
    return AccuracyResult(sum(correct) / len(correct), len(correct), tuple(correct))


def fisher_z_test(r1: float, r2: float, n1: int, n2: int) -> float:
    """Two-sided p-value for the difference of two correlations.

    z = (atanh r1 - atanh r2) / sqrt(1/(n1-3) + 1/(n2-3)), compared against
    the standard normal.
    """
    if n1 < 4 or n2 < 4:
        raise ValueError("fisher z test needs n >= 4 on both sides")
    if abs(r1) > 1.0 or abs(r2) > 1.0:
        raise ValueError("correlations must lie in [-1, 1]")
    if abs(r1) == 1.0 or abs(r2) == 1.0:
        warnings.warn("|r| = 1 clamped for the z transform", stacklevel=2)
        r1 = math.copysign(min(abs(r1), 1.0 - 1e-12), r1)
        r2 = math.copysign(min(abs(r2), 1.0 - 1e-12), r2)
    z = (math.atanh(r1) - math.atanh(r2)) / math.sqrt(1.0 / (n1 - 3) + 1.0 / (n2 - 3))
    return math.erfc(abs(z) / math.sqrt(2.0))


def paired_bootstrap(goldmatch_a, goldmatch_b, resamples: int = DEFAULT_RESAMPLES,
                     seed: int = 0) -> float:
    """One-sided paired bootstrap on the observed winner.

    Resamples instance indices with replacement; p is the fraction of
    resamples where the accuracy difference is zero or has the opposite sign
    to the full-sample difference. Identical systems give exactly 1.0, and
    the p-value is deterministic for a given seed.
    """
    a = np.asarray(goldmatch_a, dtype=np.float64)
    b = np.asarray(goldmatch_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired bootstrap needs equal-length outcome lists")
    if len(a) < 1:
        raise ValueError("paired bootstrap needs at least one instance")
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}")
    delta = a - b
    observed = float(delta.mean())
    if observed == 0.0:
        return 1.0
    n = len(delta)
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < resamples:
        chunk = min(1000, resamples - done)
        idx = rng.integers(0, n, size=(chunk, n))
        diffs = delta[idx].mean(axis=1)
        hits += int((diffs <= 0.0).sum() if observed > 0 else (diffs >= 0.0).sum())
        done += chunk
    return hits / resamples


def load_relatedness_pairs(path: str):
    """Read term1 <tab> term2 [<tab> gold_score] rows."""
    pairs = []
    for lineno, cols in read_tsv(path, 2, 3):
        gold = None
        if len(cols) == 3 and cols[2] != "":
            gold = _finite(cols[2], f"{path}:{lineno}: bad gold score")
        pairs.append((cols[0], cols[1], gold))
    return pairs


def load_redirect_map(path: str) -> dict[str, str]:
    """Read old_title <tab> new_title version-mapping rows."""
    return {cols[0]: cols[1] for _, cols in read_tsv(path, 2, 2)}


def load_rel_predictions(path: str) -> dict[tuple[str, str], float]:
    """Scores from an emitted relatedness prediction file, keyed by pair."""
    return _pooled_predictions("rel", [path])


def _finite(raw: str, where: str) -> float:
    """``raw`` as a finite float; anything else is a DataError at ``where``."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataError(f"{where} {raw!r}")
    return value


def load_ned_predictions(path: str) -> dict[str, str]:
    """Predicted titles from an emitted NED prediction file, keyed by query id."""
    return _pooled_predictions("ned", [path])


def _pooled_predictions(task: str, paths: list[str]) -> dict:
    """The predictions of ``paths``: titles by query id (ned) or scores by pair
    (rel; rows scored NA are skipped). A query id given twice, or a pair given
    two different scores (a pairs file may repeat a pair), is a DataError at its line."""
    out: dict = {}
    for path in paths:
        if task == "ned":
            rows = ((lineno, cols[0], cols[1]) for lineno, cols in read_tsv(path, 2, None))
        else:
            rows = ((lineno, (cols[0], cols[1]), _finite(cols[3], f"{path}:{lineno}: bad score"))
                    for lineno, cols in read_tsv(path, 4, None) if cols[3] != "NA")
        for lineno, key, value in rows:
            if key in out and (task == "ned" or out[key] != value):
                raise DataError(f"{path}:{lineno}: " + (f"query id {key!r} is predicted twice"
                                if task == "ned" else f"pair {key} has two different scores"))
            out[key] = value
    return out


@dataclass
class EvalReport:
    dataset: str
    metric: str                      # "spearman" or "accuracy"
    value: float
    n: int
    config: dict
    significance: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _spearman_over_scored(pairs, scores, source: str) -> tuple[float, int]:
    """Spearman of ``scores`` against gold over the gold pairs it scored."""
    joint = [(g, scores[(t1, t2)]) for t1, t2, g in pairs
             if g is not None and (t1, t2) in scores]
    try:
        value = spearman([g for g, _ in joint], [s for _, s in joint])
    except ValueError as exc:
        raise DataError(f"{source}: {exc}") from None
    return value, len(joint)


def load_gold(task: str, dataset_paths: list[str]) -> list:
    """The pooled gold of ``dataset_paths``: relatedness pairs or NED queries.
    A query id in more than one NED dataset is a DataError naming the later one."""
    if task == "rel":
        return [p for path in dataset_paths for p in load_relatedness_pairs(path)]
    if task == "ned":
        queries: dict[str, ned_mod.NedQuery] = {}
        for path in dataset_paths:
            for q in ned_mod.load_queries(path):
                if queries.setdefault(q.query_id, q) is not q:
                    raise DataError(f"{path}: query id {q.query_id!r} is in an earlier dataset; "
                                    f"query ids must not repeat across the pooled datasets")
        return list(queries.values())
    raise ValueError(f"unknown task {task!r}")


def score(task: str, name: str, gold: list, predicted: dict, baseline_paths, config: dict,
          redirects=None, resamples: int = DEFAULT_RESAMPLES, seed: int = 0,
          source: str = "predictions") -> EvalReport:
    """The report of ``predicted`` against ``load_gold``'s ``gold``, with the
    task's significance test against each baseline prediction file. A scoring
    error names ``predicted`` as ``source``.

    rel: Spearman over the gold pairs each system scored, and a two-sided
    Fisher z test, which needs 4 such pairs on each side. ned: non-NIL accuracy
    of the redirect-mapped titles over the queries with a knowledge-base gold
    entity, and a one-sided paired bootstrap."""
    if task == "rel":
        value, n = _spearman_over_scored(gold, predicted, source)
        test, settings = "fisher-z-two-sided", {}
    else:
        queries = [(q.query_id, q.gold_title) for q in gold]
        vmap = _version_map(redirects)
        ours = _outcomes(queries, predicted, vmap, source)
        value, n = sum(ours) / len(ours), len(ours)
        test, settings = "paired-bootstrap-one-sided", {"resamples": resamples, "seed": seed}
    report = EvalReport(name, "spearman" if task == "rel" else "accuracy", value, n, config)
    for base in baseline_paths or []:
        if task == "rel":
            base_value, base_n = _spearman_over_scored(
                gold, load_rel_predictions(base), f"baseline {base}")
            if min(n, base_n) < 4:
                raise DataError(f"baseline {base}: the fisher z test needs 4 scored "
                                f"gold pairs on each side, got {n} and {base_n}")
            p_value = fisher_z_test(value, base_value, n, base_n)
        else:
            theirs = _outcomes(queries, load_ned_predictions(base), vmap, f"baseline {base}")
            base_value = sum(theirs) / len(theirs)
            p_value = paired_bootstrap(ours, theirs, resamples, seed)
        report.significance.append({
            "baseline": base, "baseline_value": base_value, "p_value": p_value,
            "significant": p_value < SIGNIFICANCE_LEVEL, "test": test, **settings})
    return report


def run_eval(task: str, system: str, dataset_paths: list[str], *,
             graph: TypedGraph, store, nodes: NodeTable,
             params: PprParams | None = None, config: dict | None = None,
             baseline_paths: list[str] | None = None,
             on_unknown: str = "skip", workers: int | None = None,
             redirects: dict[str, str] | None = None, resolver=None,
             include_target: bool = True, out: str | None = None):
    """Run one system over one or more datasets (pooled) and score it.

    Returns (EvalReport, predictions), the report None when no instance has
    gold; pooled datasets get one metric and one significance test. The walk
    uses ``params``, else ``DEFAULT_PARAMS[task]``, on ``workers`` threads
    (None: every core). The report's config records the run (task, system,
    walk values, dataset, and ``on_unknown`` or ``include_target``) over the
    caller's labels in ``config``. With ``out`` the predictions are written
    there as TSV before scoring, so a scoring error still leaves them. The
    extras count skipped pairs, or NED fallbacks and NIL answers.
    """
    gold = load_gold(task, dataset_paths)
    params = params or DEFAULT_PARAMS[task]
    name = "+".join(dataset_paths)
    config = {**(config or {}), **asdict(params), "task": task, "system": system,
              "dataset": name}

    if task == "rel":
        config["on_unknown"] = on_unknown
        preds = rel_mod.score_pairs(gold, graph, store, params, system, on_unknown, workers)
        if out:
            rel_mod.write_predictions(preds, out)
        if all(g is None for _, _, g in gold):
            return None, preds
        predicted = {(t1, t2): s for t1, t2, _, s in preds if s is not None}
        extras = {"skipped_pairs": sum(1 for row in preds if row[3] is None)}
    else:
        config["include_target"] = include_target
        preds = ned_mod.run_batch(gold, graph, store, params, system, workers, resolver,
                                  nodes, include_target)
        if out:
            ned_mod.write_predictions(preds, nodes, out)
        if all(q.gold_title is None for q in gold):
            return None, preds
        predicted = {p.query_id: p.title(nodes) for p in preds}
        fallback = sum(1 for p in preds if p.fallback_used)
        extras = {"fallback_count": fallback, "fallback_rate": fallback / len(preds),
                  "nil_predictions": sum(1 for p in preds if p.predicted is None)}
    report = score(task, name, gold, predicted, baseline_paths, config, redirects)
    report.extras.update(extras)
    return report, preds


def compare_prediction_files(task: str, dataset_paths: list[str],
                             pred_paths: list[str],
                             baseline_paths: list[str] | None = None, *,
                             redirects: dict[str, str] | None = None,
                             resamples: int = DEFAULT_RESAMPLES,
                             seed: int = 0) -> EvalReport:
    """Score already-emitted predictions against gold, pooling datasets."""
    gold = load_gold(task, dataset_paths)
    predicted = _pooled_predictions(task, pred_paths)
    return score(task, "+".join(dataset_paths), gold, predicted, baseline_paths,
                 {"task": task}, redirects, resamples, seed,
                 f"predictions {'+'.join(pred_paths)}")
