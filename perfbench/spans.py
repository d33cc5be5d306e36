"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own side: each public function of a
layer is wrapped in the namespace its callers look it up in (``relatedness``
and ``ned`` import ``run_ppr`` and ``build_teleport`` by name, so those are
wrapped there). A span holds its name, start, end, busy time, parent span
and the id of the pair or query it serves. Lazy iterators are timed only
while they are consumed. Spans stay in memory and are written at exit.

A span's self time is its busy time minus the part of it covered by child
spans; children running in worker threads may overlap, so their intervals
are merged before subtracting.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("ingest", "graph", "dictionary", "ppr", "relatedness", "ned",
          "evaluation", "cli")

# layer -> per-layer metrics -> the end-to-end metrics they should move, and
# the workloads on which they should (and should not) move them
LAYER_MAP = {
    "ingest": {"metrics": ["ingest.read_pages_s", "ingest.resolve_links_s",
                           "ingest.emit_edge_lists_s", "ingest.emit_anchor_counts_s",
                           "ingest.links_per_s", "ingest.self_s"],
               "moves": ["ingest_s"], "on": ["pipeline"], "no_change_on": ["rel", "ned"]},
    "graph.build": {"metrics": ["graph.load_edge_file_s", "graph.from_arcs_s",
                                "graph.from_arcs_calls", "graph.filter_reciprocal_s",
                                "graph.to_undirected_s", "graph.merge_s",
                                "graph.save_snapshot_s", "setup.graph.from_arcs_s",
                                "setup.graph.save_snapshot_s"],
                    "moves": ["build_s", "setup_s"], "on": ["pipeline", "rel", "ned"],
                    "no_change_on": []},
    "graph.read": {"metrics": ["graph.load_nodes_s", "graph.load_snapshot_s",
                               "graph.reverse_s", "graph.non_isolated_count_s", "graph.self_s"],
                   "moves": ["load_s", "ned_ngd_s", "rel_ngd_s"], "on": ["pipeline", "rel", "ned"],
                   "no_change_on": []},
    "dictionary": {"metrics": ["dictionary.build_s", "dictionary.save_s",
                               "dictionary.sqlite_create_s", "dictionary.load_s",
                               "setup.dictionary.build_s", "setup.dictionary.save_s"],
                   "moves": ["build_s", "load_s", "setup_s"], "on": ["pipeline", "rel", "ned"],
                   "no_change_on": []},
    "dictionary.scan": {"metrics": ["dictionary.scan_s", "dictionary.scan_lookups",
                                    "dictionary.scan_hit_ratio", "dictionary.sqlite_scan_s",
                                    "dictionary.self_s"],
                        "moves": ["ned_queries_per_s", "ned_ngd_s"], "on": ["ned"],
                        "no_change_on": ["rel", "pipeline"]},
    "ppr": {"metrics": ["ppr.build_teleport_s", "ppr.engine_build_s", "ppr.run_s",
                        "ppr.walks", "ppr.iterations", "ppr.walk_ms_mean",
                        "ppr.spmv_ms_per_iter", "ppr.spmv_bytes_computed",
                        "ppr.spmv_gbps_computed", "ppr.truncate_s", "ppr.truncate_ms_mean",
                        "ppr.ppv_nnz_mean", "ppr.self_s"],
            "moves": ["rel_pairs_per_s", "ned_queries_per_s"], "on": ["rel", "ned"],
            "no_change_on": ["pipeline"]},
    "relatedness": {"metrics": ["relatedness.term_ppv_s", "relatedness.cosine_s",
                                "relatedness.walks_per_pair",
                                "relatedness.distinct_terms_per_walk",
                                "relatedness.ngd_relatedness_s",
                                "relatedness.ngd_relatedness_calls", "relatedness.self_s"],
                    "moves": ["rel_pairs_per_s", "rel_ngd_s", "ned_ngd_s"], "on": ["rel", "ned"],
                    "no_change_on": ["pipeline"]},
    "ned": {"metrics": ["ned.load_queries_s", "ned.generate_candidates_s",
                        "ned.extract_context_s", "ned.disambiguate_self_s",
                        "ned.ngd_disambiguate_self_s", "ned.context_mentions_mean",
                        "ned.teleport_nnz_mean", "ned.fallback_share", "ned.nil_share",
                        "ned.worker_busy_share", "ned.self_s"],
            "moves": ["ned_queries_per_s", "ned_ngd_s"], "on": ["ned"],
            "no_change_on": ["rel", "pipeline"]},
    "evaluation": {"metrics": ["evaluation.compare_prediction_files_s",
                               "evaluation.paired_bootstrap_s", "evaluation.accuracy_s",
                               "evaluation.spearman_s", "evaluation.self_s"],
                   "moves": [], "on": ["ned", "rel"], "no_change_on": ["pipeline"]},
    "cli": {"metrics": ["cli.write_predictions_s", "cli.self_s"],
            "moves": ["ingest_s", "build_s", "ned_eval_s"], "on": ["pipeline", "ned"],
            "no_change_on": ["rel"]},
}

# (unit, better) for every per-layer metric; times not listed here are "s"
PER_LAYER_UNITS = {
    "ingest.links_per_s": ("1/s", "higher"),
    "graph.from_arcs_calls": ("count", "lower"),
    "dictionary.scan_lookups": ("count", "lower"),
    "dictionary.scan_hit_ratio": ("ratio", "higher"),
    "ppr.walks": ("count", "lower"),
    "ppr.iterations": ("count", "lower"),
    "ppr.walk_ms_mean": ("ms", "lower"),
    "ppr.spmv_ms_per_iter": ("ms", "lower"),
    "ppr.spmv_bytes_computed": ("B", "lower"),
    "ppr.spmv_gbps_computed": ("GB/s", "higher"),
    "ppr.truncate_ms_mean": ("ms", "lower"),
    "ppr.ppv_nnz_mean": ("count", "lower"),
    "relatedness.walks_per_pair": ("count", "lower"),
    "relatedness.distinct_terms_per_walk": ("ratio", "higher"),
    "relatedness.ngd_relatedness_calls": ("count", "lower"),
    "ned.context_mentions_mean": ("count", "higher"),
    "ned.teleport_nnz_mean": ("count", "lower"),
    "ned.fallback_share": ("ratio", "lower"),
    "ned.nil_share": ("ratio", "lower"),
    "ned.worker_busy_share": ("ratio", "higher"),
    "trace.attributed_share": ("ratio", "higher"),
    "trace.spans_per_rep": ("count", "lower"),
    "trace.overhead_primary_ops_per_s": ("1/s", "higher"),
}


def per_layer_names() -> list[str]:
    names = []
    for entry in LAYER_MAP.values():
        names += [m for m in entry["metrics"] if m not in names]
    names += [f"{layer}.self_s" for layer in LAYERS if f"{layer}.self_s" not in names]
    names += ["trace.attributed_share", "trace.spans_per_rep", "trace.overhead_load_s",
              "trace.overhead_primary_ops_per_s", "trace.overhead_secondary_s"]
    return names


def unit_of(name: str) -> tuple[str, str]:
    return PER_LAYER_UNITS.get(name, ("s", "lower"))


class Recorder:
    """In-memory span buffer shared by every wrapped function."""

    def __init__(self):
        self.spans: list[tuple] = []   # (sid, name, t0, t1, busy, parent, rid, ok, info)
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to the batch call that
        # started the pool in the main thread
        return self._main_stack[-1] if self._main_stack else None

    def count(self, key: str, value=1) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, fn, name: str, request: bool = False, observe=None):
        """Time ``fn`` as span ``name``; ``request`` starts a new request id."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = rec._parent(stack)
            local = rec._local
            rid = getattr(local, "rid", None)
            fresh = request and rid is None
            if fresh:
                rid = local.rid = next(rec._rids)
            sid = next(rec._ids)
            stack.append(sid)
            ok = False
            info = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if fresh:
                    local.rid = None
                if ok and observe is not None:
                    info = observe(rec, args, kwargs, result)
                rec.spans.append((sid, name, t0, t1, t1 - t0, parent, rid, ok, info))
            return result

        return traced

    def wrap_iter(self, fn, name: str):
        """Time a generator function while its result is consumed."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _traced_iter(rec, fn(*args, **kwargs), name)

        return traced


def _traced_iter(rec: Recorder, it, name: str):
    """Yield from ``it``, accumulating the time spent producing each item.

    The iterator is on the span stack only while its first item is
    produced, which is when nested iterators and wrapped calls pick their
    parent; after that the per-item cost is two clock reads.
    """
    clock = time.perf_counter
    sid = next(rec._ids)
    stack = rec._stack()
    parent = None
    rid = None
    first = None
    busy = 0.0
    items = 0
    it = iter(it)
    while True:
        t0 = clock()
        if first is None:
            parent = rec._parent(stack)
            rid = getattr(rec._local, "rid", None)
            first = t0
            stack.append(sid)
            try:
                item = next(it, _DONE)
            finally:
                stack.pop()
        else:
            item = next(it, _DONE)
        t1 = clock()
        busy += t1 - t0
        if item is _DONE:
            rec.spans.append((sid, name, first, t1, busy, parent, rid, True,
                              {"items": items, "lazy": True}))
            return
        items += 1
        yield item


_DONE = object()


def _lazy(span) -> bool:
    return bool(span[8]) and span[8].get("lazy", False)


def _union_length(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Busy time minus child coverage, per span id."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        if s[5] in by_id:
            children[s[5]].append(s)
    out = {}
    for s in spans:
        kids = children.get(s[0], ())
        lazy = sum(k[4] for k in kids if _lazy(k))
        plain = [(max(k[2], s[2]), min(k[3], s[3])) for k in kids if not _lazy(k)]
        out[s[0]] = max(0.0, s[4] - lazy - _union_length(plain))
    return out


def write_spans(spans, path: str) -> None:
    keys = ("id", "name", "start", "end", "busy", "parent", "request", "ok", "info")
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(keys, s))) + "\n")


# ---------------------------------------------------------------------------
# instrumentation of the package's public functions

def _walk_info(rec, args, kwargs, result):
    params = args[2] if len(args) > 2 else kwargs["params"]
    return {"iterations": params.iterations, "nnz": result.nnz}


def _graph_info(rec, args, kwargs, result):
    g = args[0] if args else kwargs["graph"]
    # one SpMV reads the CSC value, index and pointer arrays, reads the
    # iterate and writes the next one: computed from array sizes
    return {"bytes_per_iter": g.n_arcs * 12 + (g.n_nodes + 1) * 8 + g.n_nodes * 16}


def _nnz_info(rec, args, kwargs, result):
    return {"nnz": result.nnz}


def _term_info(rec, args, kwargs, result):
    return {"term": args[0]}


def _len_info(rec, args, kwargs, result):
    return {"mentions": len(result)}


def _pred_info(rec, args, kwargs, result):
    return {"fallback": result.fallback_used, "nil": result.predicted is None}


def _batch_info(rec, args, kwargs, result):
    system = kwargs.get("system", args[4] if len(args) > 4 else "ppr")
    return {"system": system, "workers": kwargs.get("workers", 1)}


class Instrumentation:
    """Installs wrappers on the package's public functions and removes them."""

    def __init__(self, gw, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple] = []
        ing, gr, dic, ppr = gw.ingest, gw.graph, gw.dictionary, gw.ppr
        rel, ned, ev, cli = gw.relatedness, gw.ned, gw.evaluation, gw.cli
        plan = [
            (ing, "run_ingest", "ingest.run_ingest"),
            (ing, "read_pages", "ingest.read_pages"),
            (ing, "disambiguation_targets", "ingest.disambiguation_targets"),
            (ing, "emit_edge_lists", "ingest.emit_edge_lists"),
            (ing, "emit_anchor_counts", "ingest.emit_anchor_counts"),
            (gr, "load_edge_file", "graph.load_edge_file"),
            (gr, "filter_reciprocal", "graph.filter_reciprocal"),
            (gr, "to_undirected", "graph.to_undirected"),
            (gr, "merge", "graph.merge"),
            (gr, "build_graph", "graph.build_graph"),
            (gr, "save_snapshot", "graph.save_snapshot"),
            (gr, "stats", "graph.stats"),
            (gr, "load_nodes", "graph.load_nodes"),
            (gr, "load_snapshot", "graph.load_snapshot"),
            (gr.TypedGraph, "from_arcs", "graph.from_arcs"),
            (gr.TypedGraph, "reverse", "graph.reverse"),
            (gr.TypedGraph, "non_isolated_count", "graph.non_isolated_count"),
            (dic.Dictionary, "build", "dictionary.build"),
            (dic.Dictionary, "from_counts", "dictionary.from_counts"),
            (dic.Dictionary, "save", "dictionary.save"),
            (dic.Dictionary, "load", "dictionary.load"),
            (dic.SqliteDictionary, "create", "dictionary.sqlite_create"),
            (ppr.PprEngine, "__init__", "ppr.engine_build"),
            (ppr.PprEngine, "run", "ppr.run", False, _walk_info),
            (rel, "score_pairs", "relatedness.score_pairs"),
            (rel, "relate", "relatedness.relate", True),
            (rel, "ngd_relate", "relatedness.ngd_relate", True),
            (rel, "term_ppv", "relatedness.term_ppv", False, _term_info),
            (rel, "cosine", "relatedness.cosine"),
            (ned, "load_queries", "ned.load_queries"),
            (ned, "run_batch", "ned.run_batch", False, _batch_info),
            (ned, "disambiguate", "ned.disambiguate", True, _pred_info),
            (ned, "ngd_disambiguate", "ned.ngd_disambiguate", True, _pred_info),
            (ned, "mfs_baseline", "ned.mfs_baseline", True, _pred_info),
            (ned, "generate_candidates", "ned.generate_candidates"),
            (ned, "extract_context", "ned.extract_context", False, _len_info),
            (ned, "write_predictions", "cli.write_predictions"),
            (ev, "compare_prediction_files", "evaluation.compare_prediction_files"),
            (ev, "paired_bootstrap", "evaluation.paired_bootstrap"),
            (ev, "accuracy", "evaluation.accuracy"),
            (ev, "spearman", "evaluation.spearman"),
            (ev, "load_relatedness_pairs", "evaluation.load_relatedness_pairs"),
            (ev, "load_ned_predictions", "evaluation.load_ned_predictions"),
            (cli, "main", "cli.main"),
        ]
        # functions imported by name into their callers' modules
        for owner in (ppr, rel, ned):
            plan.append((owner, "run_ppr", "ppr.run_ppr", False, _graph_info))
            plan.append((owner, "build_teleport", "ppr.build_teleport", False, _nnz_info))
        for owner in (ppr, rel):
            plan.append((owner, "truncate_ppv", "ppr.truncate_ppv"))
        for owner in (rel, ned):
            plan.append((owner, "ngd_relatedness", "relatedness.ngd_relatedness"))
        self._plan = plan
        self._iters = [(ing, "iter_links", "ingest.iter_links"),
                       (ing, "resolve_redirects", "ingest.resolve_redirects"),
                       (ing, "iter_anchors", "ingest.iter_anchors")]
        self._scan_owners = (dic, ned)
        self._sqlite_type = dic.SqliteDictionary
        self._dict_type = dic.Dictionary

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        rec = self.rec
        for owner, attr, name, *extra in self._plan:
            request = extra[0] if extra else False
            observe = extra[1] if len(extra) > 1 else None
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(rec.wrap(raw.__func__, name, request, observe)))
            else:
                self._set(owner, attr, rec.wrap(raw, name, request, observe))
        for owner, attr, name in self._iters:
            self._set(owner, attr, rec.wrap_iter(owner.__dict__[attr], name))
        for owner in self._scan_owners:
            self._set(owner, "longest_match_scan", self._scan(owner.longest_match_scan))
        get = self._dict_type.__dict__["get"]

        def counted_get(store, mention):
            entry = get(store, mention)
            rec.count("dict_get")
            if entry is not None:
                rec.count("dict_hit")
            return entry

        self._set(self._dict_type, "get", counted_get)

    def _scan(self, fn):
        plain = self.rec.wrap(fn, "dictionary.scan")
        sqlite = self.rec.wrap(fn, "dictionary.sqlite_scan")
        sqlite_type = self._sqlite_type

        def scan(store, tokens):
            return (sqlite if isinstance(store, sqlite_type) else plain)(store, tokens)

        return scan

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced repetition

def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(rec: Recorder, windows) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``windows`` are the (start, end) intervals the benchmark timed; the
    attributed share is the part of them covered by top-level layer spans.
    """
    spans = rec.spans
    st = self_times(spans)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    by_id = {}
    for s in spans:
        by_name[s[1]].append(s)
        by_id[s[0]] = s

    def self_of(*names) -> float:
        return sum(st[s[0]] for n in names for s in by_name[n])

    def info(name, key):
        return [s[8][key] for s in by_name[name] if s[8] and key in s[8]]

    m: dict[str, float] = {}
    m["ingest.read_pages_s"] = self_of("ingest.read_pages")
    m["ingest.resolve_links_s"] = self_of("ingest.iter_links", "ingest.resolve_redirects",
                                          "ingest.disambiguation_targets")
    m["ingest.emit_edge_lists_s"] = self_of("ingest.emit_edge_lists")
    m["ingest.emit_anchor_counts_s"] = self_of("ingest.emit_anchor_counts", "ingest.iter_anchors")
    link_time = self_of("ingest.iter_links", "ingest.resolve_redirects")
    m["ingest.links_per_s"] = sum(info("ingest.iter_links", "items")) / link_time if link_time else 0.0

    for fn in ("load_edge_file", "from_arcs", "filter_reciprocal", "to_undirected", "merge",
               "save_snapshot", "load_nodes", "load_snapshot", "reverse", "non_isolated_count"):
        m[f"graph.{fn}_s"] = self_of(f"graph.{fn}")
    m["graph.from_arcs_calls"] = float(len(by_name["graph.from_arcs"]))

    m["dictionary.build_s"] = self_of("dictionary.build", "dictionary.from_counts")
    m["dictionary.save_s"] = self_of("dictionary.save")
    m["dictionary.sqlite_create_s"] = self_of("dictionary.sqlite_create")
    m["dictionary.load_s"] = self_of("dictionary.load")
    m["dictionary.scan_s"] = self_of("dictionary.scan")
    m["dictionary.sqlite_scan_s"] = self_of("dictionary.sqlite_scan")
    gets = rec.counts["dict_get"]
    m["dictionary.scan_lookups"] = float(gets)
    m["dictionary.scan_hit_ratio"] = rec.counts["dict_hit"] / gets if gets else 0.0

    walks = by_name["ppr.run"]
    iterations = sum(info("ppr.run", "iterations"))
    run_s = self_of("ppr.run")
    per_iter = max(info("ppr.run_ppr", "bytes_per_iter"), default=0)
    m["ppr.build_teleport_s"] = self_of("ppr.build_teleport")
    m["ppr.engine_build_s"] = self_of("ppr.engine_build")
    m["ppr.run_s"] = run_s
    m["ppr.walks"] = float(len(walks))
    m["ppr.iterations"] = float(iterations)
    m["ppr.walk_ms_mean"] = 1000 * run_s / len(walks) if walks else 0.0
    m["ppr.spmv_ms_per_iter"] = 1000 * run_s / iterations if iterations else 0.0
    m["ppr.spmv_bytes_computed"] = float(per_iter)
    m["ppr.spmv_gbps_computed"] = per_iter * iterations / run_s / 1e9 if run_s else 0.0
    m["ppr.truncate_s"] = self_of("ppr.truncate_ppv")
    n_trunc = len(by_name["ppr.truncate_ppv"])
    m["ppr.truncate_ms_mean"] = 1000 * m["ppr.truncate_s"] / n_trunc if n_trunc else 0.0
    m["ppr.ppv_nnz_mean"] = _mean(info("ppr.run", "nnz"))

    relates = [s for s in by_name["relatedness.relate"] if s[7]]
    pair_rids = {s[6] for s in relates}
    m["relatedness.term_ppv_s"] = self_of("relatedness.term_ppv")
    m["relatedness.cosine_s"] = self_of("relatedness.cosine")
    m["relatedness.walks_per_pair"] = (
        sum(1 for s in walks if s[6] in pair_rids) / len(relates) if relates else 0.0)
    terms = info("relatedness.term_ppv", "term")
    m["relatedness.distinct_terms_per_walk"] = len(set(terms)) / len(terms) if terms else 0.0
    m["relatedness.ngd_relatedness_s"] = self_of("relatedness.ngd_relatedness")
    m["relatedness.ngd_relatedness_calls"] = float(len(by_name["relatedness.ngd_relatedness"]))

    m["ned.load_queries_s"] = self_of("ned.load_queries")
    m["ned.generate_candidates_s"] = self_of("ned.generate_candidates")
    m["ned.extract_context_s"] = self_of("ned.extract_context")
    m["ned.disambiguate_self_s"] = self_of("ned.disambiguate")
    m["ned.ngd_disambiguate_self_s"] = self_of("ned.ngd_disambiguate")
    m["ned.context_mentions_mean"] = _mean(info("ned.extract_context", "mentions"))
    m["ned.teleport_nnz_mean"] = _mean(
        s[8]["nnz"] for s in by_name["ppr.build_teleport"]
        if s[8] and by_id.get(s[5], (0, ""))[1] == "ned.disambiguate")
    preds = [s[8] for s in by_name["ned.disambiguate"] if s[8]]
    m["ned.fallback_share"] = _mean(float(p["fallback"]) for p in preds)
    m["ned.nil_share"] = _mean(float(p["nil"]) for p in preds)
    busy = []
    for b in by_name["ned.run_batch"]:
        if b[8] and b[8]["workers"] > 1:
            kids = sum(s[4] for s in spans if s[5] == b[0])
            busy.append(kids / (b[8]["workers"] * b[4]))
    m["ned.worker_busy_share"] = _mean(busy)

    for fn in ("compare_prediction_files", "paired_bootstrap", "accuracy", "spearman"):
        m[f"evaluation.{fn}_s"] = self_of(f"evaluation.{fn}")
    m["cli.write_predictions_s"] = self_of("cli.write_predictions")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(st[s[0]] for s in spans if s[1].split(".")[0] == layer)

    roots = [(s[2], s[3]) for s in spans if s[5] is None]
    covered = sum(_union_length([(max(a, w0), min(b, w1)) for a, b in roots if b > w0 and a < w1])
                  for w0, w1 in windows)
    total = sum(w1 - w0 for w0, w1 in windows)
    m["trace.attributed_share"] = covered / total if total else 0.0
    m["trace.spans_per_rep"] = float(len(spans))
    return m


def setup_metrics(rec: Recorder) -> dict[str, float]:
    st = self_times(rec.spans)

    def self_of(*names) -> float:
        return sum(st[s[0]] for s in rec.spans if s[1] in names)

    return {"setup.graph.from_arcs_s": self_of("graph.from_arcs"),
            "setup.graph.save_snapshot_s": self_of("graph.save_snapshot"),
            "setup.dictionary.build_s": self_of("dictionary.build", "dictionary.from_counts"),
            "setup.dictionary.save_s": self_of("dictionary.save")}
