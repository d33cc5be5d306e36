"""The benchmark's three workloads.

Each workload has a ``setup`` that generates its inputs from the seed and
builds whatever its timed phase reads, a ``rep`` that runs the timed phase
once as a closed loop (one process, the whole dataset as one batch call, the
way the CLI does) and ``checks`` that verify outputs once per run.

``rep`` returns the phase timings (``load_s`` as a list of samples), the
operations attempted and failed, the (start, end) windows it timed and a
digest of every output it wrote.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

import gen

# Counts are scaled so that one repetition takes one to two seconds on a
# 2-core machine: a 35 s run then collects 12 to 30 samples per metric, and
# its medians vary from run to run about as much as those of a fixed kernel
# on the same host. Each workload keeps its ratios: walk graphs of about 2x
# (rel) and 9x (ned) the 2 MiB L2 in computed working set, about 1.6 pairs
# per term, 12 queries per document, 0.3 dictionary mentions per node.
SCALES = {
    "pipeline": {"full": {"pages": 5_000}, "toy": {"pages": 800}},
    "rel": {"full": {"nodes": 25_000, "topics": 16, "topic_size": 40, "pairs": 30,
                     "filler": 2_500},
            "toy": {"nodes": 5_000, "topics": 6, "topic_size": 20, "pairs": 12,
                    "filler": 500}},
    "ned": {"full": {"nodes": 100_000, "topics": 20, "topic_size": 60, "docs": 2,
                     "queries_per_doc": 12, "doc_tokens": 400, "filler": 30_000},
            "toy": {"nodes": 10_000, "topics": 4, "topic_size": 20, "docs": 1,
                    "queries_per_doc": 6, "doc_tokens": 200, "filler": 3_000}},
}

INGEST_DROP_PATHS = (
    "pages_dropped_namespace", "pages_rejected_control_chars",
    "links_dropped_redirect_cycle", "links_dropped_unknown_title",
    "links_dropped_self_loop", "links_dropped_disambiguation_endpoint",
    "links_dropped_kind_mismatch", "links_duplicates_collapsed",
    "anchors_dropped_redirect_cycle", "anchors_dropped_unknown_title",
    "anchors_dropped_category_target", "anchors_dropped_empty_mention",
    "anchors_dropped_empty_expansion",
)


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def csr_bytes(n_nodes: int, n_arcs: int) -> int:
    """Computed working set of a graph and its transition matrix: CSR
    offsets and neighbors plus the CSC values, indices and pointers."""
    return (n_nodes + 1) * 8 + n_arcs * 4 + n_arcs * 12 + (n_nodes + 1) * 8


def quiet_cli(gw, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return gw.cli.main(argv)


class Workload:
    name = ""

    # a repetition repeats the runtime load until this much time is spent,
    # so short loads still give enough samples for a steady median
    load_repeat_s = 0.25

    # what ``rep`` keeps of its runtime for ``checks``
    KEPT = ("graph", "store", "nodes", "queries", "preds")

    def __init__(self, gw, scale: str, seed: int):
        self.gw = gw
        self.cfg = SCALES[self.name][scale]
        self.seed = seed
        self.nproc = len(os.sched_getaffinity(0))

    def load(self, data: str, spec: str):
        """Load the runtime every ``rel``/``ned`` command starts with.

        Returns ((nodes, graph, store), load times, (start, end))."""
        gw = self.gw
        times = []
        # a command starts in a fresh process: drop what the previous
        # repetition kept and collect outside the timed region, so every
        # load meets the same small heap and the same collector state
        for attr in self.KEPT:
            setattr(self, attr, None)
        start = None
        while True:
            runtime = None
            gc.collect()
            t0 = time.perf_counter()
            start = start or t0
            runtime = (gw.graph.load_nodes(os.path.join(data, "nodes.tsv")),
                       gw.graph.load_snapshot(os.path.join(data, f"graph.{spec}.gwkb")),
                       gw.dictionary.Dictionary.load(os.path.join(data, "dict.gwdict")))
            end = time.perf_counter()
            times.append(end - t0)
            if end - start >= self.load_repeat_s:
                return runtime, times, (start, end)

    def walk_setup(self, rng):
        """c10 graph plus planted topics, saved with its node table."""
        gw, cfg = self.gw, self.cfg
        n = cfg["nodes"]
        src, dst = gen.c10_arcs(rng, n)
        topics, tsrc, tdst = gen.planted_topics(rng, n, cfg["topics"], cfg["topic_size"])
        graph = gw.graph.TypedGraph.from_arcs(n, np.concatenate([src, tsrc]),
                                              np.concatenate([dst, tdst]), spec="Hd")
        os.makedirs("data", exist_ok=True)
        gw.graph.save_snapshot(graph, "data/graph.Hd.gwkb")
        gen.write_nodes("data/nodes.tsv", n)
        self.working_set_bytes = csr_bytes(n, graph.n_arcs)
        return topics

    def save_dictionary(self, counts) -> None:
        self.gw.dictionary.Dictionary.from_counts(counts).save("data/dict.gwdict")

    def quality(self) -> dict:
        """Result-quality figures printed with the metrics (not gated)."""
        return {}

    def sampled_ppv_sums_to_one(self, graph, entries) -> bool:
        ppr = self.gw.ppr
        teleport = ppr.build_teleport(entries, graph.n_nodes)
        ppv = ppr.run_ppr(graph, teleport, ppr.PprParams(k=None))
        return abs(ppv.total() - 1.0) <= 1e-9


class Pipeline(Workload):
    """Write side: ``graphwalk ingest``, ``graphwalk build``, runtime reload."""

    name = "pipeline"

    def setup(self) -> str:
        shutil.rmtree("inputs", ignore_errors=True)
        os.makedirs("inputs")
        rng = np.random.default_rng(self.seed)
        self.records = gen.pipeline_records(rng, "inputs", self.cfg["pages"])
        return digest_files(f"inputs/{f}" for f in ("pages.tsv", "links.tsv", "anchors.tsv"))

    def rep(self) -> dict:
        gw = self.gw
        for d in ("ingested", "data"):
            shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        rc_ingest = quiet_cli(gw, ["ingest", "--pages", "inputs/pages.tsv",
                                   "--links", "inputs/links.tsv",
                                   "--anchors", "inputs/anchors.tsv", "--out", "ingested"])
        t1 = time.perf_counter()
        rc_build = quiet_cli(gw, ["build", "--ingest-dir", "ingested", "--out", "data",
                                  "--specs", "Hr,HrCu", "--sqlite-dict"])
        t2 = time.perf_counter()
        (nodes, graph, _), load_times, load_window = self.load("data", "Hr")
        self.working_set_bytes = csr_bytes(len(nodes), graph.n_arcs)
        outputs = [f"ingested/{f}" for f in ("nodes.tsv", "edges.H.tsv", "edges.I.tsv",
                                             "edges.C.tsv", "dict_counts.tsv",
                                             "ingest_report.json")]
        outputs += [f"data/{f}" for f in ("graph.Hr.gwkb", "graph.HrCu.gwkb", "dict.gwdict")]
        return {"load_s": load_times, "primary_s": t1 - t0,
                "primary_ops": sum(self.records.values()), "secondary_s": t2 - t1,
                "windows": [(t0, t1), (t1, t2), load_window],
                "attempted": 3, "failed": int(rc_ingest != 0) + int(rc_build != 0),
                "digest": digest_files(outputs),
                "detail": {"ingest_s": t1 - t0, "build_s": t2 - t1}}

    def checks(self) -> dict:
        gw = self.gw
        with open("ingested/ingest_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        tallies = report["tallies"]
        nodes = gw.graph.load_nodes("ingested/nodes.tsv")
        snapshots_equal = True
        for spec in ("Hr", "HrCu"):
            mem = gw.graph.build_graph(spec, "ingested", nodes)
            disk = gw.graph.load_snapshot(f"data/graph.{spec}.gwkb")
            snapshots_equal &= (np.array_equal(mem.offsets, disk.offsets)
                                and np.array_equal(mem.neighbors, disk.neighbors)
                                and np.array_equal(mem.kinds, disk.kinds)
                                and mem.spec == disk.spec and mem.flags == disk.flags)
        store = gw.dictionary.Dictionary.load("data/dict.gwdict")
        sqlite = gw.dictionary.SqliteDictionary("data/dict.sqlite")
        sample = sorted(store.entries)[::max(1, len(store) // 200)]
        return {
            "anchor_count_conservation": report["anchor_count_conservation"] is True,
            "every_drop_path_exercised": all(tallies.get(k, 0) > 0 for k in INGEST_DROP_PATHS),
            "reloaded_snapshots_equal_in_memory_graphs": bool(snapshots_equal),
            "sqlite_dictionary_matches": all(sqlite.get(m) == store.get(m) for m in sample),
        }


class Relatedness(Workload):
    """Walk-heavy reads: one ``score_pairs`` call over a pair set with
    repeated terms, then the shared-inlink baseline over the same pairs."""

    name = "rel"

    def setup(self) -> str:
        rng = np.random.default_rng(self.seed)
        topics = self.walk_setup(rng)
        cfg = self.cfg
        counts, pairs, unknown = gen.rel_inputs(rng, cfg["nodes"], topics, cfg["pairs"])
        counts.update(gen.filler_counts(rng, cfg["nodes"], cfg["filler"], "w"))
        self.save_dictionary(counts)
        gen.write_lines("data/pairs.tsv", "term1\tterm2\tgold",
                        (f"{a}\t{b}\t{g:g}" for a, b, g in pairs))
        self.unknown = set(unknown)
        terms = [t for a, b, _ in pairs for t in (a, b) if not t.startswith("unknown")]
        self.repetition = len(terms) / len(set(terms))
        return digest_files(f"data/{f}" for f in ("nodes.tsv", "graph.Hd.gwkb",
                                                   "dict.gwdict", "pairs.tsv"))

    def _write(self, rows, path) -> None:
        gen.write_lines(path, "term1\tterm2\tgold\tscore",
                        (f"{t1}\t{t2}\t{'' if g is None else f'{g:.12g}'}\t"
                         f"{'NA' if s is None else f'{s:.12g}'}" for t1, t2, g, s in rows))

    def _failures(self, rows) -> int:
        bad = 0
        for i, (_, _, _, score) in enumerate(rows):
            skipped = score is None
            bad += int(skipped != (i in self.unknown)
                       or (not skipped and not 0.0 <= score <= 1.0))
        return bad + abs(len(rows) - self.cfg["pairs"])

    def rep(self) -> dict:
        gw = self.gw
        (nodes, graph, store), load_times, load_window = self.load("data", "Hd")
        pairs = gw.evaluation.load_relatedness_pairs("data/pairs.tsv")
        params = gw.ppr.PprParams()
        t2 = time.perf_counter()
        rows = gw.relatedness.score_pairs(pairs, graph, store, params, "ppr", "skip")
        t3 = time.perf_counter()
        rows_ngd = gw.relatedness.score_pairs(pairs, graph, store, params, "ngd", "skip")
        t4 = time.perf_counter()
        self._write(rows, "rel_ppr.tsv")
        self._write(rows_ngd, "rel_ngd.tsv")
        spearman = gw.evaluation.spearman
        self.graph, self.store = graph, store
        self.spearman = {
            "rel_spearman": spearman([g for *_, g, s in rows if s is not None],
                                     [s for *_, s in rows if s is not None]),
            "rel_ngd_spearman": spearman([g for *_, g, s in rows_ngd if s is not None],
                                         [s for *_, s in rows_ngd if s is not None]),
        }
        return {"load_s": load_times, "primary_s": t3 - t2, "primary_ops": len(pairs),
                "secondary_s": t4 - t3, "windows": [load_window, (t2, t3), (t3, t4)],
                "attempted": 2 * len(pairs),
                "failed": self._failures(rows) + self._failures(rows_ngd),
                "digest": digest_files(["rel_ppr.tsv", "rel_ngd.tsv"]),
                "detail": {"rel_pairs_per_s": len(pairs) / (t3 - t2), "rel_ngd_s": t4 - t3}}

    def checks(self) -> dict:
        term = next(t for t in sorted(self.store.entries) if t.startswith("term"))
        return {"sampled_ppv_sums_to_one":
                self.sampled_ppv_sums_to_one(self.graph, [self.store.get(term)])}

    def quality(self) -> dict:
        return dict(self.spearman, rel_term_repetition=self.repetition)


class Ned(Workload):
    """The paper's NED comparison: runtime load, the walk at ``nproc``
    workers, the shared-inlink and most-frequent-sense baselines at one
    worker, and ``graphwalk eval`` with the paired bootstrap."""

    name = "ned"
    SUBSET = 6

    def setup(self) -> str:
        rng = np.random.default_rng(self.seed)
        topics = self.walk_setup(rng)
        cfg = self.cfg
        counts = gen.ned_inputs(rng, cfg["nodes"], topics, "data", cfg["docs"],
                                cfg["queries_per_doc"], cfg["doc_tokens"])
        counts.update(gen.filler_counts(rng, cfg["nodes"], cfg["filler"], "w"))
        self.save_dictionary(counts)
        docs = [f"data/doc{d}.txt" for d in range(cfg["docs"])] + ["data/bare.txt"]
        return digest_files([f"data/{f}" for f in ("nodes.tsv", "graph.Hd.gwkb",
                                                    "dict.gwdict", "queries.tsv")] + docs)

    def _failures(self, queries, preds) -> int:
        if [p.query_id for p in preds] != [q.query_id for q in queries]:
            return len(queries)
        return sum(int((p.predicted is None) != (q.gold_title is None))
                   for q, p in zip(queries, preds))

    def rep(self) -> dict:
        gw = self.gw
        ned = gw.ned
        (nodes, graph, store), load_times, load_window = self.load("data", "Hd")
        queries = ned.load_queries("data/queries.tsv")
        t2 = time.perf_counter()
        preds = ned.run_batch(queries, graph, store, params=ned.DEFAULT_NED_PARAMS,
                              system="ppr", workers=self.nproc, nodes=nodes)
        t3 = time.perf_counter()
        preds_ngd = ned.run_batch(queries, graph, store, system="ngd", workers=1, nodes=nodes)
        t4 = time.perf_counter()
        preds_mfs = ned.run_batch(queries, graph, store, system="mfs", workers=1, nodes=nodes)
        for name, p in (("ppr", preds), ("ngd", preds_ngd), ("mfs", preds_mfs)):
            ned.write_predictions(p, nodes, f"ned_{name}.tsv")
        rc = quiet_cli(gw, ["eval", "--task", "ned", "--dataset", "data/queries.tsv",
                            "--preds", "ned_ppr.tsv", "--baseline", "ned_mfs.tsv",
                            "--baseline", "ned_ngd.tsv", "--report", "ned_eval.json"])
        t5 = time.perf_counter()
        gold = {q.query_id: q.gold_title for q in queries}
        self.accuracy = {
            f"ned_{name}_accuracy" if name != "ppr" else "ned_accuracy":
                gw.evaluation.accuracy(p, gold, nodes).value
            for name, p in (("ppr", preds), ("ngd", preds_ngd), ("mfs", preds_mfs))}
        self.graph, self.store, self.nodes, self.queries, self.preds = (
            graph, store, nodes, queries, preds)
        failed = sum(self._failures(queries, p) for p in (preds, preds_ngd, preds_mfs))
        return {"load_s": load_times, "primary_s": t3 - t2, "primary_ops": len(queries),
                "secondary_s": t4 - t3,
                "windows": [load_window, (t2, t3), (t3, t4), (t4, t5)],
                "attempted": 3 * len(queries), "failed": failed + int(rc != 0),
                "digest": digest_files(["ned_ppr.tsv", "ned_ngd.tsv", "ned_mfs.tsv",
                                        "ned_eval.json"]),
                "detail": {"ned_queries_per_s": len(queries) / (t3 - t2),
                           "ned_ngd_s": t4 - t3, "ned_eval_s": t5 - t4}}

    def sqlite_scan(self) -> None:
        """Scan every query's context windows through the sqlite backend."""
        gw = self.gw
        sqlite = gw.dictionary.SqliteDictionary.create(self.store, "dict.sqlite")
        half = gw.ned.CONTEXT_HALF_WINDOW
        for q in self.queries:
            t, span = q.target_index, max(1, len(q.mention.split()))
            gw.dictionary.longest_match_scan(sqlite, list(q.context_tokens[max(0, t - half):t]))
            gw.dictionary.longest_match_scan(sqlite, list(q.context_tokens[t + span:t + span + half]))

    def checks(self) -> dict:
        ned = self.gw.ned
        subset = self.queries[:self.SUBSET]
        serial = ned.run_batch(subset, self.graph, self.store, params=ned.DEFAULT_NED_PARAMS,
                               system="ppr", workers=1, nodes=self.nodes)
        ned.write_predictions(serial, self.nodes, "subset_serial.tsv")
        ned.write_predictions(self.preds[:self.SUBSET], self.nodes, "subset_parallel.tsv")
        with open("subset_serial.tsv", "rb") as a, open("subset_parallel.tsv", "rb") as b:
            same = a.read() == b.read()
        q = self.queries[0]
        context = ned.extract_context(q, self.store)
        return {"subset_workers_1_matches_workers_nproc": same,
                "sampled_ppv_sums_to_one": self.sampled_ppv_sums_to_one(self.graph, context)}

    def quality(self) -> dict:
        return dict(self.accuracy)


WORKLOADS = {w.name: w for w in (Pipeline, Relatedness, Ned)}
