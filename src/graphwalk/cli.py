"""Command line entry points: ingest, build, rel, ned, eval, sweep.

Exit codes: 0 success, 1 usage error, 2 data error. A walk command's run
values are ``spec``, ``alpha``, ``iterations``, ``k`` and ``prior``; each
comes from its CLI flag, else from its ``--config`` file line (key=value),
else from the task's defaults: graph ``DEFAULT_SPEC`` and the walk
parameters ``evaluation.DEFAULT_PARAMS[task]``. ``_coerce`` parses the values
of config lines, of ``--k`` and of the sweep axes; a config value outside
``PprParams``' ranges is a data error at its line. NED walks are never
truncated: ``ned`` has no ``--k``, and ``--ks`` or a config ``k`` other than
``none`` is an error for NED. ``rel``, ``ned`` and each ``sweep`` cell are one
``evaluation.run_eval`` run; sweep cells run in turn. ``--workers`` is the
walk thread count everywhere (default: every core).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import shutil
import sys

from . import dictionary as dict_mod
from . import evaluation as eval_mod
from . import graph as graph_mod
from . import ingest as ingest_mod
from . import ned as ned_mod
from .errors import DataError
from .ppr import PprParams
from .tsv import _undecodable_line

DEFAULT_SPEC = "Hr"
NO_GOLD = {"rel": "dataset has no gold scores", "ned": "queries have no gold titles"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parse_config_file(path: str, task: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                try:
                    out[key] = _coerce(key, value)
                except KeyError:
                    raise DataError(f"{path}:{lineno}: unknown key {key!r}") from None
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None
                if key == "k" and task == "ned" and out[key] is not None:
                    raise DataError(f"{path}:{lineno}: k applies to rel only")
                if key in ("alpha", "iterations", "k"):
                    try:
                        PprParams(**{key: out[key]})
                    except ValueError as exc:
                        raise DataError(f"{path}:{lineno}: {exc}") from None
        except UnicodeDecodeError:
            raise DataError(f"{path}:{_undecodable_line(path)}: invalid UTF-8") from None
    return out


def _coerce(key: str, raw: str):
    """Parse one run value; an unknown key is a KeyError, a bad value a ValueError."""
    if key == "spec":
        return raw
    if key == "alpha":
        return float(raw)
    if key == "iterations":
        return int(raw)
    if key == "k":
        return None if raw.lower() in ("none", "") else int(raw)
    if key == "prior":
        if raw.lower() in ("1", "true", "yes", "p"):
            return True
        if raw.lower() in ("0", "false", "no", "nop"):
            return False
        raise ValueError(raw)
    raise KeyError(key)


def _worker_count(raw: str) -> int:
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return int(raw)


def _resolve(args, task: str) -> dict:
    """The run values: CLI flags over the ``--config`` file over the task's defaults."""
    params = eval_mod.DEFAULT_PARAMS[task]
    opts = {"spec": DEFAULT_SPEC, "alpha": params.alpha, "iterations": params.iterations,
            "k": params.k, "prior": params.prior_init}
    if args.config:
        opts.update(_parse_config_file(args.config, task))
    opts.update((key, value) for key, value in vars(args).items() if key in opts)
    return opts


def _walk_params(alpha: float, iterations: int, k: int | None, prior: bool) -> PprParams:
    """The parameters of every walk a command runs; bad values are usage errors."""
    try:
        return PprParams(alpha=alpha, iterations=iterations, k=k, prior_init=prior)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _validate_spec(spec: str) -> str:
    try:
        graph_mod.parse_graph_spec(spec)
    except DataError as exc:
        raise UsageError(str(exc)) from None
    return spec


def _load_runtime(data_dir: str, spec: str, sqlite_dict: bool = False):
    """Load the node table, graph snapshot and dictionary for one spec."""
    _validate_spec(spec)
    nodes_path = os.path.join(data_dir, "nodes.tsv")
    graph_path = os.path.join(data_dir, f"graph.{spec}.gwkb")
    if not os.path.exists(graph_path):
        raise DataError(f"missing graph snapshot {graph_path}; run 'graphwalk build' first")
    nodes = graph_mod.load_nodes(nodes_path)
    graph = graph_mod.load_snapshot(graph_path)
    if graph.n_nodes != len(nodes):
        raise DataError(f"graph snapshot {graph_path} has {graph.n_nodes} nodes but "
                        f"{nodes_path} has {len(nodes)}")
    dict_path = os.path.join(data_dir, "dict.sqlite" if sqlite_dict else "dict.gwdict")
    if not os.path.exists(dict_path):
        kind, flag = ("database", " --sqlite-dict") if sqlite_dict else ("snapshot", "")
        raise DataError(f"missing dictionary {kind} {dict_path}; run 'graphwalk build{flag}' first")
    open_store = dict_mod.SqliteDictionary if sqlite_dict else dict_mod.Dictionary.load
    return nodes, graph, open_store(dict_path, graph.n_nodes)


def cmd_ingest(args) -> int:
    if args.title_pseudo_count < 0:
        raise UsageError("--title-pseudo-count must be >= 0")
    report = ingest_mod.run_ingest(args.pages, args.links, args.anchors,
                                   args.out, args.title_pseudo_count)
    print(f"nodes: {report['nodes']}")
    for key, value in report["tallies"].items():
        print(f"{key}: {value}")
    print(f"anchor count conservation: {report['anchor_count_conservation']}")
    return 0


def cmd_build(args) -> int:
    specs = [_validate_spec(s) for s in args.specs.split(",") if s]
    if not specs:
        raise UsageError("no graph specs given")
    os.makedirs(args.out, exist_ok=True)
    nodes = graph_mod.load_nodes(os.path.join(args.ingest_dir, "nodes.tsv"))
    shutil.copyfile(os.path.join(args.ingest_dir, "nodes.tsv"),
                    os.path.join(args.out, "nodes.tsv"))
    print(f"{'graph':>10} {'edges':>12} {'nodes':>10}")
    parts: dict = {}  # shared by the specs, so each edge file is read once
    for spec in specs:
        g = graph_mod.build_graph(spec, args.ingest_dir, nodes, parts)
        graph_mod.save_snapshot(g, os.path.join(args.out, f"graph.{spec}.gwkb"))
        st = graph_mod.stats(g)
        note = f"  [{', '.join(st['flags'])}]" if st["flags"] else ""
        print(f"{spec:>10} {st['arcs']:>12} {st['non_isolated_nodes']:>10}{note}")
    dictionary = dict_mod.Dictionary.build(
        os.path.join(args.ingest_dir, "dict_counts.tsv"), n_nodes=len(nodes))
    dictionary.save(os.path.join(args.out, "dict.gwdict"))
    if args.sqlite_dict:
        dict_mod.SqliteDictionary.create(dictionary, os.path.join(args.out, "dict.sqlite"))
    print(f"dictionary entries: {len(dictionary)}")
    return 0


def cmd_run(args) -> int:
    """``rel`` and ``ned``: one ``run_eval`` run, then the task's summary line."""
    opts = _resolve(args, args.task)
    params = _walk_params(opts["alpha"], opts["iterations"], opts["k"], opts["prior"])
    nodes, graph, store = _load_runtime(args.data, opts["spec"], args.sqlite_dict)
    if args.task == "rel":
        inputs = {"on_unknown": args.on_unknown, "baseline_paths": args.baseline}
    else:
        inputs = {"include_target": not args.context_only_teleport, "redirects":
                  eval_mod.load_redirect_map(args.redirects) if args.redirects else None}
        if args.resolver_url:
            cache = args.resolver_cache or os.path.join(args.data, "resolver_cache.json")
            inputs["resolver"] = ned_mod.CachedHttpResolver(args.resolver_url, cache)
    report, preds = eval_mod.run_eval(
        args.task, args.system, [args.dataset], graph=graph, store=store, nodes=nodes,
        params=params, config={"graph_spec": opts["spec"], "data": args.data},
        workers=args.workers, out=args.out, **inputs)
    if report is None:
        if args.report:
            raise DataError(f"{args.dataset}: cannot write a report: {NO_GOLD[args.task]}")
        return 0
    if args.task == "rel":
        print(f"spearman {report.value:.4f} on {report.n} pairs")
    else:
        print(f"accuracy {report.value:.4f} on {report.n} non-NIL instances "
              f"({report.extras['fallback_count']} fallbacks, {len(preds)} queries)")
    if args.report:
        report.write(args.report)
    return 0


def cmd_eval(args) -> int:
    for flag in ("--redirects", "--resamples", "--seed"):  # None: not given
        if args.task == "rel" and getattr(args, flag[2:]) is not None:
            raise UsageError(f"{flag} applies to --task ned only")
    if args.resamples is not None and args.resamples < eval_mod.MIN_RESAMPLES:
        raise UsageError(f"--resamples must be >= {eval_mod.MIN_RESAMPLES}")
    if args.seed is not None and args.seed < 0:
        raise UsageError("--seed must be >= 0")
    redirects = eval_mod.load_redirect_map(args.redirects) if args.redirects else None
    given = {k: v for k, v in (("resamples", args.resamples), ("seed", args.seed))
             if v is not None}
    report = eval_mod.compare_prediction_files(
        args.task, args.dataset, args.preds, args.baseline or None,
        redirects=redirects, **given)
    print(f"{report.metric} {report.value:.4f} on n={report.n}")
    for sig in report.significance:
        marker = "significant" if sig["significant"] else "not significant"
        print(f"vs {sig['baseline']}: p={sig['p_value']:.4g} ({marker})")
    if args.report:
        report.write(args.report)
    return 0


def _sweep_cells(args, opts):
    axes = []
    for key, raw in (("spec", args.graphs), ("alpha", args.alphas),
                     ("iterations", args.iters), ("k", args.ks), ("prior", args.priors)):
        try:
            axes.append([opts[key]] if raw is None else
                        [_coerce(key, x) for x in raw.split(",") if x != ""])
        except ValueError:
            raise UsageError(f"bad sweep value in {raw!r} for {key}") from None
    # a repeated axis value gives one cell, not two runs under one name
    cells = list(dict.fromkeys((spec, _walk_params(*walk))
                               for spec, *walk in itertools.product(*axes)))
    if not cells:
        raise UsageError("sweep grid is empty")
    return cells


def _cell_name(spec: str, p: PprParams) -> str:
    # the shortest repr that round-trips, so distinct alphas get distinct names
    return (f"{spec}_a{p.alpha!r}_i{p.iterations}_k{'none' if p.k is None else p.k}"
            f"_{'P' if p.prior_init else 'noP'}")


def cmd_sweep(args) -> int:
    systems = ("ppr", "ngd", "mfs") if args.task == "ned" else ("ppr", "ngd")
    if args.system not in systems:
        raise UsageError(f"--system for --task {args.task} must be one of "
                         f"{', '.join(systems)}, got {args.system!r}")
    for flag, value in (("--on-unknown", args.on_unknown), ("--ks", args.ks)):
        if args.task == "ned" and value is not None:
            raise UsageError(f"{flag} applies to --task rel only")
    cells = _sweep_cells(args, _resolve(args, args.task))
    os.makedirs(args.out, exist_ok=True)

    runtimes = {spec: _load_runtime(args.data, spec) for spec in sorted({c[0] for c in cells})}
    for spec, params in cells:
        name = _cell_name(spec, params)
        marker = os.path.join(args.out, name + ".done")
        if os.path.exists(marker):
            print(f"{name}: skipped")
            continue
        nodes, graph, store = runtimes[spec]
        report, _ = eval_mod.run_eval(
            args.task, args.system, [args.dataset], graph=graph, store=store,
            nodes=nodes, params=params, config={"graph_spec": spec, "data": args.data},
            workers=args.workers, on_unknown=args.on_unknown or "skip")
        if report is None:
            raise DataError(f"{args.dataset}: cannot write a report: {NO_GOLD[args.task]}")
        report.write(os.path.join(args.out, name + ".json"))
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(name + "\n")
        print(f"{name}: done")

    rows = []
    for spec, p in cells:
        name = _cell_name(spec, p)
        path = os.path.join(args.out, name + ".json")
        try:
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
            scored = [rep["metric"], rep["value"], rep["n"]]
        except (OSError, ValueError, KeyError, TypeError):
            raise DataError(f"{path}: malformed cell report; delete "
                            f"{os.path.join(args.out, name)}.done to rerun the cell") from None
        rows.append([name, spec, p.alpha, p.iterations, "" if p.k is None else p.k,
                     "P" if p.prior_init else "noP", *scored])
    summary_path = os.path.join(args.out, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "graph", "alpha", "iterations", "k", "prior",
                         "metric", "value", "n"])
        writer.writerows(rows)
    print(f"{len(cells)} cells -> {summary_path}")
    return 0


def _add_common_run_args(p):
    p.add_argument("--data", required=True, help="directory with build outputs")
    p.add_argument("--config", help="file of key=value lines: spec, alpha, iterations, k, prior")
    # an absent flag leaves no attribute, so a given "--k none" still overrides
    walk = p.add_argument_group("walk", argument_default=argparse.SUPPRESS)
    walk.add_argument("--spec", help=f"graph spec (default {DEFAULT_SPEC})")
    walk.add_argument("--alpha", type=float, help="link-follow probability")
    walk.add_argument("--iterations", "--iters", type=int, dest="iterations")
    walk.add_argument("--no-prior", action="store_const", const=False, dest="prior",
                      help="uniform teleport initialization instead of priors")
    p.add_argument("--sqlite-dict", action="store_true",
                   help="serve the dictionary from dict.sqlite")
    p.add_argument("--workers", type=_worker_count,
                   help="walk threads (default: every core)")
    return walk


def build_parser() -> _Parser:
    parser = _Parser(prog="graphwalk",
                     description="link-graph random walks for relatedness and NED")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert record files to edge lists and counts")
    p.add_argument("--pages", required=True)
    p.add_argument("--links", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--title-pseudo-count", type=int, default=1)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="build graph and dictionary snapshots")
    p.add_argument("--ingest-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--specs", default=DEFAULT_SPEC, help="comma list of graph specs")
    p.add_argument("--sqlite-dict", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("rel", help="score relatedness pairs")
    _add_common_run_args(p).add_argument("--k", type=lambda raw: _coerce("k", raw),
                                         help="PPV truncation rank, or 'none'")
    p.add_argument("--pairs", required=True, dest="dataset",
                   help="term1 \\t term2 [\\t gold] file")
    p.add_argument("--out", required=True, help="prediction TSV to write")
    p.add_argument("--report", help="report JSON to write")
    p.add_argument("--system", choices=("ppr", "ngd"), default="ppr")
    p.add_argument("--on-unknown", choices=("skip", "zero"), default="skip")
    p.add_argument("--baseline", action="append",
                   help="prediction file to test against (repeatable)")
    p.set_defaults(func=cmd_run, task="rel")

    p = sub.add_parser("ned", help="disambiguate entity mentions")
    _add_common_run_args(p)
    p.add_argument("--queries", required=True, dest="dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--system", choices=("ppr", "ngd", "mfs"), default="ppr")
    p.add_argument("--redirects", help="old_title \\t new_title mapping TSV")
    p.add_argument("--context-only-teleport", action="store_true",
                   help="exclude the target's own candidates from the teleport")
    p.add_argument("--resolver-url", help="title search endpoint with {query}")
    p.add_argument("--resolver-cache")
    p.set_defaults(func=cmd_run, task="ned")

    p = sub.add_parser("eval", help="score emitted prediction files")
    p.add_argument("--task", choices=("rel", "ned"), required=True)
    p.add_argument("--dataset", action="append", required=True,
                   help="gold dataset file (repeat to pool)")
    p.add_argument("--preds", action="append", required=True)
    p.add_argument("--baseline", action="append")
    p.add_argument("--redirects", help="ned only: old_title \\t new_title mapping TSV")
    p.add_argument("--resamples", type=int, help=f"ned only (default {eval_mod.DEFAULT_RESAMPLES})")
    p.add_argument("--seed", type=int, help="ned only: bootstrap seed (default 0)")
    p.add_argument("--report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid of runs over walk parameters")
    p.add_argument("--data", required=True, help="directory with build outputs")
    p.add_argument("--config", help="file of key=value lines: spec, alpha, iterations, k, prior")
    p.add_argument("--task", choices=("rel", "ned"), required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--system", default="ppr")
    p.add_argument("--graphs", help="comma list of graph specs")
    p.add_argument("--alphas", help="comma list of damping factors")
    p.add_argument("--iters", help="comma list of iteration counts")
    p.add_argument("--ks", help="rel only: comma list of truncation ranks ('none' allowed)")
    p.add_argument("--priors", help="comma list of P/noP (or true/false)")
    p.add_argument("--workers", type=_worker_count,
                   help="walk threads (default: every core)")
    p.add_argument("--on-unknown", choices=("skip", "zero"),
                   help="rel only: skip (default) or zero the pairs with an unknown term")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
