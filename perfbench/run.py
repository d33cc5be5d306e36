"""graphwalk benchmark: one command, three seeded synthetic workloads.

    python3 perfbench/run.py --workload {pipeline,rel,ned} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/`` of the
checkout the script sits in, never from an installed copy. Set-up (input
generation plus whatever the workload builds before its timed phase) runs
several times and reports its median. The timed phase then repeats for
``--seconds`` and each end-to-end metric is the median over repetitions,
except ``load_s``, which is the mean of its samples with the slowest and
fastest tenth left out. A load takes tens of milliseconds, and on a shared
2-vCPU host it runs at one of two speeds up to 2x apart that switch every
few seconds, so the median of a run's many loads jumps between the two from
run to run, while the trimmed mean moves only with the share of time spent
at each (ten seeds of ``rel``: IQR/median 0.26 for the median, 0.15 for the
trimmed mean).

With ``--trace 1`` repetitions alternate between untraced and traced; the
traced ones record spans (see spans.py) and give the per-layer metrics, and
the difference between the two kinds is reported as tracing overhead.

Standard output: one ``report`` JSON line (every metric by its name with its
unit, output checks, output digests, environment fingerprint), then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up repeats at least this often and until this much time is spent, so
# the median of a cheap set-up rests on enough samples
SETUP_MIN_REPS, SETUP_MIN_S = 3, 2.0

# every end-to-end metric is reported on every workload. "primary" is the
# workload's main batch (pipeline: ingest records, rel: pairs scored by the
# walk, ned: queries disambiguated by the walk, per second); "secondary" is
# its second command (pipeline: build, rel and ned: the shared-inlink
# baseline over the same dataset, including its lazily built in-link index)
END_TO_END = {
    "setup_s": "s", "load_s": "s", "primary_ops_per_s": "1/s",
    "secondary_s": "s", "peak_rss_mib": "MiB",
}
# the same timings under the names users know them by
DETAIL_UNITS = {"ingest_s": "s", "build_s": "s", "rel_pairs_per_s": "pairs/s",
                "rel_ngd_s": "s", "ned_queries_per_s": "queries/s", "ned_ngd_s": "s",
                "ned_eval_s": "s"}


def import_package():
    """Import graphwalk from this checkout's src/, or exit 2."""
    init = ROOT / "src" / "graphwalk" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: {init.relative_to(ROOT)} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    gw = importlib.import_module("graphwalk")
    if Path(gw.__file__).resolve() != init.resolve():
        print(f"perfbench: imported graphwalk from {gw.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)
    for mod in ("cli", "ingest", "graph", "dictionary", "ppr", "relatedness", "ned",
                "evaluation"):
        importlib.import_module(f"graphwalk.{mod}")
    return gw


def fingerprint(gw, working_set_bytes: int) -> dict:
    import numpy
    import scipy

    def cache(level: int):
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")) if base.is_dir() else ():
            try:
                if (idx / "level").read_text().strip() == str(level) and \
                        (idx / "type").read_text().strip() in ("Unified", "Data"):
                    return (idx / "size").read_text().strip()
            except OSError:
                return None
        return None

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "graphwalk": gw.__version__, "l2": cache(2), "llc": cache(3),
            "graph_working_set_bytes_computed": working_set_bytes, "git_commit": commit}


def samples(reps, key) -> list[float]:
    return [x for r in reps for x in (r[key] if isinstance(r[key], list) else [r[key]])]


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share."""
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def timing_summary(reps) -> dict:
    """Per timed phase: sample count, trimmed mean, median and the highest
    percentile with at least ten samples beyond it."""
    out = {}
    for key in ("load_s", "primary_s", "secondary_s"):
        values = sorted(samples(reps, key))
        n = len(values)
        row = {"samples": n, "trimmed_mean": trimmed_mean(values),
               "median": statistics.median(values)}
        if n >= 20:
            row[f"p{100 * (n - 10) // n}"] = values[n - 11]
        out[key] = row
    return out


def summarize(reps) -> dict:
    return {"load_s": trimmed_mean(samples(reps, "load_s")),
            "primary_ops_per_s": statistics.median(r["primary_ops"] / r["primary_s"]
                                                   for r in reps),
            "secondary_s": statistics.median(samples(reps, "secondary_s"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "rel", "ned"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes for the benchmark's own tests")
    parser.add_argument("--workdir", help="scratch directory (default perfbench/.work/<workload>)")
    args = parser.parse_args(argv)

    gw = import_package()
    sys.path.insert(0, str(HERE))
    import spans as tracing
    import workloads

    work = Path(args.workdir) if args.workdir else HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)   # relative paths keep reports identical across checkouts

    wl = workloads.WORKLOADS[args.workload](gw, args.scale, args.seed)
    traced = bool(args.trace)
    setup_times, input_digests = [], set()
    setup_rec = tracing.Recorder()
    while len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        input_digests.add(wl.setup())
        setup_times.append(time.perf_counter() - t0)
    if traced:   # one more, instrumented and left out of setup_s
        inst = tracing.Instrumentation(gw, setup_rec)
        inst.install()
        try:
            input_digests.add(wl.setup())
        finally:
            inst.remove()

    reps, traced_reps, layer_reps, all_spans = [], [], [], []
    errors = []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        use_trace = traced and len(reps) > len(traced_reps)
        rec = tracing.Recorder() if use_trace else None
        inst = tracing.Instrumentation(gw, rec) if use_trace else None
        # traced repetitions load once, so per-layer times are per command
        wl.load_repeat_s = 0.0 if use_trace else workloads.Workload.load_repeat_s
        start = time.perf_counter()
        try:
            if inst:
                inst.install()
            try:
                r = wl.rep()
                if use_trace and hasattr(wl, "sqlite_scan"):
                    wl.sqlite_scan()
            finally:
                if inst:
                    inst.remove()
        except Exception as exc:   # a failed repetition counts against failed_ops_share
            errors.append(f"{type(exc).__name__}: {exc}")
            attempted += 1
            failed += 1
            if time.perf_counter() >= deadline or len(errors) >= 3:
                break
            continue
        attempted += r["attempted"]
        failed += r["failed"]
        if use_trace:
            traced_reps.append(r)
            layer_reps.append(tracing.layer_metrics(rec, r["windows"]))
            all_spans += rec.spans
        else:
            reps.append(r)
        now = time.perf_counter()
        enough = reps and (traced_reps or not traced)
        if enough and (now >= deadline or now + (now - start) > deadline + 1.0):
            break

    checks = {}
    if reps:
        try:
            checks = wl.checks()
        except Exception as exc:
            errors.append(f"checks: {type(exc).__name__}: {exc}")
    digests = {r["digest"] for r in reps + traced_reps}
    checks["inputs_identical_across_setups"] = len(input_digests) == 1
    checks["outputs_identical_across_repetitions"] = len(digests) == 1
    if traced:
        checks["traced_outputs_equal_untraced"] = (
            {r["digest"] for r in reps} == {r["digest"] for r in traced_reps})
    correct = bool(reps) and not errors and failed == 0 and all(checks.values())

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {}
    if reps:
        e2e = dict(summarize(reps), setup_s=statistics.median(setup_times),
                   peak_rss_mib=peak_rss_mib)
    detail = {k: (statistics.median(r["detail"][k] for r in reps), DETAIL_UNITS[k])
              for k in (reps[0]["detail"] if reps else ())}
    named = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    named.update(detail)
    named["failed_ops_share"] = (failed / max(attempted, 1), "ratio")
    named.update({k: (v, "ratio") for k, v in (wl.quality() if reps else {}).items()})

    report = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "repetitions": len(reps), "traced_repetitions": len(traced_reps),
        "setup_repetitions": len(setup_times), "timings": timing_summary(reps) if reps else {},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "checks": checks, "errors": errors,
        "input_digest": sorted(input_digests)[0] if input_digests else None,
        "output_digest": sorted(digests)[0] if digests else None,
        "env": fingerprint(gw, getattr(wl, "working_set_bytes", 0)),
    }

    if traced:
        per_layer = {name: 0.0 for name in tracing.per_layer_names()}
        if layer_reps:
            for name in layer_reps[0]:
                per_layer[name] = statistics.median(m[name] for m in layer_reps)
        per_layer.update(tracing.setup_metrics(setup_rec))
        if reps and traced_reps:
            t_sum, u_sum = summarize(traced_reps), summarize(reps)
            for key in ("load_s", "primary_ops_per_s", "secondary_s"):
                per_layer[f"trace.overhead_{key}"] = t_sum[key] - u_sum[key]
        tracing.write_spans(setup_rec.spans + all_spans, "trace.jsonl")
        report["layer_map"] = tracing.LAYER_MAP
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)[0]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
