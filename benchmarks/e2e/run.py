#!/usr/bin/env python3
"""End-to-end benchmark of the three user entry points.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload apps --seed 1 --seconds 15 --trace 0

prints progress lines and, last, one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  ``--trace 0`` measures the user
path (every end-to-end metric); ``--trace 1`` reruns it in-process
under the tracer (every per-layer metric).

All four workloads, each in a fresh child process::

    python3 benchmarks/e2e/run.py --seed 1            # results/seed1.json
    python3 benchmarks/e2e/run.py --seed 1 --traced   # + results/seed1.layers.json
    python3 benchmarks/e2e/run.py --smoke             # tiny sizes, < 60 s

The command exits non-zero when any report is wrong, and refuses to run
(exit 1, no result) without the program's ``src/`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics every workload reaches (``--trace 1``).
PER_LAYER = {
    "cli.startup_s": "s",
    "trace.load_s": "s",
    "graph.build_s": "s",
    "graph.nodes": "count",
    "closure.premises_s": "s",
    "closure.static_edges_s": "s",
    "closure.saturate_s": "s",
    "closure.pred_index_s": "s",
    "closure.rules_s": "s",
    "closure.resaturate_s": "s",
    "closure.rounds": "count",
    "closure.rule_edges": "count",
    "closure.memory_bytes": "bytes",
    "detect.enumerate_s": "s",
    "detect.assemble_s": "s",
    "classify_s": "s",
    "classify.calls": "count",
    "report.serialize_s": "s",
    "report.bytes": "bytes",
    "triage.pass_s": "s",
    "triage.filtered_ratio": "ratio",
    "sim.generate_s": "s",
    "sim.ops_per_s": "ops/s",
    "obs.tracing_overhead": "ratio",
    "unattributed_s": "s",
    "unattributed_frac": "ratio",
}
#: Layers only some workloads reach; reported in ``layers.json`` only.
WORKLOAD_LAYERS = {
    "pass_wall_s": "s",
    "trace.ops": "count",
    "detect.races": "count",
    "detect.racy_pairs": "count",
    "store.ingest_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hit_ratio": "ratio",
    "corpus.aggregate_s": "s",
    "pipeline.dispatch_s": "s",
    "pipeline.worker_s": "s",
    "pipeline.worker_busy_s": "s",
    "pipeline.pool_efficiency": "ratio",
    "pipeline.errors": "count",
    "service.upload_p50_s": "s",
    "service.report_get_p50_s": "s",
    "service.job_wait_p50_s": "s",
    "service.job_wait_p90_s": "s",
    "service.job_run_p50_s": "s",
    "service.job_run_p90_s": "s",
    "service.pool_busy": "ratio",
    "service.cache_short_circuit_ratio": "ratio",
    "service.rejected_429": "count",
    "gen.lag_p90_s": "s",
}


def peak_rss_mb() -> float:
    """Max RSS of any program process the run waited for: the CLI
    invocations, the server and (through it) its pool workers.  The
    harness itself holds every generated trace and is left out."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 details: str = None) -> int:
    import workloads
    from percentiles import median, percentile, tail_percentile

    workdir = WORK / ("%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOAD_CLASSES[name](seed, seconds, smoke, workdir)
    doc = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        if trace:
            values = workloads.run_traced(workload)
            doc["spans"] = values.pop("spans")
            doc["passes"] = values.pop("passes")
            units = PER_LAYER
            doc["layers"] = {
                k: {"value": values[k], "unit": unit}
                for k, unit in WORKLOAD_LAYERS.items()
                if k in values
            }
        else:
            state, setups = workload.setup_timed()
            try:
                measured = workload.measure(state)
            finally:
                workload.close(state)
            lat = measured.latencies or [0.0]
            values = {
                "ops_per_s": median(measured.pass_ops_per_s or [0.0]),
                "latency_p50_s": percentile(lat, 50),
                "latency_p90_s": percentile(lat, 90),
                "setup_s": median(setups),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END
            doc.update(
                setup_samples_s=setups,
                passes=len(measured.pass_ops_per_s),
                latencies_s=measured.latencies,
                latency_samples=len(measured.latencies),
                tail_percentile=tail_percentile(len(measured.latencies)),
                **measured.extra,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = workload.tally
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    doc.update(result, error_rate=tally.failed / max(1, tally.attempted),
               problems=tally.problems[:20])
    if details:
        Path(details).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for problem in tally.problems[:20]:
        print("FAILED %s" % problem)
    print("%s seed %d: %d attempted, %d failed" % (name, seed, tally.attempted, tally.failed))
    for key, metric in result["metrics"].items():
        print("  %-24s %14.6g %s" % (key, metric["value"], metric["unit"]))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def _child(args: argparse.Namespace, name: str, trace: int, seconds: float) -> dict:
    """Run one workload in a fresh process; returns its details document."""
    details = WORK / ("details-%s-%d-%d.json" % (name, trace, os.getpid()))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--details", str(details)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stdout.write(proc.stdout)
    try:
        doc = json.loads(details.read_text())
    except (OSError, ValueError):
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s (trace %d) produced no result" % (name, trace))
    finally:
        details.unlink(missing_ok=True)
    doc["exit_code"] = proc.returncode
    return doc


def validate(doc: dict, bench: dict) -> list:
    """Contract problems in one run's result (names, units, shape)."""
    kind = "per_layer" if doc["trace"] else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[kind]}
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    problems = []
    if got != want:
        problems.append("%s trace %d: metrics %s, BENCHMARK.json names %s"
                        % (doc["workload"], doc["trace"], sorted(got.items()), sorted(want.items())))
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1:
        problems.append("%s trace %d: attempted %r" % (doc["workload"], doc["trace"], doc["attempted"]))
    return problems


def run_suite(args: argparse.Namespace) -> int:
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 1.0 if args.smoke else float(args.seconds or bench["run_seconds"])
    traces = (0, 1) if (args.traced or args.smoke) else (0,)
    t0 = time.perf_counter()
    docs = {t: {} for t in traces}
    for name in workloads.WORKLOADS:
        for trace in traces:
            docs[trace][name] = _child(args, name, trace, seconds)

    problems = []
    for trace in traces:
        for name, doc in docs[trace].items():
            if not doc["correct"] or doc["exit_code"]:
                problems.append("%s trace %d: %d of %d operations failed"
                                % (name, trace, doc["failed"], doc["attempted"]))
            if args.smoke:
                problems += validate(doc, bench)
    print("\n%-8s %-24s %14s %s" % ("workload", "metric", "value", "unit"))
    for name, doc in docs[0].items():
        for key, metric in doc["metrics"].items():
            print("%-8s %-24s %14.6g %s" % (name, key, metric["value"], metric["unit"]))
        print("%-8s %-24s %14.6g %s" % (name, "error_rate", doc["error_rate"], "ratio"))
    if 1 in docs:
        for name, doc in docs[1].items():
            print("%-8s unattributed_frac %.4f  tracing overhead %+.3f  (%d traced passes)"
                  % (name, doc["metrics"]["unattributed_frac"]["value"],
                     doc["metrics"]["obs.tracing_overhead"]["value"], doc["passes"]))
    print("total %.1fs" % (time.perf_counter() - t0))

    if not args.smoke:
        RESULTS.mkdir(exist_ok=True)
        keep = ("correct", "attempted", "failed", "error_rate", "metrics", "passes",
                "latency_samples", "tail_percentile", "setup_samples_s", "warm_pass_s",
                "lag_p90_s")
        summary = {
            "seed": args.seed,
            "seconds": seconds,
            "workloads": {
                name: {k: doc[k] for k in keep if k in doc}
                for name, doc in docs[0].items()
            },
        }
        path = RESULTS / ("seed%d.json" % args.seed)
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print("wrote %s" % path.relative_to(ROOT))
        if 1 in docs:
            layered = {
                "seed": args.seed,
                "seconds": seconds,
                "workloads": {
                    name: {
                        "passes": doc["passes"],
                        "metrics": dict(doc["metrics"], **doc["layers"]),
                        "spans": doc["spans"],
                    }
                    for name, doc in docs[1].items()
                },
            }
            path = RESULTS / ("seed%d.layers.json" % args.seed)
            path.write_text(json.dumps(layered, indent=2, sort_keys=True) + "\n")
            print("wrote %s" % path.relative_to(ROOT))
    for problem in problems:
        print("FAILED %s" % problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("apps", "ladder", "corpus", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="also rerun every workload traced (layers.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; check every BENCHMARK.json metric is emitted")
    parser.add_argument("--details", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print("run.py: the program's source is missing (%s); run from a full "
              "checkout" % SRC.relative_to(ROOT), file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    # Temporary files of this process and every child stay in the checkout.
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    if args.workload is None:
        return run_suite(args)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(
            json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    return run_workload(args.workload, args.seed, seconds, bool(args.trace),
                        args.smoke, args.details)


if __name__ == "__main__":
    sys.exit(main())
