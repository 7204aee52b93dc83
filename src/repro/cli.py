"""Command-line interface: ``droidracer``.

Subcommands mirror the tool's workflow:

* ``droidracer table2`` / ``table3`` / ``performance`` — regenerate the
  paper's evaluation artifacts;
* ``droidracer run <app>`` — run one subject (calibrated synthetic model)
  and print its race report;
* ``droidracer explore <demo-app>`` — systematic UI exploration of a
  hand-written demo app with race detection on every trace;
* ``droidracer analyze <trace.jsonl>`` — offline detection on a trace file;
* ``droidracer corpus ingest|analyze|report`` — the persistent trace
  corpus: content-addressed store, parallel cached batch analysis, and
  corpus-level aggregated race reports;
* ``droidracer serve`` — long-running async HTTP service over the same
  corpus: trace uploads, a durable bounded job queue, a persistent
  worker pool, and report/streaming endpoints (``docs/service.md``);
* ``droidracer obs history|compare|gate|dashboard|suspicion`` — the run-history
  store: list recorded runs, diff two runs span by span, gate on
  correctness/performance drift, render a static HTML dashboard.

Observability (``run``, ``demo``, ``explore``, ``analyze``, ``corpus
analyze``, and the table commands; see ``docs/observability.md``):
``--metrics`` prints a per-span summary table to stderr, ``--trace-out
FILE`` writes Chrome ``trace_event`` JSON for ``chrome://tracing`` /
Perfetto, and ``--json`` reports gain a ``metrics`` block whenever
either flag is active.  ``--history DIR`` (default:
``$DROIDRACER_HISTORY``) appends a structured ``RunRecord`` for the
invocation to a persistent store — with no history dir configured
nothing is written and reports are byte-identical.  Instrumentation
never changes race reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

# Only the analysis path is imported up front: the simulator, the app
# registry, the explorer, and the table harness load inside the
# subcommands that use them, so ``droidracer analyze`` starts fast.
from repro.apps import DEMO_APP_NAMES
from repro.apps.specs import SPEC_BY_NAME
from repro.core import (
    BACKEND_BITMASK,
    BACKEND_CHAINS,
    KERNEL_AUTO,
    KERNEL_PYTHON,
    KERNEL_WORDS,
    TRIAGE_OFF,
    TRIAGE_VC,
    TRIAGES,
    detect_races,
)
from repro.core.trace import ExecutionTrace


#: Default corpus location (relative to the working directory).
DEFAULT_STORE = ".droidracer/corpus"


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="trace-length scale factor (1.0 = the paper's full lengths)",
    )
    parser.add_argument("--seed", type=int, default=5, help="schedule seed")


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=(BACKEND_BITMASK, BACKEND_CHAINS),
        default=BACKEND_BITMASK,
        help="happens-before reachability backend: dense bitmask rows "
        "(default) or the O(n*C) chain index for large traces "
        "(results are identical)",
    )
    parser.add_argument(
        "--closure-workers",
        type=int,
        default=1,
        metavar="N",
        help="saturate closure full sweeps across N forked worker "
        "processes (default 1 = serial; any N yields byte-identical "
        "reports, and platforms without fork fall back to serial)",
    )
    parser.add_argument(
        "--closure-kernel",
        choices=(KERNEL_AUTO, KERNEL_PYTHON, KERNEL_WORDS),
        default=KERNEL_AUTO,
        help="closure row kernel: 'words' = word-batched sweeps (numpy "
        "fast path when installed), 'python' = reference big-int loops, "
        "'auto' (default) = words exactly when numpy is available "
        "(results are identical)",
    )
    parser.add_argument(
        "--no-merge-chains",
        dest="merge_chains",
        action="store_false",
        help="disable the pre-saturation chain-merging pass (chains "
        "backend; results are identical — ablation/debug knob)",
    )
    parser.add_argument(
        "--triage",
        choices=TRIAGES,
        default=TRIAGE_OFF,
        help="linear-time triage tier: 'vc' runs a streaming "
        "vector-clock pass that soundly under-approximates the Android "
        "happens-before relation and skips the closure on traces it "
        "proves race-free; racy traces escalate to the full closure "
        "and report byte-identically (default: %(default)s)",
    )


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        metavar="DIR",
        help="trace corpus directory (default: %(default)s)",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect pipeline spans/counters and print a summary table "
        "to stderr (adds a 'metrics' block to --json reports)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the pipeline's span tree as Chrome trace_event JSON "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--history",
        metavar="DIR",
        help="append a RunRecord for this invocation to the run-history "
        "store at DIR (default: $DROIDRACER_HISTORY; unset = no recording)",
    )


def _add_history(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--history",
        metavar="DIR",
        help="run-history store directory (default: $DROIDRACER_HISTORY)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="droidracer",
        description="DroidRacer reproduction: race detection for (simulated) Android applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for table in ("table2", "table3", "performance"):
        p = sub.add_parser(table, help="regenerate %s of the paper" % table)
        p.add_argument(
            "--open-source-only",
            action="store_true",
            help="only the 10 open-source subjects",
        )
        _add_scale(p)
        _add_obs(p)

    p_run = sub.add_parser("run", help="run one calibrated subject")
    p_run.add_argument("app", choices=sorted(SPEC_BY_NAME))
    p_run.add_argument(
        "--save-trace",
        metavar="PATH",
        help="write the generated execution trace as JSONL for offline analysis",
    )
    p_run.add_argument(
        "--json",
        action="store_true",
        help="emit the race report as machine-readable JSON",
    )
    _add_backend(p_run)
    _add_scale(p_run)
    _add_obs(p_run)

    p_demo = sub.add_parser("demo", help="run a hand-written demo app scenario")
    p_demo.add_argument("app", choices=sorted(DEMO_APP_NAMES))
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--events", nargs="*", default=None, metavar="EVENT",
                        help="event keys to fire (default: every enabled click)")
    p_demo.add_argument("--save-trace", metavar="PATH")
    _add_obs(p_demo)

    p_explore = sub.add_parser("explore", help="systematically explore a demo app")
    p_explore.add_argument("app", choices=sorted(DEMO_APP_NAMES))
    p_explore.add_argument(
        "--strategy",
        choices=("dfs", "monkey", "dynodroid", "guided"),
        default="dfs",
        help="exploration strategy: systematic depth-first (default), a "
        "random baseline, or suspiciousness-guided (mines the run "
        "history; see docs/exploration.md)",
    )
    p_explore.add_argument("--depth", type=int, default=2)
    p_explore.add_argument("--seed", type=int, default=0)
    p_explore.add_argument("--max-runs", type=int, default=25)
    p_explore.add_argument(
        "--budget",
        type=int,
        default=4,
        help="events per sequence (monkey/dynodroid/guided strategies)",
    )
    p_explore.add_argument(
        "--sequences",
        type=int,
        default=4,
        help="event sequences to run (monkey/dynodroid/guided strategies)",
    )
    p_explore.add_argument(
        "--store",
        metavar="DIR",
        help="also ingest every generated trace into this corpus store",
    )
    _add_obs(p_explore)

    p_analyze = sub.add_parser("analyze", help="detect races in a trace file (JSONL)")
    p_analyze.add_argument("trace", help="path to a trace in JSONL format")
    p_analyze.add_argument(
        "--explain",
        action="store_true",
        help="print a structured explanation for every reported race",
    )
    p_analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the race report as machine-readable JSON",
    )
    _add_backend(p_analyze)
    _add_obs(p_analyze)

    p_corpus = sub.add_parser(
        "corpus", help="persistent trace corpus: ingest, batch-analyze, report"
    )
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)

    p_ingest = corpus_sub.add_parser(
        "ingest", help="store traces (JSONL files or directories) in the corpus"
    )
    p_ingest.add_argument("paths", nargs="+", metavar="PATH")
    _add_store(p_ingest)
    p_ingest.add_argument("--app", help="override app attribution for these traces")
    p_ingest.add_argument(
        "--lenient",
        action="store_true",
        help="skip malformed trace lines (with a warning) instead of failing",
    )

    p_canalyze = corpus_sub.add_parser(
        "analyze", help="run race detection over every stored trace"
    )
    _add_store(p_canalyze)
    p_canalyze.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: os.cpu_count(); 1 = serial)",
    )
    p_canalyze.add_argument(
        "--no-cache", action="store_true", help="ignore and do not write the result cache"
    )
    p_canalyze.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-trace analysis budget; expiry becomes an AnalysisTimeout "
        "error on that trace instead of hanging the batch",
    )
    p_canalyze.add_argument("--json", action="store_true")
    _add_backend(p_canalyze)
    _add_obs(p_canalyze)

    p_creport = corpus_sub.add_parser(
        "report", help="corpus-level aggregated race report (deduplicated)"
    )
    _add_store(p_creport)
    p_creport.add_argument("--jobs", type=int, default=None, metavar="N")
    p_creport.add_argument("--json", action="store_true")
    _add_backend(p_creport)

    p_serve = sub.add_parser(
        "serve",
        help="run the async race-analysis service over a shared corpus",
    )
    _add_store(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default: 0 = an ephemeral port, printed at boot)",
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="analysis worker processes (default: os.cpu_count(); "
        "0 = inline, no worker pool)",
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=256,
        metavar="N",
        help="max queued-not-running jobs before uploads get 429 "
        "(default: %(default)s; 0 = unbounded)",
    )
    p_serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="analysis attempts per job before a worker-death failure "
        "parks it as failed (default: %(default)s)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-trace analysis budget (expiry fails the job instead of "
        "wedging a worker)",
    )
    p_serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=None,
        metavar="N",
        help="request body cap (default: 64 MiB)",
    )
    p_serve.add_argument(
        "--history",
        metavar="DIR",
        help="append a RunRecord per completed analysis to the run-history "
        "store at DIR (default: $DROIDRACER_HISTORY; unset = no recording)",
    )
    _add_backend(p_serve)
    p_serve.add_argument(
        "--log-json",
        metavar="PATH",
        help="append structured JSON-lines event records (request ids "
        "correlated to job ids, trace/config digests, active span) to "
        "PATH; '-' logs to stderr",
    )
    p_serve.add_argument(
        "--self-test",
        action="store_true",
        help="boot an ephemeral server against a temp corpus, upload a "
        "known trace, verify the served report against offline analysis, "
        "and exit (used by docs_check and CI)",
    )
    p_serve.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="with --self-test: also save the server's /v1/metrics.json "
        "document to FILE (a snapshot `droidracer obs top --snapshot` "
        "can render)",
    )
    p_serve.add_argument(
        "--no-drain",
        action="store_true",
        help="accept and journal jobs but never dispatch them (queue "
        "inspection / restart-recovery testing)",
    )

    p_obs = sub.add_parser(
        "obs",
        help="observability: history, compare, gate, dashboard, suspicion, "
        "and live `top` over a running service",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_ohistory = obs_sub.add_parser("history", help="list recorded runs")
    _add_history(p_ohistory)
    p_ohistory.add_argument(
        "--command",
        dest="command_filter",
        metavar="CMD",
        help="only runs of this command (run, analyze, corpus.analyze, ...)",
    )
    p_ohistory.add_argument("--app", help="only runs of this app")
    p_ohistory.add_argument(
        "--limit", type=int, default=0, metavar="N", help="newest N runs only"
    )
    p_ohistory.add_argument("--json", action="store_true")
    p_ohistory.add_argument(
        "--export-bench",
        metavar="DIR",
        help="write the BENCH_*.json files to DIR as derived views of the "
        "latest recorded benchmark runs",
    )

    p_ocompare = obs_sub.add_parser(
        "compare", help="span-by-span diff of two recorded runs"
    )
    p_ocompare.add_argument("a", help="run id prefix or 1-based position")
    p_ocompare.add_argument("b", help="run id prefix or 1-based position")
    p_ocompare.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        metavar="FRAC",
        help="wall-time noise band (default: %(default)s = ±20%%)",
    )
    p_ocompare.add_argument("--json", action="store_true")
    _add_history(p_ocompare)

    p_ogate = obs_sub.add_parser(
        "gate",
        help="exit non-zero on correctness drift or performance regression",
    )
    _add_history(p_ogate)
    p_ogate.add_argument(
        "--baseline",
        metavar="DIR",
        help="baseline history store to gate against (default: self-check "
        "the --history store's internal consistency)",
    )
    p_ogate.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        metavar="FRAC",
        help="allowed span slowdown as a fraction (default: %(default)s "
        "= +50%%)",
    )
    p_ogate.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        metavar="S",
        help="ignore spans whose baseline wall time is below S "
        "(default: %(default)s)",
    )
    p_ogate.add_argument("--json", action="store_true")

    p_odash = obs_sub.add_parser(
        "dashboard", help="render the store as a self-contained HTML page"
    )
    _add_history(p_odash)
    p_odash.add_argument(
        "--out",
        default="droidracer-dashboard.html",
        metavar="FILE",
        help="output path (default: %(default)s)",
    )

    p_otop = obs_sub.add_parser(
        "top",
        help="live terminal view of a running service's telemetry "
        "(qps, latency quantiles, queue depth, triage filter rate)",
    )
    p_otop.add_argument(
        "--url",
        metavar="URL",
        help="poll a running service (e.g. http://127.0.0.1:8333)",
    )
    p_otop.add_argument(
        "--snapshot",
        metavar="FILE",
        help="render a saved /v1/metrics.json document instead of polling "
        "(e.g. from `droidracer serve --self-test --metrics-out FILE`)",
    )
    p_otop.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll/redraw interval on a TTY (default: %(default)s)",
    )
    p_otop.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N redraws (default: 0 = until interrupted; "
        "a non-TTY stdout always renders exactly one static snapshot)",
    )

    p_osusp = obs_sub.add_parser(
        "suspicion",
        help="mine the store's per-location suspicion index (the guided "
        "explorer's input)",
    )
    _add_history(p_osusp)
    p_osusp.add_argument("--app", help="only this app's locations")
    p_osusp.add_argument(
        "--limit", type=int, default=10, metavar="N",
        help="top N locations per app (default: %(default)s)",
    )
    p_osusp.add_argument("--json", action="store_true")
    p_osusp.add_argument(
        "--export",
        metavar="DIR",
        help="also write the index as suspicion_index.json under DIR "
        "(the export_suspicion derived view)",
    )

    args = parser.parse_args(argv)

    if args.command == "obs":
        return _obs_main(args)

    metrics = getattr(args, "metrics", False)
    trace_out = getattr(args, "trace_out", None)
    history_dir = None
    if hasattr(args, "metrics"):  # only obs-capable subcommands record
        from repro.obs import resolve_history_dir

        history_dir = resolve_history_dir(getattr(args, "history", None))
    if not (metrics or trace_out or history_dir):
        return _dispatch(args)

    # Observability requested: run the whole command under a real tracer
    # inside one top-level span (so the exported Chrome trace covers the
    # full command wall time), then flush the sinks.  A configured
    # history dir needs the tracer too (RunRecords carry the span
    # aggregates) but adds no sink — stdout/stderr stay untouched until
    # the record is appended.
    from repro.obs import ChromeTraceSink, MemorySink, SummarySink, Tracer, use_tracer

    sinks: list = [MemorySink()]
    if trace_out:
        sinks.append(ChromeTraceSink(trace_out))
    if metrics:
        sinks.append(SummarySink())
    tracer = Tracer(sinks=sinks)
    command = args.command
    if command == "corpus":
        command = "corpus.%s" % args.corpus_command
    if history_dir:
        args._history_notes = []
    with use_tracer(tracer):
        with tracer.span("cli.%s" % command):
            code = _dispatch(args)
    tracer.finish()
    if trace_out:
        print("pipeline trace written to %s" % trace_out, file=sys.stderr)
    if history_dir and code == 0 and getattr(args, "_history_notes", None):
        appended = _record_history(
            history_dir, command, args._history_notes, tracer
        )
        print(
            "history: %d run record(s) appended to %s" % (appended, history_dir),
            file=sys.stderr,
        )
    return code


def _dispatch(args: argparse.Namespace) -> int:
    notes = getattr(args, "_history_notes", None)

    if args.command in ("table2", "table3", "performance"):
        from repro.apps.specs import ALL_SPECS, OPEN_SOURCE_SPECS
        from repro.bench import (
            render_performance,
            render_table2,
            render_table3,
            run_all,
        )

        specs = OPEN_SOURCE_SPECS if args.open_source_only else ALL_SPECS
        results = run_all(specs, scale=args.scale, seed=args.seed)
        renderer = {
            "table2": render_table2,
            "table3": render_table3,
            "performance": render_performance,
        }[args.command]
        print(renderer(results))
        if notes is not None:
            from repro.core.race_detector import DetectorConfig

            for result in results:
                notes.append(
                    {
                        "kind": "report",
                        "app": result.spec.name,
                        "trace_name": result.trace.name,
                        "trace_digest": result.trace.canonical_digest(),
                        "report": result.report.to_dict(),
                        "config": DetectorConfig(),
                        "span_root_app": result.spec.name,
                    }
                )
        return 0

    if args.command == "run":
        from repro.apps.registry import paper_app

        app = paper_app(args.app, scale=args.scale)
        _, trace = app.run(seed=args.seed)
        if args.save_trace:
            with open(args.save_trace, "w") as handle:
                handle.write(trace.to_jsonl())
            print("trace written to %s (%d operations)" % (args.save_trace, len(trace)))
        triage_extra = None
        if args.triage == TRIAGE_VC:
            vc_report, filtered = _run_triage(trace)
            if filtered:
                return _print_vc_report(vc_report, args)
            triage_extra = _triage_extra(vc_report)
        report = detect_races(
            trace,
            backend=args.backend,
            kernel=args.closure_kernel,
            merge_chains=args.merge_chains,
            closure_workers=args.closure_workers,
        )
        if notes is not None:
            from repro.core.race_detector import DetectorConfig

            notes.append(
                {
                    "kind": "report",
                    "app": args.app,
                    "trace_name": trace.name,
                    "trace_digest": trace.canonical_digest(),
                    "report": report.to_dict(),
                    "config": DetectorConfig(backend=args.backend),
                    "triage": triage_extra,
                }
            )
        if args.json:
            print(_report_json(report, args))
            return 0
        print(report.summary())
        for race in report.races:
            print("  ", race)
        return 0

    if args.command == "demo":
        from repro.apps.registry import demo_app
        from repro.explorer import find_event

        app = demo_app(args.app)
        system = app.build(args.seed)
        system.run_to_quiescence()
        if args.events is None:
            events = [
                e for e in system.enabled_events() if e.kind == "click"
            ]
        else:
            events = []
            for key in args.events:
                event = find_event(system.enabled_events(), key)
                if event is None:
                    print("event %r not enabled; available: %s" % (
                        key,
                        ", ".join(e.describe() for e in system.enabled_events()),
                    ))
                    return 1
                events.append(event)
        for event in events:
            system.fire(event)
            system.run_to_quiescence()
        trace = system.finish()
        if args.save_trace:
            with open(args.save_trace, "w") as handle:
                handle.write(trace.to_jsonl())
            print("trace written to %s (%d operations)" % (args.save_trace, len(trace)))
        report = detect_races(trace)
        if notes is not None:
            from repro.core.race_detector import DetectorConfig

            notes.append(
                {
                    "kind": "report",
                    "app": args.app,
                    "trace_name": trace.name,
                    "trace_digest": trace.canonical_digest(),
                    "report": report.to_dict(),
                    "config": DetectorConfig(),
                }
            )
        print(report.summary())
        for race in report.races:
            print("  ", race)
        return 0

    if args.command == "explore":
        return _explore_main(args, notes)

    if args.command == "analyze":
        from repro.core.explain import explain_race
        from repro.core.race_detector import RaceDetector

        try:
            trace = ExecutionTrace.load(args.trace, name=args.trace)
        except (OSError, ValueError) as exc:
            print("cannot load %s: %s" % (args.trace, exc), file=sys.stderr)
            return 1
        triage_extra = None
        if args.triage == TRIAGE_VC:
            vc_report, filtered = _run_triage(trace)
            if filtered:
                return _print_vc_report(vc_report, args)
            triage_extra = _triage_extra(vc_report)
        detector = RaceDetector(
            trace,
            backend=args.backend,
            kernel=args.closure_kernel,
            merge_chains=args.merge_chains,
            closure_workers=args.closure_workers,
        )
        report = detector.detect()
        if notes is not None:
            from repro.core.race_detector import DetectorConfig

            notes.append(
                {
                    "kind": "report",
                    "trace_name": trace.name,
                    "trace_digest": trace.canonical_digest(),
                    "report": report.to_dict(),
                    "config": DetectorConfig(backend=args.backend),
                    "triage": triage_extra,
                }
            )
        if args.json:
            print(_report_json(report, args))
            return 0
        print(report.summary())
        for race in report.races:
            if args.explain:
                print()
                print(explain_race(detector.trace, detector.hb, race).render())
            else:
                print("  ", race)
        return 0

    if args.command == "corpus":
        return _corpus_main(args)

    if args.command == "serve":
        return _serve_main(args)

    return 1


def _explore_main(args: argparse.Namespace, notes) -> int:
    """``droidracer explore``: systematic DFS (the default), the random
    baselines, or suspiciousness-guided exploration.

    Every strategy records the same history shape when ``--history`` is
    set: one combined ``multi`` record whose ``extra["suspicion"]``
    carries the per-trace signal documents the guided explorer mines —
    so a DFS exploration today is the suspicion index a guided
    exploration draws on tomorrow.  Without ``--history`` nothing is
    recorded and output is byte-identical to the pre-feedback CLI.
    """
    from repro.apps.registry import demo_app
    from repro.core.race_detector import DetectorConfig, RaceDetector
    from repro.explorer import (
        DynodroidExplorer,
        GuidedExplorer,
        MonkeyExplorer,
        SuspicionIndex,
        UIExplorer,
        signal_document,
    )

    app = demo_app(args.app)
    trace_store = None
    if args.store:
        from repro.corpus import TraceStore

        trace_store = TraceStore(args.store)

    entries: List[dict] = []
    suspicion_docs: List[dict] = []
    exploration_extra: Optional[dict] = None

    def _collect(trace, detector, report, events) -> None:
        """Per-trace bookkeeping shared by all strategies (history notes
        are only assembled when recording is on)."""
        if notes is None:
            return
        entries.append(
            {
                "trace_digest": trace.canonical_digest(),
                "report": report.to_dict(),
            }
        )
        suspicion_docs.append(
            signal_document(args.app, trace, detector.hb, report, events=events)
        )

    if args.strategy == "dfs":
        explorer = UIExplorer(
            app,
            depth=args.depth,
            seed=args.seed,
            max_runs=args.max_runs,
            trace_store=trace_store,
        )
        result = explorer.explore()
        print(
            "%s: %d runs at depth <= %d" % (args.app, result.runs_executed, args.depth)
        )
        if trace_store is not None:
            print(
                "corpus %s now holds %d trace(s)" % (args.store, len(trace_store))
            )
        for run in result.store.runs:
            detector = RaceDetector(run.trace)
            report = detector.detect()
            _collect(run.trace, detector, report, run.sequence)
            print("  %s -> %s" % (run.describe(), report.summary()))
            for race in report.races:
                print("      ", race)

    elif args.strategy in ("monkey", "dynodroid"):
        explorer_cls = (
            MonkeyExplorer if args.strategy == "monkey" else DynodroidExplorer
        )
        races = set()
        first_race_at = None
        sessions = 0
        for s in range(args.sequences):
            run = explorer_cls(app, budget=args.budget, seed=args.seed + s).run()
            sessions += 1
            if trace_store is not None:
                trace_store.ingest(run.trace, app=app.name)
            detector = RaceDetector(run.trace)
            report = detector.detect()
            _collect(run.trace, detector, report, run.events_fired)
            new = [
                (race.location, race.category.value)
                for race in report.races
                if (race.location, race.category.value) not in races
            ]
            races.update(new)
            if new and first_race_at is None:
                first_race_at = sessions
            print(
                "  #%d [%s] -> %s (%d new)"
                % (sessions, " -> ".join(run.events_fired) or "<empty>",
                   report.summary(), len(new))
            )
        print(
            "%s/%s: %d distinct races over %d sequences"
            % (args.app, args.strategy, len(races), sessions)
        )
        exploration_extra = {
            "strategy": args.strategy,
            "budget": args.budget,
            "sequences": sessions,
            "seed": args.seed,
            "races_found": len(races),
            "sequences_to_first_race": first_race_at,
            "races_per_100_sequences": (
                round(100.0 * len(races) / sessions, 4) if sessions else 0.0
            ),
        }

    else:  # guided
        from repro.obs import resolve_history_dir

        history_dir = resolve_history_dir(getattr(args, "history", None))
        index = SuspicionIndex()
        if history_dir:
            from repro.obs import HistoryStore

            store = HistoryStore(history_dir)
            if store.exists():
                index = SuspicionIndex.mine(store.records(), app=args.app)
        locations = len(index.signals(args.app))
        if locations:
            print(
                "suspicion index: %d scored location(s) for %s (history: %s)"
                % (locations, args.app, history_dir)
            )
        else:
            print(
                "suspicion index is empty for %s — guided exploration "
                "degrades to seeded-random" % args.app
            )
        explorer = GuidedExplorer(
            app,
            index=index,
            budget=args.budget,
            sequences=args.sequences,
            seed=args.seed,
            history_ref=history_dir,
        )
        result = explorer.run()
        for session in result.sessions:
            if trace_store is not None:
                trace_store.ingest(session.trace, app=app.name)
            if notes is not None:
                # The explorer analyzed each session as it ran; reuse its
                # report and signal document instead of re-deriving them.
                entries.append(
                    {
                        "trace_digest": session.trace.canonical_digest(),
                        "report": session.report.to_dict(),
                    }
                )
                suspicion_docs.append(session.signals)
            print(
                "  #%d %-7s [%s] -> %s (%d new, %d near-miss)"
                % (
                    session.index + 1,
                    session.kind,
                    " -> ".join(session.sequence) or "<empty>",
                    session.report.summary(),
                    len(session.new_races),
                    session.near_misses,
                )
            )
        print(result.describe())
        exploration_extra = {
            "strategy": "guided",
            "budget": args.budget,
            "sequences": result.sequence_count,
            "seed": args.seed,
            "history_ref": history_dir,
            "index_locations": locations,
            "races_found": len(result.races),
            "sequences_to_first_race": result.sequences_to_first_race,
            "races_per_100_sequences": round(
                result.races_per_100_sequences(), 4
            ),
        }
        if trace_store is not None:
            print(
                "corpus %s now holds %d trace(s)" % (args.store, len(trace_store))
            )

    if notes is not None and entries:
        from repro.core.race_detector import DetectorConfig

        note = {
            "kind": "multi",
            "app": args.app,
            "entries": entries,
            "config": DetectorConfig(),
            "suspicion": suspicion_docs,
        }
        if exploration_extra is not None:
            note["exploration"] = exploration_extra
        notes.append(note)
    return 0


def _want_metrics_block(args: argparse.Namespace) -> bool:
    """The ``metrics`` block rides in ``--json`` reports only when the
    user explicitly asked for instrumentation output.  ``--history``
    alone also runs under a tracer, but recording a run must keep the
    report byte-identical — the history store is a side channel, not a
    report change."""
    return bool(
        getattr(args, "metrics", False) or getattr(args, "trace_out", None)
    )


def _report_json(report, args: argparse.Namespace) -> str:
    """One trace's report as JSON — byte-identical to the historical
    ``report_to_json`` output unless ``--metrics``/``--trace-out`` is
    on, in which case a ``metrics`` block (span/counter aggregates) is
    added."""
    from repro.corpus import report_to_json
    from repro.obs import current_tracer

    if not _want_metrics_block(args) or not current_tracer().enabled:
        return report_to_json(report)
    payload = dict(report.to_dict(), metrics=current_tracer().metrics_dict())
    return json.dumps(payload, indent=2, sort_keys=True)


def _run_triage(trace):
    """The vc triage pass for single-trace commands: returns the
    :class:`VCReport` and whether the trace was proven race-free (in
    which case the closure is skipped entirely).  On escalation a note
    goes to stderr so stdout stays byte-identical to a triage-off run."""
    from repro.core import triage_races
    from repro.obs import current_tracer

    vc_report = triage_races(trace)
    filtered = not vc_report.races
    current_tracer().count("triage.filtered" if filtered else "triage.escalated")
    if not filtered:
        print(
            "triage: vc found %d race(s) in %s — escalating to the full closure"
            % (len(vc_report.races), vc_report.trace_name),
            file=sys.stderr,
        )
    return vc_report, filtered


def _triage_extra(vc_report) -> dict:
    """Triage summary attached to history records of escalated runs."""
    return {
        "mode": TRIAGE_VC,
        "verdict": "escalated",
        "vc_races": len(vc_report.races),
        "racy_locations": vc_report.racy_locations(),
        "seconds": vc_report.analysis_seconds,
    }


def _print_vc_report(vc_report, args) -> int:
    """Render a filtered (race-free) triage verdict.  ``--json`` emits
    the vc report dict — same envelope discipline as ``RaceReport``
    JSON, including the opt-in ``metrics`` block."""
    if getattr(args, "json", False):
        from repro.obs import current_tracer

        payload = dict(
            vc_report.to_dict(), triage={"mode": TRIAGE_VC, "verdict": "filtered"}
        )
        if _want_metrics_block(args) and current_tracer().enabled:
            payload["metrics"] = current_tracer().metrics_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        "%s: race-free by vc triage in %.3fs — closure skipped "
        "(%d locations checked, %d dangling joins, %d orphan begins)"
        % (
            vc_report.trace_name,
            vc_report.analysis_seconds,
            vc_report.locations_checked,
            vc_report.dangling_joins,
            vc_report.orphan_begins,
        )
    )
    return 0


def _corpus_main(args: argparse.Namespace) -> int:
    from repro.core.race_detector import DetectorConfig
    from repro.corpus import (
        BatchAnalyzer,
        ResultCache,
        TraceStore,
        aggregate,
        corpus_report_to_json,
    )

    store = TraceStore(args.store)

    if args.corpus_command == "ingest":
        try:
            entries = []
            for path in args.paths:
                entries.extend(
                    store.ingest(path, app=args.app, strict=not args.lenient)
                )
        except (OSError, ValueError) as exc:
            print("ingest failed: %s" % exc, file=sys.stderr)
            return 1
        print(
            "%d trace(s) ingested; corpus %s now holds %d"
            % (len(entries), args.store, len(store))
        )
        for entry in entries:
            print("  %s" % entry.describe())
        return 0

    if len(store) == 0:
        print(
            "corpus %s is empty — ingest traces first "
            "(droidracer corpus ingest, run --save-trace, explore --store)"
            % args.store,
            file=sys.stderr,
        )
        return 1

    use_cache = not getattr(args, "no_cache", False)
    cache = ResultCache(args.store) if use_cache else None
    config = DetectorConfig(
        backend=args.backend,
        kernel=args.closure_kernel,
        merge_chains=args.merge_chains,
        closure_workers=args.closure_workers,
        triage=args.triage,
    )
    analyzer = BatchAnalyzer(
        store,
        cache=cache,
        jobs=args.jobs,
        config=config,
        timeout=getattr(args, "timeout", None),
    )
    batch = analyzer.analyze()
    corpus_report = aggregate(batch)

    notes = getattr(args, "_history_notes", None)
    if notes is not None and args.corpus_command == "analyze":
        entries = [
            {
                "trace_digest": result.entry.digest,
                "report": result.report.to_dict(),
            }
            for result in batch.results
            if result.report is not None
        ]
        if entries:
            note = {"kind": "multi", "entries": entries, "config": config}
            if config.triage != TRIAGE_OFF:
                note["triage"] = {
                    "mode": config.triage,
                    "filtered": batch.triage_filtered,
                    "escalated": batch.triage_escalated,
                }
            notes.append(note)

    if args.corpus_command == "analyze":
        if args.json:
            from repro.obs import current_tracer

            payload = corpus_report.to_dict()
            if _want_metrics_block(args) and current_tracer().enabled:
                payload["metrics"] = current_tracer().metrics_dict()
            payload["traces"] = [
                {
                    "digest": result.entry.digest,
                    "name": result.entry.name,
                    "app": result.entry.app,
                    "cached": result.cached,
                    "error": result.error,
                    "filtered": result.filtered,
                    "triage": result.triage,
                    "report": result.report.to_dict() if result.report else None,
                }
                for result in batch.results
            ]
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for result in batch.results:
                print("  %s" % result.describe())
            print(batch.summary())
        return 0

    # corpus report
    if args.json:
        print(corpus_report_to_json(corpus_report))
    else:
        print(corpus_report.render())
    return 0


def _serve_main(args: argparse.Namespace) -> int:
    from repro.core.race_detector import DetectorConfig
    from repro.obs import resolve_history_dir

    config = DetectorConfig(
        backend=args.backend,
        kernel=args.closure_kernel,
        merge_chains=args.merge_chains,
        closure_workers=args.closure_workers,
        triage=args.triage,
    )
    history_dir = resolve_history_dir(getattr(args, "history", None))

    if args.self_test:
        return _serve_self_test(
            config,
            history_dir,
            metrics_out=getattr(args, "metrics_out", None),
            log_json=getattr(args, "log_json", None),
        )

    import asyncio
    import signal

    from repro.service import RaceService
    from repro.service.http import DEFAULT_MAX_BODY_BYTES

    service = RaceService(
        store_root=args.store,
        config=config,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        max_attempts=args.max_attempts,
        timeout=args.timeout,
        history_dir=history_dir,
        drain=not args.no_drain,
        max_body_bytes=args.max_body_bytes or DEFAULT_MAX_BODY_BYTES,
        log_json=args.log_json,
    )

    async def _amain() -> None:
        await service.start()
        print(
            "droidracer serve listening on http://%s:%d "
            "(store: %s, config: %s, workers: %s%s)"
            % (
                service.host,
                service.port,
                args.store,
                service.config_digest[:12],
                service.jobs if service.jobs > 0 else "inline",
                ", DRAINING DISABLED" if args.no_drain else "",
            ),
            flush=True,
        )
        if service.queue.recovered:
            print(
                "recovered %d unfinished job(s) from the journal"
                % service.queue.recovered,
                flush=True,
            )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, service.request_stop)
            except (NotImplementedError, ValueError):
                pass
        await service.serve_forever()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_self_test(
    config,
    history_dir: Optional[str],
    metrics_out: Optional[str] = None,
    log_json: Optional[str] = None,
) -> int:
    """Boot an ephemeral server on a temp corpus, drive one trace
    through the full upload → analyze → report → stream path over a
    real socket, and verify the served report against in-process
    detection.  The runnable ``serve`` example for docs_check and CI.
    ``metrics_out`` saves the server's ``/v1/metrics.json`` document —
    a snapshot ``droidracer obs top --snapshot`` can render offline."""
    import tempfile

    from repro.apps.paper_traces import figure4_trace
    from repro.obs import report_digest
    from repro.service import BackgroundServer, ServiceClient

    trace = figure4_trace()
    with tempfile.TemporaryDirectory(prefix="droidracer-selftest-") as tmp:
        with BackgroundServer(
            store_root=tmp,
            config=config,
            jobs=0,
            queue_depth=8,
            history_dir=history_dir,
            log_json=log_json,
        ) as server:
            client = ServiceClient(server.base_url)
            payload = client.upload(
                trace.to_jsonl(), name=trace.name, compress=True
            )
            job = client.wait(payload["job"]["job_id"], timeout=60)
            if job["state"] != "done":
                print(
                    "serve self-test FAILED: job ended %s (%s)"
                    % (job["state"], job.get("error")),
                    file=sys.stderr,
                )
                return 1
            served = client.report(payload["trace_digest"])
            offline = config.build_detector(trace).detect().to_dict()
            if report_digest(served) != report_digest(offline):
                print(
                    "serve self-test FAILED: served report digest differs "
                    "from offline analysis",
                    file=sys.stderr,
                )
                return 1
            events = list(client.stream(after=0, max_events=1, timeout=10))
            if not events or events[0]["job"]["state"] != "done":
                print(
                    "serve self-test FAILED: no completion event on /v1/stream",
                    file=sys.stderr,
                )
                return 1
            if metrics_out:
                doc = client.metrics_json()
                with open(metrics_out, "w", encoding="utf-8") as handle:
                    json.dump(doc, handle, indent=2, sort_keys=True)
                    handle.write("\n")
                print("metrics snapshot written to %s" % metrics_out)
            print(
                "serve self-test OK: %s analyzed over HTTP "
                "(%d races, report digest matches offline analysis)"
                % (trace.name, job["race_count"])
            )
    return 0


def _per_category(reports: List[dict]) -> dict:
    counts: dict = {}
    for report in reports:
        for race in report.get("races", ()):
            category = race.get("category", "?")
            counts[category] = counts.get(category, 0) + 1
    return counts


def _record_history(history_dir: str, command: str, notes, tracer) -> int:
    """Turn the dispatch's history notes into appended ``RunRecord``\\ s.

    Single-report commands (``run``, ``demo``, ``analyze``) get one
    record carrying the whole run's span aggregates and counters;
    table commands get one record per app with that app's ``bench.app``
    span subtree; multi-trace commands (``explore``,
    ``corpus.analyze``) get one combined record whose digests are
    order-independent combinations of the per-trace digests.
    """
    from repro.core.happens_before import SAT_INCREMENTAL
    from repro.core.race_detector import ENUM_BATCHED
    from repro.obs import (
        HistoryStore,
        RunRecord,
        aggregate_spans,
        combine_digests,
        report_digest,
        subtree_spans,
    )

    store = HistoryStore(history_dir)
    all_spans = tracer.spans
    full_rows = aggregate_spans(all_spans)
    per_app = sum(1 for note in notes if note["kind"] == "report") > 1
    appended = 0
    for note in notes:
        config = note["config"]
        extra = {"triage": note["triage"]} if note.get("triage") else {}
        # Feedback-loop payloads: per-trace suspicion signal documents
        # (what SuspicionIndex.mine consumes) and the exploration
        # summary (what the dashboard's strategy panel charts).
        for key in ("suspicion", "exploration"):
            if note.get(key):
                extra[key] = note[key]
        if note["kind"] == "multi":
            entries = note["entries"]
            reports = [entry["report"] for entry in entries]
            record = RunRecord(
                command=command,
                trace_digest=combine_digests(
                    entry["trace_digest"] for entry in entries
                ),
                config_digest=config.digest(),
                app=note.get("app"),
                trace_count=len(entries),
                trace_length=sum(r["trace_length"] for r in reports),
                backend=config.backend,
                saturation=SAT_INCREMENTAL,
                enumeration=ENUM_BATCHED,
                coalesce=config.coalesce,
                report_digest=combine_digests(
                    "%s:%s" % (entry["trace_digest"], report_digest(entry["report"]))
                    for entry in entries
                ),
                race_count=sum(len(r["races"]) for r in reports),
                racy_pairs=sum(r["racy_pair_count"] for r in reports),
                per_category=_per_category(reports),
                spans=full_rows,
                counters=dict(tracer.counters),
                gauges=dict(tracer.gauges),
                extra=extra,
            )
        else:
            report = note["report"]
            closure = dict(report.get("closure") or {})
            closure["nodes"] = report["node_count"]
            closure["reduction_ratio"] = report["reduction_ratio"]
            rows = full_rows
            counters = dict(tracer.counters)
            gauges = dict(tracer.gauges)
            if per_app:
                # A table run analyzes many apps under one tracer:
                # attribute only this app's bench.app subtree, and skip
                # the run-wide counters (they would repeat per record).
                root = next(
                    (
                        s
                        for s in all_spans
                        if s.name == "bench.app"
                        and s.attrs.get("app") == note.get("span_root_app")
                    ),
                    None,
                )
                rows = (
                    aggregate_spans(subtree_spans(all_spans, root.span_id))
                    if root is not None
                    else []
                )
                counters, gauges = {}, {}
            record = RunRecord(
                command=command,
                trace_digest=note["trace_digest"],
                config_digest=config.digest(),
                app=note.get("app"),
                trace_name=note.get("trace_name"),
                trace_count=1,
                trace_length=report["trace_length"],
                backend=config.backend,
                saturation=SAT_INCREMENTAL,
                enumeration=ENUM_BATCHED,
                coalesce=config.coalesce,
                closure=closure,
                report_digest=report_digest(report),
                race_count=len(report["races"]),
                racy_pairs=report["racy_pair_count"],
                per_category=_per_category([report]),
                spans=rows,
                counters=counters,
                gauges=gauges,
                extra=extra,
            )
        store.append(record)
        appended += 1
    return appended


def _obs_main(args: argparse.Namespace) -> int:
    """The ``droidracer obs`` subcommand family (read-only over the
    store, except ``dashboard``/``--export-bench`` which write derived
    views)."""
    from repro.obs import (
        HistoryStore,
        compare,
        export_bench,
        gate,
        resolve_history_dir,
        write_dashboard,
    )
    from repro.obs.history import RunRecordError

    if args.obs_command == "top":
        # Live telemetry, not the history store: no --history required.
        from repro.obs.top import run_top

        if bool(args.url) == bool(args.snapshot):
            print(
                "obs top: pass exactly one of --url or --snapshot",
                file=sys.stderr,
            )
            return 1
        return run_top(
            url=args.url,
            snapshot=args.snapshot,
            interval=args.interval,
            iterations=args.iterations,
        )

    history_dir = resolve_history_dir(getattr(args, "history", None))
    if not history_dir:
        print(
            "no history store configured: pass --history DIR or set "
            "$DROIDRACER_HISTORY",
            file=sys.stderr,
        )
        return 1
    store = HistoryStore(history_dir)

    if args.obs_command == "history":
        if args.export_bench:
            written = export_bench(store, args.export_bench)
            for path in written:
                print("wrote %s" % path)
            if not written:
                print(
                    "no benchmark runs recorded in %s — run "
                    "benchmarks/bench_closure.py with the history dir set"
                    % history_dir,
                    file=sys.stderr,
                )
                return 1
            return 0
        records = store.records(
            command=getattr(args, "command_filter", None), app=args.app
        )
        if args.limit:
            records = records[-args.limit :]
        if args.json:
            print(
                json.dumps(
                    [record.to_dict() for record in records],
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        if not records:
            print("history %s holds no matching runs" % history_dir)
            return 0
        print(
            "%-13s %-16s %-24s %-8s %s"
            % ("run", "command", "subject", "backend", "races")
        )
        for record in records:
            print(record.describe())
        return 0

    if args.obs_command == "compare":
        try:
            base = store.resolve(args.a)
            current = store.resolve(args.b)
        except RunRecordError as exc:
            print("obs compare: %s" % exc, file=sys.stderr)
            return 1
        comparison = compare(base, current, tolerance=args.tolerance)
        if args.json:
            print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
        else:
            print(comparison.render())
        return 0

    if args.obs_command == "gate":
        current = store.records()
        if not current:
            print("history %s is empty" % history_dir, file=sys.stderr)
            return 1
        baseline_records = None
        if args.baseline:
            baseline_store = HistoryStore(args.baseline)
            baseline_records = baseline_store.records()
            if not baseline_records:
                print(
                    "baseline store %s is empty" % args.baseline, file=sys.stderr
                )
                return 1
        result = gate(
            current,
            baseline_records,
            threshold=args.threshold,
            min_seconds=args.min_seconds,
        )
        if args.json:
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        else:
            print(result.render())
        return 0 if result.ok else 1

    if args.obs_command == "dashboard":
        count = write_dashboard(store, args.out)
        print("dashboard with %d run(s) written to %s" % (count, args.out))
        return 0

    if args.obs_command == "suspicion":
        from repro.explorer import SuspicionIndex
        from repro.obs import export_suspicion

        index = SuspicionIndex.mine(store.records(), app=args.app)
        if index.is_empty(args.app):
            print(
                "no suspicion signals recorded in %s — run "
                "`droidracer explore --history %s` (any strategy) first"
                % (history_dir, history_dir),
                file=sys.stderr,
            )
            return 1
        if args.json:
            print(json.dumps(index.to_dict(), indent=2, sort_keys=True))
        else:
            print(index.render(app=args.app, limit=args.limit))
        if args.export:
            path = export_suspicion(store, args.export, app=args.app)
            print("suspicion index written to %s" % path)
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
