"""The ``droidracer serve`` race-analysis service.

A long-running asyncio front end over the sharded trace corpus: device
sessions (or a fleet driver) POST execution traces, the service ingests
them into the content-addressed :class:`~repro.corpus.store.TraceStore`,
enqueues one analysis job per ``(trace_digest, config_digest)`` key in
the durable :class:`~repro.service.jobs.JobQueue`, fans jobs out to a
persistent ``ProcessPoolExecutor`` running the exact
:func:`repro.corpus.pipeline._analyze_one` worker the offline batch
pipeline uses, and serves job status plus :class:`RaceReport` JSON that
is byte-identical (modulo the volatile timing fields the regression
gate also ignores) to ``droidracer analyze --json``.

Endpoints (see ``docs/service.md`` for the full walkthrough)::

    GET  /healthz                 liveness
    GET  /v1/status               queue, pool, corpus, counters
    POST /v1/traces               upload one trace (JSONL body, optional
                                  gzip Content-Encoding); 202 + job
    POST /v1/traces:batch         upload many ({"traces": [...]})
    GET  /v1/jobs                 list jobs (?state=&namespace=&limit=)
    GET  /v1/jobs/<id>            one job
    GET  /v1/reports/<digest>     RaceReport JSON (?config=<digest>)
    GET  /v1/corpus               manifest rows (?namespace=)
    GET  /v1/stream               NDJSON (or SSE) of results as they
                                  complete (?after=<seq> replays)
    POST /v1/compact              fold store manifests
    GET  /metrics                 Prometheus text exposition (v0.0.4)
    GET  /v1/metrics.json         same registry as JSON + queue/pool

Durability and flow control live in :mod:`repro.service.jobs`; raw
HTTP plumbing in :mod:`repro.service.http`.  Every completed analysis
appends a :class:`~repro.obs.RunRecord` (command ``service.analyze``)
when a history dir is configured, so per-tenant observability and the
``droidracer obs gate`` regression machinery cover served traffic for
free; ``service.*`` counters and spans flow through :mod:`repro.obs`
whenever the current tracer is enabled.

Live telemetry is always on: every instance owns a
:class:`~repro.obs.metrics.MetricsRegistry` (request latency/status/
body-size histograms per normalized route, queue depth and oldest-job
age, job wait-vs-run histograms, triage filtered/escalated rates, pool
rebuilds, RSS) scraped at ``GET /metrics`` (Prometheus text v0.0.4) or
``GET /v1/metrics.json`` (what ``droidracer obs top`` polls), and a
span->histogram bridge turns every ``service.*`` span and merged worker
span into quantile data.  ``--log-json PATH|-`` adds the structured
JSON-lines event log (request ids propagated to job ids; see
:mod:`repro.obs.logging`).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import json
import os
import threading
import time
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.race_detector import DetectorConfig
from repro.core.trace import ExecutionTrace, InvalidTraceError
from repro.corpus import ResultCache, TraceStore, report_to_json, valid_digest
from repro.corpus.pipeline import _analyze_one
from repro.corpus.store import CorpusError, list_namespaces, valid_namespace
from repro.obs import NULL_LOGGER, JsonLogger, current_tracer
from repro.obs.metrics import (
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    SpanHistogramSink,
    render_prometheus,
    rss_bytes,
)
from repro.obs.tracer import Tracer

from .http import (
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    Request,
    Response,
    json_response,
    read_request,
    start_stream,
    write_response,
)
from .jobs import JOB_DONE, Job, JobQueue, QueueFullError

__all__ = ["BackgroundServer", "RaceService", "SERVICE_DIR"]

#: Service state (job journal) lives under ``<store_root>/service/``.
SERVICE_DIR = "service"

#: Sentinel a route handler returns after taking over the transport.
_STREAMED = object()

#: Exact paths that label themselves in request metrics.
_KNOWN_ROUTES = frozenset(
    {
        "/",
        "/healthz",
        "/metrics",
        "/v1/status",
        "/v1/metrics.json",
        "/v1/traces",
        "/v1/traces:batch",
        "/v1/jobs",
        "/v1/corpus",
        "/v1/stream",
        "/v1/compact",
    }
)


def _route_label(path: str) -> str:
    """Metric label for a request path, with bounded cardinality:
    parameterized paths collapse to their pattern and everything
    unrecognized (scanners, typos) to ``"other"`` so an abusive client
    cannot mint unbounded label values."""
    if path in _KNOWN_ROUTES:
        return path
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/:id"
    if path.startswith("/v1/reports/"):
        return "/v1/reports/:digest"
    return "other"


class RaceService:
    """One service instance: corpus + cache + queue + pool + HTTP."""

    def __init__(
        self,
        store_root: Union[str, "os.PathLike[str]"],
        config: Optional[DetectorConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: Optional[int] = None,
        queue_depth: int = 256,
        max_attempts: int = 3,
        timeout: Optional[float] = None,
        history_dir: Optional[str] = None,
        drain: bool = True,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        log_json: Optional[str] = None,
        status_ttl: float = 2.0,
    ):
        self.store_root = str(store_root)
        self.config = config or DetectorConfig()
        self.config_digest = self.config.digest()
        self.host = host
        self.port = port
        #: ``jobs > 0``: a persistent process pool of that many workers.
        #: ``jobs <= 0``: run analysis inline on the event loop's thread
        #: pool (no child processes — fast startup for tests).
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.timeout = timeout
        self.drain = drain
        self.max_body_bytes = max_body_bytes

        self.root_store = TraceStore(self.store_root)
        self._stores: Dict[Optional[str], TraceStore] = {None: self.root_store}
        self.cache = ResultCache(self.store_root)
        self.queue = JobQueue(
            os.path.join(self.store_root, SERVICE_DIR, "jobs.jsonl"),
            max_depth=queue_depth,
            max_attempts=max_attempts,
        )
        self.history = None
        if history_dir:
            from repro.obs import HistoryStore

            self.history = HistoryStore(history_dir)

        #: Live telemetry is always on for a service instance: the
        #: registry is per-service (not the process global — several
        #: BackgroundServers can share one test process), and when no
        #: external tracer is active a private one is created whose only
        #: sink is the span->histogram bridge, so every ``service.*``
        #: span and merged worker span becomes quantile data without
        #: retaining records.  Served reports stay byte-identical: the
        #: tracer/registry never touch report content (differentially
        #: pinned by tools/service_smoke.py).
        self.metrics = MetricsRegistry()
        self.tracer = current_tracer()
        if not self.tracer.enabled:
            self.tracer = Tracer(sinks=[SpanHistogramSink(self.metrics)])
        else:
            self.tracer.sinks.append(SpanHistogramSink(self.metrics))
        self.log = JsonLogger(log_json, tracer=self.tracer) if log_json else NULL_LOGGER
        self.status_ttl = status_ttl
        self._status_lock = threading.Lock()
        self._corpus_cache: Optional[Tuple[float, Dict[str, dict]]] = None
        self._next_request_id = 0
        self.counters: Dict[str, float] = {}
        self.started_at = time.time()
        self.pool_restarts = 0
        self._executor: Optional[concurrent.futures.Executor] = None
        #: Incremented each time a fresh pool is built; a failing job
        #: may only tear down the pool generation it actually ran on.
        self._executor_gen = 0
        self._inflight = 0
        self._max_inflight = self.jobs if self.jobs > 0 else 1
        self._published_seq = 0
        self._subscribers: Set[asyncio.Queue] = set()
        self._connections: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopping: Optional[asyncio.Event] = None
        self._running = False
        self._init_metrics()

    def _init_metrics(self) -> None:
        """Register the service's metric families up front.

        Counters that a scrape must always see (the smoke gate asserts
        the triage-rate series exist even on an idle server) are
        pre-created at zero; gauges that mirror live state are
        function-backed so they resolve at scrape time instead of
        needing a refresh hook on every code path that changes them.
        """
        metrics = self.metrics
        self._m_req_seconds = metrics.histogram(
            "droidracer_http_request_seconds",
            "wall time per HTTP request",
            ("method", "route"),
        )
        self._m_req_total = metrics.counter(
            "droidracer_http_requests_total",
            "HTTP requests by route and status code",
            ("method", "route", "code"),
        )
        self._m_req_body = metrics.histogram(
            "droidracer_http_request_body_bytes",
            "request body size on ingest routes",
            ("route",),
        )
        self._m_job_wait = metrics.histogram(
            "droidracer_job_wait_seconds",
            "queue wait: submit to worker claim",
        )
        self._m_job_run = metrics.histogram(
            "droidracer_job_run_seconds",
            "analysis wall time per completed job",
        )
        # ``service.*`` counters that must be present-at-zero on scrape.
        for name in (
            "requests",
            "traces_ingested",
            "jobs_submitted",
            "jobs_completed",
            "jobs_failed",
            "jobs_deduplicated",
            "job_timeouts",
            "retries",
            "rejected_429",
            "cache_short_circuits",
            "pool_restarts",
            "internal_errors",
            "races_found",
            "triage_filtered",
            "triage_escalated",
        ):
            metrics.counter(
                "droidracer_service_%s_total" % name,
                "service event counter service.%s" % name,
            )
        metrics.gauge(
            "droidracer_queue_depth", "analysis jobs queued, not yet running"
        ).set_function(lambda: self.queue.counts()["depth"])
        metrics.gauge(
            "droidracer_queue_oldest_age_seconds",
            "seconds the oldest queued job has waited",
        ).set_function(self.queue.oldest_queued_age)
        metrics.gauge(
            "droidracer_pool_inflight", "jobs currently executing"
        ).set_function(lambda: self._inflight)
        metrics.gauge(
            "droidracer_pool_workers", "worker slots (pool size)"
        ).set_function(lambda: self._max_inflight)
        metrics.gauge(
            "droidracer_uptime_seconds", "seconds since service start"
        ).set_function(lambda: time.time() - self.started_at)
        metrics.gauge(
            "droidracer_rss_bytes", "resident set size of the server process"
        ).set_function(rss_bytes)
        metrics.gauge(
            "droidracer_status_corpus_age_seconds",
            "age of the cached /v1/status corpus payload",
        ).set_function(self._corpus_cache_age)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, recover journaled jobs, start the scheduler."""
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()
        self._running = True
        self._recover()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler_task = asyncio.create_task(self._scheduler())
        self._publish_events(initial=True)
        self._wake.set()
        self.log.log(
            "service.start",
            host=self.host,
            port=self.port,
            workers=self._max_inflight,
            backend=self.config.backend,
            config_digest=self.config_digest,
            recovered=self.queue.recovered,
        )

    def _recover(self) -> None:
        """Finish journal recovery: queued keys whose report is already
        in the result cache complete instantly instead of re-analyzing
        (the restart guarantee — completed work is never redone)."""
        for job in self.queue.jobs(state="queued"):
            report = self.cache.get(job.trace_digest, job.config_digest)
            if report is not None:
                self.queue.complete(
                    job.job_id, cached=True, race_count=len(report.races)
                )
                self._count("service.recovered_from_cache")
        if self.queue.recovered:
            self._count("service.jobs_recovered", self.queue.recovered)

    async def serve_forever(self) -> None:
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        self._running = False
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._scheduler_task is not None:
            self._wake.set()
            try:
                await asyncio.wait_for(self._scheduler_task, timeout=5)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._scheduler_task.cancel()
        # Let open connection handlers exit on their own (cancelling
        # them mid-read makes asyncio's stream protocol log noise):
        # wake stream subscribers, close transports, then wait.
        for sub in list(self._subscribers):
            sub.put_nowait(None)
        for conn_writer in list(self._connections):
            try:
                conn_writer.close()
            except OSError:
                pass
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self.queue.close()
        self.log.log(
            "service.stop",
            uptime_seconds=round(time.time() - self.started_at, 3),
        )
        self.log.close()

    def request_stop(self) -> None:
        """Signal ``serve_forever`` to exit (safe from signal handlers)."""
        if self._stopping is not None:
            self._stopping.set()

    # -- worker pool ---------------------------------------------------------

    def _ensure_executor(
        self,
    ) -> Tuple[Optional[concurrent.futures.Executor], int]:
        """The current pool and its generation number.

        Inline mode (``jobs <= 0``) uses the event loop's default
        thread pool and never rebuilds.
        """
        if self.jobs <= 0:
            return None, self._executor_gen
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs
            )
            self._executor_gen += 1
        return self._executor, self._executor_gen

    def _rebuild_executor(self, generation: int) -> None:
        """Tear down the broken pool — but only if ``generation`` is
        still the live one.  When several inflight jobs fail against the
        same broken pool, the first failure rebuilds it; the stragglers
        must not shut down (and cancel jobs on) the healthy replacement.
        """
        if generation != self._executor_gen:
            return  # a sibling failure already replaced this pool
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self.pool_restarts += 1
        self._count("service.pool_restarts")
        self.log.warn("pool.rebuild", restarts=self.pool_restarts)

    # -- scheduling ----------------------------------------------------------

    async def _scheduler(self) -> None:
        while self._running:
            self._wake.clear()
            if self.drain:
                while self._inflight < self._max_inflight:
                    job = self.queue.next_job()
                    if job is None:
                        break
                    self._inflight += 1
                    asyncio.create_task(self._run_job(job))
            await self._wake.wait()

    @property
    def collect_obs(self) -> bool:
        return self.history is not None or self.tracer.enabled

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        store = self._store(job.namespace)
        if job.started_at and job.submitted_at:
            self._m_job_wait.observe(max(0.0, job.started_at - job.submitted_at))
        job_log = self.log.bind(
            job_id=job.job_id,
            request_id=job.request_id,
            trace_digest=job.trace_digest,
            config_digest=job.config_digest,
        )
        job_log.log("job.start", attempt=job.attempts, namespace=job.namespace)
        args = (
            job.trace_digest,
            str(store.path_for(job.trace_digest)),
            job.trace_name,
            self.config,
            self.collect_obs,
            self.timeout,
        )
        try:
            try:
                executor, generation = self._ensure_executor()
                result = await loop.run_in_executor(
                    executor, _analyze_one, args
                )
            except concurrent.futures.BrokenExecutor as exc:
                # A worker process died mid-job (OOM-killer, SIGKILL).
                # The pool is unusable: rebuild it (generation-guarded —
                # a sibling failure may already have) and retry the job
                # until its attempt budget runs out.
                self._rebuild_executor(generation)
                retried = self.queue.fail(
                    job.job_id, "worker pool broke: %s" % exc, retry=True
                )
                self._count(
                    "service.retries" if retried else "service.jobs_failed"
                )
                job_log.warn(
                    "job.retry" if retried else "job.failed",
                    error="worker pool broke: %s" % exc,
                )
                return
            except asyncio.CancelledError:
                # Our future was cancelled out from under us — a pool
                # rebuild's cancel_futures, or server shutdown.  The
                # job did nothing wrong: re-queue it (journaled, so a
                # restart resumes it) instead of stranding it in
                # ``running`` forever.
                retried = self.queue.fail(
                    job.job_id, "analysis cancelled (pool shutdown)", retry=True
                )
                self._count(
                    "service.retries" if retried else "service.jobs_failed"
                )
                job_log.warn(
                    "job.retry" if retried else "job.failed",
                    error="analysis cancelled (pool shutdown)",
                )
                return
            except Exception as exc:  # noqa: BLE001 — keep the loop alive
                error = "%s: %s" % (exc.__class__.__name__, exc)
                self.queue.fail(job.job_id, error)
                self._count("service.jobs_failed")
                job_log.error("job.failed", error=error)
                return
            digest, report_dict, error, seconds, obs, triage = result
            if obs and self.tracer.enabled:
                self.tracer.merge(obs)
            verdict = triage.get("verdict") if triage else None
            if report_dict is not None:
                # The cache write (JSON encoding, temp file, rename) runs
                # on a worker thread, not the loop; the job is marked done
                # only once its report is on disk, where it is served from.
                try:
                    await loop.run_in_executor(
                        None, self.cache.put_dict, digest, self.config_digest, report_dict
                    )
                except OSError as exc:
                    error = "cache write failed: %s" % exc
                    self.queue.fail(job.job_id, error)
                    self._count("service.jobs_failed")
                    job_log.error("job.failed", error=error)
                    return
                races = len(report_dict["races"])
                self.queue.complete(
                    job.job_id,
                    seconds=seconds,
                    race_count=races,
                    triage=verdict,
                )
                self._count("service.jobs_completed")
                self._count("service.races_found", races)
                if verdict == "escalated":
                    self._count("service.triage_escalated")
                self._m_job_run.observe(seconds)
                job_log.log(
                    "job.done",
                    seconds=round(seconds, 6),
                    races=races,
                    triage=verdict,
                )
                self._record_history(job, report_dict, obs, seconds, triage)
            elif verdict == "filtered":
                # The vc triage pass proved the trace race-free: the job
                # completes with zero races and no stored report (filtered
                # verdicts are never cached — the cache key excludes the
                # triage knob).
                self.queue.complete(
                    job.job_id, seconds=seconds, race_count=0, triage=verdict
                )
                self._count("service.jobs_completed")
                self._count("service.triage_filtered")
                self._m_job_run.observe(seconds)
                job_log.log(
                    "job.done", seconds=round(seconds, 6), races=0,
                    triage=verdict,
                )
            else:
                self.queue.fail(job.job_id, error or "analysis failed")
                self._count("service.jobs_failed")
                if error and error.startswith("AnalysisTimeout"):
                    self._count("service.job_timeouts")
                job_log.error("job.failed", error=error or "analysis failed")
        finally:
            self._inflight -= 1
            self._publish_events()
            self._wake.set()

    # -- history / observability ----------------------------------------------

    def _count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        self.tracer.count(name, value)
        # Mirror into the Prometheus registry: "service.foo" becomes
        # "droidracer_service_foo_total" (get-or-create, so counters
        # beyond the pre-registered set still export).
        self.metrics.counter(
            "droidracer_service_%s_total" % name.split(".", 1)[-1],
            "service event counter %s" % name,
        ).inc(value)

    def _record_history(
        self,
        job: Job,
        report_dict: dict,
        obs: Optional[dict],
        seconds: float,
        triage: Optional[dict] = None,
    ) -> None:
        if self.history is None:
            return
        from repro.core.happens_before import SAT_INCREMENTAL
        from repro.core.race_detector import ENUM_BATCHED
        from repro.obs import RunRecord, aggregate_spans, report_digest
        from repro.obs.tracer import SpanRecord

        rows: List[dict] = []
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        if obs:
            rows = aggregate_spans(
                [SpanRecord.from_dict(d) for d in obs.get("spans", ())]
            )
            counters = dict(obs.get("counters", {}))
            gauges = dict(obs.get("gauges", {}))
        closure = dict(report_dict.get("closure") or {})
        closure["nodes"] = report_dict["node_count"]
        closure["reduction_ratio"] = report_dict["reduction_ratio"]
        per_category: Dict[str, int] = {}
        for race in report_dict.get("races", ()):
            category = race.get("category", "?")
            per_category[category] = per_category.get(category, 0) + 1
        record = RunRecord(
            command="service.analyze",
            trace_digest=job.trace_digest,
            config_digest=job.config_digest,
            app=job.app,
            trace_name=job.trace_name,
            trace_count=1,
            trace_length=report_dict["trace_length"],
            backend=self.config.backend,
            saturation=SAT_INCREMENTAL,
            enumeration=ENUM_BATCHED,
            coalesce=self.config.coalesce,
            closure=closure,
            report_digest=report_digest(report_dict),
            race_count=len(report_dict["races"]),
            racy_pairs=report_dict["racy_pair_count"],
            per_category=per_category,
            spans=rows,
            counters=counters,
            gauges=gauges,
        )
        extra = {
            "namespace": job.namespace,
            "job_id": job.job_id,
            "seconds": seconds,
        }
        if triage:
            extra["triage"] = triage
        record.extra = extra
        self.history.append(record)

    # -- stream fan-out -------------------------------------------------------

    def _publish_events(self, initial: bool = False) -> None:
        events = self.queue.events_since(self._published_seq)
        if events:
            self._published_seq = events[-1]["seq"]
        if initial:
            return  # recovery events are replayable, not live-pushed
        for event in events:
            for sub in self._subscribers:
                sub.put_nowait(event)

    # -- stores ---------------------------------------------------------------

    def _store(self, namespace: Optional[str]) -> TraceStore:
        if namespace is not None and not valid_namespace(namespace):
            raise HttpError(400, "invalid namespace %r" % namespace)
        store = self._stores.get(namespace)
        if store is None:
            store = self.root_store.namespace_store(namespace)
            self._stores[namespace] = store
        return store

    def _namespace_of(self, request: Request) -> Optional[str]:
        namespace = request.param("namespace")
        return namespace or None

    # -- HTTP ----------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(writer)
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader, self.max_body_bytes)
                except HttpError as exc:
                    await write_response(
                        writer, json_response(exc.payload, exc.status), False
                    )
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if request is None:
                    break
                self._count("service.requests")
                self._next_request_id += 1
                request.req_id = "req-%06d" % self._next_request_id
                route = _route_label(request.path)
                t0 = time.perf_counter()
                outcome = await self._safe_route(request, writer)
                seconds = time.perf_counter() - t0
                status = 200 if outcome is _STREAMED else outcome.status
                self._m_req_seconds.labels(
                    method=request.method, route=route
                ).observe(seconds)
                self._m_req_total.labels(
                    method=request.method, route=route, code=str(status)
                ).inc()
                if request.body:
                    self._m_req_body.labels(route=route).observe(
                        len(request.body)
                    )
                self.log.log(
                    "request.done",
                    request_id=request.req_id,
                    method=request.method,
                    path=request.path,
                    route=route,
                    status=status,
                    seconds=round(seconds, 6),
                    bytes_in=len(request.body),
                )
                if outcome is _STREAMED:
                    break
                self._count("service.responses_%dxx" % (outcome.status // 100))
                try:
                    await write_response(writer, outcome, request.keep_alive)
                except ConnectionError:
                    break
                if not request.keep_alive:
                    break
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _safe_route(self, request: Request, writer):
        with self.tracer.span(
            "service.request", method=request.method, path=request.path
        ) as span:
            try:
                return await self._route(request, writer)
            except HttpError as exc:
                span.set(status=exc.status)
                return json_response(exc.payload, exc.status)
            except QueueFullError as exc:
                self._count("service.rejected_429")
                span.set(status=429)
                response = json_response({"error": str(exc)}, 429)
                response.headers["Retry-After"] = "1"
                return response
            except (CorpusError, InvalidTraceError) as exc:
                span.set(status=400)
                return json_response({"error": str(exc)}, 400)
            except Exception as exc:  # noqa: BLE001 — server must survive
                self._count("service.internal_errors")
                span.set(status=500, error=str(exc))
                return json_response(
                    {"error": "%s: %s" % (exc.__class__.__name__, exc)}, 500
                )

    async def _route(self, request: Request, writer):
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return json_response({"ok": True})
        if path == "/" and method == "GET":
            return json_response(self._index())
        if path == "/v1/status" and method == "GET":
            # The shard-directory scan is disk work — off the loop.
            status = await asyncio.get_running_loop().run_in_executor(
                None, self.status
            )
            return json_response(status)
        if path == "/v1/traces" and method == "POST":
            return await self._handle_upload(request)
        if path == "/v1/traces:batch" and method == "POST":
            return await self._handle_batch(request)
        if path == "/v1/jobs" and method == "GET":
            return self._handle_jobs(request)
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._handle_job(path[len("/v1/jobs/"):])
        if path.startswith("/v1/reports/") and method == "GET":
            return await self._handle_report(request, path[len("/v1/reports/"):])
        if path == "/v1/corpus" and method == "GET":
            return await self._handle_corpus(request)
        if path == "/v1/stream" and method == "GET":
            await self._handle_stream(request, writer)
            return _STREAMED
        if path == "/v1/compact" and method == "POST":
            return await self._handle_compact()
        if path == "/metrics" and method == "GET":
            return Response(
                status=200,
                body=render_prometheus(self.metrics).encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        if path == "/v1/metrics.json" and method == "GET":
            return json_response(self.metrics_json())
        known = {
            "/healthz", "/", "/v1/status", "/v1/traces", "/v1/traces:batch",
            "/v1/jobs", "/v1/corpus", "/v1/stream", "/v1/compact",
            "/metrics", "/v1/metrics.json",
        }
        if path in known or path.startswith(("/v1/jobs/", "/v1/reports/")):
            raise HttpError(405, "%s not allowed on %s" % (method, path))
        raise HttpError(404, "unknown endpoint %s" % path)

    def _index(self) -> dict:
        return {
            "service": "droidracer",
            "endpoints": [
                "GET /healthz",
                "GET /v1/status",
                "POST /v1/traces",
                "POST /v1/traces:batch",
                "GET /v1/jobs",
                "GET /v1/jobs/<job_id>",
                "GET /v1/reports/<trace_digest>",
                "GET /v1/corpus",
                "GET /v1/stream",
                "POST /v1/compact",
                "GET /metrics",
                "GET /v1/metrics.json",
            ],
            "config_digest": self.config_digest,
            "backend": self.config.backend,
        }

    def _corpus_stats(self) -> Tuple[Dict[str, dict], float]:
        """Per-namespace corpus stats behind a short TTL.

        The shard-directory scan walks every namespace on disk; a
        polling client (``obs top`` defaults to 2s) must not turn each
        poll into a full store walk.  Queue/pool/counter fields stay
        live — only this payload is cached.  Ingest invalidates the
        cache (see :meth:`_ingest_and_submit`), so a just-uploaded
        trace is always visible in the next ``/v1/status``.
        Returns ``(stats, age_seconds)``.
        """
        now = time.time()
        with self._status_lock:
            if (
                self._corpus_cache is not None
                and now - self._corpus_cache[0] < self.status_ttl
            ):
                built_at, corpus = self._corpus_cache
                return corpus, now - built_at
        corpus: Dict[str, dict] = {"default": self.root_store.stats()}
        for namespace in list_namespaces(self.store_root):
            corpus[namespace] = self._store(namespace).stats()
        with self._status_lock:
            self._corpus_cache = (now, corpus)
        return corpus, 0.0

    def _corpus_cache_age(self) -> float:
        """Age of the cached corpus payload (0.0 when empty/fresh) —
        exported as ``droidracer_status_corpus_age_seconds``."""
        with self._status_lock:
            if self._corpus_cache is None:
                return 0.0
            return max(0.0, time.time() - self._corpus_cache[0])

    def _invalidate_corpus_cache(self) -> None:
        with self._status_lock:
            self._corpus_cache = None

    def status(self) -> dict:
        corpus, corpus_age = self._corpus_stats()
        return {
            "ok": True,
            "uptime_seconds": time.time() - self.started_at,
            "corpus_age_seconds": round(corpus_age, 3),
            "queue": self.queue.counts(),
            "pool": {
                "mode": "process" if self.jobs > 0 else "inline",
                "workers": self._max_inflight,
                "inflight": self._inflight,
                "restarts": self.pool_restarts,
                "draining": self.drain,
            },
            "corpus": corpus,
            "cache": {"hits": self.cache.hits, "misses": self.cache.misses},
            "counters": dict(sorted(self.counters.items())),
            "config_digest": self.config_digest,
            "backend": self.config.backend,
            "timeout": self.timeout,
        }

    def metrics_json(self) -> dict:
        """The ``/v1/metrics.json`` document ``obs top`` polls: the
        full registry (histogram children carry p50/p95/p99, histogram
        families a cross-label aggregate) plus the live queue/pool
        block so one poll renders the whole screen."""
        return {
            "ok": True,
            "uptime_seconds": time.time() - self.started_at,
            "queue": self.queue.counts(),
            "pool": {
                "mode": "process" if self.jobs > 0 else "inline",
                "workers": self._max_inflight,
                "inflight": self._inflight,
                "restarts": self.pool_restarts,
            },
            "counters": dict(sorted(self.counters.items())),
            **self.metrics.to_json_dict(),
        }

    # -- upload & jobs --------------------------------------------------------

    def _parse_trace(
        self, text: str, name: Optional[str]
    ) -> ExecutionTrace:
        try:
            trace = ExecutionTrace.from_jsonl(text, name=name or "upload")
        except InvalidTraceError as exc:
            raise HttpError(400, "malformed trace: %s" % exc)
        if not len(trace):
            raise HttpError(400, "empty trace upload")
        if name is None:
            trace.name = "upload-%s" % trace.canonical_digest()[:12]
        return trace

    def _parse_and_ingest(
        self,
        store: TraceStore,
        text: str,
        name: Optional[str],
        app: Optional[str],
    ):
        """Parse + persist one upload (blocking; runs on a worker thread
        so multi-MB bodies never stall the event loop)."""
        trace = self._parse_trace(text, name)
        return store.ingest(trace, app=app, name=name)[0]

    async def _ingest_and_submit(
        self,
        text: str,
        name: Optional[str],
        app: Optional[str],
        namespace: Optional[str],
        analyze: bool,
        request_id: str = "",
    ) -> dict:
        loop = asyncio.get_running_loop()
        store = self._store(namespace)
        entry = await loop.run_in_executor(
            None, self._parse_and_ingest, store, text, name, app
        )
        self._count("service.traces_ingested")
        self._invalidate_corpus_cache()
        payload = {
            "trace_digest": entry.digest,
            "entry": {
                "name": entry.name,
                "app": entry.app,
                "length": entry.length,
            },
            "namespace": namespace,
        }
        if not analyze:
            payload["job"] = None
            return payload
        # Cache probe (disk read) and submit (journal fsync) are also
        # blocking; the queue is thread-safe, so only the wake/publish
        # bookkeeping below must stay on the loop.
        cached_report = await loop.run_in_executor(
            None, self.cache.get, entry.digest, self.config_digest
        )
        job, created = await loop.run_in_executor(
            None,
            functools.partial(
                self.queue.submit,
                entry.digest,
                self.config_digest,
                trace_name=entry.name,
                app=entry.app,
                namespace=namespace,
                cached=cached_report is not None,
                request_id=request_id,
            ),
        )
        if created:
            self._count("service.jobs_submitted")
            self.log.log(
                "job.submitted",
                request_id=request_id,
                job_id=job.job_id,
                trace_digest=entry.digest,
                config_digest=self.config_digest,
                namespace=namespace,
                cached=job.state == JOB_DONE,
            )
            if job.state == JOB_DONE:
                self._count("service.cache_short_circuits")
                self._publish_events()
            else:
                self._wake.set()
        else:
            self._count("service.jobs_deduplicated")
        payload["job"] = self._job_dict(job)
        return payload

    @staticmethod
    def _wants_analysis(request: Request) -> bool:
        return request.param("analyze", "1") not in ("0", "false", "no")

    async def _handle_upload(self, request: Request) -> Response:
        namespace = self._namespace_of(request)
        loop = asyncio.get_running_loop()
        text = await loop.run_in_executor(None, request.text)
        payload = await self._ingest_and_submit(
            text,
            request.param("name"),
            request.param("app"),
            namespace,
            self._wants_analysis(request),
            request_id=request.req_id,
        )
        status = 202 if payload.get("job") else 200
        return json_response(payload, status)

    async def _handle_batch(self, request: Request) -> Response:
        namespace = self._namespace_of(request)
        analyze = self._wants_analysis(request)
        loop = asyncio.get_running_loop()
        body = await loop.run_in_executor(None, request.json)
        if not isinstance(body, dict) or not isinstance(
            body.get("traces"), list
        ):
            raise HttpError(400, 'batch body must be {"traces": [...]}')
        items: List[dict] = []
        accepted = 0
        for i, item in enumerate(body["traces"]):
            if not isinstance(item, dict) or "jsonl" not in item:
                items.append(
                    {"index": i, "status": 400, "error": "item needs a 'jsonl' field"}
                )
                continue
            try:
                payload = await self._ingest_and_submit(
                    item["jsonl"],
                    item.get("name"),
                    item.get("app"),
                    item.get("namespace", namespace),
                    analyze,
                    request_id=request.req_id,
                )
            except HttpError as exc:
                items.append(dict(exc.payload, index=i, status=exc.status))
                continue
            except QueueFullError as exc:
                self._count("service.rejected_429")
                items.append({"index": i, "status": 429, "error": str(exc)})
                continue
            items.append(dict(payload, index=i, status=202 if analyze else 200))
            accepted += 1
        status = 202 if accepted else 400
        return json_response(
            {"accepted": accepted, "total": len(body["traces"]), "items": items},
            status,
        )

    def _job_dict(self, job: Job) -> dict:
        payload = job.to_dict()
        # A triage-filtered job has no stored report (the vc verdict is
        # never cached), so there is no report path to offer.
        if job.state == JOB_DONE and job.triage != "filtered":
            report_path = "/v1/reports/%s?config=%s" % (
                job.trace_digest,
                job.config_digest,
            )
            if job.namespace:
                report_path += "&namespace=%s" % job.namespace
            payload["report_path"] = report_path
        return payload

    def _handle_jobs(self, request: Request) -> Response:
        limit_raw = request.param("limit", "0")
        try:
            limit = int(limit_raw)
        except ValueError:
            raise HttpError(400, "invalid limit %r" % limit_raw)
        jobs = self.queue.jobs(
            state=request.param("state"),
            namespace=request.param("namespace"),
            limit=limit,
        )
        return json_response(
            {"jobs": [self._job_dict(job) for job in jobs], "counts": self.queue.counts()}
        )

    def _handle_job(self, job_id: str) -> Response:
        job = self.queue.get(job_id)
        if job is None:
            raise HttpError(404, "unknown job %s" % job_id)
        return json_response(self._job_dict(job))

    async def _handle_report(self, request: Request, digest: str) -> Response:
        # The digest and config come straight off the URL: reject
        # anything that is not a hex content digest *before* they reach
        # a filesystem join (the cache also re-checks — defense in
        # depth against path traversal).
        if not valid_digest(digest):
            raise HttpError(400, "invalid trace digest %r" % digest[:80])
        config_digest = request.param("config") or self.config_digest
        if not valid_digest(config_digest):
            raise HttpError(400, "invalid config digest %r" % config_digest[:80])
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, self.cache.get, digest, config_digest
        )
        if report is None:
            job = self.queue.find(
                digest, config_digest, self._namespace_of(request)
            )
            raise HttpError(
                404,
                "no report for trace %s under config %s"
                % (digest[:12], config_digest[:12]),
                job_state=job.state if job else None,
            )
        # Byte-for-byte the offline CLI's ``analyze --json`` output
        # (stdout print appends the trailing newline there; we do here).
        body = (report_to_json(report) + "\n").encode("utf-8")
        return Response(status=200, body=body)

    async def _handle_corpus(self, request: Request) -> Response:
        store = self._store(self._namespace_of(request))
        loop = asyncio.get_running_loop()
        return json_response(
            await loop.run_in_executor(None, self._corpus_payload, store)
        )

    @staticmethod
    def _corpus_payload(store: TraceStore) -> dict:
        store.refresh()
        return {
            "stats": store.stats(),
            "entries": [
                {
                    "digest": e.digest,
                    "name": e.name,
                    "app": e.app,
                    "length": e.length,
                    "threads": e.threads,
                    "tasks": e.tasks,
                }
                for e in store.entries()
            ],
        }

    async def _handle_compact(self) -> Response:
        loop = asyncio.get_running_loop()
        totals = await loop.run_in_executor(None, self._compact_all)
        return json_response({"compacted": totals})

    def _compact_all(self) -> Dict[str, int]:
        totals = {"default": self.root_store.compact()}
        for namespace in list_namespaces(self.store_root):
            totals[namespace] = self._store(namespace).compact()
        return totals

    async def _handle_stream(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        after_raw = request.param("after", "0")
        try:
            after = int(after_raw)
        except ValueError:
            raise HttpError(400, "invalid after %r" % after_raw)
        sse = "text/event-stream" in request.headers.get("accept", "")
        await start_stream(
            writer,
            "text/event-stream" if sse else "application/x-ndjson",
        )
        self._count("service.stream_connections")
        sub: asyncio.Queue = asyncio.Queue()
        self._subscribers.add(sub)
        sent = after
        try:
            for event in self.queue.events_since(after):
                self._write_event(writer, event, sse)
                sent = event["seq"]
            await writer.drain()
            while True:
                event = await sub.get()
                if event is None:
                    break  # server shutdown
                if event["seq"] <= sent:
                    continue  # already replayed
                self._write_event(writer, event, sse)
                sent = event["seq"]
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away
        finally:
            self._subscribers.discard(sub)

    @staticmethod
    def _write_event(
        writer: asyncio.StreamWriter, event: dict, sse: bool
    ) -> None:
        blob = json.dumps(event, sort_keys=True)
        if sse:
            writer.write(("data: %s\n\n" % blob).encode("utf-8"))
        else:
            writer.write((blob + "\n").encode("utf-8"))


class BackgroundServer:
    """Run a :class:`RaceService` on a daemon thread with its own event
    loop — the in-process harness tests, benchmarks, and ``serve
    --self-test`` drive through a real socket.

    Usable as a context manager::

        with BackgroundServer(store_root=tmp, jobs=0) as server:
            client = ServiceClient(server.base_url)
    """

    def __init__(self, **service_kwargs):
        self._kwargs = service_kwargs
        self.service: Optional[RaceService] = None
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        return "http://%s:%d" % (
            self._kwargs.get("host", "127.0.0.1"),
            self.port,
        )

    def start(self, timeout: float = 30.0) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="droidracer-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service did not start within %.1fs" % timeout)
        if self._startup_error is not None:
            raise RuntimeError(
                "service failed to start: %s" % self._startup_error
            ) from self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 — surfaced to starter
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    async def _amain(self) -> None:
        try:
            self.service = RaceService(**self._kwargs)
            await self.service.start()
        except BaseException as exc:  # noqa: BLE001
            self._startup_error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self.port = self.service.port
        self._ready.set()
        await self.service.serve_forever()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.service is not None:
            self._loop.call_soon_threadsafe(self.service.request_stop)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
