"""The four workloads: set-up, the measured user path, and the traced
in-process mirror of that path.

* ``apps``   -- ``droidracer analyze FILE --json`` over the 15 Table-2
  subjects, closed loop, one invocation at a time;
* ``ladder`` -- the same entry point over closure ladders;
* ``corpus`` -- ``droidracer corpus analyze --jobs 2 --json`` over a
  racy-sparse store, result cache emptied before every pass, then one
  all-hits warm pass;
* ``serve``  -- ``droidracer serve --jobs 2``, driven by an open loop of
  Poisson arrivals (one sending thread, one collecting thread, one
  connection each).

Every program invocation runs as a subprocess with the default
``DetectorConfig``; it sees only the generated files or uploads.
"""

from __future__ import annotations

import gc
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import triage_races
from repro.core.operations import threadinit, write
from repro.core.race_detector import DetectorConfig
from repro.core.trace import ExecutionTrace, TraceBuilder
from repro.corpus import BatchAnalyzer, ResultCache, TraceStore, aggregate
from repro.corpus.report import report_to_json
from repro.obs import Tracer, current_tracer, use_tracer
from repro.obs.metrics import Histogram
from repro.service import ServiceClient

import expected
import inputs
import layers
from percentiles import median, percentile

SRC = Path(__file__).resolve().parents[2] / "src"
WORKLOADS = ("apps", "ladder", "corpus", "serve")
#: Worker processes for ``corpus analyze`` and ``serve`` (the box's nproc).
JOBS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Collector poll interval for job state.
POLL_S = 0.01
#: How long ``serve`` waits for outstanding jobs after the last arrival.
DRAIN_S = 60.0
PROCESS_TIMEOUT_S = 120.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.pop("DROIDRACER_HISTORY", None)  # never record run history
    return env


ENV = _env()


def droidracer(args: List[str], cwd: Path) -> Tuple[subprocess.CompletedProcess, float]:
    """Run one CLI invocation to completion; returns it and its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd),
        env=ENV,
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    return proc, time.perf_counter() - t0


def _failure(proc: subprocess.CompletedProcess) -> Optional[str]:
    if proc.returncode == 0:
        return None
    tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-1:]
    return "exit %d %s" % (proc.returncode, tail[0] if tail else "")


@dataclass
class Tally:
    """Attempted operations and the reasons the failed ones failed."""

    attempted: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, what: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem:
            self.problems.append("%s: %s" % (what, problem))

    @property
    def failed(self) -> int:
        return len(self.problems)


@dataclass
class Measured:
    """What the untraced user path produced."""

    pass_ops_per_s: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def repeat_for(seconds: float, one_pass) -> list:
    """Run ``one_pass`` as many whole times as fit ``seconds`` (at least
    once), sizing the count from the first pass."""
    t0 = time.perf_counter()
    results = [one_pass()]
    first = time.perf_counter() - t0
    total = max(1, round(seconds / first)) if first > 0 else 1
    while len(results) < total:
        results.append(one_pass())
    return results


def settle() -> None:
    """Move everything set-up built out of the cyclic collector's reach:
    the generated traces are millions of objects, and a full collection
    over them would stall the load generator or the mirrored pass."""
    gc.collect()
    gc.freeze()


def serialize(report) -> str:
    """``RaceReport.to_dict`` + ``json.dumps`` exactly as ``--json``
    prints it, under a ``report.serialize`` span."""
    with current_tracer().span("report.serialize") as span:
        text = report_to_json(report)
        span.set(bytes=len(text))
    return text


class Workload:
    """One workload at one seed.  Subclasses provide ``build`` (set-up
    into a directory), ``measure`` (the user path), and ``mirror`` (one
    in-process pass of that path, for the traced run)."""

    name = ""

    def __init__(self, seed: int, seconds: float, smoke: bool, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.workdir = workdir
        self.tally = Tally()
        self.filtered = 0  # traces the last mirrored triage pass cleared

    # -- set-up -----------------------------------------------------------

    def generate(self) -> List[inputs.Item]:
        """The workload's traces, under a ``sim.generate`` span (trace
        generation is the simulator layer)."""
        with current_tracer().span("sim.generate") as span:
            items = inputs.workload_items(self.name, self.seed, self.seconds, self.smoke)
            span.set(ops=sum(item.ops for item in items))
        return items

    def build(self, root: Path, traced: bool = False):
        raise NotImplementedError

    def close(self, state) -> None:
        pass

    def setup_timed(self) -> Tuple[object, List[float]]:
        """``SETUPS`` full set-ups into fresh directories; the last one's
        state is kept, the others are closed."""
        times, state = [], None
        for i in range(SETUPS):
            if state is not None:
                self.close(state)
            t0 = time.perf_counter()
            state = self.build(self.workdir / ("setup%d" % i))
            times.append(time.perf_counter() - t0)
        settle()
        return state, times

    # -- measured path ------------------------------------------------------

    def measure(self, state) -> Measured:
        raise NotImplementedError

    # -- traced path --------------------------------------------------------

    def mirror_seconds(self) -> float:
        return self.seconds

    def before_mirror(self, state) -> None:
        """Untimed work before each mirrored pass."""

    def mirror(self, state) -> list:
        """One in-process pass of the user path; returns ``(item,
        report_dict)`` pairs, checked outside the timed span."""
        raise NotImplementedError

    def check_pairs(self, state, pairs, label: str) -> None:
        for item, report in pairs:
            self.tally.record(
                "%s %s" % (label, item.name), expected.check_report(report, item.expected)
            )

    def triage(self, traces) -> None:
        """The vc triage pass, off the default path: how many of the
        traces would it clear without the closure?"""
        self.filtered = sum(1 for trace in traces if not triage_races(trace).races)

    def extra_layers(self, state) -> dict:
        return {}


# -- apps / ladder: ``droidracer analyze FILE --json`` ------------------------


@dataclass
class FilesState:
    root: Path
    items: List[inputs.Item]

    def path(self, item: inputs.Item) -> Path:
        return self.root / (item.name + ".jsonl")


class AnalyzeFiles(Workload):
    def build(self, root: Path, traced: bool = False) -> FilesState:
        state = FilesState(root, self.generate())
        root.mkdir(parents=True)
        for item in state.items:
            state.path(item).write_text(item.text)
        return state

    def one_pass(self, state: FilesState) -> Tuple[float, List[float]]:
        walls, ops = [], 0
        for item in state.items:
            try:
                proc, wall = droidracer(
                    ["analyze", str(state.path(item)), "--json"], state.root
                )
            except subprocess.TimeoutExpired:
                self.tally.record(item.name, "timed out")
                continue
            problem = _failure(proc)
            if problem is None:
                try:
                    problem = expected.check_report(
                        json.loads(proc.stdout), item.expected
                    )
                except ValueError:
                    problem = "unparseable --json output"
            self.tally.record(item.name, problem)
            walls.append(wall)
            ops += item.ops
        return (ops / sum(walls) if walls else 0.0), walls

    def measure(self, state: FilesState) -> Measured:
        out = Measured()
        for ops_per_s, walls in repeat_for(self.seconds, lambda: self.one_pass(state)):
            out.pass_ops_per_s.append(ops_per_s)
            out.latencies.extend(walls)
        return out

    def mirror(self, state: FilesState) -> list:
        config = DetectorConfig()
        pairs, traces = [], []
        for item in state.items:
            path = state.path(item)
            trace = ExecutionTrace.load(path, name=str(path))
            report = config.build_detector(trace).detect()
            serialize(report)
            pairs.append((item, report.to_dict()))
            traces.append(trace)
        self.triage(traces)
        return pairs


class Apps(AnalyzeFiles):
    name = "apps"


class Ladder(AnalyzeFiles):
    name = "ladder"


# -- corpus: ``droidracer corpus analyze --jobs 2 --json`` -------------------


@dataclass
class CorpusState:
    root: Path
    items: List[inputs.Item]

    @property
    def store(self) -> Path:
        return self.root / "store"


class Corpus(Workload):
    name = "corpus"

    def build(self, root: Path, traced: bool = False) -> CorpusState:
        state = CorpusState(root, self.generate())
        store = TraceStore(state.store)
        tracer = current_tracer()
        for item in state.items:
            with tracer.span("store.ingest"):
                store.ingest(item.trace, app=item.app)
        if len(store) != len(state.items):
            raise RuntimeError(
                "store holds %d traces, generated %d" % (len(store), len(state.items))
            )
        return state

    def one_pass(self, state: CorpusState, warm: bool = False) -> Tuple[float, float]:
        if not warm:
            ResultCache(state.store).clear()
        label = "warm" if warm else "cold"
        try:
            proc, wall = droidracer(
                ["corpus", "analyze", "--store", str(state.store),
                 "--jobs", str(JOBS), "--json"],
                state.root,
            )
        except subprocess.TimeoutExpired:
            proc, wall = None, 0.0
        problem = "timed out" if proc is None else _failure(proc)
        traces = {}
        if problem is None:
            try:
                traces = {t["name"]: t for t in json.loads(proc.stdout)["traces"]}
            except (ValueError, KeyError, TypeError):
                problem = "unparseable --json output"
        for item in state.items:
            result = traces.get(item.name)
            if problem is not None:
                item_problem = problem
            elif result is None:
                item_problem = "missing from the batch"
            elif result["error"]:
                item_problem = result["error"]
            elif result["cached"] != warm:
                item_problem = "cached=%s on a %s pass" % (result["cached"], label)
            else:
                item_problem = expected.check_report(result["report"], item.expected)
            self.tally.record("%s %s" % (label, item.name), item_problem)
        ops = sum(item.ops for item in state.items)
        return (ops / wall if wall else 0.0), wall

    def measure(self, state: CorpusState) -> Measured:
        out = Measured()
        for ops_per_s, wall in repeat_for(self.seconds, lambda: self.one_pass(state)):
            out.pass_ops_per_s.append(ops_per_s)
            out.latencies.append(wall)
        out.extra["warm_pass_s"] = self.one_pass(state, warm=True)[1]
        return out

    def before_mirror(self, state: CorpusState) -> None:
        ResultCache(state.store).clear()

    def mirror(self, state: CorpusState) -> list:
        """``corpus analyze --json`` in-process: the batch, the corpus
        aggregate, and the JSON document the CLI prints."""
        tracer = current_tracer()
        batch = BatchAnalyzer(
            TraceStore(state.store),
            cache=ResultCache(state.store),
            jobs=JOBS,
            config=DetectorConfig(),
        ).analyze()
        with tracer.span("corpus.aggregate"):
            payload = aggregate(batch).to_dict()
        with tracer.span("report.serialize") as span:
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
            span.set(bytes=len(json.dumps(payload, indent=2, sort_keys=True)))
        self.triage(item.trace for item in state.items)
        by_name = {item.name: item for item in state.items}
        return [(by_name[t["name"]], t["report"]) for t in payload["traces"]]

    def extra_layers(self, state: CorpusState) -> dict:
        # One untraced warm batch: the share of lookups the cache answers.
        cache = ResultCache(state.store)
        BatchAnalyzer(TraceStore(state.store), cache=cache, jobs=JOBS).analyze()
        return {"cache.hit_ratio": cache.hit_rate()}


# -- serve: ``droidracer serve --jobs 2`` under an open loop ------------------


class Server:
    """A ``droidracer serve`` subprocess on an ephemeral port, ready once
    ``/healthz`` answers."""

    def __init__(self, root: Path):
        store = root / "store"
        store.mkdir(parents=True)
        self.log_path = root / "serve.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store),
             "--jobs", str(JOBS), "--port", "0"],
            cwd=str(root),
            env=ENV,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.base_url = self._wait_listening()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self) -> str:
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        while time.monotonic() < deadline and self.proc.poll() is None:
            for line in self.log_path.read_text().splitlines():
                if " listening on " in line:
                    return line.split(" listening on ", 1)[1].split()[0]
            time.sleep(0.01)
        raise RuntimeError("serve did not start: %s" % self.log_path.read_text()[-500:])

    def _wait_healthy(self) -> None:
        client = ServiceClient(self.base_url, timeout=5)
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        try:
            while True:
                try:
                    if client.health().get("ok"):
                        return
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                time.sleep(0.01)
        finally:
            client.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


@dataclass
class ServeState:
    root: Path
    items: List[inputs.Item]
    requests: List[inputs.Request]
    server: Optional[Server] = None
    served: Dict[int, dict] = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    mirrors: int = 0

    @property
    def mirror_store(self) -> Path:
        return self.root / ("mirror%d" % self.mirrors)


class Serve(Workload):
    name = "serve"

    def loop_seconds(self, traced: bool) -> float:
        # A traced run splits its time between the open loop (for the
        # service's own telemetry) and the in-process mirror.
        return self.seconds / 2 if traced else self.seconds

    def mirror_seconds(self) -> float:
        return self.loop_seconds(True)

    def build(self, root: Path, traced: bool = False) -> ServeState:
        with current_tracer().span("sim.generate") as span:
            items, requests = inputs.serve_plan(
                self.seed, self.loop_seconds(traced), self.smoke
            )
            span.set(ops=sum(item.ops for item in items))
        for item in items:
            item.text  # serialize the upload bodies before the loop starts
        root.mkdir(parents=True)
        state = ServeState(root, items, requests)
        state.server = Server(root)
        return state

    def close(self, state: ServeState) -> None:
        if state.server is not None:
            state.server.stop()
            state.server = None

    def open_loop(self, state: ServeState) -> Measured:
        """Send every request on schedule and collect its report.

        Latency runs from the moment a request was *due*, so a sender
        that falls behind shows as latency, not as a lighter load.  Served
        reports are parsed and checked after the loop, off the clock; the
        first served report of each fresh upload lands in ``state.served``.
        """
        base_url = state.server.base_url
        handed: "queue.Queue" = queue.Queue()
        lags: List[float] = []
        done: Dict[int, Tuple[float, str]] = {}  # request -> (latency, report)
        problems: Dict[int, str] = {}
        start = time.perf_counter() + 0.05

        def send() -> None:
            client = ServiceClient(base_url, timeout=PROCESS_TIMEOUT_S)
            try:
                for index, request in enumerate(state.requests):
                    due = start + request.due
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    lags.append(max(0.0, time.perf_counter() - due))
                    item = state.items[request.item]
                    try:
                        payload = client.upload(item.text, name=item.name, app=item.app)
                        handed.put((index, due, payload))
                    except Exception as exc:  # noqa: BLE001 — one failed request
                        problems[index] = "upload: %s" % exc
            finally:
                client.close()
                handed.put(None)

        def collect() -> None:
            client = ServiceClient(base_url, timeout=PROCESS_TIMEOUT_S)
            pending: Dict[int, Tuple[float, dict]] = {}
            deadline = None  # set once the sender is finished
            try:
                while deadline is None or pending:
                    try:
                        while deadline is None:
                            got = handed.get(timeout=0 if pending else POLL_S)
                            if got is None:
                                deadline = time.perf_counter() + DRAIN_S
                            else:
                                pending[got[0]] = got[1:]
                    except queue.Empty:
                        pass
                    progressed = False
                    for index in sorted(pending):
                        due, payload = pending[index]
                        try:
                            job = payload["job"]
                            if job["state"] not in ("done", "failed"):
                                job = client.job(job["job_id"])
                            if job["state"] == "failed":
                                problems[index] = "job failed: %s" % job.get("error")
                            elif job["state"] == "done":
                                text = client.report_text(payload["trace_digest"])
                                done[index] = (time.perf_counter() - due, text)
                            else:
                                continue
                        except Exception as exc:  # noqa: BLE001
                            problems[index] = "collect: %s" % exc
                        del pending[index]
                        progressed = True
                    if deadline is not None and time.perf_counter() > deadline:
                        for index in pending:
                            problems[index] = "no report within %.0fs" % DRAIN_S
                        break
                    if pending and not progressed:
                        time.sleep(POLL_S)
            finally:
                client.close()

        sender = threading.Thread(target=send)  # the collector is this thread
        sender.start()
        try:
            collect()
        finally:
            sender.join()

        out = Measured()
        ops = 0
        for index, request in enumerate(state.requests):
            item = state.items[request.item]
            problem = problems.get(index)
            if problem is None and index not in done:
                problem = "no response"
            if problem is None:
                try:
                    report = json.loads(done[index][1])
                except ValueError:
                    report = None
                problem = expected.check_report(report, item.expected)
                state.served.setdefault(request.item, report)
                if request.fresh:  # a resubmit analyzes nothing
                    ops += item.ops
            self.tally.record("request %d (%s)" % (index, item.name), problem)
        if done:
            last = max(state.requests[i].due + lat for i, (lat, _) in done.items())
            out.pass_ops_per_s.append(ops / last)
            out.latencies = [done[i][0] for i in sorted(done)]
            out.extra["loop_s"] = last
        out.extra["lag_p90_s"] = percentile(lags, 90) if lags else 0.0
        return out

    def measure(self, state: ServeState) -> Measured:
        out = self.open_loop(state)
        self.close(state)
        # The first served report of each subject against offline
        # analysis of the same upload (what ``analyze --json`` computes).
        config = DetectorConfig()
        seen = set()
        for index, report in sorted(state.served.items()):
            item = state.items[index]
            if item.app in seen:
                continue
            seen.add(item.app)
            trace = ExecutionTrace.from_jsonl(item.text, name=item.name)
            offline = config.build_detector(trace).detect().to_dict()
            self.tally.record("served %s" % item.name, expected.check_served(report, offline))
        return out

    # -- traced ---------------------------------------------------------------

    def traced_loop(self, state: ServeState) -> None:
        """The open loop of a traced run, then a scrape of the service's
        always-on telemetry before it stops."""
        out = self.open_loop(state)
        client = ServiceClient(state.server.base_url, timeout=30)
        try:
            doc = client.metrics_json()
            status = client.status()
        finally:
            client.close()
        self.close(state)
        state.service = service_layers(doc, status, out.extra)

    def before_mirror(self, state: ServeState) -> None:
        state.mirrors += 1  # a fresh store: ingest must not dedupe

    def mirror(self, state: ServeState) -> list:
        """The service's work per fresh upload: parse, ingest, cache
        probe, load + detect (the worker), cache write, report read-back
        and serialization."""
        tracer = current_tracer()
        config = DetectorConfig()
        digest = config.digest()
        store = TraceStore(state.mirror_store)
        cache = ResultCache(state.mirror_store)
        pairs, traces = [], []
        for item in state.items:
            with tracer.span("trace.parse"):
                parsed = ExecutionTrace.from_jsonl(item.text, name=item.name)
            with tracer.span("store.ingest"):
                entry = store.ingest(parsed, app=item.app, name=item.name)[0]
            cache.get(entry.digest, digest)
            trace = ExecutionTrace.load(store.path_for(entry.digest), name=item.name)
            cache.put(entry.digest, digest, config.build_detector(trace).detect())
            report = cache.get(entry.digest, digest)
            serialize(report)
            pairs.append((item, report.to_dict()))
            traces.append(trace)
        self.triage(traces)
        return pairs

    def check_pairs(self, state: ServeState, pairs, label: str) -> None:
        super().check_pairs(state, pairs, label)
        for index, (item, report) in enumerate(pairs):  # in upload order
            served = state.served.get(index)
            if served is not None:
                self.tally.record(
                    "served %s" % item.name, expected.check_served(served, report)
                )

    def extra_layers(self, state: ServeState) -> dict:
        return state.service


def _histogram(doc: dict, family: str, **labels) -> Histogram:
    """Merge the children of one histogram family matching ``labels``."""
    hist = Histogram()
    for fam in doc.get("families", ()):
        if fam["name"] == family:
            for child in fam["children"]:
                if all(child["labels"].get(k) == v for k, v in labels.items()):
                    hist.merge(child)
    return hist


def service_layers(doc: dict, status: dict, loop: dict) -> dict:
    """The ``service`` layer as its own ``/v1/metrics.json`` reports it,
    plus the load generator's lateness (``loop``: the open loop's
    ``extra``)."""
    counters = doc.get("counters", {})
    uploads = counters.get("service.traces_ingested", 0) or 1
    wait = _histogram(doc, "droidracer_job_wait_seconds")
    run = _histogram(doc, "droidracer_job_run_seconds")
    requests = "droidracer_http_request_seconds"
    cache = status.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "service.upload_p50_s": _histogram(
            doc, requests, method="POST", route="/v1/traces"
        ).quantile(0.5),
        "service.report_get_p50_s": _histogram(
            doc, requests, method="GET", route="/v1/reports/:digest"
        ).quantile(0.5),
        "service.job_wait_p50_s": wait.quantile(0.5),
        "service.job_wait_p90_s": wait.quantile(0.9),
        "service.job_run_p50_s": run.quantile(0.5),
        "service.job_run_p90_s": run.quantile(0.9),
        # Share of the pool's capacity spent analyzing during the loop.
        "service.pool_busy": run.sum / (JOBS * loop["loop_s"]) if loop.get("loop_s") else 0.0,
        # Uploads answered without a new analysis: a cached report, or an
        # idempotent resubmit of a job the queue already holds.
        "service.cache_short_circuit_ratio": (
            counters.get("service.cache_short_circuits", 0)
            + counters.get("service.jobs_deduplicated", 0)
        ) / uploads,
        "service.rejected_429": counters.get("service.rejected_429", 0),
        "cache.hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "gen.lag_p90_s": loop["lag_p90_s"],
    }


WORKLOAD_CLASSES = {cls.name: cls for cls in (Apps, Ladder, Corpus, Serve)}


def cli_startup(root: Path, tally: Tally, runs: int = 5) -> float:
    """Median wall of ``analyze --json`` on a two-operation trace: the
    CLI's start-up cost, paid once per ``analyze`` invocation."""
    b = TraceBuilder("tiny")
    b.extend([threadinit("main"), write("main", "x.f")])
    path = root / "tiny.jsonl"
    path.write_text(b.build().to_jsonl())
    walls = []
    for _ in range(runs):
        proc, wall = droidracer(["analyze", str(path), "--json"], root)
        tally.record("cli start-up probe", _failure(proc))
        walls.append(wall)
    return median(walls)


def run_traced(workload: Workload) -> dict:
    """Set up once, then alternate untraced and traced in-process passes
    of the workload's mirror; returns every layer metric."""
    setup_tracer = Tracer()
    with use_tracer(setup_tracer):
        state = workload.build(workload.workdir / "traced", traced=True)
    settle()
    try:
        if isinstance(workload, Serve):
            workload.traced_loop(state)
        startup = cli_startup(workload.workdir, workload.tally)
        tracer = Tracer()
        walls: Dict[bool, List[float]] = {False: [], True: []}

        def one(traced: bool) -> None:
            workload.before_mirror(state)
            with use_tracer(tracer) if traced else nullcontext():
                with layers.instrumented() if traced else nullcontext():
                    with current_tracer().span(layers.ROOT_SPAN) as span:
                        pairs = workload.mirror(state)
            walls[traced].append(span.wall_seconds)
            workload.check_pairs(state, pairs, "traced" if traced else "untraced")

        repeat_for(workload.mirror_seconds(), lambda: (one(False), one(True)))
        passes = len(walls[True])
        metrics = layers.pass_metrics(tracer, passes, JOBS)
        metrics.update(workload.extra_layers(state))
    finally:
        workload.close(state)

    setup_rows = layers.span_rows(setup_tracer.spans)
    generated = setup_rows.get("sim.generate", {"wall_s": 0.0})
    generated_ops = sum(
        r.attrs.get("ops", 0) for r in setup_tracer.spans if r.name == "sim.generate"
    )
    metrics.update(
        {
            "cli.startup_s": startup,
            "obs.tracing_overhead": median(walls[True]) / median(walls[False]) - 1.0,
            "trace.ops": float(sum(item.ops for item in state.items)),
            "triage.filtered_ratio": workload.filtered / len(state.items),
            "sim.generate_s": generated["wall_s"],
            "sim.ops_per_s": generated_ops / generated["wall_s"],
            "spans": layers.table(layers.span_rows(tracer.spans)),
            "passes": passes,
        }
    )
    if "store.ingest_s" not in metrics and "store.ingest" in setup_rows:
        # ``corpus`` ingests once, during set-up; ``serve`` on every pass.
        metrics["store.ingest_s"] = setup_rows["store.ingest"]["self_s"]
    return metrics
