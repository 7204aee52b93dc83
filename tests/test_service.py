"""Tests for ``droidracer serve``: job queue semantics, per-trace
analysis budgets, and the HTTP service end-to-end through a real
socket (threaded :class:`ServiceClient` against an in-process
:class:`BackgroundServer`)."""

import gzip
import json
import pickle
import re
import threading
import time

import pytest

from repro.apps.paper_traces import figure4_trace
from repro.apps.ladder import ladder_trace
from repro.core.race_detector import DetectorConfig, RaceReport
from repro.corpus import (
    BatchAnalyzer,
    CorpusError,
    ResultCache,
    TraceStore,
    report_to_json,
)
from repro.corpus.pipeline import AnalysisTimeout, _analysis_budget
from repro.service import (
    BackgroundServer,
    JobQueue,
    QueueFullError,
    ServiceClient,
    ServiceError,
)
from repro.service.app import RaceService
from repro.service.http import HttpError, _gunzip_capped
from tests.test_store_concurrency import make_trace

CONFIG = DetectorConfig()
CONFIG_DIGEST = CONFIG.digest()


# -- job queue ---------------------------------------------------------------


def submit(queue, digest, **kwargs):
    kwargs.setdefault("trace_name", "t-%s" % digest)
    kwargs.setdefault("app", "app")
    return queue.submit(digest, CONFIG_DIGEST, **kwargs)


def test_queue_fifo_and_idempotent_submit():
    queue = JobQueue()
    job_a, created_a = submit(queue, "aaa")
    job_b, created_b = submit(queue, "bbb")
    assert created_a and created_b
    again, created = submit(queue, "aaa")
    assert not created and again.job_id == job_a.job_id

    assert queue.next_job().job_id == job_a.job_id
    assert queue.next_job().job_id == job_b.job_id
    assert queue.next_job() is None

    # Running jobs still dedupe.
    again, created = submit(queue, "bbb")
    assert not created and again.job_id == job_b.job_id


def test_queue_depth_bound_and_cached_bypass():
    queue = JobQueue(max_depth=2)
    submit(queue, "a")
    submit(queue, "b")
    with pytest.raises(QueueFullError):
        submit(queue, "c")
    # A cache-hit submission completes instantly and bypasses the bound.
    job, created = submit(queue, "d", cached=True)
    assert created and job.state == "done" and job.cached


def test_queue_retry_limit():
    queue = JobQueue(max_attempts=2)
    job, _ = submit(queue, "a")
    assert queue.next_job().job_id == job.job_id  # attempt 1
    assert queue.fail(job.job_id, "worker died", retry=True)  # re-queued
    assert queue.next_job().job_id == job.job_id  # attempt 2
    assert not queue.fail(job.job_id, "worker died again", retry=True)
    assert queue.get(job.job_id).state == "failed"


def test_queue_deterministic_failures_do_not_retry():
    queue = JobQueue(max_attempts=3)
    job, _ = submit(queue, "a")
    queue.next_job()
    assert not queue.fail(job.job_id, "TraceFormatError: bad line")
    assert queue.get(job.job_id).state == "failed"
    assert queue.next_job() is None


def test_queue_journal_replay(tmp_path):
    journal = str(tmp_path / "svc" / "jobs.jsonl")
    queue = JobQueue(journal)
    done_job, _ = submit(queue, "finished")
    queue.next_job()
    queue.complete(done_job.job_id, seconds=0.5, race_count=3)
    queued_job, _ = submit(queue, "still-queued")
    running_job, _ = submit(queue, "was-running")
    # Make "was-running" the claimed one.
    assert queue.next_job().job_id == queued_job.job_id
    queue.fail(queued_job.job_id, "worker died", retry=True)  # back in line
    assert queue.next_job().job_id == running_job.job_id
    queue.close()

    # Crash + restart: done stays done; queued and interrupted-running
    # jobs come back queued, in submission order, attempts preserved.
    revived = JobQueue(journal)
    assert revived.recovered == 2
    assert revived.get(done_job.job_id).state == "done"
    assert revived.get(done_job.job_id).race_count == 3
    first, second = revived.next_job(), revived.next_job()
    assert first.job_id == queued_job.job_id
    assert second.job_id == running_job.job_id
    assert second.attempts == 2  # replayed attempt + this claim
    # Completion events replayed with stable seq numbers.
    events = revived.events_since(0)
    assert [e["job"]["job_id"] for e in events] == [done_job.job_id]


def test_queue_events_are_monotonic():
    queue = JobQueue()
    for digest in ("a", "b", "c"):
        job, _ = submit(queue, digest)
        queue.next_job()
        queue.complete(job.job_id)
    seqs = [e["seq"] for e in queue.events_since(0)]
    assert seqs == [1, 2, 3]
    assert [e["seq"] for e in queue.events_since(2)] == [3]
    assert queue.last_seq == 3


def test_queue_event_window_and_terminal_job_pruning():
    # A long-running service must not grow without bound: only the most
    # recent events stay replayable and old *terminal* jobs are pruned.
    queue = JobQueue(event_window=2, retain_jobs=3)
    done = []
    for digest in ("a", "b", "c", "d", "e"):
        job, _ = submit(queue, digest)
        queue.next_job()
        queue.complete(job.job_id)
        done.append(job.job_id)
    assert [e["seq"] for e in queue.events_since(0)] == [4, 5]
    assert queue.first_retained_seq == 4
    assert queue.last_seq == 5
    assert [j.job_id for j in queue.jobs()] == done[-3:]
    assert queue.get(done[0]) is None
    # A pruned key lost its dedup memory: resubmission makes a new job.
    fresh, created = submit(queue, "a")
    assert created and fresh.job_id != done[0]


def test_queue_never_prunes_active_jobs():
    queue = JobQueue(retain_jobs=2)
    for digest in ("a", "b", "c", "d"):
        submit(queue, digest)
    claimed = queue.next_job()  # 'a'
    queue.complete(claimed.job_id)
    # Over the retention limit, but only terminal records may go: the
    # finished 'a' is pruned, the three still-queued jobs all survive.
    remaining = queue.jobs()
    assert len(remaining) == 3
    assert all(j.state == "queued" for j in remaining)
    assert queue.get(claimed.job_id) is None


# -- request-body inflation (gzip-bomb hardening) ----------------------------


def test_gunzip_capped_roundtrip_and_members():
    data = b"hello race service " * 100
    assert _gunzip_capped(gzip.compress(data), len(data)) == data
    # Concatenated gzip members inflate like gzip.decompress did.
    two = gzip.compress(b"abc") + gzip.compress(b"def")
    assert _gunzip_capped(two, 64) == b"abcdef"


def test_gunzip_capped_rejects_bombs_and_garbage():
    # A ~4 KiB-of-zeros bomb against a 1 KiB budget dies at 413 without
    # the full payload ever being materialized.
    with pytest.raises(HttpError) as err:
        _gunzip_capped(gzip.compress(b"0" * 4096), 1024)
    assert err.value.status == 413
    with pytest.raises(HttpError) as err:
        _gunzip_capped(gzip.compress(b"0" * 4096)[:-4], 1 << 20)  # truncated
    assert err.value.status == 400
    with pytest.raises(HttpError) as err:
        _gunzip_capped(b"definitely not gzip", 1024)
    assert err.value.status == 400


# -- result-cache key validation (path-traversal hardening) ------------------


def test_result_cache_rejects_traversal_keys(tmp_path):
    cache = ResultCache(str(tmp_path / "store"))
    victim = tmp_path / "store" / "victim.json"
    victim.parent.mkdir(parents=True, exist_ok=True)
    victim.write_text("{}", encoding="utf-8")
    for trace_key, config_key in (
        ("..", "victim"),
        ("../..", "victim"),
        ("b" * 64, "../victim"),
        ("A" * 64, "b" * 64),  # digests are lowercase hex
        ("abc", "b" * 64),  # too short to be a digest
    ):
        with pytest.raises(CorpusError):
            cache.path_for(trace_key, config_key)
        with pytest.raises(CorpusError):
            cache.get(trace_key, config_key)
    # Nothing outside the cache root was read or unlinked.
    assert victim.exists()


# -- worker-pool rebuild (broken-pool cascade hardening) ---------------------


def test_pool_rebuild_is_generation_guarded(tmp_path):
    service = RaceService(store_root=str(tmp_path / "corpus"), jobs=1)
    try:
        _first, gen1 = service._ensure_executor()
        service._rebuild_executor(gen1)
        assert service.pool_restarts == 1 and service._executor is None
        replacement, gen2 = service._ensure_executor()
        assert gen2 == gen1 + 1
        # A straggler job failing against the *old* pool must not tear
        # down (and cancel jobs on) the healthy replacement.
        service._rebuild_executor(gen1)
        assert service.pool_restarts == 1
        assert service._executor is replacement
        service._rebuild_executor(gen2)
        assert service.pool_restarts == 2 and service._executor is None
    finally:
        if service._executor is not None:
            service._executor.shutdown(wait=False, cancel_futures=True)
        service.queue.close()


# -- analysis budget (satellite: BatchAnalyzer --timeout) --------------------


def test_analysis_budget_expires():
    with pytest.raises(AnalysisTimeout):
        with _analysis_budget(0.01):
            time.sleep(2)


def test_analysis_budget_disabled_and_off_main_thread():
    with _analysis_budget(None):
        pass
    outcome = []

    def body():
        # Signals cannot be installed off the main thread: the budget
        # must degrade to a documented no-op, not crash.
        with _analysis_budget(0.001):
            time.sleep(0.05)
        outcome.append("ok")

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    assert outcome == ["ok"]


def test_batch_analyzer_timeout_surfaces_in_summary(tmp_path):
    store = TraceStore(str(tmp_path))
    store.ingest(figure4_trace())
    batch = BatchAnalyzer(store, jobs=1, timeout=1e-6).analyze()
    (result,) = batch.results
    assert result.timed_out
    assert result.error.startswith("AnalysisTimeout")
    assert len(batch.timeouts()) == 1
    assert "1 timeouts" in batch.summary()

    # Without a budget the same corpus analyzes fine, and the summary
    # keeps its historical no-timeout format.
    batch = BatchAnalyzer(store, jobs=1).analyze()
    assert batch.timeouts() == []
    assert "timeouts" not in batch.summary()


# -- HTTP service end-to-end -------------------------------------------------


def strip_volatile(text: str) -> str:
    """Blank the per-run fields byte-identity deliberately excludes
    (exactly what ``repro.obs.report_digest`` drops)."""
    text = re.sub(r'"analysis_seconds": [-0-9.e+]+', '"analysis_seconds": 0', text)
    text = re.sub(r'"memory_bytes": \d+', '"memory_bytes": 0', text)
    text = re.sub(r'"peak_rss_bytes": \d+', '"peak_rss_bytes": 0', text)
    return re.sub(r'"trace_name": "[^"]*"', '"trace_name": ""', text)


@pytest.fixture
def server(tmp_path):
    with BackgroundServer(
        store_root=str(tmp_path / "corpus"), jobs=0, queue_depth=16
    ) as srv:
        yield srv


@pytest.fixture
def client(server):
    c = ServiceClient(server.base_url)
    yield c
    c.close()


def test_e2e_upload_analyze_report(client):
    trace = figure4_trace()
    payload = client.upload(trace.to_jsonl(), name=trace.name, app="figure4")
    assert payload["job"]["state"] in ("queued", "running", "done")
    job = client.wait(payload["job"]["job_id"])
    assert job["state"] == "done"
    assert job["race_count"] == 2

    served = client.report_text(payload["trace_digest"])
    offline = report_to_json(CONFIG.build_detector(trace).detect()) + "\n"
    assert strip_volatile(served) == strip_volatile(offline)

    # Same content re-uploaded: ingest no-op + job dedup/cache.
    again = client.upload(trace.to_jsonl(), name=trace.name)
    assert again["trace_digest"] == payload["trace_digest"]
    assert again["job"]["state"] == "done"


def test_cache_put_dict_writes_the_bytes_put_wrote(tmp_path):
    # Workers return ``report.to_dict()``; writing that dict must store
    # exactly what ``put(RaceReport.from_dict(d))`` stored before.
    traces = [
        figure4_trace(),
        ladder_trace(3, 3, loopers=2, rogues=2, body=1, name="racy-ladder"),
    ]
    for trace in traces:
        shipped = pickle.loads(
            pickle.dumps(CONFIG.build_detector(trace).detect().to_dict())
        )
        assert shipped["races"]
        digest = trace.canonical_digest()
        old = ResultCache(tmp_path / "old")
        old.put(digest, CONFIG_DIGEST, RaceReport.from_dict(shipped))
        new = ResultCache(tmp_path / "new")
        new.put_dict(digest, CONFIG_DIGEST, shipped)
        written = new.path_for(digest, CONFIG_DIGEST).read_bytes()
        assert written == old.path_for(digest, CONFIG_DIGEST).read_bytes()


def test_e2e_job_is_done_only_once_its_report_is_cached(server, client):
    trace = figure4_trace()
    payload = client.upload(trace.to_jsonl())  # unnamed: named by digest
    digest = payload["trace_digest"]
    assert digest == trace.canonical_digest()
    assert payload["entry"]["name"] == "upload-%s" % digest[:12]
    job = client.wait(payload["job"]["job_id"])
    assert job["state"] == "done" and job["race_count"] == 2

    service = server.service
    written = service.cache.path_for(digest, service.config_digest).read_bytes()
    report = RaceReport.from_dict(json.loads(written))
    assert len(report.races) == 2
    assert written == json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")


def test_e2e_failed_cache_write_fails_the_job(server, client):
    # A report that cannot be stored cannot be served: the job fails
    # with the reason instead of staying "running" until a restart.
    def disk_full(*args):
        raise OSError(28, "No space left on device")

    server.service.cache.put_dict = disk_full
    payload = client.upload(figure4_trace().to_jsonl(), name="f4")
    job = client.wait(payload["job"]["job_id"])
    assert job["state"] == "failed"
    assert "cache write failed" in job["error"]


def test_e2e_gzip_upload(client):
    trace = figure4_trace()
    payload = client.upload(trace.to_jsonl(), name=trace.name, compress=True)
    job = client.wait(payload["job"]["job_id"])
    assert job["state"] == "done" and job["race_count"] == 2


def test_e2e_batch_upload(client):
    items = [
        {"jsonl": make_trace(1, i).to_jsonl(), "name": "batch-%d" % i}
        for i in range(3)
    ]
    items.append({"jsonl": "not json lines"})  # one bad apple
    result = client.upload_batch(items)
    assert result["accepted"] == 3
    statuses = [item["status"] for item in result["items"]]
    assert statuses == [202, 202, 202, 400]
    for item in result["items"][:3]:
        assert client.wait(item["job"]["job_id"])["state"] == "done"
    listing = client.jobs(state="done")
    assert len(listing["jobs"]) == 3


def test_e2e_upload_without_analyze(client):
    payload = client.upload(
        make_trace(2, 0).to_jsonl(), name="stored-only", analyze=False
    )
    assert payload["job"] is None
    corpus = client.corpus()
    assert [e["name"] for e in corpus["entries"]] == ["stored-only"]
    assert client.jobs()["jobs"] == []


def test_e2e_namespaces(client):
    trace = make_trace(3, 0)
    client.upload(trace.to_jsonl(), name="t", namespace="tenant-a", analyze=False)
    assert client.corpus(namespace="tenant-a")["entries"]
    assert client.corpus()["entries"] == []
    with pytest.raises(ServiceError) as err:
        client.upload(trace.to_jsonl(), namespace="../escape", analyze=False)
    assert err.value.status == 400


def test_e2e_error_responses(client):
    with pytest.raises(ServiceError) as err:
        client.upload("definitely not a trace", name="bad")
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client.job("no-such-job")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client.report_text("0" * 64)
    assert err.value.status == 404
    status, _ = client.request("GET", "/nonsense")
    assert status == 404
    status, _ = client.request("DELETE", "/v1/jobs")
    assert status == 405


def test_e2e_report_path_traversal_rejected(server, client, tmp_path):
    # Before digest validation, GET /v1/reports/..?config=victim joined
    # the URL components straight into a filesystem path one level above
    # the results dir — and the corrupt-entry handler would *unlink* the
    # resolved file.  Plant a victim and prove it survives a 400.
    victim = tmp_path / "corpus" / "victim.json"
    victim.parent.mkdir(parents=True, exist_ok=True)
    victim.write_text("{}", encoding="utf-8")
    for digest in ("..", "..%2F..", "zzzz", "%2e%2e"):
        status, _ = client.request(
            "GET", "/v1/reports/%s" % digest, params={"config": "victim"}
        )
        assert status == 400
    # A well-formed trace digest with a traversing config is rejected too.
    status, _ = client.request(
        "GET", "/v1/reports/%s" % ("0" * 64), params={"config": "../victim"}
    )
    assert status == 400
    assert victim.exists()


def test_e2e_gzip_bomb_rejected(tmp_path):
    with BackgroundServer(
        store_root=str(tmp_path / "corpus"), jobs=0, max_body_bytes=4096
    ) as srv:
        client = ServiceClient(srv.base_url)
        bomb = gzip.compress(b"0" * (1 << 20))  # ~1 KiB wire, 1 MiB inflated
        assert len(bomb) <= 4096  # passes the compressed-size check
        status, _ = client.request(
            "POST",
            "/v1/traces",
            body=bomb,
            headers={"Content-Encoding": "gzip"},
        )
        assert status == 413
        client.close()


def test_e2e_status_and_compact(client):
    client.upload(make_trace(4, 0).to_jsonl(), name="t", analyze=False)
    status = client.status()
    assert status["ok"]
    assert status["queue"]["max_depth"] == 16
    assert status["pool"]["mode"] == "inline"
    assert status["corpus"]["default"]["entries"] == 1
    assert status["counters"]["service.traces_ingested"] == 1
    compacted = client.compact()
    assert compacted["compacted"]["default"] == 1


def test_e2e_stream_replay_and_live(server, client):
    trace = figure4_trace()
    payload = client.upload(trace.to_jsonl(), name=trace.name)
    client.wait(payload["job"]["job_id"])
    # Replay: the completion event is served to a late subscriber.
    events = list(client.stream(after=0, max_events=1, timeout=10))
    assert len(events) == 1
    assert events[0]["seq"] == 1
    assert events[0]["job"]["state"] == "done"
    assert events[0]["job"]["trace_digest"] == payload["trace_digest"]

    # Live: subscribe first, then complete a second job.
    got = []
    collector = threading.Thread(
        target=lambda: got.extend(
            ServiceClient(server.base_url).stream(
                after=1, max_events=1, timeout=30
            )
        )
    )
    collector.start()
    time.sleep(0.2)  # let the subscription register
    second = client.upload(make_trace(5, 0).to_jsonl(), name="live")
    client.wait(second["job"]["job_id"])
    collector.join(timeout=30)
    assert not collector.is_alive()
    assert len(got) == 1 and got[0]["seq"] == 2


def test_e2e_backpressure_429(tmp_path):
    # drain=False parks the scheduler: jobs stay queued, so the depth
    # bound is deterministic.
    with BackgroundServer(
        store_root=str(tmp_path / "corpus"),
        jobs=0,
        queue_depth=1,
        drain=False,
    ) as srv:
        client = ServiceClient(srv.base_url)
        first = client.upload(make_trace(6, 0).to_jsonl(), name="first")
        assert first["job"]["state"] == "queued"
        with pytest.raises(ServiceError) as err:
            client.upload(make_trace(6, 1).to_jsonl(), name="second")
        assert err.value.status == 429
        # The trace was still ingested — only the job was refused.
        assert len(client.corpus()["entries"]) == 2
        client.close()


def test_e2e_restart_resumes_journal(tmp_path):
    root = str(tmp_path / "corpus")
    trace = make_trace(7, 0)

    # Boot 1: accept but never dispatch, then die with the job queued.
    with BackgroundServer(store_root=root, jobs=0, drain=False) as srv:
        client = ServiceClient(srv.base_url)
        payload = client.upload(trace.to_jsonl(), name="resume-me")
        job_id = payload["job"]["job_id"]
        assert client.job(job_id)["state"] == "queued"
        client.close()

    # Boot 2: the journal resurrects the same job and it completes.
    with BackgroundServer(store_root=root, jobs=0) as srv:
        client = ServiceClient(srv.base_url)
        job = client.wait(job_id, timeout=60)
        assert job["state"] == "done"
        report = client.report(payload["trace_digest"])
        assert report["racy_pair_count"] >= 0
        client.close()

    # Boot 3: the completed key is terminal — nothing is re-queued, and
    # resubmitting the same trace short-circuits through the cache.
    with BackgroundServer(store_root=root, jobs=0) as srv:
        client = ServiceClient(srv.base_url)
        assert client.job(job_id)["state"] == "done"
        assert client.status()["queue"]["queued"] == 0
        again = client.upload(trace.to_jsonl(), name="resume-me")
        assert again["job"]["job_id"] == job_id
        assert again["job"]["state"] == "done"
        client.close()


def test_e2e_service_timeout_fails_job(tmp_path):
    # jobs=1: a real worker process, where SIGALRM budgets apply.
    with BackgroundServer(
        store_root=str(tmp_path / "corpus"), jobs=1, timeout=1e-6
    ) as srv:
        client = ServiceClient(srv.base_url)
        payload = client.upload(figure4_trace().to_jsonl(), name="slow")
        job = client.wait(payload["job"]["job_id"], timeout=120)
        assert job["state"] == "failed"
        assert job["error"].startswith("AnalysisTimeout")
        assert client.status()["counters"]["service.job_timeouts"] == 1
        client.close()
