"""Tests of the end-to-end benchmark harness itself (not of the detector).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import copy

import pytest

import compare
import expected
import inputs
from percentiles import percentile, tail_percentile
from repro.core.race_detector import DetectorConfig
from workloads import WORKLOADS, Tally


def _digest(workload, seed):
    return inputs.inputs_digest(inputs.workload_items(workload, seed, 1.0, smoke=True))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert _digest(workload, 1) == _digest(workload, 1)
    assert _digest(workload, 1) != _digest(workload, 2)


def test_serve_schedule_is_a_function_of_the_seed():
    def schedule(seed):
        return [(r.due, r.item, r.fresh) for r in inputs.serve_plan(seed, 2.0, smoke=True)[1]]

    assert schedule(1) == schedule(1)
    assert schedule(1) != schedule(2)
    assert all(fresh for _, _, fresh in schedule(1)[:1])


@pytest.mark.parametrize(
    "n, p",
    [(19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (120, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile(list(range(11)), 90) == 9.0


def _report(item):
    return DetectorConfig().build_detector(item.trace).detect().to_dict()


@pytest.mark.parametrize("workload", ["apps", "ladder"])
def test_a_report_missing_one_race_is_a_failure(workload):
    item = inputs.workload_items(workload, 1, 1.0, smoke=True)[0]
    report = _report(item)
    assert report["races"]
    assert expected.check_report(report, item.expected) is None

    dropped = copy.deepcopy(report)
    dropped["races"].pop()
    tally = Tally()
    tally.record(item.name, expected.check_report(dropped, item.expected))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_a_report_of_the_wrong_trace_is_a_failure():
    item = inputs.workload_items("corpus", 1, 1.0, smoke=True)[0]
    report = _report(item)
    assert expected.check_report(report, item.expected) is None
    report["trace_length"] += 1
    assert expected.check_report(report, item.expected) is not None


def test_served_report_must_match_offline_digest():
    item = inputs.workload_items("ladder", 1, 1.0, smoke=True)[0]
    offline = _report(item)
    served = dict(offline, analysis_seconds=offline["analysis_seconds"] + 1.0)
    assert expected.check_served(served, offline) is None
    served["races"] = served["races"][1:]
    assert expected.check_served(served, offline) is not None


BENCH = {
    "workloads": [{"name": "apps", "why": "x"}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
    ],
}


def _set(ops, latency, error_rate=0.0):
    return [
        {
            "workloads": {
                "apps": {
                    "error_rate": error_rate,
                    "metrics": {
                        "ops_per_s": {"value": o, "unit": "ops/s"},
                        "latency_p50_s": {"value": l, "unit": "s"},
                    },
                }
            }
        }
        for o, l in zip(ops, latency)
    ]


def _verdicts(a, b):
    return {row["metric"]: row["verdict"] for row in compare.compare(a, b, BENCH)}


def test_compare_verdicts():
    base = _set([100, 101, 99, 100], [1.0, 1.01, 0.99, 1.0])
    assert _verdicts(base, _set([100, 102, 98, 101], [1.0, 1.02, 0.98, 1.01])) == {
        "ops_per_s": "ok", "latency_p50_s": "ok", "error_rate": "ok"}
    # Throughput down 20% and latency up 20%: both worse beyond 10%.
    assert _verdicts(base, _set([80, 81, 79, 80], [1.2, 1.21, 1.19, 1.2])) == {
        "ops_per_s": "regression", "latency_p50_s": "regression", "error_rate": "ok"}
    assert _verdicts(base, _set([120, 121, 119, 120], [0.8, 0.81, 0.79, 0.8])) == {
        "ops_per_s": "improvement", "latency_p50_s": "improvement", "error_rate": "ok"}


def test_compare_marks_noisy_sets_unresolved():
    base = _set([100, 101, 99, 100], [1.0, 1.0, 1.0, 1.0])
    noisy = _set([50, 100, 150, 200], [1.0, 1.0, 1.0, 1.0])
    assert _verdicts(base, noisy)["ops_per_s"] == "unresolved"
    assert _verdicts(noisy, base)["ops_per_s"] == "unresolved"


def test_compare_any_error_rate_increase_regresses():
    base = _set([100], [1.0])
    assert _verdicts(base, _set([100], [1.0], error_rate=0.01))["error_rate"] == "regression"
    assert _verdicts(_set([100], [1.0], error_rate=0.01), base)["error_rate"] == "ok"
