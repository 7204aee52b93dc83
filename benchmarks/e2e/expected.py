"""Independent correctness references for the end-to-end workloads.

None of these is derived from the detector under test:

* a paper subject must report exactly its Table-3 per-category counts
  (``AppSpec.quota``), which the synthetic app is calibrated to;
* a closure ladder must report exactly ``(looperK.state, cross-posted)``
  for each looper plus ``(app.shared, cross-posted)`` and
  ``(app.shared, multithreaded)`` -- ``loopers + 2`` races, by
  construction of :func:`repro.apps.ladder.ladder_trace`;
* a quiet trace must report no race;
* every report must cover exactly the operations that were generated;
* a served report must equal the offline ``analyze --json`` report on
  :func:`repro.obs.report_digest`.

:func:`check_report` returns ``None`` for a correct report and a one-line
reason otherwise; every reason counts as one failed operation.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.core.classification import RaceCategory
from repro.obs import report_digest

CROSS_POSTED = RaceCategory.CROSS_POSTED.value
MULTITHREADED = RaceCategory.MULTITHREADED.value


def subject(spec, ops: int) -> dict:
    return {
        "ops": ops,
        "per_category": {
            category.value: spec.quota(category).reported
            for category in RaceCategory
        },
    }


def ladder(loopers: int, ops: int) -> dict:
    races = [["looper%d.state" % k, CROSS_POSTED] for k in range(loopers)]
    races += [["app.shared", CROSS_POSTED], ["app.shared", MULTITHREADED]]
    return {"ops": ops, "races": sorted(races)}


def quiet(ops: int) -> dict:
    return {"ops": ops, "races": []}


def check_report(report: Optional[dict], expect: dict) -> Optional[str]:
    """Why ``report`` (a ``RaceReport.to_dict()`` document) is wrong for
    ``expect``, or ``None`` when it is right."""
    if not isinstance(report, dict) or not isinstance(report.get("races"), list):
        return "no report"
    if report.get("trace_length") != expect["ops"]:
        return "trace_length %r, generated %d ops" % (
            report.get("trace_length"),
            expect["ops"],
        )
    races = report["races"]
    if "races" in expect:
        got = sorted([race["location"], race["category"]] for race in races)
        if got != expect["races"]:
            return "races %s, expected %s" % (got, expect["races"])
        return None
    got = Counter(race["category"] for race in races)
    want = {cat: n for cat, n in expect["per_category"].items() if n}
    if dict(got) != want:
        return "per-category counts %s, expected %s" % (dict(got), want)
    return None


def check_served(served: dict, offline: dict) -> Optional[str]:
    """A served report must digest like the offline one."""
    if report_digest(served) != report_digest(offline):
        return "served report digest differs from offline analyze"
    return None
