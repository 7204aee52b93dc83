#!/usr/bin/env python3
"""Compare two sets of end-to-end results against ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A B

``A`` (the baseline) and ``B`` are each a ``results/seed<N>.json`` file
or a directory of them (``*.layers.json`` is skipped); several files
make a set, and every row shows the set's median and quartiles.  Each
(workload, metric) row gets a verdict:

* ``unresolved``  -- either set's inter-quartile spread exceeds the
  metric's bound, so the two cannot be told apart: run longer or more;
* ``regression``  -- B's median is worse than A's by more than the bound;
* ``improvement`` -- better by more than the bound;
* ``ok``          -- within the bound.

``error_rate`` has no bound: any increase is a regression.  Exits 1 when
some row is a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from percentiles import quartiles, spread

ROOT = Path(__file__).resolve().parents[2]


def load_set(path: str) -> List[dict]:
    p = Path(path)
    files = (
        sorted(f for f in p.glob("*.json") if not f.name.endswith(".layers.json"))
        if p.is_dir()
        else [p]
    )
    if not files:
        raise SystemExit("compare.py: no result files in %s" % path)
    return [json.loads(f.read_text()) for f in files]


def _values(docs: List[dict], workload: str, metric: str) -> List[float]:
    out = []
    for doc in docs:
        entry = doc.get("workloads", {}).get(workload)
        if entry is None:
            continue
        if metric == "error_rate":
            out.append(float(entry["error_rate"]))
        elif metric in entry["metrics"]:
            out.append(float(entry["metrics"][metric]["value"]))
    return out


def compare(a: List[dict], b: List[dict], bench: dict) -> List[dict]:
    """One row per (workload, metric) present in both sets."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    rows = []
    for workload in workloads:
        for name in list(metrics) + ["error_rate"]:
            va, vb = _values(a, workload, name), _values(b, workload, name)
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            row = {"workload": workload, "metric": name, "a": qa, "b": qb}
            if name == "error_rate":
                row.update(bound=None, change=qb[1] - qa[1])
                row["verdict"] = "regression" if max(vb) > max(va) else "ok"
                rows.append(row)
                continue
            spec = metrics[name]
            bound = spec["bound"]
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if spec["better"] == "lower" else -change
            if spread(va) > bound or spread(vb) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
            elif worse < -bound:
                verdict = "improvement"
            else:
                verdict = "ok"
            row.update(bound=bound, change=change, verdict=verdict)
            rows.append(row)
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        "%-8s %-14s %-34s %-34s %8s %6s  %s"
        % ("workload", "metric", "A q1 / median / q3", "B q1 / median / q3",
           "change", "bound", "verdict")
    ]
    for row in rows:
        bound = "-" if row["bound"] is None else "%.0f%%" % (100 * row["bound"])
        change = (
            "%+.4f" % row["change"] if row["bound"] is None
            else "%+.1f%%" % (100 * row["change"])
        )
        lines.append(
            "%-8s %-14s %-34s %-34s %8s %6s  %s"
            % (
                row["workload"],
                row["metric"],
                "%.4g / %.4g / %.4g" % row["a"],
                "%.4g / %.4g / %.4g" % row["b"],
                change,
                bound,
                row["verdict"],
            )
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="baseline result file or directory")
    parser.add_argument("b", help="candidate result file or directory")
    parser.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    bench: Dict = json.loads(Path(args.bench).read_text())
    rows = compare(load_set(args.a), load_set(args.b), bench)
    print(render(rows))
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
