"""``droidracer analyze`` imports only the analysis path.

Start-up is a fixed cost on every ``analyze`` invocation; the simulator,
the app registry, the explorer, the table harness, the service, and the
run-history/dashboard/regression/metrics modules are loaded by the
subcommands that use them.  ``-X importtime`` lists every module the
real ``python -m repro.cli`` process imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages/modules ``analyze`` must not import (nor any submodule).
NOT_ON_THE_ANALYSIS_PATH = (
    "repro.android",
    "repro.apps.registry",
    "repro.explorer",
    "repro.bench",
    "repro.service",
    "repro.obs.dashboard",
    "repro.obs.regression",
    "repro.obs.history",
    "repro.obs.metrics",
)


def imported_modules(stderr: str) -> set:
    """Module names from ``-X importtime`` output."""
    names = set()
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            name = line.rsplit("|", 1)[1].strip()
            if name != "imported package":
                names.add(name)
    return names


def test_analyze_imports_only_the_analysis_path(tmp_path):
    trace = tmp_path / "two.jsonl"
    trace.write_text(
        '{"kind": "threadinit", "thread": "t"}\n'
        '{"kind": "write", "location": "a.b", "thread": "t"}\n'
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DROIDRACER_HISTORY", None)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", "analyze", str(trace), "--json"],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["trace_length"] == 2

    modules = imported_modules(proc.stderr)
    assert "repro.core.race_detector" in modules  # the parse is sane
    loaded = sorted(
        name
        for name in modules
        for banned in NOT_ON_THE_ANALYSIS_PATH
        if name == banned or name.startswith(banned + ".")
    )
    assert loaded == []


def test_demo_app_names_match_the_registry():
    # The CLI offers DEMO_APP_NAMES as choices without importing the
    # registry; the two lists must not drift apart.
    from repro.apps import DEMO_APP_NAMES
    from repro.apps.registry import DEMO_APPS

    assert sorted(DEMO_APP_NAMES) == sorted(DEMO_APPS)
