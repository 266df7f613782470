"""Smoke test: the example scripts run to completion.

Each example drives the library from outside (its public API only), so
a signature change that the unit tests adapt to but an example does not
shows up here.  ``websearch_cluster_study`` is left out: it takes
several seconds on its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "example",
    ["quickstart", "datacenter_consolidation", "online_monitoring", "scenario_sweep"],
)
def test_example_runs(example, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{example}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
