"""A fresh process loads the library without scipy or networkx.

scipy serves only :func:`repro.analysis.stats.t_confidence_interval` and is
imported on its first call; the neighbour table needs no graph library.  The
check runs in a new interpreter because the test session itself may already
have imported either package.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
import sys

import repro.api
import repro.cli

loaded = sorted(name for name in ("scipy", "networkx") if name in sys.modules)

from repro.analysis.stats import t_confidence_interval

interval = t_confidence_interval([10.0, 12.0, 11.0, 13.0, 9.0])
print(json.dumps({"loaded": loaded, "scipy_after": "scipy" in sys.modules,
                  "interval": interval}))
"""


def test_library_import_leaves_scipy_and_networkx_unloaded():
    env = dict(os.environ, PYTHONPATH="src")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert result["scipy_after"]
    # Mean 11, sample std sqrt(2.5), n = 5: the 95% interval is
    # 11 -/+ t(0.975, df=4) * sqrt(2.5 / 5).
    half_width = 2.7764451051977987 * math.sqrt(2.5 / 5)
    low, high = result["interval"]
    assert low == pytest.approx(11.0 - half_width, rel=1e-12)
    assert high == pytest.approx(11.0 + half_width, rel=1e-12)
