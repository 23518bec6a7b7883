"""Smoke test of the benchmark itself: tiny scale, every workload.

Runs ``run.py --smoke``, which runs each workload untraced and traced at
``tiny`` scale and fails unless every metric declared in
``BENCHMARK.json`` is emitted with its unit and every output check
passed.  Run with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_all_workloads():
    """Every workload, untraced and traced, emits its metrics and passes."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in ("scan_series", "ddos_playbook", "serve_live"):
        for trace in (0, 1):
            assert f"smoke {workload} trace={trace}:" in proc.stdout
