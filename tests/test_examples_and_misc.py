"""Smoke tests for the example applications and remaining utilities.

The examples are part of the public deliverable: each must run end to end
on reduced sizes without error (their internal asserts check correctness
against reference implementations).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"
SRC = Path(__file__).parent.parent / "src"


@pytest.mark.parametrize(
    "script,args",
    [
        ("quickstart.py", []),
        ("portability_sweep.py", ["256"]),
        ("bound_validation.py", ["256"]),
        ("apsp_semiring.py", ["8"]),
        ("stencil_heat.py", ["32"]),
        ("broadcast_limits.py", ["256"]),
    ],
)
def test_example_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must narrate their output"


def test_e18_warm_store_removed_at_exit(tmp_path):
    """E18's primed warm store outlives its timed calls, not the process."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(SRC.parent / "benchmarks")])
    code = "import bench_e18_plan_executor as b; b.run_sweep_store_warm(b.QUICK)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmp_path.glob("e18-warm-*"))


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro

        for name in ("Trace", "TraceMetrics", "DBSP"):
            assert hasattr(repro, name)

    def test_version(self):
        import repro

        assert repro.__version__ == "1.8.0"

    def test_version_is_single_sourced(self):
        # pyproject.toml reads the version from repro.__version__; a
        # literal there drifts (it once said 0.3.0 beside 1.5.0).
        import re

        text = (SRC.parent / "pyproject.toml").read_text()
        assert not re.search(r"(?m)^\s*version\s*=\s*[\"']", text)
        assert 'dynamic = ["version"]' in text
        assert 'version = { attr = "repro.__version__" }' in text

    def test_quickstart_docstring_example(self):
        """The README/quickstart code path, inline."""
        from repro import TraceMetrics
        from repro.algorithms import matmul
        from repro.models import hypercube_dbsp, mesh_dbsp

        A = np.eye(4)
        result = matmul.run(A, A)
        assert np.allclose(result.product, A)
        m = TraceMetrics(result.trace)
        assert m.H(p=16, sigma=4.0) > 0
        assert m.D_machine(mesh_dbsp(16, d=2)) > 0
        assert m.D_machine(hypercube_dbsp(16)) > 0
