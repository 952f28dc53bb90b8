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

from repro.util.validation import check_power_of_two, check_range

EXAMPLES = Path(__file__).parent.parent / "examples"
SRC = Path(__file__).parent.parent / "src"


class TestValidationHelpers:
    def test_check_power_of_two(self):
        assert check_power_of_two(8, "x") == 8
        with pytest.raises(ValueError, match="x"):
            check_power_of_two(6, "x")

    def test_check_range(self):
        assert check_range(3.0, "y", low=0.0, high=5.0) == 3.0
        with pytest.raises(ValueError, match="y"):
            check_range(-1.0, "y", low=0.0)
        with pytest.raises(ValueError, match="y"):
            check_range(9.0, "y", high=5.0)
        assert check_range(123.0, "y") == 123.0  # unbounded


@pytest.mark.parametrize(
    "script,args",
    [
        ("quickstart.py", []),
        ("portability_sweep.py", ["256"]),
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


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro

        for name in ("Machine", "Trace", "TraceMetrics", "DBSP", "EvaluationModel"):
            assert hasattr(repro, name)

    def test_version(self):
        import repro

        assert repro.__version__ == "1.7.0"

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
