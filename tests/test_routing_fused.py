"""Property tests: the fused multi-superstep router is bit-identical to
the per-superstep loop, on every topology, under every policy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.machine.folding import fold_trace
from repro.networks import by_name, by_policy, route_trace
from repro.networks.routing import (
    _FUSED_MAX_BATCH,
    _FUSED_MAX_CELLS,
    _profile_arrays_fused,
    _profile_arrays_loop,
)
from repro.networks.topology import TOPOLOGIES, Topology

SRC = Path(__file__).resolve().parent.parent / "src"

TOPOLOGY_NAMES = tuple(TOPOLOGIES)
POLICY_NAMES = ("dimension-order", "valiant")


@pytest.fixture(scope="module")
def traces():
    from repro.api import run

    return {
        "matmul": run("matmul", n=64, seed=0).trace,
        "fft": run("fft", n=256, seed=1).trace,
        "prefix": run("prefix", n=64, seed=2).trace,
        "broadcast": run("broadcast", n=64, seed=3).trace,
    }


@pytest.mark.parametrize("topo_name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@pytest.mark.parametrize("p", [4, 16])
def test_fused_bit_identical_to_loop(traces, topo_name, policy_name, p):
    topo = by_name(topo_name, p)
    policy = by_policy(policy_name, seed=5)
    for name, trace in traces.items():
        cols = fold_trace(trace, p, keep_empty=True).columns()
        loop = _profile_arrays_loop(topo, policy, cols)
        fused = _profile_arrays_fused(topo, policy, cols)
        assert fused is not None
        for a, b, what in zip(loop, fused, ("congestion", "dilation", "time")):
            assert np.array_equal(a, b), (name, what)


def test_route_loads_multi_matches_per_segment_route_loads():
    """Row s of the fused load grid == route_loads on segment s alone."""
    rng = np.random.default_rng(11)
    p, m, segs = 16, 300, 5
    src = rng.integers(0, p, m)
    dst = rng.integers(0, p, m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    seg = rng.integers(0, segs, src.size)
    for name in TOPOLOGY_NAMES:
        topo = by_name(name, p)
        grid = topo.route_loads_multi(src, dst, seg, segs)
        assert grid.shape == (segs, topo.num_edges())
        for s in range(segs):
            mask = seg == s
            expected, _ = topo.route_loads(src[mask], dst[mask])
            assert np.array_equal(grid[s], expected), (name, s)


def test_route_trace_falls_back_above_cell_ceiling(monkeypatch, traces):
    """Dropping the grid ceiling to 0 forces the loop path; results match."""
    import repro.networks.routing as routing

    topo = by_name("torus2d", 16)
    policy = by_policy("valiant", seed=2)
    trace = traces["prefix"]  # many small supersteps: inside the fuse gate
    cols = fold_trace(trace, 16, keep_empty=True).columns()
    assert routing._fuses(cols, topo)
    routing.clear_route_cache()
    fused_profile = route_trace(trace, topo, policy)
    monkeypatch.setattr(routing, "_FUSED_MAX_CELLS", 0)
    routing.clear_route_cache()
    loop_profile = route_trace(trace, topo, policy)
    assert np.array_equal(fused_profile.time, loop_profile.time)
    assert np.array_equal(fused_profile.congestion, loop_profile.congestion)
    assert np.array_equal(fused_profile.dilation, loop_profile.dilation)
    routing.clear_route_cache()


def test_unfusible_topology_falls_back_to_loop(traces):
    """A custom topology without route_loads_multi still routes correctly."""

    class Star(Topology):
        # Hub-and-spoke: every message crosses src-spoke then dst-spoke.
        def __init__(self, p):
            super().__init__(p)
            self.name = "star"

        def num_edges(self):
            return self.p

        def pair_distance(self, src, dst):
            return np.where(src == dst, 0, 2)

        def route_loads(self, src, dst):
            loads = (
                np.bincount(src, minlength=self.p)
                + np.bincount(dst, minlength=self.p)
            ).astype(np.float64)
            return loads, 2 if src.size else 0

    profile = route_trace(traces["prefix"], Star(16))
    # Loop-path profile must be produced (no crash) and satisfy the
    # barrier accounting: every superstep costs >= 1.
    assert (profile.time >= 1.0).all()
    assert profile.num_supersteps > 0


def test_fused_gate_constants():
    assert _FUSED_MAX_CELLS == 1 << 21
    assert _FUSED_MAX_BATCH == 1024


_DECISIONS = """
import json

import numpy as np
from repro.api import run
from repro.machine.folding import fold_trace
from repro.machine.trace import Trace
from repro.networks import by_name
from repro.networks.routing import _fuses
from repro.networks.topology import TOPOLOGIES


def batch_trace(batch):
    rng = np.random.default_rng(batch)
    trace = Trace(16)
    for _ in range(2):
        src = rng.integers(0, 16, batch)
        trace.append(0, src, (src + 1 + rng.integers(0, 15, batch)) % 16)
    return trace


def decisions():
    traces = [
        run("fft", n=256, seed=1).trace,
        run("sort", n=128, seed=1).trace,
        batch_trace(1024),
        batch_trace(1025),
    ]
    return [
        _fuses(fold_trace(t, p, keep_empty=True).columns(), by_name(name, p))
        for t in traces
        for name in TOPOLOGIES
        for p in (4, 16)
    ]
"""

#: The script's helpers, shared with the in-process tests below.
_SCRIPT: dict = {}
exec(_DECISIONS, _SCRIPT)


@pytest.mark.parametrize("batch, fused", [(1024, True), (1025, False)])
def test_average_batch_threshold_picks_path(monkeypatch, batch, fused):
    """An average batch of 1024 messages fuses, 1025 loops; either way the
    profile equals both the fused and the loop arrays bit for bit."""
    import repro.networks.routing as routing

    topo = by_name("torus2d", 16)
    policy = by_policy("valiant", seed=3)
    trace = _SCRIPT["batch_trace"](batch)
    cols = fold_trace(trace, 16, keep_empty=True).columns()
    calls = []
    real = routing._profile_arrays_fused
    monkeypatch.setattr(
        routing,
        "_profile_arrays_fused",
        lambda *args: calls.append(args) or real(*args),
    )
    routing.clear_route_cache()
    profile = route_trace(trace, topo, policy)
    assert bool(calls) is fused
    loop = _profile_arrays_loop(topo, policy, cols)
    fused_arrays = real(topo, policy, cols)
    for arrays in (loop, fused_arrays):
        for a, b in zip(arrays, (profile.congestion, profile.dilation, profile.time)):
            assert np.array_equal(a, b)
    routing.clear_route_cache()


def test_fuse_decision_is_the_same_in_a_fresh_process():
    """The fused-or-looped choice depends on the trace and topology only,
    so a fresh interpreter decides every cell the same way."""
    here = _SCRIPT["decisions"]()
    assert True in here and False in here
    out = subprocess.run(
        [sys.executable, "-c", _DECISIONS + "\nprint(json.dumps(decisions()))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(out.stdout) == here
