"""End-to-end integration tests of the paper's main theorems.

These tests exercise the full stack: run a network-oblivious algorithm on
its specification machine, fold it, measure wiseness/beta against a
parameter-aware baseline, and verify the optimality-transfer inequality
of Theorem 3.4 (and the Section-5 pipeline for Theorem 5.3) on concrete
admissible D-BSP machines.
"""

import numpy as np
import pytest

from repro.algorithms import fft, matmul, matmul_space, sorting
from repro.baselines import cube_3d, summa_2d, transpose_fft
from repro.core import TraceMetrics, measured_alpha, measured_beta, verify_transfer
from repro.core.ascend_descend import ascend_descend_trace
from repro.core.fullness import measured_gamma
from repro.core.optimality import transfer_factor
from repro.models import fat_tree_dbsp, hypercube_dbsp, mesh_dbsp
from repro.networks import by_name, fit, route_trace

from conftest import make_trace


MACHINES = [
    lambda p: mesh_dbsp(p, d=1),
    lambda p: mesh_dbsp(p, d=2),
    hypercube_dbsp,
    fat_tree_dbsp,
]


class TestTheorem34MatMul:
    """Corollary 4.3 empirically: the oblivious MM is near the aware 3-D
    algorithm on every admissible machine."""

    @pytest.mark.parametrize("machine_of", MACHINES)
    def test_transfer_on_machines(self, rng, machine_of):
        side = 16
        p = 64
        A, B = rng.random((side, side)), rng.random((side, side))
        m_A = TraceMetrics(matmul.run(A, B).trace)
        m_C = TraceMetrics(cube_3d(A, B, p).trace)
        machine = machine_of(p)
        alpha = min(1.0, measured_alpha(m_A, p))
        sigmas = np.geomspace(0.5, 64, 9)
        beta = measured_beta(m_A, m_C, p, sigmas)
        rep = verify_transfer(m_A, m_C, machine, beta=beta, alpha=alpha)
        assert rep.holds, str(rep)

    def test_factor_theta_one(self, rng):
        """alpha, beta = Theta(1) => transfer factor Theta(1)."""
        side = 16
        A, B = rng.random((side, side)), rng.random((side, side))
        m_A = TraceMetrics(matmul.run(A, B).trace)
        p = 64
        alpha = measured_alpha(m_A, p)
        m_C = TraceMetrics(cube_3d(A, B, p).trace)
        beta = measured_beta(m_A, m_C, p, [0.0, 1.0, 8.0])
        assert transfer_factor(min(1, alpha), max(beta, 1e-6)) > 0.02


class TestTheorem34FFT:
    @pytest.mark.parametrize("machine_of", MACHINES)
    def test_transfer_on_machines(self, rng, machine_of):
        n, p = 1024, 16
        x = rng.random(n) + 0j
        m_A = TraceMetrics(fft.run(x).trace)
        m_C = TraceMetrics(transpose_fft(x, p).trace)
        machine = machine_of(p)
        alpha = min(1.0, measured_alpha(m_A, p))
        beta = measured_beta(m_A, m_C, p, np.geomspace(0.5, 64, 9))
        rep = verify_transfer(m_A, m_C, machine, beta=beta, alpha=alpha)
        assert rep.holds, str(rep)

    def test_beta_theta_one_in_valid_range(self, rng):
        """For p <= sqrt(n) the oblivious FFT is within a constant of the
        aware one at every sigma (both are Theta(n/p + sigma))."""
        n = 1024
        x = rng.random(n) + 0j
        m_A = TraceMetrics(fft.run(x).trace)
        for p in (4, 16, 32):
            m_C = TraceMetrics(transpose_fft(x, p).trace)
            beta = measured_beta(m_A, m_C, p, [0.0, 1.0, 16.0])
            assert beta >= 0.1


class TestTheorem34Sorting:
    def test_transfer_mesh(self, rng):
        from repro.baselines import sample_sort

        n, p = 1024, 8
        keys = rng.permutation(n).astype(float)
        m_A = TraceMetrics(sorting.run(keys).trace)
        m_C = TraceMetrics(sample_sort(keys, p).trace)
        machine = mesh_dbsp(p, d=2)
        alpha = min(1.0, measured_alpha(m_A, p))
        beta = measured_beta(m_A, m_C, p, np.geomspace(0.5, 64, 9))
        rep = verify_transfer(m_A, m_C, machine, beta=beta, alpha=alpha)
        assert rep.holds, str(rep)


class TestSpaceMMvs3D:
    def test_crossover_shape(self, rng):
        """Space-efficient MM ~ summa_2d; plain MM ~ cube_3d: the oblivious
        algorithms land in the right complexity class of their aware twins."""
        side = 16
        n = side * side
        A, B = rng.random((side, side)), rng.random((side, side))
        p = 64
        h_space = TraceMetrics(matmul_space.run(A, B).trace).H(p, 0.0)
        h_summa = TraceMetrics(summa_2d(A, B, p).trace).H(p, 0.0)
        h_fast = TraceMetrics(matmul.run(A, B).trace).H(p, 0.0)
        h_cube = TraceMetrics(cube_3d(A, B, p).trace).H(p, 0.0)
        assert h_space / h_summa < 8
        assert h_fast / h_cube < 8


class TestTheorem53Pipeline:
    def test_unbalanced_algorithm_rescued(self):
        """Full Section-5 pipeline on the canonical non-wise pattern."""
        v = 64
        m = 512
        t = make_trace(v, (0, np.zeros(m, np.int64), np.full(m, v // 2, np.int64)))
        tm = TraceMetrics(t)
        assert measured_gamma(tm, v) >= 1.0  # full
        assert measured_alpha(tm, v) <= 0.1  # not wise

        p = 64
        machine = mesh_dbsp(p, d=1)
        d_plain = tm.D_machine(machine)
        tilde = ascend_descend_trace(t, p)
        tilde.validate()
        tm_tilde = TraceMetrics(tilde)
        # The protocol's trace is wise (Theorem 5.3's proof) ...
        assert measured_alpha(tm_tilde, p) > measured_alpha(tm, p)
        # ... and on a bandwidth-asymmetric machine it is faster.
        assert tm_tilde.D_machine(machine) < d_plain

    def test_log2p_envelope_on_balanced_traces(self, rng):
        """Theorem 5.3: the protocol never costs more than ~log^2 p extra."""
        from conftest import random_trace

        p = 32
        logp = 5
        for seed in range(3):
            t = random_trace(p, 6, np.random.default_rng(seed))
            machine = hypercube_dbsp(p)
            d_plain = TraceMetrics(t).D_machine(machine)
            d_tilde = TraceMetrics(ascend_descend_trace(t, p)).D_machine(machine)
            if d_plain > 0:
                assert d_tilde <= 6 * logp**2 * d_plain


def _dbsp_ratio(trace, topo):
    """Routed time over the time D-BSP fitted to ``topo`` predicts."""
    routed = route_trace(trace, topo).total_time
    return routed / TraceMetrics(trace).D_machine(fit(topo))


class TestNetworkReality:
    """E11: the D-BSP cost model tracks routed time on real topologies
    for the actual Section-4 algorithm traces."""

    @pytest.mark.parametrize("name", ["mesh2d", "hypercube", "fat-tree"])
    def test_fft_trace_on_networks(self, rng, name):
        res = fft.run(rng.random(256) + 0j)
        assert 0.1 <= _dbsp_ratio(res.trace, by_name(name, 16)) <= 10.0

    @pytest.mark.parametrize("name", ["mesh2d", "hypercube"])
    def test_matmul_trace_on_networks(self, rng, name):
        res = matmul.run(rng.random((16, 16)), rng.random((16, 16)))
        assert 0.05 <= _dbsp_ratio(res.trace, by_name(name, 64)) <= 20.0
