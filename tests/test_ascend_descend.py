"""Tests for the Section-5 ascend–descend protocol (Lemma 5.1)."""

import numpy as np
import pytest

from repro.core.ascend_descend import ascend_descend_trace, rebalance_superstep
from repro.core.metrics import TraceMetrics
from repro.core.wiseness import measured_alpha
from repro.machine.folding import fold_degrees, fold_trace
from repro.machine.program import ScheduleBuilder
from repro.models import mesh_dbsp

from conftest import make_trace, random_trace


def delivery_multiset(trace_on_p):
    """Net transport of a trace: (src, dst) multiset of message *chains*.

    The protocol replaces each direct message by a chain of hops; we
    verify by simulating token movement that every original message ends
    at its destination.
    """


class TestDelivery:
    @pytest.mark.parametrize("seed", range(5))
    def test_every_message_delivered(self, seed):
        rng = np.random.default_rng(seed)
        t = random_trace(64, 5, rng)
        p = 16
        out = ascend_descend_trace(t, p)
        out.validate()
        # Compare net flow: for each processor, (#sent - #received) must
        # match the folded original (chains conserve flow endpoints).
        folded = fold_trace(t, p)
        net_orig = np.zeros(p, dtype=np.int64)
        keep = folded.src != folded.dst
        np.add.at(net_orig, folded.src[keep], 1)
        np.add.at(net_orig, folded.dst[keep], -1)
        net_new = np.zeros(p, dtype=np.int64)
        np.add.at(net_new, out.src, 1)
        np.add.at(net_new, out.dst, -1)
        assert np.array_equal(net_orig, net_new)

    def test_labels_at_least_original(self, rng):
        """Lemma 5.1: the expansion of an i-superstep uses labels >= i."""
        src = np.arange(8, 12)
        t = make_trace(32, (2, src, src + 4))  # a 2-superstep within cluster [8, 16)
        out = ascend_descend_trace(t, 32)
        out.validate()
        assert (out.labels >= 2).all()

    def test_empty_superstep_preserved(self):
        t = make_trace(16, (1, [], []))
        out = ascend_descend_trace(t, 16)
        assert out.num_supersteps >= 1


class TestBalancing:
    def test_lemma_5_1_degree_bounds(self):
        """The Section-5 example: 0 -> v/2 with m messages.

        Lemma 5.1: the expansion of an i-superstep s consists of
        k-supersteps of degree O(2^{k+1} h_s(n, 2^{k+1}) / p) (plus the
        constant-degree prefix supersteps).  Check every emitted superstep
        against that bound with constant 2 (+2 slack).
        """
        v = p = 32
        m = 128
        t = make_trace(v, (0, np.zeros(m, np.int64), np.full(m, v // 2, np.int64)))
        out = ascend_descend_trace(t, p, include_prefix=False)
        out.validate()
        for k, degree in zip(out.labels.tolist(), fold_degrees(out, p)):
            fold = min(p, 1 << (k + 1))
            bound = 2 * (2 ** (k + 1)) * fold_degrees(t, fold)[0] / p + 2
            assert degree <= bound

    def test_wise_after_protocol(self):
        """Theorem 5.3's proof makes A-tilde wise; check alpha improves."""
        v = p = 32
        t = make_trace(v, (0, np.zeros(64, np.int64), np.full(64, v // 2, np.int64)))
        tm_raw = TraceMetrics(t)
        out = ascend_descend_trace(t, p, include_prefix=False)
        tm_ad = TraceMetrics(out)
        assert measured_alpha(tm_ad, p) > measured_alpha(tm_raw, p)

    def test_dbsp_time_improves_for_unbalanced_pattern(self):
        """Bilardi et al. '07a observation: spreading beats direct send."""
        v = p = 64
        m = 4096
        t = make_trace(v, (0, np.zeros(m, np.int64), np.full(m, v // 2, np.int64)))
        machine = mesh_dbsp(p, d=1)  # strong bandwidth asymmetry
        d_raw = TraceMetrics(t).D_machine(machine)
        out = ascend_descend_trace(t, p, include_prefix=False)
        d_ad = TraceMetrics(out).D_machine(machine)
        assert d_ad < d_raw

    def test_balanced_pattern_not_ruined(self, rng):
        """On an already-wise pattern the protocol costs at most the
        Theorem 5.3 polylog factor."""
        v = p = 16
        src = np.arange(v // 2)
        t = make_trace(v, (0, src, src + v // 2))
        machine = mesh_dbsp(p, d=2)
        d_raw = TraceMetrics(t).D_machine(machine)
        out = ascend_descend_trace(t, p)
        d_ad = TraceMetrics(out).D_machine(machine)
        logp = 4
        assert d_ad <= 3 * (logp**2) * d_raw


class TestPrefixSupersteps:
    def test_prefix_emits_constant_degree(self):
        t = make_trace(16, (0, [0], [8]))
        out = ascend_descend_trace(t, 16, include_prefix=True)
        out.validate()
        assert fold_degrees(out, 16).max() <= 2

    def test_prefix_increases_superstep_count_logarithmically(self):
        t = make_trace(16, (0, [0], [8]))
        bare = ascend_descend_trace(t, 16, include_prefix=False)
        full = ascend_descend_trace(t, 16, include_prefix=True)
        logp = 4
        assert bare.num_supersteps <= 2 * logp
        assert full.num_supersteps <= bare.num_supersteps * (2 * logp + 1)


class TestRebalanceUnit:
    def test_direct_call_appends(self):
        out = ScheduleBuilder(8)
        rebalance_superstep(
            out, 8, 0, np.array([0, 0]), np.array([4, 5]), include_prefix=False
        )
        assert out.num_supersteps >= 1
        out.build().validate()

    def test_self_messages_ignored(self):
        out = ScheduleBuilder(8)
        rebalance_superstep(
            out, 8, 0, np.array([3]), np.array([3]), include_prefix=False
        )
        built = out.build()
        assert built.num_supersteps >= 1 and built.total_messages == 0
