"""Tests for the Section-5 ascend–descend protocol (Lemma 5.1)."""

import numpy as np
import pytest

from repro.core.ascend_descend import ascend_descend_trace, rebalance_superstep
from repro.core.metrics import TraceMetrics
from repro.core.wiseness import measured_alpha
from repro.machine.folding import fold_trace
from repro.machine.trace import Trace
from repro.models import mesh_dbsp

from conftest import random_trace


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
        for rec in folded.records:
            keep = rec.src != rec.dst
            np.add.at(net_orig, rec.src[keep], 1)
            np.add.at(net_orig, rec.dst[keep], -1)
        net_new = np.zeros(p, dtype=np.int64)
        for rec in out.records:
            np.add.at(net_new, rec.src, 1)
            np.add.at(net_new, rec.dst, -1)
        assert np.array_equal(net_orig, net_new)

    def test_labels_at_least_original(self, rng):
        """Lemma 5.1: the expansion of an i-superstep uses labels >= i."""
        t = Trace(32)
        src = np.arange(8, 12)
        t.append(2, src, src + 4)  # a 2-superstep within cluster [8, 16)
        out = ascend_descend_trace(t, 32)
        out.validate()
        assert all(rec.label >= 2 for rec in out.records)

    def test_empty_superstep_preserved(self):
        t = Trace(16)
        t.append(1, np.empty(0, np.int64), np.empty(0, np.int64))
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
        t = Trace(v)
        t.append(0, np.zeros(m, np.int64), np.full(m, v // 2, np.int64))
        rec0 = t.records[0]
        out = ascend_descend_trace(t, p, include_prefix=False)
        out.validate()
        import math

        logp = 5
        for rec in out.records:
            k = rec.label
            fold = min(p, 1 << (k + 1))
            bound = 2 * (2 ** (k + 1)) * rec0.degree(v, fold) / p + 2
            assert rec.degree(p, p) <= bound

    def test_wise_after_protocol(self):
        """Theorem 5.3's proof makes A-tilde wise; check alpha improves."""
        v = p = 32
        t = Trace(v)
        t.append(0, np.zeros(64, np.int64), np.full(64, v // 2, np.int64))
        tm_raw = TraceMetrics(t)
        out = ascend_descend_trace(t, p, include_prefix=False)
        tm_ad = TraceMetrics(out)
        assert measured_alpha(tm_ad, p) > measured_alpha(tm_raw, p)

    def test_dbsp_time_improves_for_unbalanced_pattern(self):
        """Bilardi et al. '07a observation: spreading beats direct send."""
        v = p = 64
        m = 4096
        t = Trace(v)
        t.append(0, np.zeros(m, np.int64), np.full(m, v // 2, np.int64))
        machine = mesh_dbsp(p, d=1)  # strong bandwidth asymmetry
        d_raw = TraceMetrics(t).D_machine(machine)
        out = ascend_descend_trace(t, p, include_prefix=False)
        d_ad = TraceMetrics(out).D_machine(machine)
        assert d_ad < d_raw

    def test_balanced_pattern_not_ruined(self, rng):
        """On an already-wise pattern the protocol costs at most the
        Theorem 5.3 polylog factor."""
        v = p = 16
        t = Trace(v)
        src = np.arange(v // 2)
        t.append(0, src, src + v // 2)
        machine = mesh_dbsp(p, d=2)
        d_raw = TraceMetrics(t).D_machine(machine)
        out = ascend_descend_trace(t, p)
        d_ad = TraceMetrics(out).D_machine(machine)
        logp = 4
        assert d_ad <= 3 * (logp**2) * d_raw


class TestPrefixSupersteps:
    def test_prefix_emits_constant_degree(self):
        t = Trace(16)
        t.append(0, np.array([0]), np.array([8]))
        out = ascend_descend_trace(t, 16, include_prefix=True)
        out.validate()
        for rec in out.records:
            assert rec.degree(16, 16) <= 2

    def test_prefix_increases_superstep_count_logarithmically(self):
        t = Trace(16)
        t.append(0, np.array([0]), np.array([8]))
        bare = ascend_descend_trace(t, 16, include_prefix=False)
        full = ascend_descend_trace(t, 16, include_prefix=True)
        logp = 4
        assert bare.num_supersteps <= 2 * logp
        assert full.num_supersteps <= bare.num_supersteps * (2 * logp + 1)


class TestRebalanceUnit:
    def test_direct_call_appends(self):
        out = Trace(8)
        rebalance_superstep(
            out, 8, 0, np.array([0, 0]), np.array([4, 5]), include_prefix=False
        )
        assert out.num_supersteps >= 1
        out.validate()

    def test_self_messages_ignored(self):
        out = Trace(8)
        rebalance_superstep(
            out, 8, 0, np.array([3]), np.array([3]), include_prefix=False
        )
        assert all(rec.num_messages == 0 for rec in out.records)
