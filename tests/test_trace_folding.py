"""Unit tests for traces, degrees and folding (Section 2 semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.folding import (
    F_vector,
    S_vector,
    fold_degrees,
    fold_message_counts,
    fold_trace,
)

from conftest import all_folds, make_trace, random_trace
from fold_oracles import fold_degrees_reference


def brute_degree(src, dst, v, p):
    """Reference degree computation by explicit per-processor counting."""
    block = v // p
    sent = [0] * p
    recv = [0] * p
    for s, d in zip(src, dst):
        if s // block != d // block:
            sent[s // block] += 1
            recv[d // block] += 1
    return max(max(sent), max(recv)) if len(src) else 0


def reference_degree(src, dst, v, p):
    """``h_s(n, p)`` of a one-superstep 0-labelled trace, by the oracle."""
    (degree,) = fold_degrees_reference(make_trace(v, (0, src, dst)), p)
    return int(degree)


class TestDegrees:
    def test_empty_superstep(self):
        assert reference_degree(np.empty(0, np.int64), np.empty(0, np.int64), 8, 4) == 0

    def test_internal_messages_free(self):
        src, dst = np.array([0, 1]), np.array([1, 0])
        assert reference_degree(src, dst, 8, 4) == 0  # both VPs map to processor 0
        assert reference_degree(src, dst, 8, 8) == 1

    def test_degree_counts_max_side(self):
        # VP0 sends 3 messages to 3 different halves-partners.
        src, dst = np.array([0, 0, 0]), np.array([4, 5, 6])
        assert reference_degree(src, dst, 8, 2) == 3  # proc 0 sends 3, proc 1 receives 3
        assert reference_degree(src, dst, 8, 8) == 3  # VP0 sends 3; receivers get 1 each

    def test_degree_on_fan_in(self):
        assert reference_degree(np.array([1, 2, 3]), np.array([0, 0, 0]), 4, 4) == 3

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_degree_matches_bruteforce(self, logp, data):
        v = 32
        p = 1 << logp
        m = data.draw(st.integers(0, 40))
        src = np.array(data.draw(st.lists(st.integers(0, v - 1), min_size=m, max_size=m)), dtype=np.int64)
        dst = np.array(data.draw(st.lists(st.integers(0, v - 1), min_size=m, max_size=m)), dtype=np.int64)
        assert reference_degree(src, dst, v, p) == brute_degree(src, dst, v, p)


class TestTrace:
    def test_validate_accepts_legal(self, rng):
        random_trace(32, 10, rng).validate()

    def test_validate_rejects_cluster_violation(self):
        t = make_trace(8, (1, np.array([0]), np.array([4])))
        with pytest.raises(ValueError):
            t.validate()

    def test_validate_rejects_bad_label(self):
        t = make_trace(8, (5, np.empty(0, np.int64), np.empty(0, np.int64)))
        with pytest.raises(ValueError):
            t.validate()

    def test_label_counts(self, rng):
        t = random_trace(16, 12, rng)
        counts = t.label_counts()
        assert sum(counts.values()) == 12


class TestFolding:
    def test_S_vector_counts_surviving_labels(self, rng):
        t = random_trace(32, 20, rng)
        for p in all_folds(32):
            S = S_vector(t, p)
            logp = len(S)
            expected = int(np.count_nonzero(t.labels < logp))
            assert S.sum() == expected

    def test_F_vector_consistent_with_degrees(self, rng):
        t = random_trace(32, 15, rng)
        for p in all_folds(32):
            F = F_vector(t, p)
            deg = fold_degrees(t, p)
            logp = len(F)
            for i in range(logp):
                manual = int(deg[t.labels == i].sum())
                assert F[i] == manual

    def test_fold_p1_empty(self, rng):
        t = random_trace(16, 5, rng)
        assert F_vector(t, 1).size == 0
        assert S_vector(t, 1).size == 0

    def test_fold_cannot_grow(self, rng):
        t = random_trace(16, 3, rng)
        with pytest.raises(ValueError):
            F_vector(t, 32)

    def test_fold_trace_valid_and_equivalent(self, rng):
        t = random_trace(64, 12, rng)
        for p in (4, 16, 64):
            ft = fold_trace(t, p)
            ft.validate()
            assert ft.v == p
            # message counts agree
            orig = fold_message_counts(t, p)
            kept = ft.counts.tolist()
            surviving = orig[t.labels < np.log2(p)].tolist()
            assert kept == surviving

    def test_fold_trace_drops_coarse_labels(self, rng):
        t = make_trace(16, (0, [0], [15]), (3, [0], [1]))
        ft = fold_trace(t, 4)
        assert ft.num_supersteps == 1  # the 3-superstep became local

    def test_degree_nonincreasing_total_under_folding(self, rng):
        # Total cross messages can only shrink when processors merge.
        t = random_trace(64, 10, rng)
        prev = None
        for p in reversed(all_folds(64)):  # 64, 32, ..., 2
            tot = fold_message_counts(t, p).sum()
            if prev is not None:
                assert tot <= prev
            prev = tot
