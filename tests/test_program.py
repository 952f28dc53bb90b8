"""Unit tests for ScheduleBuilder and the immutable columnar Trace it builds."""

import re

import numpy as np
import pytest

from repro.machine.folding import _level, fold_trace
from repro.machine.program import ScheduleBuilder
from repro.machine.trace import ClusterViolation, Trace

from conftest import MALFORMED_CSR, random_trace


def _trace_columns_equal(a: Trace, b: Trace) -> bool:
    return a.v == b.v and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("labels", "offsets", "src", "dst")
    )


class TestBuilder:
    def test_columnar_shape(self):
        b = ScheduleBuilder(8)
        b.superstep(0, np.array([0, 1]), np.array([4, 5]))
        b.superstep(1, np.array([0]), np.array([3]))
        b.superstep(2, np.empty(0, np.int64), np.empty(0, np.int64))
        s = b.build()
        assert isinstance(s, Trace)
        assert s.num_supersteps == 3
        assert s.total_messages == 3
        assert np.array_equal(s.labels, [0, 1, 2])
        assert np.array_equal(s.offsets, [0, 2, 3, 3])
        assert np.array_equal(s.counts, [2, 1, 0])
        label, src, dst = s.superstep(1)
        assert label == 1
        assert np.array_equal(src, [0]) and np.array_equal(dst, [3])

    def test_mismatched_arrays_rejected(self):
        b = ScheduleBuilder(4)
        with pytest.raises(ValueError):
            b.superstep(0, np.array([0, 1]), np.array([2]))
        with pytest.raises(ValueError):
            b.superstep(0, np.array([[0, 1]]), np.array([[2, 3]]))
        assert b.num_supersteps == 0

    @pytest.mark.parametrize(
        "src, dst",
        [
            (np.int64(0), np.int64(1)),  # scalars, not endpoint arrays
            (np.array([[0], [1]]), np.array([1, 0])),  # same size, 2-D src
            (np.array([0, 1]), np.array([[1, 0]])),  # same size, 2-D dst
        ],
        ids=["0-d", "2d-src", "2d-dst"],
    )
    def test_non_1d_arrays_rejected(self, src, dst):
        b = ScheduleBuilder(4)
        with pytest.raises(ValueError, match="1-D"):
            b.superstep(0, src, dst)
        assert b.num_supersteps == 0

    def test_batch_and_extend_match_single_supersteps(self):
        one = ScheduleBuilder(8)
        one.superstep(0, np.array([0, 1]), np.array([4, 5]))
        one.superstep(2, np.empty(0, np.int64), np.empty(0, np.int64))
        one.superstep(1, np.array([0]), np.array([3]))
        one.superstep(0, np.array([0, 1]), np.array([4, 5]))
        one.superstep(2, np.empty(0, np.int64), np.empty(0, np.int64))
        one.superstep(1, np.array([0]), np.array([3]))
        sub = ScheduleBuilder(8)
        sub.supersteps(np.array([0, 2, 1]), np.array([0, 2, 2, 3]),
                       np.array([0, 1, 0]), np.array([4, 5, 3]))
        composed = ScheduleBuilder(8)
        composed.extend(sub)
        composed.extend(sub)
        assert composed.num_supersteps == 6
        assert _trace_columns_equal(composed.build(), one.build())

    def test_extend_shares_the_frozen_arrays(self):
        sub = ScheduleBuilder(4)
        src = np.array([0, 1], dtype=np.int64)
        sub.superstep(0, src, np.array([2, 3], dtype=np.int64))
        b = ScheduleBuilder(4)
        b.extend(sub)
        assert b._srcs[0] is src
        with pytest.raises(ValueError):
            src[0] = 3
        with pytest.raises(ValueError, match="v=8"):
            b.extend(ScheduleBuilder(8))

    @pytest.mark.parametrize(
        "labels, offsets, src, dst, invariant", MALFORMED_CSR
    )
    def test_malformed_batch_rejected(self, labels, offsets, src, dst, invariant):
        b = ScheduleBuilder(8)
        with pytest.raises(ValueError, match=re.escape(invariant)):
            b.supersteps(*(np.array(a, np.int64) for a in (labels, offsets, src, dst)))
        assert b.num_supersteps == 0

    def test_recorded_arrays_are_frozen_not_copied(self):
        b = ScheduleBuilder(4)
        src = np.array([0, 1], dtype=np.int64)
        b.superstep(0, src, np.array([2, 3], dtype=np.int64))
        with pytest.raises(ValueError):
            src[0] = 3  # reusing the buffer would rewrite the record


def _one_superstep(v, label, src, dst):
    b = ScheduleBuilder(v)
    b.superstep(label, np.array(src, np.int64), np.array(dst, np.int64))
    return b.build()


class TestValidation:
    @pytest.mark.parametrize(
        "label, src, dst",
        [
            (0, [0, 7], [7, 0]),  # a 0-superstep allows any pair
            (1, [0, 4], [3, 7]),  # each pair stays inside its half
            (2, [0, 6], [1, 7]),  # ... inside its quarter
        ],
        ids=["label0-any-pair", "label1-within-halves", "label2-within-quarters"],
    )
    def test_legal_superstep_accepted(self, label, src, dst):
        _one_superstep(8, label, src, dst).validate()

    @pytest.mark.parametrize(
        "label, src, dst, error",
        [
            (1, [0], [4], ClusterViolation),  # 0 and 4 differ in the top bit
            (3, [], [], ValueError),  # labels are [0, log v) = [0, 3)
            (-1, [], [], ValueError),
            (0, [0], [8], ValueError),  # endpoint outside [0, v)
            (0, [-1], [0], ValueError),
        ],
        ids=["cluster-crossing", "label-log-v", "label-negative",
             "endpoint-too-large", "endpoint-negative"],
    )
    def test_illegal_superstep_rejected(self, label, src, dst, error):
        with pytest.raises(error):
            _one_superstep(8, label, src, dst).validate()

    @pytest.mark.parametrize("label", [1, 2, 3])
    def test_cluster_crossing_reports_first_message(self, label):
        """On M(16) the first VP outside VP 2's ``label``-cluster is
        ``2 ^ (16 >> label)``; the report names the first crossing message
        after a legal superstep, an empty one and a legal message of its
        own."""
        b = ScheduleBuilder(16)
        b.superstep(0, np.array([0, 15]), np.array([15, 0]))
        b.superstep(label, np.empty(0, np.int64), np.empty(0, np.int64))
        far = 2 ^ (16 >> label)
        b.superstep(label, np.array([3, 2, 5]), np.array([2, far, far]))
        with pytest.raises(ClusterViolation) as err:
            b.build().validate()
        assert str(err.value) == (
            f"superstep 2 (label {label}): message 2->{far} crosses its "
            f"{label}-cluster boundary"
        )

    @pytest.mark.parametrize("src, dst", [([-1], [0]), ([0], [-1]),
                                          ([16], [0]), ([0], [16])],
                             ids=["src-neg", "dst-neg", "src-v", "dst-v"])
    def test_endpoint_out_of_range_message(self, src, dst):
        with pytest.raises(ValueError) as err:
            _one_superstep(16, 0, src, dst).validate()
        assert type(err.value) is ValueError
        assert str(err.value) == "message endpoint outside [0, 16)"

    @pytest.mark.parametrize("label", [-1, 4])
    def test_label_out_of_range_message(self, label):
        b = ScheduleBuilder(16)
        b.superstep(0, np.array([0]), np.array([1]))
        b.superstep(label, np.array([0]), np.array([1]))
        with pytest.raises(ValueError) as err:
            b.build().validate()
        assert type(err.value) is ValueError
        assert str(err.value) == f"superstep 1: label {label} outside [0, 4) for v=16"

    def test_non_power_of_two_v_rejected(self):
        with pytest.raises(ValueError):
            ScheduleBuilder(6)
        with pytest.raises(ValueError):
            Trace(
                6, np.zeros(1, np.int64), np.array([0, 0]),
                np.empty(0, np.int64), np.empty(0, np.int64),
            )

    @pytest.mark.parametrize(
        "labels, offsets, src, dst, invariant", MALFORMED_CSR
    )
    def test_malformed_csr_rejected(self, labels, offsets, src, dst, invariant):
        t = Trace(
            8, *(np.array(a, np.int64) for a in (labels, offsets, src, dst))
        )
        with pytest.raises(ValueError, match=re.escape(invariant)):
            t.validate()
        assert not t.is_validated

    def test_valid_schedule_passes(self, rng):
        t = random_trace(16, 10, rng)
        assert not t.is_validated
        t.validate()
        assert t.is_validated


class TestTrace:
    def test_constructor_shares_the_columns(self, rng):
        t = random_trace(16, 8, rng)
        u = Trace(16, t.labels, t.offsets, t.src, t.dst)
        assert _trace_columns_equal(u, t)
        assert u.src is t.src and u.offsets is t.offsets

    def test_constructor_freezes_the_callers_arrays(self):
        cols = [np.array(a, np.int64) for a in ([0], [0, 2], [0, 1], [1, 0])]
        Trace(8, *cols)
        for arr in cols:
            with pytest.raises(ValueError):
                arr[0] = 1  # the trace now owns the column

    def test_same_arrays_distinct_tokens_and_memos(self, rng):
        a = random_trace(16, 8, rng)
        b = Trace(16, a.labels, a.offsets, a.src, a.dst)
        assert a.cache_token != b.cache_token
        assert fold_trace(a, 4) is not fold_trace(b, 4)
        assert _level(a, 2) is not _level(b, 2)
        assert _trace_columns_equal(fold_trace(a, 4), fold_trace(b, 4))

    def test_validation_is_on_request(self):
        t = _one_superstep(8, 2, [0], [4])
        assert not t.is_validated
        with pytest.raises(ClusterViolation):
            t.validate()
        assert not t.is_validated
        short = Trace(8, np.zeros(2, np.int64), np.array([0, 2]),
                      np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(ValueError, match="offsets has 2 entries"):
            short.validate()

    def test_superstep_views(self, rng):
        t = random_trace(16, 6, rng)
        for s in range(t.num_supersteps):
            label, src, dst = t.superstep(s)
            lo, hi = t.offsets[s], t.offsets[s + 1]
            assert label == t.labels[s]
            assert np.shares_memory(src, t.src) or src.size == 0
            assert np.array_equal(dst, t.dst[lo:hi])
        assert np.array_equal(
            t.superstep_index(), np.repeat(np.arange(t.num_supersteps), t.counts)
        )
        assert t.superstep_index() is t.superstep_index()


class TestAlgorithmsEmitSchedules:
    """Every Section-4 algorithm returns the validated trace it built."""

    @pytest.mark.parametrize("name", ["matmul", "fft"])
    def test_result_counts_match_the_trace(self, name):
        from repro.algorithms import fft, matmul

        rng = np.random.default_rng(0)
        if name == "matmul":
            res = matmul.run(rng.random((4, 4)), rng.random((4, 4)))
        else:
            res = fft.run(np.arange(16, dtype=complex))
        assert res.trace.is_validated
        assert res.supersteps == res.trace.num_supersteps
        assert res.messages == res.trace.total_messages
        assert res.v == res.trace.v

    def test_schedule_reexecution_is_deterministic(self):
        from repro.algorithms import sorting

        keys = np.random.default_rng(1).permutation(64).astype(float)
        a, b = sorting.run(keys), sorting.run(keys)
        assert a.trace is not b.trace
        assert _trace_columns_equal(a.trace, b.trace)
