"""Unit tests for the columnar Schedule IR and its lowering to traces."""

import re

import numpy as np
import pytest

from repro.machine.program import Schedule, ScheduleBuilder
from repro.machine.trace import ClusterViolation, Trace

from conftest import MALFORMED_CSR, random_trace


def _trace_columns_equal(a: Trace, b: Trace) -> bool:
    ca, cb = a.columns(), b.columns()
    return (
        a.v == b.v
        and np.array_equal(ca.labels, cb.labels)
        and np.array_equal(ca.offsets, cb.offsets)
        and np.array_equal(ca.src, cb.src)
        and np.array_equal(ca.dst, cb.dst)
    )


class TestBuilder:
    def test_columnar_shape(self):
        b = ScheduleBuilder(8)
        b.superstep(0, np.array([0, 1]), np.array([4, 5]))
        b.superstep(1, np.array([0]), np.array([3]))
        b.superstep(2, np.empty(0, np.int64), np.empty(0, np.int64))
        s = b.build()
        assert s.num_supersteps == 3
        assert s.num_messages == 3
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

    def test_non_power_of_two_v_rejected(self):
        with pytest.raises(ValueError):
            ScheduleBuilder(6)
        with pytest.raises(ValueError):
            Schedule(
                6, np.zeros(1, np.int64), np.array([0, 0]),
                np.empty(0, np.int64), np.empty(0, np.int64),
            ).validate()

    @pytest.mark.parametrize(
        "labels, offsets, src, dst, invariant", MALFORMED_CSR
    )
    def test_malformed_csr_rejected(self, labels, offsets, src, dst, invariant):
        s = Schedule(
            8, *(np.array(a, np.int64) for a in (labels, offsets, src, dst))
        )
        with pytest.raises(ValueError, match=re.escape(invariant)):
            s.validate()

    def test_valid_schedule_passes(self, rng):
        t = random_trace(16, 10, rng)
        cols = t.columns()
        Schedule(16, cols.labels, cols.offsets, cols.src, cols.dst).validate()


class TestToTrace:
    def test_to_trace_shares_the_columns(self, rng):
        t = random_trace(16, 8, rng)
        cols = t.columns()
        s = Schedule(16, cols.labels, cols.offsets, cols.src, cols.dst)
        lowered = s.to_trace(validate=True)
        assert lowered.is_validated
        assert _trace_columns_equal(lowered, t)
        assert lowered.columns().src is s.src

    def test_to_trace_validates_on_request(self):
        s = _one_superstep(8, 2, [0], [4])
        with pytest.raises(ClusterViolation):
            s.to_trace(validate=True)
        assert not s.to_trace().is_validated
        short = Schedule(8, np.zeros(2, np.int64), np.array([0, 2]),
                         np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(ValueError, match="offsets has 2 entries"):
            short.to_trace(validate=True)


class TestConcat:
    def test_concat(self):
        parts = []
        for lab in (0, 1):
            b = ScheduleBuilder(8)
            b.superstep(lab, np.array([0]), np.array([1]))
            parts.append(b.build())
        s = Schedule.concat(parts)
        assert s.num_supersteps == 2
        assert np.array_equal(s.labels, [0, 1])
        assert s.num_messages == 2

    def test_concat_shifts_offsets(self, rng):
        """Concatenating the halves of a recording gives the whole one."""
        t = random_trace(16, 9, rng)
        whole, first, second = (ScheduleBuilder(16) for _ in range(3))
        for i, r in enumerate(t.records):
            for b in (whole, first if i < 4 else second):
                b.superstep(r.label, r.src, r.dst)
        s = Schedule.concat([first.build(), second.build()])
        w = whole.build()
        for name in ("labels", "offsets", "src", "dst"):
            assert np.array_equal(getattr(s, name), getattr(w, name)), name
        s.validate()

    def test_concat_nothing_rejected(self):
        with pytest.raises(ValueError):
            Schedule.concat([])

    def test_concat_mixed_v_rejected(self):
        a = ScheduleBuilder(8).build()
        b = ScheduleBuilder(4).build()
        with pytest.raises(ValueError):
            Schedule.concat([a, b])


class TestAlgorithmsEmitSchedules:
    """Every Section-4 algorithm now returns its compiled IR."""

    def test_matmul_schedule_consistent(self):
        from repro.algorithms import matmul

        rng = np.random.default_rng(0)
        res = matmul.run(rng.random((4, 4)), rng.random((4, 4)))
        assert isinstance(res.schedule, Schedule)
        assert res.schedule.num_supersteps == res.supersteps
        assert res.schedule.num_messages == res.messages
        assert _trace_columns_equal(res.schedule.to_trace(), res.trace)

    def test_fft_schedule_consistent(self):
        from repro.algorithms import fft

        res = fft.run(np.arange(16, dtype=complex))
        assert isinstance(res.schedule, Schedule)
        assert _trace_columns_equal(res.schedule.to_trace(), res.trace)

    def test_schedule_reexecution_is_deterministic(self):
        from repro.algorithms import sorting

        keys = np.random.default_rng(1).permutation(64).astype(float)
        res = sorting.run(keys)
        assert _trace_columns_equal(res.schedule.to_trace(validate=True), res.trace)
