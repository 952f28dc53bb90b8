"""Property tests: columnar folding kernels == per-superstep references.

The vectorised ``fold_degrees``/``F_vector``/``S_vector``/``fold_trace``/
``fold_message_counts`` must be *bit-identical* to the original
superstep-by-superstep implementations (the ``*_reference`` oracles of
``tests/fold_oracles.py``) on arbitrary legal traces — this is the contract that lets every downstream metric
switch to the fast kernels without re-deriving anything.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.folding import (
    F_vector,
    S_vector,
    FOLD_CACHE,
    fold_degrees,
    fold_message_counts,
    fold_trace,
)
from repro.machine.program import ScheduleBuilder
from repro.machine.trace import Trace

from conftest import all_folds, make_trace, random_trace
from fold_oracles import (
    F_vector_reference,
    S_vector_reference,
    fold_degrees_reference,
    fold_message_counts_reference,
    fold_trace_reference,
)

COLUMNS = ("labels", "offsets", "src", "dst")


def _same_columns(a: Trace, b: Trace) -> bool:
    return a.v == b.v and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in COLUMNS
    )

traces = st.builds(
    lambda seed, logv, steps: random_trace(
        1 << logv, steps, np.random.default_rng(seed)
    ),
    seed=st.integers(0, 2**31),
    logv=st.integers(0, 7),
    steps=st.integers(0, 12),
)


def _folds(v: int):
    return [1] + all_folds(v)


class TestKernelsMatchReference:
    @given(traces)
    @settings(max_examples=60, deadline=None)
    def test_fold_degrees(self, t):
        for p in _folds(t.v):
            assert np.array_equal(fold_degrees(t, p), fold_degrees_reference(t, p))

    @given(traces)
    @settings(max_examples=60, deadline=None)
    def test_F_and_S_vectors(self, t):
        for p in _folds(t.v):
            assert np.array_equal(F_vector(t, p), F_vector_reference(t, p))
            assert np.array_equal(S_vector(t, p), S_vector_reference(t, p))

    @given(traces)
    @settings(max_examples=60, deadline=None)
    def test_fold_message_counts(self, t):
        for p in _folds(t.v):
            assert np.array_equal(
                fold_message_counts(t, p), fold_message_counts_reference(t, p)
            )

    @given(traces)
    @settings(max_examples=60, deadline=None)
    def test_fold_trace(self, t):
        for p in _folds(t.v):
            assert _same_columns(fold_trace(t, p), fold_trace_reference(t, p))

    def test_sparse_grid_path(self):
        """Force the sort-based group-by branch (huge S*p, few messages)."""
        v = 1 << 12
        builder = ScheduleBuilder(v)
        rng = np.random.default_rng(7)
        for _ in range(600):
            builder.superstep(0, rng.integers(0, v, 3), rng.integers(0, v, 3))
        t = builder.build()
        p = v  # S * p = 600 * 4096 >> 4 * messages
        assert np.array_equal(fold_degrees(t, p), fold_degrees_reference(t, p))


EMIT_HEAVY_SOURCES = (
    ("stencil1d", 32), ("stencil2d", 8), ("sort", 256), ("matmul", 64),
    ("fft", 1024),
)


@pytest.mark.parametrize("algorithm,n", EMIT_HEAVY_SOURCES)
def test_table_rows_match_reference_on_emitted_traces(algorithm, n):
    """The Hypothesis strategy stops at v = 128; real emitted traces reach
    v = 1024, so every p of each source is checked against the oracles."""
    from repro.api import run

    t = run(algorithm, n=n, seed=1).trace
    for p in _folds(t.v):
        assert np.array_equal(fold_degrees(t, p), fold_degrees_reference(t, p))
        assert np.array_equal(
            fold_message_counts(t, p), fold_message_counts_reference(t, p)
        )
        assert np.array_equal(F_vector(t, p), F_vector_reference(t, p))
        assert np.array_equal(S_vector(t, p), S_vector_reference(t, p))
        assert _same_columns(fold_trace(t, p), fold_trace_reference(t, p))


class TestFoldCache:
    def test_cache_returns_consistent_results(self, rng):
        FOLD_CACHE.clear()
        t = random_trace(16, 6, rng)
        first = fold_degrees(t, 4)
        assert fold_degrees(t, 4) is first  # memoised

    def test_fold_trace_is_one_object_per_p(self, rng):
        t = random_trace(16, 6, rng)
        folded = fold_trace(t, 4)
        assert fold_trace(t, 4) is folded
        assert fold_trace(t, 8) is not folded
        # The folded trace's own memo survives across callers.
        assert folded.superstep_index() is fold_trace(t, 4).superstep_index()

    def test_cached_results_are_read_only(self, rng):
        t = random_trace(16, 5, rng)
        folded = fold_trace(t, 8)
        for arr in (fold_degrees(t, 8), F_vector(t, 8), *(getattr(folded, c) for c in COLUMNS)):
            with pytest.raises(ValueError):
                arr[:] = 0  # shared cache entries must not be mutable

    def test_fold_table_is_read_only(self, rng):
        # Regression (RPR002): the per-trace fold table and level rows are
        # cached and shared across every fold of the same trace; a
        # caller writing through them would silently corrupt later folds.
        from repro.machine.folding import _level, _table

        t = random_trace(16, 5, rng)
        fold_degrees(t, 8)  # populate the per-trace cache
        for arr in (*_table(t), *_level(t, 3)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0

    def test_cluster_illegal_trace_rejected(self):
        t = make_trace(8, (1, [0], [4]))  # crosses its 1-cluster
        with pytest.raises(ValueError, match="cluster-illegal"):
            fold_degrees(t, 2)

    def test_label_outside_range_rejected(self):
        t = make_trace(
            8,
            (0, [0], [4]),
            (3, [5], [5]),  # label log v carries a message
            (7, [], []),
        )
        for fold in (fold_degrees, fold_trace, S_vector):
            with pytest.raises(ValueError, match="label 3 carries messages"):
                fold(t, 2)

    def test_distinct_traces_not_conflated(self, rng):
        a = random_trace(16, 5, rng)
        b = random_trace(16, 5, rng)
        assert np.array_equal(fold_degrees(a, 8), fold_degrees_reference(a, 8))
        assert np.array_equal(fold_degrees(b, 8), fold_degrees_reference(b, 8))


class TestScheduleReplayIsBitIdentical:
    """A trace replayed through ``ScheduleBuilder`` builds back to itself."""

    @given(traces)
    @settings(max_examples=40, deadline=None)
    def test_replay(self, t):
        builder = ScheduleBuilder(t.v)
        for s in range(t.num_supersteps):
            builder.superstep(*t.superstep(s))
        replayed = builder.build()
        replayed.validate()
        assert replayed.is_validated
        assert _same_columns(replayed, t)
